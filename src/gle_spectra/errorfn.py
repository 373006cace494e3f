"""Complex error-function family: Faddeeva w(z), erfc, and the Dawson integral.

Thin wrappers over ``scipy.special.wofz``, ``erfc`` and ``dawsn`` (S. G.
Johnson's Faddeeva package) that keep this package's contract: scalars in
give scalars out, non-finite arguments raise ValueError, and arguments at
which the exp(-z^2) factor of the result overflows double precision raise
UnrepresentableError instead of returning inf or nan.

All entry points accept scalars or ndarrays and are elementwise.
"""

import numpy as np

from .errors import UnrepresentableError

SQRT_PI = 1.7724538509055160273

_EXP_ARG_MAX = 700.0  # exp overflows near 709.78


def _finite(z, dtype, name):
    z = np.asarray(z, dtype=dtype)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"{name} requires finite arguments")
    return z


def faddeeva(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz), elementwise.

    Raises
    ------
    ValueError
        If any component of z is not finite.
    UnrepresentableError
        If z lies in the lower half-plane and the reflection term exp(-z^2)
        overflows double precision.
    """
    z = _finite(z, complex, "faddeeva")
    if np.any((z.imag < 0) & (z.imag ** 2 - z.real ** 2 > _EXP_ARG_MAX)):
        raise UnrepresentableError(
            "faddeeva unrepresentable: exp(-z^2) overflows in the lower half-plane"
        )
    from scipy import special

    w = special.wofz(z)
    return complex(w) if z.ndim == 0 else w


def dawson(x):
    """Dawson integral exp(-x^2) * Int_0^x exp(t^2) dt for real x, elementwise."""
    x = _finite(x, float, "dawson")
    from scipy import special

    d = special.dawsn(x)
    return float(d) if x.ndim == 0 else d


def erfc_complex(z):
    """Complementary error function erfc(z) for complex z, elementwise.

    Overflow of exp(-z^2) (on the reflected argument for Re z < 0, where
    erfc(z) = 2 - erfc(-z)) raises UnrepresentableError.
    """
    z = _finite(z, complex, "erfc_complex")
    if np.any(z.imag ** 2 - z.real ** 2 > _EXP_ARG_MAX):
        raise UnrepresentableError("erfc unrepresentable: exp(-z^2) overflows")
    from scipy import special

    vals = special.erfc(z)
    return complex(vals) if z.ndim == 0 else vals
