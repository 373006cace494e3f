"""Spectral densities of the stationary Langevin solution.

With Kc = Kcos(w), Ks = Ksin(w), a = lam + beta Kc, b = gamma - m w^2 +
beta w Ks and B = b/w = gamma/w - m w + beta Ks,

    r11(w) = 2 a / (b^2 + w^2 a^2),
    r22(w) = w^2 r11(w) = 2 a / (B^2 + a^2),
    r12(w) = i w r11(w) = 2 i a / (B b + w a^2),

and the spectral measure of (x, v) is kbt/(2 pi) (r_ij) dw.  The position
density r11 exists only in the trapped case gamma > 0; for the free particle
the velocity density r22 remains well defined.  r22 and r12 are evaluated in
their right-hand forms, with the powers of w divided into the denominator,
so they stay finite where w^2 r11 would underflow first.  At w = 0 the
formulas give the limits themselves: in a trap B = gamma/w is inf, so r22
and r12 vanish and take no transform; for the free particle B = 0, so
r22 = 2/(lam + beta Kcos(0)).  Every density is evaluated through one call
of ``kcos_ksin_grid``, which alone decides whether Kcos(0) exists.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import GleParams, MemoryKernel, TailClass
from .errors import TransformDomainError
from .quad import DEFAULT_QUAD, QuadConfig
from .transforms import abelian_limits, kcos_ksin_grid


@dataclass(frozen=True)
class SpectralDensityCtx:
    """A (parameters, kernel) pair with the quadrature budget used on it."""

    params: GleParams
    kernel: MemoryKernel
    quad: QuadConfig = DEFAULT_QUAD

    def __post_init__(self):
        if not isinstance(self.kernel, MemoryKernel):
            raise TypeError("kernel must be a MemoryKernel preset")


def _evaluate(ctx, omega, formula, origin=True):
    """The columns formula(params, w, Kcos, Ksin) on the frequencies omega,
    from one kcos_ksin_grid call: numbers for a scalar omega, else arrays of
    its shape.  With origin=False the rows at w = 0 take no transform: the
    formula's limit there does not depend on Kcos or Ksin."""
    omega = np.asarray(omega, dtype=float)
    w = np.atleast_1d(omega)
    kc, ks = np.zeros(w.shape), np.zeros(w.shape)
    rows = slice(None) if origin else w != 0.0
    kc[rows], ks[rows] = kcos_ksin_grid(ctx.kernel, w[rows], quad=ctx.quad)
    columns = formula(ctx.params, w, kc, ks)
    return tuple(c.item() for c in columns) if omega.ndim == 0 else columns


# at a huge w, w**2 overflows to inf, which gives each density its right
# limit, 0
@np.errstate(over="ignore")
def _r11_at(p, w, kc, ks):
    a = p.lam + p.beta * kc
    b = p.gamma - p.m * w ** 2 + p.beta * w * ks
    with np.errstate(invalid="ignore"):
        wa2 = w * w * a * a
    # where w*w overflows and a is 0, that product is inf*0: its value is (w*a)**2
    wa2 = np.where(np.isnan(wa2), (w * a) ** 2, wa2)
    return (2.0 * a / (b * b + wa2),)


@np.errstate(over="ignore", divide="ignore")
def _r22_r12_at(p, w, kc, ks):
    # r22 and Im r12 in the forms of the module docstring; gamma = 0 gives
    # the free-particle r22
    a = p.lam + p.beta * kc
    b = p.gamma - p.m * w ** 2 + p.beta * w * ks
    big_b = (p.gamma / w if p.trapped else 0.0) - p.m * w + p.beta * ks
    return 2.0 * a / (big_b * big_b + a * a), 2.0 * a / (big_b * b + w * a * a)


def _im_r12_at(p, w, kc, ks):
    return (1j * _r22_r12_at(p, w, kc, ks)[1],)


def _trapped_at(p, w, kc, ks):
    return (*_r11_at(p, w, kc, ks), *_r22_r12_at(p, w, kc, ks))


def r11(ctx, omega):
    """Position spectral density; defined for gamma > 0 only.  Even in omega.

    At omega = 0 the limit 2(lam + beta Int K)/gamma^2 is returned for
    integrable kernels; other tail classes diverge at the origin and raise
    TransformDomainError.
    """
    if not ctx.params.trapped:
        raise TransformDomainError(
            "position spectral density undefined for free particle (gamma = 0)"
        )
    return _evaluate(ctx, omega, _r11_at)[0]


def r22(ctx, omega):
    """Velocity spectral density w^2 r11(w); valid for gamma >= 0.

    The w^2 factor is cancelled analytically, which keeps the density finite
    at large frequency and, for gamma = 0 and integrable kernels, at the
    origin.
    """
    return _evaluate(ctx, omega, _r22_r12_at, origin=not ctx.params.trapped)[0]


def r12(ctx, omega):
    """Cross spectral density i w r11(w); purely imaginary, conjugate of r21."""
    if not ctx.params.trapped:
        raise TransformDomainError("cross spectral density needs gamma > 0")
    return _evaluate(ctx, omega, _im_r12_at, origin=False)[0]


def trapped_densities(ctx, omega):
    """(r11, r22, Im r12) of the trapped process on an array of frequencies,
    from one evaluation of the kernel transforms."""
    if not ctx.params.trapped:
        raise TransformDomainError("trapped densities need gamma > 0")
    return _evaluate(ctx, omega, _trapped_at)


@dataclass(frozen=True)
class NearZeroAsymptote:
    """Leading behavior of r11 near the origin, r11 ~ rate * shape(w).

    ``kind`` and ``exponent`` are those of the kernel's TailClass, whose
    shape(w) is 1 (integrable), |log w| (critical) or w^exponent with
    exponent = alpha - 1 (powerlaw).  ``rate`` is extracted numerically at
    w = 1e-4 (with a half-frequency Richardson consistency factor),
    ``rate_predicted`` from the kernel's small-frequency transform constants.
    """

    kind: str
    exponent: float
    rate: float
    rate_predicted: float
    richardson_drift: float


_RATE_PROBE = 1e-4


def near_zero_asymptote(ctx):
    """Classify and quantify the near-origin behavior of r11 (gamma > 0).

    For every tail class r11 ~ 2 (lam [integrable] + beta kcos_constant)
    shape(w)/gamma^2: lam adds to the limit only where Kcos stays finite.
    """
    p = ctx.params
    if not p.trapped:
        raise TransformDomainError("near-zero asymptote needs gamma > 0")
    tc = ctx.kernel.tail_class()
    ab = abelian_limits(ctx.kernel, quad=ctx.quad)
    lam = p.lam if tc.kind == TailClass.INTEGRABLE else 0.0
    predicted = 2.0 * (lam + p.beta * ab.kcos_constant) / p.gamma ** 2
    rate = r11(ctx, _RATE_PROBE) / tc.shape(_RATE_PROBE)
    rate_half = r11(ctx, 0.5 * _RATE_PROBE) / tc.shape(0.5 * _RATE_PROBE)
    return NearZeroAsymptote(
        tc.kind, tc.exponent, float(rate), float(predicted), float(abs(rate_half / rate - 1.0))
    )
