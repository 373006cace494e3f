"""Fourier cosine/sine transforms of memory kernels.

Four evaluation routes; each kernel class declares in ``routes`` the ones it
supports, its default first:

* ``closed_form``: explicit formulas, the kernel's ``closed_pair`` (power
  law via Gamma, 1/(1+t) via the sine/cosine integrals) or, for finite atom
  sums, the atom sum of the measure;
* ``cm_measure`` / ``phi_t2_faddeeva``: the Laplace-measure formulas
  Kcos +- i Ksin = Int (x +- i w)/(x^2 + w^2) mu(dx) for completely monotone
  kernels, and (sqrt(pi)/2) Int x^(-1/2) w(+-w/(2 sqrt x)) mu(dx) for
  phi(t^2) kernels;
* ``numeric``: direct oscillatory quadrature of the defining improper
  integrals, kept as the cross-check oracle for the other routes.

Kcos is even and Ksin odd in the frequency; all routes evaluate at |w| and
restore the sign of Ksin.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errorfn import SQRT_PI, dawson, faddeeva
from .errors import NoBernsteinRepresentation, TransformDomainError
from .kernels import (
    ROUTE_CLOSED,
    ROUTE_CM,
    ROUTE_NUMERIC,
    TailClass,
    kernel_eval,
    kernel_tail_class,
)
from .quad import DEFAULT_QUAD, integrate_oscillatory, integrate_to_infinity


@dataclass(frozen=True)
class TransformPair:
    """Values of the cosine and sine transforms at one frequency."""

    kcos: float
    ksin: float
    route: str


@lru_cache(maxsize=256)
def _measure_nodes(kernel):
    return kernel.bernstein().nodes()


# In the two measure routes a frequency far above the nodes overflows w/x or
# its square to inf, which gives each term its right limit, 0.
@np.errstate(over="ignore")
def _cm_pair(kernel, w):
    """Measure route for completely monotone kernels; w > 0 array."""
    x, mw = _measure_nodes(kernel)
    # x/(w^2 + x^2) = 1/(x (1 + r^2)) with r = w/x: no square of a node near
    # the top of the double range.  One frequencies x nodes matrix, inverted
    # in place, serves both sums.
    inv = np.multiply.outer(w, 1.0 / x)
    inv *= inv
    inv += 1.0
    inv *= x
    np.reciprocal(inv, out=inv)
    return inv @ mw, (inv @ (mw / x)) * w


@np.errstate(over="ignore")
def _phi_pair(kernel, w):
    """Faddeeva route for phi(t^2) kernels; w > 0 array."""
    x, mw = _measure_nodes(kernel)
    inv_sqrt = 1.0 / np.sqrt(x)
    arg = 0.5 * np.multiply.outer(w, inv_sqrt)
    kcos = 0.5 * SQRT_PI * (np.exp(-arg * arg) @ (mw * inv_sqrt))
    ksin = dawson(arg) @ (mw * inv_sqrt)
    return kcos, ksin


def _closed_pair(kernel, w):
    """Closed form: the kernel's own formula, else its measure's atom sum."""
    if kernel.closed_pair is None:
        return _cm_pair(kernel, w)
    return kernel.closed_pair(w)


def _numeric_pair(kernel, w, quad):
    f = lambda t: kernel_eval(kernel, t)
    out = []
    for phase in ("cos", "sin"):
        val, _ = integrate_oscillatory(
            f, float(w), phase, 0.0, quad, left_exponent=kernel.origin_exponent
        )
        out.append(val)
    return out[0], out[1]


def _route(kernel, route):
    """The requested route, or the kernel's default; TransformDomainError if
    the kernel does not offer it."""
    route = route or kernel.routes[0]
    if route not in kernel.routes:
        raise TransformDomainError(
            f"{kernel!r} has no {route} route; its routes are {', '.join(kernel.routes)}"
        )
    return route


def kcos_ksin_grid(kernel, omegas, route=None, quad=DEFAULT_QUAD):
    """Vectorized (Kcos, Ksin) over an array of nonzero frequencies."""
    omegas = np.asarray(omegas, dtype=float)
    if np.any(omegas == 0.0):
        raise TransformDomainError("transform undefined at origin for grid evaluation")
    w = np.abs(omegas)
    route = _route(kernel, route)
    if route == ROUTE_NUMERIC:
        pairs = [_numeric_pair(kernel, wi, quad) for wi in np.atleast_1d(w)]
        kcos = np.array([p[0] for p in pairs]).reshape(w.shape)
        ksin = np.array([p[1] for p in pairs]).reshape(w.shape)
    elif route == ROUTE_CLOSED:
        kcos, ksin = _closed_pair(kernel, w)
    elif route == ROUTE_CM:
        kcos, ksin = _cm_pair(kernel, w)
    else:  # phi_t2_faddeeva
        kcos, ksin = _phi_pair(kernel, w)
    return kcos, ksin * np.sign(omegas)


def _kernel_integral(kernel, quad):
    """Int_0^oo K of an integrable kernel: its closed form, else quadrature."""
    total = kernel.integral()
    if total is None:
        total, _ = integrate_to_infinity(lambda t: kernel_eval(kernel, t), 0.0, quad)
    return float(total)


def transform(kernel, omega, route=None, quad=DEFAULT_QUAD):
    """Cosine/sine transform pair of the kernel at a single frequency.

    At omega = 0 the pair (Int_0^oo K, 0) is returned for integrable kernels,
    labelled closed_form whatever route was asked for, and
    TransformDomainError is raised otherwise.  A route the kernel does not
    offer raises TransformDomainError at every omega.
    """
    omega = float(omega)
    if not np.isfinite(omega):
        raise ValueError("omega must be finite")
    route = _route(kernel, route)
    if omega == 0.0:
        tc = kernel_tail_class(kernel)
        if tc.kind != TailClass.INTEGRABLE:
            raise TransformDomainError("transform undefined at origin")
        return TransformPair(kcos=_kernel_integral(kernel, quad), ksin=0.0, route=ROUTE_CLOSED)
    kcos, ksin = kcos_ksin_grid(kernel, np.array([omega]), route=route, quad=quad)
    return TransformPair(kcos=float(kcos[0]), ksin=float(ksin[0]), route=route)


def transform_complex(kernel, z, sign="minus"):
    """Analytic extension Kcos(z) -+ i Ksin(z) off the real axis.

    ``sign="minus"`` evaluates Kcos(z) - i Ksin(z) on the closed lower
    half-plane; ``sign="plus"`` evaluates Kcos(z) + i Ksin(z) on the closed
    upper half-plane.  Only these half-planes carry a measure-based
    representation; other arguments raise TransformDomainError.
    """
    z = complex(z)
    if z == 0:
        raise TransformDomainError("transform undefined at origin")
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValueError("z must be finite")
    if sign not in ("minus", "plus"):
        raise ValueError("sign must be 'minus' or 'plus'")
    if sign == "minus" and z.imag > 0:
        raise TransformDomainError("analytic extension not defined here (need Im z <= 0)")
    if sign == "plus" and z.imag < 0:
        raise TransformDomainError("analytic extension not defined here (need Im z >= 0)")
    try:
        measure = kernel.bernstein()
    except NoBernsteinRepresentation:
        raise TransformDomainError(
            "complex extension needs a completely monotone or phi(t^2) kernel"
        )
    x, mw = _measure_nodes(kernel)
    if measure.measure_of == "kernel":
        denom = x + 1j * z if sign == "minus" else x - 1j * z
        return complex(np.sum(mw / denom))
    arg = (-z if sign == "minus" else z) / (2.0 * np.sqrt(x))
    return complex(0.5 * SQRT_PI * np.sum(mw / np.sqrt(x) * faddeeva(arg)))


@lru_cache(maxsize=64)
def oscillatory_power_constant(alpha, phase):
    """Int_0^oo cos(u)/u^alpha du (or sin), by oscillatory quadrature."""
    val, _ = integrate_oscillatory(
        lambda u: u ** (-alpha), 1.0, phase, 0.0, DEFAULT_QUAD, left_exponent=-alpha
    )
    return val


@dataclass(frozen=True)
class AbelianAsymptote:
    """Small-frequency behavior of (Kcos, Ksin) with its limit constants.

    ``sharp`` names the components whose prediction converges fast enough to
    compare pointwise at small frequency; the critical-class Kcos rate
    c1*|log w| converges only logarithmically and is excluded.
    """

    kind: str
    kcos_constant: float
    ksin_constant: float
    alpha: float = None
    sharp: tuple = ()

    def predict(self, omega):
        w = abs(float(omega))
        if self.kind == TailClass.INTEGRABLE:
            return self.kcos_constant, 0.0
        if self.kind == TailClass.CRITICAL:
            return self.kcos_constant * abs(math.log(w)), self.ksin_constant
        scale = w ** (self.alpha - 1.0)
        return self.kcos_constant * scale, self.ksin_constant * scale


def abelian_limits(kernel, quad=DEFAULT_QUAD):
    """Limit constants of the transforms as the frequency tends to zero.

    integrable: (Kcos, Ksin) -> (Int_0^oo K, 0);
    critical:   Kcos ~ c1 |log w|,  Ksin -> c1 pi/2;
    power law:  w^(1-alpha) (Kcos, Ksin) -> c_alpha (Int cos(u)/u^alpha,
                Int sin(u)/u^alpha).
    """
    tc = kernel_tail_class(kernel)
    if tc.kind == TailClass.INTEGRABLE:
        return AbelianAsymptote(
            kind=tc.kind, kcos_constant=_kernel_integral(kernel, quad), ksin_constant=0.0,
            sharp=("kcos",),
        )
    if tc.kind == TailClass.CRITICAL:
        return AbelianAsymptote(
            kind=tc.kind,
            kcos_constant=tc.constant,
            ksin_constant=tc.constant * 0.5 * math.pi,
            sharp=("ksin",),
        )
    a = tc.alpha
    return AbelianAsymptote(
        kind=tc.kind,
        kcos_constant=tc.constant * oscillatory_power_constant(a, "cos"),
        ksin_constant=tc.constant * oscillatory_power_constant(a, "sin"),
        alpha=a,
        sharp=("kcos", "ksin"),
    )
