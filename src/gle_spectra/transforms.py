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
restore the sign of Ksin.  The origin is decided in ``kcos_ksin_grid`` alone:
at w = 0 an integrable kernel has (Int_0^oo K, 0) on every route it offers,
and any other kernel raises TransformDomainError.
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
    PowerLaw,
    TailClass,
    kernel_eval,
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


# The frequencies x measure-nodes work matrices of the two measure routes
# stay near this many bytes: a long frequency array, such as every node of a
# batched MSD round, is taken in blocks, which bounds memory and keeps the
# matrices in cache (a 25-point cauchy:1,1 curve ran 2.5x slower with 4 MiB).
_BLOCK_BYTES = 1 << 20
# Above this argument the Dawson integral is 1/(2a) to double precision
# (the next term of its asymptotic series is 1/(4a^3)).
_DAWSON_ASYMPTOTE = 1e8


def _in_blocks(pair, w, x):
    """pair on the frequencies w against the nodes x, one 1-D block of
    frequencies at a time: (kcos, ksin) arrays of w's shape."""
    flat = np.ravel(w)
    block = max(1, _BLOCK_BYTES // (8 * x.size))
    kcos, ksin = np.empty(flat.shape), np.empty(flat.shape)
    for i in range(0, flat.size, block):
        kcos[i:i + block], ksin[i:i + block] = pair(flat[i:i + block])
    return kcos.reshape(np.shape(w)), ksin.reshape(np.shape(w))


# A frequency w for which w or w/x at the smallest node x exceeds this takes
# its sine sum from s = x/w: below it r^2 = (w/x)^2 and w^2 stay under 1e300,
# and the r form's sine terms, near mw/w^2, stay normal doubles.
_CM_FAR = 1e150


# In the two measure routes a frequency far above the nodes overflows w/x or
# its square to inf, which gives each cosine term its right limit, 0.
def _cm_pair(kernel, w):
    """Measure route for completely monotone kernels; w > 0 array."""
    x, mw = _measure_nodes(kernel)
    w_far = _CM_FAR * min(1.0, x.min())

    @np.errstate(over="ignore")
    def pair(w):
        # x/(w^2 + x^2) = 1/(x (1 + r^2)) with r = w/x: no square of a node
        # near the top of the double range.  One frequencies x nodes matrix,
        # inverted in place, serves both sums.
        inv = np.multiply.outer(w, 1.0 / x)
        inv *= inv
        inv += 1.0
        inv *= x
        np.reciprocal(inv, out=inv)
        kcos, ksin = inv @ mw, (inv @ (mw / x)) * w
        # far out a sine term is mw w/(x^2 + w^2) = mw/(w (1 + s^2)), which
        # is mw/w where r overflows
        far = np.flatnonzero(w > w_far)
        if far.size:
            s = np.multiply.outer(1.0 / w[far], x)
            s *= s
            s += 1.0
            np.reciprocal(s, out=s)
            ksin[far] = (s @ mw) / w[far]
        return kcos, ksin

    return _in_blocks(pair, w, x)


def _phi_pair(kernel, w):
    """Faddeeva route for phi(t^2) kernels; w > 0 array."""
    x, mw = _measure_nodes(kernel)
    inv_sqrt = 1.0 / np.sqrt(x)
    weights = mw * inv_sqrt

    @np.errstate(over="ignore")
    def pair(w):
        arg = 0.5 * np.multiply.outer(w, inv_sqrt)
        kcos = 0.5 * SQRT_PI * (np.exp(-arg * arg) @ weights)
        # far out, dawson(arg) mw/sqrt(x) = mw/(2 arg sqrt(x)) = mw/w, which
        # stays finite where arg itself overflows; only the frequencies whose
        # largest argument is far out have such terms
        wide = np.flatnonzero(0.5 * (w * inv_sqrt.max()) > _DAWSON_ASYMPTOTE)
        far = arg[wide] > _DAWSON_ASYMPTOTE
        arg[wide] = np.where(far, 0.0, arg[wide])
        ksin = dawson(arg) @ weights
        ksin[wide] += (far @ mw) / w[wide]
        return kcos, ksin

    return _in_blocks(pair, w, x)


def _closed_pair(kernel, w):
    """Closed form: the kernel's own formula, else its measure's atom sum."""
    if kernel.closed_pair is None:
        return _cm_pair(kernel, w)
    return kernel.closed_pair(w)


def _numeric_pair(kernel, w, quad):
    """Numeric route on the array of frequencies w > 0, one oscillatory
    engine run per phase: (kcos, ksin, kcos_error, ksin_error)."""
    f = lambda t: kernel_eval(kernel, t)
    kcos, kcos_err = integrate_oscillatory(
        f, w, "cos", 0.0, quad, left_exponent=kernel.origin_exponent
    )
    ksin, ksin_err = integrate_oscillatory(
        f, w, "sin", 0.0, quad, left_exponent=kernel.origin_exponent
    )
    return kcos, ksin, kcos_err, ksin_err


def resolve_route(kernel, route):
    """The requested route, or the kernel's default; TransformDomainError if
    the kernel does not offer it."""
    route = route or kernel.routes[0]
    if route not in kernel.routes:
        raise TransformDomainError(
            f"{kernel!r} has no {route} route; its routes are {', '.join(kernel.routes)}"
        )
    return route


def _kernel_integral(kernel, quad):
    """Int_0^oo K of an integrable kernel: its closed form, else quadrature."""
    total = kernel.integral()
    if total is None:
        total, _ = integrate_to_infinity(lambda t: kernel_eval(kernel, t), 0.0, quad)
    return float(total)


def kcos_ksin_grid(kernel, omegas, route=None, quad=DEFAULT_QUAD):
    """Vectorized (Kcos, Ksin) over an array of frequencies.

    A route the kernel does not offer raises TransformDomainError at every
    omega, and a non-finite omega then raises ValueError.  At omega = 0 the
    pair is (Int_0^oo K, 0) for integrable kernels, whatever route was asked
    for, and TransformDomainError is raised otherwise; only the other
    frequencies take the route.
    """
    omegas = np.asarray(omegas, dtype=float)
    route = resolve_route(kernel, route)
    if not np.isfinite(omegas).all():
        raise ValueError("omega must be finite")
    w = np.abs(omegas)
    kcos, ksin = np.zeros(w.shape), np.zeros(w.shape)
    zero = w == 0.0
    if zero.any():
        if kernel.tail_class().kind != TailClass.INTEGRABLE:
            raise TransformDomainError("transform undefined at origin")
        kcos[zero] = _kernel_integral(kernel, quad)
    rest = ~zero
    if rest.any():
        wr = w[rest]
        if route == ROUTE_NUMERIC:
            kc, ks, _, _ = _numeric_pair(kernel, wr, quad)
        elif route == ROUTE_CLOSED:
            kc, ks = _closed_pair(kernel, wr)
        elif route == ROUTE_CM:
            kc, ks = _cm_pair(kernel, wr)
        else:  # phi_t2_faddeeva
            kc, ks = _phi_pair(kernel, wr)
        kcos[rest], ksin[rest] = kc, ks * np.sign(omegas[rest])
    return kcos, ksin


def transform(kernel, omega, route=None, quad=DEFAULT_QUAD):
    """Cosine/sine transform pair of the kernel at a single frequency: the
    one-row case of kcos_ksin_grid, whose origin row is labelled
    closed_form whatever route was asked for."""
    omega = float(omega)
    route = resolve_route(kernel, route)
    kcos, ksin = kcos_ksin_grid(kernel, np.array([omega]), route=route, quad=quad)
    return TransformPair(
        kcos=float(kcos[0]), ksin=float(ksin[0]), route=ROUTE_CLOSED if omega == 0.0 else route
    )


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


@dataclass(frozen=True)
class AbelianAsymptote:
    """Small-frequency behavior of (Kcos, Ksin) with its limit constants.

    As w -> 0, Kcos ~ kcos_constant * tail.shape(w) and Ksin ~
    ksin_constant * w^tail.exponent, the law of the kernel's tail class.
    ``sharp`` names the components whose prediction converges fast enough to
    compare pointwise at small frequency; the critical-class Kcos rate
    c1*|log w| converges only logarithmically and is excluded.
    """

    tail: TailClass
    kcos_constant: float
    ksin_constant: float
    sharp: tuple = ()

    @property
    def kind(self):
        return self.tail.kind

    def predict(self, omega):
        w = abs(float(omega))
        tail = self.tail
        return self.kcos_constant * tail.shape(w), self.ksin_constant * w ** tail.exponent


def abelian_limits(kernel, quad=DEFAULT_QUAD):
    """Limit constants of the transforms as the frequency tends to zero.

    integrable: (Kcos, Ksin) -> (Int_0^oo K, 0);
    critical:   Kcos ~ c1 |log w|,  Ksin -> c1 pi/2;
    power law:  w^(1-alpha) (Kcos, Ksin) -> c_alpha (Int cos(u)/u^alpha,
                Int sin(u)/u^alpha), the closed form of u^-alpha at w = 1.
    """
    tc = kernel.tail_class()
    if tc.kind == TailClass.INTEGRABLE:
        return AbelianAsymptote(tc, _kernel_integral(kernel, quad), 0.0, sharp=("kcos",))
    if tc.kind == TailClass.CRITICAL:
        return AbelianAsymptote(tc, tc.constant, tc.constant * 0.5 * math.pi, sharp=("ksin",))
    kcos, ksin = PowerLaw(tc.alpha).closed_pair(1.0)
    return AbelianAsymptote(tc, tc.constant * kcos, tc.constant * ksin, sharp=("kcos", "ksin"))
