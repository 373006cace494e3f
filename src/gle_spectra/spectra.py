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
so they stay finite where w^2 r11 would underflow first.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .kernels import GleParams, MemoryKernel, TailClass, kernel_tail_class
from .errors import TransformDomainError
from .quad import DEFAULT_QUAD, QuadConfig
from .transforms import abelian_limits, kcos_ksin_grid, transform


@dataclass(frozen=True)
class SpectralDensityCtx:
    """A (parameters, kernel) pair with the quadrature budget used on it."""

    params: GleParams
    kernel: MemoryKernel
    quad: QuadConfig = DEFAULT_QUAD

    def __post_init__(self):
        if not isinstance(self.kernel, MemoryKernel):
            raise TypeError("kernel must be a MemoryKernel preset")


def _pairs(ctx, w):
    return kcos_ksin_grid(ctx.kernel, w, quad=ctx.quad)


def _kcos_at_zero(ctx):
    return transform(ctx.kernel, 0.0, quad=ctx.quad).kcos


def r11(ctx, omega):
    """Position spectral density; defined for gamma > 0 only.  Even in omega.

    At omega = 0 the analytic limit 2(lam + beta Int K)/gamma^2 is returned
    for integrable kernels; other tail classes diverge at the origin and
    raise TransformDomainError.
    """
    p = ctx.params
    if not p.trapped:
        raise TransformDomainError(
            "position spectral density undefined for free particle (gamma = 0)"
        )
    omega = np.asarray(omega, dtype=float)
    scalar = omega.ndim == 0
    w = np.atleast_1d(omega)
    out = np.empty(w.shape)
    zero = w == 0.0
    if zero.any():
        out[zero] = 2.0 * (p.lam + p.beta * _kcos_at_zero(ctx)) / p.gamma ** 2
    if (~zero).any():
        wn = w[~zero]
        out[~zero] = _r11_at(p, wn, *_pairs(ctx, wn))
    return float(out[0]) if scalar else out


# at a huge w, w**2 overflows to inf, which gives each density its right
# limit, 0
@np.errstate(over="ignore")
def _r11_at(p, w, kc, ks):
    a = p.lam + p.beta * kc
    b = p.gamma - p.m * w ** 2 + p.beta * w * ks
    return 2.0 * a / (b * b + w * w * a * a)


@np.errstate(over="ignore")
def _r22_r12_at(p, w, kc, ks):
    # r22 and Im r12 in the forms of the module docstring; gamma = 0 gives
    # the free-particle r22
    a = p.lam + p.beta * kc
    b = p.gamma - p.m * w ** 2 + p.beta * w * ks
    big_b = p.gamma / w - p.m * w + p.beta * ks
    return 2.0 * a / (big_b * big_b + a * a), 2.0 * a / (big_b * b + w * a * a)


def r22(ctx, omega):
    """Velocity spectral density w^2 r11(w); valid for gamma >= 0.

    The w^2 factor is cancelled analytically, which keeps the density finite
    at large frequency and, for gamma = 0 and integrable kernels, at the
    origin.
    """
    p = ctx.params
    omega = np.asarray(omega, dtype=float)
    scalar = omega.ndim == 0
    w = np.atleast_1d(omega)
    out = np.zeros(w.shape)
    zero = w == 0.0
    if zero.any() and not p.trapped:
        if kernel_tail_class(ctx.kernel).kind != TailClass.INTEGRABLE:
            raise TransformDomainError(
                "free-particle velocity density undefined at the origin "
                "for non-integrable kernels"
            )
        out[zero] = 2.0 / (p.lam + p.beta * _kcos_at_zero(ctx))
    if (~zero).any():
        wn = w[~zero]
        out[~zero] = _r22_r12_at(p, wn, *_pairs(ctx, wn))[0]
    return float(out[0]) if scalar else out


def r12(ctx, omega):
    """Cross spectral density i w r11(w); purely imaginary, conjugate of r21."""
    if not ctx.params.trapped:
        raise TransformDomainError("cross spectral density needs gamma > 0")
    omega = np.asarray(omega, dtype=float)
    scalar = omega.ndim == 0
    w = np.atleast_1d(omega)
    out = np.zeros(w.shape)
    nz = w != 0.0
    if nz.any():
        out[nz] = _r22_r12_at(ctx.params, w[nz], *_pairs(ctx, w[nz]))[1]
    vals = 1j * out
    return complex(vals[0]) if scalar else vals


def trapped_densities(ctx, omega):
    """(r11, r22, Im r12) of the trapped process on an array of frequencies,
    from one evaluation of the kernel transforms."""
    p = ctx.params
    if not p.trapped:
        raise TransformDomainError("trapped densities need gamma > 0")
    w = np.asarray(omega, dtype=float)
    dens, r22_col, r12_col = np.empty(w.shape), np.zeros(w.shape), np.zeros(w.shape)
    zero = w == 0.0
    if zero.any():
        dens[zero] = r11(ctx, 0.0)
    if (~zero).any():
        wn = w[~zero]
        kc, ks = _pairs(ctx, wn)
        dens[~zero] = _r11_at(p, wn, kc, ks)
        r22_col[~zero], r12_col[~zero] = _r22_r12_at(p, wn, kc, ks)
    return dens, r22_col, r12_col


@dataclass(frozen=True)
class NearZeroAsymptote:
    """Leading behavior of r11 near the origin.

    kind "integrable": r11 -> rate (a constant);
    kind "critical":   r11 ~ rate * |log w|;
    kind "powerlaw":   r11 ~ rate * w^(alpha-1), exponent = alpha - 1.

    ``rate`` is extracted numerically at w = 1e-4 (with a half-frequency
    Richardson consistency factor), ``rate_predicted`` from the kernel's
    small-frequency transform constants.
    """

    kind: str
    exponent: float
    rate: float
    rate_predicted: float
    richardson_drift: float

    def shape(self, omega):
        w = abs(float(omega))
        if self.kind == TailClass.INTEGRABLE:
            return 1.0
        if self.kind == TailClass.CRITICAL:
            return abs(math.log(w))
        return w ** self.exponent


_RATE_PROBE = 1e-4


def near_zero_asymptote(ctx):
    """Classify and quantify the near-origin behavior of r11 (gamma > 0)."""
    p = ctx.params
    if not p.trapped:
        raise TransformDomainError("near-zero asymptote needs gamma > 0")
    tc = kernel_tail_class(ctx.kernel)
    ab = abelian_limits(ctx.kernel, quad=ctx.quad)
    if tc.kind == TailClass.INTEGRABLE:
        exponent = 0.0
        predicted = 2.0 * (p.lam + p.beta * ab.kcos_constant) / p.gamma ** 2
    elif tc.kind == TailClass.CRITICAL:
        exponent = 0.0
        predicted = 2.0 * p.beta * tc.constant / p.gamma ** 2
    else:
        exponent = tc.alpha - 1.0
        predicted = 2.0 * p.beta * ab.kcos_constant / p.gamma ** 2
    nz = NearZeroAsymptote(tc.kind, exponent, None, float(predicted), None)
    rate = r11(ctx, _RATE_PROBE) / nz.shape(_RATE_PROBE)
    rate_half = r11(ctx, 0.5 * _RATE_PROBE) / nz.shape(0.5 * _RATE_PROBE)
    return replace(nz, rate=float(rate), richardson_drift=float(abs(rate_half / rate - 1.0)))
