"""Stationary second moments, mean-squared displacement of the integrated
process, and equipartition-of-energy ratios.

Everything here reduces to weighted frequency integrals of r11:

    E[x(0)^2]          = (kbt/pi) Int_0^oo r11
    E[v(0)^2]          = (kbt/pi) Int_0^oo r22
    E|Int_0^t x ds|^2  = (2 kbt/pi) Int_0^oo (1 - cos t w)/w^2 r11(w) dw
    E|Int_0^t v ds|^2  = 2 E[x(0)^2] - (2 kbt/pi) Int_0^oo cos(t w) r11 dw

The MSD integral is computed in the rescaled variable u = t*w so the
oscillation frequency is one and the quadrature cost does not grow with t.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import FitRejectedError, QuadratureError, TransformDomainError
from .kernels import TailClass, kernel_tail_class
from .quad import (
    integrate_adaptive,
    integrate_geometric,
    integrate_oscillatory,
    integrate_to_infinity,
)
from .spectra import r11, r22

POSITION_INTEGRAL = "position_integral"
VELOCITY_INTEGRAL = "velocity_integral"


def _origin_hint(ctx):
    """Left-endpoint exponent of r11 at w = 0, where one applies."""
    tc = kernel_tail_class(ctx.kernel)
    if tc.kind == TailClass.POWERLAW:
        return tc.alpha - 1.0
    return None


def _split_point(ctx):
    # keep the oscillator resonance inside the finite panel
    p = ctx.params
    return 1.0 + 2.0 * math.sqrt(p.gamma / p.m)


@lru_cache(maxsize=256)
def _r11_integral(ctx):
    f = lambda w: r11(ctx, w)
    s = _split_point(ctx)
    v1, e1 = integrate_geometric(f, 0.0, s, ctx.quad, left_exponent=_origin_hint(ctx))
    v2, e2 = integrate_to_infinity(f, s, ctx.quad)
    return v1 + v2, e1 + e2


@lru_cache(maxsize=256)
def _r22_integral(ctx):
    f = lambda w: r22(ctx, w)
    s = _split_point(ctx)
    v1, e1 = integrate_geometric(f, 0.0, s, ctx.quad)
    v2, e2 = integrate_to_infinity(f, s, ctx.quad)
    return v1 + v2, e1 + e2


def var_x0(ctx, with_error=False):
    """Stationary position variance E[x(0)^2] = (kbt/pi) Int_0^oo r11."""
    if not ctx.params.trapped:
        raise TransformDomainError("E[x(0)^2] undefined for free particle (gamma = 0)")
    q, e = _r11_integral(ctx)
    scale = ctx.params.kbt / math.pi
    return (scale * q, scale * e) if with_error else scale * q


def var_v0(ctx, with_error=False):
    """Stationary velocity variance E[v(0)^2] = (kbt/pi) Int_0^oo r22.

    Works for both the trapped (gamma > 0) and free (gamma = 0) cases.
    """
    q, e = _r22_integral(ctx)
    scale = ctx.params.kbt / math.pi
    return (scale * q, scale * e) if with_error else scale * q


def _cos_transform_r11(ctx, t):
    """Int_0^oo cos(t w) r11(w) dw by half-period summation."""
    val, _ = integrate_oscillatory(
        lambda w: r11(ctx, w), float(t), "cos", 0.0, ctx.quad,
        left_exponent=_origin_hint(ctx),
    )
    return val


def msd_x(ctx, t):
    """E|Int_0^t x(s) ds|^2 for the trapped process (gamma > 0)."""
    if not ctx.params.trapped:
        raise TransformDomainError("position integral undefined for free particle")
    t = float(t)
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    hint = _origin_hint(ctx)
    u0 = 0.5 * math.pi

    def one_minus_cos_over_u2(u):
        return 2.0 * np.sin(0.5 * u) ** 2 / (u * u)

    head, _ = integrate_geometric(
        lambda u: one_minus_cos_over_u2(u) * r11(ctx, u / t),
        0.0, u0, ctx.quad, left_exponent=hint,
    )
    flat, _ = integrate_to_infinity(lambda u: r11(ctx, u / t) / (u * u), u0, ctx.quad)
    osc, _ = integrate_oscillatory(
        lambda u: r11(ctx, u / t) / (u * u), 1.0, "cos", u0, ctx.quad
    )
    return (2.0 * ctx.params.kbt * t / math.pi) * (head + flat - osc)


def msd_v(ctx, t):
    """E|Int_0^t v(s) ds|^2; saturates at 2 E[x(0)^2] as t grows."""
    if not ctx.params.trapped:
        raise TransformDomainError(
            "velocity-integral saturation needs gamma > 0; "
            "use ensemble estimates for the free particle"
        )
    t = float(t)
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    vx = var_x0(ctx)
    c = _cos_transform_r11(ctx, t)
    return 2.0 * (vx - (ctx.params.kbt / math.pi) * c)


def cross_cov(ctx, t, diagnostic=False):
    """E[Int_0^t x ds * Int_0^t v ds]: identically zero by parity.

    With diagnostic=True the defining frequency integral is evaluated with a
    quadrature rule applied symmetrically over +-w, so the returned magnitude
    measures how well the numerical pipeline preserves the odd symmetry
    (it should sit at roundoff level).
    """
    if not ctx.params.trapped:
        raise TransformDomainError("cross covariance needs gamma > 0")
    if not diagnostic:
        return 0.0
    t = float(t)
    cap = 50.0

    def odd_pair_sum(w):
        # weight |e^{itw} - 1|^2 / w^2 is even; w*r11(w) is odd, so the
        # +-w contributions cancel pointwise iff r11 is evaluated evenly
        weight = 4.0 * np.sin(0.5 * t * w) ** 2 / (w * w)
        return weight * (w * r11(ctx, w) + (-w) * r11(ctx, -w))

    val, _ = integrate_adaptive(odd_pair_sum, 1e-8, cap, ctx.quad)
    return (ctx.params.kbt / (2.0 * math.pi)) * val


@dataclass(frozen=True)
class EquipartitionReport:
    """Dimensionless equipartition ratios with quadrature error bars.

    gamma_x_ratio = gamma E[x(0)^2]/kbt (None for the free particle) and
    m_v_ratio = m E[v(0)^2]/kbt; both equal 1 for admissible kernels.  A
    ratio whose quadrature failed holds the failed estimate (NaN if there is
    none) with an infinite error, and the failure is listed in notes.
    """

    gamma_x_ratio: float
    m_v_ratio: float
    err_x: float
    err_v: float
    notes: tuple = ()


def equipartition_report(ctx):
    """Evaluate both equipartition ratios; failures land in notes."""
    p = ctx.params
    notes = []
    gx = ex = None
    if p.trapped:
        try:
            vx, e = var_x0(ctx, with_error=True)
            gx, ex = p.gamma * vx / p.kbt, p.gamma * e / p.kbt
        except QuadratureError as exc:
            notes.append(f"var_x0: {exc}")
            estimate = exc.value if exc.value is not None else np.nan
            gx, ex = p.gamma * estimate / p.kbt, np.inf
    try:
        vv, e = var_v0(ctx, with_error=True)
        mv, ev = p.m * vv / p.kbt, p.m * e / p.kbt
    except QuadratureError as exc:
        notes.append(f"var_v0: {exc}")
        estimate = exc.value if exc.value is not None else np.nan
        mv, ev = p.m * estimate / p.kbt, np.inf
    return EquipartitionReport(
        gamma_x_ratio=gx, m_v_ratio=mv, err_x=ex, err_v=ev, notes=tuple(notes)
    )


@dataclass(frozen=True)
class MsdCurve:
    """Tabulated E|Int_0^t (.) ds|^2 on an increasing time grid."""

    times: tuple
    values: tuple
    quantity: str
    stderr: tuple = None

    def __post_init__(self):
        if self.quantity not in (POSITION_INTEGRAL, VELOCITY_INTEGRAL):
            raise ValueError(f"unknown quantity {self.quantity!r}")
        t = np.asarray(self.times)
        if t.ndim != 1 or np.any(np.diff(t) <= 0) or np.any(t <= 0):
            raise ValueError("times must be positive and strictly increasing")

    def window(self, t_min, t_max):
        t = np.asarray(self.times)
        mask = (t >= t_min) & (t <= t_max)
        return t[mask], np.asarray(self.values)[mask]


def compute_msd_curve(ctx, times, quantity=POSITION_INTEGRAL):
    fn = msd_x if quantity == POSITION_INTEGRAL else msd_v
    times = tuple(float(t) for t in times)
    return MsdCurve(
        times=times, values=tuple(fn(ctx, t) for t in times), quantity=quantity
    )


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares growth law over a time window.

    For the pure power model, ``exponent``/``amplitude`` parametrize
    v ~ amplitude * t^exponent and ``gof`` is the max |log residual|.
    For the t*log(t) model, ``ratio`` is the mean of v/(t log t) over the
    window and ``gof`` the relative drift (max-min)/mean of that ratio.
    """

    model: str
    exponent: float = None
    amplitude: float = None
    ratio: float = None
    gof: float = None


def fit_growth_exponent(curve, window, model="pure_power"):
    """Fit the asymptotic growth law of an MSD curve on a window.

    ``model`` is "pure_power" (log-log least squares) or "t_log_t"
    (drift of v/(t log t)).  Rejects windows with fewer than 10 samples or
    non-monotone values.
    """
    t, v = curve.window(*window)
    if t.size < 10:
        raise FitRejectedError(f"fit window holds {t.size} points; need >= 10")
    if np.any(v <= 0) or np.any(np.diff(v) < 0):
        raise FitRejectedError("fit rejected: values not positive increasing in window")
    if model == "pure_power":
        slope, intercept = np.polyfit(np.log(t), np.log(v), 1)
        resid = np.log(v) - (slope * np.log(t) + intercept)
        return GrowthFit(
            model=model,
            exponent=float(slope),
            amplitude=float(np.exp(intercept)),
            gof=float(np.max(np.abs(resid))),
        )
    if model == "t_log_t":
        ratios = v / (t * np.log(t))
        mean = float(np.mean(ratios))
        drift = float((np.max(ratios) - np.min(ratios)) / mean)
        return GrowthFit(model=model, ratio=mean, gof=drift)
    raise ValueError(f"unknown model {model!r}")
