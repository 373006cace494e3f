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
from .quad import (
    integrate_geometric,
    integrate_oscillatory,
    integrate_to_infinity,
)
from .spectra import r11, r22

POSITION_INTEGRAL = "position_integral"
VELOCITY_INTEGRAL = "velocity_integral"


def _origin_hint(ctx):
    """Left-endpoint exponent of r11 at w = 0: its tail class's, where an
    exponent of 0 asks the engine for no endpoint substitution."""
    return ctx.kernel.tail_class().exponent


def _density_integral(ctx, density, left_exponent=None):
    """Int_0^oo density(ctx, w) dw with its error estimate: geometric panels
    on [0, s] and the fold past s, one engine run."""
    f = lambda w: density(ctx, w)
    # keep the oscillator resonance inside the finite panels
    s = 1.0 + 2.0 * math.sqrt(ctx.params.gamma / ctx.params.m)
    return integrate_to_infinity(f, 0.0, ctx.quad, split=s, left_exponent=left_exponent)


@lru_cache(maxsize=256)
def _r11_integral(ctx):
    return _density_integral(ctx, r11, _origin_hint(ctx))


@lru_cache(maxsize=256)
def _r22_integral(ctx):
    return _density_integral(ctx, r22)


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


def _position_integral(ctx, times):
    """(values, errors) of E|Int_0^t x ds|^2 at the positive times: one
    engine run per part for the whole curve, a row per time."""
    hint = _origin_hint(ctx)
    u0 = 0.5 * math.pi
    edge = np.full(times.shape, u0)

    def r11_over_u2(u):
        # r11 at the frequency u/t of the node's own time, over u^2
        return r11(ctx, u / times[u.rows]) / (u * u)

    def one_minus_cos_over_u2(u):
        return 2.0 * np.sin(0.5 * u) ** 2 / (u * u) * r11(ctx, u / times[u.rows])

    head, e_head = integrate_geometric(
        one_minus_cos_over_u2, np.zeros(times.shape), edge, ctx.quad, left_exponent=hint
    )
    flat, e_flat = integrate_to_infinity(r11_over_u2, edge, ctx.quad)
    osc, e_osc = integrate_oscillatory(
        r11_over_u2, np.ones(times.shape), "cos", edge, ctx.quad
    )
    scale = 2.0 * ctx.params.kbt * times / math.pi
    return scale * (head + flat - osc), scale * (e_head + e_flat + e_osc)


def _velocity_integral(ctx, times):
    """(values, errors) of E|Int_0^t v ds|^2 at the positive times: one
    oscillatory engine run for the whole curve, a row per time."""
    vx, e_vx = var_x0(ctx, with_error=True)
    c, e_c = integrate_oscillatory(
        lambda w: r11(ctx, w), times, "cos", 0.0, ctx.quad,
        left_exponent=_origin_hint(ctx),
    )
    scale = ctx.params.kbt / math.pi
    return 2.0 * (vx - scale * c), 2.0 * (e_vx + scale * e_c)


_FREE_PARTICLE = {
    POSITION_INTEGRAL: "position integral undefined for free particle",
    VELOCITY_INTEGRAL: (
        "velocity-integral saturation needs gamma > 0; "
        "use ensemble estimates for the free particle"
    ),
}
_MSD = {POSITION_INTEGRAL: _position_integral, VELOCITY_INTEGRAL: _velocity_integral}


def _msd(ctx, t, quantity):
    """(t, values, errors) of the MSD of ``quantity`` at the times t, as
    arrays of t's shape."""
    if quantity not in _MSD:
        raise ValueError(f"unknown quantity {quantity!r}")
    if not ctx.params.trapped:
        raise TransformDomainError(_FREE_PARTICLE[quantity])
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("t must be >= 0")
    values, errors = np.zeros(t.shape), np.zeros(t.shape)
    positive = t > 0.0
    if positive.any():
        values[positive], errors[positive] = _MSD[quantity](ctx, t[positive])
    return t, values, errors


def msd_x(ctx, t):
    """E|Int_0^t x(s) ds|^2 for the trapped process (gamma > 0).

    An array of times is evaluated as one curve; a scalar gives a float.
    """
    t, values, _ = _msd(ctx, t, POSITION_INTEGRAL)
    return float(values) if t.ndim == 0 else values


def msd_v(ctx, t):
    """E|Int_0^t v(s) ds|^2; saturates at 2 E[x(0)^2] as t grows.

    An array of times is evaluated as one curve; a scalar gives a float.
    """
    t, values, _ = _msd(ctx, t, VELOCITY_INTEGRAL)
    return float(values) if t.ndim == 0 else values


def cross_cov(ctx, t):
    """E[Int_0^t x ds * Int_0^t v ds]: identically zero by parity, since
    r11 is even."""
    if not ctx.params.trapped:
        raise TransformDomainError("cross covariance needs gamma > 0")
    return 0.0


@dataclass(frozen=True)
class EquipartitionReport:
    """Dimensionless equipartition ratios with quadrature error bars.

    gamma_x_ratio = gamma E[x(0)^2]/kbt (None for the free particle) and
    m_v_ratio = m E[v(0)^2]/kbt; both equal 1 for admissible kernels.  A
    ratio whose quadrature failed is NaN with an infinite error, and the
    failure is listed in notes.
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
            gx, ex = np.nan, np.inf
    try:
        vv, e = var_v0(ctx, with_error=True)
        mv, ev = p.m * vv / p.kbt, p.m * e / p.kbt
    except QuadratureError as exc:
        notes.append(f"var_v0: {exc}")
        mv, ev = np.nan, np.inf
    return EquipartitionReport(
        gamma_x_ratio=gx, m_v_ratio=mv, err_x=ex, err_v=ev, notes=tuple(notes)
    )


def _check_times(times):
    """Raise ValueError unless the times are a curve's: one axis of finite,
    positive, strictly increasing values."""
    t = np.asarray(times, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError("times must be finite")
    if t.ndim != 1 or np.any(np.diff(t) <= 0) or np.any(t <= 0):
        raise ValueError("times must be positive and strictly increasing")


@dataclass(frozen=True)
class MsdCurve:
    """Tabulated E|Int_0^t (.) ds|^2 on an increasing time grid.

    ``stderr`` is the standard error of a Monte Carlo estimate and ``error``
    the quadrature error estimate of a computed curve, each per point and in
    the units of the values.
    """

    times: tuple
    values: tuple
    quantity: str
    stderr: tuple = None
    error: tuple = None

    def __post_init__(self):
        if self.quantity not in (POSITION_INTEGRAL, VELOCITY_INTEGRAL):
            raise ValueError(f"unknown quantity {self.quantity!r}")
        _check_times(self.times)
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")

    def window(self, t_min, t_max):
        t = np.asarray(self.times)
        mask = (t >= t_min) & (t <= t_max)
        return t[mask], np.asarray(self.values)[mask]


def compute_msd_curve(ctx, times, quantity=POSITION_INTEGRAL):
    """The MSD curve of ``quantity`` on the times, evaluated as one batch,
    with the quadrature error of every point.  The times are checked
    before any quadrature runs."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    _check_times(t)
    t, values, errors = _msd(ctx, t, quantity)
    return MsdCurve(
        times=tuple(t.tolist()),
        values=tuple(values.tolist()),
        quantity=quantity,
        error=tuple(errors.tolist()),
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
    non-monotone values, and t log t windows that reach t <= 1, where
    t log t is not positive.
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
        if t[0] <= 1.0:
            raise FitRejectedError(
                f"t log t fit needs a window above t = 1; it holds t = {t[0]:g}"
            )
        ratios = v / (t * np.log(t))
        mean = float(np.mean(ratios))
        drift = float((np.max(ratios) - np.min(ratios)) / mean)
        return GrowthFit(model=model, ratio=mean, gof=drift)
    raise ValueError(f"unknown model {model!r}")
