"""Adaptive quadrature for improper, endpoint-singular and oscillatory integrals.

The workhorse is a globally adaptive Gauss-Kronrod 7/15 rule.  Semi-infinite
ranges are folded onto (0, 1) with the rational substitution w = a + u/(1-u).
Improper Fourier-type integrals with a slowly decaying envelope are summed over
half-periods of the oscillator and accelerated by iterated averaging of the
alternating partial sums.
"""

from dataclasses import dataclass
import heapq
import math

import numpy as np

from .errors import DivergentTail, OscillationPreconditionError, ToleranceNotMet

# 15-point Kronrod extension of the 7-point Gauss rule (positive half).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate((-_XGK[:7], _XGK[::-1][:8]))  # 15 ascending abscissae


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budget for the adaptive engine.

    ``rel_tol``/``abs_tol`` bound the admissible error as
    max(abs_tol, rel_tol*|value|).  ``max_subdivisions`` caps the number of
    interval bisections; ``max_oscillation_cells`` caps the number of
    half-period cells summed before acceleration must have converged.

    ``oscillation_mode`` = "split_at_zeros" makes integrate_to_infinity sum
    the integrand over cells of length ``oscillation_period`` and accelerate
    the partial sums, for integrands that decay only in oscillatory mean
    (e.g. (1 - cos u)/u^2).
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    max_oscillation_cells: int = 400
    oscillation_mode: str = "none"
    oscillation_period: float = 2.0 * math.pi

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.oscillation_mode not in ("none", "split_at_zeros"):
            raise ValueError("oscillation_mode must be 'none' or 'split_at_zeros'")
        if self.oscillation_period <= 0:
            raise ValueError("oscillation_period must be positive")


DEFAULT_QUAD = QuadConfig()


def _kronrod(f, a, b):
    """One G7/K15 application on [a, b]; returns (value, error, resabs)."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    x = c + h * _NODES
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape)
    if not np.all(np.isfinite(y)):
        raise ToleranceNotMet(f"integrand not finite inside ({float(a)}, {float(b)})")
    wk = np.concatenate((_WGK[:7], _WGK[::-1]))
    resk = h * float(np.dot(wk, y))
    yg = y[1::2]  # the 7 embedded Gauss nodes
    wg = np.concatenate((_WG[:3], _WG[::-1]))
    resg = h * float(np.dot(wg, yg))
    resabs = h * float(np.dot(wk, np.abs(y)))
    mean = resk / (b - a)
    resasc = h * float(np.dot(wk, np.abs(y - mean)))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    eps = np.finfo(float).eps
    if resabs > np.finfo(float).tiny / (50.0 * eps):
        err = max(err, 50.0 * eps * resabs)
    return resk, err, resabs


def integrate_adaptive(f, a, b, cfg=DEFAULT_QUAD, left_exponent=None):
    """Integrate a vectorized integrand over the finite interval [a, b].

    Parameters
    ----------
    f : callable
        Maps an ndarray of abscissae to integrand values.  Never evaluated
        at the endpoints, so integrable endpoint singularities are allowed.
    left_exponent : float, optional
        Hint that f(w) ~ (w - a)**p with p in (-1, 0) near the left endpoint.
        The engine then substitutes w = a + u**(1/(1+p)), which removes the
        singularity exactly for a pure power.

    Returns
    -------
    (value, error_estimate)
    """
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError("need finite a < b")
    if left_exponent is not None and -1.0 < left_exponent < 0.0:
        p = 1.0 / (1.0 + left_exponent)
        top = (b - a) ** (1.0 + left_exponent)

        def g(u):
            s = u ** p
            return f(a + s) * p * s / u

        return _adapt(g, 0.0, top, cfg)
    return _adapt(f, a, b, cfg)


def _adapt(f, a, b, cfg):
    val, err, _ = _kronrod(f, a, b)
    heap = [(-err, a, b, val, err)]
    total_val, total_err = val, err
    history = []
    for _ in range(cfg.max_subdivisions):
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total_val)):
            return total_val, total_err
        neg_err, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at roundoff width
            heapq.heappush(heap, (0.0, lo, hi, v, e))
            total_err = sum(item[4] for item in heap)
            if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total_val)):
                return total_val, total_err
            continue
        v1, e1, _ = _kronrod(f, lo, mid)
        v2, e2, _ = _kronrod(f, mid, hi)
        total_val += (v1 + v2) - v
        total_err += (e1 + e2) - e
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        history.append(total_val)
    if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total_val)):
        return total_val, total_err
    grew = len(history) > 16 and all(
        history[i + 1] >= history[i] for i in range(len(history) - 16, len(history) - 1)
    )
    exc = DivergentTail if grew else ToleranceNotMet
    raise exc(
        f"tolerance not met after {cfg.max_subdivisions} subdivisions "
        f"(value={float(total_val)}, err={float(total_err)})",
        value=total_val,
        error=total_err,
    )


def integrate_to_infinity(f, a, cfg=DEFAULT_QUAD, left_exponent=None):
    """Integrate f over [a, oo) assuming |f| = O(w**-p), p > 1, at infinity.

    The substitution w = a + u/(1-u) maps the range onto (0, 1).  With
    cfg.oscillation_mode = "split_at_zeros" the range beyond a short head is
    instead summed over cells of cfg.oscillation_period and the partial sums
    are accelerated, which handles integrands decaying only in oscillatory
    mean.  A clearly sub-integrable tail (measured decay exponent <= 1)
    raises DivergentTail.
    """
    if cfg.oscillation_mode == "split_at_zeros":
        return _integrate_by_cells(f, a, cfg, left_exponent)

    u_cap = np.nextafter(1.0, 0.0)  # keep the mapped abscissa finite

    def g(u):
        u = np.minimum(u, u_cap)
        w = a + u / (1.0 - u)
        return f(w) / (1.0 - u) ** 2

    try:
        return integrate_adaptive(g, 0.0, 1.0, cfg, left_exponent=left_exponent)
    except ToleranceNotMet as exc:
        p = _tail_exponent(f, a)
        if p is not None and p <= 1.02:
            raise DivergentTail(
                f"divergent tail: measured decay exponent {p:.3f} <= 1",
                value=exc.value,
                error=exc.error,
            ) from exc
        raise


def _integrate_by_cells(f, a, cfg, left_exponent):
    """Cell-sum with Levin-u acceleration on a period-cell series."""
    period = cfg.oscillation_period
    head, head_err = integrate_adaptive(
        f, a, a + period, cfg, left_exponent=left_exponent
    )
    cells = []
    cell_err = 0.0
    lo = a + period
    for _ in range(cfg.max_oscillation_cells):
        v, e = integrate_adaptive(f, lo, lo + period, cfg)
        cells.append(v)
        cell_err += e
        lo += period
        if len(cells) < 8:
            continue
        est, acc_err = _levin_u(cells)
        if acc_err <= max(cfg.abs_tol, cfg.rel_tol * abs(head + est)):
            return head + est, head_err + cell_err + acc_err
    est, acc_err = _levin_u(cells)
    if acc_err <= max(cfg.abs_tol, cfg.rel_tol * abs(head + est)):
        return head + est, head_err + cell_err + acc_err
    raise ToleranceNotMet(
        f"tolerance not met in cell sum (value={float(head + est)}, err={float(acc_err)})",
        value=head + est,
        error=acc_err,
    )


def _levin_u(terms):
    """Levin u-transform of a term series; returns (sum estimate, error).

    Handles both alternating and smoothly decaying positive cell series,
    which is what period-cell splitting produces.
    """
    terms = np.asarray(terms, dtype=float)
    if np.any(terms == 0.0):
        nz = np.nonzero(terms)[0]
        if nz.size == 0:
            return 0.0, 0.0
        keep = nz[-1] + 1
        if keep < 3:
            return float(terms.sum()), 0.0
        terms = terms[:keep]
    sums = np.cumsum(terms)
    beta = 1.0
    j = np.arange(len(terms), dtype=float)
    omega = (beta + j) * terms
    num = (sums / omega).tolist()
    den = (1.0 / omega).tolist()
    candidates = [sums[-1]]
    n = len(terms)
    for k in range(1, n):
        for i in range(n - k):
            c = (beta + i) * (beta + i + k - 1) ** (k - 2) / (beta + i + k) ** (k - 1)
            num[i] = num[i + 1] - c * num[i]
            den[i] = den[i + 1] - c * den[i]
        if abs(den[0]) > 1e-300:
            candidates.append(num[0] / den[0])
    diffs = np.abs(np.diff(candidates))
    if diffs.size == 0:
        return float(candidates[0]), abs(float(terms[-1]))
    i = int(np.argmin(diffs))
    return float(candidates[i + 1]), float(max(diffs[i], 1e-16 * abs(candidates[i + 1])))


def _tail_exponent(f, a):
    """Crude log-log decay slope of |f| far out on [a, oo); None if unusable."""
    ws = a + np.geomspace(10.0, 1e8, 8)
    try:
        ys = np.abs(np.asarray(f(ws), dtype=float))
    except Exception:
        return None
    good = ys > 0
    if good.sum() < 4:
        return None
    slope = np.polyfit(np.log(ws[good]), np.log(ys[good]), 1)[0]
    return -slope


def integrate_oscillatory(f, freq, phase, a, cfg=DEFAULT_QUAD, left_exponent=None):
    """Improper integral of f(t)*cos(freq*t) or f(t)*sin(freq*t) over [a, oo).

    f is the (non-oscillatory) envelope and must eventually decrease to zero;
    the integral is summed over half-periods of the oscillator and the
    alternating partial sums are accelerated by iterated averaging, so only
    conditional convergence is required.

    Returns (value, error_estimate).
    """
    if freq == 0:
        raise ValueError("freq must be nonzero")
    if phase not in ("cos", "sin"):
        raise ValueError("phase must be 'cos' or 'sin'")
    wfreq = abs(freq)
    sign = 1.0 if (freq > 0 or phase == "cos") else -1.0
    osc = np.cos if phase == "cos" else np.sin
    half = math.pi / wfreq
    # first zero of the oscillator at or beyond a
    if phase == "cos":
        k0 = math.floor((a * wfreq / math.pi - 0.5)) + 1
        z = (k0 + 0.5) * half
    else:
        k0 = math.floor(a * wfreq / math.pi) + 1
        z = k0 * half
    if z <= a:
        z += half
    _check_envelope_decay(f, z, half, cfg)

    cell_cfg = QuadConfig(
        rel_tol=min(cfg.rel_tol, 1e-10),
        abs_tol=cfg.abs_tol * 1e-2,
        max_subdivisions=max(60, cfg.max_subdivisions // 10),
    )

    def piece(lo, hi, hint=None):
        val, err = integrate_adaptive(
            lambda t: f(t) * osc(wfreq * t), lo, hi, cell_cfg, left_exponent=hint
        )
        return val, err

    head, head_err = _head_integral(f, osc, wfreq, a, z, left_exponent, cell_cfg)
    cells = []
    cell_errs = 0.0
    total = None
    total_err = None
    lo = z
    for _ in range(cfg.max_oscillation_cells):
        hi = lo + half
        v, e = piece(lo, hi)
        cells.append(v)
        cell_errs += e
        lo = hi
        if len(cells) < 12:
            continue
        est, acc_err = _accelerate(cells)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(head + est))
        if acc_err <= tol:
            total, total_err = est, acc_err
            break
    if total is None:
        est, acc_err = _accelerate(cells)
        if acc_err <= max(cfg.abs_tol, cfg.rel_tol * abs(head + est)):
            total, total_err = est, acc_err
        else:
            raise ToleranceNotMet(
                "tolerance not met in oscillatory sum "
                f"(value={float(sign * (head + est))}, err={float(acc_err)})",
                value=sign * (head + est),
                error=acc_err,
            )
    return sign * (head + total), total_err + cell_errs + head_err


def integrate_geometric(f, a, b, cfg=DEFAULT_QUAD, left_exponent=None, levels=10):
    """Adaptive integral over [a, b] with a geometric initial partition.

    The partition refines toward the left endpoint over ``levels`` orders of
    magnitude, so integrands whose mass sits many decades inside the interval
    (or at a singular left endpoint) are not missed by the first Kronrod pass.
    """
    width = b - a
    cuts = [a + width * 10.0 ** (-k) for k in range(levels, 0, -1)]
    pts = [a] + [c for c in cuts if c > a] + [b]
    total_val = 0.0
    total_err = 0.0
    for i, (lo, hi) in enumerate(zip(pts[:-1], pts[1:])):
        val, err = integrate_adaptive(
            f, lo, hi, cfg, left_exponent=left_exponent if i == 0 else None
        )
        total_val += val
        total_err += err
    return total_val, total_err


def _head_integral(f, osc, wfreq, a, z, hint, cfg):
    """Integral of f * osc over [a, z): the cell up to the first oscillator
    zero, which can span many orders of magnitude at small frequency."""
    return integrate_geometric(
        lambda t: f(t) * osc(wfreq * t), a, z, cfg, left_exponent=hint, levels=8
    )


def _accelerate(cells):
    """Iterated averaging of the partial sums of an alternating cell series.

    Starts the averaging table past the cell of largest magnitude so that a
    non-monotone head (e.g. a spectral resonance) is summed directly; the
    reported value/error come from the averaging level where the last-column
    increments are smallest.
    """
    mags = [abs(c) for c in cells]
    peak = int(np.argmax(mags))
    if peak > len(cells) - 6:
        peak = max(0, len(cells) - 6)
    direct = math.fsum(cells[:peak])
    row = np.cumsum(cells[peak:])
    candidates = [row[-1]]
    while len(row) >= 2:
        row = 0.5 * (row[:-1] + row[1:])
        candidates.append(row[-1])
    diffs = np.abs(np.diff(candidates))
    if diffs.size == 0:
        return direct + float(candidates[0]), abs(float(candidates[0]))
    i = int(np.argmin(diffs))
    return direct + float(candidates[i + 1]), float(diffs[i])


def _check_envelope_decay(f, z, half, cfg):
    """Probe the envelope far beyond the summation range.

    The half-period sums converge to the improper integral only when the
    envelope eventually decreases to zero; a persistently growing probe
    sequence violates that precondition.  Local non-monotonicity (e.g. a
    spectral resonance inside the early cells) is tolerated.
    """
    multipliers = (1.0, 4.0, 16.0, 64.0, 256.0)
    span = cfg.max_oscillation_cells * half
    pts = np.array([z + m * span for m in multipliers])
    try:
        vals = np.abs(np.asarray(f(pts), dtype=float))
    except Exception:
        return
    if not np.all(np.isfinite(vals)):
        return
    if np.all(np.diff(vals) > 0) and vals[-1] > 4.0 * vals[0]:
        raise OscillationPreconditionError(
            "oscillatory quadrature precondition failed: envelope not decreasing"
        )
