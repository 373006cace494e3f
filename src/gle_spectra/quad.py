"""Adaptive quadrature for improper, endpoint-singular and oscillatory integrals.

The workhorse is a globally adaptive Gauss-Kronrod 7/15 rule with QUADPACK's
error estimate, run on a batch of segments at once: each round bisects the
worst interval of every segment that has not met its tolerance and evaluates
all the new halves with one call of the integrand.  Every segment keeps its
own tolerance, subdivision budget and subdivision sequence, so a batch gives
the values its segments give one by one.  The panels of a geometric
partition and the half-periods of an oscillator are such batches.
Semi-infinite ranges are folded onto (0, 1) with the rational substitution
w = a + u/(1-u).  Improper Fourier-type integrals with a slowly decaying
envelope are summed over half-periods of the oscillator and accelerated by
iterated averaging of the alternating partial sums.  Integrands that decay
only in oscillatory mean, such as (1 - cos u)/u^2, are split by the caller
into an oscillatory part and an absolutely integrable rest.
"""

from dataclasses import dataclass
import heapq
import math

import numpy as np

from .errors import (
    DivergentTail,
    OscillationPreconditionError,
    ToleranceNotMet,
    UnrepresentableError,
)

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
_WK15 = np.concatenate((_WGK[:7], _WGK[::-1]))  # Kronrod weights on _NODES
_WG15 = np.zeros(15)  # Gauss weights on _NODES, zero on the Kronrod-only nodes
_WG15[1::2] = np.concatenate((_WG[:3], _WG[::-1]))
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

# cells handed to the engine per batch: the fewest the oscillatory sum
# accelerates
_CELL_BATCH = 12


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budget for the adaptive engine.

    ``rel_tol``/``abs_tol`` bound the admissible error as
    max(abs_tol, rel_tol*|value|).  ``max_subdivisions`` caps the number of
    interval bisections; ``max_oscillation_cells`` caps the number of
    half-period cells integrate_oscillatory sums before acceleration must
    have converged.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    max_oscillation_cells: int = 400

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUAD = QuadConfig()


def _kronrod_batch(f, lo, hi):
    """G7/K15 on the k intervals [lo[i], hi[i]] with one call of f.

    f maps the (k, 15) array of nodes to integrand values of that shape.
    Returns (values, errors), arrays of length k; the error is QUADPACK's
    resasc/resabs estimate.
    """
    h = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + h[:, None] * _NODES
    y = f(x)
    if not np.isfinite(y).all():
        i = int(np.argmin(np.isfinite(y).all(axis=1)))
        raise ToleranceNotMet(f"integrand not finite inside ({float(lo[i])}, {float(hi[i])})")
    resk = h * (y @ _WK15)
    resg = h * (y @ _WG15)
    resabs = h * (np.abs(y) @ _WK15)
    mean = resk / (hi - lo)
    resasc = h * (np.abs(y - mean[:, None]) @ _WK15)
    err = np.abs(resk - resg)
    spread = resasc != 0.0
    ratio = np.divide(200.0 * err, resasc, out=np.ones_like(err), where=spread)
    err = np.where(spread, resasc * np.minimum(1.0, ratio) ** 1.5, err)
    floor = np.where(resabs > _TINY / (50.0 * _EPS), 50.0 * _EPS * resabs, 0.0)
    return resk, np.maximum(err, floor)


def _values(f, x):
    """f on the nodes x in one call, as a float array of x's shape."""
    y = np.asarray(f(x.ravel()), dtype=float)
    if y.shape != (x.size,):
        y = np.broadcast_to(y, (x.size,))
    return y.reshape(x.shape)


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
        singularity exactly for a pure power.  Where a + u**(1/(1+p)) rounds
        to a at a node, UnrepresentableError is raised.

    Returns
    -------
    (value, error_estimate)
    """
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError("need finite a < b")
    vals, errs = _adapt(f, [(a, b, left_exponent)], cfg)
    return vals[0], errs[0]


def _adapt(f, segments, cfg):
    """Globally adaptive G7/K15 on a batch of segments, one call of f a round.

    ``segments`` lists (a, b, left_exponent) with a < b; a left exponent in
    (-1, 0) selects integrate_adaptive's endpoint substitution for that
    segment.  Each segment has its own interval heap, tolerance,
    ``cfg.max_subdivisions`` budget, roundoff-width branch and DivergentTail
    history.  A round bisects the worst interval of every open segment and
    evaluates all the new halves together, so each segment is subdivided as it
    would be alone.  Returns (values, errors), lists in segment order; the
    first segment that fails raises.
    """
    n = len(segments)
    origin = np.array([float(a) for a, _, _ in segments])
    power = np.zeros(n)  # 0 marks a segment without substitution
    lo, hi = np.empty(n), np.empty(n)
    for i, (a, b, exponent) in enumerate(segments):
        if exponent is not None and -1.0 < exponent < 0.0:
            power[i] = 1.0 / (1.0 + exponent)
            lo[i], hi[i] = 0.0, (b - a) ** (1.0 + exponent)
        else:
            lo[i], hi[i] = a, b

    def integrand(x, rows):
        # f at the nodes x of intervals of segments `rows`, substituting
        # w = a + u**p on the segments that have a power p
        sub = power[rows] > 0.0
        if not sub.any():
            return _values(f, x)
        p, a, u = power[rows[sub], None], origin[rows[sub], None], x[sub]
        s = u ** p
        w = x.copy()
        w[sub] = a + s
        lost = (w[sub] == a).any(axis=1)
        if lost.any():
            k = rows[sub][lost][0]
            raise UnrepresentableError(
                f"endpoint substitution underflows for left exponent "
                f"{segments[k][2]:g}: a + u**{power[k]:g} rounds to a = {origin[k]:g}"
            )
        y = _values(f, w).copy()
        y[sub] = y[sub] * p * s / u
        return y

    rows = np.arange(n)
    val, err = _kronrod_batch(lambda x: integrand(x, rows), lo, hi)
    total_val, total_err = val.tolist(), err.tolist()
    heaps = [
        [(-e, a, b, v, e)]
        for a, b, v, e in zip(lo.tolist(), hi.tolist(), total_val, total_err)
    ]
    history = [[] for _ in range(n)]
    rounds = 0
    active = list(range(n))
    while active:
        still, split = [], []
        for i in active:
            if total_err[i] <= max(cfg.abs_tol, cfg.rel_tol * abs(total_val[i])):
                continue
            if rounds == cfg.max_subdivisions:
                raise _budget_error(cfg, total_val[i], total_err[i], history[i])
            still.append(i)
            _, a, b, v, e = heapq.heappop(heaps[i])
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:  # interval at roundoff width
                heapq.heappush(heaps[i], (0.0, a, b, v, e))
                total_err[i] = sum(item[4] for item in heaps[i])
                continue
            split.append((i, a, mid, b, v, e))
        rounds += 1
        active = still
        if not split:
            continue
        k = len(split)
        rows = np.array([s[0] for s in split] * 2)
        los = np.array([s[1] for s in split] + [s[2] for s in split])
        his = np.array([s[2] for s in split] + [s[3] for s in split])
        vals, errs = _kronrod_batch(lambda x: integrand(x, rows), los, his)
        vals, errs = vals.tolist(), errs.tolist()
        for j, (i, a, mid, b, v, e) in enumerate(split):
            v1, v2, e1, e2 = vals[j], vals[j + k], errs[j], errs[j + k]
            total_val[i] += (v1 + v2) - v
            total_err[i] += (e1 + e2) - e
            heapq.heappush(heaps[i], (-e1, a, mid, v1, e1))
            heapq.heappush(heaps[i], (-e2, mid, b, v2, e2))
            history[i].append(total_val[i])
    return total_val, total_err


def _budget_error(cfg, value, error, history):
    """The error of a segment that used up its subdivisions: DivergentTail
    when its value only grew over the last 16 of them, else ToleranceNotMet."""
    grew = len(history) > 16 and all(
        history[i + 1] >= history[i] for i in range(len(history) - 16, len(history) - 1)
    )
    exc = DivergentTail if grew else ToleranceNotMet
    return exc(
        f"tolerance not met after {cfg.max_subdivisions} subdivisions "
        f"(value={float(value)}, err={float(error)})",
        value=value,
        error=error,
    )


def _cells(f, head, lo, width, cfg, max_cells):
    """Integrals of f over the head segments, then over the cells
    [lo, lo + width), [lo + width, lo + 2 width), ... up to max_cells.

    Yields the head's (value, error) first, then each cell's.  The head and
    the first _CELL_BATCH cells go to the engine as one batch, later cells
    _CELL_BATCH at a time, so each adaptive round is one call of f; cells past
    the prefix a caller accepts are computed and dropped.
    """
    segments, done = list(head), 0
    while head is not None or done < max_cells:
        k = min(_CELL_BATCH, max_cells - done)
        for _ in range(k):
            segments.append((lo, lo + width, None))
            lo += width
        vals, errs = _adapt(f, segments, cfg)
        if head is not None:
            yield sum(vals[:len(head)]), sum(errs[:len(head)])
            vals, errs = vals[len(head):], errs[len(head):]
            head = None
        yield from zip(vals, errs)
        segments, done = [], done + k


def integrate_to_infinity(f, a, cfg=DEFAULT_QUAD, left_exponent=None):
    """Integrate f over [a, oo) assuming |f| = O(w**-p), p > 1, at infinity.

    The substitution w = a + u/(1-u) maps the range onto (0, 1).  A clearly
    sub-integrable tail (measured decay exponent <= 1) raises DivergentTail.
    An integrand that decays only in oscillatory mean is out of reach: split
    it, as moments.msd_x does, into an integrate_oscillatory part and an
    absolutely integrable rest.
    """
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
    conditional convergence is required.  The head up to the first zero of
    the oscillator is a geometric partition refined toward a; the head and
    the first 12 half-periods are one batch for the adaptive engine, and
    later half-periods come 12 at a time.

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

    def g(t):
        return f(t) * osc(wfreq * t)

    sums = _cells(g, _geometric_segments(a, z, 8, left_exponent), z, half, cell_cfg,
                  cfg.max_oscillation_cells)
    head, head_err = next(sums)
    cells = []
    cell_errs = 0.0
    total = None
    total_err = None
    for v, e in sums:
        cells.append(v)
        cell_errs += e
        if len(cells) < _CELL_BATCH:
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
    All panels are one batch for the adaptive engine; the left exponent
    applies to the first.
    """
    vals, errs = _adapt(f, _geometric_segments(a, b, levels, left_exponent), cfg)
    return sum(vals), sum(errs)


def _geometric_segments(a, b, levels, left_exponent):
    """Engine segments for the panels of [a, b] refined toward a over
    ``levels`` decades; the left exponent goes with the first panel."""
    width = b - a
    cuts = [a + width * 10.0 ** (-k) for k in range(levels, 0, -1)]
    pts = [a] + [c for c in cuts if c > a] + [b]
    return [
        (lo, hi, left_exponent if i == 0 else None)
        for i, (lo, hi) in enumerate(zip(pts[:-1], pts[1:]))
    ]


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
