"""Adaptive quadrature for improper, endpoint-singular and oscillatory integrals.

The workhorse is a globally adaptive Gauss-Kronrod 7/15 rule with QUADPACK's
error estimate, run on a batch of segments at once: each round bisects the
worst interval of every segment that has not met its tolerance and evaluates
all the new halves with one call of the integrand.  Every segment keeps its
own tolerance, subdivision budget and subdivision sequence, so a batch gives
the values its segments give one by one.  The panels of a geometric
partition and the half-periods of an oscillator are such batches.

A call may also integrate many rows at once: the integration limits (and the
frequency of an oscillatory integral) may be arrays, each element one
integral, such as one time of an MSD curve or one frequency of a transform
grid.  Every segment carries its row, and the integrand receives its nodes
as a ``Nodes`` array whose ``rows`` attribute names the row of each node, so
one engine round makes one integrand call for every integral of the curve
that is still open.  A scalar call is the one-row case of the same code.
Such a call can hand an integrand thousands of nodes at once; the measure
routes of the transforms module take them in blocks of bounded size
(``transforms._BLOCK_BYTES``).

Semi-infinite ranges are folded onto (0, 1) with the rational substitution
w = a + u/(1-u).  Improper Fourier-type integrals with a slowly decaying
envelope are summed over half-periods of the oscillator and accelerated by
iterated averaging of the alternating partial sums: the engine takes 12
half-periods of every open row a round, and the accelerated sum of all the
half-periods of a row so far is tested against the tolerance once per round.
Integrands that decay only in oscillatory mean, such as (1 - cos u)/u^2, are
split by the caller into an oscillatory part and an absolutely integrable
rest.
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

# half-period cells handed to the engine per round: the fewest the
# oscillatory sum accelerates; the sum gives up after _MAX_CELLS of them
_CELL_BATCH = 12
_MAX_CELLS = 400
# decades integrate_geometric's partition spans toward the left endpoint
_GEOMETRIC_LEVELS = 10


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budget for the adaptive engine.

    ``rel_tol``/``abs_tol`` bound the admissible error as
    max(abs_tol, rel_tol*|value|).  ``max_subdivisions`` caps the number of
    interval bisections per segment.  integrate_oscillatory applies the
    tolerances to its accelerated sum once per round of 12 half-period cells,
    up to a fixed cap of 400 cells.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUAD = QuadConfig()


def _dot(y, weights):
    return np.einsum("ij,j->i", y, weights)


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
    # einsum adds each interval's 15 products in an order that does not
    # depend on k, where a BLAS matrix-vector product's does: an interval's
    # value is the same whatever batch it is evaluated in
    resk = h * _dot(y, _WK15)
    resg = h * _dot(y, _WG15)
    resabs = h * _dot(np.abs(y), _WK15)
    mean = resk / (hi - lo)
    resasc = h * _dot(np.abs(y - mean[:, None]), _WK15)
    err = np.abs(resk - resg)
    spread = resasc != 0.0
    ratio = np.divide(200.0 * err, resasc, out=np.ones_like(err), where=spread)
    err = np.where(spread, resasc * np.minimum(1.0, ratio) ** 1.5, err)
    floor = np.where(resabs > _TINY / (50.0 * _EPS), 50.0 * _EPS * resabs, 0.0)
    return resk, np.maximum(err, floor)


class Nodes(np.ndarray):
    """Abscissae handed to an integrand, each with its row.

    ``x.rows`` has x's shape and holds, node by node, the index of the
    integral (the row) the node belongs to in a call that integrates many
    rows at once; an integrand of a single integral may ignore it.  Arrays
    computed from x do not inherit the rows: their ``rows`` is None.
    """

    rows = None


def _nodes(x, rows):
    """x as Nodes of the given rows (an array of x's shape)."""
    x = np.asarray(x).view(Nodes)
    x.rows = rows
    return x


def _values(f, x, rows):
    """f on the nodes x of the given rows in one call, as a float array of
    x's shape."""
    y = np.asarray(f(_nodes(x.ravel(), rows.ravel())), dtype=float)
    if y.shape != (x.size,):
        y = np.broadcast_to(y, (x.size,))
    return y.reshape(x.shape)


def _broadcast(*args):
    """The common shape of the row arguments and each as a list of floats,
    one per row."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    return arrays[0].shape, [a.ravel().tolist() for a in arrays]


def _shaped(values, shape):
    """Per-row results as a float for a scalar call, else an array."""
    return values[0] if shape == () else np.array(values).reshape(shape)


def _row_sums(values, rows, n):
    """Sums of the segment values of each of n rows, added in segment order."""
    totals = [0] * n
    for r, v in zip(rows, values):
        totals[r] += v
    return totals


def integrate_adaptive(f, a, b, cfg=DEFAULT_QUAD, left_exponent=None):
    """Integrate a vectorized integrand over the finite interval [a, b].

    Parameters
    ----------
    f : callable
        Maps a Nodes array of abscissae to integrand values.  Never evaluated
        at the endpoints, so integrable endpoint singularities are allowed.
    a, b : float or array
        Limits; arrays broadcast to one integral per element (row).
    left_exponent : float, optional
        Hint that f(w) ~ (w - a)**p with p in (-1, 0) near the left endpoint.
        The engine then substitutes w = a + u**(1/(1+p)), which removes the
        singularity exactly for a pure power.  Where a + u**(1/(1+p)) rounds
        to a at a node, UnrepresentableError is raised.

    Returns
    -------
    (value, error_estimate), floats for scalar limits, else arrays of their
    broadcast shape
    """
    shape, (a, b) = _broadcast(a, b)
    if not all(math.isfinite(x) and math.isfinite(y) and x < y for x, y in zip(a, b)):
        raise ValueError("need finite a < b")
    vals, errs = _adapt(f, [(x, y, left_exponent) for x, y in zip(a, b)], cfg, range(len(a)))
    return _shaped(vals, shape), _shaped(errs, shape)


def _adapt(f, segments, cfg, rows=None):
    """Globally adaptive G7/K15 on a batch of segments, one call of f a round.

    ``segments`` lists (a, b, left_exponent) with a < b; a left exponent in
    (-1, 0) selects integrate_adaptive's endpoint substitution for that
    segment.  ``rows`` gives the row of each segment (all 0 by default),
    which f sees as the ``rows`` of its Nodes.  Each segment has its own
    interval heap, tolerance, ``cfg.max_subdivisions`` budget, roundoff-width
    branch and DivergentTail history.  A round bisects the worst interval of
    every open segment and evaluates all the new halves together, so each
    segment is subdivided as it would be alone.  Returns (values, errors),
    lists in segment order; the first segment that fails raises.
    """
    n = len(segments)
    row_of = np.zeros(n, dtype=np.intp) if rows is None else np.asarray(rows, dtype=np.intp)
    origin = np.array([float(a) for a, _, _ in segments])
    power = np.zeros(n)  # 0 marks a segment without substitution
    lo, hi = np.empty(n), np.empty(n)
    for i, (a, b, exponent) in enumerate(segments):
        if exponent is not None and -1.0 < exponent < 0.0:
            power[i] = 1.0 / (1.0 + exponent)
            lo[i], hi[i] = 0.0, (b - a) ** (1.0 + exponent)
        else:
            lo[i], hi[i] = a, b

    def integrand(x, seg):
        # f at the nodes x of intervals of segments `seg`, substituting
        # w = a + u**p on the segments that have a power p
        node_rows = np.repeat(row_of[seg], x.shape[1]).reshape(x.shape)
        sub = power[seg] > 0.0
        if not sub.any():
            return _values(f, x, node_rows)
        p, a, u = power[seg[sub], None], origin[seg[sub], None], x[sub]
        s = u ** p
        w = x.copy()
        w[sub] = a + s
        lost = (w[sub] == a).any(axis=1)
        if lost.any():
            k = seg[sub][lost][0]
            raise UnrepresentableError(
                f"endpoint substitution underflows for left exponent "
                f"{segments[k][2]:g}: a + u**{power[k]:g} rounds to a = {origin[k]:g}"
            )
        y = _values(f, w, node_rows).copy()
        y[sub] = y[sub] * p * s / u
        return y

    seg = np.arange(n)
    val, err = _kronrod_batch(lambda x: integrand(x, seg), lo, hi)
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
        seg = np.array([s[0] for s in split] * 2)
        los = np.array([s[1] for s in split] + [s[2] for s in split])
        his = np.array([s[2] for s in split] + [s[3] for s in split])
        vals, errs = _kronrod_batch(lambda x: integrand(x, seg), los, his)
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


def integrate_to_infinity(f, a, cfg=DEFAULT_QUAD):
    """Integrate f over [a, oo) assuming |f| = O(w**-p), p > 1, at infinity.

    ``a`` may be an array, one integral per element.  The substitution
    w = a + u/(1-u) maps the range onto (0, 1).  A clearly sub-integrable tail
    (measured decay exponent <= 1 in some row) raises DivergentTail.  An
    integrand that decays only in oscillatory mean is out of reach: split it,
    as moments.msd_x does, into an integrate_oscillatory part and an
    absolutely integrable rest.
    """
    shape, (a,) = _broadcast(a)
    origin = np.array(a)
    u_cap = np.nextafter(1.0, 0.0)  # keep the mapped abscissa finite

    def g(u):
        rows = u.rows
        u = np.minimum(u.view(np.ndarray), u_cap)
        w = origin[rows] + u / (1.0 - u)
        return f(_nodes(w, rows)) / (1.0 - u) ** 2

    try:
        return integrate_adaptive(g, np.zeros(shape), np.ones(shape), cfg)
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
    """Crude log-log decay slope of |f| far out on [a, oo), the smallest over
    the rows of the list a, from one call of f; None if unusable."""
    ws = np.add.outer(a, np.geomspace(10.0, 1e8, 8))
    try:
        ys = np.abs(_values(f, ws, np.repeat(np.arange(len(a)), 8)))
    except Exception:
        return None
    slopes = []
    for w, y in zip(ws, ys):
        good = y > 0
        if good.sum() >= 4:
            slopes.append(-np.polyfit(np.log(w[good]), np.log(y[good]), 1)[0])
    return min(slopes, default=None)


def integrate_oscillatory(f, freq, phase, a, cfg=DEFAULT_QUAD, left_exponent=None):
    """Improper integral of f(t)*cos(freq*t) or f(t)*sin(freq*t) over [a, oo).

    f is the (non-oscillatory) envelope and must eventually decrease to zero;
    the integral is summed over half-periods of the oscillator and the
    alternating partial sums are accelerated by iterated averaging, so only
    conditional convergence is required.  ``freq`` and ``a`` may be arrays,
    which broadcast to one integral (row) per element; f may read a node's
    row from the ``rows`` of its Nodes.

    The head of a row up to the first zero of its oscillator is a geometric
    partition refined toward a.  Each round hands the engine the next 12
    half-periods of every open row, the first round with the heads, and
    accelerates every half-period of the row summed so far once; a row is
    accepted when that error meets max(abs_tol, rel_tol*|value|), and
    ToleranceNotMet is raised once 400 half-periods of a row have not met it.

    Returns (value, error_estimate), floats for scalar arguments, else arrays
    of their broadcast shape.
    """
    shape, (freq, a) = _broadcast(freq, a)
    if 0.0 in freq:
        raise ValueError("freq must be nonzero")
    if phase not in ("cos", "sin"):
        raise ValueError("phase must be 'cos' or 'sin'")
    n = len(freq)
    wfreq = [abs(fr) for fr in freq]
    sign = [1.0 if (fr > 0 or phase == "cos") else -1.0 for fr in freq]
    half = [math.pi / w for w in wfreq]
    # first zero of each row's oscillator at or beyond its a
    z = []
    for w, h, a0 in zip(wfreq, half, a):
        if phase == "cos":
            k0 = math.floor((a0 * w / math.pi - 0.5)) + 1
            zr = (k0 + 0.5) * h
        else:
            k0 = math.floor(a0 * w / math.pi) + 1
            zr = k0 * h
        z.append(zr + h if zr <= a0 else zr)
    _check_envelope_decay(f, z, half)

    cell_cfg = QuadConfig(
        rel_tol=min(cfg.rel_tol, 1e-10),
        abs_tol=cfg.abs_tol * 1e-2,
        max_subdivisions=max(60, cfg.max_subdivisions // 10),
    )
    osc = np.cos if phase == "cos" else np.sin
    row_freq = np.array(wfreq)

    def g(t):
        return f(t) * osc(row_freq[t.rows] * t.view(np.ndarray))

    head, head_err = [0.0] * n, [0.0] * n
    cells, cell_errs = [[] for _ in range(n)], [0.0] * n
    value, error = [0.0] * n, [0.0] * n
    lo = list(z)  # start of each row's next cell
    open_rows, first = list(range(n)), True
    while open_rows:
        segments, rows, spans = [], [], []
        for r in open_rows:
            start = len(segments)
            if first:
                segments += _geometric_segments(a[r], z[r], 8, left_exponent)
            n_head = len(segments) - start
            for _ in range(min(_CELL_BATCH, _MAX_CELLS - len(cells[r]))):
                segments.append((lo[r], lo[r] + half[r], None))
                lo[r] += half[r]
            rows += [r] * (len(segments) - start)
            spans.append((r, start, start + n_head, len(segments)))
        vals, errs = _adapt(g, segments, cell_cfg, rows)
        still = []
        for r, start, mid, end in spans:
            if first:
                head[r], head_err[r] = sum(vals[start:mid]), sum(errs[start:mid])
            cells[r] += vals[mid:end]
            cell_errs[r] += sum(errs[mid:end])
            est, acc_err = _accelerate(cells[r])
            total = head[r] + est
            if acc_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
                value[r] = sign[r] * total
                error[r] = acc_err + cell_errs[r] + head_err[r]
            elif len(cells[r]) == _MAX_CELLS:
                raise ToleranceNotMet(
                    "tolerance not met in oscillatory sum "
                    f"(value={float(sign[r] * total)}, err={float(acc_err)})",
                    value=sign[r] * total,
                    error=acc_err,
                )
            else:
                still.append(r)
        open_rows, first = still, False
    return _shaped(value, shape), _shaped(error, shape)


def integrate_geometric(f, a, b, cfg=DEFAULT_QUAD, left_exponent=None):
    """Adaptive integral over [a, b] with a geometric initial partition.

    The partition refines toward the left endpoint over ten orders of
    magnitude, so integrands whose mass sits many decades inside the interval
    (or at a singular left endpoint) are not missed by the first Kronrod pass.
    ``a`` and ``b`` may be arrays, one integral (row) per element.  All panels
    of all rows are one batch for the adaptive engine; the left exponent
    applies to the first panel of each row.
    """
    shape, (a, b) = _broadcast(a, b)
    segments, rows = [], []
    for r, (x, y) in enumerate(zip(a, b)):
        panels = _geometric_segments(x, y, _GEOMETRIC_LEVELS, left_exponent)
        segments += panels
        rows += [r] * len(panels)
    vals, errs = _adapt(f, segments, cfg, rows)
    n = len(a)
    return _shaped(_row_sums(vals, rows, n), shape), _shaped(_row_sums(errs, rows, n), shape)


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


def _check_envelope_decay(f, z, half):
    """Probe each row's envelope far beyond its summation range, all rows in
    one call of f.

    The half-period sums converge to the improper integral only when the
    envelope eventually decreases to zero; a persistently growing probe
    sequence violates that precondition.  Local non-monotonicity (e.g. a
    spectral resonance inside the early cells) is tolerated, and so is a row
    whose probe is not finite.
    """
    multipliers = np.array((1.0, 4.0, 16.0, 64.0, 256.0))
    span = _MAX_CELLS * np.array(half)
    pts = np.array(z)[:, None] + multipliers * span[:, None]
    rows = np.repeat(np.arange(len(z)), multipliers.size).reshape(pts.shape)
    try:
        vals = np.abs(_values(f, pts, rows))
    except Exception:
        return
    vals = vals[np.isfinite(vals).all(axis=1)]
    growing = np.all(np.diff(vals, axis=1) > 0, axis=1) & (vals[:, -1] > 4.0 * vals[:, 0])
    if growing.any():
        raise OscillationPreconditionError(
            "oscillatory quadrature precondition failed: envelope not decreasing"
        )
