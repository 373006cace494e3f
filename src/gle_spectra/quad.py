"""Adaptive quadrature for improper, endpoint-singular and oscillatory integrals.

The workhorse is a globally adaptive Gauss-Kronrod 7/15 rule with QUADPACK's
error estimate, run on a batch of segments at once: each round bisects the
worst interval of every segment that has not met its tolerance and evaluates
all the new halves with one call of the integrand.  Every segment keeps its
own tolerance, subdivision budget and subdivision sequence, so a batch gives
the values its segments give one by one.  The panels of a geometric
partition and the half-periods of an oscillator are such batches.  The
engine's state is numpy arrays, not Python objects: the intervals of all
open segments sit in flat arrays, and one lexsort a round finds the worst
interval of every segment (least rank = -error, then left and right end).

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
w = a + u/(1-u).  The fold is a per-segment substitution, as the power
substitution at a singular left endpoint is, so a finite head on geometric
panels, the panels between the caller's cuts and the folded tail past them
are one batch.  Improper Fourier-type integrals with a slowly decaying
envelope are summed over half-periods of the oscillator and accelerated by
iterated averaging of the alternating partial sums: the engine takes 12
half-periods of every open row a round, the open rows in lockstep, and the
accelerated sum of all the half-periods of each open row so far, one array of
cells for all of them, is tested against the tolerance once per round.  Each
row has its own phase, so the cosine and sine transforms of a frequency grid
are one run.  Integrands that decay only in oscillatory mean, such as
(1 - cos u)/u^2, are split by the caller into an oscillatory part and an
absolutely integrable rest.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import (
    DivergentTail,
    GleError,
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
# cuts of a geometric partition at 10**-k of its width, k = 10 ... 1, by
# Python's float power: numpy's vectorised one can round differently
_DECADES = np.array([10.0 ** -k for k in range(_GEOMETRIC_LEVELS, 0, -1)])
# the last double below 1: the fold w = a + u/(1-u) stops at w - a = 2**53 - 1
_U_CAP = np.nextafter(1.0, 0.0)


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
        if not (self.rel_tol > 0 and self.abs_tol > 0):
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
    """The common shape of the row arguments and each as a flat float array,
    one element per row; ValueError unless every element is finite."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    if not np.isfinite(arrays).all():
        raise ValueError("integration limits and frequencies must be finite")
    return arrays[0].shape, [x.ravel() for x in arrays]


def _shaped(values, shape):
    """Per-row results as a float for a scalar call, else an array."""
    return float(values[0]) if shape == () else values.reshape(shape)


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
    if not (a < b).all():
        raise ValueError("need finite a < b")
    exponent = np.full(a.size, np.nan if left_exponent is None else left_exponent)
    vals, errs = _adapt(f, a, b, np.arange(a.size), exponent, cfg)
    return _shaped(vals, shape), _shaped(errs, shape)


def _adapt(f, a, b, rows, left_exponent, cfg):
    """Globally adaptive G7/K15 on a batch of segments, one call of f a round.

    Segment i is [a[i], b[i]], a[i] < b[i], in row rows[i], which f sees as
    the ``rows`` of its Nodes.  Each segment may carry one substitution: a
    left exponent in (-1, 0) selects integrate_adaptive's endpoint
    substitution (NaN none), and b[i] = inf folds [a[i], oo) onto (0, 1) by
    integrate_to_infinity's w = a + u/(1-u).  The intervals of the open
    segments live in flat arrays: segment, ends, value, error and rank,
    which is -error, or 0 once the interval is at roundoff width.  A round
    bisects the interval of least (rank, a, b) of every open segment and
    evaluates all the new halves together; each segment has its own
    tolerance and ``cfg.max_subdivisions`` budget, so it is subdivided as it
    would be alone.  Returns (values, errors) in segment order; the first
    segment that uses up its budget raises ToleranceNotMet with its own
    value and error.
    """
    n = a.size
    fold = b == np.inf
    sub = (-1.0 < left_exponent) & (left_exponent < 0.0) & ~fold
    power = np.zeros(n)  # p of the segments with the endpoint substitution
    power[sub] = 1.0 / (1.0 + left_exponent[sub])
    lo, hi = np.where(sub | fold, 0.0, a), np.where(fold, 1.0, b)
    # Python's float power: numpy's vectorised one can round an element
    # differently by its place in the array
    hi[sub] = (b[sub] - a[sub]).astype(object) ** (1.0 + left_exponent[sub]).astype(object)

    # each segment's substitution: 0 none, 1 the endpoint power, 2 the fold
    kind = np.where(fold, 2, sub.astype(int))

    def integrand(x, seg):
        # f at the nodes x of intervals of segments `seg`, substituting
        # w = a + u**p on the segments that have a power p and
        # w = a + u/(1-u) on the folded ones
        node_rows = np.repeat(rows[seg], x.shape[1]).reshape(x.shape)
        kinds = kind[seg]
        n_sub, n_fold = np.bincount(kinds, minlength=3)[1:]
        if n_fold == seg.size:
            w, du_dw = _unfold(x, a[seg, None])
            return _values(f, w, node_rows) / du_dw
        if not (n_sub or n_fold):
            return _values(f, x, node_rows)
        w = x.copy()
        if n_sub:
            sub = kinds == 1
            p, a0, u = power[seg[sub], None], a[seg[sub], None], x[sub]
            s = u ** p
            w[sub] = a0 + s
            lost = (w[sub] == a0).any(axis=1)
            if lost.any():
                k = seg[sub][lost][0]
                raise UnrepresentableError(
                    f"endpoint substitution underflows for left exponent "
                    f"{left_exponent[k]:g}: a + u**{power[k]:g} rounds to a = {a[k]:g}"
                )
        if n_fold:
            folded = kinds == 2
            w[folded], du_dw = _unfold(x[folded], a[seg[folded], None])
        y = _values(f, w, node_rows).copy()
        if n_sub:
            y[sub] = y[sub] * p * s / u
        if n_fold:
            y[folded] = y[folded] / du_dw
        return y

    seg = np.arange(n)
    val, err = _kronrod_batch(lambda x: integrand(x, seg), lo, hi)
    total_val, total_err = val.copy(), err.copy()
    # a column per interval of the open segments: segment, ends, value, error, rank
    table = np.array((seg, lo, hi, val, err, -err))
    open_seg, rounds = seg, 0
    while True:
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total_val[open_seg]))
        still = ~(total_err[open_seg] <= tol)
        if not still.all():
            open_seg = open_seg[still]
            table = table[:, np.isin(table[0], open_seg)]
        if not open_seg.size:
            return total_val, total_err
        if rounds == cfg.max_subdivisions:
            v, e = float(total_val[open_seg[0]]), float(total_err[open_seg[0]])
            raise ToleranceNotMet(
                f"tolerance not met after {cfg.max_subdivisions} subdivisions "
                f"(value={v}, err={e})", value=v, error=e
            )
        rounds += 1
        iseg, ia, ib, iv, ie, rank = table
        order = np.lexsort((ib, ia, rank, iseg))
        # the interval to bisect of each open segment, in segment order
        j = order[np.searchsorted(iseg[order], open_seg)]
        a0, b0 = ia[j], ib[j]
        mid = 0.5 * (a0 + b0)
        stuck = (mid <= a0) | (mid >= b0)  # interval at roundoff width
        s = open_seg
        if stuck.any():
            rank[j[stuck]] = 0.0
            total_err[s[stuck]] = np.bincount(iseg.astype(int), weights=ie, minlength=n)[s[stuck]]
            s, j, a0, mid, b0 = (x[~stuck] for x in (s, j, a0, mid, b0))
            if not s.size:
                continue
        k, halves = s.size, np.concatenate((s, s))
        lo, hi = np.concatenate((a0, mid)), np.concatenate((mid, b0))
        vals, errs = _kronrod_batch(lambda x: integrand(x, halves), lo, hi)
        v1, v2, e1, e2 = vals[:k], vals[k:], errs[:k], errs[k:]
        total_val[s] += (v1 + v2) - iv[j]
        total_err[s] += (e1 + e2) - ie[j]
        table[2:, j] = mid, v1, e1, -e1
        table = np.concatenate((table, (s, mid, b0, v2, e2, -e2)), axis=1)


def _unfold(u, a):
    """(w, du/dw) of the fold w = a + u/(1-u) at the nodes u, with u capped
    at the last double below 1."""
    u = np.minimum(u, _U_CAP)
    return a + u / (1.0 - u), (1.0 - u) ** 2


def integrate_to_infinity(f, a, cfg=DEFAULT_QUAD, split=None, left_exponent=None):
    """Integrate f over [a, oo) assuming |f| = O(w**-p), p > 1, at infinity.

    ``a`` may be an array, one integral per element.  The substitution
    w = a + u/(1-u) maps the range onto (0, 1), up to the last double below
    u = 1, where w - a = 2**53 - 1; the engine applies it segment by
    segment, as it does the endpoint substitution.  The range past that cap
    is estimated from the decay exponent p of |f| over the three decades
    below it, all rows in one call of f before the engine evaluates f
    anywhere else: p <= 1 in some row raises DivergentTail, and otherwise
    the tail estimate joins the error of the row's fold, which must still
    meet the tolerance.  An integrand that decays only in oscillatory mean
    is out of reach: split it, as moments.msd_x does, into an
    integrate_oscillatory part and an absolutely integrable rest.

    ``split``, a cut or an ascending array of cuts shared by all rows, lays
    out the finite part of each row that lies below its last cut: a row
    keeps the cuts above its own a, takes its head [a, c1] up to the first
    of them on integrate_geometric's panels, with the left exponent on the
    first, then one panel between each two cuts it keeps, and folds only
    [ck, oo) past the last.  A row with no cut above a is folded from a, the
    left exponent unused.  Head, panels and fold are one engine run, so
    each row's value and error are bit for bit the sum of
    integrate_geometric's over its head, integrate_adaptive's over each
    panel and this function's over [ck, oo), added in that order.  The
    head's endpoint substitution is checked before the tail is probed.
    """
    shape, (a,) = _broadcast(a)
    cuts = np.atleast_1d(np.asarray([] if split is None else split, dtype=float))
    if cuts.ndim != 1 or not np.isfinite(cuts).all() or (np.diff(cuts) <= 0.0).any():
        raise ValueError("split must be finite cuts in ascending order")
    n = a.size
    # kept[r, j]: cut j lies above row r's a; the cuts ascend, so a row
    # keeps the last ones
    kept = cuts > a[:, None]
    cut_rows = np.flatnonzero(kept.any(axis=1))
    head = _geometric_segments(
        a[cut_rows], cuts[cuts.size - kept[cut_rows].sum(axis=1)], _GEOMETRIC_LEVELS,
        left_exponent,
    )
    head = (*head[:2], cut_rows[head[2]], head[3])
    panel_rows, j = np.nonzero(kept[:, :-1])  # row-major: a row's panels in order
    panels = (cuts[j], cuts[j + 1], panel_rows, np.full(j.size, np.nan))
    origin = np.maximum(a, cuts.max(initial=-np.inf))  # where each row's fold starts
    tail = None

    def probed(w):
        # the first integrand call probes the tail first: after the engine
        # has checked the head's substitution, before it evaluates f
        nonlocal tail
        if tail is None:
            tail = _dropped_tail(f, origin, _U_CAP / (1.0 - _U_CAP))
        return f(w)

    # every head panel, then every panel between cuts, then every fold, so
    # each row adds its head in order, then its panels, and its fold last
    fold = (origin, np.full(n, np.inf), np.arange(n), np.full(n, np.nan))
    segments = [np.concatenate(x) for x in zip(head, panels, fold)]
    vals, errs = _adapt(probed, *segments, cfg)
    k = vals.size - n
    errs[k:] += tail
    failed = np.flatnonzero(errs[k:] > np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(vals[k:])))
    if failed.size:
        v, e = float(vals[k + failed[0]]), float(errs[k + failed[0]])
        raise ToleranceNotMet(
            "tolerance not met with the estimated tail past the fold cap "
            f"(value={v}, err={e})", value=v, error=e
        )
    if k:  # bincount adds the segments of each row in segment order
        vals, errs = (np.bincount(segments[2], weights=x, minlength=n) for x in (vals, errs))
    return _shaped(vals, shape), _shaped(errs, shape)


def _dropped_tail(f, origin, span):
    """Estimate of Int |f| over [origin + span, oo) in each row, from the
    decay exponent p of |f| between origin + span/2**10 and origin + span,
    all rows in one call of f: |f| w / (p - 1) at the far point, 0 where
    |f| vanishes there.  DivergentTail where p <= 1."""
    w = origin[:, None] + span * np.array([2.0 ** -10, 1.0])
    rows = np.repeat(np.arange(len(origin)), 2).reshape(w.shape)
    y = np.abs(_values(f, w, rows))
    gone = y[:, 1] == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.log(y[:, 0] / y[:, 1]) / np.log(w[:, 1] / w[:, 0])
        tail = np.where(gone, 0.0, y[:, 1] * w[:, 1] / (p - 1.0))
    divergent = ~gone & ~(p > 1.0)
    if divergent.any():
        raise DivergentTail(
            f"divergent tail: measured decay exponent {float(p[divergent][0]):.3f} <= 1"
        )
    return tail


def integrate_oscillatory(f, freq, phase, a, cfg=DEFAULT_QUAD, left_exponent=None):
    """Improper integral of f(t)*cos(freq*t) or f(t)*sin(freq*t) over [a, oo).

    f is the (non-oscillatory) envelope and must eventually decrease to zero;
    the integral is summed over half-periods of the oscillator and the
    alternating partial sums are accelerated by iterated averaging, so only
    conditional convergence is required.  ``freq``, ``phase`` ("cos" or
    "sin") and ``a`` may be arrays, which broadcast to one integral (row)
    per element; f may read a node's row from the ``rows`` of its Nodes.
    A row's value and error do not depend on the other rows, whatever their
    phases.

    The head of a row up to the first zero of its oscillator is a geometric
    partition refined toward a.  Each round hands the engine the next 12
    half-periods of every open row, the first round with the heads, and
    accelerates every half-period of the row summed so far once; a row is
    accepted when that error meets max(abs_tol, rel_tol*|value|), and
    ToleranceNotMet is raised once 400 half-periods of a row have not met it.

    Returns (value, error_estimate), floats for scalar arguments, else arrays
    of their broadcast shape.
    """
    phase = np.asarray(phase)
    is_sin = phase == "sin"
    if not (is_sin | (phase == "cos")).all():
        raise ValueError("phase must be 'cos' or 'sin'")
    shape, (freq, a, is_sin) = _broadcast(freq, a, is_sin)
    if (freq == 0.0).any():
        raise ValueError("freq must be nonzero")
    is_sin = is_sin > 0.0
    n = freq.size
    wfreq = np.abs(freq)
    sign = np.where((freq > 0) | ~is_sin, 1.0, -1.0)
    half = math.pi / wfreq
    # first zero of each row's oscillator at or beyond its a: the zeros of
    # cos lie half a half-period past those of sin
    shift = np.where(is_sin, 0.0, 0.5)
    z = (np.floor(a * wfreq / math.pi - shift) + (1.0 + shift)) * half
    z = np.where(z <= a, z + half, z)
    _check_envelope_decay(f, z, half)

    cell_cfg = QuadConfig(
        rel_tol=min(cfg.rel_tol, 1e-10),
        abs_tol=cfg.abs_tol * 1e-2,
        max_subdivisions=max(60, cfg.max_subdivisions // 10),
    )
    mixed = is_sin.any() and not is_sin.all()
    osc = np.sin if is_sin.all() else np.cos

    def g(t):
        # f(t) times the oscillators, taken in place over wfreq t; a call
        # that mixes phases marks the nodes of its sin rows, a byte a node
        envelope = f(t)
        y = wfreq[t.rows]
        y *= t.view(np.ndarray)
        if mixed:
            on_sin = is_sin[t.rows]
            np.sin(y, out=y, where=on_sin)
            np.cos(y, out=y, where=np.logical_not(on_sin, out=on_sin))
        else:
            osc(y, out=y)
        y *= envelope
        return y

    head = _geometric_segments(a, z, 8, left_exponent)  # the first round's panels
    value, error, head_val, head_err = np.zeros((4, n))
    # the open rows, the start of each one's next cell, its cells and their error
    rows, start, cells, cell_err = np.arange(n), z, np.empty((n, 0)), np.zeros(n)
    while rows.size:
        m, take = rows.size, min(_CELL_BATCH, _MAX_CELLS - cells.shape[1])
        edges = np.cumsum(np.column_stack([start] + [half[rows]] * take), axis=1)
        start = edges[:, -1]
        batch = (edges[:, :-1].ravel(), edges[:, 1:].ravel(), np.repeat(rows, take),
                 np.full(m * take, np.nan))
        segments = [np.concatenate(pair) for pair in zip(head, batch)]
        order = np.argsort(segments[2], kind="stable")  # a row's head before its cells
        vals, errs = _adapt(g, *(x[order] for x in segments), cell_cfg)
        is_head = order < head[0].size
        if is_head.any():
            head_rows = segments[2][order[is_head]]
            head_val, head_err = (
                np.bincount(head_rows, weights=x[is_head], minlength=n) for x in (vals, errs)
            )
            head = [x[:0] for x in head]
        cell_err = cell_err + np.bincount(np.repeat(np.arange(m), take), weights=errs[~is_head])
        cells = np.hstack((cells, vals[~is_head].reshape(m, take)))
        est, acc_err = _accelerate(cells)
        total = head_val[rows] + est
        done = acc_err <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        if cells.shape[1] == _MAX_CELLS and not done.all():
            r = np.argmin(done)  # the first row not accepted
            v, e = float(sign[rows[r]] * total[r]), float(acc_err[r])
            raise ToleranceNotMet(
                f"tolerance not met in oscillatory sum (value={v}, err={e})", value=v, error=e
            )
        value[rows[done]] = sign[rows[done]] * total[done]
        error[rows[done]] = acc_err[done] + cell_err[done] + head_err[rows[done]]
        rows, start, cells, cell_err = (x[~done] for x in (rows, start, cells, cell_err))
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
    if not (a < b).all():
        raise ValueError("need finite a < b")
    lo, hi, rows, exponent = _geometric_segments(a, b, _GEOMETRIC_LEVELS, left_exponent)
    vals, errs = _adapt(f, lo, hi, rows, exponent, cfg)
    # bincount adds the panels of each row in segment order
    val, err = (np.bincount(rows, weights=x, minlength=a.size) for x in (vals, errs))
    return _shaped(val, shape), _shaped(err, shape)


def _geometric_segments(a, b, levels, left_exponent):
    """Engine segments (a, b, rows, left exponent) for the panels of each
    [a[r], b[r]] refined toward a[r] over ``levels`` decades, row by row:
    cuts that round to a[r] are dropped, and the left exponent goes with
    the first panel of each row."""
    pts = np.column_stack((a, a[:, None] + (b - a)[:, None] * _DECADES[-levels:], b))
    keep = pts > a[:, None]
    keep[:, 0] = keep[:, -1] = True
    pts, rows = pts[keep], np.repeat(np.arange(a.size), keep.sum(axis=1))
    panel = rows[:-1] == rows[1:]  # consecutive points of one row
    first = np.r_[True, rows[1:] != rows[:-1]][:-1]
    exponent = np.where(first, np.nan if left_exponent is None else left_exponent, np.nan)
    return pts[:-1][panel], pts[1:][panel], rows[:-1][panel], exponent[panel]


def _accelerate(cells):
    """Iterated averaging of the partial sums of alternating cell series,
    one series per row of the array ``cells``.

    Starts a row's averaging table past its cell of largest magnitude (but
    no later than six cells before the end) so that a non-monotone head
    (e.g. a spectral resonance) is summed directly; the reported value and
    error come from the averaging level where the last-column increments are
    smallest.  The last entry of level l reads only the last l + 1 partial
    sums, so the rows share one table and each reads its own levels from
    it.  Every row holds at least one round's 12 cells.  Returns (values,
    errors), one per row.
    """
    k, m = cells.shape
    peak = np.minimum(np.argmax(np.abs(cells), axis=1), max(0, m - 6))
    direct = np.array([math.fsum(c[:p]) for c, p in zip(cells.tolist(), peak.tolist())])
    # -0.0 before the peak: the partial sums from the peak on are the row's own
    level = np.cumsum(np.where(np.arange(m) >= peak[:, None], cells, -0.0), axis=1)
    candidates = [level[:, -1]]
    while level.shape[1] >= 2:
        level = 0.5 * (level[:, :-1] + level[:, 1:])
        candidates.append(level[:, -1])
    candidates = np.column_stack(candidates)
    diffs = np.abs(np.diff(candidates, axis=1))
    diffs[np.arange(m - 1) >= (m - 1 - peak)[:, None]] = np.inf  # past the row's levels
    i, rows = np.argmin(diffs, axis=1), np.arange(k)
    return direct + candidates[rows, i + 1], diffs[rows, i]


def _check_envelope_decay(f, z, half):
    """Probe each row's envelope far beyond its summation range, all rows in
    one call of f.

    The half-period sums converge to the improper integral only when the
    envelope eventually decreases to zero; a persistently growing probe
    sequence violates that precondition.  Local non-monotonicity (e.g. a
    spectral resonance inside the early cells) is tolerated, and so are a row
    whose probe is not finite and an integrand that raises a GleError at the
    probe distances; any other exception propagates.
    """
    multipliers = np.array((1.0, 4.0, 16.0, 64.0, 256.0))
    span = _MAX_CELLS * np.array(half)
    pts = np.array(z)[:, None] + multipliers * span[:, None]
    rows = np.repeat(np.arange(len(z)), multipliers.size).reshape(pts.shape)
    try:
        vals = np.abs(_values(f, pts, rows))
    except GleError:  # e.g. a kernel that cannot be evaluated that far out
        return
    vals = vals[np.isfinite(vals).all(axis=1)]
    growing = np.all(np.diff(vals, axis=1) > 0, axis=1) & (vals[:, -1] > 4.0 * vals[:, 0])
    if growing.any():
        raise OscillationPreconditionError(
            "oscillatory quadrature precondition failed: envelope not decreasing"
        )
