import math
import tracemalloc

import numpy as np
import pytest

from gle_spectra import (
    DivergentTail,
    QuadConfig,
    ToleranceNotMet,
    UnrepresentableError,
    integrate_adaptive,
    integrate_geometric,
    integrate_oscillatory,
    integrate_to_infinity,
)
from gle_spectra import quad
from gle_spectra.quad import _adapt


def test_polynomial():
    val, err = integrate_adaptive(lambda x: x, 0.0, 1.0)
    assert val == pytest.approx(0.5, abs=1e-14)
    assert err < 1e-10


def test_zero_integrand():
    val, err = integrate_adaptive(lambda x: 0.0 * x, 0.0, 1.0)
    assert val == 0.0


def test_endpoint_singularity():
    # antiderivative 2 sqrt(x)
    val, _ = integrate_adaptive(lambda x: x ** -0.5, 0.0, 1.0, left_exponent=-0.5)
    assert val == pytest.approx(2.0, rel=1e-12)
    val, _ = integrate_adaptive(lambda x: x ** -0.5, 0.0, 1.0)
    assert val == pytest.approx(2.0, rel=1e-8)


def test_semi_infinite_exponential():
    val, _ = integrate_to_infinity(lambda u: np.exp(-u), 0.0)
    assert val == pytest.approx(1.0, rel=1e-10)


def test_semi_infinite_power():
    val, _ = integrate_to_infinity(lambda u: u ** -2.0, 1.0)
    assert val == pytest.approx(1.0, rel=1e-10)


def test_oscillatory_mean_decay():
    # (1 - cos u)/u^2 decays only in oscillatory mean: a geometric head, then
    # 1/u^2 and cos(u)/u^2 separately over the rest, as msd_x splits it
    u0 = 0.5 * math.pi
    head, _ = integrate_geometric(lambda u: 2.0 * np.sin(0.5 * u) ** 2 / u ** 2, 0.0, u0)
    flat, _ = integrate_to_infinity(lambda u: 1.0 / u ** 2, u0)
    osc, _ = integrate_oscillatory(lambda u: 1.0 / u ** 2, 1.0, "cos", u0)
    assert head + flat - osc == pytest.approx(0.5 * math.pi, rel=1e-7)


def test_divergent_tail_detected():
    with pytest.raises(DivergentTail):
        integrate_to_infinity(lambda u: 1.0 / (1.0 + u), 0.0)


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
def test_divergent_tail_raises_before_subdividing(p):
    calls = []

    def f(u):
        calls.append(u.size)
        return (1.0 + u) ** -p

    with pytest.raises(DivergentTail):
        integrate_to_infinity(f, 0.0)
    assert calls == [2]  # the tail probe alone


@pytest.mark.parametrize("p", [1.05, 1.1])
def test_slow_tail_is_in_the_error(p):
    # the fold stops near w = 9e15; what lies past it is 3.0 and 0.25 here,
    # far above the tolerance, so the result may not come back as converged
    try:
        val, err = integrate_to_infinity(lambda u: (1.0 + u) ** -p, 0.0)
    except ToleranceNotMet as exc:
        val, err = exc.value, exc.error
    assert abs(val - 1.0 / (p - 1.0)) <= err


def test_fast_tail_unchanged():
    val, err = integrate_to_infinity(lambda u: (1.0 + u) ** -2.0, 0.0)
    assert val == pytest.approx(1.0, rel=1e-13)
    assert err < 1e-12


def test_tolerance_not_met_carries_estimate():
    cfg = QuadConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=4)
    with pytest.raises(ToleranceNotMet) as ei:
        integrate_adaptive(lambda x: np.exp(np.sin(40.0 * x)) * x ** -0.49, 0.0, 1.0, cfg)
    assert ei.value.value is not None
    assert np.isfinite(ei.value.value)


@pytest.mark.parametrize(
    "phase,expected",
    [("cos", 0.5), ("sin", 0.5)],  # Int e^-t {cos,sin}(t) dt = 1/(1+w^2), w/(1+w^2) at w=1
)
def test_oscillatory_exponential(phase, expected):
    val, err = integrate_oscillatory(lambda t: np.exp(-t), 1.0, phase, 0.0)
    assert val == pytest.approx(expected, rel=1e-10)


def test_oscillatory_fresnel_type():
    # Int t^-1/2 cos t dt = sqrt(pi/2), conditional convergence only
    val, _ = integrate_oscillatory(lambda t: t ** -0.5, 1.0, "cos", 0.0, left_exponent=-0.5)
    assert val == pytest.approx(math.sqrt(math.pi / 2.0), rel=2e-8)


def test_oscillatory_against_truncated_trapezoid():
    # integrable envelope: brute-force fine-grid trapezoid on [0, 1e4]
    env = lambda t: 1.0 / (1.0 + t) ** 1.5
    val, _ = integrate_oscillatory(env, 2.0, "cos", 0.0)
    t = np.linspace(0.0, 1e4, 4_000_001)
    brute = np.trapezoid(env(t) * np.cos(2.0 * t), t)
    assert val == pytest.approx(brute, abs=1e-5)


def test_oscillatory_precondition_failure():
    from gle_spectra import OscillationPreconditionError

    with pytest.raises((OscillationPreconditionError, ToleranceNotMet, DivergentTail)):
        integrate_oscillatory(lambda t: 1.0 + t / (1.0 + 0.0 * t), 1.0, "cos", 0.0)


def _exp_raising_past(limit, error):
    # e^-t, raising where the envelope probe looks (t from 400 pi at w = 1)
    # and never where the half-period sums go
    def env(t):
        if np.any(np.asarray(t) > limit):
            raise error("not evaluated that far out")
        return np.exp(-t)

    return env


def test_envelope_probe_propagates_programming_errors():
    with pytest.raises(RuntimeError, match="that far out"):
        integrate_oscillatory(_exp_raising_past(2000.0, RuntimeError), 1.0, "cos", 0.0)


def test_envelope_probe_skips_typed_errors():
    from gle_spectra import KernelDomainError

    val, _ = integrate_oscillatory(_exp_raising_past(2000.0, KernelDomainError), 1.0, "cos", 0.0)
    assert val == pytest.approx(0.5, rel=1e-10)


def test_linearity(rng):
    f = lambda x: np.exp(-x) * np.sin(3.0 * x)
    g = lambda x: 1.0 / (1.0 + x * x)
    a, b = rng.normal(size=2)
    lhs, _ = integrate_adaptive(lambda x: a * f(x) + b * g(x), 0.0, 5.0)
    f1, _ = integrate_adaptive(f, 0.0, 5.0)
    g1, _ = integrate_adaptive(g, 0.0, 5.0)
    assert lhs == pytest.approx(a * f1 + b * g1, rel=1e-9, abs=1e-12)


def test_interval_additivity(rng):
    f = lambda x: np.cos(x) * np.exp(-0.3 * x)
    for _ in range(5):
        a, c = np.sort(rng.uniform(0.0, 10.0, size=2))
        b = 0.5 * (a + c)
        whole, _ = integrate_adaptive(f, a, c)
        left, _ = integrate_adaptive(f, a, b)
        right, _ = integrate_adaptive(f, b, c)
        assert whole == pytest.approx(left + right, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: integrate_adaptive(lambda x: np.full_like(x, np.nan), np.float64(0), np.float64(1)),
        lambda: integrate_to_infinity(lambda u: 1.0 / (1.0 + u), 0.0),
        lambda: integrate_oscillatory(
            lambda t: 1.0 / (1.0 + t) ** 0.05, 1.0, "sin", 0.0,
            QuadConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=50),
        ),
    ],
)
def test_error_messages_print_plain_floats(call):
    with pytest.raises((ToleranceNotMet, DivergentTail)) as ei:
        call()
    assert "np.float64" not in str(ei.value)


def test_substitution_underflow_is_unrepresentable():
    # u**1000 underflows at the first Kronrod nodes, so w = 0 + u**1000 would
    # hit the singular endpoint
    seen = []

    def f(x):
        seen.append(x.min())
        return x ** -0.999

    with pytest.raises(UnrepresentableError, match="-0.999"):
        integrate_adaptive(f, 0.0, 1.0, left_exponent=-0.999)
    assert seen == []


def test_geometric_equals_panels_integrated_alone():
    f = lambda x: x ** -0.7 * np.exp(-x) * np.cos(3.0 * x)
    a, b = 0.0, 5.0
    pts = [a] + [a + (b - a) * 10.0 ** -k for k in range(10, 0, -1)] + [b]
    alone = [
        integrate_adaptive(f, lo, hi, left_exponent=-0.7 if i == 0 else None)
        for i, (lo, hi) in enumerate(zip(pts[:-1], pts[1:]))
    ]
    val, err = integrate_geometric(f, a, b, left_exponent=-0.7)
    assert val == pytest.approx(sum(v for v, _ in alone), rel=1e-14)
    assert err == pytest.approx(sum(e for _, e in alone), rel=1e-6)


def test_segment_budget_is_its_own():
    # the smooth segment converges at once; the rough one exhausts its four
    # subdivisions and raises with its own estimate, as it does alone
    f = lambda x: np.where(x < 1.0, 1.0 + x, np.exp(np.sin(40.0 * x)) * np.abs(x - 1.0) ** -0.49)
    cfg = QuadConfig(rel_tol=1e-10, abs_tol=1e-300, max_subdivisions=4)
    with pytest.raises(ToleranceNotMet) as alone:
        integrate_adaptive(f, 1.0, 2.0, cfg)
    with pytest.raises(ToleranceNotMet) as batch:
        _adapt(f, np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.zeros(2, int),
               np.full(2, np.nan), cfg)
    assert batch.value.value == alone.value.value
    assert batch.value.error == alone.value.error


def test_segment_out_of_budget_in_batch():
    # the convergent x**-0.5 on [0, 1] uses up its 50 subdivisions: a
    # batch raises ToleranceNotMet with the value the segment has alone
    f = lambda x: x ** -0.5
    cfg = QuadConfig(max_subdivisions=50)
    with pytest.raises(ToleranceNotMet) as alone:
        integrate_adaptive(f, 0.0, 1.0, cfg)
    with pytest.raises(ToleranceNotMet) as batch:
        _adapt(f, np.array([1.0, 0.0]), np.array([2.0, 1.0]), np.zeros(2, int),
               np.full(2, np.nan), cfg)
    assert batch.value.value == alone.value.value
    assert batch.value.error == alone.value.error


def test_nan_names_its_segment():
    f = lambda x: np.where(x > 2.0, np.nan, 1.0)
    with pytest.raises(ToleranceNotMet) as ei:
        _adapt(f, np.arange(3.0), np.arange(1.0, 4.0), np.zeros(3, int), np.full(3, np.nan),
               QuadConfig())
    lo, hi = map(float, str(ei.value).split("(")[1].rstrip(")").split(","))
    assert 2.0 <= lo < hi <= 3.0


def test_oscillatory_head_and_first_cells_share_one_call():
    sizes = []

    def env(t):
        sizes.append(t.size)
        return np.exp(-t)

    val, _ = integrate_oscillatory(env, 1.0, "cos", 0.0)
    assert val == pytest.approx(0.5, rel=1e-10)
    # sizes[0] is the envelope-decay probe; the head over [0, pi/2) is nine
    # geometric panels, then come twelve half-periods, fifteen nodes each.
    # Every segment meets its tolerance on that first pass.
    assert sizes == [5, (9 + 12) * 15]


def _accelerate_alone(cells):
    """Reference accelerator of one series, a list of cells: quad._accelerate
    gives each row of its array these bits."""
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
    i = int(np.argmin(diffs))
    return direct + float(candidates[i + 1]), float(diffs[i])


@pytest.mark.parametrize("m", [12, 13, 37, 400])
def test_accelerate_rows_equal_one_row_calls(m):
    # alternating decaying series whose largest cell is first, in the middle,
    # last, and either side of the clip at m - 6, and rows with no planted peak
    rng = np.random.default_rng(m)
    k = np.arange(m)
    decay = (1.0 + k) ** rng.uniform(0.5, 2.0, (9, 1))
    cells = rng.normal(1.0, 0.3, size=(9, m)) * (-1.0) ** k / decay
    for r, at in enumerate((0, m // 2, m - 1, m - 7, m - 6, m - 5)):
        cells[r, at] = 20.0 * (-1.0) ** at
    values, errors = quad._accelerate(cells)
    alone = [_accelerate_alone(row) for row in cells.tolist()]
    assert values.tolist() == [v for v, _ in alone]
    assert errors.tolist() == [e for _, e in alone]


@pytest.mark.parametrize("call", [
    lambda f: integrate_adaptive(f, 0.0, np.inf),
    lambda f: integrate_adaptive(f, np.array([0.0, np.nan]), 1.0),
    lambda f: integrate_to_infinity(f, np.inf),
    lambda f: integrate_to_infinity(f, np.array([1.0, np.nan])),
    lambda f: integrate_to_infinity(f, 0.0, split=np.inf),
    lambda f: integrate_geometric(f, 0.0, np.inf),
    lambda f: integrate_geometric(f, np.nan, 1.0),
    lambda f: integrate_oscillatory(f, np.inf, "cos", 0.0),
    lambda f: integrate_oscillatory(f, np.array([1.0, np.nan]), "sin", 0.0),
    lambda f: integrate_oscillatory(f, 1.0, "cos", np.inf),
    lambda f: integrate_oscillatory(f, 1.0, "sin", -np.inf),
])
def test_non_finite_rows_rejected(call):
    # every entry point refuses a non-finite limit or frequency before it
    # evaluates the integrand
    seen = []

    def f(x):
        seen.append(x.size)
        return np.exp(-np.abs(x))

    with pytest.raises(ValueError, match="must be finite"):
        call(f)
    assert seen == []


@pytest.mark.parametrize("a, b, exponent", [
    (1.0, 0.0, None), (1.0, 0.0, -0.5), (1.0, 1.0, None), (np.array([0.0, 2.0]), 1.0, None),
], ids=["reversed", "reversed-substituted", "equal", "one-row-reversed"])
def test_geometric_limits_must_increase(a, b, exponent):
    # reversed limits gave the negated integral with a zero error estimate,
    # or, under the substitution, a TypeError from a complex power
    seen = []

    def f(x):
        seen.append(x.size)
        return np.exp(-x)

    with pytest.raises(ValueError, match="need finite a < b"):
        integrate_geometric(f, a, b, left_exponent=exponent)
    assert seen == []


def test_oscillatory_rows_keep_only_open_cells():
    # 4000 rows of (1 + t)^-2: the cells of a row are dropped once it closes
    w = np.geomspace(1e-2, 1e2, 4000)
    tracemalloc.start()
    try:
        vals, _ = integrate_oscillatory(lambda t: (1.0 + t) ** -2.0, w, "cos", 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 63.9 * 2**20
    assert vals[-1] == pytest.approx(2e-4 - 2.4e-7, rel=1e-5)  # -f'(0)/w^2 + f'''(0)/w^4


@pytest.fixture
def accelerated(monkeypatch):
    """Numbers of cells per row quad._accelerate is called on."""
    seen = []
    accelerate = quad._accelerate

    def counted(cells):
        seen.append(cells.shape[1])
        return accelerate(cells)

    monkeypatch.setattr(quad, "_accelerate", counted)
    return seen


def test_oscillatory_accelerates_once_per_batch(accelerated):
    # t^-1/2 cos t needs several rounds; the averaging table is built once per
    # round, over every half-period summed so far
    integrate_oscillatory(lambda t: t ** -0.5, 1.0, "cos", 0.0, left_exponent=-0.5)
    assert len(accelerated) > 1
    assert accelerated == [12 * (i + 1) for i in range(len(accelerated))]


def test_oscillatory_cell_cap(accelerated):
    # cos^2 t/(1 + t)^2 has positive half-period cells falling off like 1/k^2,
    # which averaging does not speed up: the sum gives up at 400 cells
    with pytest.raises(ToleranceNotMet, match="oscillatory sum") as ei:
        integrate_oscillatory(lambda t: np.cos(t) / (1.0 + t) ** 2, 1.0, "cos", 0.0)
    assert accelerated[-2:] == [396, 400]
    assert np.isfinite(ei.value.value) and np.isfinite(ei.value.error)


def test_rows_equal_one_row_calls():
    # each row's integrand reads its parameter through the rows of its nodes
    scales = np.array([0.5, 1.0, 3.0])

    def batched(x):
        return np.exp(-scales[x.rows] * x) * x ** -0.3

    def alone(s):
        return lambda x: np.exp(-s * x) * x ** -0.3

    lo, hi = np.zeros(3), np.full(3, 2.0)
    vals, errs = integrate_geometric(batched, lo, hi, left_exponent=-0.3)
    assert vals.tolist() == [integrate_geometric(alone(s), 0.0, 2.0, left_exponent=-0.3)[0] for s in scales]
    vals, _ = integrate_to_infinity(batched, hi)
    assert vals.tolist() == [integrate_to_infinity(alone(s), 2.0)[0] for s in scales]
    ends = np.array([1.0, 2.0, 4.0])
    vals, _ = integrate_adaptive(batched, lo, ends, left_exponent=-0.3)
    assert vals.tolist() == [
        integrate_adaptive(alone(s), 0.0, e, left_exponent=-0.3)[0] for s, e in zip(scales, ends)
    ]
    freqs = np.array([0.7, -2.0, 5.0])
    vals, _ = integrate_oscillatory(batched, freqs, "sin", 0.0, left_exponent=-0.3)
    assert vals.tolist() == [
        integrate_oscillatory(alone(s), w, "sin", 0.0, left_exponent=-0.3)[0]
        for s, w in zip(scales, freqs)
    ]


def test_rows_share_one_probe_and_one_call_per_round():
    sizes = []

    def env(t):
        sizes.append(t.size)
        return np.exp(-t)

    vals, _ = integrate_oscillatory(env, np.array([1.0, 2.0]), "cos", 0.0)
    assert vals == pytest.approx([0.5, 0.2], rel=1e-10)
    # the envelope probe of both rows, then one call for both heads (nine
    # panels each) and their first twelve half-periods
    assert sizes[:2] == [2 * 5, 2 * (9 + 12) * 15]


def test_failing_row_raises_its_own_error():
    # the second row has positive cells that averaging cannot speed up; it
    # raises at 400 cells with the estimate it has alone, while the first row
    # converged in its first round
    def env(t):
        return np.where(t.rows == 1, np.cos(t) / (1.0 + t) ** 2, np.exp(-t))

    with pytest.raises(ToleranceNotMet) as batch:
        integrate_oscillatory(env, np.ones(2), "cos", 0.0)
    with pytest.raises(ToleranceNotMet) as alone:
        integrate_oscillatory(lambda t: np.cos(t) / (1.0 + t) ** 2, 1.0, "cos", 0.0)
    assert batch.value.value == alone.value.value
    assert batch.value.error == alone.value.error


def _bits(*arrays):
    return [np.asarray(x, dtype=float).tolist() for x in arrays]


@pytest.mark.parametrize("exponent", [None, -0.3])
def test_mixed_phases_equal_one_phase_calls(exponent):
    # each row keeps its own zero, head, cells and averaging levels, so a
    # call that mixes phases gives every row its one-phase value and error
    scales = np.array([0.5, 1.0, 3.0, 0.8, 2.0])
    freqs = np.array([0.7, -2.0, 5.0, -0.3, 1.1])
    phases = np.array(["cos", "sin", "sin", "cos", "sin"])
    starts = np.array([0.0, 0.0, 0.4, 0.0, 2.5])

    def batched(t):
        return np.exp(-scales[t.rows] * t) * t ** -0.3

    vals, errs = integrate_oscillatory(batched, freqs, phases, starts, left_exponent=exponent)
    alone = [
        integrate_oscillatory(
            lambda t, s=s: np.exp(-s * t) * t ** -0.3, w, ph, a, left_exponent=exponent
        )
        for s, w, ph, a in zip(scales, freqs, phases, starts)
    ]
    assert _bits(vals, errs) == _bits([v for v, _ in alone], [e for _, e in alone])


def test_phases_broadcast_with_the_rows():
    # one phase a column of a 2-D grid, as the frequencies broadcast
    env = lambda t: (1.0 + t) ** -2.0
    freqs = np.array([[0.5], [-4.0]])
    vals, errs = integrate_oscillatory(env, freqs, np.array(["sin", "cos", "sin"]), 0.0)
    assert vals.shape == errs.shape == (2, 3)
    for i, w in enumerate(freqs[:, 0]):
        for j, ph in enumerate(("sin", "cos", "sin")):
            v, e = integrate_oscillatory(env, w, ph, 0.0)
            assert (vals[i, j], errs[i, j]) == (v, e)


@pytest.mark.parametrize("phase", ["tan", np.array(["cos", "tan"]), None])
def test_unknown_phase_rejected(phase):
    with pytest.raises(ValueError, match="phase must be"):
        integrate_oscillatory(lambda t: np.exp(-t), np.ones(2), phase, 0.0)


@pytest.mark.parametrize("starts, exponent", [([0.0, 1.0, 0.0], None), ([0.0, 0.0, 0.0], -0.4)])
def test_split_equals_head_plus_folded_tail(starts, exponent):
    # geometric panels on [a, b] and the fold past b in one engine run: each
    # row's value and error are those of the two calls added, bit for bit
    scales, starts = np.array([0.5, 1.0, 3.0]), np.array(starts)
    shift = 1.0 if exponent is None else 0.0  # singular at a under the substitution

    def batched(x):
        return (x - starts[x.rows] + shift) ** -0.4 / (1.0 + scales[x.rows] * x) ** 2

    cuts = np.array([2.0, 3.5, 0.25])
    vals, errs = integrate_to_infinity(batched, starts, split=cuts, left_exponent=exponent)
    head, e_head = integrate_geometric(batched, starts, cuts, left_exponent=exponent)
    tail, e_tail = integrate_to_infinity(batched, cuts)
    assert _bits(vals, errs) == _bits(head + tail, e_head + e_tail)
    val, err = integrate_to_infinity(lambda x: np.exp(-x), 0.0, split=1.5)
    head, e_head = integrate_geometric(lambda x: np.exp(-x), 0.0, 1.5)
    tail, e_tail = integrate_to_infinity(lambda x: np.exp(-x), 1.5)
    assert (val, err) == (head + tail, e_head + e_tail)


def test_split_runs_head_and_tail_together():
    # the engine rounds of head and fold are shared: one call of f a round,
    # after the tail probe, as many as the longer of the two alone needs
    def counted(seen):
        def f(x):
            seen.append(x.size)
            return x ** -0.5 / (1.0 + x) ** 2
        return f

    together, head, tail = [], [], []
    integrate_to_infinity(counted(together), 0.0, split=3.0, left_exponent=-0.5)
    integrate_geometric(counted(head), 0.0, 3.0, left_exponent=-0.5)
    integrate_to_infinity(counted(tail), 3.0)
    assert together[0] == tail[0] == 2  # the tail probe comes first
    assert len(together) == max(len(head), len(tail) - 1) + 1
    assert sum(together) == sum(head) + sum(tail)


def test_head_substitution_checked_before_the_tail_probe():
    # w = u**1000 underflows at the head's first nodes: that is reported
    # before the tail is probed, even where the tail diverges
    seen = []

    def f(x):
        seen.append(x.size)
        return 1.0 / (1.0 + x)

    with pytest.raises(UnrepresentableError, match="-0.999"):
        integrate_to_infinity(f, 0.0, split=1.0, left_exponent=-0.999)
    assert seen == []
    with pytest.raises(DivergentTail):
        integrate_to_infinity(f, 0.0, split=1.0, left_exponent=-0.5)
    assert seen == [2]  # the tail probe alone


def test_split_must_lie_past_the_start():
    seen = []

    def f(x):
        seen.append(x.size)
        return np.exp(-x)

    for split in (1.0, 0.5, np.array([2.0, 1.0])):
        with pytest.raises(ValueError, match="need finite a < split"):
            integrate_to_infinity(f, 1.0, split=split)
    assert seen == []
