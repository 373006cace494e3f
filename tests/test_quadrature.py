import math

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
        _adapt(f, [(0.0, 1.0, None), (1.0, 2.0, None)], cfg)
    assert batch.value.value == alone.value.value
    assert batch.value.error == alone.value.error


def test_segment_divergent_tail_in_batch():
    cfg = QuadConfig(max_subdivisions=50)
    with pytest.raises(DivergentTail):
        _adapt(lambda x: 1.0 / x, [(1.0, 2.0, None), (0.0, 1.0, None)], cfg)


def test_nan_names_its_segment():
    f = lambda x: np.where(x > 2.0, np.nan, 1.0)
    with pytest.raises(ToleranceNotMet) as ei:
        _adapt(f, [(0.0, 1.0, None), (1.0, 2.0, None), (2.0, 3.0, None)], QuadConfig())
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


@pytest.fixture
def accelerated(monkeypatch):
    """Lengths of the cell lists quad._accelerate is called on."""
    seen = []
    accelerate = quad._accelerate

    def counted(cells):
        seen.append(len(cells))
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
