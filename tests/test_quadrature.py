import math

import numpy as np
import pytest

from gle_spectra import (
    DivergentTail,
    QuadConfig,
    ToleranceNotMet,
    integrate_adaptive,
    integrate_oscillatory,
    integrate_to_infinity,
)

OSC_CFG = QuadConfig(oscillation_mode="split_at_zeros")


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
    val, _ = integrate_to_infinity(lambda u: 2.0 * np.sin(0.5 * u) ** 2 / u ** 2, 0.0, OSC_CFG)
    assert val == pytest.approx(0.5 * math.pi, rel=1e-7)


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
        lambda: integrate_to_infinity(
            lambda u: np.cos(u) / (1.0 + u) ** 0.3,
            0.0,
            QuadConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=50,
                       oscillation_mode="split_at_zeros"),
        ),
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
