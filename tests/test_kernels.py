import math

import mpmath as mp
import numpy as np
import pytest

from gle_spectra import (
    BernsteinMeasure,
    Cauchy,
    ExpMixture,
    Gaussian,
    GeneralizedRouse,
    GleParams,
    KernelDomainError,
    OnePlusTInverse,
    PowerLaw,
    TailClass,
    bernstein_of,
    kernel_eval,
    kernel_tail_class,
    parse_kernel_spec,
    validate_kernel,
)
from gle_spectra.transforms import kcos_ksin_grid

ALL_PRESETS = (
    PowerLaw(0.3),
    PowerLaw(0.5),
    PowerLaw(0.7),
    GeneralizedRouse((1.0, 2.0, 4.0)),
    Gaussian(1.0),
    Cauchy(1.0, 1.0),
    Cauchy(0.25, 1.0),
    OnePlusTInverse(),
)


def test_eval_examples():
    assert kernel_eval(PowerLaw(0.5), 4.0) == pytest.approx(0.5)
    assert kernel_eval(GeneralizedRouse((1.0,)), 0.0) == pytest.approx(1.0)
    assert kernel_eval(Gaussian(1.0), 0.0) == pytest.approx(1.0)
    assert kernel_eval(Cauchy(1.0, 1.0), 1.0) == pytest.approx(0.5)
    assert kernel_eval(OnePlusTInverse(), 3.0) == pytest.approx(0.25)


def test_powerlaw_singular_at_origin():
    with pytest.raises(KernelDomainError):
        kernel_eval(PowerLaw(0.5), 0.0)


@pytest.mark.parametrize("kernel", ALL_PRESETS, ids=str)
def test_symmetry_and_positivity(kernel, rng):
    # stay below the range where gaussian-type kernels underflow to 0.0
    t = rng.uniform(0.01, 8.0, 200)
    plus = kernel_eval(kernel, t)
    minus = kernel_eval(kernel, -t)
    assert np.array_equal(plus, minus)
    assert np.all(plus > 0)


def test_tail_classes():
    assert kernel_tail_class(PowerLaw(0.3)) == TailClass("powerlaw", alpha=0.3, constant=1.0)
    assert kernel_tail_class(GeneralizedRouse((1.0, 2.0))).kind == "integrable"
    assert kernel_tail_class(OnePlusTInverse()) == TailClass("critical", constant=1.0)
    assert kernel_tail_class(Gaussian(2.0)).kind == "integrable"
    # tail of (1 + (t/s)^2)^-a is s^2a t^-2a
    assert kernel_tail_class(Cauchy(1.0, 1.0)).kind == "integrable"
    tc = kernel_tail_class(Cauchy(0.25, 2.0))
    assert tc.kind == "powerlaw" and tc.alpha == 0.5
    assert tc.constant == pytest.approx(2.0 ** 0.5)  # s^2a with s=2, a=1/4
    assert kernel_tail_class(Cauchy(0.5, 1.5)).kind == "critical"


@pytest.mark.parametrize(
    "kernel,exponent,shape",
    [
        (GeneralizedRouse((1.0, 2.0)), 0.0, lambda w: 1.0),
        (Gaussian(2.0), 0.0, lambda w: 1.0),
        (OnePlusTInverse(), 0.0, lambda w: abs(math.log(w))),
        (Cauchy(0.5, 1.5), 0.0, lambda w: abs(math.log(w))),
        (PowerLaw(0.3), 0.3 - 1.0, lambda w: w ** (0.3 - 1.0)),
        (Cauchy(0.25, 2.0), 0.5 - 1.0, lambda w: w ** -0.5),
    ],
    ids=["rouse", "gaussian", "one-plus-t-inverse", "cauchy-critical", "powerlaw",
         "cauchy-powerlaw"],
)
def test_tail_class_small_frequency_law(kernel, exponent, shape):
    tc = kernel_tail_class(kernel)
    assert tc.exponent == exponent
    for w in (1e-6, 1e-3, 0.5, -1e-3):
        assert tc.shape(w) == shape(abs(w))


def test_tail_constants_at_large_time():
    t = 1e6
    for a in (0.3, 0.5, 0.7):
        tc = kernel_tail_class(PowerLaw(a))
        assert abs(t ** a * kernel_eval(PowerLaw(a), t) / tc.constant - 1.0) < 1e-3
    assert abs(t * kernel_eval(OnePlusTInverse(), t) - 1.0) < 1e-3


def test_bernstein_examples():
    m = bernstein_of(GeneralizedRouse((1.0, 2.0, 4.0)))
    assert m.atoms == ((1.0, 1.0 / 3.0), (0.5, 1.0 / 3.0), (0.25, 1.0 / 3.0))
    g = bernstein_of(Gaussian(1.0))
    assert g.atoms == ((1.0, 1.0),) and g.measure_of == "phi"


def test_bernstein_powerlaw_density_against_quadrature_oracle():
    # density x^(a-1)/Gamma(a): high-precision Laplace-transform oracle,
    # regularized with x = s^2 so tanh-sinh sees a smooth integrand
    a = 0.5
    for t in (0.5, 1.0, 10.0):
        oracle = float(
            mp.quad(
                lambda s: 2 * mp.e ** (-t * s * s) * s ** (2 * a - 1) / mp.gamma(a),
                [0, mp.inf],
            )
        )
        assert oracle == pytest.approx(t ** -a, rel=1e-12)
        assert bernstein_of(PowerLaw(a)).laplace(t) == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize(
    "kernel",
    [k for k in ALL_PRESETS if not isinstance(k, (Gaussian, Cauchy))],
    ids=str,
)
def test_bernstein_reproduces_cm_kernel(kernel):
    m = bernstein_of(kernel)
    t = np.geomspace(1e-2, 1e2, 25)
    rel = np.abs(m.laplace(t) / kernel_eval(kernel, t) - 1.0)
    assert rel.max() < 1e-8


@pytest.mark.parametrize("kernel", [Gaussian(1.0), Gaussian(0.3), Cauchy(1.0, 1.0), Cauchy(0.25, 2.0)], ids=str)
def test_bernstein_reproduces_phi_kernel(kernel):
    m = bernstein_of(kernel)
    assert m.measure_of == "phi"
    # capped where exp(-scale t^2) stays representable
    t = np.geomspace(1e-2, 20.0, 25)
    rel = np.abs(m.laplace(t * t) / kernel_eval(kernel, t) - 1.0)
    assert rel.max() < 1e-8


@pytest.mark.parametrize("kernel", ALL_PRESETS, ids=str)
def test_bernstein_finiteness_integrals(kernel):
    m = bernstein_of(kernel)
    fin = m.finiteness()
    assert all(np.isfinite(v) for v in fin.values())
    assert fin["mass_below_1"] >= 0


def test_no_atom_at_origin():
    with pytest.raises(ValueError):
        BernsteinMeasure(atoms=((0.0, 1.0),))
    with pytest.raises(ValueError):
        BernsteinMeasure(atoms=((1.0, -1.0),))


def test_expmix_roundtrip():
    m = BernsteinMeasure(atoms=((2.0, 0.25), (0.5, 0.75)))
    k = ExpMixture(m)
    t = np.linspace(0.0, 5.0, 11)
    expected = 0.25 * np.exp(-2.0 * t) + 0.75 * np.exp(-0.5 * t)
    assert np.allclose(kernel_eval(k, t), expected, rtol=1e-14)
    assert k.integral() == pytest.approx(0.25 / 2.0 + 0.75 / 0.5)


def test_validate_kernel_presets():
    grid = np.geomspace(0.1, 100.0, 40)
    for kernel in (PowerLaw(0.5), Cauchy(1.0, 1.0)):
        report = validate_kernel(kernel, grid)
        assert report.ok, report.checks


@pytest.mark.parametrize("alpha", [0.9, 0.99])
def test_validate_kernel_near_critical_powerlaw(alpha):
    # the cosine transform takes the kernel's origin exponent, as the
    # numeric route does, and meets the closed form
    kernel = PowerLaw(alpha)
    report = validate_kernel(kernel, np.geomspace(0.1, 100.0, 25))
    passed, detail = report.checks["kcos_positive"]
    assert passed and report.ok, detail
    kcos, _ = kcos_ksin_grid(kernel, np.array([0.5, 2.0, 20.0]))
    assert detail == "; ".join(f"omega={w:g}: {k:.3e}" for w, k in zip((0.5, 2, 20), kcos))


def test_validate_kernel_adversarial_negative_sample():
    grid = np.geomspace(0.1, 100.0, 40)
    dip = lambda t: 1.0 / (1.0 + np.abs(t)) - 0.6 * np.exp(-((np.abs(t) - 5.0) ** 2))
    report = validate_kernel(dip, grid)
    assert not report.checks["positivity"][0]
    assert not report.ok


def test_validate_kernel_rejects_bad_grid():
    with pytest.raises(ValueError):
        validate_kernel(PowerLaw(0.5), np.array([1.0, 0.5, 2.0]))


def test_params_validation():
    with pytest.raises(ValueError):
        GleParams(m=-1.0)
    with pytest.raises(ValueError):
        GleParams(beta=0.0)
    with pytest.raises(ValueError):
        GleParams(gamma=-0.1)
    assert GleParams(gamma=0.0).trapped is False
    assert GleParams(gamma=2.0).trapped is True


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["m", "lam", "beta", "gamma", "kbt"])
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match="must be finite"):
        GleParams(**{name: value})


def test_kernel_spec_grammar(tmp_path):
    assert parse_kernel_spec("powerlaw:0.5") == PowerLaw(0.5)
    assert parse_kernel_spec("rouse:1,2,4") == GeneralizedRouse((1.0, 2.0, 4.0))
    assert parse_kernel_spec("rouse:[1,2,4]") == GeneralizedRouse((1.0, 2.0, 4.0))
    assert parse_kernel_spec("gaussian:1") == Gaussian(1.0)
    assert parse_kernel_spec("cauchy:1,1") == Cauchy(1.0, 1.0)
    assert parse_kernel_spec("one-plus-t-inverse") == OnePlusTInverse()
    atoms = tmp_path / "atoms.json"
    atoms.write_text("[[1.0, 0.5], [2.0, 0.5]]")
    k = parse_kernel_spec(f"expmix:@{atoms}")
    assert k.measure.atoms == ((1.0, 0.5), (2.0, 0.5))
    for bad in ("powerlaw:1.5", "cauchy:1", "nope:1", "one-plus-t"):
        with pytest.raises(ValueError):
            parse_kernel_spec(bad)


def test_round_trip_spec():
    for kernel in (PowerLaw(0.5), GeneralizedRouse((1.0, 2.0)), Gaussian(2.0), Cauchy(1.0, 3.0), OnePlusTInverse()):
        assert parse_kernel_spec(kernel.spec()) == kernel
