import hashlib
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
    kernel_eval,
    parse_kernel_spec,
    validate_kernel,
)
from gle_spectra.kernels import _log_panels
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
    assert PowerLaw(0.3).tail_class() == TailClass("powerlaw", alpha=0.3, constant=1.0)
    assert GeneralizedRouse((1.0, 2.0)).tail_class().kind == "integrable"
    assert OnePlusTInverse().tail_class() == TailClass("critical", constant=1.0)
    assert Gaussian(2.0).tail_class().kind == "integrable"
    # tail of (1 + (t/s)^2)^-a is s^2a t^-2a
    assert Cauchy(1.0, 1.0).tail_class().kind == "integrable"
    tc = Cauchy(0.25, 2.0).tail_class()
    assert tc.kind == "powerlaw" and tc.alpha == 0.5
    assert tc.constant == pytest.approx(2.0 ** 0.5)  # s^2a with s=2, a=1/4
    assert Cauchy(0.5, 1.5).tail_class().kind == "critical"


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
    tc = kernel.tail_class()
    assert tc.exponent == exponent
    for w in (1e-6, 1e-3, 0.5, -1e-3):
        assert tc.shape(w) == shape(abs(w))


def test_tail_constants_at_large_time():
    t = 1e6
    for a in (0.3, 0.5, 0.7):
        tc = PowerLaw(a).tail_class()
        assert abs(t ** a * kernel_eval(PowerLaw(a), t) / tc.constant - 1.0) < 1e-3
    assert abs(t * kernel_eval(OnePlusTInverse(), t) - 1.0) < 1e-3


def test_bernstein_examples():
    m = GeneralizedRouse((1.0, 2.0, 4.0)).bernstein()
    assert m.atoms == ((1.0, 1.0 / 3.0), (0.5, 1.0 / 3.0), (0.25, 1.0 / 3.0))
    g = Gaussian(1.0).bernstein()
    assert g.atoms == ((1.0, 1.0),) and g.measure_of == "phi"


def test_rouse_is_the_exp_mixture_of_its_relaxation_times():
    k = GeneralizedRouse((1, 2))
    assert isinstance(k, ExpMixture)
    same = GeneralizedRouse((1.0, 2.0))
    assert k == same and hash(k) == hash(same)
    assert k != ExpMixture(k.measure)
    assert k.bernstein() is k.bernstein()
    assert k.measure.atoms == ((1.0, 0.5), (0.5, 0.5))


@pytest.mark.parametrize(
    "taus, total",
    [
        ((1.0,), 1.0),
        ((3.0,), 3.0),
        ((0.7,), 0.7),
        ((1.0, 2.0), 1.5),
        ((3.0, 7.0), 5.0),
        ((1.0, 2.0, 4.0, 8.0), 3.75),
        # one ulp below mean(tau) = 7/3
        ((1.0, 2.0, 4.0), float.fromhex("0x1.2aaaaaaaaaaaap+1")),
    ],
)
def test_rouse_integral_is_the_atom_sum(taus, total):
    # Int K = sum w/x over the atoms (1/tau, 1/N), also at omega = 0
    k = GeneralizedRouse(taus)
    kcos, ksin = kcos_ksin_grid(k, np.array([0.0]))
    assert k.integral() == kcos[0] == total and ksin[0] == 0.0


# size and sha-256 prefixes of the nodes and weights of each density's panels
LOG_PANELS = {
    "powerlaw:0.5": (1344, "cb8796b26eb844ba", "e88cbf4ab07db7ed"),
    "cauchy:1,1": (408, "2a626e96541d8ab2", "f7eba766d33c0ef3"),
    "one-plus-t-inverse": (456, "760ab4aa2a9bb88e", "34f43cbbf493853c"),
}


@pytest.mark.parametrize("spec", sorted(LOG_PANELS))
def test_log_panels_bitwise(spec):
    m = parse_kernel_spec(spec).bernstein()
    x, w = _log_panels(m.x_lo, m.x_hi)
    digest = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in (x, w))
    assert (x.size, *digest) == LOG_PANELS[spec]


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
        assert PowerLaw(a).bernstein().laplace(t) == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize(
    "kernel",
    [k for k in ALL_PRESETS if not isinstance(k, (Gaussian, Cauchy))],
    ids=str,
)
def test_bernstein_reproduces_cm_kernel(kernel):
    m = kernel.bernstein()
    t = np.geomspace(1e-2, 1e2, 25)
    rel = np.abs(m.laplace(t) / kernel_eval(kernel, t) - 1.0)
    assert rel.max() < 1e-8


@pytest.mark.parametrize("kernel", [Gaussian(1.0), Gaussian(0.3), Cauchy(1.0, 1.0), Cauchy(0.25, 2.0)], ids=str)
def test_bernstein_reproduces_phi_kernel(kernel):
    m = kernel.bernstein()
    assert m.measure_of == "phi"
    # capped where exp(-scale t^2) stays representable
    t = np.geomspace(1e-2, 20.0, 25)
    rel = np.abs(m.laplace(t * t) / kernel_eval(kernel, t) - 1.0)
    assert rel.max() < 1e-8


@pytest.mark.parametrize("kernel", ALL_PRESETS, ids=str)
def test_bernstein_finiteness_integrals(kernel):
    m = kernel.bernstein()
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


def test_validate_kernel_underflow_is_positive_but_kcos_sign_is_checked():
    # a smoothed box underflows to 0 on the tail of the grid, which is no
    # failure of positivity, but its cosine transform is negative at w = 2
    # far beyond the quadrature error
    box = lambda t: np.exp(-((np.abs(t) / 2.3) ** 8))
    report = validate_kernel(box, np.geomspace(0.1, 10.0, 25))
    assert report.checks["positivity"] == (True, "K > 0 on grid")
    passed, detail = report.checks["kcos_positive"]
    assert not passed and "omega=2: -3.820e-01" in detail


def test_validate_kernel_reports_each_kcos_failure():
    # 1 + |t| grows: every probe frequency reports the oscillatory
    # precondition failure instead of a transform value
    report = validate_kernel(lambda t: 1.0 + np.abs(t), np.geomspace(0.1, 100.0, 25))
    passed, detail = report.checks["kcos_positive"]
    assert not passed and not report.ok
    assert detail == "; ".join(
        f"omega={w}: oscillatory quadrature precondition failed: envelope not decreasing"
        for w in ("0.5", "2", "20")
    )


def test_validate_kernel_interior_zero_sample():
    # only a trailing run of zeros counts as underflow
    grid = np.geomspace(0.1, 100.0, 40)
    gap = lambda t: np.where(np.abs(np.abs(t) - grid[10]) < 1e-12, 0.0, 1.0 / (1.0 + np.abs(t)))
    report = validate_kernel(gap, grid)
    assert report.checks["positivity"] == (False, "non-positive sample")
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
