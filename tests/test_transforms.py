import math
import warnings

import mpmath
import numpy as np
import pytest

from gle_spectra import (
    BernsteinMeasure,
    ExpMixture,
    Gaussian,
    GeneralizedRouse,
    MemoryKernel,
    OnePlusTInverse,
    PowerLaw,
    TailClass,
    TransformDomainError,
    abelian_limits,
    faddeeva,
    kcos_ksin_grid,
    parse_kernel_spec,
    transform,
    transform_complex,
)
from gle_spectra import transforms
from gle_spectra.quad import DEFAULT_QUAD
from conftest import CM_PRESETS, PHI_PRESETS

SQRT_PI_OVER_2 = 1.2533141373155003  # Int_0^oo cos(u)/sqrt(u) du


def test_single_exponential_closed_form():
    p = transform(GeneralizedRouse((1.0,)), 1.0)
    assert p.kcos == pytest.approx(0.5, rel=1e-14)
    assert p.ksin == pytest.approx(0.5, rel=1e-14)
    assert p.route == "closed_form"


def test_powerlaw_value():
    p = transform(PowerLaw(0.5), 1.0)
    assert p.kcos == pytest.approx(SQRT_PI_OVER_2, rel=1e-12)
    assert p.ksin == pytest.approx(SQRT_PI_OVER_2, rel=1e-12)


def test_gaussian_value():
    # single-atom faddeeva route, cross-checked against the numeric route
    p = transform(Gaussian(1.0), 2.0)
    assert p.kcos == pytest.approx(0.5 * math.sqrt(math.pi) * math.exp(-1.0), rel=1e-12)
    assert p.route == "phi_t2_faddeeva"
    q = transform(Gaussian(1.0), 2.0, route="numeric")
    assert p.kcos == pytest.approx(q.kcos, rel=1e-7)
    assert p.ksin == pytest.approx(q.ksin, rel=1e-7)


def test_origin_integrable():
    p = transform(GeneralizedRouse((1.0, 2.0)), 0.0)
    assert p.kcos == pytest.approx(1.5)
    assert p.ksin == 0.0


def test_origin_non_integrable_rejected():
    with pytest.raises(TransformDomainError):
        transform(PowerLaw(0.5), 0.0)
    with pytest.raises(TransformDomainError):
        transform(OnePlusTInverse(), 0.0)


def test_parity(rng):
    for spec in ("powerlaw:0.5", "rouse:[1,2]", "gaussian:1"):
        k = parse_kernel_spec(spec)
        for w in rng.uniform(0.05, 20.0, 8):
            plus = transform(k, w)
            minus = transform(k, -w)
            assert minus.kcos == pytest.approx(plus.kcos, rel=1e-14)
            assert minus.ksin == pytest.approx(-plus.ksin, rel=1e-14)


@pytest.mark.parametrize("spec", CM_PRESETS + PHI_PRESETS)
def test_decay_at_infinity(spec):
    # both transforms vanish at infinity; only monotonicity of the envelope
    # is asserted since the rate is kernel-dependent (w^(alpha-1) at slowest)
    k = parse_kernel_spec(spec)
    w = np.array([1e2, 1e3, 1e4])
    kcos, ksin = kcos_ksin_grid(k, w)
    assert np.all(np.diff(np.abs(kcos)) <= 0)
    assert np.all(np.diff(np.abs(ksin)) <= 0)
    ref_c, ref_s = kcos_ksin_grid(k, np.array([1.0]))
    assert abs(kcos[-1]) < 0.3 * abs(ref_c[0])
    assert abs(ksin[-1]) < 0.3 * abs(ref_s[0])


@pytest.mark.parametrize("spec", CM_PRESETS + PHI_PRESETS)
def test_positivity_of_kcos(spec):
    k = parse_kernel_spec(spec)
    w = np.geomspace(1e-3, 1e3, 31)
    kcos, _ = kcos_ksin_grid(k, w)
    representable = kcos > 0
    # gaussian/cauchy cosine transforms underflow beyond w ~ 100; everywhere
    # else strict positivity must hold
    assert np.all(representable | ((w > 50.0) & (kcos == 0.0)))


@pytest.mark.parametrize("spec", CM_PRESETS)
def test_route_consistency_cm(spec):
    k = parse_kernel_spec(spec)
    for w in (1e-3, 1.0, 1e3):
        a = transform(k, w, route="cm_measure")
        b = transform(k, w, route="numeric")
        assert a.kcos == pytest.approx(b.kcos, rel=1e-6)
        assert a.ksin == pytest.approx(b.ksin, rel=1e-6)


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.93, 0.95])
def test_cm_measure_matches_closed_form_near_alpha_one(alpha):
    # the measure's top node, 10**ceil(14/(1-alpha)), is 1e280 at alpha 0.95:
    # its square overflows
    k = PowerLaw(alpha)
    w = np.geomspace(1e-3, 1e3, 13)
    got = kcos_ksin_grid(k, w, route="cm_measure")
    want = kcos_ksin_grid(k, w, route="closed_form")
    for g, e in zip(got, want):
        np.testing.assert_allclose(g, e, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("spec", PHI_PRESETS)
def test_route_consistency_phi(spec):
    # at large w these cosine transforms fall below the oscillatory engine's
    # cancellation floor; agreement there means both are negligible on the
    # kernel's transform scale
    k = parse_kernel_spec(spec)
    scale = transform(k, 1e-3).kcos
    for w in (1e-3, 1.0, 30.0):
        a = transform(k, w, route="phi_t2_faddeeva")
        b = transform(k, w, route="numeric")
        ok = a.kcos == pytest.approx(b.kcos, rel=1e-6) or (
            abs(a.kcos) < 1e-8 * scale and abs(b.kcos) < 1e-8 * scale
        )
        assert ok, (w, a.kcos, b.kcos)
        assert a.ksin == pytest.approx(b.ksin, rel=1e-6)


ROUTES = ("closed_form", "cm_measure", "phi_t2_faddeeva", "numeric")
CM_ROUTES = ("closed_form", "cm_measure", "numeric")
PHI_ROUTES = ("phi_t2_faddeeva", "numeric")
# every preset family with the routes it must offer, its default first
ROUTE_TABLE = [
    *((parse_kernel_spec(spec), CM_ROUTES) for spec in CM_PRESETS),
    (ExpMixture(BernsteinMeasure(atoms=((0.5, 1.0), (3.0, 2.0)))), CM_ROUTES),
    *((parse_kernel_spec(spec), PHI_ROUTES) for spec in PHI_PRESETS + ("cauchy:0.25,1",)),
]


def test_route_mismatch_rejected():
    for kernel, routes in ROUTE_TABLE:
        assert kernel.routes == routes, kernel
        assert transform(kernel, 2.0).route == routes[0], kernel
        for route in ROUTES:
            if route in routes:
                p = transform(kernel, 1.0, route=route)
                assert np.isfinite([p.kcos, p.ksin]).all() and p.route == route, (kernel, route)
            else:
                with pytest.raises(TransformDomainError):
                    transform(kernel, 1.0, route=route)


# (Kcos, Ksin) of the Gamma closed form at w = 1e-3, 1, 1e3, bit for bit,
# with math.gamma's Gamma(1 - alpha); the default route must not build the
# Laplace measure, whose cutoffs are not doubles at these alphas
POWERLAW_CLOSED = {
    0.01: (
        ("0x1.d7d706b961e16p+3", "0x1.02dc1e056e761p-6", "0x1.1c07bfa33a48cp-16"),
        ("0x1.d54f2c6013dc1p+9", "0x1.0178b18dc0ed3p+0", "0x1.1a81c3d6281b2p-10"),
    ),
    0.99: (
        ("0x1.aa1f87891093dp+6", "0x1.8dae67f02fd9ap+6", "0x1.732344295fb39p+6"),
        ("0x1.ac6bc43d61cd4p+0", "0x1.8fd3617e85d58p+0", "0x1.75239970af699p+0"),
    ),
}


@pytest.mark.parametrize("alpha", sorted(POWERLAW_CLOSED))
def test_powerlaw_closed_form_extreme_alpha(alpha):
    kcos, ksin = kcos_ksin_grid(PowerLaw(alpha), np.array([1e-3, 1.0, 1e3]))
    want_cos, want_sin = POWERLAW_CLOSED[alpha]
    assert [float(v).hex() for v in kcos] == list(want_cos)
    assert [float(v).hex() for v in ksin] == list(want_sin)


# (Kcos, Ksin) of the two measure routes at w = 1e-3, 1, 1e3, bit for bit:
# the discretized densities of a power law, of 1/(1 + t) and of a Cauchy
# kernel's phi
MEASURE_ROUTES = {
    ("powerlaw:0.5", "cm_measure"): (
        ("0x1.3d10f16c0cf2ep+5", "0x1.40d931ff626d2p+0", "0x1.44acff687f8d3p-5"),
        ("0x1.3d10f16c0c8ffp+5", "0x1.40d931ff626d2p+0", "0x1.44acff687ff2bp-5"),
    ),
    ("one-plus-t-inverse", "cm_measure"): (
        ("0x1.95413b9992100p+2", "0x1.5f9e78ec353f6p-2", "0x1.0c6f107e502a0p-20"),
        ("0x1.903f3e10f0dbbp+0", "0x1.3e2ea528689afp-1", "0x1.0624bad31dd4bp-10"),
    ),
    ("cauchy:1,1", "phi_t2_faddeeva"): (
        ("0x1.91b8d0d98b460p+0", "0x1.27ddbf6271dbdp-1", "0x0.0p+0"),
        ("0x1.e06a11b49aceap-8", "0x1.4b24461d52351p-1", "0x1.0624ff8b4d72ep-10"),
    ),
}


@pytest.mark.parametrize("spec,route", sorted(MEASURE_ROUTES))
def test_measure_routes_bitwise(spec, route):
    kcos, ksin = kcos_ksin_grid(parse_kernel_spec(spec), np.array([1e-3, 1.0, 1e3]), route=route)
    want_cos, want_sin = MEASURE_ROUTES[spec, route]
    assert [float(v).hex() for v in kcos] == list(want_cos)
    assert [float(v).hex() for v in ksin] == list(want_sin)


# abelian_limits bit for bit: kind, (kcos, ksin) constants, sharp
# components and the prediction at w = 1e-4
ABELIAN = {
    "rouse:[1,2]": (
        "integrable", ("0x1.8000000000000p+0", "0x0.0p+0"), ("kcos",),
        ("0x1.8000000000000p+0", "0x0.0p+0"),
    ),
    "one-plus-t-inverse": (
        "critical", ("0x1.0000000000000p+0", "0x1.921fb54442d18p+0"), ("ksin",),
        ("0x1.26bb1bbb55515p+3", "0x1.921fb54442d18p+0"),
    ),
    "powerlaw:0.5": (
        "powerlaw", ("0x1.40d931ff62705p+0", "0x1.40d931ff62706p+0"), ("kcos", "ksin"),
        ("0x1.f5535e1f09cf8p+6", "0x1.f5535e1f09cf9p+6"),
    ),
}


@pytest.mark.parametrize("spec", sorted(ABELIAN))
def test_abelian_limits_bitwise(spec):
    ab = abelian_limits(parse_kernel_spec(spec))
    kind, constants, sharp, predicted = ABELIAN[spec]
    assert ab.kind == kind and ab.sharp == sharp
    assert (float(ab.kcos_constant).hex(), float(ab.ksin_constant).hex()) == constants
    assert tuple(float(v).hex() for v in ab.predict(1e-4)) == predicted


@pytest.mark.parametrize("spec", ["powerlaw:0.1", "powerlaw:0.5", "powerlaw:0.9", "cauchy:0.3,2"])
def test_abelian_power_constants_are_the_closed_form(spec):
    # Int_0^oo (cos, sin)(u) u^-alpha du are the closed-form transforms of
    # u^-alpha at w = 1, times the tail constant c
    tail = parse_kernel_spec(spec).tail_class()
    ab = abelian_limits(parse_kernel_spec(spec))
    kcos, ksin = PowerLaw(tail.alpha).closed_pair(1.0)
    assert (ab.kcos_constant, ab.ksin_constant) == (tail.constant * kcos, tail.constant * ksin)


class _Triangle(MemoryKernel):
    """max(0, 1 - |t|): a kernel that declares nothing but its values."""

    def eval(self, t):
        return np.maximum(0.0, 1.0 - np.abs(np.asarray(t, dtype=float)))

    def tail_class(self):
        return TailClass(TailClass.INTEGRABLE)

    def spec(self):
        return "triangle"


def test_bare_kernel_defaults_to_numeric():
    k = _Triangle()
    assert k.routes == ("numeric",)
    p = transform(k, 2.0)
    assert p.route == "numeric"
    # Int_0^1 (1 - t) cos(2t) dt = (1 - cos 2)/4 and Int_0^1 (1 - t) sin(2t) dt = (2 - sin 2)/4
    assert p.kcos == pytest.approx((1.0 - math.cos(2.0)) / 4.0, rel=1e-8)
    assert p.ksin == pytest.approx((2.0 - math.sin(2.0)) / 4.0, rel=1e-8)
    for route in ("closed_form", "cm_measure", "phi_t2_faddeeva"):
        with pytest.raises(TransformDomainError):
            transform(k, 2.0, route=route)


def test_complex_extension_real_axis_consistency():
    for spec in ("rouse:[1,2]", "powerlaw:0.5", "gaussian:1"):
        k = parse_kernel_spec(spec)
        p = transform(k, 1.0)
        v_minus = transform_complex(k, 1.0 + 0.0j, sign="minus")
        v_plus = transform_complex(k, 1.0 + 0.0j, sign="plus")
        assert v_minus == pytest.approx(complex(p.kcos, -p.ksin), rel=1e-9)
        assert v_plus == pytest.approx(complex(p.kcos, p.ksin), rel=1e-9)


def test_complex_extension_atom_value():
    # single atom at x=1: Kcos(z) - i Ksin(z) = 1/(x + i z) -> 1/2 at z = -i
    val = transform_complex(GeneralizedRouse((1.0,)), -1j, sign="minus")
    assert val == pytest.approx(0.5 + 0.0j, rel=1e-14)


def test_complex_extension_gaussian_value():
    # single phi-atom: (sqrt(pi)/2) w(-z/2) at z = -i
    val = transform_complex(Gaussian(1.0), -1j, sign="minus")
    ref = 0.5 * math.sqrt(math.pi) * faddeeva(0.5j)
    assert val == pytest.approx(ref, rel=1e-13)


def test_complex_extension_half_plane_guard():
    with pytest.raises(TransformDomainError):
        transform_complex(GeneralizedRouse((1.0,)), 1j, sign="minus")
    with pytest.raises(TransformDomainError):
        transform_complex(Gaussian(1.0), -1j, sign="plus")
    with pytest.raises(TransformDomainError):
        transform_complex(Gaussian(1.0), 0.0, sign="minus")


def test_abelian_integrable():
    ab = abelian_limits(GeneralizedRouse((1.0,)))
    assert ab.kind == "integrable"
    assert ab.kcos_constant == pytest.approx(1.0)
    assert ab.ksin_constant == 0.0
    kc, ks = ab.predict(1e-4)
    assert kc == pytest.approx(1.0) and ks == 0.0


def test_abelian_critical():
    ab = abelian_limits(OnePlusTInverse())
    assert ab.kind == "critical"
    assert ab.ksin_constant == pytest.approx(0.5 * math.pi, rel=1e-12)
    assert ab.sharp == ("ksin",)


def test_abelian_powerlaw():
    ab = abelian_limits(PowerLaw(0.5))
    assert ab.kind == "powerlaw"
    # numerically computed Int cos(u)/sqrt(u) du, independent of the Gamma
    # closed form used by the transform route
    assert ab.kcos_constant == pytest.approx(SQRT_PI_OVER_2, rel=1e-7)
    assert ab.ksin_constant == pytest.approx(SQRT_PI_OVER_2, rel=1e-7)


@pytest.mark.parametrize("spec", CM_PRESETS + PHI_PRESETS)
def test_abelian_convergence_at_small_frequency(spec):
    k = parse_kernel_spec(spec)
    ab = abelian_limits(k)
    p = transform(k, 1e-4)
    kc_pred, ks_pred = ab.predict(1e-4)
    if "kcos" in ab.sharp:
        assert p.kcos == pytest.approx(kc_pred, rel=1e-2)
    if "ksin" in ab.sharp:
        assert p.ksin == pytest.approx(ks_pred, rel=1e-2)


def test_numeric_ksin_matches_faddeeva_route():
    k = parse_kernel_spec("cauchy:1.44,1.79")
    numeric = transform(k, 8.7, route="numeric")
    closed = transform(k, 8.7, route="phi_t2_faddeeva")
    assert numeric.ksin == pytest.approx(closed.ksin, rel=1e-9)


def test_route_checked_at_origin():
    k = parse_kernel_spec("gaussian:1")
    with pytest.raises(TransformDomainError, match="cm_measure"):
        transform(k, 0.0, route="cm_measure")
    p = transform(k, 0.0, route="phi_t2_faddeeva")
    assert p.route == "closed_form" and p.kcos == pytest.approx(math.sqrt(math.pi) / 2.0)


@pytest.mark.parametrize("spec", ["powerlaw:0.5", "one-plus-t-inverse", "cauchy:1.44,1.79"])
def test_numeric_grid_equals_per_frequency_calls(spec):
    # the numeric route is one oscillatory engine run per phase, a row per
    # frequency; each row is the value that frequency has alone
    kernel = parse_kernel_spec(spec)
    omegas = np.array([-3.0, 0.05, 0.8, 2.5, 40.0])
    kcos, ksin = kcos_ksin_grid(kernel, omegas, route="numeric")
    alone = [transform(kernel, w, route="numeric") for w in omegas]
    assert kcos.tolist() == [p.kcos for p in alone]
    assert ksin.tolist() == [p.ksin for p in alone]


def test_numeric_grid_of_many_rows_equals_per_frequency_calls():
    # 32 rows: more than one SIMD block of numpy's vectorised exp and pow
    kernel = PowerLaw(0.5)
    omegas = np.geomspace(1e-2, 1e2, 32) * np.resize([1.0, -1.0], 32)
    kcos, ksin = kcos_ksin_grid(kernel, omegas, route="numeric")
    alone = [transform(kernel, w, route="numeric") for w in omegas]
    assert kcos.tolist() == [p.kcos for p in alone]
    assert ksin.tolist() == [p.ksin for p in alone]


def test_numeric_pair_returns_its_errors():
    kernel = parse_kernel_spec("rouse:[1,2]")
    w = np.array([0.5, 2.0])
    kcos, ksin, kcos_err, ksin_err = transforms._numeric_pair(kernel, w, DEFAULT_QUAD)
    exact_cos, exact_sin = kcos_ksin_grid(kernel, w)
    assert np.all(np.abs(kcos - exact_cos) <= kcos_err)
    assert np.all(np.abs(ksin - exact_sin) <= ksin_err)
    assert np.all(kcos_err < 1e-7) and np.all(ksin_err < 1e-7)


@pytest.mark.parametrize("omega", [1e10, 1e155, 1e300])
def test_faddeeva_route_at_huge_frequency(omega):
    # w/(2 sqrt(x)) overflows for the smallest nodes of cauchy:0.25,1; those
    # terms take the Dawson asymptote mw/w, so Ksin -> K(0)/w = 1/w
    kc, ks = kcos_ksin_grid(parse_kernel_spec("cauchy:0.25,1"), np.array([omega]))
    assert kc[0] == 0.0
    assert ks[0] == pytest.approx(1.0 / omega, rel=1e-12, abs=0.0)


def _aux_pair(w):
    """(Kcos, Ksin) of 1/(1+t): the auxiliary functions g, f, in mpmath."""
    with mpmath.workdps(60):
        z = mpmath.mpf(w)
        si, ci = mpmath.si(z), mpmath.ci(z)
        rest = mpmath.pi / 2 - si
        return (
            float(mpmath.sin(z) * rest - mpmath.cos(z) * ci),
            float(mpmath.cos(z) * rest + mpmath.sin(z) * ci),
        )


@pytest.mark.parametrize("omega", [39.999, 40.0, 1e8, 1e12])
def test_one_plus_t_inverse_closed_form_at_large_frequency(omega):
    p = transform(OnePlusTInverse(), omega)
    kcos, ksin = _aux_pair(omega)
    assert p.kcos == pytest.approx(kcos, rel=1e-12, abs=0.0)
    assert p.ksin == pytest.approx(ksin, rel=1e-12, abs=0.0)


def test_one_plus_t_inverse_kcos_stays_positive():
    # Kcos ~ 1/w^2 is positive until it underflows past w ~ 4.5e161
    w = np.geomspace(40.0, 1e300, 400)
    kcos, ksin = kcos_ksin_grid(OnePlusTInverse(), w)
    assert np.all(kcos >= 0.0) and np.all(kcos[w < 1e161] > 0.0)
    far = w > 1e8  # Ksin = 1/w - 2/w^3 + ... is 1/w to double precision
    assert ksin[far] == pytest.approx(1.0 / w[far], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("omega", [1e155, 1e200, 1e300])
@pytest.mark.parametrize("route", ["closed_form", "cm_measure"])
def test_cm_measure_sine_sum_at_huge_frequency(route, omega):
    # w/x overflows at the single node x = 1 of rouse:1, yet each sine term
    # mw w/(x^2 + w^2) is mw/w there, so Ksin = 1/w is a normal double
    kc, ks = kcos_ksin_grid(GeneralizedRouse((1.0,)), np.array([omega, -omega]), route=route)
    assert np.all(kc >= 0.0)
    assert ks == pytest.approx([1.0 / omega, -1.0 / omega], rel=1e-12, abs=0.0)


def test_grid_rejects_origin_of_non_integrable_kernel():
    for spec in ("powerlaw:0.5", "one-plus-t-inverse", "cauchy:0.4,1", "cauchy:0.5,1"):
        kernel = parse_kernel_spec(spec)
        for route in kernel.routes:
            with pytest.raises(TransformDomainError, match="origin"):
                kcos_ksin_grid(kernel, np.array([1.0, 0.0]), route=route)


def test_grid_checks_route_before_origin():
    # the route is checked first, at the origin as at every other frequency
    for omegas in ([0.0], [0.0, 1.0]):
        with pytest.raises(TransformDomainError, match="cm_measure"):
            kcos_ksin_grid(Gaussian(1.0), np.array(omegas), route="cm_measure")
        with pytest.raises(TransformDomainError, match="phi_t2_faddeeva"):
            kcos_ksin_grid(PowerLaw(0.5), np.array(omegas), route="phi_t2_faddeeva")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_grid_rejects_non_finite_frequencies(bad):
    # after the route check, before any arithmetic: no NaN and no warning
    for spec in ("rouse:1", "powerlaw:0.5", "gaussian:1"):
        kernel = parse_kernel_spec(spec)
        for route in kernel.routes:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for omegas in ([bad], [1.0, bad], [0.0, bad]):
                    with pytest.raises(ValueError, match="finite"):
                        kcos_ksin_grid(kernel, np.array(omegas), route=route)
                with pytest.raises(ValueError, match="finite"):
                    transform(kernel, bad, route=route)
            assert caught == []
    with pytest.raises(TransformDomainError, match="phi_t2_faddeeva"):
        kcos_ksin_grid(PowerLaw(0.5), np.array([bad]), route="phi_t2_faddeeva")


def test_grid_origin_is_kernel_integral_on_every_route():
    integrals = (
        (GeneralizedRouse((1.0, 2.0)), 1.5),
        (Gaussian(1.0), 0.5 * math.sqrt(math.pi)),
        (_Triangle(), 0.5),
    )
    for kernel, total in integrals:
        for route in kernel.routes:
            kcos, ksin = kcos_ksin_grid(kernel, np.array([0.0, -0.0]), route=route)
            assert kcos.tolist() == pytest.approx([total, total], rel=1e-12)
            assert ksin.tolist() == [0.0, 0.0]
