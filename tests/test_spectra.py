import math
import warnings

import numpy as np
import pytest

from gle_spectra import (
    QuadConfig,
    TransformDomainError,
    integrate_to_infinity,
    kcos_ksin_grid,
    near_zero_asymptote,
    r11,
    r12,
    r22,
)
from gle_spectra.spectra import resonance, trapped_densities
from conftest import EQUIPARTITION_PRESETS, free_ctx, trapped_ctx


def test_r11_hand_value():
    # rouse:[1] at w=1: kcos = ksin = 1/2 substituted into the density formula
    ctx = trapped_ctx("rouse:1")
    expected = 2.0 * 1.5 / ((2.0 - 1.0 + 0.5) ** 2 + 1.5 ** 2)
    assert r11(ctx, 1.0) == pytest.approx(expected, rel=1e-14)


def test_r11_near_zero_constant():
    # integrable kernels: r11(0) = 2(lam + beta Int K)/gamma^2; for rouse:[1]
    # with unit couplings that is 2(1+1)/4 = 1 (the lam-only value 2 lam/g^2
    # drops the memory term and does not match the density formula)
    ctx = trapped_ctx("rouse:1")
    assert r11(ctx, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert r11(ctx, 1e-7) == pytest.approx(1.0, rel=1e-6)


def test_r11_even(rng):
    ctx = trapped_ctx("powerlaw:0.5")
    w = rng.uniform(0.01, 30.0, 20)
    assert np.allclose(r11(ctx, w), r11(ctx, -w), rtol=1e-14)


def test_r11_free_particle_rejected():
    with pytest.raises(TransformDomainError):
        r11(free_ctx("rouse:1"), 1.0)


def test_r22_is_w2_r11(rng):
    ctx = trapped_ctx("rouse:[1,2]")
    w = rng.uniform(0.0, 50.0, 100)
    assert np.allclose(r22(ctx, w), w * w * np.where(w == 0, 0.0, r11(ctx, np.where(w == 0, 1.0, w))), rtol=1e-13)


def test_r22_limits():
    ctx = trapped_ctx("rouse:[1,2]")
    assert r22(ctx, 0.0) == 0.0
    assert r22(ctx, 1e-6) < 1e-11


def test_r22_free_particle():
    # gamma=0, rouse:[1], w=1: 2(1+0.5)/((1-0.5)^2 + 1.5^2) = 1.2
    ctx = free_ctx("rouse:1")
    assert r22(ctx, 1.0) == pytest.approx(1.2, rel=1e-14)
    # finite origin value 2/(lam + beta Int K)
    assert r22(ctx, 0.0) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("w", [1e80, 1e155, -1e155, 1e300])
def test_r22_r12_at_large_frequency(w):
    # rouse:1, unit couplings, gamma = 2: Kcos ~ 1/w^2 and Ksin ~ 1/w vanish
    # against lam and m w, so r22 = 2/w^2 and Im r12 = 2/w^3 where those are
    # normal doubles; w^2 r11 has underflowed to 0 long before
    ctx = trapped_ctx("rouse:1")
    v, c = r22(ctx, w), r12(ctx, w).imag
    assert np.isfinite(v) and v >= 0.0 and np.isfinite(c) and c * w >= 0.0
    assert v == pytest.approx(2.0 / w / w, rel=1e-14, abs=1e-300)
    assert c == pytest.approx(2.0 / w / w / w, rel=1e-14, abs=1e-300)
    if w == 1e80:
        assert v == pytest.approx(2e-160, rel=1e-14) and r11(ctx, w) == 0.0


@pytest.mark.parametrize("spec", ["rouse:[1,2,4]", "gaussian:1"])
def test_undamped_r11_at_huge_frequency(spec):
    # with lam = 0, a = beta Kcos underflows to 0 where w*w overflows: r11
    # is 0 there, not the NaN of inf*0
    ctx = trapped_ctx(spec, lam=0.0)
    assert r11(ctx, np.array([1e155, 1e300])).tolist() == [0.0, 0.0]


def test_r22_free_particle_origin_guard():
    for spec in ("powerlaw:0.5", "one-plus-t-inverse", "cauchy:0.4,1"):
        with pytest.raises(TransformDomainError):
            r22(free_ctx(spec), 0.0)
        with pytest.raises(TransformDomainError):
            r22(free_ctx(spec), np.array([1.0, 0.0]))


@pytest.mark.parametrize("spec", ["rouse:1", "gaussian:1"])
def test_r22_free_particle_origin_limit(spec):
    # B = 0 at the origin of the free particle: r22(0) = 2/(lam + beta Int K)
    ctx = free_ctx(spec)
    expected = 2.0 / (ctx.params.lam + ctx.params.beta * ctx.kernel.integral())
    assert r22(ctx, 0.0) == pytest.approx(expected, rel=1e-15)
    assert r22(ctx, np.array([0.0, 1.0]))[0] == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("spec", ["powerlaw:0.5", "one-plus-t-inverse", "rouse:1"])
def test_trapped_r22_r12_vanish_at_origin(spec):
    # in a trap B = gamma/w is infinite at the origin, whatever the kernel:
    # r22 and r12 vanish there even where Kcos(0) diverges
    ctx = trapped_ctx(spec)
    assert r22(ctx, 0.0) == 0.0 and r12(ctx, 0.0) == 0.0
    w = np.array([-1.0, 0.0, 2.0])
    assert r22(ctx, w)[1] == 0.0 and r12(ctx, w)[1] == 0.0
    assert np.all(r22(ctx, w)[[0, 2]] > 0.0)


def _count_grid_calls(monkeypatch):
    import gle_spectra.spectra as spectra

    calls = []

    def counted(kernel, omegas, **kwargs):
        calls.append(np.array(omegas))
        return kcos_ksin_grid(kernel, omegas, **kwargs)

    monkeypatch.setattr(spectra, "kcos_ksin_grid", counted)
    return calls


@pytest.mark.parametrize("spec", ["rouse:[1,2]", "powerlaw:0.5"])
def test_each_density_call_makes_one_grid_call(spec, monkeypatch):
    # r11 and the free r22 read Kcos(0) at the origin row, which only an
    # integrable kernel has; the trapped r22 and r12 take no transform there
    calls = _count_grid_calls(monkeypatch)
    trapped, free = trapped_ctx(spec), free_ctx(spec)
    grid = [-2.0, 0.0, 0.5, 3.0]
    cases = [(r22, trapped, [-2.0, 0.5, 3.0]), (r12, trapped, [-2.0, 0.5, 3.0])]
    if trapped.kernel.integral() is not None:
        cases += [(r11, trapped, grid), (r22, free, grid)]
    for density, ctx, covered in cases:
        calls.clear()
        density(ctx, np.array(grid))
        density(ctx, 0.7)
        assert [c.tolist() for c in calls] == [covered, [0.7]], density.__name__


def test_r12_structure(rng):
    ctx = trapped_ctx("powerlaw:0.5")
    w = rng.uniform(0.01, 20.0, 100)
    vals = r12(ctx, w)
    assert np.allclose(vals.real, 0.0)
    assert np.allclose(vals.imag, w * r11(ctx, w), rtol=1e-14)
    assert r12(ctx, 1e-9).imag == pytest.approx(0.0, abs=1e-4)


def test_spectral_matrix_psd():
    # [[r11, r12], [conj(r12), r22]] is rank one: zero determinant, positive trace
    ctx = trapped_ctx("gaussian:1")
    for w in (0.3, 3.0):
        a, b, c = r11(ctx, w), r12(ctx, w), r22(ctx, w)
        det = a * c - abs(b) ** 2
        assert det == pytest.approx(0.0, abs=1e-14 * a * c)
        assert a + c > 0


@pytest.mark.parametrize("spec", EQUIPARTITION_PRESETS)
def test_tail_dominated_by_w4(spec):
    ctx = trapped_ctx(spec)
    w = np.array([10.0, 100.0, 1000.0])
    vals = w ** 4 * r11(ctx, w)
    assert np.all(vals < 10.0)
    assert np.all(np.isfinite(vals))


def test_r11_r22_integrable():
    cfg = QuadConfig(rel_tol=1e-6)
    for spec in ("powerlaw:0.5", "one-plus-t-inverse"):
        ctx = trapped_ctx(spec)
        v1, _ = integrate_to_infinity(lambda w: r11(ctx, w), 1.0, cfg)
        v2, _ = integrate_to_infinity(lambda w: r22(ctx, w), 1.0, cfg)
        assert np.isfinite(v1) and np.isfinite(v2)


def test_cross_density_cauchy_schwarz():
    from gle_spectra import integrate_adaptive

    ctx = trapped_ctx("rouse:[1,2]")
    cfg = QuadConfig(rel_tol=1e-7)
    i12, _ = integrate_to_infinity(lambda w: np.abs(r12(ctx, w)), 1.0, cfg)
    a, _ = integrate_adaptive(lambda w: np.abs(r12(ctx, w)), 1e-6, 1.0, cfg)
    i12 += a
    i11, _ = integrate_to_infinity(lambda w: r11(ctx, w), 1e-6, cfg)
    i22, _ = integrate_to_infinity(lambda w: r22(ctx, w), 1e-6, cfg)
    assert i12 <= np.sqrt(i11 * i22) * (1 + 1e-8)


def test_near_zero_asymptote_classes():
    nz = near_zero_asymptote(trapped_ctx("rouse:[1,2]"))
    assert nz.kind == "integrable"
    # 2 (lam + beta * 1.5)/gamma^2 = 1.25
    assert nz.rate_predicted == pytest.approx(1.25, rel=1e-10)
    assert nz.rate == pytest.approx(1.25, rel=1e-6)

    nz = near_zero_asymptote(trapped_ctx("one-plus-t-inverse"))
    assert nz.kind == "critical"
    assert nz.exponent == 0.0
    assert nz.rate_predicted == pytest.approx(0.5, rel=1e-12)
    assert nz.rate == pytest.approx(0.5, rel=0.1)  # log-rate converges slowly

    nz = near_zero_asymptote(trapped_ctx("powerlaw:0.5"))
    assert nz.kind == "powerlaw"
    assert nz.exponent == pytest.approx(-0.5)
    assert nz.rate == pytest.approx(nz.rate_predicted, rel=1e-2)
    assert nz.richardson_drift < 0.01


# near_zero_asymptote at the conftest trap, bit for bit: kind, then the
# exponent, rate, rate_predicted and richardson_drift
NEAR_ZERO = {
    "rouse:[1,2]": (
        "integrable", "0x0.0p+0", "0x1.3ffffefaf2505p+0", "0x1.4000000000000p+0",
        "0x1.3943a04000000p-25",
    ),
    "one-plus-t-inverse": (
        "critical", "0x0.0p+0", "0x1.0bb6a81eb2c90p-1", "0x1.0000000000000p-1",
        "0x1.897c5d1a9d700p-9",
    ),
    "powerlaw:0.5": (
        "powerlaw", "-0x1.0000000000000p-1", "0x1.3f615b4517bd6p-1", "0x1.40d931ff62705p-1",
        "0x1.621c4ca268400p-10",
    ),
}


@pytest.mark.parametrize("spec", sorted(NEAR_ZERO))
def test_near_zero_asymptote_bitwise(spec):
    nz = near_zero_asymptote(trapped_ctx(spec))
    numbers = (nz.exponent, nz.rate, nz.rate_predicted, nz.richardson_drift)
    assert (nz.kind, *(float(v).hex() for v in numbers)) == NEAR_ZERO[spec]


def test_near_zero_needs_trap():
    with pytest.raises(TransformDomainError):
        near_zero_asymptote(free_ctx("rouse:1"))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_densities_reject_non_finite_frequencies(bad):
    trapped, free = trapped_ctx("rouse:1"), free_ctx("rouse:1")
    calls = [
        (r11, trapped), (r22, trapped), (r12, trapped), (trapped_densities, trapped), (r22, free)
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for density, ctx in calls:
            for omega in (bad, np.array([1.0, bad]), np.array([0.0, bad])):
                with pytest.raises(ValueError, match="finite"):
                    density(ctx, omega)
    assert caught == []


@pytest.mark.parametrize(
    "spec,lam,gamma",
    [("rouse:1", 1.0, 2.0), ("powerlaw:0.5", 1.0, 0.01), ("rouse:[1,2,4]", 0.0, 1e6),
     ("gaussian:1", 0.0, 100.0)],
)
def test_resonance_is_the_root_of_b(spec, lam, gamma):
    # w_r is the root of b(w) = gamma - m w^2 + beta w Ksin(w) to a fiftieth
    # of the peak's half-width delta = (lam + beta Kcos(w_r))/(2m), the
    # slope of b being -2 m w_r there
    ctx = trapped_ctx(spec, lam=lam, gamma=gamma)
    w_r, delta = resonance(ctx)
    kc, ks = kcos_ksin_grid(ctx.kernel, [w_r])
    assert abs(gamma - w_r ** 2 + w_r * ks[0]) / (2.0 * w_r) <= 2e-2 * delta
    assert delta == pytest.approx((lam + kc[0]) / 2.0, rel=1e-2)


def test_resonance_needs_trap():
    with pytest.raises(TransformDomainError):
        resonance(free_ctx("rouse:1"))
