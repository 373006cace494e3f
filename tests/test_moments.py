import math
from pathlib import Path

import numpy as np
import pytest

from gle_spectra import (
    FitRejectedError,
    MsdCurve,
    POSITION_INTEGRAL,
    QuadConfig,
    SpectralDensityCtx,
    TransformDomainError,
    compute_msd_curve,
    cross_cov,
    equipartition_report,
    fit_growth_exponent,
    integrate_geometric,
    integrate_oscillatory,
    integrate_to_infinity,
    msd_v,
    msd_x,
    r11,
    var_v0,
    var_x0,
)
from gle_spectra import moments
from gle_spectra.cli import parse_config
from conftest import free_ctx, trapped_ctx

CONFIGS = Path(__file__).parent.parent / "demos" / "configs"


def test_var_x0_equipartition_value():
    # gamma = 2, kbt = 1: E[x(0)^2] = kbt/gamma for admissible kernels
    for spec in ("rouse:[1,2,4]", "powerlaw:0.5"):
        assert var_x0(trapped_ctx(spec)) == pytest.approx(0.5, rel=1e-6)


def test_var_x0_kbt_scaling():
    base = var_x0(trapped_ctx("rouse:1"))
    doubled = var_x0(trapped_ctx("rouse:1", kbt=2.0))
    assert doubled == pytest.approx(2.0 * base, rel=1e-10)


def test_var_x0_free_rejected():
    with pytest.raises(TransformDomainError):
        var_x0(free_ctx("rouse:1"))


def test_var_v0_free_particle():
    assert var_v0(free_ctx("powerlaw:0.5", m=2.0)) == pytest.approx(0.5, rel=1e-6)
    assert var_v0(trapped_ctx("gaussian:1")) == pytest.approx(1.0, rel=1e-6)


def test_var_v0_mass_scaling():
    v1 = var_v0(free_ctx("rouse:[1,2]", m=1.0))
    v2 = var_v0(free_ctx("rouse:[1,2]", m=2.0))
    assert v1 / v2 == pytest.approx(2.0, rel=1e-6)


def test_msd_x_small_time_quadratic():
    ctx = trapped_ctx("rouse:1")
    vx = var_x0(ctx)
    for t in (1e-3, 1e-2):
        assert msd_x(ctx, t) == pytest.approx(vx * t * t, rel=1e-3)
    assert msd_x(ctx, 0.0) == 0.0


def test_msd_x_diffusive_ratio():
    ctx = trapped_ctx("rouse:[1,2]")
    lo, hi = msd_x(ctx, 1e3), msd_x(ctx, 1e4)
    assert hi / lo == pytest.approx(10.0, rel=0.03)


def test_msd_x_superdiffusive_ratio():
    ctx = trapped_ctx("powerlaw:0.5")
    lo, hi = msd_x(ctx, 1e3), msd_x(ctx, 1e4)
    assert hi / lo == pytest.approx(10.0 ** 1.5, rel=0.05)


def test_msd_v_saturates():
    ctx = trapped_ctx("rouse:[1,2]")
    vx = var_x0(ctx)
    assert msd_v(ctx, 0.0) == 0.0
    assert msd_v(ctx, 1e3) == pytest.approx(2.0 * vx, rel=1e-2)
    for t in (0.5, 3.0, 30.0):
        assert msd_v(ctx, t) <= 4.0 * vx + 1e-12


def test_msd_v_identity_against_direct_integral():
    # independent direct evaluation of (2kbt/pi) Int (1 - cos t w) r11 dw
    ctx = trapped_ctx("powerlaw:0.5")
    for t in (0.7, 13.0):
        head, _ = integrate_geometric(
            lambda w: 2.0 * np.sin(0.5 * t * w) ** 2 * r11(ctx, w),
            0.0, 3.0, ctx.quad, left_exponent=-0.5,
        )
        flat, _ = integrate_to_infinity(lambda w: r11(ctx, w), 3.0, ctx.quad)
        osc, _ = integrate_oscillatory(lambda w: r11(ctx, w), t, "cos", 3.0, ctx.quad)
        direct = (2.0 / math.pi) * (head + flat - osc)
        assert msd_v(ctx, t) == pytest.approx(direct, rel=1e-6)


def test_cross_cov_zero():
    ctx = trapped_ctx("rouse:[1,2]")
    assert cross_cov(ctx, 5.0) == 0.0
    assert cross_cov(ctx, 0.0) == 0.0


def test_cross_cov_diagnostic_magnitude(rng):
    for spec in ("rouse:[1,2]", "powerlaw:0.5"):
        ctx = trapped_ctx(spec)
        for t in rng.uniform(0.2, 20.0, 3):
            assert abs(cross_cov(ctx, t, diagnostic=True)) < 1e-10


def test_equipartition_report_trapped():
    rep = equipartition_report(trapped_ctx("powerlaw:0.3"))
    assert rep.gamma_x_ratio == pytest.approx(1.0, abs=1e-3)
    assert rep.m_v_ratio == pytest.approx(1.0, abs=1e-3)
    assert rep.err_x < 1e-6 and rep.err_v < 1e-6
    assert rep.notes == ()


def test_equipartition_report_phi_kernel():
    rep = equipartition_report(trapped_ctx("cauchy:1,1"))
    assert rep.gamma_x_ratio == pytest.approx(1.0, abs=1e-3)
    assert rep.m_v_ratio == pytest.approx(1.0, abs=1e-3)


def test_equipartition_report_free():
    rep = equipartition_report(free_ctx("rouse:[1,2,4]"))
    assert rep.gamma_x_ratio is None
    assert rep.m_v_ratio == pytest.approx(1.0, abs=1e-3)


def test_equipartition_critical_kernel():
    # the 1/t-tailed kernel is also completely monotone, so the identities
    # hold despite the log-divergent position density at the origin
    rep = equipartition_report(trapped_ctx("one-plus-t-inverse"))
    assert rep.gamma_x_ratio == pytest.approx(1.0, abs=1e-3)
    assert rep.m_v_ratio == pytest.approx(1.0, abs=1e-3)


def test_fit_exact_power_data():
    t = np.geomspace(1.0, 100.0, 30)
    curve = MsdCurve(times=tuple(t), values=tuple(t ** 2), quantity=POSITION_INTEGRAL)
    fit = fit_growth_exponent(curve, (1.0, 100.0), "pure_power")
    assert fit.exponent == pytest.approx(2.0, abs=1e-6)
    assert fit.amplitude == pytest.approx(1.0, rel=1e-6)


def test_fit_rejects_sparse_window():
    t = np.geomspace(1.0, 100.0, 30)
    curve = MsdCurve(times=tuple(t), values=tuple(t ** 2), quantity=POSITION_INTEGRAL)
    with pytest.raises(FitRejectedError):
        fit_growth_exponent(curve, (1.0, 2.0), "pure_power")


def test_fit_rejects_non_monotone():
    t = np.geomspace(1.0, 100.0, 20)
    v = t.copy()
    v[10] = v[9] * 0.5
    curve = MsdCurve(times=tuple(t), values=tuple(v), quantity=POSITION_INTEGRAL)
    with pytest.raises(FitRejectedError):
        fit_growth_exponent(curve, (1.0, 100.0), "pure_power")


def test_fit_t_log_t_model():
    t = np.geomspace(10.0, 1e4, 40)
    curve = MsdCurve(
        times=tuple(t), values=tuple(3.0 * t * np.log(t)), quantity=POSITION_INTEGRAL
    )
    fit = fit_growth_exponent(curve, (10.0, 1e4), "t_log_t")
    assert fit.ratio == pytest.approx(3.0, rel=1e-12)
    assert fit.gof < 1e-12


def test_exponent_monotone_in_alpha():
    times = np.geomspace(1e2, 1e4, 15)
    fitted = []
    for alpha in (0.3, 0.5, 0.7):
        ctx = trapped_ctx(f"powerlaw:{alpha}")
        curve = compute_msd_curve(ctx, times)
        fit = fit_growth_exponent(curve, (1e2, 1e4))
        fitted.append(fit.exponent)
        assert fit.exponent == pytest.approx(2.0 - alpha, abs=0.05)
    assert fitted[0] > fitted[1] > fitted[2]


@pytest.mark.parametrize("fn,budget", [(msd_x, 20), (msd_v, 15)])
def test_msd_r11_call_budget(fn, budget, monkeypatch):
    # each adaptive round over all panels and oscillation cells is one r11
    # call, so an MSD point costs a handful of calls, not one per interval
    ctx = parse_config((CONFIGS / "trapped_rouse.json").read_text()).ctx()
    calls = []
    r11_alone = moments.r11

    def counted(c, w):
        calls.append(np.size(w))
        return r11_alone(c, w)

    monkeypatch.setattr(moments, "r11", counted)
    moments._r11_integral.cache_clear()
    fn(ctx, 100.0)
    assert 0 < len(calls) <= budget


def test_msd_v_matches_tight_quadrature():
    # the cosine integral of r11 at this t is where an acceleration test on
    # every prefix of the cells accepted a chance agreement of two averaging
    # levels: an error estimate of 1e-12 on a value 8e-8 off
    t = 17.78279410038923
    ctx = trapped_ctx("rouse:[1,2]")
    tight = SpectralDensityCtx(
        ctx.params, ctx.kernel, QuadConfig(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=4000)
    )
    assert msd_v(ctx, t) == pytest.approx(msd_v(tight, t), rel=1e-9)
