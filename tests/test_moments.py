from dataclasses import replace
import math
from pathlib import Path
import tracemalloc

import numpy as np
import pytest

from gle_spectra import (
    FitRejectedError,
    MsdCurve,
    POSITION_INTEGRAL,
    QuadConfig,
    QuadratureError,
    SpectralDensityCtx,
    TransformDomainError,
    VELOCITY_INTEGRAL,
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
from gle_spectra import moments, transforms
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


def test_equipartition_report_failure_is_nan():
    # both integrals run out of a one-subdivision budget: no ratio is
    # guessed from a failing panel
    ctx = replace(trapped_ctx("powerlaw:0.5"), quad=QuadConfig(max_subdivisions=1))
    rep = equipartition_report(ctx)
    assert math.isnan(rep.gamma_x_ratio) and math.isnan(rep.m_v_ratio)
    assert rep.err_x == math.inf and rep.err_v == math.inf
    assert [n.split(":")[0] for n in rep.notes] == ["var_x0", "var_v0"]
    assert all("tolerance not met after 1 subdivisions" in n for n in rep.notes)


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
    ctx = parse_config((CONFIGS / "trapped_rouse.json").read_text())
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


BATCH_KERNELS = ("powerlaw:0.5", "rouse:[1,2]", "one-plus-t-inverse", "gaussian:1", "cauchy:1,1")


def _head_and_tail(ctx, density, left_exponent=None):
    """Int_0^oo density as two engine runs: geometric panels on [0, s], then
    the fold past s."""
    f = lambda w: density(ctx, w)
    s = 1.0 + 2.0 * math.sqrt(ctx.params.gamma / ctx.params.m)
    v1, e1 = integrate_geometric(f, 0.0, s, ctx.quad, left_exponent=left_exponent)
    v2, e2 = integrate_to_infinity(f, s, ctx.quad)
    return v1 + v2, e1 + e2


@pytest.mark.parametrize("spec", ["rouse:[1.3,2.9]", "powerlaw:0.45", "one-plus-t-inverse", "gaussian:0.6"])
@pytest.mark.parametrize("trapped", [True, False], ids=["trapped", "free"])
def test_variances_equal_head_plus_tail(spec, trapped):
    # one engine run for head and tail gives the two runs' sum bit for bit
    ctx = trapped_ctx(spec, m=1.1, lam=1.2, gamma=2.5) if trapped else free_ctx(spec, m=1.1)
    moments._r11_integral.cache_clear()
    moments._r22_integral.cache_clear()
    scale = ctx.params.kbt / math.pi
    v, e = _head_and_tail(ctx, moments.r22)
    assert var_v0(ctx, with_error=True) == (scale * v, scale * e)
    if trapped:
        v, e = _head_and_tail(ctx, r11, ctx.kernel.tail_class().exponent)
        assert var_x0(ctx, with_error=True) == (scale * v, scale * e)


def test_r22_integral_shares_head_and_tail_rounds(monkeypatch):
    # powerlaw:0.45 takes 4 Kronrod rounds on its head and 16 on its tail:
    # together 16 r22 calls and the tail probe, not 4 + 16 + 1
    ctx = trapped_ctx("powerlaw:0.45", m=1.1, lam=1.2, gamma=2.5)
    calls = []
    r22_alone = moments.r22

    def counted(c, w):
        calls.append(np.size(w))
        return r22_alone(c, w)

    monkeypatch.setattr(moments, "r22", counted)
    f = lambda w: counted(ctx, w)
    s = 1.0 + 2.0 * math.sqrt(ctx.params.gamma / ctx.params.m)
    integrate_geometric(f, 0.0, s, ctx.quad)
    head = len(calls)
    integrate_to_infinity(f, s, ctx.quad)
    tail = len(calls) - head - 1  # less the probe
    calls.clear()
    moments._r22_integral.cache_clear()
    moments._r22_integral(ctx)
    assert (head, tail) == (4, 16)
    assert len(calls) == max(head, tail) + 1 == 17


@pytest.mark.parametrize("spec", BATCH_KERNELS)
@pytest.mark.parametrize("quantity,fn", [(POSITION_INTEGRAL, msd_x), (VELOCITY_INTEGRAL, msd_v)])
def test_batched_curve_equals_one_row_calls(spec, quantity, fn):
    # a curve is one engine run with a row per time; every segment keeps the
    # subdivisions it has alone, so each point is the one-time value
    ctx = trapped_ctx(spec)
    times = np.geomspace(0.1, 1e4, 6)
    curve = compute_msd_curve(ctx, times, quantity)
    alone = [fn(ctx, t) for t in times]
    assert curve.values == pytest.approx(alone, rel=1e-14, abs=0.0)
    assert np.array_equal(fn(ctx, times), np.array(curve.values))


def _count_r11(monkeypatch):
    calls = []
    r11_alone = moments.r11

    def counted(c, w):
        calls.append(np.size(w))
        return r11_alone(c, w)

    monkeypatch.setattr(moments, "r11", counted)
    moments._r11_integral.cache_clear()
    return calls


@pytest.mark.parametrize(
    "quantity,grid,budget",
    [(POSITION_INTEGRAL, (100.0, 1e4), 25), (VELOCITY_INTEGRAL, (1.0, 1e6), 12)],
)
def test_curve_r11_call_budget(quantity, grid, budget, monkeypatch):
    # one engine round makes one r11 call for every open integral of the
    # curve: 22 and 12 calls for 25 points, one of them the tail probe of
    # integrate_to_infinity (437 and 76 one time at a time); var_x0's head
    # and tail share their rounds
    ctx = parse_config((CONFIGS / "trapped_rouse.json").read_text())
    calls = _count_r11(monkeypatch)
    compute_msd_curve(ctx, np.geomspace(*grid, 25), quantity)
    assert 0 < len(calls) <= budget


@pytest.mark.parametrize(
    "times",
    [[2.0, 1.0], [0.0, 1.0], [1.0, math.inf], [math.nan, 1.0]],
    ids=["decreasing", "zero", "inf", "nan"],
)
@pytest.mark.parametrize("quantity", [POSITION_INTEGRAL, VELOCITY_INTEGRAL])
def test_curve_checks_times_before_the_engine(times, quantity, monkeypatch):
    # a grid the curve would refuse is refused before r11 is evaluated
    calls = _count_r11(monkeypatch)
    with pytest.raises(ValueError, match="times must be"):
        compute_msd_curve(trapped_ctx("rouse:1"), times, quantity)
    assert calls == []


@pytest.mark.parametrize("ctx", [trapped_ctx("rouse:1"), free_ctx("rouse:1")], ids=["trapped", "free"])
def test_curve_names_an_unknown_quantity(ctx, monkeypatch):
    calls = _count_r11(monkeypatch)
    with pytest.raises(ValueError, match="unknown quantity 'x'"):
        compute_msd_curve(ctx, [1.0], "x")
    assert calls == []


def test_curve_carries_quadrature_errors():
    ctx = trapped_ctx("rouse:[1,2]")
    times = np.geomspace(0.1, 1e4, 6)
    for quantity in (POSITION_INTEGRAL, VELOCITY_INTEGRAL):
        curve = compute_msd_curve(ctx, times, quantity)
        err, val = np.array(curve.error), np.array(curve.values)
        assert err.shape == val.shape
        assert np.all(err > 0) and np.all(err < 1e-6 * val)


def test_curve_with_one_failing_row_raises():
    # at 12 subdivisions a segment of the t = 1e5 row runs out, as it does
    # when that time is evaluated alone; the rest of the curve converges
    base = parse_config((CONFIGS / "trapped_rouse.json").read_text())
    ctx = SpectralDensityCtx(base.params, base.kernel, QuadConfig(max_subdivisions=12))
    assert msd_x(ctx, 1.0) > 0 and msd_x(ctx, 10.0) > 0
    with pytest.raises(QuadratureError) as alone:
        msd_x(ctx, 1e5)
    with pytest.raises(QuadratureError) as batch:
        compute_msd_curve(ctx, [1.0, 10.0, 1e5])
    assert type(batch.value) is type(alone.value)
    assert batch.value.value == alone.value.value


def test_cauchy_curve_memory_is_bounded():
    # a batched round evaluates r11 at ~8000 frequencies; the Faddeeva route
    # takes them in blocks, so its frequencies x measure-nodes matrices stay
    # small (74 MiB unblocked, under 4 MiB in blocks)
    ctx = trapped_ctx("cauchy:1,1")
    transforms._measure_nodes(ctx.kernel)
    tracemalloc.start()
    try:
        compute_msd_curve(ctx, np.geomspace(100.0, 1e4, 25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
