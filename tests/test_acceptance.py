"""Acceptance suite: one test per exit criterion, printing PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not configurable.
"""

import math
import time

import mpmath as mp
import numpy as np

from gle_spectra import (
    POSITION_INTEGRAL,
    GleParams,
    SpectralDensityCtx,
    abelian_limits,
    cross_cov,
    compute_msd_curve,
    ensemble_msd,
    equipartition_report,
    faddeeva,
    fit_growth_exponent,
    kcos_ksin_grid,
    lyapunov_stationary_cov,
    markovian_embedding,
    msd_v,
    msd_x,
    parse_kernel_spec,
    r11,
    simulate_paths,
    spectral_sample,
    transform,
    var_x0,
    var_v0,
)
from conftest import EQUIPARTITION_PRESETS, TRAPPED

mp.mp.dps = 25


def report(criterion, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert passed, line


def fresh_ctx(spec, params=TRAPPED):
    return SpectralDensityCtx(params, parse_kernel_spec(spec))


def clear_caches():
    from gle_spectra import moments, transforms

    moments._r11_integral.cache_clear()
    moments._r22_integral.cache_clear()
    transforms._measure_nodes.cache_clear()


def test_criterion_1_equipartition_trapped():
    clear_caches()
    worst = 0.0
    for spec in EQUIPARTITION_PRESETS:
        t0 = time.perf_counter()
        rep = equipartition_report(fresh_ctx(spec))
        elapsed = time.perf_counter() - t0
        dev = max(abs(rep.gamma_x_ratio - 1.0), abs(rep.m_v_ratio - 1.0))
        worst = max(worst, dev)
        report(
            1,
            dev <= 1e-3 and elapsed < 10.0,
            f"{spec}: gamma*E[x^2]/kbt = {rep.gamma_x_ratio:.6f}, "
            f"m*E[v^2]/kbt = {rep.m_v_ratio:.6f} (tol 1e-3), {elapsed:.2f}s < 10s",
        )
    print(f"criterion 1 worst deviation: {worst:.2e}")


def test_criterion_2_equipartition_free():
    clear_caches()
    for spec in EQUIPARTITION_PRESETS:
        for m in (1.0, 2.0):
            params = GleParams(m=m, lam=1.0, beta=1.0, gamma=0.0, kbt=1.0)
            t0 = time.perf_counter()
            rep = equipartition_report(fresh_ctx(spec, params))
            elapsed = time.perf_counter() - t0
            report(
                2,
                abs(rep.m_v_ratio - 1.0) <= 1e-3 and elapsed < 10.0,
                f"{spec}, m={m}: m*E[v^2]/kbt = {rep.m_v_ratio:.6f} "
                f"(tol 1e-3), {elapsed:.2f}s < 10s",
            )


def test_criterion_3_growth_exponents():
    t0 = time.perf_counter()
    times = np.geomspace(1e2, 1e4, 25)
    cases = [
        ("rouse:[1,2]", 1.00, 0.03),
        ("powerlaw:0.5", 1.50, 0.05),
        ("powerlaw:0.3", 1.70, 0.05),
    ]
    for spec, target, tol in cases:
        curve = compute_msd_curve(fresh_ctx(spec), times)
        fit = fit_growth_exponent(curve, (1e2, 1e4), "pure_power")
        report(
            3,
            abs(fit.exponent - target) <= tol,
            f"{spec}: fitted exponent {fit.exponent:.3f} = {target} +- {tol}",
        )
    curve = compute_msd_curve(fresh_ctx("one-plus-t-inverse"), times)
    t_last, v_last = curve.window(1e3, 1e4)
    ratios = v_last / (t_last * np.log(t_last))
    drift = (ratios.max() - ratios.min()) / ratios.mean()
    report(
        3,
        drift < 0.10,
        f"one-plus-t-inverse: t*log(t) ratio drift {drift:.3f} < 0.10 over last decade",
    )
    elapsed = time.perf_counter() - t0
    report(3, elapsed < 60.0, f"total runtime {elapsed:.1f}s < 60s")


def test_criterion_4_velocity_integral_saturation():
    grid = np.geomspace(1.0, 1e6, 25)
    for spec in EQUIPARTITION_PRESETS:
        ctx = fresh_ctx(spec)
        target = 2.0 * var_x0(ctx)
        ratios = np.array([msd_v(ctx, t) / target for t in grid])
        in_band = np.abs(ratios - 1.0) <= 0.01
        entered = np.where(
            [in_band[i:].all() for i in range(grid.size)]
        )[0]
        t_star = grid[entered[0]] if entered.size else None
        report(
            4,
            t_star is not None,
            f"{spec}: msd_v/(2 var_x) in [0.99, 1.01] for all t >= T* = "
            f"{t_star:.3g}" if t_star is not None else f"{spec}: band never entered",
        )


def test_criterion_5_orthogonality(rng):
    # E[Int x Int v] vanishes because r11 is even: the +-w halves of its
    # frequency integral cancel pointwise
    specs = list(EQUIPARTITION_PRESETS)
    cases = [(specs[i % len(specs)], rng.uniform(0.1, 50.0)) for i in range(10)]
    w = np.geomspace(1e-8, 50.0, 200)
    worst = 0.0
    for spec, t in cases:
        ctx = fresh_ctx(spec)
        worst = max(worst, abs(cross_cov(ctx, t)), np.abs(r11(ctx, w) - r11(ctx, -w)).max())
    report(
        5,
        worst == 0.0,
        f"cross_cov = 0 and r11(-w) = r11(w) at 200 w in [1e-8, 50]: max |difference| = "
        f"{worst:.2e} over 10 random (kernel, t) cases",
    )


def test_criterion_6_abelian_limits():
    w = 1e-4
    # integrable class: Kcos(w) -> Int K
    for spec in ("rouse:[1,2,4]", "gaussian:1", "cauchy:1,1"):
        kernel = parse_kernel_spec(spec)
        ab = abelian_limits(kernel)
        got = transform(kernel, w).kcos
        ratio = got / ab.predict(w)[0]
        report(
            6,
            abs(ratio - 1.0) <= 0.01,
            f"{spec} (integrable): Kcos(1e-4)/IntK = {ratio:.5f} within 1%",
        )
    # power-law class: w^(1-alpha)-scaled transforms -> oscillatory constants
    for spec in ("powerlaw:0.3", "powerlaw:0.5", "powerlaw:0.7"):
        kernel = parse_kernel_spec(spec)
        ab = abelian_limits(kernel)
        got = transform(kernel, w)
        pc, ps = ab.predict(w)
        rc, rs = got.kcos / pc, got.ksin / ps
        report(
            6,
            abs(rc - 1.0) <= 0.01 and abs(rs - 1.0) <= 0.01,
            f"{spec} (power law): Kcos ratio {rc:.6f}, Ksin ratio {rs:.6f} within 1%",
        )
    # critical class: Ksin(0+) -> c1 pi/2 carries the 1% check; the Kcos
    # log-rate converges only like 1/|log w| and is verified as a trend
    kernel = parse_kernel_spec("one-plus-t-inverse")
    ksin_ratio = transform(kernel, w).ksin / (0.5 * math.pi)
    report(
        6,
        abs(ksin_ratio - 1.0) <= 0.01,
        f"one-plus-t-inverse (critical): Ksin(1e-4)/(pi/2) = {ksin_ratio:.5f} within 1%",
    )
    rates = [
        transform(kernel, wi).kcos / abs(math.log(wi)) for wi in (1e-2, 1e-3, 1e-4)
    ]
    trend = abs(rates[2] - 1.0) < abs(rates[0] - 1.0) and 0.85 < rates[2] < 1.0
    report(
        6,
        trend,
        f"one-plus-t-inverse (critical): Kcos/(c1|log w|) = "
        f"{rates[0]:.4f} -> {rates[2]:.4f}, converging toward 1 "
        f"(logarithmic rate; 1% not reachable at w=1e-4)",
    )


def test_criterion_7_route_equivalence():
    grid = np.geomspace(1e-3, 1e3, 31)
    for spec in EQUIPARTITION_PRESETS + ("one-plus-t-inverse",):
        kernel = parse_kernel_spec(spec)
        measure_route = (
            "phi_t2_faddeeva" if spec.startswith(("gaussian", "cauchy")) else "cm_measure"
        )
        mc, ms = kcos_ksin_grid(kernel, grid, route=measure_route)
        nc, ns = kcos_ksin_grid(kernel, grid, route="numeric")
        # gaussian/cauchy cosine transforms decay exponentially; past ~1e-5 of
        # the grid's dominant magnitude the oscillatory oracle is limited by
        # double-precision cancellation of O(1) half-period cells, so there
        # agreement is asserted absolutely at 1e-10 of that magnitude
        floor_c, floor_s = 1e-10 * np.abs(mc).max(), 1e-10 * np.abs(ms).max()
        ok_c = (np.abs(mc - nc) <= 1e-6 * np.abs(nc)) | (np.abs(mc - nc) <= floor_c)
        ok_s = (np.abs(ms - ns) <= 1e-6 * np.abs(ns)) | (np.abs(ms - ns) <= floor_s)
        live = np.abs(mc) > 1e-5 * np.abs(mc).max()
        rel = np.max(np.abs(mc[live] - nc[live]) / np.abs(nc[live]))
        report(
            7,
            bool(ok_c.all() and ok_s.all()),
            f"{spec}: {measure_route} vs numeric on 31-point grid [1e-3, 1e3], "
            f"max live rel diff {rel:.2e} <= 1e-6",
        )


def test_criterion_8_special_functions(rng):
    r = 5.0 * np.sqrt(rng.random(1000))
    th = 2.0 * np.pi * rng.random(1000)
    z = r * np.exp(1j * th)
    ours = faddeeva(z)
    ref = np.array(
        [complex(mp.e ** (-mp.mpc(zi) ** 2) * mp.erfc(-1j * mp.mpc(zi))) for zi in z]
    )
    rel = (np.abs(ours - ref) / np.abs(ref)).max()
    report(
        8,
        rel < 1e-10,
        f"faddeeva vs series/continued-fraction oracle: max rel err {rel:.2e} "
        f"< 1e-10 on 1000 points |z| <= 5",
    )
    theta = np.linspace(-math.pi / 8 + 1e-3, 9 * math.pi / 8 - 1e-3, 600)
    sup = [
        np.abs((rr * np.exp(1j * theta)) * faddeeva(rr * np.exp(1j * theta))).max()
        for rr in (10.0, 100.0, 1000.0)
    ]
    report(
        8,
        sup[0] >= sup[1] >= sup[2] and sup[0] < 1.0,
        f"sector bound: sup |z w(z)| = {sup[0]:.4f}, {sup[1]:.4f}, {sup[2]:.4f} "
        f"non-increasing over r = 10, 1e2, 1e3",
    )


def test_criterion_9_monte_carlo_consistency():
    t0 = time.perf_counter()
    params = TRAPPED
    sde = markovian_embedding(params, parse_kernel_spec("rouse:1").bernstein())
    cov = lyapunov_stationary_cov(sde)
    n_paths = 10_000
    ens = simulate_paths(sde, dt=0.1, t_max=100.0, n_paths=n_paths, seed=2024)
    v = ens.column("v")[:, -1]
    var_v = v.var(ddof=1)
    se = (params.kbt / params.m) * math.sqrt(2.0 / (n_paths - 1))
    ok_theory = abs(var_v - params.kbt / params.m) < 3.0 * se
    ok_lyap = abs(var_v - cov[1, 1]) < 3.0 * se
    report(
        9,
        ok_theory and ok_lyap,
        f"sample Var(v) = {var_v:.4f} within 3 SE ({3 * se:.4f}) of kbt/m = 1 "
        f"and of Lyapunov {cov[1, 1]:.6f}",
    )
    curve = ensemble_msd(ens, POSITION_INTEGRAL)
    ctx = fresh_ctx("rouse:1")
    worst = 0.0
    for target in (1.0, 3.16, 10.0, 31.6, 100.0):
        i = int(np.argmin(np.abs(np.asarray(curve.times) - target)))
        t = curve.times[i]
        rel = abs(curve.values[i] / msd_x(ctx, t) - 1.0)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(
        9,
        worst < 0.05 and elapsed < 300.0,
        f"ensemble MSD vs quadrature on t in [1, 100]: max rel dev "
        f"{worst:.3f} < 0.05; runtime {elapsed:.0f}s < 300s",
    )


def test_criterion_10_spectral_sampler():
    ctx = fresh_ctx("rouse:1")
    n_paths = 10_000
    ens = spectral_sample(ctx, 1.0, 0.5, n_paths, seed=99)  # the one time 0
    x0 = ens.column("x")[:, 0]
    v0 = ens.column("v")[:, 0]
    vx, vv = var_x0(ctx), var_v0(ctx)
    se_var = vx * math.sqrt(2.0 / (n_paths - 1))
    se_cov = math.sqrt(vx * vv / n_paths)
    dev_var = abs(x0.var(ddof=1) - vx)
    dev_cov = abs(float(np.cov(x0, v0)[0, 1]))
    report(
        10,
        dev_var < 3.0 * se_var and dev_cov < 3.0 * se_cov,
        f"spectral sampler at 1e4 paths: |Var(x0) - {vx:.4f}| = {dev_var:.5f} "
        f"< 3 SE = {3 * se_var:.5f}; |Cov(x0, v0)| = {dev_cov:.5f} "
        f"< 3 SE = {3 * se_cov:.5f}",
    )
