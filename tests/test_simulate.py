import json
import math
from pathlib import Path
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from gle_spectra import simulate
from gle_spectra.cli import main, parse_config
from gle_spectra.kernels import kernel_eval
from gle_spectra.quad import integrate_oscillatory
from gle_spectra.spectra import r11, r22, trapped_densities
from gle_spectra import (
    BernsteinMeasure,
    ExpMixture,
    GleParams,
    POSITION_INTEGRAL,
    PronyAccuracyError,
    SdeError,
    SpectralDensityCtx,
    UnrepresentableError,
    VELOCITY_INTEGRAL,
    ensemble_msd,
    lyapunov_stationary_cov,
    markovian_embedding,
    msd_x,
    parse_kernel_spec,
    prony_fit,
    simulate_paths,
    spectral_sample,
    var_v0,
    var_x0,
)
from conftest import SRC_ENV, TRAPPED, free_ctx, trapped_ctx


def test_prony_identity_case():
    fit = prony_fit(parse_kernel_spec("rouse:1"), 1, (1e-2, 1e2))
    assert fit.measure.atoms == ((1.0, 1.0),)
    assert fit.sup_rel_error == 0.0


def test_prony_two_exponential_recovery():
    fit = prony_fit(parse_kernel_spec("rouse:[1,2]"), 2, (1e-2, 1e2))
    assert fit.measure.atoms == ((1.0, 0.5), (0.5, 0.5))
    assert fit.sup_rel_error < 1e-8


def test_prony_powerlaw_two_percent():
    fit = prony_fit(parse_kernel_spec("powerlaw:0.5"), 8, (1e-2, 1e3))
    assert fit.sup_rel_error < 0.02
    assert all(x > 0 and w > 0 for x, w in fit.measure.atoms)
    assert len(fit.measure.atoms) <= 8


@pytest.mark.parametrize("spec, n_atoms, sup", [("powerlaw:0.01", 1, 0.127), ("powerlaw:0.04", 1, 0.0895)])
def test_prony_fits_an_unrepresentable_measure(spec, n_atoms, sup):
    kernel = parse_kernel_spec(spec)
    with pytest.raises(UnrepresentableError):
        kernel.bernstein()
    fit = prony_fit(kernel, 8, (0.1, 100.0))
    assert len(fit.measure.atoms) == n_atoms
    assert fit.sup_rel_error == pytest.approx(sup, abs=5e-4)


def test_prony_solver_failure_is_typed(monkeypatch):
    kernel = parse_kernel_spec("powerlaw:0.5")
    # the iteration cap: this fit takes about 23 simplex iterations, not 9
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_PIVOTS_PER_ROW", 1)
        with pytest.raises(PronyAccuracyError, match="simplex found no optimum") as ei:
            prony_fit(kernel, 8, (0.1, 100.0))
    assert ei.value.achieved == math.inf

    # a singular basis
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(PronyAccuracyError, match="Singular matrix") as ei:
        prony_fit(kernel, 8, (0.1, 100.0))
    assert ei.value.achieved == math.inf


# the bounds are what 25 rounds of reweighted nnls reach on the same rates,
# at the CLI's 8 modes on (0.1, 100); the minimax fit must do no worse
REWEIGHTING_BOUNDS = [
    ("powerlaw:0.5", 2.228e-3),
    ("powerlaw:0.9", 8.895e-3),
    ("powerlaw:0.1", 4.509e-2),
    ("powerlaw:0.98", 1.285e-2),
    ("powerlaw:0.99", 1.322e-2),
    ("cauchy:1.5,1", 1.120e-1),
    ("cauchy:5,1", 6.215e-1),
    ("one-plus-t-inverse", 3.455e-3),
]


@pytest.mark.parametrize("spec, bound", REWEIGHTING_BOUNDS)
def test_prony_minimax_no_worse_than_reweighting(spec, bound):
    fit = prony_fit(parse_kernel_spec(spec), 8, (0.1, 100.0))
    assert 0 < fit.sup_rel_error <= bound
    assert 0 < len(fit.measure.atoms) <= 8
    assert all(x > 0 and w > 0 for x, w in fit.measure.atoms)


def _linprog_fit(kernel, n_modes, t_range):
    """Sup-relative error and atom count of the reference fit: the same
    linear program on the same rates, grid and unit columns, by HiGHS."""
    ts = np.geomspace(*t_range, 700)
    kv = kernel_eval(kernel, ts)
    rates = np.geomspace(0.3 / t_range[1], 1.5 / t_range[0], n_modes)
    design = np.exp(-np.outer(ts, rates)) / kv[:, None]
    scale = design.max(axis=0)
    design /= scale
    ones = np.ones((ts.size, 1))
    lp = linprog(
        np.append(np.zeros(n_modes), 1.0),
        A_ub=np.block([[design, -ones], [-design, -ones]]),
        b_ub=np.concatenate([np.ones(ts.size), -np.ones(ts.size)]),
        method="highs",
    )
    assert lp.status == 0
    weights = lp.x[:n_modes] / scale
    keep = weights > 0
    fitted = np.exp(-np.outer(ts, rates[keep])) @ weights[keep]
    return float(np.max(np.abs(fitted / kv - 1.0))), int(keep.sum())


def _assert_matches_linprog(spec, n_modes, t_range, same_atoms):
    fit = prony_fit(parse_kernel_spec(spec), n_modes, t_range)
    sup, atoms = _linprog_fit(parse_kernel_spec(spec), n_modes, t_range)
    assert fit.sup_rel_error <= sup * (1.0 + 1e-7)
    assert len(fit.measure.atoms) <= n_modes
    assert all(x > 0 and w > 0 for x, w in fit.measure.atoms)
    if same_atoms:
        assert len(fit.measure.atoms) == atoms


@pytest.mark.parametrize(
    "spec", [spec for spec, _ in REWEIGHTING_BOUNDS] + ["powerlaw:0.01", "powerlaw:0.04", "gaussian:0.01"]
)
def test_prony_simplex_matches_linprog(spec):
    _assert_matches_linprog(spec, 8, (0.1, 100.0), same_atoms=True)


@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(0.3, 0.7))
def test_prony_simplex_keeps_linprogs_atoms_on_the_benchmark_range(alpha):
    _assert_matches_linprog(f"powerlaw:{alpha}", 8, (0.1, 100.0), same_atoms=True)


# degenerate optima may keep another support: at powerlaw:0.05 the simplex
# keeps 2 atoms where HiGHS keeps 3, at the same error
@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.01, 0.99),
    t_lo=st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
    decades=st.floats(0.3, 6.0),
    n_modes=st.integers(1, 12),
)
def test_prony_simplex_no_worse_than_linprog(alpha, t_lo, decades, n_modes):
    _assert_matches_linprog(
        f"powerlaw:{alpha}", n_modes, (t_lo, t_lo * 10.0**decades), same_atoms=False
    )


def test_prony_zero_kernel_is_the_degenerate_optimum():
    # no nonnegative sum on the rates beats 0 for this narrow gaussian
    fit = prony_fit(parse_kernel_spec("gaussian:0.01"), 8, (0.1, 100.0))
    assert fit.measure.atoms == ()
    assert fit.sup_rel_error == 1.0


def test_prony_fit_without_skill_keeps_no_atoms(monkeypatch):
    # a solver optimum within _NO_SKILL of the zero kernel's error is
    # reported as the zero kernel, whatever its weights
    monkeypatch.setattr(
        simulate, "_minimax_weights", lambda design: (np.ones(design.shape[1]), 1.0 - 3e-10)
    )
    fit = prony_fit(parse_kernel_spec("powerlaw:0.5"), 8, (0.1, 100.0))
    assert fit.measure.atoms == ()
    assert fit.sup_rel_error == 1.0


def test_prony_fit_where_the_kernel_is_subnormal():
    # K(402) is about 3e-321, so exp(-t x)/K overflows at the window's end:
    # the design is built from logs, and no nonnegative sum beats the zero
    # kernel here
    fit = prony_fit(parse_kernel_spec("gaussian:0.004566"), 8, (0.0071, 402.0))
    assert fit.measure.atoms == ()
    assert fit.sup_rel_error == 1.0


def test_prony_exact_atoms_where_the_kernel_underflows():
    # exp(-t) underflows to 0 past t ~ 745, and the atoms with it; the
    # suite turns the warning of a 0/0 into an error
    fit = prony_fit(parse_kernel_spec("rouse:1"), 8, (1.0, 1000.0))
    assert fit.measure.atoms == ((1.0, 1.0),)
    assert fit.sup_rel_error == 0.0


def test_prony_accuracy_bound_enforced():
    with pytest.raises(PronyAccuracyError) as ei:
        prony_fit(parse_kernel_spec("powerlaw:0.5"), 2, (1e-2, 1e3), rtol=0.01)
    assert ei.value.achieved > 0.01


def test_embedding_shapes_and_stability():
    sde = markovian_embedding(TRAPPED, parse_kernel_spec("rouse:1").bernstein())
    assert sde.dim() == 3
    assert sde.labels == ("x", "v", "u1")
    assert sde.is_stable()


def test_embedding_rejects_a_phi_measure():
    # the atoms of a phi(t^2) kernel's measure describe phi, not the kernel
    with pytest.raises(SdeError, match="phi"):
        markovian_embedding(TRAPPED, parse_kernel_spec("gaussian:1").bernstein())


def test_embedding_classical_langevin():
    sde = markovian_embedding(TRAPPED, BernsteinMeasure(atoms=()))
    assert sde.dim() == 2
    cov = lyapunov_stationary_cov(sde)
    assert cov[0, 0] == pytest.approx(TRAPPED.kbt / TRAPPED.gamma, rel=1e-12)
    assert cov[1, 1] == pytest.approx(TRAPPED.kbt / TRAPPED.m, rel=1e-12)


def test_embedding_free_particle():
    params = GleParams(m=1.0, lam=1.0, beta=1.0, gamma=0.0, kbt=1.0)
    sde = markovian_embedding(params, parse_kernel_spec("rouse:[1,2]").bernstein())
    assert sde.labels[0] == "v"
    cov = lyapunov_stationary_cov(sde)
    assert cov[0, 0] == pytest.approx(1.0, rel=1e-10)


def test_embedding_rejects_bad_atoms():
    with pytest.raises((SdeError, ValueError)):
        markovian_embedding(TRAPPED, BernsteinMeasure(atoms=((-1.0, 1.0),)))


def test_embedding_zero_temperature():
    params = GleParams(m=1.0, lam=1.0, beta=1.0, gamma=2.0, kbt=0.0)
    sde = markovian_embedding(params, parse_kernel_spec("rouse:1").bernstein())
    assert np.all(sde.noise == 0.0)
    assert np.abs(lyapunov_stationary_cov(sde)).max() == 0.0


def test_lyapunov_equipartition_structure():
    # ratios independent of atom count, placement and coupling strength
    for spec, beta in (("rouse:[1,2,4]", 1.0), ("rouse:[0.3,2,7,11]", 3.7)):
        params = GleParams(m=1.4, lam=0.6, beta=beta, gamma=2.3, kbt=1.9)
        sde = markovian_embedding(params, parse_kernel_spec(spec).bernstein())
        cov = lyapunov_stationary_cov(sde)
        assert params.gamma * cov[0, 0] / params.kbt == pytest.approx(1.0, abs=1e-8)
        assert params.m * cov[1, 1] / params.kbt == pytest.approx(1.0, abs=1e-8)


# trapped, free, at zero temperature and under-damped (lam 0, gamma 50),
# where scipy's Lyapunov solver is off by 3e-12 and the closed form is exact
GIBBS_CASES = {
    "trapped": (GleParams(m=1.4, lam=0.6, beta=3.7, gamma=2.3, kbt=1.9), "rouse:[0.3,2,7,11]"),
    "free": (GleParams(m=1.0, lam=1.0, beta=1.0, gamma=0.0, kbt=1.0), "rouse:[1,2,4]"),
    "kbt-0": (GleParams(m=1.0, lam=1.0, beta=1.0, gamma=2.0, kbt=0.0), "rouse:[1,2]"),
    "under-damped": (GleParams(m=1.0, lam=0.0, beta=1.0, gamma=50.0, kbt=1.0), "rouse:[1,2,4]"),
}


@pytest.mark.parametrize("case", sorted(GIBBS_CASES))
def test_gibbs_covariance_solves_the_lyapunov_equation(case):
    from scipy import linalg

    params, spec = GIBBS_CASES[case]
    kernel = parse_kernel_spec(spec)
    sde = markovian_embedding(params, kernel.bernstein())
    cov = lyapunov_stationary_cov(sde)
    _, weights = kernel.bernstein().nodes()
    gibbs = [params.kbt / params.m, *(params.beta * params.kbt * weights)]
    if params.trapped:
        gibbs.insert(0, params.kbt / params.gamma)
    assert np.array_equal(cov, np.diag(gibbs))
    q = sde.noise @ sde.noise.T
    scale = max(np.abs(q).max(), np.abs(cov).max(), 1e-300)
    assert np.abs(sde.drift @ cov + cov @ sde.drift.T + q).max() <= 1e-15 * scale
    solved = linalg.solve_continuous_lyapunov(sde.drift, -q)
    assert np.abs(solved - cov).max() <= 1e-11 * scale


def test_lyapunov_unstable_rejected():
    # undamped oscillator: lam = 0, no memory atoms
    params = GleParams(m=1.0, lam=0.0, beta=1.0, gamma=2.0, kbt=1.0)
    sde = markovian_embedding(params, BernsteinMeasure(atoms=()))
    with pytest.raises(SdeError):
        lyapunov_stationary_cov(sde)


def _one_atom_sde():
    return markovian_embedding(TRAPPED, parse_kernel_spec("rouse:1").bernstein())


def test_simulate_deterministic():
    sde = _one_atom_sde()
    a = simulate_paths(sde, dt=0.1, t_max=5.0, n_paths=50, seed=42)
    b = simulate_paths(sde, dt=0.1, t_max=5.0, n_paths=50, seed=42)
    assert np.array_equal(a.data, b.data)
    c = simulate_paths(sde, dt=0.1, t_max=5.0, n_paths=50, seed=43)
    assert not np.array_equal(a.data, c.data)


def test_simulate_paths_stream_layout():
    # one SFC64 stream: the initial states take the first n_paths * dim
    # normals, then each step the next n_paths * n_noise, path-major
    sde = markovian_embedding(TRAPPED, parse_kernel_spec("rouse:[1,2]").bernstein())
    ens = simulate_paths(sde, dt=0.1, t_max=2.0, n_paths=5, seed=11)
    cov0 = lyapunov_stationary_cov(sde)
    prop = simulate._expm(sde.drift * 0.1)
    lstep = simulate._sqrt_psd(cov0 - prop @ cov0 @ prop.T)
    rng = simulate._stream(11)
    states = rng.standard_normal((5, sde.dim())) * np.sqrt(np.diag(cov0))
    want = [states[:, :2]]
    for _ in range(20):
        states = states @ prop.T + rng.standard_normal((5, lstep.shape[1])) @ lstep.T
        want.append(states[:, :2])
    assert ens.labels == ("x", "v") and ens.times.size == 21
    assert np.array_equal(ens.data, np.stack(want, axis=1))


def test_expm_of_a_critically_damped_trap():
    # gamma/m = lam^2/(4 m^2): one defective eigenvalue mu, where the
    # propagator is exp(mu t) (I + (A - mu I) t) and eigenvectors fail
    params = GleParams(m=1.0, lam=2.0, beta=1.0, gamma=1.0, kbt=1.0)
    drift = markovian_embedding(params, BernsteinMeasure(atoms=())).drift
    for dt in (0.01, 0.5, 20.0):
        want = math.exp(-dt) * (np.eye(2) + (drift + np.eye(2)) * dt)
        got = simulate._expm(drift * dt)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), dt


@st.composite
def _scaled_drifts(draw):
    """Embedding drifts times dt, trapped (critically damped among them),
    free or without friction, at 1-norms from 1e-3 to 1e3."""
    n = draw(st.integers(1, 12))
    logs = st.floats(-2.0, 2.0)
    atoms = tuple((10.0 ** draw(logs), 10.0 ** draw(logs) / 10.0) for _ in range(n))
    m = 10.0 ** draw(st.floats(-0.7, 0.7))
    lam = draw(st.sampled_from([0.0, 10.0 ** draw(st.floats(-1.0, 1.0))]))
    gamma = draw(st.sampled_from(["free", "critical", "trapped"]))
    gamma = {"free": 0.0, "critical": lam * lam / (4.0 * m)}.get(gamma, 10.0 ** draw(logs))
    params = GleParams(m=m, lam=lam, beta=10.0 ** draw(st.floats(-1.0, 0.6)), gamma=gamma, kbt=1.0)
    drift = markovian_embedding(params, BernsteinMeasure(atoms=atoms)).drift
    norm = 10.0 ** draw(st.floats(-3.0, 3.0))
    return drift * (norm / np.abs(drift).sum(axis=0).max()), norm


@settings(max_examples=60, deadline=None)
@given(_scaled_drifts())
def test_expm_matches_scipy(case):
    # up to 1e3/_THETA13, 8 squarings; past a 1-norm of 1 both lose digits
    # in proportion to it (the worst of 20000 draws was 7e-14 of it)
    from scipy import linalg

    a, norm = case
    want = linalg.expm(a)
    got = simulate._expm(a)
    assert np.abs(got - want).max() <= 5e-13 * max(1.0, norm) * np.abs(want).max()


def test_simulate_empty_ensemble():
    sde = _one_atom_sde()
    ens = simulate_paths(sde, dt=0.1, t_max=1.0, n_paths=0, seed=0)
    assert ens.data.shape[0] == 0


def test_simulate_zero_noise_msd():
    params = GleParams(m=1.0, lam=1.0, beta=1.0, gamma=2.0, kbt=0.0)
    sde = markovian_embedding(params, parse_kernel_spec("rouse:1").bernstein())
    ens = simulate_paths(sde, dt=0.1, t_max=5.0, n_paths=20, seed=0)
    curve = ensemble_msd(ens, POSITION_INTEGRAL)
    assert np.max(np.abs(curve.values)) == 0.0


@pytest.mark.parametrize("quantity", ["x_integral", "v_integral", "x"])
def test_ensemble_msd_takes_one_spelling(quantity):
    ens = simulate_paths(_one_atom_sde(), dt=0.1, t_max=1.0, n_paths=3, seed=0)
    with pytest.raises(ValueError, match="unknown quantity"):
        ensemble_msd(ens, quantity)


def test_ensemble_msd_works_in_place():
    # one work array gives the bits of increments, cumulative sums and
    # squares built one after another, on an uneven grid
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.uniform(0.05, 0.2, 30))
    ens = simulate.Ensemble(times=times, data=rng.standard_normal((7, 30, 2)), labels=("x", "v"))
    for quantity, label in ((POSITION_INTEGRAL, "x"), (VELOCITY_INTEGRAL, "v")):
        y = ens.column(label)
        sq = np.cumsum(0.5 * (y[:, 1:] + y[:, :-1]) * np.diff(times), axis=1) ** 2
        curve = ensemble_msd(ens, quantity)
        assert np.array_equal(curve.values, sq.mean(axis=0))
        assert np.array_equal(curve.stderr, sq.std(axis=0, ddof=1) / math.sqrt(7))


def test_sample_variance_matches_lyapunov():
    sde = _one_atom_sde()
    cov = lyapunov_stationary_cov(sde)
    ens = simulate_paths(sde, dt=0.1, t_max=10.0, n_paths=4000, seed=9)
    v = ens.column("v")[:, -1]
    se = cov[1, 1] * math.sqrt(2.0 / (v.size - 1))
    assert abs(v.var(ddof=1) - cov[1, 1]) < 3.0 * se


def test_embedding_spectral_matrix_matches_densities():
    # the spectral matrix S = (A - iw)^-1 B B^T (A - iw)^-H of the embedding
    # is kbt times the densities of the kernel it embeds: r11, r22 and i Im r12
    # on (x, v) in a trap, r22 on v for the free particle
    surrogate = ExpMixture(prony_fit(parse_kernel_spec("powerlaw:0.5"), 8, (0.1, 100.0)).measure)
    assert len(surrogate.measure.atoms) == 8
    kernels = (parse_kernel_spec("rouse:1"), parse_kernel_spec("rouse:[1,2,3]"), surrogate)
    omegas = np.array([0.05, 0.3, 1.0, 3.0, 20.0])
    for kernel in kernels:
        for m, lam, beta, gamma, kbt in ((1.0, 1.0, 1.0, 2.0, 1.0), (1.4, 0.6, 3.7, 2.3, 1.9)):
            for trapped in (True, False):
                params = GleParams(m=m, lam=lam, beta=beta, gamma=gamma if trapped else 0.0, kbt=kbt)
                sde = markovian_embedding(params, kernel.bernstein())
                ctx = SpectralDensityCtx(params, kernel)
                eye = np.eye(sde.dim())
                if trapped:
                    want = kbt * np.array(trapped_densities(ctx, omegas))
                else:
                    want = kbt * r22(ctx, omegas)[None, :]
                for i, w in enumerate(omegas):
                    res = np.linalg.inv(sde.drift - 1j * w * eye)
                    s = res @ sde.noise @ sde.noise.T @ res.conj().T
                    if trapped:
                        got = (s[0, 0], s[1, 1], -1j * s[1, 0])
                    else:
                        got = (s[0, 0],)
                    for g, wv in zip(got, want[:, i]):
                        assert abs(g - wv) <= 1e-12 * abs(wv), (kernel, params, w)


def test_ensemble_msd_matches_quadrature():
    sde = _one_atom_sde()
    ens = simulate_paths(sde, dt=0.05, t_max=50.0, n_paths=3000, seed=21)
    curve = ensemble_msd(ens, POSITION_INTEGRAL)
    ctx = trapped_ctx("rouse:1")
    for target in (2.0, 10.0, 50.0):
        i = int(np.argmin(np.abs(np.asarray(curve.times) - target)))
        assert curve.values[i] == pytest.approx(msd_x(ctx, curve.times[i]), rel=0.08)


def test_ensemble_msd_v_saturates_to_2varx():
    sde = _one_atom_sde()
    cov = lyapunov_stationary_cov(sde)
    ens = simulate_paths(sde, dt=0.05, t_max=60.0, n_paths=3000, seed=22)
    curve = ensemble_msd(ens, VELOCITY_INTEGRAL)
    tail = np.asarray(curve.values)[np.asarray(curve.times) > 30.0]
    assert tail.mean() == pytest.approx(2.0 * cov[0, 0], rel=0.1)


def test_spectral_sampler_moments():
    ctx = trapped_ctx("rouse:1")
    ens = spectral_sample(ctx, 1.0, 0.5, 8000, seed=3)  # the one time 0
    x0 = ens.column("x")[:, 0]
    v0 = ens.column("v")[:, 0]
    vx, vv = var_x0(ctx), var_v0(ctx)
    assert abs(x0.var(ddof=1) - vx) < 3.0 * vx * math.sqrt(2.0 / (x0.size - 1))
    assert abs(v0.var(ddof=1) - vv) < 3.0 * vv * math.sqrt(2.0 / (v0.size - 1))
    se_cov = math.sqrt(vx * vv / x0.size)
    assert abs(np.cov(x0, v0)[0, 1]) < 3.0 * se_cov


def test_spectral_grid_discretization_bias():
    # the FFT bins hold the whole spectral mass, alias images and the w^-2
    # tail of r22 included
    ctx = trapped_ctx("rouse:1")
    a, b, d = simulate._bin_blocks(ctx, 1001, 0.1)
    assert a.sum() == pytest.approx(var_x0(ctx), rel=1e-9)
    assert d.sum() == pytest.approx(var_v0(ctx), rel=1e-9)
    assert abs(b.sum()) < 1e-12


def test_spectral_sampler_zero_temperature():
    ctx = trapped_ctx("rouse:1", kbt=0.0)
    ens = spectral_sample(ctx, 1.0, 1.0, 10, seed=0)
    assert np.all(ens.data == 0.0)


def test_spectral_sampler_free_particle_rejected():
    from gle_spectra import TransformDomainError

    ctx = free_ctx("rouse:1")
    for dt, t_max in ((1.0, 0.5), (0.5, 1.0)):
        with pytest.raises(TransformDomainError):
            spectral_sample(ctx, dt, t_max, 5, seed=0)


def _drawn_blocks(monkeypatch):
    """The block sizes of each sampler call from here on, one list a call."""
    calls, prefetched = [], simulate._prefetched

    def spy(rng, shape, sizes):
        calls.append(list(sizes))
        return prefetched(rng, shape, sizes)

    monkeypatch.setattr(simulate, "_prefetched", spy)
    return calls


def test_simulate_time_blocks_bitwise(monkeypatch):
    # noise drawn a few steps at a time is the same stream as one draw
    sde = _one_atom_sde()
    blocks = _drawn_blocks(monkeypatch)
    whole = simulate_paths(sde, dt=0.1, t_max=5.0, n_paths=12, seed=4)
    # 3 steps x 12 paths x (2 noise buffers x 3 noises + 2 x 2 observables + 1)
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", 3 * 8 * 12 * 11)
    split = simulate_paths(sde, dt=0.1, t_max=5.0, n_paths=12, seed=4)
    assert blocks == [[50], [3] * 16 + [2]]
    assert np.array_equal(whole.data, split.data)


class _SinkError(Exception):
    pass


class _FailingSink:
    """A sink whose second add raises its ``error``."""

    def open(self, times, labels, n_paths):
        self.adds, self.error = 0, _SinkError()

    def add(self, paths, first_path, first_time):
        self.adds += 1
        if self.adds == 2:
            raise self.error


@pytest.mark.parametrize("method", ["markovian", "spectral"])
def test_sampler_error_leaves_no_thread(method, monkeypatch):
    # one step or pair a block: the raise comes with the next block's draw
    # under way, and the helper thread ends before the error propagates
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", 1)
    before, sink = set(threading.enumerate()), _FailingSink()
    with pytest.raises(_SinkError) as caught:
        if method == "markovian":
            simulate_paths(_one_atom_sde(), 0.1, 5.0, 6, seed=2, sink=sink)
        else:
            spectral_sample(trapped_ctx("rouse:1"), *GRID, 9, seed=2, sink=sink)
    assert caught.value is sink.error and caught.value.__context__ is None
    assert set(threading.enumerate()) == before


def test_one_time_grids_start_no_idle_thread(monkeypatch):
    # t_max < dt: the Markovian sampler takes no step and draws no block;
    # the spectral sampler draws its one block of pairs
    from concurrent.futures import ThreadPoolExecutor

    submits, submit = [], ThreadPoolExecutor.submit
    monkeypatch.setattr(ThreadPoolExecutor, "submit",
                        lambda pool, *args: submits.append(args) or submit(pool, *args))
    before = threading.active_count()
    sde = _one_atom_sde()
    ens = simulate_paths(sde, dt=1.0, t_max=0.5, n_paths=5, seed=3)
    initial = simulate._stream(3).standard_normal((5, sde.dim())) * np.sqrt(sde.stationary_var)
    assert ens.times.tolist() == [0.0] and np.array_equal(ens.data[:, 0], initial[:, :2])
    assert not submits and threading.active_count() == before
    ens = spectral_sample(trapped_ctx("rouse:1"), 1.0, 0.5, 5, seed=3)
    assert ens.data.shape == (5, 1, 2) and len(submits) == 1
    assert threading.active_count() == before


def _dense_spectral_paths(ctx, dt, t_max, n_paths, seed):
    """The bins x times sum of the sampler's normals, each pair of
    complex normals of a bin of the embedded circulant scaled by numpy's
    Cholesky factor of its block."""
    t = simulate.sample_times(dt, t_max)
    a, b, d = simulate._embedded_blocks(ctx, t.size, dt)
    blocks = np.stack([np.stack([a, -1j * b], -1), np.stack([1j * b, d], -1)], -2)
    factor = np.linalg.cholesky(blocks)
    pairs = -(-n_paths // 2)
    rng = simulate._stream(seed)
    z = rng.standard_normal((pairs, 2, 2 * a.size)).view(complex)
    amplitudes = np.einsum("mij,pjm->pim", factor, z)
    lags = np.arange(t.size) % a.size
    phases = np.exp(2j * math.pi * np.outer(np.arange(a.size), lags) / a.size)
    sums = amplitudes @ phases  # pairs x (x, v) x times
    paths = np.stack([sums.real, sums.imag], axis=1).reshape(2 * pairs, 2, t.size)
    return paths[:n_paths, 0], paths[:n_paths, 1]


# times 0 .. 19.9 step 0.1: M = 8 * 199 = 1592 bins of width h = 2 pi/(M dt),
# drawn on the L = 2 * 200 = 400 bins of their embedding
GRID = (0.1, 19.9)


@pytest.mark.parametrize("block_bytes", [None, 1 << 16])
def test_spectral_sampler_matches_dense_sum(block_bytes, monkeypatch):
    # the small budget, under two pairs of 160 bytes a bin on 400 bins,
    # draws one pair of the 9 paths a block
    if block_bytes:
        monkeypatch.setattr(simulate, "_BLOCK_BYTES", block_bytes)
    ctx = trapped_ctx("powerlaw:0.5")
    blocks = _drawn_blocks(monkeypatch)
    ens = spectral_sample(ctx, *GRID, 9, seed=17)
    assert blocks == [[1] * 5 if block_bytes else [5]]
    assert ens.times.size == 200
    x_ref, v_ref = _dense_spectral_paths(ctx, *GRID, 9, seed=17)
    for got, ref in ((ens.column("x"), x_ref), (ens.column("v"), v_ref)):
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


@pytest.mark.parametrize(
    "dt, t_max",
    [
        (1.0, 0.5),  # one time: lag 0, one bin
        (1.5, 21.0),  # dt = 1.5: frequencies above pi/dt fold onto the bins below
    ],
    ids=["one-time", "folded"],
)
def test_spectral_sampler_grids_match_dense_sum(dt, t_max):
    ctx = trapped_ctx("powerlaw:0.5")
    ens = spectral_sample(ctx, dt, t_max, 5, seed=23)
    x_ref, v_ref = _dense_spectral_paths(ctx, dt, t_max, 5, seed=23)
    for got, ref in ((ens.column("x"), x_ref), (ens.column("v"), v_ref)):
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


def test_spectral_sampler_blocks_bitwise(monkeypatch):
    # pair p takes its own slice of the stream, whatever the block
    ctx = trapped_ctx("rouse:1")
    blocks = _drawn_blocks(monkeypatch)
    whole = spectral_sample(ctx, *GRID, 9, seed=4)
    # 3 pairs x 2 x 80 bytes a bin on 400 bins
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", 3 * 160 * 400)
    split = spectral_sample(ctx, *GRID, 9, seed=4)
    assert blocks == [[5], [3, 2]]
    assert np.array_equal(whole.data, split.data)
    assert np.array_equal(spectral_sample(ctx, *GRID, 4, seed=4).data, whole.data[:4])


def test_spectral_sampler_time_direction():
    # E[x(0) v(1)] = C_xx'(1) = -(kbt/pi) Int w r11 sin w dw = -0.383; the
    # time-reversed process reads +0.383
    ctx = trapped_ctx("rouse:1")
    ens = spectral_sample(ctx, 0.1, 10.0, 4000, seed=8)
    prod = ens.column("x")[:, 0] * ens.column("v")[:, 10]
    ref, _ = integrate_oscillatory(lambda w: trapped_densities(ctx, w)[2], 1.0, "sin", 0.0)
    ref *= -ctx.params.kbt / math.pi
    assert ref == pytest.approx(-0.3834, abs=1e-4)
    assert abs(prod.mean() - ref) < 5.0 * prod.std(ddof=1) / math.sqrt(prod.size)


_LAW_CASES = [(spec, dt) for spec in ("rouse:1", "gaussian:1", "powerlaw:0.5") for dt in (0.1, 0.5)]
_LAW_CASES += [(spec, 0.1) for spec in ("powerlaw:0.2", "powerlaw:0.8", "one-plus-t-inverse")]


@pytest.mark.parametrize("spec, dt", _LAW_CASES)
def test_spectral_bins_match_engine_covariances(spec, dt):
    # the law the sampler draws, Gamma(j dt) = sum_m block_m exp(2 pi i m j/M)
    # by one inverse FFT, against the engine's cosine and sine transforms
    ctx = trapped_ctx(spec)
    n = round(100.0 / dt) + 1
    a, b, d = simulate._bin_blocks(ctx, n, dt)
    lags = np.array([1, 10, (n - 1) // 10, (n - 1) // 2, n - 1])
    gxx, gvv = (np.fft.ifft(c, norm="forward").real[lags] for c in (a, d))
    # Cov(x(t + tau), v(t)) = sum_m -i b_m exp(2 pi i m j/M)
    gxv = np.fft.ifft(-1j * b, norm="forward").real[lags]
    vx, vv = var_x0(ctx), var_v0(ctx)
    hint = ctx.kernel.tail_class().exponent
    scale = ctx.params.kbt / math.pi
    taus = lags * dt
    cxx = scale * integrate_oscillatory(lambda w: r11(ctx, w), taus, "cos", 0.0, left_exponent=hint)[0]
    cvv = scale * integrate_oscillatory(lambda w: r22(ctx, w), taus, "cos", 0.0)[0]
    cxv = scale * integrate_oscillatory(lambda w: trapped_densities(ctx, w)[2], taus, "sin", 0.0)[0]
    assert abs(a.sum() - vx) <= 1e-3 * vx and np.abs(gxx - cxx).max() <= 1e-3 * vx
    assert abs(d.sum() - vv) <= 1e-3 * vv and np.abs(gvv - cvv).max() <= 1e-3 * vv
    assert abs(b.sum()) <= 1e-4 * math.sqrt(vx * vv)
    assert np.abs(gxv - cxv).max() <= 1e-4 * math.sqrt(vx * vv)


def _lag_covariances(a, b, d, n):
    """Gamma_xx, Gamma_vv and Gamma_xv of the blocks at lags 0 .. n - 1."""
    return np.fft.ifft(np.stack([a, d, -1j * b]), norm="forward").real[:, :n]


def _assert_embedding_keeps_the_law(ctx, n, dt):
    """The embedded blocks are positive semidefinite and hold the bins'
    covariances at lags 0 .. n - 1 within 1e-12 of the variances; returns
    the number of bins."""
    bins = simulate._bin_blocks(ctx, n, dt)
    a, b, d = simulate._embedded_blocks(ctx, n, dt)
    assert a.min() >= 0.0 and d.min() >= 0.0
    assert np.all(a * d - b * b >= -1e-15 * (a * d).max())
    want, got = _lag_covariances(*bins, n), _lag_covariances(a, b, d, n)
    gxx, gvv = want[0, 0], want[1, 0]
    scales = np.array([gxx, gvv, math.sqrt(gxx * gvv)])
    assert np.all(np.abs(got - want).max(axis=1) <= 1e-12 * scales)
    return a.size


@pytest.mark.parametrize("spec, dt", _LAW_CASES)
def test_embedded_blocks_keep_the_bins_law(spec, dt):
    n = round(100.0 / dt) + 1
    size = _assert_embedding_keeps_the_law(trapped_ctx(spec), n, dt)
    assert size < 8 * (n - 1)


@pytest.mark.parametrize("t_max, size", [(100.0, 2048), (200.0, 4050)])
def test_embedding_takes_a_smooth_length_past_twice_the_times(t_max, size):
    # the M = 8 (n - 1) bins of the benchmark's spectral requests shrink to
    # twice the first 2^i 3^j 5^k >= n: 1024 = 2^10 and 2025 = 3^4 5^2
    n = round(t_max / 0.1) + 1
    a, b, d = simulate._embedded_blocks(trapped_ctx("powerlaw:0.5"), n, 0.1)
    assert a.size == b.size == d.size == size


def test_smooth_length_is_the_first_product_of_2_3_5():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 3000):
        assert simulate._smooth_length(n) == next(m for m in range(n, 2 * n + 1) if smooth(m))


def test_embedding_falls_back_to_the_bins():
    # undamped but for a stiff trap: no circulant below M is positive
    ctx = trapped_ctx("rouse:1", lam=0.0, gamma=50.0)
    n = simulate.sample_times(0.1, 100.0).size
    for got, want in zip(simulate._embedded_blocks(ctx, n, 0.1), simulate._bin_blocks(ctx, n, 0.1)):
        assert np.array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(
    m=st.floats(0.2, 5.0),
    lam=st.floats(0.0, 3.0),
    gamma=st.floats(0.1, 10.0),
    kbt=st.floats(0.1, 5.0),
    spec=st.one_of(
        st.sampled_from(("rouse:1", "rouse:[0.5,4]", "one-plus-t-inverse")),
        st.floats(0.1, 0.9).map(lambda alpha: f"powerlaw:{alpha}"),
    ),
    dt=st.floats(0.05, 1.0),
    n=st.integers(2, 400),
)
def test_embedding_keeps_the_law_of_any_trap(m, lam, gamma, kbt, spec, dt, n):
    _assert_embedding_keeps_the_law(trapped_ctx(spec, m=m, lam=lam, gamma=gamma, kbt=kbt), n, dt)


def test_spectral_bins_reach_long_horizons():
    # t_max 1000 at dt 0.1: 80,000 bins 2 pi/8000 wide, each block positive
    # semidefinite, holding both variances
    ctx = trapped_ctx("powerlaw:0.5")
    a, b, d = simulate._bin_blocks(ctx, 10001, 0.1)
    assert a.size == 80000
    assert np.all(a * d - b * b >= -1e-15 * (a * d).max())
    assert a.sum() == pytest.approx(var_x0(ctx), rel=1e-6)
    assert d.sum() == pytest.approx(var_v0(ctx), rel=1e-6)


@pytest.mark.parametrize("dt, t_max", [
    (0.1, math.inf), (0.1, math.nan), (math.nan, 10.0), (math.inf, 10.0), (0.0, 10.0), (0.1, -1.0),
])
def test_sample_times_rejects_bad_step_or_horizon(dt, t_max):
    ctx = trapped_ctx("rouse:1")
    for sample in (simulate.sample_times, lambda dt, t_max: spectral_sample(ctx, dt, t_max, 4, 0)):
        with pytest.raises(ValueError, match="dt and t_max must be finite and positive"):
            sample(dt, t_max)


def test_spectral_sampler_memory_bounded():
    # the cells x times cos/sin matrices of a dense synthesis trace 875 MiB
    # here; this sampler holds its 16 MB of paths and a block of pairs
    ctx = trapped_ctx("rouse:1")
    tracemalloc.start()
    try:
        spectral_sample(ctx, 0.1, 200.0, 500, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 72 * 2**20


CONFIGS = Path(__file__).parent.parent / "demos" / "configs"


def _cli_simulate(tmp_path, capsys, config, method, n_paths, dt, t_max, seed):
    """The (t, msd, stderr) columns and the summary of one simulate request."""
    out = tmp_path / "msd.csv"
    assert main([
        "simulate", "--config", str(CONFIGS / config), "--method", method,
        "--n-paths", str(n_paths), "--dt", str(dt), "--t-max", str(t_max),
        "--seed", str(seed), "-o", str(out),
    ]) == 0
    rows = [[float(v) for v in ln.split(",")] for ln in out.read_text().splitlines()[1:]]
    return np.array(rows).T, json.loads(capsys.readouterr().out)


def _library_simulate(config, method, n_paths, dt, t_max, seed):
    """The MSD curve and the last-time variances of the request's Ensemble."""
    ctx = parse_config((CONFIGS / config).read_text())
    if method == "markovian":
        fit = prony_fit(ctx.kernel, 8, (dt, max(10.0 * dt, t_max)))
        ens = simulate_paths(markovian_embedding(ctx.params, fit.measure), dt, t_max, n_paths, seed)
    else:
        ens = spectral_sample(ctx, dt, t_max, n_paths, seed)
    quantity = POSITION_INTEGRAL if "x" in ens.labels else VELOCITY_INTEGRAL
    curve = ensemble_msd(ens, quantity)
    var = {lab: float(ens.column(lab)[:, -1].var(ddof=1)) for lab in ens.labels}
    return np.array([curve.times, curve.values, curve.stderr]), var


# 64 paths and 50 steps at 0.1: 3-step blocks end in 2 steps, 7-step blocks
# in one, and 1-step blocks are all one step
@pytest.mark.parametrize("steps", [None, 3, 7, 1], ids=["one-block", "3", "7", "1"])
@pytest.mark.parametrize("config", ["trapped_rouse.json", "free_rouse.json"])
def test_streamed_markovian_statistics_are_the_ensembles(config, steps, tmp_path, capsys,
                                                         monkeypatch):
    # the CLI folds each block of steps of all the paths: the bits of one
    # array of every path, a single final step included (numpy sums one
    # column of 64 paths pairwise, not row by row)
    want, var = _library_simulate(config, "markovian", 64, 0.1, 5.0, seed=6)
    if steps:
        # a step holds dim noises in each of two buffers, the observables
        # and the sink's work
        dim, obs = (3, 2) if config == "trapped_rouse.json" else (4, 1)
        monkeypatch.setattr(simulate, "_BLOCK_BYTES", steps * 8 * 64 * (2 * dim + 2 * obs + 1))
    blocks = _drawn_blocks(monkeypatch)
    got, summary = _cli_simulate(tmp_path, capsys, config, "markovian", 64, 0.1, 5.0, seed=6)
    assert blocks == [{None: [50], 3: [3] * 16 + [2], 7: [7] * 7 + [1], 1: [1] * 50}[steps]]
    assert got.shape == (3, 50) and np.array_equal(got, want)
    assert summary["var_v"] == var["v"] and summary["var_x"] == var.get("x")


# 9 paths, 5 pairs over 200 times on L = 400 bins
@pytest.mark.parametrize("pairs", [None, 2, 1], ids=["one-block", "2", "1"])
def test_streamed_spectral_statistics_are_the_ensembles(pairs, tmp_path, capsys, monkeypatch):
    # blocks of pairs merge by Chan, Golub & LeVeque; one block is bitwise
    want, var = _library_simulate("trapped_rouse.json", "spectral", 9, 0.1, 19.9, seed=5)
    if pairs:
        monkeypatch.setattr(simulate, "_BLOCK_BYTES", pairs * 160 * 400)
    blocks = _drawn_blocks(monkeypatch)
    got, summary = _cli_simulate(tmp_path, capsys, "trapped_rouse.json", "spectral", 9, 0.1,
                                 19.9, seed=5)
    assert blocks == [{None: [5], 2: [2, 2, 1], 1: [1] * 5}[pairs]]
    assert got.shape == (3, 199)
    if pairs:
        assert np.array_equal(got[0], want[0])
        assert np.all(np.abs(got[1:] - want[1:]) <= 1e-13 * np.abs(want[1:]))
    else:
        assert np.array_equal(got, want)
    assert summary["var_v"] == var["v"] and summary["var_x"] == var["x"]


def test_path_statistics_refuse_paths_past_the_memory(monkeypatch):
    # whatever the host grants: 3 doubles a path, 2^16 paths past 1 MiB
    monkeypatch.setattr(simulate, "_physical_bytes", lambda: 1 << 20)
    stats = simulate.PathStatistics(POSITION_INTEGRAL)
    stats.open(np.arange(3.0), ("x", "v"), 1 << 12)
    with pytest.raises(MemoryError, match="65536 paths"):
        stats.open(np.arange(3.0), ("x", "v"), 1 << 16)


def _traced_peak(tmp_path, method, n_paths, t_max):
    argv = ["simulate", "--config", str(CONFIGS / "trapped_rouse.json"), "--method", method,
            "--n-paths", str(n_paths), "--dt", "0.1", "--t-max", str(t_max),
            "-o", str(tmp_path / "msd.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method", ["markovian", "spectral"])
def test_simulate_memory_is_bounded_in_the_paths(method, tmp_path, capsys):
    # the CLI holds a block of paths, O(n_paths) numbers and O(N) per time:
    # holding the 200 paths of 1001 times would take 6 kB a time
    _traced_peak(tmp_path, method, 2, 1.0)  # the imports of a first request
    few = _traced_peak(tmp_path, method, 200, 100.0)
    assert _traced_peak(tmp_path, method, 2000, 100.0) <= 1.1 * few
    # 3000 times more
    assert _traced_peak(tmp_path, method, 200, 400.0) - few <= 1024 * 3000


# every request imports the CLI, so each scipy subpackage it loads adds to
# the set-up time: the package imports scipy where it is used
def _scipy_modules(*argv):
    """scipy modules a fresh interpreter holds after importing the CLI and,
    given argv, running that one request."""
    code = (
        "import contextlib, io, sys\n"
        "from gle_spectra.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(rc, *(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=SRC_ENV,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.split()
    assert out[0] == "0"
    return set(out[1:])


def test_cli_import_loads_no_scipy():
    assert _scipy_modules() == set()


def test_transform_of_an_exponential_kernel_loads_no_scipy():
    assert _scipy_modules("transform", "--kernel", "rouse:1", "--omega", "1,2") == set()


def test_transform_of_the_gaussian_loads_only_special():
    modules = _scipy_modules("transform", "--kernel", "gaussian:1", "--omega", "1,2")
    names = {name.split(".")[1] for name in modules if name.startswith("scipy.")}
    # scipy.version is a module, not a subpackage
    assert {name for name in names if not name.startswith("_")} - {"version"} == {"special"}


@pytest.mark.parametrize(
    "kernel, method",
    [
        ("rouse:1", "markovian"),
        ("rouse:1", "spectral"),
        ("powerlaw:0.5", "markovian"),
        ("powerlaw:0.5", "spectral"),
    ],
    ids=["markovian", "spectral", "markovian-powerlaw", "spectral-powerlaw"],
)
def test_simulate_of_exact_atoms_skips_optimize(tmp_path, kernel, method):
    # a kernel that is its own Prony fit needs no linear program, and the
    # Prony fit of any other is solved in numpy; the Markovian sampler takes
    # Gibbs' covariance and a numpy expm, and powerlaw's Gamma is math's
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"m": 1, "lambda": 1, "beta": 1, "gamma": 2, "kbt": 1, "kernel": kernel}))
    modules = _scipy_modules(
        "simulate", "--config", str(cfg), "--method", method,
        "--n-paths", "4", "--dt", "0.5", "--t-max", "2",
    )
    assert modules == set()
