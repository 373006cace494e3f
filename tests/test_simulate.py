import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import linalg
from scipy.optimize import OptimizeResult

from gle_spectra import simulate
from gle_spectra import (
    BernsteinMeasure,
    GleParams,
    MemoryKernel,
    POSITION_INTEGRAL,
    PronyAccuracyError,
    SamplingGridError,
    SdeError,
    UnrepresentableError,
    VELOCITY_INTEGRAL,
    default_spectral_grid,
    ensemble_msd,
    kernel_eval,
    lyapunov_stationary_cov,
    markovian_embedding,
    msd_x,
    parse_kernel_spec,
    prony_fit,
    r11,
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


def test_prony_propagates_a_fault_in_the_measure():
    # only a GleError from bernstein() selects the fitted surrogate
    class Broken(MemoryKernel):
        def eval(self, t):
            return np.exp(-np.abs(t))

        def bernstein(self):
            raise TypeError("bug in the measure")

    with pytest.raises(TypeError, match="bug in the measure"):
        prony_fit(Broken(), 2, (1e-2, 1e2))


@pytest.mark.parametrize("spec, n_atoms, sup", [("powerlaw:0.01", 1, 0.127), ("powerlaw:0.04", 1, 0.0895)])
def test_prony_fits_an_unrepresentable_measure(spec, n_atoms, sup):
    kernel = parse_kernel_spec(spec)
    with pytest.raises(UnrepresentableError):
        kernel.bernstein()
    fit = prony_fit(kernel, 8, (0.1, 100.0))
    assert len(fit.measure.atoms) == n_atoms
    assert fit.sup_rel_error == pytest.approx(sup, abs=5e-4)


def test_prony_solver_failure_is_typed(monkeypatch):
    def give_up(*args, **kwargs):
        return OptimizeResult(status=4, message="Numerical difficulties encountered.")

    # prony_fit imports linprog when it fits, so the patch is what it finds
    monkeypatch.setattr("scipy.optimize.linprog", give_up)
    with pytest.raises(PronyAccuracyError) as ei:
        prony_fit(parse_kernel_spec("powerlaw:0.5"), 8, (0.1, 100.0))
    assert ei.value.achieved == math.inf


# the bounds are what 25 rounds of reweighted nnls reach on the same rates,
# at the CLI's 8 modes on (0.1, 100); the minimax fit must do no worse
@pytest.mark.parametrize(
    "spec, bound",
    [
        ("powerlaw:0.5", 2.228e-3),
        ("powerlaw:0.9", 8.895e-3),
        ("powerlaw:0.1", 4.509e-2),
        ("powerlaw:0.98", 1.285e-2),
        ("powerlaw:0.99", 1.322e-2),
        ("cauchy:1.5,1", 1.120e-1),
        ("cauchy:5,1", 6.215e-1),
        ("one-plus-t-inverse", 3.455e-3),
    ],
)
def test_prony_minimax_no_worse_than_reweighting(spec, bound):
    fit = prony_fit(parse_kernel_spec(spec), 8, (0.1, 100.0))
    assert 0 < fit.sup_rel_error <= bound
    assert 0 < len(fit.measure.atoms) <= 8
    assert all(x > 0 and w > 0 for x, w in fit.measure.atoms)


def test_prony_zero_kernel_is_the_degenerate_optimum():
    # no nonnegative sum on the rates beats 0 for this narrow gaussian
    fit = prony_fit(parse_kernel_spec("gaussian:0.01"), 8, (0.1, 100.0))
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
    assert sde.dim() == 4
    assert sde.labels == ("x", "v", "z1", "s1")
    assert sde.is_stable()


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


def test_simulate_chunk_invariance(monkeypatch):
    # per-path noise streams make the path blocks irrelevant up to BLAS
    # last-bit shape effects; comparison is tolerance-aware
    sde = _one_atom_sde()
    a = simulate_paths(sde, dt=0.1, t_max=5.0, n_paths=64, seed=1)
    monkeypatch.setattr(simulate, "_PATH_BLOCK", 7)
    b = simulate_paths(sde, dt=0.1, t_max=5.0, n_paths=64, seed=1)
    assert np.allclose(a.data, b.data, rtol=1e-12, atol=1e-13)


def test_simulate_empty_ensemble():
    sde = _one_atom_sde()
    ens = simulate_paths(sde, dt=0.1, t_max=1.0, n_paths=0, seed=0)
    assert ens.data.shape[0] == 0


def test_simulate_zero_noise_msd():
    params = GleParams(m=1.0, lam=1.0, beta=1.0, gamma=2.0, kbt=0.0)
    sde = markovian_embedding(params, parse_kernel_spec("rouse:1").bernstein())
    ens = simulate_paths(sde, dt=0.1, t_max=5.0, n_paths=20, seed=0)
    curve = ensemble_msd(ens, "x_integral")
    assert np.max(np.abs(curve.values)) == 0.0


@pytest.mark.parametrize("quantity", [POSITION_INTEGRAL, VELOCITY_INTEGRAL, "x"])
def test_ensemble_msd_takes_one_spelling(quantity):
    ens = simulate_paths(_one_atom_sde(), dt=0.1, t_max=1.0, n_paths=3, seed=0)
    with pytest.raises(ValueError, match="unknown quantity"):
        ensemble_msd(ens, quantity)


def test_sample_variance_matches_lyapunov():
    sde = _one_atom_sde()
    cov = lyapunov_stationary_cov(sde)
    ens = simulate_paths(sde, dt=0.1, t_max=10.0, n_paths=4000, seed=9)
    v = ens.column("v")[:, -1]
    se = cov[1, 1] * math.sqrt(2.0 / (v.size - 1))
    assert abs(v.var(ddof=1) - cov[1, 1]) < 3.0 * se


def test_fluctuation_dissipation_of_noise():
    # the thermal force F = sum_n s_n / sqrt(beta kbt) of the embedding has
    # the stationary autocovariance e_s^T expm(A tau) S e_s / (beta kbt) = K(tau)
    for spec in ("rouse:1", "rouse:[1,2,3]"):
        kernel = parse_kernel_spec(spec)
        sde = markovian_embedding(TRAPPED, kernel.bernstein())
        cov = lyapunov_stationary_cov(sde)
        e_s = np.array([lab.startswith("s") for lab in sde.labels], dtype=float)
        for tau in (0.0, 1.0, 5.0):
            acf = e_s @ linalg.expm(sde.drift * tau) @ cov @ e_s / (TRAPPED.beta * TRAPPED.kbt)
            assert acf == pytest.approx(float(kernel_eval(kernel, tau)), abs=1e-10)


def test_ensemble_msd_matches_quadrature():
    sde = _one_atom_sde()
    ens = simulate_paths(sde, dt=0.05, t_max=50.0, n_paths=3000, seed=21)
    curve = ensemble_msd(ens, "x_integral")
    ctx = trapped_ctx("rouse:1")
    for target in (2.0, 10.0, 50.0):
        i = int(np.argmin(np.abs(np.asarray(curve.times) - target)))
        assert curve.values[i] == pytest.approx(msd_x(ctx, curve.times[i]), rel=0.08)


def test_ensemble_msd_v_saturates_to_2varx():
    sde = _one_atom_sde()
    cov = lyapunov_stationary_cov(sde)
    ens = simulate_paths(sde, dt=0.05, t_max=60.0, n_paths=3000, seed=22)
    curve = ensemble_msd(ens, "v_integral")
    tail = np.asarray(curve.values)[np.asarray(curve.times) > 30.0]
    assert tail.mean() == pytest.approx(2.0 * cov[0, 0], rel=0.1)


def test_spectral_sampler_moments():
    ctx = trapped_ctx("rouse:1")
    grid = default_spectral_grid(ctx)
    ens = spectral_sample(ctx, grid, [0.0], 8000, seed=3)
    x0 = ens.column("x")[:, 0]
    v0 = ens.column("v")[:, 0]
    vx, vv = var_x0(ctx), var_v0(ctx)
    assert abs(x0.var(ddof=1) - vx) < 3.0 * vx * math.sqrt(2.0 / (x0.size - 1))
    assert abs(v0.var(ddof=1) - vv) < 3.0 * vv * math.sqrt(2.0 / (v0.size - 1))
    se_cov = math.sqrt(vx * vv / x0.size)
    assert abs(np.cov(x0, v0)[0, 1]) < 3.0 * se_cov


def test_spectral_grid_discretization_bias():
    ctx = trapped_ctx("rouse:1")
    edges = default_spectral_grid(ctx)
    from gle_spectra import r11

    mids = 0.5 * (edges[1:] + edges[:-1])
    mass = (ctx.params.kbt / math.pi) * float(np.sum(r11(ctx, mids) * np.diff(edges)))
    assert mass == pytest.approx(var_x0(ctx), rel=2e-3)


def test_spectral_sampler_zero_temperature():
    ctx = trapped_ctx("rouse:1", kbt=0.0)
    ens = spectral_sample(ctx, default_spectral_grid(ctx), [0.0, 1.0], 10, seed=0)
    assert np.all(ens.data == 0.0)


def test_spectral_sampler_nyquist_guard():
    ctx = trapped_ctx("rouse:1")
    with pytest.raises(SamplingGridError):
        spectral_sample(ctx, np.array([0.1, 2.0, 4.0]), [0.0, 100.0], 5, seed=0)


def test_spectral_sampler_free_particle_rejected():
    from gle_spectra import TransformDomainError

    ctx = free_ctx("rouse:1")
    with pytest.raises(TransformDomainError):
        spectral_sample(ctx, default_spectral_grid(ctx), [0.0], 5, seed=0)


def test_simulate_time_blocks_bitwise(monkeypatch):
    # noise drawn a few steps at a time is the same stream as one draw
    sde = _one_atom_sde()
    whole = simulate_paths(sde, dt=0.1, t_max=5.0, n_paths=12, seed=4)
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", 3 * 8 * 12 * 4)  # 3 steps of 12 paths x 4 noises
    split = simulate_paths(sde, dt=0.1, t_max=5.0, n_paths=12, seed=4)
    assert np.array_equal(whole.data, split.data)


def _dense_spectral_paths(ctx, edges, t, n_paths, seed):
    """The cells x times cos/sin synthesis on the same Philox draws: xi from
    the stream keyed by the seed, eta from that key jumped by 2^128 draws."""
    mids = 0.5 * (edges[1:] + edges[:-1])
    sigma = np.sqrt(ctx.params.kbt / (2.0 * math.pi) * r11(ctx, mids) * np.diff(edges))
    xi = np.random.Generator(np.random.Philox(key=seed)).standard_normal((n_paths, mids.size))
    eta = np.random.Generator(np.random.Philox(key=seed).jumped()).standard_normal((n_paths, mids.size))
    cos_t, sin_t = np.cos(np.outer(mids, t)), np.sin(np.outer(mids, t))
    x = math.sqrt(2.0) * ((xi * sigma) @ cos_t + (eta * sigma) @ sin_t)
    v = math.sqrt(2.0) * ((eta * sigma * mids) @ cos_t - (xi * sigma * mids) @ sin_t)
    return x, v


# times 3.0 .. 22.9 step 0.1, sampled at the lags t - 3.0: the sampler's
# lattice has M = 8 * 199 = 1592 bins and step h = 2 pi/(M dt), anchored at
# the last cell's midpoint
OFFSET_TIMES = 3.0 + 0.1 * np.arange(200)
LATTICE_STEP = 2.0 * math.pi / 159.2


def _nodes_per_cell(lattice):
    # the x half of the weights is the spread matrix, nodes x cells
    return np.diff(lattice.weights[: lattice.n_nodes].tocsc().indptr)


@pytest.mark.parametrize("block_bytes", [None, 1 << 16])
def test_spectral_sampler_matches_dense_sum(block_bytes, monkeypatch):
    # 59 log cells and 100 equal-width cells 0.05 apart, off the lattice step
    # 0.0395: every cell but the anchor is spread onto 38 nodes.  The small
    # budget splits the 9 paths into several blocks
    if block_bytes:
        monkeypatch.setattr(simulate, "_BLOCK_BYTES", block_bytes)
    ctx = trapped_ctx("powerlaw:0.5")
    edges = np.concatenate([np.geomspace(1e-3, 1.0, 60), np.arange(1.05, 6.025, 0.05)])
    mids = 0.5 * (edges[1:] + edges[:-1])
    t = OFFSET_TIMES
    lattice = simulate._Lattice(mids, np.ones(mids.size), t)
    assert (lattice.size, lattice.n_nodes) == (1592, 188)
    assert np.array_equal(_nodes_per_cell(lattice), [38] * 158 + [1])
    ens = spectral_sample(ctx, edges, t, 9, seed=17)
    x_ref, v_ref = _dense_spectral_paths(ctx, edges, t - t[0], 9, seed=17)
    for got, ref in ((ens.column("x"), x_ref), (ens.column("v"), v_ref)):
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


def _exact_node_edges():
    # 80 tail cells 2h wide from 1.0 put their midpoints on every second node
    # of the lattice, anchored at the last one, 1 + 159 h; the log cell
    # [c - 0.03, c + 0.03] has its midpoint c = 1 - 15 h on the node 174 below
    c = 1.0 - 15 * LATTICE_STEP
    return np.concatenate(
        [
            np.geomspace(1e-3, c - 0.03, 40),
            np.geomspace(c + 0.03, 1.0, 8),
            1.0 + 2 * LATTICE_STEP * np.arange(1, 81),
        ]
    )


@pytest.mark.parametrize(
    "edges, t, size, n_nodes, on_node",
    [
        (np.geomspace(1e-3, 6.0, 500), OFFSET_TIMES, 1592, 186, 1),  # every cell but the anchor spread
        (_exact_node_edges(), OFFSET_TIMES, 1592, 204, 81),
        (0.05 + LATTICE_STEP * np.arange(176), OFFSET_TIMES, 1592, 175, 175),  # nothing spread
        # cells 1e-6 apart are spread like the others
        (np.concatenate([np.geomspace(1e-3, 1.0, 300), 1.0 + 1e-6 * np.arange(1, 5)]), OFFSET_TIMES, 1592, 63, 1),
        # one time: lag 0, M = 1, h the cells' range, and the first and last
        # cells on the two nodes that hold every cell
        (np.geomspace(1e-3, 6.0, 500), np.array([5.0]), 1, 2, 2),
        # dt = 1.5: the cells above pi/dt = 2.09 fold onto the bins below
        (np.geomspace(1e-3, 6.0, 500), 1.5 * np.arange(15), 112, 195, 1),
        # dt = -0.1: negative lags, and the lattice runs the other way
        (np.geomspace(1e-3, 6.0, 500), OFFSET_TIMES[::-1], 1592, 186, 1),
    ],
    ids=["log-only", "midpoint-on-node", "tail-only", "fine-tail", "one-time", "folded", "decreasing"],
)
def test_spectral_sampler_grids_match_dense_sum(edges, t, size, n_nodes, on_node):
    ctx = trapped_ctx("powerlaw:0.5")
    mids = 0.5 * (edges[1:] + edges[:-1])
    lattice = simulate._Lattice(mids, np.ones(mids.size), t)
    assert (lattice.size, lattice.n_nodes) == (size, n_nodes)
    assert np.count_nonzero(_nodes_per_cell(lattice) == 1) == on_node
    ens = spectral_sample(ctx, edges, t, 5, seed=23)
    x_ref, v_ref = _dense_spectral_paths(ctx, edges, t - t[0], 5, seed=23)
    for got, ref in ((ens.column("x"), x_ref), (ens.column("v"), v_ref)):
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


def test_spectral_sampler_offset_grid_samples_its_lags():
    # t = 1e5 + 0.1 j samples the paths of its lags 0.1 j: the lattice follows
    # the grid's length and step, not max |t| (which gave 8,000,073 bins)
    ctx = trapped_ctx("rouse:1")
    t = 1e5 + 0.1 * np.arange(10)
    edges = default_spectral_grid(ctx, t_max=0.9)
    mids = 0.5 * (edges[1:] + edges[:-1])
    lattice = simulate._Lattice(mids, np.ones(mids.size), t)
    assert lattice.size == 72 and lattice.bytes_per_path < 2**20
    tracemalloc.start()
    try:
        ens = spectral_sample(ctx, edges, t, 200, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.array_equal(ens.times, t)
    lags = spectral_sample(ctx, edges, 0.1 * np.arange(10), 200, seed=5)
    for label in ("x", "v"):
        got, ref = ens.column(label), lags.column(label)
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


def test_spread_node_count():
    # Lagrange remainder of exp(i w t) below 2^-53 on the default grids (theta
    # = pi/4), and the two nodes that carry every cell at t = 0
    assert simulate._node_count(math.pi / 4) == 38
    assert simulate._node_count(math.pi / 8) == 22
    assert simulate._node_count(0.0) == 2
    # from theta = 2 on the remainder bound never falls to 2^-53
    for theta in (2.0, math.pi, math.nan):
        with pytest.raises(ValueError):
            simulate._node_count(theta)


def _equal_width_tail(edges):
    # the trailing run of cells as wide as the last one
    widths = np.diff(edges)
    return np.flatnonzero(np.abs(widths - widths[-1]) > 1e-6 * widths[-1])[-1] + 1


@pytest.mark.parametrize("t_max", [0.0, 100.0, 200.0, 500.0])
def test_default_grid_unchanged_to_t_max_500(t_max):
    # the tail is built from exact multiples of its step; the edges of
    # np.arange(1.0 + step, 50.0 + step, step), which it replaced, differ by
    # rounding only
    ctx = trapped_ctx("rouse:1")
    step = min(0.05, math.pi / (4.0 * t_max)) if t_max else 0.05
    tail = 1.0 + step * np.arange(1, math.ceil(49.0 / step) + 1)
    old_tail = np.arange(1.0 + step, 50.0 + step, step)
    assert tail.size == old_tail.size
    assert np.abs(tail / old_tail - 1.0).max() <= 1e-13
    edges = default_spectral_grid(ctx, t_max=t_max)
    assert np.array_equal(edges, np.concatenate([np.geomspace(1e-6, 1.0, 2400), tail]))


def test_default_grid_reaches_long_horizons():
    # the widest log cell (0.00574) passes pi/t_max beyond t_max ~ 547; the
    # capped step takes over where it would
    ctx = trapped_ctx("rouse:1")
    for t_max in (1000.0, 1e4):
        edges = default_spectral_grid(ctx, t_max=t_max)
        widths = np.diff(edges)
        assert widths.max() <= math.pi / t_max
        assert edges[0] == 1e-6 and edges[-1] >= 50.0
        k0 = _equal_width_tail(edges)
        assert widths[k0:].max() == pytest.approx(math.pi / (4.0 * t_max), rel=1e-9)


@pytest.mark.parametrize("t_max, dt", [(100.0, 0.1), (1e3, 0.1), (1e4, 0.1), (333.3, 0.07)])
def test_default_grid_tail_sits_on_the_lattice(t_max, dt):
    # the CLI's grid for its time grid: the tail step pi/(4 t_N) is the
    # lattice step 2 pi/(8 N dt), so each tail cell takes one node
    ctx = trapped_ctx("rouse:1")
    t = simulate.sample_times(dt, t_max)
    edges = default_spectral_grid(ctx, t_max=float(t[-1]))
    mids = 0.5 * (edges[1:] + edges[:-1])
    lattice = simulate._Lattice(mids, np.ones(mids.size), t)
    k0 = _equal_width_tail(edges)
    assert mids.size - k0 > 6000
    assert np.all(_nodes_per_cell(lattice)[k0:] == 1)


@pytest.mark.parametrize("dt, t_max", [
    (0.1, math.inf), (0.1, math.nan), (math.nan, 10.0), (math.inf, 10.0), (0.0, 10.0), (0.1, -1.0),
])
def test_sample_times_rejects_bad_step_or_horizon(dt, t_max):
    with pytest.raises(ValueError, match="dt and t_max must be finite and positive"):
        simulate.sample_times(dt, t_max)


def test_spectral_sampler_needs_uniform_times():
    ctx = trapped_ctx("rouse:1")
    with pytest.raises(SamplingGridError):
        spectral_sample(ctx, default_spectral_grid(ctx, t_max=3.0), [0.0, 1.0, 3.0], 4, seed=0)


def test_spectral_sampler_memory_bounded():
    # the cells x times cos/sin matrices of a dense synthesis trace 875 MiB
    # here, direct sums of the log cells 98 MiB, this sampler 48 MiB
    ctx = trapped_ctx("rouse:1")
    grid = default_spectral_grid(ctx, t_max=200.0)
    t = np.arange(0.0, 200.0 + 0.1, 0.1)
    tracemalloc.start()
    try:
        spectral_sample(ctx, grid, t, 500, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 72 * 2**20


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
        [sys.executable, "-c", code, *argv], env=SRC_ENV, capture_output=True, text=True, check=True
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


@pytest.mark.parametrize("method", ["markovian", "spectral"])
def test_simulate_of_exact_atoms_skips_optimize(tmp_path, method):
    # a kernel that is its own Prony fit needs no linear program
    cfg = tmp_path / "rouse.json"
    cfg.write_text('{"m":1,"lambda":1,"beta":1,"gamma":2,"kbt":1,"kernel":"rouse:1"}')
    modules = _scipy_modules(
        "simulate", "--config", str(cfg), "--method", method,
        "--n-paths", "4", "--dt", "0.5", "--t-max", "2",
    )
    assert "scipy.optimize" not in modules
