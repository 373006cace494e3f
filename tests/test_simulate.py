import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy import linalg

from gle_spectra import simulate
from gle_spectra import (
    BernsteinMeasure,
    GleParams,
    PronyAccuracyError,
    SamplingGridError,
    SdeError,
    bernstein_of,
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


def test_prony_accuracy_bound_enforced():
    with pytest.raises(PronyAccuracyError) as ei:
        prony_fit(parse_kernel_spec("powerlaw:0.5"), 2, (1e-2, 1e3), rtol=0.01)
    assert ei.value.achieved > 0.01


def test_embedding_shapes_and_stability():
    sde = markovian_embedding(TRAPPED, bernstein_of(parse_kernel_spec("rouse:1")))
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
    sde = markovian_embedding(params, bernstein_of(parse_kernel_spec("rouse:[1,2]")))
    assert sde.labels[0] == "v"
    cov = lyapunov_stationary_cov(sde)
    assert cov[0, 0] == pytest.approx(1.0, rel=1e-10)


def test_embedding_rejects_bad_atoms():
    with pytest.raises((SdeError, ValueError)):
        markovian_embedding(TRAPPED, BernsteinMeasure(atoms=((-1.0, 1.0),)))


def test_embedding_zero_temperature():
    params = GleParams(m=1.0, lam=1.0, beta=1.0, gamma=2.0, kbt=0.0)
    sde = markovian_embedding(params, bernstein_of(parse_kernel_spec("rouse:1")))
    assert np.all(sde.noise == 0.0)
    assert np.abs(lyapunov_stationary_cov(sde)).max() == 0.0


def test_lyapunov_equipartition_structure():
    # ratios independent of atom count, placement and coupling strength
    for spec, beta in (("rouse:[1,2,4]", 1.0), ("rouse:[0.3,2,7,11]", 3.7)):
        params = GleParams(m=1.4, lam=0.6, beta=beta, gamma=2.3, kbt=1.9)
        sde = markovian_embedding(params, bernstein_of(parse_kernel_spec(spec)))
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
    return markovian_embedding(TRAPPED, bernstein_of(parse_kernel_spec("rouse:1")))


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
    sde = markovian_embedding(params, bernstein_of(parse_kernel_spec("rouse:1")))
    ens = simulate_paths(sde, dt=0.1, t_max=5.0, n_paths=20, seed=0)
    curve = ensemble_msd(ens, "x_integral")
    assert np.max(np.abs(curve.values)) == 0.0


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
        sde = markovian_embedding(TRAPPED, bernstein_of(kernel))
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
        spectral_sample(ctx, np.array([0.1, 2.0, 4.0]), [100.0], 5, seed=0)


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


@pytest.mark.parametrize("block_bytes", [None, 1 << 16])
def test_spectral_sampler_matches_dense_sum(block_bytes, monkeypatch):
    # 59 log cells spread onto the chirp-z grid, 100 equal-width cells on it;
    # theta_tail = 0.05 * 22.9 = 1.15 > pi/4 puts them on every second node.
    # The small budget splits the 9 paths into several blocks
    if block_bytes:
        monkeypatch.setattr(simulate, "_BLOCK_BYTES", block_bytes)
    ctx = trapped_ctx("powerlaw:0.5")
    edges = np.concatenate([np.geomspace(1e-3, 1.0, 60), np.arange(1.05, 6.025, 0.05)])
    mids = 0.5 * (edges[1:] + edges[:-1])
    assert simulate._equal_width_start(mids, np.diff(edges)) == 59
    t = 3.0 + 0.1 * np.arange(200)
    ens = spectral_sample(ctx, edges, t, 9, seed=17)
    x_ref, v_ref = _dense_spectral_paths(ctx, edges, t, 9, seed=17)
    for got, ref in ((ens.column("x"), x_ref), (ens.column("v"), v_ref)):
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


def _exact_node_edges():
    # the tail's midpoints step 1/16 from 1.03125; at t_span 22.9 they sit on
    # every second node, 1/32 apart, and the log cell [0.46875, 0.53125] has
    # its midpoint 0.5 on the node 17 below the first tail cell
    assert (0.5 - 1.03125) / (0.0625 / 2) == -17.0
    return np.concatenate(
        [np.geomspace(1e-3, 0.46875, 40), np.geomspace(0.53125, 1.0, 8), 1.0 + np.arange(1, 81) / 16]
    )


@pytest.mark.parametrize(
    "edges, k0",
    [
        (np.geomspace(1e-3, 6.0, 500), 499),  # no equal-width tail: every cell spread
        (_exact_node_edges(), 47),
        (np.linspace(0.05, 6.0, 120), 0),  # equal widths only: nothing spread
        # a tail step of 1e-6 would put a million nodes under the log cells;
        # its three cells are spread like the others
        (np.concatenate([np.geomspace(1e-3, 1.0, 300), 1.0 + 1e-6 * np.arange(1, 5)]), 299),
    ],
    ids=["log-only", "midpoint-on-node", "tail-only", "fine-tail"],
)
def test_spectral_sampler_grids_match_dense_sum(edges, k0):
    ctx = trapped_ctx("powerlaw:0.5")
    mids = 0.5 * (edges[1:] + edges[:-1])
    assert simulate._equal_width_start(mids, np.diff(edges)) == k0
    t = 3.0 + 0.1 * np.arange(200)
    chirp = simulate._ChirpZ(mids, np.ones(mids.size), t, k0)
    assert chirp.size <= sp_fft.next_fast_len(8 * mids.size + 64 + t.size)
    ens = spectral_sample(ctx, edges, t, 5, seed=23)
    x_ref, v_ref = _dense_spectral_paths(ctx, edges, t, 5, seed=23)
    for got, ref in ((ens.column("x"), x_ref), (ens.column("v"), v_ref)):
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


def test_spread_node_count():
    # Lagrange remainder of exp(i w t) below 2^-53 on the default grids (theta
    # = pi/4), and the two nodes that carry every cell at t = 0
    assert simulate._node_count(math.pi / 4) == 38
    assert simulate._node_count(0.0) == 2


@pytest.mark.parametrize("t_max", [0.0, 100.0, 200.0, 500.0])
def test_default_grid_unchanged_to_t_max_500(t_max):
    ctx = trapped_ctx("rouse:1")
    step = min(0.05, math.pi / (4.0 * t_max)) if t_max else 0.05
    old = np.concatenate([np.geomspace(1e-6, 1.0, 2400), np.arange(1.0 + step, 50.0 + step, step)])
    assert np.array_equal(default_spectral_grid(ctx, t_max=t_max), old)


def test_default_grid_reaches_long_horizons():
    # the widest log cell (0.00574) passes pi/t_max beyond t_max ~ 547; the
    # capped step takes over where it would
    ctx = trapped_ctx("rouse:1")
    for t_max in (1000.0, 1e4):
        edges = default_spectral_grid(ctx, t_max=t_max)
        widths = np.diff(edges)
        assert widths.max() <= math.pi / t_max
        assert edges[0] == 1e-6 and edges[-1] >= 50.0
        mids = 0.5 * (edges[1:] + edges[:-1])
        k0 = simulate._equal_width_start(mids, widths)
        assert widths[k0:].max() == pytest.approx(math.pi / (4.0 * t_max), rel=1e-9)


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


def test_cli_import_skips_scipy_signal():
    # scipy.signal costs about as much import time as the whole CLI
    code = "import sys, gle_spectra.cli; sys.exit('scipy.signal' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=SRC_ENV).returncode == 0
