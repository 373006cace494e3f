#!/usr/bin/env python3
"""Monte Carlo cross-validation of the quadrature pipeline.

A sum-of-exponentials kernel is embedded as a linear SDE whose stationary
covariance is Gibbs' diagonal, equipartition made exact; sampled paths
(exact one-step transitions, stationary initialization) then reproduce the
quadrature MSD.
A power-law kernel enters through its Prony surrogate, and the spectral
sampler synthesizes stationary (x, v) paths straight from r11 on the FFT
bins of their time grid.
"""

import numpy as np

from gle_spectra import (
    POSITION_INTEGRAL,
    GleParams,
    SpectralDensityCtx,
    ensemble_msd,
    integrate_oscillatory,
    lyapunov_stationary_cov,
    markovian_embedding,
    msd_x,
    parse_kernel_spec,
    prony_fit,
    r12,
    simulate_paths,
    spectral_sample,
    var_v0,
    var_x0,
)

params = GleParams(m=1.0, lam=1.0, beta=1.0, gamma=2.0, kbt=1.0)
kernel = parse_kernel_spec("rouse:1")
sde = markovian_embedding(params, kernel.bernstein())
cov = lyapunov_stationary_cov(sde)
print("one-atom embedding, stationary (Gibbs) covariance:")
print(f"  Var(x) = {cov[0, 0]:.10f}  (kbt/gamma = {params.kbt / params.gamma})")
print(f"  Var(v) = {cov[1, 1]:.10f}  (kbt/m     = {params.kbt / params.m})")

ens = simulate_paths(sde, dt=0.1, t_max=60.0, n_paths=4000, seed=11)
curve = ensemble_msd(ens, POSITION_INTEGRAL)
ctx = SpectralDensityCtx(params, kernel)
print("\nensemble MSD vs quadrature (4000 paths, exact integrator):")
for target in (2.0, 10.0, 60.0):
    i = int(np.argmin(np.abs(np.asarray(curve.times) - target)))
    t = curve.times[i]
    print(
        f"  t = {t:5.1f}   ensemble {curve.values[i]:9.4f} "
        f"+- {curve.stderr[i]:.4f}   quadrature {msd_x(ctx, t):9.4f}"
    )

print("\nProny surrogate for powerlaw:0.5 (8 modes on t in [1e-2, 1e3]):")
fit = prony_fit(parse_kernel_spec("powerlaw:0.5"), 8, (1e-2, 1e3))
print(f"  sup relative error {fit.sup_rel_error:.4f} with {len(fit.measure.atoms)} atoms")
surrogate_sde = markovian_embedding(params, fit.measure)
scov = lyapunov_stationary_cov(surrogate_sde)
print(f"  surrogate equipartition: gamma Var(x)/kbt = {params.gamma * scov[0, 0]:.8f}")

print("\nspectral sampler (8000 stationary paths on t = 0, 0.1, ..., 10):")
ens2 = spectral_sample(ctx, 0.1, 10.0, 8000, seed=5)
x, v = ens2.column("x"), ens2.column("v")
# E[x(0) v(1)] = d/dt C_xx(1) = -(kbt/pi) Int w r11(w) sin(w) dw
xv1 = -params.kbt / np.pi * integrate_oscillatory(lambda w: r12(ctx, w).imag, 1.0, "sin", 0.0)[0]
print(f"  Var(x(0))    sample {x[:, 0].var(ddof=1):.5f}   quadrature {var_x0(ctx):.5f}")
print(f"  Var(v(10))   sample {v[:, -1].var(ddof=1):.5f}   quadrature {var_v0(ctx):.5f}")
print(f"  Cov(x0, v0)  sample {np.cov(x[:, 0], v[:, 0])[0, 1]:+.5f}   theory 0")
print(f"  E[x(0)v(1)]  sample {np.mean(x[:, 0] * v[:, 10]):+.5f}   quadrature {xv1:+.5f}")
