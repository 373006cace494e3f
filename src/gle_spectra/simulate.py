"""Monte Carlo cross-validation of the stationary theory.

A sum-of-exponentials kernel K(t) = sum_n w_n exp(-x_n |t|) admits an exact
Markovian embedding: auxiliary memory states z_n realize the convolution
beta Int K(t-s) v(s) ds through dz_n = (v - x_n z_n) dt, and independent
Ornstein-Uhlenbeck factors realize the thermal force with autocovariance
beta*kbt*K(t-s).  The embedded system is a stable linear SDE, so its
stationary covariance solves a Lyapunov equation exactly and paths can be
propagated with the exact one-step Gaussian transition.

General kernels enter through a Prony approximation with fixed log-spaced
rates and nonnegative-least-squares weights.

A second, embedding-free sampler synthesizes stationary (x, v) paths directly
from the spectral densities: independent Gaussian amplitudes on frequency
cells, weighted by the rank-one factorization of the 2x2 cross-spectral
matrix (1, i w)^T r11 (1, -i w).  It needs a uniform time grid: every cell
is summed there by one chirp-z transform per block of paths, the cells of
equal width from the nodes of its frequency grid and the others spread onto
those nodes by local interpolation, so memory does not grow with
cells x times.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy import fft as sp_fft
from scipy import linalg
from scipy import sparse
from scipy.optimize import nnls

from .errors import PronyAccuracyError, SamplingGridError, SdeError
from .kernels import BernsteinMeasure, kernel_eval
from .moments import POSITION_INTEGRAL, VELOCITY_INTEGRAL, MsdCurve
from .spectra import r11

# Work arrays of one block of paths or of time steps stay near this many bytes.
_BLOCK_BYTES = 32 << 20
# The Markovian sampler draws at most this many paths at a time: it bounds
# the per-path Philox generators, each larger than a short path's output.
_PATH_BLOCK = 2000


@dataclass(frozen=True)
class LinearSde:
    """Stable linear SDE du = A u dt + B dW with labeled coordinates."""

    drift: np.ndarray
    noise: np.ndarray
    labels: tuple

    def dim(self):
        return self.drift.shape[0]

    def spectral_abscissa(self):
        return float(np.max(np.linalg.eigvals(self.drift).real))

    def is_stable(self):
        return self.spectral_abscissa() < -1e-12


@dataclass(frozen=True)
class PronyFit:
    """Sum-of-exponentials approximation of a kernel with its achieved error."""

    measure: BernsteinMeasure
    sup_rel_error: float


def prony_fit(kernel, n_modes, t_range, rtol=None):
    """Approximate a kernel by n_modes exponential atoms on t_range.

    Kernels that already are finite exponential sums with at most n_modes
    atoms are returned exactly.  Otherwise the rates are fixed log-spaced
    across the reciprocal time window and only the weights are fitted, by
    nonnegative least squares iteratively reweighted toward the minimax
    relative error.  If ``rtol`` is given and the achieved sup-relative
    error exceeds it, PronyAccuracyError is raised.
    """
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    if not (0 < t_lo < t_hi):
        raise ValueError("t_range must satisfy 0 < t_lo < t_hi")
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")

    try:
        measure = kernel.bernstein()
        exact_atoms = (
            measure.density is None
            and measure.measure_of == "kernel"
            and 0 < len(measure.atoms) <= n_modes
        )
    except Exception:
        exact_atoms = False
    if exact_atoms:
        dense = np.geomspace(t_lo, t_hi, 400)
        err = float(np.max(np.abs(measure.laplace(dense) / kernel_eval(kernel, dense) - 1.0)))
        return PronyFit(measure=measure, sup_rel_error=err)

    rates = np.geomspace(0.3 / t_hi, 1.5 / t_lo, n_modes)
    ts = np.geomspace(t_lo, t_hi, 90)
    kv = kernel_eval(kernel, ts)
    design = np.exp(-np.outer(ts, rates)) / kv[:, None]
    gam = np.ones(ts.size)
    best = None
    for _ in range(25):
        g = np.sqrt(gam)
        weights, _ = nnls(design * g[:, None], g)
        resid = np.abs(design @ weights - 1.0)
        sup = float(resid.max())
        if best is None or sup < best[0]:
            best = (sup, weights.copy())
        gam = gam * (resid + 1e-12)
        gam /= gam.mean()
    weights = best[1]
    active = weights > 0
    dense = np.geomspace(t_lo, t_hi, 700)
    approx = np.exp(-np.outer(dense, rates[active])) @ weights[active]
    err = float(np.max(np.abs(approx / kernel_eval(kernel, dense) - 1.0)))
    if rtol is not None and err > rtol:
        raise PronyAccuracyError(
            f"prony accuracy not met: achieved {err:.3e} > requested {rtol:.3e}",
            achieved=err,
        )
    atoms = tuple((float(x), float(w)) for x, w in zip(rates[active], weights[active]))
    return PronyFit(measure=BernsteinMeasure(atoms=atoms), sup_rel_error=err)


def markovian_embedding(params, measure):
    """Linear SDE whose (x, v) marginal is the Langevin system with kernel
    K = sum w_n exp(-x_n |t|).

    State layout: (x, v, z_1..z_N, s_1..s_N) in the trapped case, with x
    dropped when gamma = 0.  The s_n are Ornstein-Uhlenbeck factors scaled so
    that their sum has autocovariance beta*kbt*K(t-s); at kbt = 0 the noise
    matrix vanishes.
    """
    if measure.density is not None:
        raise SdeError("embedding needs a finite atom list (fit a Prony surrogate first)")
    atoms = measure.atoms
    if any(x <= 0 or w <= 0 for x, w in atoms):
        raise SdeError("invalid embedding: atom rates and weights must be positive")
    n = len(atoms)
    trapped = params.trapped
    dim = (2 if trapped else 1) + 2 * n
    iv = 1 if trapped else 0
    iz = iv + 1
    iu = iz + n
    a = np.zeros((dim, dim))
    b = np.zeros((dim, 1 + n))
    labels = (("x", "v") if trapped else ("v",)) + tuple(
        f"z{k + 1}" for k in range(n)
    ) + tuple(f"s{k + 1}" for k in range(n))
    m = params.m
    if trapped:
        a[0, iv] = 1.0
        a[iv, 0] = -params.gamma / m
    a[iv, iv] = -params.lam / m
    b[iv, 0] = math.sqrt(2.0 * params.lam * params.kbt) / m
    for k, (x, w) in enumerate(atoms):
        a[iz + k, iv] = 1.0
        a[iz + k, iz + k] = -x
        a[iv, iz + k] = -params.beta * w / m
        a[iu + k, iu + k] = -x
        a[iv, iu + k] = 1.0 / m
        b[iu + k, 1 + k] = math.sqrt(2.0 * x * params.beta * params.kbt * w)
    return LinearSde(drift=a, noise=b, labels=labels)


def lyapunov_stationary_cov(sde):
    """Stationary covariance S solving A S + S A^T + B B^T = 0.

    Raises SdeError when the drift is not stable; the returned matrix is
    symmetrized and verified to residual <= 1e-10 relative to |B B^T|.
    """
    if not sde.is_stable():
        raise SdeError(
            f"no stationary covariance: drift spectral abscissa "
            f"{sde.spectral_abscissa():.3e} is not negative"
        )
    q = sde.noise @ sde.noise.T
    cov = linalg.solve_continuous_lyapunov(sde.drift, -q)
    cov = 0.5 * (cov + cov.T)
    resid = np.abs(sde.drift @ cov + cov @ sde.drift.T + q).max()
    scale = max(np.abs(q).max(), np.abs(cov).max(), 1e-300)
    if resid > 1e-10 * scale:
        raise SdeError(f"lyapunov solve residual {resid:.3e} exceeds tolerance")
    return cov


@dataclass(frozen=True)
class Ensemble:
    """Observable paths sampled on a common time grid.

    ``data`` has shape (n_paths, n_times, n_obs) with ``labels`` naming the
    observable columns.  Each sampler is reproducible: the same arguments,
    seed included, yield identical arrays.
    """

    times: np.ndarray
    data: np.ndarray
    labels: tuple

    def column(self, label):
        return self.data[:, :, self.labels.index(label)]

    @property
    def n_paths(self):
        return self.data.shape[0]


def _path_rng(seed, path_index):
    # counter-based stream: disjoint counter blocks per path
    return np.random.Generator(np.random.Philox(key=seed, counter=path_index << 128))


def _sqrt_psd(mat):
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


def simulate_paths(sde, dt, t_max, n_paths, seed):
    """Sample stationary paths of the embedded system.

    Initial states are drawn from the Lyapunov stationary covariance, so the
    ensemble is stationary from t = 0 (no burn-in).  Each step is the exact
    one-step Gaussian transition of the linear SDE, unbiased in law for any
    dt.  The ensemble holds the x (when trapped) and v columns.

    Each path consumes an independent counter-based substream of the master
    seed, so a path does not depend on the block it is drawn in.
    """
    if dt <= 0 or t_max <= 0:
        raise ValueError("dt and t_max must be positive")
    n_steps = int(round(t_max / dt))
    dim = sde.dim()
    cov0 = lyapunov_stationary_cov(sde)
    l0 = _sqrt_psd(cov0)
    prop = linalg.expm(sde.drift * dt)
    lstep = _sqrt_psd(cov0 - prop @ cov0 @ prop.T)
    n_noise = lstep.shape[1]

    obs_labels = [lab for lab in ("x", "v") if lab in sde.labels]
    obs_idx = [sde.labels.index(lab) for lab in obs_labels]
    out = np.empty((n_paths, n_steps + 1, len(obs_labels)))

    for start in range(0, n_paths, _PATH_BLOCK):
        stop = min(start + _PATH_BLOCK, n_paths)
        block = stop - start
        states = np.empty((block, dim))
        rngs = [_path_rng(seed, start + j) for j in range(block)]
        for j, rng in enumerate(rngs):
            states[j] = l0 @ rng.standard_normal(dim)
        # each path's noise is drawn a block of steps at a time; the split
        # draws are the same numbers as one draw of all the steps
        steps_per_block = max(1, _BLOCK_BYTES // (8 * block * n_noise))
        noise = np.empty((block, min(steps_per_block, n_steps), n_noise))

        def record(pos):
            for c, idx in enumerate(obs_idx):
                out[start:stop, pos, c] = states[:, idx]

        record(0)
        for lo in range(0, n_steps, steps_per_block):
            hi = min(lo + steps_per_block, n_steps)
            for j, rng in enumerate(rngs):
                rng.standard_normal(out=noise[j, : hi - lo])
            for step in range(lo, hi):
                states = states @ prop.T + noise[:, step - lo, :] @ lstep.T
                record(step + 1)
    return Ensemble(times=np.arange(n_steps + 1) * dt, data=out, labels=tuple(obs_labels))


def ensemble_msd(ens, quantity):
    """Ensemble second moment of Int_0^t x ds or Int_0^t v ds.

    Path integrals use the cumulative trapezoid rule on the saved grid;
    standard errors are across-path errors of the squared integral.
    """
    if quantity in ("x_integral", POSITION_INTEGRAL):
        col, q = "x", POSITION_INTEGRAL
    elif quantity in ("v_integral", VELOCITY_INTEGRAL):
        col, q = "v", VELOCITY_INTEGRAL
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    y = ens.column(col)
    t = np.asarray(ens.times, dtype=float)
    steps = np.diff(t)
    increments = 0.5 * (y[:, 1:] + y[:, :-1]) * steps
    paths = np.cumsum(increments, axis=1)
    sq = paths ** 2
    n = max(ens.n_paths, 1)
    msd = sq.mean(axis=0) if ens.n_paths else np.zeros(t.size - 1)
    se = sq.std(axis=0, ddof=1) / math.sqrt(n) if ens.n_paths > 1 else np.zeros(t.size - 1)
    return MsdCurve(
        times=tuple(t[1:]), values=tuple(msd), quantity=q, stderr=tuple(se)
    )


def spectral_sample(ctx, omega_grid, t_grid, n_paths, seed):
    """Synthesize stationary (x, v) paths directly from the spectral density.

    ``omega_grid`` holds increasing positive cell edges; each cell carries an
    independent complex Gaussian amplitude with variance
    kbt/(2 pi) r11(mid) * width, and the velocity coordinate rides the same
    amplitudes weighted by the cell frequency, which reproduces the full
    2x2 cross-spectral structure including Cov(x, v) = 0.

    The grid must resolve the requested horizon: max cell width <= pi/t_max.
    ``t_grid`` must be a non-empty arithmetic progression (to rounding);
    other time grids raise SamplingGridError.

    The amplitudes come from two Philox streams: the real parts of every path
    and cell (path-major) from the one keyed by ``seed``, the imaginary parts
    from the same key jumped by 2^128 draws.  They are drawn and summed in
    blocks of paths, every cell by one chirp-z transform over a uniform
    frequency grid (see ``_ChirpZ``): the K_u trailing cells of equal width
    sit on its nodes, the K_d cells before them are spread onto q nodes each.
    With N times the cost is O(n_paths ((K_u + N) log(K_u + N) + K_d q)) and
    the memory O(block K + n_paths N), the block size set by a fixed byte
    budget.
    """
    edges = np.asarray(omega_grid, dtype=float)
    if edges.ndim != 1 or edges.size < 3 or np.any(np.diff(edges) <= 0) or edges[0] < 0:
        raise SamplingGridError("omega grid must be increasing, positive cell edges")
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t.ndim != 1 or t.size == 0 or _uniform_step(t) is None:
        raise SamplingGridError("time grid must be a non-empty arithmetic progression")
    widths = np.diff(edges)
    t_span = float(np.max(np.abs(t)))
    if t_span > 0 and widths.max() > math.pi / t_span:
        raise SamplingGridError(
            f"omega grid too coarse for t_max={t_span:g}: "
            f"max cell width {widths.max():.3g} > pi/t_max = {math.pi / t_span:.3g}"
        )
    mids = 0.5 * (edges[1:] + edges[:-1])
    dens = r11(ctx, mids)
    # sqrt(2) folds the real part of the complex amplitude sum into sigma
    sigma = np.sqrt(ctx.params.kbt / math.pi * dens * widths)
    chirp = _ChirpZ(mids, sigma, t, _equal_width_start(mids, widths))

    data = np.zeros((n_paths, t.size, 2))
    block = max(1, _BLOCK_BYTES // (16 * mids.size + chirp.bytes_per_path))
    xi_rng = np.random.Generator(np.random.Philox(key=seed))
    eta_rng = np.random.Generator(np.random.Philox(key=seed).jumped())
    draws = np.empty((2 * min(block, n_paths), mids.size))
    for start in range(0, n_paths, block):
        stop = min(start + block, n_paths)
        rows = stop - start
        xi_rng.standard_normal(out=draws[:rows])
        eta_rng.standard_normal(out=draws[rows : 2 * rows])
        data[start:stop, :, 0], data[start:stop, :, 1] = chirp(draws[: 2 * rows])
    return Ensemble(times=t, data=data, labels=("x", "v"))


def _uniform_step(values):
    """Step of ``values`` as an arithmetic progression, or None if it is not
    one to rounding.  A single value has step 0."""
    if values.size < 2:
        return 0.0
    step = (values[-1] - values[0]) / (values.size - 1)
    line = values[0] + step * np.arange(values.size)
    if np.abs(values - line).max() > 16 * np.finfo(float).eps * np.abs(values).max():
        return None
    return step


def _equal_width_start(mids, widths):
    """First cell of the trailing run whose midpoints step uniformly, or
    ``mids.size`` when that run has fewer than two cells."""
    uneven = np.flatnonzero(np.abs(widths - widths[-1]) > 1e-9 * widths[-1])
    start = uneven[-1] + 1 if uneven.size else 0
    if mids.size - start < 2 or _uniform_step(mids[start:]) is None:
        return mids.size
    return start


def _node_count(theta):
    """Smallest even q whose Lagrange remainder bound for exp(i w t) on q
    nodes h apart, theta^q/q! max prod_j |u - j| (theta = h t_span, u in the
    middle gap), is at most 2^-53."""
    q, bound = 2, theta * theta / 8.0
    while bound > 2.0**-53:
        bound *= theta * theta * (q + 1) / (4.0 * (q + 2))
        q += 2
    return q


class _ChirpZ:
    """x and v sums of the amplitudes a_k = sigma_k (xi_k - i eta_k) over
    cells w_k at times t_j = t_0 + j dt:

        x_j = Re sum_k a_k exp(i w_k t_j),   v_j = -Im sum_k w_k a_k exp(i w_k t_j).

    Every cell is moved onto one frequency grid nu_m = nu_0 + m h.  The
    trailing cells of equal width (from ``k0`` on) sit on every s-th node,
    s = ceil(step t_span / (pi/4)), unless step t_span < pi/8; then, as
    without such a tail, h = pi/(4 t_span).  Each other cell is spread onto
    the q nodes around it by Lagrange interpolation of exp(i w t) in w, q from
    ``_node_count(h t_span)``, as in the type-3 non-uniform FFT of Lee &
    Greengard (J. Comput. Phys. 206:1, 2005); its v weight carries the cell's
    own w_k.  The grid extends below the cells as far as their windows need.

    Bluestein's identity mj = (m^2 + j^2 - (j - m)^2)/2 turns the grid sums
    into a convolution with the chirp exp(-i theta m^2/2), theta = h dt, done
    by FFT (Rabiner, Schafer & Rader, IEEE Trans. Audio Electroacoust. 17:86,
    1969).  The tail step comes from its end points: one rounded cell width
    times k would drift from the midpoints by k ulps.
    """

    def __init__(self, omega, sigma, t, k0):
        n, n_t = omega.size, t.size
        t_span = float(np.max(np.abs(t)))
        step = (omega[-1] - omega[k0]) / (n - 1 - k0) if k0 < n else 0.0
        stride = 1
        if step * t_span >= 0.125 * math.pi:
            # h t_span lands in [pi/8, pi/4]: with cell widths <= pi/t_span
            # the grid has at most 8 nodes per cell.  The slack keeps a
            # rounding excess over pi/4 from doubling the grid
            stride = max(1, math.ceil(step * t_span / (0.25 * math.pi) - 1e-9))
            h, anchor = step / stride, omega[k0]
        else:
            # every cell spread: no equal-width tail, one too fine to carry the
            # grid, or t = 0, where exp(i w t) = 1 and two nodes hold every cell
            k0 = n
            h = 0.25 * math.pi / t_span if t_span > 0 else omega[-1] - omega[0]
            anchor = omega[0]
        q = _node_count(h * t_span)
        # cell k's window: nodes first_k .. first_k + q - 1 counted from the
        # anchor, with the cell in its middle gap
        u = (omega[:k0] - anchor) / h
        first = np.floor(u).astype(int) - (q // 2 - 1)
        lo = min(0, first.min(initial=0))
        n_low = first.max() + q - lo if k0 else 0
        n_nodes = max(n_low, stride * (n - 1 - k0) - lo + 1)
        gap = (u - first)[:, None] - np.arange(q)
        # modified Lagrange form prod_i (u - i) b_j / (u - j), exact on a node
        bary = np.array(
            [(-1.0) ** (q - 1 - j) / (math.factorial(j) * math.factorial(q - 1 - j)) for j in range(q)]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            lagrange = np.prod(gap, axis=1, keepdims=True) * bary / gap
        lagrange[gap == 0.0] = 1.0
        spread = sparse.csr_array(
            ((sigma[:k0, None] * lagrange).ravel(), ((first - lo)[:, None] + np.arange(q)).ravel(),
             q * np.arange(k0 + 1)),
            shape=(k0, n_low),
        )
        # low nodes x spread cells: x weights (sigma) over v weights (sigma w_k)
        self.weights = sparse.vstack([spread.T, (spread * omega[:k0, None]).T], format="csr")

        nu_0 = anchor + lo * h
        half_theta = 0.5 * h * _uniform_step(t)
        m, j, lags = np.arange(n_nodes), np.arange(n_t), np.arange(1 - n_nodes, n_t)
        self.size = sp_fft.next_fast_len(n_nodes + n_t - 1)
        chirp = np.zeros(self.size, dtype=complex)
        chirp[lags] = np.exp(-1j * half_theta * lags * lags)
        self.chirp_fft = sp_fft.fft(chirp)
        self.pre = np.exp(1j * (m * h * t[0] + half_theta * m * m))
        self.post = np.exp(1j * (nu_0 * t + half_theta * j * j))
        self.k0, self.tail_nodes = k0, slice(-lo, -lo + stride * (n - k0), stride)
        pre = sigma[k0:] * self.pre[self.tail_nodes]
        self.tail_weights = (pre, pre * omega[k0:])
        # a path's padded x and v rows, two real temporaries, its sums
        self.bytes_per_path = 16 * (2 * self.size + n + 2 * n_t)

    def __call__(self, draws):
        """x and v rows of the paths whose xi rows ``draws`` stacks over
        their eta rows."""
        rows, k0 = draws.shape[0] // 2, self.k0
        xi, eta = draws[:rows, k0:], draws[rows:, k0:]
        spec = np.zeros((2 * rows, self.size), dtype=complex)
        halves = (spec[:rows], spec[rows:])
        for half, w in zip(halves, self.tail_weights):
            tail = half[:, self.tail_nodes]
            tail.real = xi * w.real + eta * w.imag
            tail.imag = xi * w.imag - eta * w.real
        # the spread cells: x over v nodes, each with the xi beside the eta paths
        low = self.weights @ np.ascontiguousarray(draws[:, :k0].T)
        n_low = low.shape[0] // 2
        for half, sums in zip(halves, (low[:n_low], low[n_low:])):
            half[:, :n_low] += (sums[:, :rows] - 1j * sums[:, rows:]).T * self.pre[:n_low]
        spec = sp_fft.fft(spec, overwrite_x=True)
        spec *= self.chirp_fft
        sums = sp_fft.ifft(spec, overwrite_x=True)[:, : self.post.size] * self.post
        return sums[:rows].real, -sums[rows:].imag


def default_spectral_grid(ctx, t_max=0.0):
    """Frequency cell edges adequate for var/cov estimation up to t_max.

    Log-spaced cells resolve the near-origin region down to 1e-6; above
    omega = 1 the spacing is capped by the horizon's resolution requirement,
    up to 50 or ten times the trap frequency sqrt(gamma/m).  Past t_max of
    about 547 the widest log cells would exceed the sampler's pi/t_max bound,
    so the log cells end before the first of them and the capped step
    continues from there.
    """
    p = ctx.params
    omega_max = max(50.0, 10.0 * math.sqrt(p.gamma / p.m))
    low = np.geomspace(1e-6, 1.0, 2400)
    step = min(0.05, math.pi / (4.0 * t_max)) if t_max > 0 else 0.05
    if t_max > 0:
        wide = np.flatnonzero(np.diff(low) > math.pi / t_max)
        low = low[: wide[0] + 1] if wide.size else low
    high = np.arange(low[-1] + step, omega_max + step, step)
    return np.concatenate([low, high])
