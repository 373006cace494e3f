"""Monte Carlo cross-validation of the stationary theory.

A sum-of-exponentials kernel K(t) = sum_n w_n exp(-x_n |t|) admits an exact
Markovian embedding: auxiliary memory states z_n realize the convolution
beta Int K(t-s) v(s) ds through dz_n = (v - x_n z_n) dt, and independent
Ornstein-Uhlenbeck factors realize the thermal force with autocovariance
beta*kbt*K(t-s).  The embedded system is a stable linear SDE, so its
stationary covariance solves a Lyapunov equation exactly and paths can be
propagated with the exact one-step Gaussian transition.

General kernels enter through a Prony approximation with fixed log-spaced
rates and nonnegative weights that minimize the largest relative error, one
linear program.

A second, embedding-free sampler synthesizes stationary (x, v) paths directly
from the spectral densities: independent Gaussian amplitudes on frequency
cells, weighted by the rank-one factorization of the 2x2 cross-spectral
matrix (1, i w)^T r11 (1, -i w).  It needs a uniform time grid of step dt:
every cell is spread onto a frequency lattice of step 2 pi/(M dt), where a
node is an FFT bin (frequencies 2 pi/dt apart cannot be told apart on the
grid), and one FFT of length M per path and coordinate sums the bins, so
memory does not grow with cells x times.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import GleError, PronyAccuracyError, SamplingGridError, SdeError
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
    one linear program: minimize s subject to |sum_j w_j exp(-t x_j)/K(t) - 1|
    <= s and w >= 0 on a 700-point log grid, the grid the error is reported
    on.  A kernel whose ``bernstein()`` raises a GleError
    (NoBernsteinRepresentation, UnrepresentableError) is fitted; any other
    exception from it propagates.  Where no nonnegative sum beats the zero
    kernel the fit has no atoms and error 1.  PronyAccuracyError is raised
    where K is not positive on the grid (the error is relative to K), where
    the solver fails, and where ``rtol`` is given and the achieved
    sup-relative error exceeds it.
    """
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    if not (0 < t_lo < t_hi):
        raise ValueError("t_range must satisfy 0 < t_lo < t_hi")
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")

    ts = np.geomspace(t_lo, t_hi, 700)
    kv = kernel_eval(kernel, ts)
    try:
        measure = kernel.bernstein()
        exact_atoms = (
            measure.density is None
            and measure.measure_of == "kernel"
            and 0 < len(measure.atoms) <= n_modes
        )
    except GleError:  # no measure, or one past the double range
        exact_atoms = False
    if not exact_atoms:
        from scipy.optimize import linprog

        if not np.all(kv > 0):  # the fit is relative to K
            i = int(np.argmin(kv > 0))
            raise PronyAccuracyError(
                f"prony fit needs K > 0 on its window; K({ts[i]:g}) = {kv[i]:g}",
                achieved=math.inf,
            )
        rates = np.geomspace(0.3 / t_hi, 1.5 / t_lo, n_modes)
        design = np.exp(-np.outer(ts, rates)) / kv[:, None]
        # unit columns: HiGHS rejects a model whose entries span too many decades
        scale = design.max(axis=0)
        design /= scale
        ones = np.ones((ts.size, 1))
        lp = linprog(
            np.append(np.zeros(n_modes), 1.0),
            A_ub=np.block([[design, -ones], [-design, -ones]]),
            b_ub=np.concatenate([np.ones(ts.size), -np.ones(ts.size)]),
            method="highs",
        )
        if lp.status != 0:
            raise PronyAccuracyError(f"prony fit failed: {lp.message}", achieved=math.inf)
        weights = lp.x[:n_modes] / scale
        keep = weights > 0
        measure = BernsteinMeasure(atoms=tuple(zip(rates[keep].tolist(), weights[keep].tolist())))
    # where K underflows to 0 the exact atoms underflow with it
    pos = kv > 0
    err = float(np.max(np.abs(measure.laplace(ts[pos]) / kv[pos] - 1.0), initial=0.0))
    if rtol is not None and err > rtol:
        raise PronyAccuracyError(
            f"prony accuracy not met: achieved {err:.3e} > requested {rtol:.3e}",
            achieved=err,
        )
    return PronyFit(measure=measure, sup_rel_error=err)


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
    from scipy import linalg

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


def sample_times(dt, t_max):
    """The time grid 0, dt, 2 dt, ..., n dt of both samplers: the most steps
    n whose last sample does not pass t_max, to rounding."""
    if not (0.0 < dt < math.inf and 0.0 < t_max < math.inf):
        raise ValueError("dt and t_max must be finite and positive")
    return np.arange(math.floor(t_max / dt * (1.0 + 4.0 * np.finfo(float).eps)) + 1) * dt


def simulate_paths(sde, dt, t_max, n_paths, seed):
    """Sample stationary paths of the embedded system.

    Initial states are drawn from the Lyapunov stationary covariance, so the
    ensemble is stationary from t = 0 (no burn-in).  Each step is the exact
    one-step Gaussian transition of the linear SDE, unbiased in law for any
    dt.  The ensemble holds the x (when trapped) and v columns at the times
    sample_times(dt, t_max).

    Each path consumes an independent counter-based substream of the master
    seed, so a path does not depend on the block it is drawn in.
    """
    from scipy import linalg

    times = sample_times(dt, t_max)
    n_steps = len(times) - 1
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
        out[start:stop, 0] = states[:, obs_idx]
        for lo in range(0, n_steps, steps_per_block):
            hi = min(lo + steps_per_block, n_steps)
            for j, rng in enumerate(rngs):
                rng.standard_normal(out=noise[j, : hi - lo])
            for step in range(lo, hi):
                states = states @ prop.T + noise[:, step - lo, :] @ lstep.T
                out[start:stop, step + 1] = states[:, obs_idx]
    return Ensemble(times=times, data=out, labels=tuple(obs_labels))


def ensemble_msd(ens, quantity):
    """Ensemble second moment of Int_0^t x ds (``"x_integral"``) or
    Int_0^t v ds (``"v_integral"``).

    Path integrals use the cumulative trapezoid rule on the saved grid;
    standard errors are across-path errors of the squared integral.
    """
    if quantity == "x_integral":
        col, q = "x", POSITION_INTEGRAL
    elif quantity == "v_integral":
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

    ``t_grid`` must be a non-empty arithmetic progression (to rounding);
    other time grids raise SamplingGridError.  The paths are stationary, so
    they are sampled at the lags t - t_0, and the grid must resolve the
    longest of them, the span |t_N-1 - t_0|: max cell width <= pi/span.
    ``Ensemble.times`` holds the given times, not the lags.

    The amplitudes come from two Philox streams: the real parts of every path
    and cell (path-major) from the one keyed by ``seed``, the imaginary parts
    from the same key jumped by 2^128 draws.  They are drawn and summed in
    blocks of paths on the frequency lattice of the time step (see
    ``_Lattice``): the K_on cells on a lattice node take that node, the K_off
    others are spread onto q nodes each, and one FFT of length M = 8 (N - 1)
    per path and coordinate sums the nodes.  The cost is
    O(n_paths (M log M + K_on + q K_off)) and the memory
    O(block (K + M + L) + n_paths N) for N times and L lattice nodes from the
    lowest cell to the highest, the block size set by a fixed byte budget.
    """
    edges = np.asarray(omega_grid, dtype=float)
    if edges.ndim != 1 or edges.size < 3 or np.any(np.diff(edges) <= 0) or edges[0] < 0:
        raise SamplingGridError("omega grid must be increasing, positive cell edges")
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t.ndim != 1 or t.size == 0 or _uniform_step(t) is None:
        raise SamplingGridError("time grid must be a non-empty arithmetic progression")
    widths = np.diff(edges)
    span = abs(float(t[-1] - t[0]))
    if span > 0 and widths.max() > math.pi / span:
        raise SamplingGridError(
            f"omega grid too coarse for a time span of {span:g}: "
            f"max cell width {widths.max():.3g} > pi/span = {math.pi / span:.3g}"
        )
    mids = 0.5 * (edges[1:] + edges[:-1])
    dens = r11(ctx, mids)
    # sqrt(2) folds the real part of the complex amplitude sum into sigma
    sigma = np.sqrt(ctx.params.kbt / math.pi * dens * widths)
    lattice = _Lattice(mids, sigma, t)

    data = np.zeros((n_paths, t.size, 2))
    block = max(1, _BLOCK_BYTES // (16 * mids.size + lattice.bytes_per_path))
    xi_rng = np.random.Generator(np.random.Philox(key=seed))
    eta_rng = np.random.Generator(np.random.Philox(key=seed).jumped())
    draws = np.empty((2 * min(block, n_paths), mids.size))
    for start in range(0, n_paths, block):
        stop = min(start + block, n_paths)
        rows = stop - start
        xi_rng.standard_normal(out=draws[:rows])
        eta_rng.standard_normal(out=draws[rows : 2 * rows])
        data[start:stop, :, 0], data[start:stop, :, 1] = lattice(draws[: 2 * rows])
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


def _node_count(theta):
    """Smallest even q whose Lagrange remainder bound for exp(i w t) on q
    nodes h apart, theta^q/q! max prod_j |u - j| (theta = h span, u in the
    middle gap), is at most 2^-53.

    Each step multiplies the bound by theta^2 (q+1)/(4 (q+2)), which tends to
    theta^2/4, so from theta = 2 on no q reaches it: ValueError.
    """
    if not 0.0 <= theta < 2.0:
        raise ValueError(f"no node count reaches 2^-53 at h span = {theta:g}; it must lie in [0, 2)")
    q, bound = 2, theta * theta / 8.0
    while bound > 2.0**-53:
        bound *= theta * theta * (q + 1) / (4.0 * (q + 2))
        q += 2
    return q


class _Lattice:
    """x and v sums of the amplitudes a_k = sigma_k (xi_k - i eta_k) over
    cells w_k at the lags tau_j = t_j - t_0 = j dt of N times t_j:

        x_j = Re sum_k a_k exp(i w_k tau_j),   v_j = -Im sum_k w_k a_k exp(i w_k tau_j).

    The paths are stationary, so their law at t_j is their law at tau_j.
    Every cell is spread onto the frequency lattice nu_m = nu_0 + m h,
    h = 2 pi/(M dt) with M = 8 (N - 1), anchored at the last cell: onto the
    one node it lies within 1e-9 h of, or else onto the q nodes around it by
    Lagrange interpolation of exp(i w tau) in w, q from
    ``_node_count(h span)`` (38 at h span = pi/4 for the span |t_N-1 - t_0|),
    as in the type-3 non-uniform FFT of Lee & Greengard (J. Comput. Phys.
    206:1, 2005).  Its v weight carries the cell's own w_k.

    On lags dt apart nu_m and nu_{m+M} = nu_m + 2 pi/dt cannot be told
    apart: exp(i m h j dt) = exp(2 pi i m j/M).  So node m goes to bin
    m mod M; one inverse FFT of length M per row sums the bins and the
    post-phase exp(i nu_0 tau_j) finishes.  One time, or a zero step, is the
    case M = 1: every lag is 0, and every node falls in the one bin.
    """

    def __init__(self, omega, sigma, t):
        from scipy import sparse

        dt = _uniform_step(t)
        span = abs(t[-1] - t[0])
        self.size = 8 * (t.size - 1) if dt else 1
        # at lag 0 any h works: exp(i w 0) = 1, and two nodes hold every cell
        h = 2.0 * math.pi / (self.size * dt) if dt else omega[-1] - omega[0]
        q = _node_count(abs(h) * span)
        u = (omega - omega[-1]) / h
        near = np.rint(u)
        on_node = np.abs(u - near) <= 1e-9
        on, off = np.flatnonzero(on_node), np.flatnonzero(~on_node)
        # an off-node cell's window: nodes first .. first + q - 1 counted
        # from the anchor, with the cell in its middle gap
        first = np.floor(u[off]).astype(int) - (q // 2 - 1)
        gap = (u[off] - first)[:, None] - np.arange(q)
        # modified Lagrange form prod_i (u - i) b_j / (u - j)
        bary = np.array(
            [(-1.0) ** (q - 1 - j) / (math.factorial(j) * math.factorial(q - 1 - j)) for j in range(q)]
        )
        lagrange = np.prod(gap, axis=1, keepdims=True) * bary / gap
        cells = np.concatenate([on, np.repeat(off, q)])
        nodes = np.concatenate([near[on].astype(int), (first[:, None] + np.arange(q)).ravel()])
        lo = nodes.min()
        self.n_nodes = nodes.max() - lo + 1
        spread = sparse.csr_array(
            (sigma[cells] * np.concatenate([np.ones(on.size), lagrange.ravel()]), (nodes - lo, cells)),
            shape=(self.n_nodes, omega.size),
        )
        # nodes x cells: x weights (sigma) over v weights (sigma w_k)
        self.weights = sparse.vstack([spread, spread * omega], format="csr")
        self.post = np.exp(1j * (omega[-1] + lo * h) * (t - t[0]))
        self.folds = -(-self.n_nodes // self.size)
        # a path's transposed draws, x and v node sums, x and v rows before
        # and after folding (the FFT works in place), its x and v sums
        # (complex, then real)
        self.bytes_per_path = 16 * (
            omega.size + 2 * self.n_nodes + 2 * (self.folds + 1) * self.size + 3 * t.size
        )

    def __call__(self, draws):
        """x and v rows of the paths whose xi rows ``draws`` stacks over
        their eta rows."""
        rows, n = draws.shape[0] // 2, self.n_nodes
        # x over v nodes, each with the xi beside the eta paths
        sums = self.weights @ draws.T
        spec = np.zeros((2 * rows, self.folds * self.size), dtype=complex)
        for half, s in zip((spec[:rows, :n], spec[rows:, :n]), (sums[:n], sums[n:])):
            half.real, half.imag = s[:, :rows].T, -s[:, rows:].T
        if self.folds > 1:
            spec = spec.reshape(2 * rows, self.folds, self.size).sum(axis=1)
        # a single bin broadcasts over repeated times
        sums = np.fft.ifft(spec, norm="forward", out=spec)[:, : self.post.size] * self.post
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
    # exact multiples: arange's spacing, the rounded (start + step) - start,
    # would drift off the sampler's frequency lattice over the tail
    high = low[-1] + step * np.arange(1, math.ceil((omega_max - low[-1]) / step) + 1)
    return np.concatenate([low, high])
