"""Monte Carlo cross-validation of the stationary theory.

A sum-of-exponentials kernel K(t) = sum_n w_n exp(-x_n |t|) admits an exact
Markovian embedding with one Ornstein-Uhlenbeck state u_n per atom,
du_n = -(x_n u_n + beta w_n v) dt + sqrt(2 x_n beta kbt w_n) dW_n: the sum of
the u_n is the memory force -beta Int K(t-s) v(s) ds plus a thermal force of
autocovariance beta*kbt*K(t-s) (Ottobre & Pavliotis, Nonlinearity 24:1629,
2011), and the state is (x, v, u_1..u_n).  The embedded system is a stable
linear SDE whose stationary law is Gibbs, the equipartition of every
completely monotone kernel made exact for a finite mixture: the covariance
diag(kbt/gamma, kbt/m, beta kbt w_1, .., beta kbt w_n).  Paths start from it
and are propagated with the exact one-step Gaussian transition, whose
propagator exp(A dt) is taken by Pade scaling and squaring in numpy.

General kernels enter through a Prony approximation with fixed log-spaced
rates and nonnegative weights that minimize the largest relative error, one
linear program of n_modes + 1 variables solved by a dense revised simplex in
numpy.

A second, embedding-free sampler synthesizes stationary (x, v) paths directly
from the spectral densities on a uniform time grid of step dt.  Frequencies
2 pi/dt apart cannot be told apart on that grid, so the frequency cells are
the bins of one FFT: each bin holds the exact folded 2x2 spectral mass
kbt/(2 pi) Int r11 (1, i w)^T (1, -i w) dw of its band and of the band's alias
images.  The n sampled times see the bins' covariance only at lags 0 .. n - 1,
so the paths are drawn from the smallest circulant of about 2n bins, a fast
FFT length, that holds those lags with positive semidefinite blocks (the exact
circulant embedding, Wood & Chan, J. Comput. Graph. Stat. 3:409, 1994), or the
bins themselves where none does: each block is factored in closed form, and
one inverse FFT per path pair and coordinate sums them.

Each sampler call draws its normals from one SFC64 stream seeded by ``seed``,
a block at a time: one helper thread draws the next block while the caller
works on the current one, and ends with the call.  It alone touches the
stream, in the stream's order, so the draws do not depend on the thread.
Both samplers hand their paths block by block to a sink: by default one
Ensemble of every path, or PathStatistics, which folds them into the MSD
statistics and last-time variances and so holds no n_paths x N array.
"""

from contextlib import closing
from dataclasses import dataclass
import math
import os

import numpy as np

from .errors import PronyAccuracyError, SdeError
from .kernels import BernsteinMeasure, ExpMixture, kernel_eval
from .moments import POSITION_INTEGRAL, VELOCITY_INTEGRAL, MsdCurve, var_v0, var_x0
from .quad import integrate_geometric, integrate_to_infinity
from .spectra import trapped_densities

# Work arrays of one block of path pairs or of time steps stay near this many
# bytes; with the blocks folded into PathStatistics they set the peak memory.
_BLOCK_BYTES = 4 << 20
# The spectral sampler's alias images on each side of the band, one node a bin.
_IMAGES = 4


@dataclass(frozen=True)
class LinearSde:
    """Stable linear SDE du = A u dt + B dW with labeled coordinates and
    the diagonal of its stationary covariance."""

    drift: np.ndarray
    noise: np.ndarray
    labels: tuple
    stationary_var: np.ndarray

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


# A fit whose sup-relative error is this close to 1 does no better than the
# zero kernel, and keeps no atoms.
_NO_SKILL = 1e-6
# Simplex iterations allowed per row of the basis.
_PIVOTS_PER_ROW = 50


def _minimax_weights(design):
    """Nonnegative w minimizing s = max |design @ w - 1|, with that s.

    The linear program min s + 1e-10 sum(w) over z = (w, s) subject to the
    rows G z <= h, that is D w - s <= 1, -D w - s <= -1 and -w <= 0, is
    solved by the revised simplex on its dual standard form: a basis is
    n + 1 of the rows, taken as equalities.  It starts from every w >= 0 row
    and the first upper residual row, dual feasible because D >= 0; each
    iteration enters the most violated row, and Harris's ratio test on the
    dual picks the largest pivot among the rows that leave first.  The
    first vertex that violates no row is optimal; the 1e-10 sum(w) breaks
    ties between degenerate optima toward the least weight, and a weight
    whose w >= 0 row is in the basis is exactly 0.  PronyAccuracyError is
    raised on a singular basis, on a violated row with no pivot, and past
    _PIVOTS_PER_ROW iterations per basis row.
    """
    t, n = design.shape
    ones = np.ones((t, 1))
    rows = np.block([[design, -ones], [-design, -ones], [-np.eye(n), np.zeros((n, 1))]])
    bounds = np.concatenate([np.ones(t), -np.ones(t), np.zeros(n)])
    cost = np.append(np.full(n, 1e-10), 1.0)
    basis = np.append(np.arange(2 * t, 2 * t + n), 0)
    try:
        for _ in range(_PIVOTS_PER_ROW * (n + 1)):
            active = rows[basis]
            z = np.linalg.solve(active, bounds[basis])
            slack = bounds - rows @ z
            k = int(np.argmin(slack))
            if slack[k] >= -1e-12:
                z[basis[basis >= 2 * t] - 2 * t] = 0.0
                return z[:n], float(z[n])
            dual, step = np.linalg.solve(active.T, np.column_stack([-cost, rows[k]])).T
            dual = np.maximum(dual, 0.0)
            pivots = step > 1e-9
            if not pivots.any():
                break
            first = np.min((dual[pivots] + 1e-12) / step[pivots])
            basis[int(np.argmax(np.where(pivots & (dual <= first * step), step, 0.0)))] = k
    except np.linalg.LinAlgError as exc:
        raise PronyAccuracyError(f"prony fit failed: {exc}", achieved=math.inf) from None
    raise PronyAccuracyError("prony fit failed: the simplex found no optimum", achieved=math.inf)


def prony_fit(kernel, n_modes, t_range, rtol=None):
    """Approximate a kernel by n_modes exponential atoms on t_range.

    An ExpMixture (GeneralizedRouse among them) with at most n_modes atoms
    is returned exactly.  Otherwise the rates are fixed log-spaced across the
    reciprocal time window and only the weights are fitted, by one linear
    program: minimize s subject to |sum_j w_j exp(-t x_j)/K(t) - 1| <= s and
    w >= 0 on a 700-point log grid, the grid the error is reported on.  A
    dense simplex in numpy solves it (``_minimax_weights``).  Where no
    nonnegative sum beats the zero kernel by more than ``_NO_SKILL`` the fit
    has no atoms and error 1.  PronyAccuracyError is raised where K is not
    positive on the grid (the error is relative to K), where the solver
    fails, and where ``rtol`` is given and the achieved sup-relative error
    exceeds it.
    """
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    if not (0 < t_lo < t_hi):
        raise ValueError("t_range must satisfy 0 < t_lo < t_hi")
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")

    ts = np.geomspace(t_lo, t_hi, 700)
    kv = kernel_eval(kernel, ts)
    if isinstance(kernel, ExpMixture) and 0 < len(kernel.measure.atoms) <= n_modes:
        measure = kernel.measure
    else:
        if not np.all(kv > 0):  # the fit is relative to K
            i = int(np.argmin(kv > 0))
            raise PronyAccuracyError(
                f"prony fit needs K > 0 on its window; K({ts[i]:g}) = {kv[i]:g}",
                achieved=math.inf,
            )
        rates = np.geomspace(0.3 / t_hi, 1.5 / t_lo, n_modes)
        # unit columns keep the basis solves well conditioned; taking them
        # from logs keeps exp(-t x)/K finite where K is subnormal
        logs = -np.outer(ts, rates) - np.log(kv)[:, None]
        top = logs.max(axis=0)
        weights, sup = _minimax_weights(np.exp(logs - top))
        weights *= np.exp(-top) if sup < 1.0 - _NO_SKILL else 0.0
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

    State layout: (x, v, u_1..u_N), with x dropped when gamma = 0.  Atom
    (x_n, w_n) adds the Ornstein-Uhlenbeck state
    du_n = -(x_n u_n + beta w_n v) dt + sqrt(2 x_n beta kbt w_n) dW_n, and v
    feels the force sum_n u_n / m: the memory force
    -beta Int K(t-s) v(s) ds plus a thermal force of autocovariance
    beta*kbt*K(t-s).  At kbt = 0 the noise matrix vanishes.  The stationary
    variances are Gibbs': kbt/gamma, kbt/m and beta kbt w_n, each entry of
    A S + S A^T + B B^T cancelling by hand.  SdeError is raised for a
    measure with a density part and for the measure of the outer function
    of a phi(t^2) kernel.
    """
    if measure.measure_of != "kernel":
        raise SdeError("embedding needs the measure of the kernel, not of a phi(t^2) kernel's phi")
    if measure.density is not None:
        raise SdeError("embedding needs a finite atom list (fit a Prony surrogate first)")
    x, w = measure.nodes()
    p, n = params, x.size
    iv = 1 if p.trapped else 0
    u = np.arange(iv + 1, iv + 1 + n)
    a = np.zeros((iv + 1 + n, iv + 1 + n))
    b = np.zeros((iv + 1 + n, 1 + n))
    if p.trapped:
        a[0, 1] = 1.0
        a[1, 0] = -p.gamma / p.m
    a[iv, iv] = -p.lam / p.m
    a[iv, u] = 1.0 / p.m
    a[u, iv] = -p.beta * w
    a[u, u] = -x
    b[iv, 0] = math.sqrt(2.0 * p.lam * p.kbt) / p.m
    b[u, 1 + np.arange(n)] = np.sqrt(2.0 * x * p.beta * p.kbt * w)
    labels = ("x", "v")[1 - iv :] + tuple(f"u{k + 1}" for k in range(n))
    gibbs = [p.kbt / p.gamma] if p.trapped else []
    gibbs = np.concatenate([gibbs, [p.kbt / p.m], p.beta * p.kbt * w])
    return LinearSde(drift=a, noise=b, labels=labels, stationary_var=gibbs)


def lyapunov_stationary_cov(sde):
    """Stationary covariance S = diag(sde.stationary_var), the solution of
    A S + S A^T + B B^T = 0.

    Raises SdeError when the drift is not stable (an undamped trap without
    atoms solves the equation too, yet has no stationary law) and when S
    misses the equation by more than 1e-10 relative to |B B^T|.
    """
    if not sde.is_stable():
        raise SdeError(
            f"no stationary covariance: drift spectral abscissa "
            f"{sde.spectral_abscissa():.3e} is not negative"
        )
    cov = np.diag(sde.stationary_var)
    q = sde.noise @ sde.noise.T
    resid = np.abs(sde.drift @ cov + cov @ sde.drift.T + q).max()
    scale = max(np.abs(q).max(), np.abs(cov).max(), 1e-300)
    if resid > 1e-10 * scale:
        raise SdeError(f"stationary covariance residual {resid:.3e} exceeds tolerance")
    return cov


# Higham's degree-13 Pade coefficients of exp, and the largest 1-norm they
# hold to double precision (SIAM J. Matrix Anal. Appl. 26:1179, 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a):
    """exp(a) by degree-13 Pade scaling and squaring: a is halved s times
    until its 1-norm is at most _THETA13, and the approximant squared s
    times.  No eigenvectors, so it holds at critical damping."""
    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = a / 2.0**s
    c = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    eye = np.eye(a.shape[0])
    u = a @ (
        a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2) + c[7] * a6 + c[5] * a4 + c[3] * a2 + c[1] * eye
    )
    v = a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2) + c[6] * a6 + c[4] * a4 + c[2] * a2 + c[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


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


def _stream(seed):
    """The one normal stream a sampler call draws from."""
    return np.random.Generator(np.random.SFC64(seed))


def _prefetched(rng, shape, sizes):
    """Yield rng's normals block by block in stream order, block i the
    first sizes[i] rows of one of two buffers of ``shape``, while one helper
    thread draws block i + 1 into the other.

    ``standard_normal`` releases the interpreter lock, so the draws overlap
    the caller's work on the block before.  Only the helper touches rng.
    Close the generator (``contextlib.closing``) to end the thread where
    the caller stops early or raises.
    """
    from concurrent.futures import ThreadPoolExecutor

    def draw(i):
        return rng.standard_normal(out=buffers[i % 2, : sizes[i]])

    if not sizes:
        return
    buffers = np.empty((2, *shape))
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(draw, 0)
        for i in range(1, len(sizes)):
            block = pending.result()
            pending = helper.submit(draw, i)
            yield block
        yield pending.result()


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


def _physical_bytes():
    """The machine's physical memory in bytes, or None where unknown."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


class _EnsembleSink:
    """The samplers' default sink: every block written into one Ensemble."""

    def open(self, times, labels, n_paths):
        data = np.empty((n_paths, times.size, len(labels)))
        self.ensemble = Ensemble(times=times, data=data, labels=labels)

    def add(self, paths, first_path, first_time):
        rows, cols = paths.shape[:2]
        self.ensemble.data[first_path : first_path + rows, first_time : first_time + cols] = paths


_COLUMNS = {POSITION_INTEGRAL: "x", VELOCITY_INTEGRAL: "v"}


class PathStatistics:
    """A sampler sink that folds path blocks into the statistics of
    ensemble_msd and the sample variances at the last time.

    It holds the running integral and the latest values of each path and
    O(1) numbers per time: the count, mean and sum of squared deviations of
    I(t)^2, where I is Int_0^t x ds (POSITION_INTEGRAL) or Int_0^t v ds
    (VELOCITY_INTEGRAL).  Blocks of paths over the same times merge pairwise
    (Chan, Golub & LeVeque, Am. Stat. 37:242, 1983); a block that holds all
    the paths of its times gives their statistics bit for bit as one array
    of every path would.
    """

    def __init__(self, quantity):
        if quantity not in _COLUMNS:
            raise ValueError(f"unknown quantity {quantity!r}")
        self.quantity = quantity

    def open(self, times, labels, n_paths):
        self.times, self.labels = np.asarray(times, dtype=float), labels
        self._col = labels.index(_COLUMNS[self.quantity])
        self._steps = np.diff(self.times)
        n = self._steps.size
        self._count = np.zeros(n, dtype=np.int64)
        self._mean, self._m2 = np.zeros(n), np.zeros(n)
        # the O(n_paths) arrays before any block, refused outright past the
        # machine's memory: a host that overcommits would grant them, then
        # fail or sample for hours
        need, have = 8 * n_paths * (len(labels) + 1), _physical_bytes()
        if have is not None and need > have:
            raise MemoryError(
                f"{n_paths} paths need {need / 2**30:.3g} GiB, more than the "
                f"{have / 2**30:.3g} GiB of memory"
            )
        self._latest = np.empty((n_paths, len(labels)))
        self._integral = np.empty(n_paths)

    def add(self, paths, first_path, first_time):
        rows, cols = slice(first_path, first_path + paths.shape[0]), paths.shape[1]
        y = paths[:, :, self._col]
        integral = self._integral[rows]
        # the block's first increment ends at its first time, but at time 0
        skip = 1 if first_time == 0 else 0
        n = cols - skip
        # the increments, their running sums, then the squares, in one work
        # array of two columns at least: numpy sums one column pairwise, and
        # several row by row as one array of all the times does
        work = np.zeros((paths.shape[0], max(n, 2)))
        sq = work[:, :n]
        np.add(y[:, 1:], y[:, :-1], out=sq[:, 1 - skip :])
        if not skip:
            np.add(y[:, 0], self._latest[rows, self._col], out=sq[:, 0])
        sq *= 0.5
        sq *= self._steps[first_time + skip - 1 : first_time + cols - 1]
        if not skip:
            sq[:, 0] += integral
        np.cumsum(sq, axis=1, out=sq)
        integral[:] = sq[:, -1] if n else 0.0
        self._latest[rows] = paths[:, -1]
        if n and paths.shape[0]:
            np.square(work, out=work)
            self._merge(slice(first_time + skip - 1, first_time + cols - 1), work)

    def _merge(self, times, sq):
        n_b = sq.shape[0]
        mean = sq.mean(axis=0)
        sq -= mean
        np.square(sq, out=sq)
        m2 = sq.sum(axis=0)
        width = times.stop - times.start
        mean, m2 = mean[:width], m2[:width]
        n_a = self._count[times]
        if not n_a.any():
            self._mean[times], self._m2[times] = mean, m2
        else:
            n = n_a + n_b
            delta = mean - self._mean[times]
            self._mean[times] += delta * (n_b / n)
            self._m2[times] += m2 + delta * delta * (n_a * (n_b / n))
        self._count[times] += n_b

    def msd(self):
        """The MsdCurve of the folded paths at the times past 0."""
        n = self._count
        many = n > 1
        se = np.zeros(n.size)
        se[many] = np.sqrt(self._m2[many] / (n[many] - 1)) / np.sqrt(n[many])
        return MsdCurve(
            times=tuple(self.times[1:]), values=tuple(self._mean), quantity=self.quantity,
            stderr=tuple(se),
        )

    def last_variance(self, label):
        """Sample variance of the paths' ``label`` at the last time."""
        return float(self._latest[:, self.labels.index(label)].var(ddof=1))


def simulate_paths(sde, dt, t_max, n_paths, seed, sink=None):
    """Sample stationary paths of the embedded system.

    Initial states are drawn from the stationary covariance S, Gibbs'
    diagonal of lyapunov_stationary_cov, so the ensemble is stationary from
    t = 0 (no burn-in).  Each step is the exact one-step Gaussian transition
    of the linear SDE, unbiased in law for any dt: the propagator
    P = exp(A dt) by Pade scaling and squaring, and noise of covariance
    S - P S P^T.  The paths hold the x (when trapped) and v columns at the
    times sample_times(dt, t_max).

    The draws are one SFC64 stream of the seed: the first n_paths * dim
    normals give the initial states, then each step takes the next
    n_paths * n_noise normals, path by path.  The paths are so a function of
    (sde, dt, t_max, n_paths, seed), whatever the block of steps drawn at once.
    The next block of steps' normals is drawn on one helper thread while the
    current block is stepped; the thread ends before the call returns or
    raises, and a t_max below dt, with no step, draws no block.

    Without a sink the paths are returned as one Ensemble.  A sink (such as
    PathStatistics) is opened with (times, labels, n_paths), then takes the
    paths of every path at time 0 and at each block of steps in turn as
    sink.add(paths, first_path, first_time), and is returned.
    """
    times = sample_times(dt, t_max)
    n_steps = len(times) - 1
    cov0 = lyapunov_stationary_cov(sde)
    prop = _expm(sde.drift * dt)
    lstep = _sqrt_psd(cov0 - prop @ cov0 @ prop.T)
    n_noise = lstep.shape[1]

    # x and v lead the state (markovian_embedding's layout)
    obs_labels = tuple(lab for lab in ("x", "v") if lab in sde.labels)
    n_obs = len(obs_labels)
    target = _EnsembleSink() if sink is None else sink
    target.open(times, obs_labels, n_paths)

    rng = _stream(seed)
    states = rng.standard_normal((n_paths, sde.dim())) * np.sqrt(sde.stationary_var)
    target.add(states[:, None, :n_obs], 0, 0)
    # the noise is drawn a block of steps at a time; the split draws are the
    # same numbers as one draw of all the steps.  A step of a block holds a
    # path's n_noise normals in each of the two noise buffers, its n_obs
    # values and at most n_obs + 1 more in the sink's work arrays
    step_bytes = 8 * n_paths * (2 * n_noise + 2 * n_obs + 1)
    steps_per_block = max(1, _BLOCK_BYTES // max(1, step_bytes))
    starts = range(0, n_steps, steps_per_block)
    sizes = [min(steps_per_block, n_steps - lo) for lo in starts]
    paths = np.empty((n_paths, min(steps_per_block, n_steps), n_obs))
    with closing(_prefetched(rng, (paths.shape[1], n_paths, n_noise), sizes)) as blocks:
        for lo, block in zip(starts, blocks):
            for step, z in enumerate(block):
                states = states @ prop.T + z @ lstep.T
                paths[:, step] = states[:, :n_obs]
            target.add(paths[:, : len(block)], 0, lo + 1)
    return target.ensemble if sink is None else sink


def ensemble_msd(ens, quantity):
    """Ensemble second moment of Int_0^t x ds (POSITION_INTEGRAL) or
    Int_0^t v ds (VELOCITY_INTEGRAL), the quantities of compute_msd_curve.

    ``ens`` is an Ensemble, folded here through PathStatistics as one
    block, or the PathStatistics of that quantity a sampler folded its
    blocks into.  Path integrals use the cumulative trapezoid rule on the
    saved grid; standard errors are across-path errors of the squared
    integral.
    """
    if isinstance(ens, Ensemble):
        stats = PathStatistics(quantity)
        stats.open(ens.times, ens.labels, ens.n_paths)
        stats.add(ens.data, 0, 0)
    elif ens.quantity != quantity:
        raise ValueError(f"the paths were folded for {ens.quantity!r}, not {quantity!r}")
    else:
        stats = ens
    return stats.msd()


def spectral_sample(ctx, dt, t_max, n_paths, seed, sink=None):
    """Synthesize stationary (x, v) paths directly from the spectral density.

    The paths hold the times sample_times(dt, t_max), those of
    simulate_paths; a t_max below dt gives the one time 0, a stationary
    (x, v) pair.  A pair of paths scales two complex normals per bin of the
    L-bin circulant of ``_embedded_blocks`` by the Cholesky factor
    [[sqrt a, 0], [i b/sqrt a, sqrt(d - b^2/a)]] of the bin's block and sums
    the bins with one inverse FFT per coordinate: the real part is one path,
    the imaginary part an independent other.  Pair p takes normals 4 L p to
    4 L (p + 1) of the SFC64 stream of ``seed``, whatever the block of
    pairs; the next block's normals are drawn on one helper thread while the
    current block is summed, and the thread ends before the call returns or
    raises.  Cost O(n_paths L log L) plus O(M log M) once for the M FFT
    bins, memory O(M) and two blocks of normals besides the sink's.

    Without a sink the paths are returned as one Ensemble.  A sink (such as
    PathStatistics) is opened with (times, ("x", "v"), n_paths), then takes
    each block of paths over all times as sink.add(paths, first_path, 0),
    and is returned.
    """
    t = sample_times(dt, t_max)
    # the sink first: an Ensemble allocated after the bins' temporaries
    # raised the peak RSS of the CLI's 500-path requests
    target = _EnsembleSink() if sink is None else sink
    target.open(t, ("x", "v"), n_paths)
    a, b, d = _embedded_blocks(ctx, t.size, dt)
    # a d >= b^2: each bin block sums rank-one matrices with positive
    # weights, and an embedded block is clipped to it
    lxx = np.sqrt(a)
    lvx = np.divide(b, lxx, out=np.zeros(b.shape), where=lxx > 0)
    lvv, ivx = np.sqrt(np.maximum(d - lvx * lvx, 0.0)), 1j * lvx
    # a pair works on 80 L bytes, its 4 L normals in each of the two draw
    # buffers and a complex temporary of L, and its two paths and their fold
    # in the sink take less than that
    pairs, size = -(-n_paths // 2), a.size
    block = max(1, min(pairs, _BLOCK_BYTES // (2 * 80 * size)))
    starts = range(0, pairs, block)
    sizes = [min(block, pairs - start) for start in starts]
    paths = np.empty((block, 2, t.size, 2))
    rng = _stream(seed)
    with closing(_prefetched(rng, (block, 2, 2 * size), sizes)) as draws:
        for start, normals in zip(starts, draws):
            rows = len(normals)
            # two complex normals a bin: the x factor's and v's own
            z = normals.view(complex)
            z[:, 1] *= lvv
            z[:, 1] += ivx * z[:, 0]
            z[:, 0] *= lxx
            # a single bin broadcasts over repeated times
            sums = np.moveaxis(np.fft.ifft(z, norm="forward", out=z)[..., : t.size], 1, 2)
            out = paths[:rows]
            out[:, 0], out[:, 1] = sums.real, sums.imag
            target.add(out.reshape(2 * rows, t.size, 2)[: n_paths - 2 * start], 2 * start, 0)
    return target.ensemble if sink is None else sink


def _embedded_blocks(ctx, n, dt):
    """The blocks [[a, -i b], [i b, d]] of the smallest circulant that draws
    the law of the FFT bins at n times dt apart.

    The 2n x 2n covariance of the n times is set by the bins' covariance
    Gamma_M(j dt) at lags j = 0 .. n - 1 alone.  The first L below M, from
    2 _smooth_length(n) on in doublings (fast FFT lengths), whose blocks are
    positive semidefinite to rounding takes Gamma_M at lags -L/2 .. L/2, with
    the odd xv entry 0 at the midpoint lag L/2 >= n that no path uses (Wood &
    Chan's exact embedding).  Where none is, the M bins
    are returned as they are.
    """
    a, b, d = _bin_blocks(ctx, n, dt)
    size = a.size
    # Gamma_xx, Gamma_vv and Gamma_xv = Cov(x(t + j dt), v(t)) at lags 0 .. M - 1
    gamma = np.fft.ifft(np.stack([a, d, -1j * b]), norm="forward").real
    tol = 8.0 * np.finfo(float).eps
    length = 2 * _smooth_length(n)
    while length < size:
        half = length // 2
        lags = np.concatenate([gamma[:, : half + 1], gamma[:, size - half + 1 :]], axis=1)
        lags[2, half] = 0.0
        blocks = np.fft.fft(lags) / length
        ea, ed, eb = blocks[0].real, blocks[1].real, -blocks[2].imag
        amax, dmax = ea.max(), ed.max()
        if (
            ea.min() >= -tol * amax
            and ed.min() >= -tol * dmax
            and np.min(ea * ed - eb * eb) >= -tol * amax * dmax
        ):
            # rounding may leave a block a few ulp indefinite: clipped to
            # b^2 <= a d, the Cholesky factor's b/sqrt(a) stays below sqrt(d)
            ea, ed = np.maximum(ea, 0.0), np.maximum(ed, 0.0)
            root = np.sqrt(ea * ed)
            return ea, np.clip(eb, -root, root), ed
        length *= 2
    return a, b, d


def _smooth_length(n):
    """The smallest 2^i 3^j 5^k >= n: a fast FFT length, under 1.11 n from
    n = 100 on and under 1.07 n from 1000 on (a power of two takes up to 2 n)."""
    best = 1 << max(n - 1, 0).bit_length()
    threes = 1
    while threes < best:
        length = threes
        while length < best:
            best = min(best, length << max(0, (-(-n // length) - 1).bit_length()))
            length *= 5
        threes *= 3
    return best


def _bin_blocks(ctx, n, dt):
    """The blocks [[a, -i b], [i b, d]] of the FFT bins of n times dt apart.

    On lags dt apart w and w + 2 pi/dt cannot be told apart, so the M =
    8 (n - 1) bins h = 2 pi/(M dt) wide hold all of kbt/(2 pi) r11(w)
    (1, i w)^T (1, -i w) dw: bin m every w within h/2 of m h + 2 pi k/dt.
    On w > 0: integrate_geometric on [0, h/2], Gauss-Legendre nodes on the
    bins to pi/dt + h/2, one node a bin on _IMAGES periods past them, and
    the rest of the r11 and r22 mass (r22 decays only like w^-2) spread
    evenly.  A negative w holds the conjugate block.  One time has one bin:
    the variances.
    """
    if n == 1:
        return np.array([var_x0(ctx)]), np.zeros(1), np.array([var_v0(ctx)])
    size = 8 * (n - 1)
    half, h = size // 2, 2.0 * math.pi / (size * dt)
    tail = (2 * _IMAGES + 1) * half  # the first bin past the last image
    sums = np.zeros((3, size))  # of r11, r22, w r11 = Im r12
    # 4 Gauss-Legendre nodes on bins 1 .. half and one node a bin past them,
    # as offsets from the bin's centre in bin widths, 2^15 nodes at a time
    band = [0.5 * c for c in np.polynomial.legendre.leggauss(4)]
    rules = ((1, half + 1, *band), (half + 1, tail, np.zeros(1), np.ones(1)))
    for first, stop, nodes, weights in rules:
        chunk = 2**15 // nodes.size
        for lo in range(first, stop, chunk):
            k = np.arange(lo, min(lo + chunk, stop))
            dens = trapped_densities(ctx, ((k[:, None] + nodes) * h).ravel())
            for total, r in zip(sums, dens):
                total += np.bincount(k % size, r.reshape(k.size, -1) @ weights, minlength=size)

    def r11_r22(w):  # row 0 integrates r11, row 1 r22
        return np.where(w.rows == 0, *trapped_densities(ctx, w)[:2])

    hint = ctx.kernel.tail_class().exponent
    sums *= h
    sums[:2, 0] += integrate_geometric(r11_r22, 0.0, [0.5 * h] * 2, ctx.quad, left_exponent=hint)[0]
    rest, _ = integrate_to_infinity(r11_r22, np.full(2, (tail - 0.5) * h), ctx.quad)
    mirror = np.roll(sums[:, ::-1], 1, axis=1)  # bin -m is bin M - m
    scale = ctx.params.kbt / (2.0 * math.pi)
    a, d = scale * (sums[:2] + mirror[:2] + 2.0 * rest[:, None] / size)
    return a, scale * (sums[2] - mirror[2]), d
