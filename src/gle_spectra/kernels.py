"""Physical parameters, memory-kernel presets, tail classes and Laplace measures.

Every preset kernel is even, positive away from t = 0, and eventually
decreasing, so it is admissible as a memory kernel of the stationary
generalized Langevin equation.  Completely monotone presets (and presets of
the form phi(t^2) with phi completely monotone) expose their representing
measure mu with K(t) = Int exp(-t x) mu(dx), either as a finite list of atoms
or as a density discretized by Gauss-Legendre panels on log-spaced intervals.
Each kernel class declares the transform routes it supports, its default
first; the routes themselves live in the transforms module.
"""

from dataclasses import dataclass, field
import json
import math

import numpy as np

from .errors import KernelDomainError, NoBernsteinRepresentation, UnrepresentableError
from .quad import DEFAULT_QUAD, integrate_oscillatory

# Transform routes (see the transforms module): explicit formulas, the Laplace
# measure of a completely monotone kernel, the Faddeeva form of a phi(t^2)
# kernel's measure, and direct oscillatory quadrature.
ROUTE_CLOSED = "closed_form"
ROUTE_CM = "cm_measure"
ROUTE_PHI = "phi_t2_faddeeva"
ROUTE_NUMERIC = "numeric"
ROUTES = (ROUTE_CLOSED, ROUTE_CM, ROUTE_PHI, ROUTE_NUMERIC)
_CM_ROUTES = (ROUTE_CLOSED, ROUTE_CM, ROUTE_NUMERIC)
_PHI_ROUTES = (ROUTE_PHI, ROUTE_NUMERIC)


@dataclass(frozen=True)
class GleParams:
    """Physical constants of the Langevin system, each finite.

    m : particle mass (> 0)
    lam : viscous drag coefficient (>= 0)
    beta : memory coupling strength (> 0)
    gamma : harmonic stiffness (>= 0); gamma = 0 is the free particle
    kbt : thermal energy k_B*T (>= 0)
    """

    m: float = 1.0
    lam: float = 1.0
    beta: float = 1.0
    gamma: float = 0.0
    kbt: float = 1.0

    # the config key of each constant -> its field and lower bound
    BOUNDS = {
        "m": ("m", "> 0"),
        "lambda": ("lam", ">= 0"),
        "beta": ("beta", "> 0"),
        "gamma": ("gamma", ">= 0"),
        "kbt": ("kbt", ">= 0"),
    }

    def __post_init__(self):
        for key, (name, _) in self.BOUNDS.items():
            problem = self.bound_violation(key, getattr(self, name))
            if problem:
                raise ValueError(f"{key} {problem}")

    @classmethod
    def bound_violation(cls, key, value):
        """What value breaks as the constant with config key ``key``:
        'must be finite', 'must be <bound>', or None if nothing."""
        if not math.isfinite(value):
            return "must be finite"
        bound = cls.BOUNDS[key][1]
        if value > 0 or (value == 0 and bound == ">= 0"):
            return None
        return f"must be {bound}"

    @property
    def trapped(self):
        return self.gamma > 0


@dataclass(frozen=True)
class TailClass:
    """Large-time decay class of a kernel, with the small-frequency law it fixes.

    kind is one of "integrable", "critical" (K ~ c1/t) or "powerlaw"
    (K ~ c_alpha * t^-alpha with alpha in (0, 1)); ``constant`` carries the
    limit c = lim t^alpha K(t) where applicable.

    As w -> 0, Kcos (and so r11) grows like ``shape(w)``: 1, |log w| or
    w^p, with ``exponent`` p = alpha - 1 for a power-law tail and 0
    otherwise; Ksin grows like w^p.
    """

    kind: str
    alpha: float = None
    constant: float = None

    INTEGRABLE = "integrable"
    CRITICAL = "critical"
    POWERLAW = "powerlaw"

    @property
    def exponent(self):
        return self.alpha - 1.0 if self.kind == self.POWERLAW else 0.0

    def shape(self, omega):
        w = abs(float(omega))
        if self.kind == self.CRITICAL:
            return abs(math.log(w))
        return w ** self.exponent


@dataclass(frozen=True)
class BernsteinMeasure:
    """Positive measure mu on (0, oo) with K(t) = Int exp(-t x) mu(dx).

    ``atoms`` is a tuple of (location, weight) pairs; ``density`` an optional
    callable for an absolutely continuous part, integrated over (x_lo, x_hi)
    when discretized.  ``measure_of`` records whether mu represents the
    kernel itself ("kernel", completely monotone case) or the outer function
    phi of a phi(t^2) kernel ("phi").  A density compares by identity, so the
    measures of two ``bernstein()`` calls on a kernel with a density are not
    equal.
    """

    atoms: tuple = ()
    density: object = None
    x_lo: float = 1e-16
    x_hi: float = 1.0
    measure_of: str = "kernel"

    def __post_init__(self):
        for x, w in self.atoms:
            if not 0 < x < math.inf:
                raise ValueError("atoms must sit at finite x > 0 (no mass at the origin)")
            if not 0 < w < math.inf:
                raise ValueError("atom weights must be finite and positive")

    def nodes(self):
        """Quadrature representation (locations, weights) of the measure."""
        xs = [np.array([x for x, _ in self.atoms])]
        ws = [np.array([w for _, w in self.atoms])]
        if self.density is not None:
            px, pw = _log_panels(self.x_lo, self.x_hi)
            xs.append(px)
            ws.append(pw * self.density(px))
        return np.concatenate(xs), np.concatenate(ws)

    def laplace(self, t):
        """Int exp(-t x) mu(dx), elementwise over t >= 0."""
        x, w = self.nodes()
        t = np.asarray(t, dtype=float)
        return np.exp(-np.multiply.outer(t, x)) @ w

    def finiteness(self):
        """The measure-moment integrals that must be finite, as a dict."""
        x, w = self.nodes()
        low = x < 1.0
        out = {
            "mass_below_1": float(w[low].sum()),
            "inv_x_above_1": float((w[~low] / x[~low]).sum()),
        }
        if self.measure_of == "phi":
            out["inv_sqrt_x_above_1"] = float((w[~low] / np.sqrt(x[~low])).sum())
        return out


# Gauss-Legendre nodes in each half-decade panel of a discretized density
_NODES_PER_PANEL = 12


def _log_panels(x_lo, x_hi):
    """Gauss-Legendre nodes/weights for Int f(x) dx over log-spaced panels."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)
    decades = math.log10(x_hi) - math.log10(x_lo)
    n_panels = max(1, int(math.ceil(2.0 * decades)))  # half-decades
    s_edges = np.log(np.geomspace(x_lo, x_hi, n_panels + 1))
    mid = 0.5 * (s_edges[:-1] + s_edges[1:])[:, None]
    half = 0.5 * (s_edges[1:] - s_edges[:-1])[:, None]
    x = np.exp(mid + half * gl_x)
    return x.ravel(), (half * gl_w * x).ravel()  # dx = x ds


def _cutoff(decades, kernel, alpha):
    """The measure cutoff 10**decades; UnrepresentableError naming alpha where
    it is not a normal double."""
    if abs(decades) > 307:
        raise UnrepresentableError(
            f"{kernel.spec()}: Laplace-measure cutoff 1e{decades:+d} for alpha = {alpha:g} "
            "is not a normal double"
        )
    return 10.0 ** decades


class MemoryKernel:
    """Base class for memory kernels; subclasses are immutable presets.

    ``routes`` lists the transform routes the kernel supports, its default
    first.  ``closed_pair``, where a class defines it, maps an array of
    frequencies w > 0 to the closed-form (Kcos, Ksin); a kernel with the
    closed_form route and no closed_pair is a finite atom sum, whose closed
    form is its measure's.  ``origin_exponent`` is p where K(t) ~ t**p with p
    in (-1, 0) at the origin, else None.
    """

    routes = (ROUTE_NUMERIC,)
    closed_pair = None
    origin_exponent = None

    def eval(self, t):
        raise NotImplementedError

    def tail_class(self):
        raise NotImplementedError

    def bernstein(self):
        raise NoBernsteinRepresentation(
            f"no Bernstein representation implemented for {type(self).__name__}"
        )

    def integral(self):
        """Int_0^oo K(t) dt if the kernel is integrable, else None."""
        return None

    def spec(self):
        raise NotImplementedError

    def __repr__(self):
        return self.spec()


def _abs_t(t):
    return np.abs(np.asarray(t, dtype=float))


@dataclass(frozen=True, repr=False)
class PowerLaw(MemoryKernel):
    """K(t) = |t|^-alpha, alpha in (0, 1).  Completely monotone; K(0) = oo."""

    alpha: float
    routes = _CM_ROUTES

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("powerlaw alpha must lie in (0, 1)")

    @property
    def origin_exponent(self):
        return -self.alpha

    def closed_pair(self, w):
        """Gamma(1 - alpha) w^(alpha-1) (sin, cos)(pi alpha/2)."""
        a = self.alpha
        g = math.gamma(1.0 - a)
        scale = w ** (a - 1.0)
        return g * math.sin(0.5 * math.pi * a) * scale, g * math.cos(0.5 * math.pi * a) * scale

    def eval(self, t):
        at = _abs_t(t)
        if np.any(at == 0.0):
            raise KernelDomainError("power-law kernel is singular at origin")
        return at ** (-self.alpha)

    def tail_class(self):
        return TailClass(TailClass.POWERLAW, alpha=self.alpha, constant=1.0)

    def bernstein(self):
        a = self.alpha
        # density x^(a-1)/Gamma(a); cutoffs chosen so both the missing mass
        # below x_lo (~ x_lo^a) and the x^(a-2) tail beyond x_hi fall below
        # 1e-12 of typical kernel values
        lo = _cutoff(-math.ceil(14.0 / a), self, a)
        hi = _cutoff(math.ceil(14.0 / (1.0 - a)), self, a)
        norm = 1.0 / math.gamma(a)
        return BernsteinMeasure(
            density=lambda x: norm * x ** (a - 1.0), x_lo=lo, x_hi=hi, measure_of="kernel"
        )

    def spec(self):
        return f"powerlaw:{self.alpha:g}"


@dataclass(frozen=True, repr=False)
class ExpMixture(MemoryKernel):
    """K(t) = sum_j w_j exp(-x_j |t|) given directly by a measure's atoms.

    Every finite exponential sum is one of these: its measure is its
    Bernstein measure, its closed form the measure's atom sum, its tail
    integrable and Int K = sum_j w_j/x_j.
    """

    measure: BernsteinMeasure
    routes = _CM_ROUTES

    def __post_init__(self):
        if self.measure.measure_of != "kernel":
            raise ValueError("expmix measure must represent the kernel itself")

    def eval(self, t):
        return self.measure.laplace(_abs_t(t))

    def tail_class(self):
        return TailClass(TailClass.INTEGRABLE)

    def bernstein(self):
        return self.measure

    def integral(self):
        x, w = self.measure.nodes()
        return float((w / x).sum())

    def spec(self):
        atoms = ";".join(f"{x:g},{w:g}" for x, w in self.measure.atoms)
        return f"expmix:{atoms}"


@dataclass(frozen=True, repr=False)
class GeneralizedRouse(ExpMixture):
    """K(t) = (1/N) sum_n exp(-|t|/tau_n) over relaxation times tau_n > 0.

    The exponential mixture whose measure has the atoms (1/tau_n, 1/N),
    built once from ``taus``; routes, tail class, measure and Int K are
    ExpMixture's.  ``eval`` keeps the closed form in the relaxation times,
    an independent check on that measure.  Equality and hash come from
    ``taus`` alone.
    """

    measure: BernsteinMeasure = field(init=False, repr=False, compare=False)
    taus: tuple

    def __post_init__(self):
        object.__setattr__(self, "taus", tuple(float(t) for t in self.taus))
        if len(self.taus) == 0 or not all(0 < t < math.inf for t in self.taus):
            raise ValueError("relaxation times must be finite, positive and nonempty")
        n = len(self.taus)
        atoms = tuple((1.0 / tau, 1.0 / n) for tau in self.taus)
        object.__setattr__(self, "measure", BernsteinMeasure(atoms=atoms))

    def eval(self, t):
        at = _abs_t(t)
        rates = 1.0 / np.array(self.taus)
        return np.exp(-np.multiply.outer(at, rates)).mean(axis=-1)

    def spec(self):
        return "rouse:" + ",".join(f"{t:g}" for t in self.taus)


@dataclass(frozen=True, repr=False)
class Gaussian(MemoryKernel):
    """K(t) = exp(-scale * t^2); phi(t^2) with phi(s) = exp(-scale * s)."""

    scale: float
    routes = _PHI_ROUTES

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise ValueError("gaussian scale must be finite and > 0")

    def eval(self, t):
        return np.exp(-self.scale * _abs_t(t) ** 2)

    def tail_class(self):
        return TailClass(TailClass.INTEGRABLE)

    def bernstein(self):
        return BernsteinMeasure(atoms=((self.scale, 1.0),), measure_of="phi")

    def integral(self):
        return 0.5 * math.sqrt(math.pi / self.scale)

    def spec(self):
        return f"gaussian:{self.scale:g}"


@dataclass(frozen=True, repr=False)
class Cauchy(MemoryKernel):
    """K(t) = (1 + (t/scale)^2)^-alpha; phi(t^2) with completely monotone phi.

    The tail is t^-2alpha, so the kernel is integrable for 2*alpha > 1,
    critical for 2*alpha = 1 and a power-law tail otherwise.
    """

    alpha: float
    scale: float = 1.0
    routes = _PHI_ROUTES

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("cauchy alpha must be finite and > 0")
        if not 0 < self.scale < math.inf:
            raise ValueError("cauchy scale must be finite and > 0")

    def eval(self, t):
        return (1.0 + (_abs_t(t) / self.scale) ** 2) ** (-self.alpha)

    def tail_class(self):
        two_a = 2.0 * self.alpha
        c = self.scale ** two_a
        if two_a > 1.0:
            return TailClass(TailClass.INTEGRABLE)
        if two_a == 1.0:
            return TailClass(TailClass.CRITICAL, constant=c)
        return TailClass(TailClass.POWERLAW, alpha=two_a, constant=c)

    def bernstein(self):
        from scipy import special

        # phi(s) = (1 + s/sigma^2)^-alpha has the density
        # sigma^2a x^(a-1) e^(-sigma^2 x)/Gamma(a); the bottom cutoff keeps
        # the missing x^(alpha-1) mass below 1e-12
        a, s = self.alpha, self.scale
        lo = _cutoff(-math.ceil(14.0 / min(a, 1.0)), self, a)
        norm = s ** (2.0 * a) / special.gamma(a)
        return BernsteinMeasure(
            density=lambda x: norm * x ** (a - 1.0) * np.exp(-s ** 2 * x),
            x_lo=lo,
            x_hi=max(64.0, 750.0 / s ** 2),
            measure_of="phi",
        )

    def integral(self):
        if 2.0 * self.alpha <= 1.0:
            return None
        from scipy import special

        a, s = self.alpha, self.scale
        return float(
            0.5 * s * math.sqrt(math.pi) * special.gamma(a - 0.5) / special.gamma(a)
        )

    def spec(self):
        return f"cauchy:{self.alpha:g},{self.scale:g}"


# Above _AUX_SWITCH the asymptotic series of the auxiliary functions,
# f(w) ~ sum (-1)^k (2k)!/w^(2k+1) and g(w) ~ sum (-1)^k (2k+1)!/w^(2k+2),
# summed to k = 19 (the smallest term at w = 40), are exact to a few ulp.
_AUX_SWITCH = 40.0
_AUX_F = np.array([(-1) ** k * math.factorial(2 * k) for k in range(20)], dtype=float)
_AUX_G = np.array([(-1) ** k * math.factorial(2 * k + 1) for k in range(20)], dtype=float)


@dataclass(frozen=True, repr=False)
class OnePlusTInverse(MemoryKernel):
    """K(t) = 1/(1 + |t|): completely monotone with the critical 1/t tail."""

    routes = _CM_ROUTES

    def closed_pair(self, w):
        """The auxiliary functions g(w), f(w) of the sine and cosine integrals.

        Below _AUX_SWITCH they come from Si(w) and Ci(w); above it, where
        those lose the pair to cancellation, from their asymptotic series in
        r = 1/w, whose powers underflow to the right limit rather than
        overflow.
        """
        from scipy import special

        w = np.asarray(w, dtype=float)
        kcos, ksin = np.empty(w.shape), np.empty(w.shape)
        near = w < _AUX_SWITCH
        si, ci = special.sici(w[near])
        rest = 0.5 * math.pi - si
        sin, cos = np.sin(w[near]), np.cos(w[near])
        kcos[near], ksin[near] = sin * rest - cos * ci, cos * rest + sin * ci
        r = 1.0 / w[~near]
        r2 = r * r
        kcos[~near] = r * (r * np.polynomial.polynomial.polyval(r2, _AUX_G))
        ksin[~near] = r * np.polynomial.polynomial.polyval(r2, _AUX_F)
        return kcos, ksin

    def eval(self, t):
        return 1.0 / (1.0 + _abs_t(t))

    def tail_class(self):
        return TailClass(TailClass.CRITICAL, constant=1.0)

    def bernstein(self):
        return BernsteinMeasure(
            density=lambda x: np.exp(-x), x_lo=1e-16, x_hi=750.0, measure_of="kernel"
        )

    def spec(self):
        return "one-plus-t-inverse"


def kernel_eval(kernel, t):
    """K(|t|); symmetric in t.  Raises KernelDomainError where K is singular
    and UnrepresentableError where K overflows double precision."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    with np.errstate(over="ignore"):
        out = kernel.eval(t)
    overflow = np.isinf(out)
    if overflow.any():
        raise UnrepresentableError(
            f"{kernel.spec()}: K(t) overflows double precision at t = {float(t[overflow][0]):g}"
        )
    return float(out) if np.ndim(t) == 0 else out


@dataclass
class ValidationReport:
    """Outcome of validate_kernel; failures are recorded, never raised."""

    checks: dict = field(default_factory=dict)

    def record(self, name, passed, detail=""):
        self.checks[name] = (bool(passed), detail)

    @property
    def ok(self):
        return all(passed for passed, _ in self.checks.values())


def validate_kernel(kernel, probe_grid):
    """Spot-check admissibility of a kernel on a strictly increasing grid.

    ``kernel`` may be a MemoryKernel or a bare callable t -> K(t) (used for
    tabulated or experimental kernels).  Checks symmetry, positivity, an
    eventually-decreasing tail, and the sign of the cosine transform at a few
    frequencies.  Positivity admits a trailing run of exact zeros after the
    last positive sample, where the kernel underflows; any other sample <= 0
    fails.  Kcos fails only where it is negative beyond its own quadrature
    error estimate (Bochner's condition is Kcos >= 0).  A MemoryKernel is
    evaluated through kernel_eval, so one that overflows on the grid raises
    UnrepresentableError, and its cosine transform takes its
    origin_exponent, as the numeric route does.
    """
    grid = np.asarray(probe_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 4 or np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise ValueError("probe grid must be strictly increasing and positive")
    if isinstance(kernel, MemoryKernel):
        f, exponent = (lambda t: kernel_eval(kernel, t)), kernel.origin_exponent
    else:
        f, exponent = kernel, None
    report = ValidationReport()

    vals = np.asarray(f(grid), dtype=float)
    neg_vals = np.asarray(f(-grid), dtype=float)
    sym_err = float(np.max(np.abs(vals - neg_vals) / np.maximum(np.abs(vals), 1e-300)))
    report.record("symmetry", sym_err < 1e-12, f"max relative asymmetry {sym_err:.2e}")

    above = np.trim_zeros(vals, "b")
    positive = above.size > 0 and bool(np.all(above > 0))
    report.record("positivity", positive, "K > 0 on grid" if positive else "non-positive sample")

    tail = vals[grid >= grid[len(grid) // 2]]
    decreasing = bool(np.all(np.diff(tail) <= 1e-12 * np.abs(tail[:-1])))
    report.record("monotone_tail", decreasing, "eventually decreasing on grid")

    if positive:
        kcos_ok, detail = True, []
        for omega in (0.5, 2.0, 20.0):
            try:
                val, err = integrate_oscillatory(
                    f, omega, "cos", 0.0, DEFAULT_QUAD, left_exponent=exponent
                )
            except Exception as exc:  # report, never throw
                kcos_ok = False
                detail.append(f"omega={omega:g}: {exc}")
                continue
            detail.append(f"omega={omega:g}: {val:.3e}")
            if val < -err:
                kcos_ok = False
        report.record("kcos_positive", kcos_ok, "; ".join(detail))
    else:
        report.record("kcos_positive", False, "skipped: kernel not positive")
    return report


def parse_kernel_spec(text):
    """Parse the kernel grammar used by the CLI and JSON configs.

    Accepted forms: ``powerlaw:<alpha>``, ``rouse:<tau1,tau2,...>``,
    ``gaussian:<scale>``, ``cauchy:<alpha>,<scale>``, ``one-plus-t-inverse``,
    and ``expmix:@<file.json>`` where the file holds atom pairs [[x, w], ...].
    """
    text = text.strip()
    if text == "one-plus-t-inverse":
        return OnePlusTInverse()
    name, sep, arg = text.partition(":")
    if not sep:
        raise ValueError(f"unknown kernel spec {text!r}")
    arg = arg.strip().lstrip("[").rstrip("]")
    if name == "powerlaw":
        return PowerLaw(alpha=float(arg))
    if name == "rouse":
        return GeneralizedRouse(taus=tuple(float(v) for v in arg.split(",")))
    if name == "gaussian":
        return Gaussian(scale=float(arg))
    if name == "cauchy":
        parts = [float(v) for v in arg.split(",")]
        if len(parts) != 2:
            raise ValueError("cauchy spec needs alpha,scale")
        return Cauchy(alpha=parts[0], scale=parts[1])
    if name == "expmix":
        if not arg.startswith("@"):
            raise ValueError("expmix spec must reference a file: expmix:@atoms.json")
        with open(arg[1:], encoding="utf-8") as fh:
            pairs = json.load(fh)
        try:
            atoms = tuple((float(x), float(w)) for x, w in pairs)
        except (TypeError, ValueError):
            atoms = ()
        if not atoms:
            raise ValueError("expmix atom file must hold [[x, w], ...] numbers")
        return ExpMixture(BernsteinMeasure(atoms=atoms))
    raise ValueError(f"unknown kernel spec {text!r}")
