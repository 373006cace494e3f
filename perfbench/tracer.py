"""Outside-in span tracer for the gle-spectra layers.

The tracer records spans from the benchmark's side: it replaces the module
attributes through which one layer calls another (``gle_spectra.moments.r11``
is the ``r11`` that moments calls) with wrappers that time the call and count
its points, then restores them.  No file of the package changes.

Each span carries a name, its layer, start, end, parent span, thread and
request id.  Spans stay in memory and are reduced to per-layer sums when the
round ends.  A binding that a later version of the package renames or removes
is skipped with a note, and the metrics that only it feeds are left out.

Busy and self times are summed over threads: under the CLI's grid-sweep
thread pool they can exceed the wall time of the request.
"""

from contextlib import contextmanager
import functools
import importlib
import itertools
import threading
import time
from typing import NamedTuple

import numpy as np

LAYERS = ("cli", "kernels", "errorfn", "quad", "transforms", "spectra", "moments", "simulate")
# The function behind each transform route, as transforms.kcos_ksin_grid
# dispatches to it; a route's points and time are those of its function's
# outermost spans (the rouse closed form runs inside _cm_pair).
ROUTE_FUNCS = {
    "_closed_pair": "closed_form",
    "_cm_pair": "cm_measure",
    "_phi_pair": "phi_t2_faddeeva",
    "_numeric_pair": "numeric",
}


def _size(args, kwargs, index, name):
    if len(args) > index:
        return int(np.size(args[index]))
    if name in kwargs:
        return int(np.size(kwargs[name]))
    return 0


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _points_simulate_paths(args, kwargs, result):
    n_paths = _arg(args, kwargs, 3, "n_paths")
    dt, t_max = _arg(args, kwargs, 1, "dt"), _arg(args, kwargs, 2, "t_max")
    return int(n_paths * round(t_max / dt)), None


def _points_spectral_sample(args, kwargs, result):
    cells = _size(args, kwargs, 1, "omega_grid") - 1
    times = _size(args, kwargs, 2, "t_grid")
    n_paths = _arg(args, kwargs, 3, "n_paths")
    # computed bytes of the dense cos and sin matrices, cells x times doubles
    return int(n_paths * (times - 1)), cells * times * 8 * 2


def _points_nodes(args, kwargs, result):
    return int(np.size(result[0])), None


def _sized(index, name):
    return lambda args, kwargs, result: (_size(args, kwargs, index, name), None)


_ONE = lambda args, kwargs, result: (1, None)
_NONE = lambda args, kwargs, result: (0, None)

# How many points each traced function handles, and any extra number to keep.
POINTS = {
    "transform": _ONE,
    "kcos_ksin_grid": _sized(1, "omegas"),
    "abelian_limits": _NONE,
    "r11": _sized(1, "omega"),
    "r22": _sized(1, "omega"),
    "r12": _sized(1, "omega"),
    "dawson": _sized(0, "x"),
    "faddeeva": _sized(0, "z"),
    "kernel_eval": _sized(1, "t"),
    "compute_msd_curve": _sized(1, "times"),
    "simulate_paths": _points_simulate_paths,
    "spectral_sample": _points_spectral_sample,
    "nodes": _points_nodes,
    **{name: _sized(1, "w") for name in ROUTE_FUNCS},
}

QUAD_ENTRIES = ("integrate_adaptive", "integrate_geometric", "integrate_oscillatory",
                "integrate_to_infinity")

# (module the caller looks the name up in, attribute, layer of the callee)
BINDINGS = (
    ("cli", "transform", "transforms"),
    ("cli", "r11", "spectra"),
    ("cli", "r22", "spectra"),
    ("cli", "r12", "spectra"),
    ("cli", "compute_msd_curve", "moments"),
    ("cli", "equipartition_report", "moments"),
    ("cli", "fit_growth_exponent", "moments"),
    ("cli", "var_x0", "moments"),
    ("cli", "var_v0", "moments"),
    ("cli", "parse_kernel_spec", "kernels"),
    ("cli", "prony_fit", "simulate"),
    ("cli", "markovian_embedding", "simulate"),
    ("cli", "lyapunov_stationary_cov", "simulate"),
    ("cli", "simulate_paths", "simulate"),
    ("cli", "default_spectral_grid", "simulate"),
    ("cli", "spectral_sample", "simulate"),
    ("cli", "ensemble_msd", "simulate"),
    ("spectra", "kcos_ksin_grid", "transforms"),
    ("spectra", "transform", "transforms"),
    ("spectra", "abelian_limits", "transforms"),
    ("spectra", "kernel_tail_class", "kernels"),
    ("moments", "r11", "spectra"),
    ("moments", "r22", "spectra"),
    ("moments", "kernel_tail_class", "kernels"),
    *(("moments", name, "quad") for name in QUAD_ENTRIES),
    ("transforms", "dawson", "errorfn"),
    ("transforms", "faddeeva", "errorfn"),
    ("transforms", "integrate_oscillatory", "quad"),
    ("transforms", "integrate_to_infinity", "quad"),
    ("transforms", "kernel_eval", "kernels"),
    ("transforms", "kernel_tail_class", "kernels"),
    *(("transforms", name, "transforms") for name in ROUTE_FUNCS),
    ("simulate", "r11", "spectra"),
    ("simulate", "kernel_eval", "kernels"),
    ("simulate", "lyapunov_stationary_cov", "simulate"),
    ("kernels", "BernsteinMeasure.nodes", "kernels"),
)

# The caches behind moments.cache_hit_ratio.
MOMENT_CACHES = (("moments", "_r11_integral"), ("moments", "_r22_integral"))


def _key(module, attr):
    return f"{module}.{attr}"


def _resolve(module, attr):
    """(owner object, final attribute name) or None when the binding is gone."""
    try:
        owner = importlib.import_module(f"gle_spectra.{module}")
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    """Records spans around the bindings in BINDINGS while installed."""

    def __init__(self):
        self.spans = []  # (id, parent, layer, name, t0, t1, thread, request, points, extra)
        self.notes = []
        self.installed = set()
        self.missing = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        self._request = None
        self._root = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self):
        for module, attr, layer in BINDINGS:
            key = _key(module, attr)
            found = _resolve(module, attr)
            if found is None:
                self.missing.add(key)
                self.notes.append(f"binding gle_spectra.{key} absent: not traced")
                continue
            owner, name = found
            original = owner.__dict__.get(name, getattr(owner, name))
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(getattr(owner, name), layer, attr.rsplit(".", 1)[-1]))
            self.installed.add(key)

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    @contextmanager
    def request(self, request_id):
        """A cli span around one request; spans without a parent in their
        own thread (the grid-sweep pool workers) hang under it."""
        sid = next(self._ids)
        self._request, self._root = request_id, sid
        stack = self._stack()
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, None, "cli", "main", t0, t1, threading.get_ident(),
                               request_id, 0, None))
            self._request = self._root = None

    def _wrap(self, fn, layer, name):
        tracer = self
        points_of = POINTS.get(name, _NONE)
        is_quad = name in QUAD_ENTRIES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            counter = None
            if is_quad and args:
                counter = [0, 0]
                integrand = args[0]

                def counted(x):
                    counter[0] += 1
                    counter[1] += int(np.size(x))
                    return integrand(x)

                args = (counted,) + args[1:]
            stack.append(sid)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if counter is not None:
                    points, extra = 0, counter
                else:
                    try:
                        points, extra = points_of(args, kwargs, result)
                    except (TypeError, ValueError, IndexError):
                        points, extra = 0, None
                tracer.spans.append((sid, parent, layer, name, t0, t1, threading.get_ident(),
                                     tracer._request, points, extra))

        return traced

    def cache_counts(self):
        """Hits and misses of the moments integral caches, or None if gone."""
        hits = misses = 0
        for module, attr in MOMENT_CACHES:
            found = _resolve(module, attr)
            info = getattr(getattr(*found), "cache_info", None) if found else None
            if info is None:
                self.notes.append(f"gle_spectra.{module}.{attr}.cache_info absent: "
                                  "moments.cache_hit_ratio omitted")
                return None
            ci = info()
            hits += ci.hits
            misses += ci.misses
        return hits, misses

    def sums(self):
        """Extensive per-round totals, to be added over rounds."""
        return reduce_spans(self.spans, self.cache_counts())


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def reduce_spans(spans, cache=None):
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))

    def ancestors(s):
        p = s[1]
        while p is not None and p in by_id:
            s = by_id[p]
            yield s
            p = s[1]

    out = {f"{layer}.{k}": 0.0 for layer in LAYERS for k in ("self_s", "busy_s")}
    counts = {}

    def add(key, value):
        counts[key] = counts.get(key, 0) + value

    for s in spans:
        sid, parent, layer, name, t0, t1, _, _, points, extra = s
        dur = t1 - t0
        out[f"{layer}.self_s"] += dur - _covered(children.get(sid, ()), t0, t1)
        up = list(ancestors(s))
        if not any(a[2] == layer for a in up):
            out[f"{layer}.busy_s"] += dur
        if name == "main":
            add("requests", 1)
            add("cli.lib_calls", len(children.get(sid, ())))
        elif layer == "kernels" and name == "kernel_eval":
            add("kernels.eval_calls", 1)
            add("kernels.eval_points", points)
        elif name == "nodes":
            add("kernels.measure_nodes", points)
        elif layer == "errorfn":
            add("errorfn.calls", 1)
            add("errorfn.points", points)
        elif layer == "transforms" and name in ("transform", "kcos_ksin_grid"):
            add("transforms.calls", 1)
            add("transforms.points", points)
        elif name in ROUTE_FUNCS:
            if not any(a[3] in ROUTE_FUNCS for a in up):
                route = ROUTE_FUNCS[name]
                add(f"transforms.{route}.points", points)
                add(f"transforms.{route}.busy_s", dur)
        elif layer == "spectra":
            add(f"spectra.{name}_calls", 1)
            add(f"spectra.{name}_points", points)
            if name == "r11" and any(a[3] == "compute_msd_curve" for a in up):
                add("moments.msd_r11_calls", 1)
        elif layer == "quad":
            if not any(a[2] == "quad" for a in up):
                add("quad.integrals", 1)
            if extra:
                add("quad.integrand_calls", extra[0])
                add("quad.integrand_points", extra[1])
        elif name == "compute_msd_curve":
            add("moments.msd_points", points)
            add("moments.msd_s", dur)
        elif name == "equipartition_report":
            add("moments.equipartition_s", dur)
        elif name == "prony_fit":
            add("simulate.prony_s", dur)
        elif name == "lyapunov_stationary_cov":
            add("simulate.lyapunov_s", dur)
        elif name == "simulate_paths":
            add("simulate.markovian_path_steps", points)
            add("simulate.markovian_s", dur)
        elif name == "spectral_sample":
            add("simulate.spectral_path_steps", points)
            add("simulate.spectral_s", dur)
            counts["simulate.spectral_matrix_bytes"] = max(
                counts.get("simulate.spectral_matrix_bytes", 0), extra or 0)
        elif name == "ensemble_msd":
            add("simulate.ensemble_msd_s", dur)
    out.update(counts)
    if cache is not None:
        out["moments.cache_hits"], out["moments.cache_misses"] = cache
    return out


class Metric(NamedTuple):
    """How a per-layer metric is computed from the per-round sums.

    ``mean`` is the per-round mean of the extensive total ``num``; ``ratio``
    is num/den over all rounds times ``scale`` (0 when den is 0, i.e. the
    layer did no such work); ``max`` the largest per-round value; ``cache``
    hits over lookups.  The metric is omitted when every binding in
    ``needs`` is absent.
    """

    how: str
    num: str
    unit: str
    den: str = None
    needs: tuple = ()
    scale: float = 1.0


_ERRORFN = ("transforms.dawson", "transforms.faddeeva")
_TRANSFORMS = ("cli.transform", "spectra.kcos_ksin_grid", "spectra.transform")
_R11 = ("cli.r11", "moments.r11", "simulate.r11")
_QUAD = tuple(_key(m, n) for m, n, layer in BINDINGS if layer == "quad")
_EVAL = ("transforms.kernel_eval", "simulate.kernel_eval")
_MSD = ("cli.compute_msd_curve",)


def _mean(num, unit="count", needs=()):
    return Metric("mean", num, unit, needs=needs)


def _ratio(num, den, unit, needs=(), scale=1.0):
    return Metric("ratio", num, unit, den, needs, scale)


METRICS = {
    "cli.self_s": _mean("cli.self_s", "s"),
    "cli.lib_calls_per_request": _ratio("cli.lib_calls", "requests", "calls/request"),
    "kernels.eval_calls": _mean("kernels.eval_calls", needs=_EVAL),
    "kernels.eval_points": _mean("kernels.eval_points", needs=_EVAL),
    "kernels.busy_s": _mean("kernels.busy_s", "s"),
    "kernels.self_s": _mean("kernels.self_s", "s"),
    "kernels.measure_nodes": _mean("kernels.measure_nodes",
                                   needs=("kernels.BernsteinMeasure.nodes",)),
    "errorfn.calls": _mean("errorfn.calls", needs=_ERRORFN),
    "errorfn.points": _mean("errorfn.points", needs=_ERRORFN),
    "errorfn.busy_s": _mean("errorfn.busy_s", "s", _ERRORFN),
    "errorfn.self_s": _mean("errorfn.self_s", "s", _ERRORFN),
    "errorfn.ns_per_point": _ratio("errorfn.busy_s", "errorfn.points", "ns/point", _ERRORFN, 1e9),
    "transforms.calls": _mean("transforms.calls", needs=_TRANSFORMS),
    "transforms.points": _mean("transforms.points", needs=_TRANSFORMS),
    "transforms.points_per_call": _ratio("transforms.points", "transforms.calls",
                                         "points/call", _TRANSFORMS),
    "transforms.self_s": _mean("transforms.self_s", "s", _TRANSFORMS),
    **{
        name: metric
        for fn, r in ROUTE_FUNCS.items()
        for name, metric in (
            (f"transforms.{r}.points", _mean(f"transforms.{r}.points",
                                             needs=(_key("transforms", fn),))),
            (f"transforms.{r}.ns_per_point", _ratio(f"transforms.{r}.busy_s",
                                                    f"transforms.{r}.points", "ns/point",
                                                    (_key("transforms", fn),), 1e9)),
        )
    },
    "spectra.r11_calls": _mean("spectra.r11_calls", needs=_R11),
    "spectra.r11_points": _mean("spectra.r11_points", needs=_R11),
    "spectra.r11_points_per_call": _ratio("spectra.r11_points", "spectra.r11_calls",
                                          "points/call", _R11),
    "spectra.r22_calls": _mean("spectra.r22_calls", needs=("cli.r22", "moments.r22")),
    "spectra.self_s": _mean("spectra.self_s", "s"),
    "quad.integrals": _mean("quad.integrals", needs=_QUAD),
    "quad.busy_s": _mean("quad.busy_s", "s", _QUAD),
    "quad.self_s": _mean("quad.self_s", "s", _QUAD),
    "quad.integrand_calls": _mean("quad.integrand_calls", needs=_QUAD),
    "quad.integrand_points": _mean("quad.integrand_points", needs=_QUAD),
    "quad.integrand_calls_per_integral": _ratio("quad.integrand_calls", "quad.integrals",
                                                "calls/integral", _QUAD),
    "moments.msd_points": _mean("moments.msd_points", needs=_MSD),
    "moments.s_per_msd_point": _ratio("moments.msd_s", "moments.msd_points", "s/point", _MSD),
    "moments.r11_calls_per_msd_point": _ratio("moments.msd_r11_calls", "moments.msd_points",
                                              "calls/point", _MSD + ("moments.r11",)),
    "moments.equipartition_s": _mean("moments.equipartition_s", "s",
                                     ("cli.equipartition_report",)),
    "moments.cache_hit_ratio": Metric("cache", "moments.cache_hits", "ratio",
                                      "moments.cache_misses"),
    "moments.self_s": _mean("moments.self_s", "s"),
    "simulate.prony_s": _mean("simulate.prony_s", "s", ("cli.prony_fit",)),
    "simulate.lyapunov_s": _mean("simulate.lyapunov_s", "s", ("cli.lyapunov_stationary_cov",
                                                              "simulate.lyapunov_stationary_cov")),
    "simulate.markovian_path_steps_per_s": _ratio("simulate.markovian_path_steps",
                                                  "simulate.markovian_s", "path-steps/s",
                                                  ("cli.simulate_paths",)),
    "simulate.spectral_path_steps_per_s": _ratio("simulate.spectral_path_steps",
                                                 "simulate.spectral_s", "path-steps/s",
                                                 ("cli.spectral_sample",)),
    "simulate.ensemble_msd_s": _mean("simulate.ensemble_msd_s", "s", ("cli.ensemble_msd",)),
    "simulate.spectral_matrix_bytes": Metric("max", "simulate.spectral_matrix_bytes", "B",
                                             needs=("cli.spectral_sample",)),
    "simulate.self_s": _mean("simulate.self_s", "s"),
}


def layer_metrics(round_sums, missing):
    """Per-layer metrics from the per-round sums of traced rounds.

    Returns ({name: (value, unit)}, notes); metrics fed only by absent
    bindings are left out.
    """
    notes = []
    totals, peak = {}, {}
    for sums in round_sums:
        for key, value in sums.items():
            totals[key] = totals.get(key, 0) + value
            peak[key] = max(peak.get(key, 0), value)
    rounds = max(len(round_sums), 1)
    metrics = {}
    for name, m in METRICS.items():
        if m.needs and all(n in missing for n in m.needs):
            notes.append(f"{name} omitted: {', '.join(m.needs)} absent")
            continue
        if m.how == "cache":
            if m.num not in totals:
                notes.append(f"{name} omitted: cache counters unavailable")
                continue
            lookups = totals[m.num] + totals[m.den]
            value = totals[m.num] / lookups if lookups else 0.0
        elif m.how == "mean":
            value = totals.get(m.num, 0) / rounds
        elif m.how == "max":
            value = peak.get(m.num, 0)
        else:
            den = totals.get(m.den, 0)
            value = totals.get(m.num, 0) / den * m.scale if den else 0.0
        metrics[name] = (value, m.unit)
    return metrics, notes
