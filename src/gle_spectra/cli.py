"""Command-line front end.

Subcommands: kernel, transform, spectrum, msd, equipartition, fit-exponent,
simulate.  Artifacts are CSV (one header row, 17-significant-digit values)
or JSON; errors leave as a machine-readable envelope on stderr with exit
code 1 (computational) or 2 (usage).
"""

import argparse
from dataclasses import dataclass
import json
import math
import re
import sys

import numpy as np

from .errors import ConfigError, GleError
from .kernels import ROUTE_CLOSED, GleParams, kernel_eval, parse_kernel_spec, validate_kernel
from .moments import (
    POSITION_INTEGRAL,
    VELOCITY_INTEGRAL,
    MsdCurve,
    compute_msd_curve,
    equipartition_report,
    fit_growth_exponent,
    var_v0,
    var_x0,
)
from .quad import DEFAULT_QUAD, QuadConfig
from .simulate import (
    default_spectral_grid,
    ensemble_msd,
    lyapunov_stationary_cov,
    markovian_embedding,
    prony_fit,
    simulate_paths,
    spectral_sample,
)
from .spectra import SpectralDensityCtx, r22, trapped_densities
from .transforms import kcos_ksin_grid


def _fmt(x):
    return x if isinstance(x, str) else f"{x:.17g}"


@dataclass
class RunConfig:
    """Validated run configuration from a JSON document."""

    params: GleParams
    kernel_spec: str
    quad: QuadConfig

    @property
    def kernel(self):
        return parse_kernel_spec(self.kernel_spec)

    def ctx(self):
        return SpectralDensityCtx(self.params, self.kernel, self.quad)

    def to_json(self):
        p = self.params
        doc = {
            "m": p.m,
            "lambda": p.lam,
            "beta": p.beta,
            "gamma": p.gamma,
            "kbt": p.kbt,
            "kernel": self.kernel_spec,
        }
        if self.quad != DEFAULT_QUAD:
            doc["quad"] = {
                "rel_tol": self.quad.rel_tol,
                "abs_tol": self.quad.abs_tol,
                "max_subdivisions": self.quad.max_subdivisions,
            }
        return json.dumps(doc, sort_keys=True)


_PARAM_BOUNDS = {
    "m": ("m", lambda v: v > 0, "must be > 0"),
    "lambda": ("lam", lambda v: v >= 0, "must be >= 0"),
    "beta": ("beta", lambda v: v > 0, "must be > 0"),
    "gamma": ("gamma", lambda v: v >= 0, "must be >= 0"),
    "kbt": ("kbt", lambda v: v >= 0, "must be >= 0"),
}


def parse_config(text):
    """Parse and validate a JSON run configuration.

    Violations raise ConfigError carrying the offending field path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("$", "top-level JSON object required")
    fields = {}
    for key, (attr, check, msg) in _PARAM_BOUNDS.items():
        if key not in doc:
            raise ConfigError(key, "missing required field")
        try:
            val = float(doc[key])
        except (TypeError, ValueError):
            raise ConfigError(key, "must be a number")
        if not math.isfinite(val):
            raise ConfigError(key, "must be finite")
        if not check(val):
            raise ConfigError(key, msg)
        fields[attr] = val
    params = GleParams(**fields)
    spec = doc.get("kernel")
    if not isinstance(spec, str):
        raise ConfigError("kernel", "missing kernel spec string")
    try:
        parse_kernel_spec(spec)
    except (ValueError, OSError) as exc:
        raise ConfigError("kernel", str(exc))
    quad = DEFAULT_QUAD
    if "quad" in doc:
        q = doc["quad"]
        if not isinstance(q, dict):
            raise ConfigError("quad", "must be an object")
        try:
            quad = QuadConfig(
                rel_tol=float(q.get("rel_tol", DEFAULT_QUAD.rel_tol)),
                abs_tol=float(q.get("abs_tol", DEFAULT_QUAD.abs_tol)),
                max_subdivisions=int(
                    q.get("max_subdivisions", DEFAULT_QUAD.max_subdivisions)
                ),
            )
        except ValueError as exc:
            raise ConfigError("quad", str(exc))
    return RunConfig(params=params, kernel_spec=spec, quad=quad)


def _parse_grid(text):
    if text.startswith("log:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError("grid spec must be log:<a>:<b>:<n>")
        a, b, n = float(parts[1]), float(parts[2]), int(parts[3])
        if not (0 < a < b < math.inf and n >= 2):
            raise ValueError("grid spec needs 0 < a < b < inf and n >= 2")
        return np.geomspace(a, b, n)
    grid = np.array([float(v) for v in text.split(",")])
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid values must be finite")
    return grid


def _emit(lines, path):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(header, columns, path):
    """One header row, then one row per index of the columns."""
    _emit([header, *(",".join(map(_fmt, row)) for row in zip(*columns))], path)


def _cmd_kernel(args):
    kernel = parse_kernel_spec(args.kernel)
    grid = _parse_grid(args.t_grid)
    if args.validate:
        report = validate_kernel(kernel, grid)
        out = {
            "kernel": args.kernel,
            "ok": report.ok,
            "checks": {k: {"passed": p, "detail": d} for k, (p, d) in report.checks.items()},
        }
        _emit([json.dumps(out, indent=2, sort_keys=True)], args.output)
        return 0
    _emit_csv("t,k", (grid, kernel_eval(kernel, grid)), args.output)
    return 0


def _cmd_transform(args):
    kernel = parse_kernel_spec(args.kernel)
    omegas = _parse_grid(args.omega)
    kcos, ksin = kcos_ksin_grid(kernel, omegas, route=args.route)
    # the origin rows are labelled closed_form, as transform labels them
    routes = np.where(omegas == 0.0, ROUTE_CLOSED, args.route or kernel.routes[0])
    _emit_csv("omega,kcos,ksin,route", (omegas, kcos, ksin, routes), args.output)
    return 0


def _cmd_spectrum(args):
    cfg = parse_config(_read(args.config))
    ctx = cfg.ctx()
    omegas = _parse_grid(args.grid)
    if ctx.params.trapped:
        header, columns = "omega,r11,r22,im_r12", (omegas, *trapped_densities(ctx, omegas))
    else:
        header, columns = "omega,r22", (omegas, r22(ctx, omegas))
    _emit_csv(header, columns, args.output)
    return 0


def _cmd_msd(args):
    cfg = parse_config(_read(args.config))
    ctx = cfg.ctx()
    if args.quantity == "x" and not ctx.params.trapped:
        raise ValueError("free particle has no stationary position; use --quantity v")
    times = _parse_grid(args.t_grid)
    quantity = POSITION_INTEGRAL if args.quantity == "x" else VELOCITY_INTEGRAL
    curve = compute_msd_curve(ctx, times, quantity)
    _emit_csv("t,msd", (curve.times, curve.values), args.output)
    return 0


def _cmd_equipartition(args):
    cfg = parse_config(_read(args.config))
    if cfg.params.kbt == 0.0:
        raise ConfigError("kbt", "must be > 0 for equipartition ratios")
    rep = equipartition_report(cfg.ctx())
    # RFC 8259 JSON has no NaN or Infinity: a failed quadrature's value or
    # error is written as null, and its notes say why
    doc = {
        key: value if value is not None and math.isfinite(value) else None
        for key, value in (
            ("gamma_x_ratio", rep.gamma_x_ratio),
            ("m_v_ratio", rep.m_v_ratio),
            ("err_x", rep.err_x),
            ("err_v", rep.err_v),
        )
    }
    if rep.notes:
        doc["notes"] = list(rep.notes)
    _emit([json.dumps(doc, sort_keys=True)], args.output)
    return 0


def _cmd_fit_exponent(args):
    rows = [ln.strip() for ln in _read(args.input).splitlines() if ln.strip()]
    header = rows[0].split(",")
    if header[:2] != ["t", "msd"]:
        raise GleError("input CSV must have header t,msd")
    data = np.array([[float(v) for v in ln.split(",")[:2]] for ln in rows[1:]])
    curve = MsdCurve(
        times=tuple(data[:, 0]), values=tuple(data[:, 1]), quantity=POSITION_INTEGRAL
    )
    lo, _, hi = args.window.partition(":")
    model = "pure_power" if args.model == "power" else "t_log_t"
    fit = fit_growth_exponent(curve, (float(lo), float(hi)), model)
    doc = {"model": model, "gof": fit.gof}
    if model == "pure_power":
        doc.update(exponent=fit.exponent, amplitude=fit.amplitude)
    else:
        doc.update(ratio=fit.ratio, drift=fit.gof)
    _emit([json.dumps(doc, sort_keys=True)], args.output)
    return 0


def _cmd_simulate(args):
    if args.n_paths < 2:
        raise ValueError("--n-paths must be >= 2 for ensemble statistics")
    for name, value in (("--dt", args.dt), ("--t-max", args.t_max)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0")
    if args.dt > args.t_max:
        raise ValueError("--dt must not exceed --t-max")
    cfg = parse_config(_read(args.config))
    ctx = cfg.ctx()
    if args.method == "markovian":
        measure = prony_fit(
            cfg.kernel, args.prony_modes, (args.dt, max(10.0 * args.dt, args.t_max))
        ).measure
        sde = markovian_embedding(cfg.params, measure)
        ens = simulate_paths(
            sde, dt=args.dt, t_max=args.t_max, n_paths=args.n_paths, seed=args.seed
        )
        cov = lyapunov_stationary_cov(sde)
        ix = sde.labels.index("x") if "x" in sde.labels else None
        iv = sde.labels.index("v")
        var_x_ref = cov[ix, ix] if ix is not None else None
        var_v_ref = cov[iv, iv]
    else:
        if not ctx.params.trapped:
            raise ValueError("spectral sampling needs gamma > 0")
        grid = default_spectral_grid(ctx, t_max=args.t_max)
        t_grid = np.arange(0.0, args.t_max + args.dt, args.dt)
        ens = spectral_sample(ctx, grid, t_grid, args.n_paths, args.seed)
        var_x_ref, var_v_ref = var_x0(ctx), var_v0(ctx)
    quantity = "x_integral" if "x" in ens.labels else "v_integral"
    curve = ensemble_msd(ens, quantity)
    _emit_csv("t,msd,stderr", (curve.times, curve.values, curve.stderr), args.output)
    p = ctx.params
    var_v = float(ens.column("v")[:, -1].var(ddof=1))
    var_x = float(ens.column("x")[:, -1].var(ddof=1)) if "x" in ens.labels else None
    summary = {
        "method": args.method,
        "n_paths": args.n_paths,
        "seed": args.seed,
        "var_v": var_v,
        "var_x": var_x,
        "equipartition_ratios": {
            "m_v": p.m * var_v / p.kbt if p.kbt > 0 else None,
            "gamma_x": p.gamma * var_x / p.kbt if (var_x is not None and p.kbt > 0) else None,
        },
        "reference": {"var_x": var_x_ref, "var_v": var_v_ref},
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class UsageError(Exception):
    """A command line that does not parse."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors leave through the JSON envelope."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# argparse reads a value with a leading minus as an option unless it is a
# single number, so "--omega -2,0,2" is joined into "--omega=-2,0,2"
_GRID_OPTIONS = ("--omega", "--grid", "--t-grid")
_SIGNED_VALUE = re.compile(r"-[0-9.]")


def _attach_signed_grids(argv):
    out = []
    for arg in argv:
        if out and out[-1] in _GRID_OPTIONS and _SIGNED_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser():
    ap = _Parser(
        prog="gle-spectra",
        description="Stationary generalized Langevin dynamics: transforms, "
        "spectra, MSD growth laws, equipartition checks, Monte Carlo.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="evaluate or validate a memory kernel")
    k.add_argument("--kernel", required=True)
    k.add_argument("--t-grid", default="log:0.1:100:25")
    k.add_argument("--validate", action="store_true")
    k.add_argument("-o", "--output")
    k.set_defaults(fn=_cmd_kernel)

    t = sub.add_parser("transform", help="cosine/sine transforms on a frequency grid")
    t.add_argument("--kernel", required=True)
    t.add_argument("--omega", required=True, help="comma list or log:<a>:<b>:<n>")
    t.add_argument("--route", choices=["closed_form", "cm_measure", "phi_t2_faddeeva", "numeric"])
    t.add_argument("-o", "--output")
    t.set_defaults(fn=_cmd_transform)

    s = sub.add_parser("spectrum", help="spectral densities r11, r22, r12")
    s.add_argument("--config", required=True)
    s.add_argument("--grid", required=True, help="log:<a>:<b>:<n> or comma list")
    s.add_argument("-o", "--output")
    s.set_defaults(fn=_cmd_spectrum)

    m = sub.add_parser("msd", help="mean-squared displacement of the integrated process")
    m.add_argument("--config", required=True)
    m.add_argument("--quantity", choices=["x", "v"], default="x")
    m.add_argument("--t-grid", required=True)
    m.add_argument("-o", "--output")
    m.set_defaults(fn=_cmd_msd)

    e = sub.add_parser("equipartition", help="equipartition-of-energy ratios")
    e.add_argument("--config", required=True)
    e.add_argument("-o", "--output")
    e.set_defaults(fn=_cmd_equipartition)

    f = sub.add_parser("fit-exponent", help="growth-law fit of an msd CSV")
    f.add_argument("--input", required=True)
    f.add_argument("--window", required=True, help="<t_min>:<t_max>")
    f.add_argument("--model", choices=["power", "tlogt"], default="power")
    f.add_argument("-o", "--output")
    f.set_defaults(fn=_cmd_fit_exponent)

    si = sub.add_parser("simulate", help="Monte Carlo ensembles and their MSD")
    si.add_argument("--config", required=True)
    si.add_argument("--method", choices=["markovian", "spectral"], default="markovian")
    si.add_argument("--n-paths", type=int, default=1000)
    si.add_argument("--dt", type=float, default=0.1)
    si.add_argument("--t-max", type=float, default=100.0)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--prony-modes", type=int, default=8)
    si.add_argument("-o", "--output")
    si.set_defaults(fn=_cmd_simulate)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(
            _attach_signed_grids(sys.argv[1:] if argv is None else argv)
        )
        return args.fn(args)
    except (UsageError, ConfigError, ValueError, OSError) as exc:  # bad request or inputs
        _emit_error(exc)
        return 2
    except GleError as exc:  # computational failure
        _emit_error(exc)
        return 1


def _emit_error(exc):
    envelope = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(envelope) + "\n")


if __name__ == "__main__":
    sys.exit(main())
