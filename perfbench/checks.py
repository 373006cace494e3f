"""Output checks for one workload round.

Every request is judged after the round's timed section.  A request fails
when it raises, exits non-zero where success is expected, or its output
breaks a check; each failure is returned as a message naming what broke.
The tolerances are those of the acceptance suite (tests/test_acceptance.py)
where it has one for the same quantity.
"""

from dataclasses import dataclass, field
import json
import math
from pathlib import Path

import numpy as np
from scipy import special

# across-path standard errors allowed between a Monte Carlo variance and the
# summary's reference value; five keep false alarms below ~1e-6 per check
SIMULATE_SE = 5.0
# trapezoid of the spectral density over the 1e-3..1e3 grid against the
# equipartition value; truncation of the grid costs at most ~0.3%
SPECTRUM_INTEGRAL_TOL = 0.01
# relative agreement of the transform routes with the numeric oracle, and the
# absolute floor (share of the route's largest magnitude) past which the
# oracle is limited by cancellation, as in acceptance criterion 7
ROUTE_REL_TOL = 1e-6
ROUTE_ABS_FLOOR = 1e-10
# agreement of the gaussian phi-route grid with its closed forms; the floor
# (share of the largest magnitude) only admits values near underflow
EXACT_REL_TOL = 1e-10
EXACT_ABS_FLOOR = 1e-14
IDENTITY_REL_TOL = 1e-12


@dataclass
class Output:
    """What one request produced."""

    rc: object = None  # exit code, or None when main raised
    stdout: str = ""
    stderr: str = ""
    files: dict = field(default_factory=dict)
    raised: str = None


class CheckFailed(Exception):
    def __init__(self, message, known_defect=None):
        super().__init__(message)
        self.known_defect = known_defect


def _require(cond, message, known_defect=None):
    if not cond:
        raise CheckFailed(message, known_defect)


def _csv(text, header):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    _require(lines and lines[0] == header, f"header {lines[0] if lines else None!r} != {header!r}")
    return [ln.split(",") for ln in lines[1:]]


def _floats(rows, ncols):
    arr = np.array([[float(v) for v in row[:ncols]] for row in rows], dtype=float)
    _require(arr.size and np.all(np.isfinite(arr)), "non-finite or missing values")
    return arr


def _text(req, out):
    name = req.expect.get("output")
    return out.files.get(name, "") if name else out.stdout


def _error_envelope(stderr):
    try:
        doc = json.loads(stderr.strip().splitlines()[-1])
        return doc["error"]["type"]
    except (IndexError, ValueError, KeyError, TypeError):
        return None


def _transform_rows(req, text):
    rows = _csv(text, "omega,kcos,ksin,route")
    _require(len(rows) == req.expect["rows"], f"{len(rows)} rows, expected {req.expect['rows']}")
    routes = {row[3] for row in rows}
    _require(routes == {req.expect["route"]}, f"routes {sorted(routes)} != {req.expect['route']}")
    return _floats(rows, 3)


def _route_agreement(got, oracle, what, slack=None):
    """Acceptance criterion 7: agree at 1e-6, or within 1e-10 of the largest
    magnitude where the oracle loses digits to cancellation.

    ``slack`` is (relative tolerance, share of the largest magnitude, defect)
    for a comparison with a recorded defect: misses within either tolerance
    are reported as the defect, larger ones as failures.
    """
    index = {w: i for i, w in enumerate(got[:, 0])}
    shared = [(index[w], j) for j, w in enumerate(oracle[:, 0]) if w in index]
    _require(len(shared) == oracle.shape[0], f"{what}: oracle frequencies not on the grid")
    for col, name in ((1, "kcos"), (2, "ksin")):
        a = np.array([got[i, col] for i, _ in shared])
        b = np.array([oracle[j, col] for _, j in shared])
        peak = np.abs(got[:, col]).max()
        diff = np.abs(a - b)
        bad = (diff > ROUTE_REL_TOL * np.abs(b)) & (diff > ROUTE_ABS_FLOOR * peak)
        where = [float(oracle[j, 0]) for (_, j), miss in zip(shared, bad) if miss]
        known = None
        if slack is not None:
            rel, floor, defect = slack
            if np.all(diff[bad] <= np.maximum(rel * np.abs(b[bad]), floor * peak)):
                known = defect
        _require(not bad.any(), f"{name} differs from {what} at omega={where}", known)


def _check_transform(req, out, outputs, rounds):
    vals = _transform_rows(req, out.stdout)
    for key in ("oracle", "same_as"):
        other = req.expect.get(key)
        if other is None:
            continue
        peer = rounds[other]
        peer_out = outputs[other]
        _require(peer_out.rc == 0, f"{key} {other} has no output")
        slack = req.expect.get("oracle_slack") if key == "oracle" else None
        _route_agreement(vals, _transform_rows(peer, peer_out.stdout), other, slack)
    if "gaussian_scale" in req.expect:
        _gaussian_exact(vals, req.expect["gaussian_scale"])


def _gaussian_exact(vals, a):
    """K(t) = exp(-a t^2): Kcos = sqrt(pi/a)/2 exp(-w^2/4a), Ksin = F(w/2sqrt(a))/sqrt(a)
    with F Dawson's integral (scipy's, independent of the package's errorfn)."""
    w = vals[:, 0]
    exact = (0.5 * math.sqrt(math.pi / a) * np.exp(-w * w / (4.0 * a)),
             special.dawsn(w / (2.0 * math.sqrt(a))) / math.sqrt(a))
    for col, name, want in ((1, "kcos", exact[0]), (2, "ksin", exact[1])):
        diff = np.abs(vals[:, col] - want)
        bad = (diff > EXACT_REL_TOL * np.abs(want)) & (diff > EXACT_ABS_FLOOR * np.abs(want).max())
        _require(not bad.any(), f"{name} differs from the gaussian closed form at "
                                f"omega={w[bad].tolist()}")


def _check_spectrum(req, out, configs):
    cfg = json.loads(configs[req.expect["config"]])
    header = "omega,r11,r22,im_r12" if req.expect["trapped"] else "omega,r22"
    rows = _csv(out.stdout, header)
    _require(len(rows) == req.expect["rows"], f"{len(rows)} rows, expected {req.expect['rows']}")
    vals = _floats(rows, 4 if req.expect["trapped"] else 2)
    w = vals[:, 0]
    _require(np.all(vals[:, 1] > 0), "spectral density not positive")
    if req.expect["trapped"]:
        r11, r22, im12 = vals[:, 1], vals[:, 2], vals[:, 3]
        scale = IDENTITY_REL_TOL * np.abs(r11 * w * w)
        _require(np.all(np.abs(r22 - w * w * r11) <= scale), "r22 != w^2 r11")
        _require(np.all(np.abs(im12 - w * r11) <= IDENTITY_REL_TOL * np.abs(w * r11)),
                 "im_r12 != w r11")
        ratio = cfg["gamma"] / math.pi * np.trapezoid(r11, w)
    else:
        ratio = cfg["m"] / math.pi * np.trapezoid(vals[:, 1], w)
    if req.expect["rows"] >= 1000:  # the integral needs the dense grid
        _require(abs(ratio - 1.0) <= SPECTRUM_INTEGRAL_TOL,
                 f"equipartition integral of the density {ratio:.5f} != 1 "
                 f"+- {SPECTRUM_INTEGRAL_TOL}")


def _check_equipartition(req, out):
    doc = json.loads(out.stdout)
    if doc.get("notes"):
        return f"refused with notes: {doc['notes']}"
    pairs = [("m_v_ratio", "err_v")]
    if req.expect["trapped"]:
        pairs.insert(0, ("gamma_x_ratio", "err_x"))
    for key, err_key in pairs:
        val, err = doc[key], doc[err_key]
        _require(val is not None and err is not None, f"{key} missing")
        tol = max(1e-3, 3.0 * err)
        _require(abs(val - 1.0) <= tol, f"{key} = {val!r} +- {err!r}, not within {tol:.3g} of 1")
    return None


def _check_msd(req, out):
    rows = _csv(_text(req, out), "t,msd")
    _require(len(rows) == req.expect["rows"], f"{len(rows)} rows, expected {req.expect['rows']}")
    vals = _floats(rows, 2)
    _require(np.all(vals[:, 1] > 0), "msd not positive")
    if req.expect["quantity"] == "x":
        _require(np.all(np.diff(vals[:, 1]) > 0), "position-integral msd not increasing")
        return
    # acceptance criterion 4: within 1% of 2 E[x^2] from some grid time on
    ratio = vals[-1, 1] / req.expect["saturation"]
    _require(abs(ratio - 1.0) <= 0.01,
             f"velocity-integral msd does not saturate: last ratio {ratio:.5f}")


def _check_fit(req, out):
    doc = json.loads(out.stdout)
    if req.expect["model"] == "power":
        exp = doc["exponent"]
        _require(abs(exp - req.expect["exponent"]) <= req.expect["tol"],
                 f"exponent {exp:.4f} != {req.expect['exponent']:.4f} +- {req.expect['tol']}")
    else:
        _require(doc["drift"] < req.expect["drift"],
                 f"t log t ratio drift {doc['drift']:.4f} >= {req.expect['drift']}")


def _check_simulate(req, out, configs):
    cfg = json.loads(configs[req.expect["config"]])
    lines = out.stdout.strip().splitlines()
    _require(len(lines) >= 2, "no output")
    summary = json.loads(lines[-1])
    rows = _csv("\n".join(lines[:-1]), "t,msd,stderr")
    _require(len(rows) == req.expect["rows"], f"{len(rows)} rows, expected {req.expect['rows']}")
    vals = _floats(rows, 3)
    _require(np.all(vals[:, 1:] >= 0), "negative msd or standard error")
    n = summary["n_paths"]
    _require(n == req.expect["n_paths"], f"n_paths {n} != {req.expect['n_paths']}")
    exact = {"var_v": cfg["kbt"] / cfg["m"], "var_x": cfg["kbt"] / cfg["gamma"]}
    for key in ("var_x", "var_v"):
        ref = summary["reference"][key]
        _require(ref is not None and abs(ref / exact[key] - 1.0) <= 1e-3,
                 f"reference {key} {ref!r} != equipartition value {exact[key]:.6g}")
        if req.expect.get("golden"):
            continue  # 64 paths: the golden file pins the values instead
        se = ref * math.sqrt(2.0 / (n - 1))
        dev = abs(summary[key] - ref)
        _require(dev <= SIMULATE_SE * se,
                 f"sample {key} {summary[key]:.5f} is {dev / se:.1f} SE from {ref:.5f}")


def _compare_csv(got, want, rel):
    g_lines, w_lines = got.strip().splitlines(), want.strip().splitlines()
    _require(g_lines[:1] == w_lines[:1] and len(g_lines) == len(w_lines), "shape differs from golden")
    for g, w in zip(g_lines[1:], w_lines[1:]):
        for gv, wv in zip(g.split(","), w.split(",")):
            try:
                gf, wf = float(gv), float(wv)
            except ValueError:
                _require(gv == wv, f"{gv!r} != golden {wv!r}")
                continue
            _require(abs(gf - wf) <= rel * abs(wf) + 1e-300, f"{gf!r} != golden {wf!r} (rel {rel})")


def _check_golden(req, out, golden_dir, notes):
    name, mode, arg = req.expect["golden"]
    path = Path(golden_dir) / name
    if not path.is_file():
        notes.append(f"{req.id}: golden file {name} not found; comparison skipped")
        return
    want = path.read_text(encoding="utf-8")
    if mode == "csv":
        _compare_csv(_text(req, out), want, arg)
    elif mode == "json":
        got_doc, want_doc = json.loads(out.stdout), json.loads(want)
        for key, wv in want_doc.items():
            if isinstance(wv, float) and key not in ("gof", "err_x", "err_v"):
                gv = got_doc.get(key)
                _require(gv is not None and abs(gv - wv) <= arg * abs(wv),
                         f"{key} {gv!r} != golden {wv!r} (rel {arg})")
    else:  # simulate: CSV bit for bit, summary equal as JSON
        lines = out.stdout.strip().splitlines()
        _require("\n".join(lines[:-1]) == want.strip(), "CSV differs from golden bit for bit")
        summary_path = Path(golden_dir) / arg
        if summary_path.is_file():
            _require(json.loads(lines[-1]) == json.loads(summary_path.read_text(encoding="utf-8")),
                     "summary differs from golden")
        else:
            notes.append(f"{req.id}: golden file {arg} not found; comparison skipped")


@dataclass
class Verdict:
    failure: str = None  # what broke, or None
    refusal: str = None  # an honest refusal, which passes
    known_defect: str = None  # set when the failure is a recorded defect


def check_request(req, out, outputs, rounds, configs, golden_dir, notes):
    """Judge one request."""
    if out.raised:
        return Verdict(f"raised {out.raised}", known_defect=req.known_defect)
    if out.rc != 0:
        kind = _error_envelope(out.stderr)
        if req.kind == "equipartition" and out.rc == 1 and kind:
            return Verdict(refusal=f"refused with {kind}")
        return Verdict(f"exit code {out.rc}: {out.stderr.strip()[:300]}",
                       known_defect=req.known_defect)
    refusal = None
    try:
        if req.kind == "transform":
            _check_transform(req, out, outputs, rounds)
        elif req.kind == "spectrum":
            _check_spectrum(req, out, configs)
        elif req.kind == "equipartition":
            refusal = _check_equipartition(req, out)
        elif req.kind == "msd":
            _check_msd(req, out)
        elif req.kind == "fit":
            _check_fit(req, out)
        elif req.kind == "simulate":
            _check_simulate(req, out, configs)
        else:
            raise CheckFailed(f"no check for request kind {req.kind!r}")
        if req.expect.get("golden") and refusal is None:
            _check_golden(req, out, golden_dir, notes)
    except CheckFailed as exc:
        return Verdict(str(exc), known_defect=req.known_defect or exc.known_defect)
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # malformed output
        return Verdict(f"unreadable output: {type(exc).__name__}: {exc}",
                       known_defect=req.known_defect)
    return Verdict(refusal=refusal)


def check_round(rnd, outputs, golden_dir):
    """Judge every request of a round; returns ({request id: Verdict}, notes)."""
    by_id = {r.id: r for r in rnd.requests}
    notes = []
    verdicts = {req.id: check_request(req, outputs[req.id], outputs, by_id, rnd.configs,
                                      golden_dir, notes)
                for req in rnd.requests}
    return verdicts, notes
