"""One round of a benchmark workload, in a fresh interpreter.

A fresh process starts with the library's lru_caches cold, as every CLI user
does.  The round imports gle_spectra, writes the generated configs into its
working directory and parses them (together the set-up), then sends the
requests one after another through ``gle_spectra.cli.main``, with a
host-speed calibration (calibrator.py, in a process of its own) before the
first request and after each one.  Outputs are checked after the last request returns, outside the timed section.  The
result is printed as one JSON line.

Usage: python3 perfbench/worker.py --workload W --seed N --round I --trace 0|1 --workdir DIR
       python3 perfbench/worker.py --warmup
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402  (the set-up clock starts before any import)
from contextlib import nullcontext, redirect_stderr, redirect_stdout
import hashlib
import io
import json
import os
from pathlib import Path
import resource
import sys
import traceback

from calibrator import Calibrator
import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = ROOT / "tests" / "golden"


def _run_request(main, req, tracer):
    out, err = io.StringIO(), io.StringIO()
    result = checks.Output()
    scope = tracer.request(req.id) if tracer else nullcontext()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            with scope:
                result.rc = main(list(req.argv))
        except SystemExit as exc:  # argparse usage errors
            result.rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failure to report, not to die of
            tb = traceback.extract_tb(exc.__traceback__)[-1]
            result.raised = f"{type(exc).__name__}: {exc} ({Path(tb.filename).name}:{tb.lineno})"
    elapsed = time.perf_counter() - t0
    result.stdout, result.stderr = out.getvalue(), err.getvalue()
    return result, elapsed


def _digest(out):
    h = hashlib.sha256()
    for part in (repr(out.rc), out.raised or "", out.stdout, out.stderr,
                 *(f"{k}\0{v}" for k, v in sorted(out.files.items()))):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def run_round(workload, seed, index, trace, workdir):
    sys.path.insert(0, str(ROOT / "src"))
    import gle_spectra.cli as cli

    rnd = workloads.generate(workload, seed, index)
    Path(workdir).mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    for name, text in rnd.configs.items():
        Path(name).write_text(text, encoding="utf-8")
        cli.parse_config(text)
    setup_s = time.perf_counter() - _T0

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    outputs, times = {}, {}
    with Calibrator() as calibrator:
        calibration = [calibrator.measure()]
        if tracer:
            tracer.install()
        try:
            for req in rnd.requests:
                outputs[req.id], times[req.id] = _run_request(cli.main, req, tracer)
                calibration.append(calibrator.measure())
        finally:
            if tracer:
                tracer.uninstall()

    for req in rnd.requests:
        name = req.expect.get("output")
        if name and Path(name).is_file():
            outputs[req.id].files[name] = Path(name).read_text(encoding="utf-8")
    verdicts, notes = checks.check_round(rnd, outputs, GOLDEN_DIR)
    result = {
        "workload": workload,
        "seed": seed,
        "round": index,
        "trace": trace,
        "setup_s": setup_s,
        "wall_s": sum(times.values()),
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requests": [
            {
                "id": req.id,
                "argv": req.argv,
                "time_s": times[req.id],
                "points": req.points,
                "failure": verdicts[req.id].failure,
                "refusal": verdicts[req.id].refusal,
                "known_defect": verdicts[req.id].known_defect,
                "digest": _digest(outputs[req.id]),
            }
            for req in rnd.requests
        ],
        "notes": notes,
    }
    if tracer:
        result["layer_sums"] = tracer.sums()
        result["missing_bindings"] = sorted(tracer.missing)
        result["notes"] += tracer.notes
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--warmup", action="store_true", help="only import the package")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--round", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    args = ap.parse_args(argv)
    if args.warmup:
        sys.path.insert(0, str(ROOT / "src"))
        import gle_spectra.cli  # noqa: F401  (compiles the package and warms the file cache)
        return 0
    if None in (args.workload, args.seed, args.round, args.workdir):
        ap.error("--workload, --seed, --round and --workdir are required")
    result = run_round(args.workload, args.seed, args.round, bool(args.trace), args.workdir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
