"""gle-spectra benchmark: drives the CLI through a seeded workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 30 --trace 0

A run is a sequence of rounds.  Each round is a fresh interpreter
(worker.py) that imports the package from ``src/`` and sends the workload's
requests one after another through ``gle_spectra.cli.main``: a closed loop
with one client.  Rounds start until ``--seconds`` have passed (at least
MIN_ROUNDS of them); round i draws its parameters from (workload, seed, i).

With ``--trace 0`` the end-to-end metrics are medians over rounds.  With
``--trace 1`` every round runs twice, untraced and traced, on the same
inputs; the traced copy gives the per-layer metrics, the difference in wall
time gives trace.overhead_s, and the two must produce identical outputs.

The next-to-last line of standard output is a JSON report (environment,
failures and known defects by name, notes); the last line is the result
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
from pathlib import Path
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
MIN_ROUNDS = 3
# a run ends within the 180 s the harness allows; no round starts after
# START_LIMIT_S and none may outlive DEADLINE_S
START_LIMIT_S = 120.0
DEADLINE_S = 170.0
# Times are reported at a nominal host speed.  The worker has a fixed
# calibration task timed in a separate process (calibrator.py) before the
# first request and after each one; a request's raw time is multiplied by
# CALIBRATION_NOMINAL_S over the mean of the calibrations on either side of
# it, and the set-up time by the first one.  The host's speed drifts by tens
# of percent within seconds; over ten seeds this cut the quartile spread of
# wall_s from 12-21% to 3-5%.  Raw medians are in the report, and the traced
# run reports the raw wall_s and the calibration as per-layer metrics, so
# that a change that moves the calibration rather than the program shows.
CALIBRATION_NOMINAL_S = 0.008
THREAD_VARS = ("GLE_SPECTRA_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


class WorkerFailed(Exception):
    pass


def _git_commit(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed):
    import numpy as np
    from importlib.metadata import PackageNotFoundError, version

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(ROOT),
        "seed": seed,
    }


def _worker(args, timeout):
    cmd = [sys.executable, str(WORKER), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker timed out after {timeout:.0f}s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise WorkerFailed(f"worker exited {proc.returncode}: {' | '.join(tail)}")
    return proc.stdout


def run_round(workload, seed, index, trace, workdir, deadline):
    args = ["--workload", workload, "--seed", str(seed), "--round", str(index),
            "--trace", str(int(trace)), "--workdir", str(workdir / f"r{index}-t{int(trace)}")]
    out = _worker(args, max(1.0, deadline - time.monotonic()))
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise WorkerFailed("worker printed no result")


def _scaled(result):
    """(setup_s, [request seconds]) of a round at the nominal host speed."""
    cal = result["calibration_s"]
    setup = result["setup_s"] * CALIBRATION_NOMINAL_S / cal[0]
    times = [r["time_s"] * 2.0 * CALIBRATION_NOMINAL_S / (a + b)
             for r, a, b in zip(result["requests"], cal, cal[1:])]
    return setup, times


def _round_metrics(result, scaled=True):
    """wall_s, setup_s and points_per_s of one round.

    wall_s sums the request times, leaving out the calibrations between
    requests; points_per_s counts the points emitted per second of the
    requests that emit them: frequency rows (grid-sweep), MSD points
    (msd-quadrature), path-steps (monte-carlo).
    """
    reqs = result["requests"]
    if scaled:
        setup, times = _scaled(result)
    else:
        setup, times = result["setup_s"], [r["time_s"] for r in reqs]
    busy = sum(t for r, t in zip(reqs, times) if r["points"])
    points = sum(r["points"] for r in reqs)
    return sum(times), setup, points / busy if busy else 0.0


class Tally:
    """Requests attempted and failed over a run, with every failure named.

    Requests marked as a known defect are checked and reported like any
    other, but only count towards ``fail_ratio`` in the report, not towards
    the result's ``failed``: the benchmark flags regressions, and the defect
    is already on record.
    """

    def __init__(self):
        self.attempted = self.failed = self.failed_known = 0
        self.failures = []
        self.known_defects = {}

    def fail(self, round_index, request, reason, n=1, attempted=True):
        """Record n failed requests; ``attempted=False`` for requests that
        add() has counted already."""
        if attempted:
            self.attempted += n
        self.failed += n
        self.failures.append({"round": round_index, "request": request, "reason": reason})

    def add(self, round_index, req):
        self.attempted += 1
        if req["known_defect"]:
            entry = self.known_defects.setdefault(req["id"], {
                "defect": req["known_defect"], "argv": req["argv"], "rounds": 0,
                "failed_rounds": 0, "last_failure": None})
            entry["rounds"] += 1
            if req["failure"]:
                self.failed_known += 1
                entry["failed_rounds"] += 1
                entry["last_failure"] = req["failure"]
        elif req["failure"]:
            self.failed += 1
            self.failures.append({"round": round_index, "request": req["id"],
                                  "argv": req["argv"], "reason": req["failure"]})

    def fail_ratio(self):
        return (self.failed + self.failed_known) / self.attempted if self.attempted else 1.0


def _rounds(workload, seed, seconds, trace, workdir, tally, notes):
    """Run rounds until the time budget is spent; returns (plain, traced)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    copies = (False, True) if trace else (False,)
    plain, traced = [], []
    try:
        _worker(["--warmup"], timeout=60.0)
    except WorkerFailed as exc:
        tally.fail(None, None, f"warm-up: {exc}")
        return plain, traced
    index = 0
    while index < MIN_ROUNDS or time.monotonic() - start < seconds:
        if time.monotonic() - start > START_LIMIT_S:
            notes.append(f"stopped after {index} rounds at the start limit")
            break
        try:
            results = [run_round(workload, seed, index, t, workdir, deadline) for t in copies]
        except WorkerFailed as exc:
            n = len(workloads.generate(workload, seed, index).requests) * len(copies)
            tally.fail(index, None, str(exc), n)
            break
        for res in results:
            for req in res["requests"]:
                tally.add(index, req)
            notes.extend(note for note in res["notes"] if note not in notes)
        if trace:
            for a, b in zip(results[0]["requests"], results[1]["requests"]):
                if a["digest"] != b["digest"]:
                    tally.fail(index, a["id"], "traced output differs from untraced",
                               attempted=False)
        plain.append(results[0])
        if trace:
            traced.append(results[1])
        index += 1
    return plain, traced


def run(workload, seed, seconds, trace):
    import tracer

    work = HERE / ".work"
    workdir = work / str(os.getpid())
    tally, notes = Tally(), []
    try:
        plain, traced = _rounds(workload, seed, seconds, trace, workdir, tally, notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:  # another run still uses it
            pass

    metrics, raw = {}, {}
    names = ("wall_s", "setup_s", "points_per_s")
    if plain:
        unscaled = zip(*(_round_metrics(r, scaled=False) for r in plain))
        raw = {n: statistics.median(v) for n, v in zip(names, unscaled)}
        raw["calibration_s"] = statistics.median(c for r in plain for c in r["calibration_s"])
    if plain and not trace:
        units = ("s", "s", "points/s")
        scaled = list(zip(*(_round_metrics(r) for r in plain)))
        metrics = {n: (statistics.median(v), u) for n, v, u in zip(names, scaled, units)}
        metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in plain), "MB")
    elif traced:
        missing = set().union(*(r["missing_bindings"] for r in traced))
        metrics, layer_notes = tracer.layer_metrics([r["layer_sums"] for r in traced], missing)
        notes += layer_notes
        notes.append("busy_s and self_s are summed over threads; under the grid-sweep "
                     "thread pool they can exceed wall time")
        metrics["harness.raw_wall_s"] = (raw["wall_s"], "s")
        metrics["harness.calibration_s"] = (raw["calibration_s"], "s")
        metrics["trace.overhead_s"] = (statistics.mean(
            _round_metrics(t)[0] - _round_metrics(p)[0] for p, t in zip(plain, traced)), "s")
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": len(plain), "environment": environment(seed),
        "raw_medians": raw, "fail_ratio": tally.fail_ratio(), "failures": tally.failures,
        "known_defects": tally.known_defects, "notes": notes,
    }
    result = {
        "correct": bool(metrics) and tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def main(argv=None):
    ap = argparse.ArgumentParser(description="gle-spectra benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gle_spectra" / "cli.py").is_file():
        print(f"error: no gle_spectra package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
