"""Tests of the benchmark itself: seeded generation, output checks, tracer.

Run from the root of the repository:  python -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import shutil
import subprocess
from pathlib import Path
import sys

import pytest

import checks
import tracer
import workloads
from conftest import BENCH, ROOT


def _configs_and_argv(workload, seed, index=0):
    rnd = workloads.generate(workload, seed, index)
    return [r.argv for r in rnd.requests], rnd.configs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_parameters(workload):
    assert _configs_and_argv(workload, 11) == _configs_and_argv(workload, 11)
    assert _configs_and_argv(workload, 11, 3) == _configs_and_argv(workload, 11, 3)
    argv, configs = _configs_and_argv(workload, 11)
    other_argv, other_configs = _configs_and_argv(workload, 12)
    assert argv != other_argv or configs != other_configs
    # later rounds of one run draw other parameters too
    assert _configs_and_argv(workload, 11, 1) != (argv, configs)


def test_draws_stay_in_range_and_spread_over_rounds():
    values = [workloads.Draws("w", 5, i).uniform(2.0, 3.0) for i in range(40)]
    assert all(2.0 <= v < 3.0 for v in values)
    # a Kronecker sequence leaves no quarter of the range empty over 40 rounds
    assert all(any(lo <= v < lo + 0.25 for v in values) for lo in (2.0, 2.25, 2.5, 2.75))


def _run(argv):
    from gle_spectra.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return checks.Output(rc=rc, stdout=out.getvalue(), stderr=err.getvalue())


def _request(workload, rid):
    rnd = workloads.generate(workload, 1, 0)
    return rnd, {r.id: r for r in rnd.requests}[rid]


def _judge(rnd, req, out, outputs=None):
    outputs = dict(outputs or {}, **{req.id: out})
    by_id = {r.id: r for r in rnd.requests}
    return checks.check_request(req, out, outputs, by_id, rnd.configs,
                                ROOT / "tests" / "golden", [])


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write_configs(rnd):
    for name, text in rnd.configs.items():
        Path(name).write_text(text)


def _corrupt_value(text, line, col, factor):
    lines = text.splitlines()
    cells = lines[line].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_spectrum_identity_catches_corrupted_r22(in_tmp):
    rnd, req = _request("grid-sweep", "golden-spectrum")
    _write_configs(rnd)
    out = _run(req.argv)
    assert _judge(rnd, req, out).failure is None
    out.stdout = _corrupt_value(out.stdout, 4, 2, 1.0 + 1e-9)
    verdict = _judge(rnd, req, out)
    assert verdict.failure == "r22 != w^2 r11"
    assert verdict.known_defect is None


def test_transform_route_check_catches_disagreement_with_oracle(in_tmp):
    rnd, req = _request("grid-sweep", "transform-powerlaw-cm")
    oracle = rnd.requests[[r.id for r in rnd.requests].index("transform-powerlaw-numeric")]
    outputs = {oracle.id: _run(oracle.argv)}
    out = _run(req.argv)
    assert _judge(rnd, req, out, outputs).failure is None
    # row 13 holds the 2nd shared frequency (the oracle grid is rows 13, 38, ...)
    out.stdout = _corrupt_value(out.stdout, 38, 1, 1.0 + 1e-4)
    verdict = _judge(rnd, req, out, outputs)
    assert "kcos differs from transform-powerlaw-numeric" in verdict.failure
    assert verdict.known_defect is None


def test_closed_form_check_catches_disagreement_with_cm_route(in_tmp):
    rnd, req = _request("grid-sweep", "transform-powerlaw")
    peers = [r for r in rnd.requests if r.id in (req.expect["oracle"], req.expect["same_as"])]
    outputs = {r.id: _run(r.argv) for r in peers}
    out = _run(req.argv)
    assert _judge(rnd, req, out, outputs).failure is None
    # a row off the oracle grid: only the cm_measure comparison sees it
    out.stdout = _corrupt_value(out.stdout, 100, 2, 1.0 + 1e-5)
    verdict = _judge(rnd, req, out, outputs)
    assert "ksin differs from transform-powerlaw-cm" in verdict.failure
    assert verdict.known_defect is None


def test_cauchy_oracle_slack_is_its_own_known_defect(in_tmp):
    rnd, req = _request("grid-sweep", "transform-cauchy")
    oracle = {r.id: r for r in rnd.requests}[req.expect["oracle"]]
    outputs = {oracle.id: _run(oracle.argv)}
    out = _run(req.argv)
    assert _judge(rnd, req, out, outputs).failure is None
    slight = checks.Output(rc=0, stdout=_corrupt_value(out.stdout, 38, 1, 1.0 + 1e-4))
    verdict = _judge(rnd, req, slight, outputs)
    assert verdict.failure and verdict.known_defect == workloads.PHI_ORACLE_DEFECT
    large = checks.Output(rc=0, stdout=_corrupt_value(out.stdout, 38, 1, 1.0 + 1e-2))
    verdict = _judge(rnd, req, large, outputs)
    assert verdict.failure and verdict.known_defect is None


@pytest.mark.parametrize("rid", ["transform-rouse", "transform-one-plus-t-inverse"])
def test_closed_forms_have_a_strict_numeric_oracle(rid):
    _, req = _request("grid-sweep", rid)
    assert req.expect["oracle"] == f"{rid}-numeric"
    assert "oracle_slack" not in req.expect


def test_gaussian_closed_form_check_catches_slight_error(in_tmp):
    rnd, req = _request("grid-sweep", "transform-gaussian")
    oracle = {r.id: r for r in rnd.requests}[req.expect["oracle"]]
    outputs = {oracle.id: _run(oracle.argv)}
    out = _run(req.argv)
    assert _judge(rnd, req, out, outputs).failure is None
    # a row off the oracle grid, where only the closed form sees the error
    out.stdout = _corrupt_value(out.stdout, 100, 2, 1.0 + 1e-8)
    verdict = _judge(rnd, req, out, outputs)
    assert "ksin differs from the gaussian closed form" in verdict.failure
    assert verdict.known_defect is None


def test_equipartition_check_catches_wrong_ratio_and_passes_refusal(in_tmp):
    rnd, req = _request("msd-quadrature", "golden-equipartition")
    _write_configs(rnd)
    out = _run(req.argv)
    assert _judge(rnd, req, out).failure is None
    doc = json.loads(out.stdout)
    doc["gamma_x_ratio"] = 1.01
    bad = checks.Output(rc=0, stdout=json.dumps(doc))
    assert "gamma_x_ratio" in _judge(rnd, req, bad).failure
    doc["notes"] = ["var_x0: tolerance not met"]
    assert _judge(rnd, req, checks.Output(rc=0, stdout=json.dumps(doc))).failure is None
    refused = checks.Output(rc=1, stderr='{"error": {"type": "ToleranceNotMet", "message": "x"}}')
    verdict = _judge(rnd, req, refused)
    assert verdict.failure is None and verdict.refusal == "refused with ToleranceNotMet"


def test_stiff_trap_fails_as_known_defect(in_tmp):
    rnd, req = _request("msd-quadrature", "stiff-trap-rouse")
    _write_configs(rnd)
    verdict = _judge(rnd, req, _run(req.argv))
    assert verdict.failure and verdict.known_defect == workloads.STIFF_TRAP_DEFECT


def test_simulate_checks_catch_corrupted_golden_and_variance(in_tmp):
    rnd, req = _request("monte-carlo", "golden-simulate")
    _write_configs(rnd)
    out = _run(req.argv)
    assert _judge(rnd, req, out).failure is None
    corrupted = checks.Output(rc=0, stdout=_corrupt_value(out.stdout, 3, 1, 1.0 + 1e-15))
    assert "bit for bit" in _judge(rnd, req, corrupted).failure

    rnd, req = _request("monte-carlo", "simulate-markovian-rouse")
    lines = out.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    cfg = json.loads(rnd.configs[req.expect["config"]])
    summary.update(n_paths=500, reference={"var_x": cfg["kbt"] / cfg["gamma"],
                                           "var_v": cfg["kbt"] / cfg["m"]})
    summary["var_x"] = summary["reference"]["var_x"]
    summary["var_v"] = 1.5 * summary["reference"]["var_v"]
    rows = ["t,msd,stderr"] + [f"{0.1 * (i + 1)!r},1.0,0.1" for i in range(1000)]
    bad = checks.Output(rc=0, stdout="\n".join(rows + [json.dumps(summary)]) + "\n")
    assert "sample var_v" in _judge(rnd, req, bad).failure


def test_fit_and_msd_checks_catch_corrupted_outputs(in_tmp):
    rnd, req = _request("msd-quadrature", "fit-rouse")
    bad_fit = checks.Output(rc=0, stdout=json.dumps({"model": "pure_power", "exponent": 1.2}))
    assert "exponent" in _judge(rnd, req, bad_fit).failure
    _, req = _request("msd-quadrature", "msd-v-rouse")
    rows = ["t,msd"] + [f"{10.0 ** (i / 4)!r},{req.expect['saturation'] * 0.9!r}"
                        for i in range(25)]
    bad_msd = checks.Output(rc=0, stdout="\n".join(rows) + "\n")
    assert "does not saturate" in _judge(rnd, req, bad_msd).failure


def test_missing_binding_omits_its_metrics_with_a_note(monkeypatch):
    import gle_spectra.transforms as transforms

    monkeypatch.delattr(transforms, "dawson")
    t = tracer.Tracer()
    t.install()
    try:
        assert "transforms.dawson" in t.missing
        assert "transforms.faddeeva" in t.installed
    finally:
        t.uninstall()
    assert any("transforms.dawson" in n for n in t.notes)
    sums = tracer.reduce_spans(t.spans)
    metrics, notes = tracer.layer_metrics([sums], {"transforms.dawson", "transforms.faddeeva"})
    assert "errorfn.ns_per_point" not in metrics and "errorfn.calls" not in metrics
    assert any(n.startswith("errorfn.ns_per_point omitted") for n in notes)
    assert "quad.integrals" in metrics


def test_tracer_restores_bindings_and_counts_layers(in_tmp):
    import gle_spectra.moments as moments

    original = moments.r11
    rnd, req = _request("msd-quadrature", "msd-v-rouse")
    _write_configs(rnd)
    t = tracer.Tracer()
    t.install()
    try:
        with t.request(req.id):
            _run(req.argv)
    finally:
        t.uninstall()
    assert moments.r11 is original
    metrics, _ = tracer.layer_metrics([t.sums()], t.missing)
    assert set(metrics) == set(tracer.METRICS)
    assert metrics["moments.msd_points"][0] == 25
    assert metrics["moments.r11_calls_per_msd_point"][0] > 1
    assert metrics["quad.integrand_calls_per_integral"][0] > 1
    assert 10 < metrics["spectra.r11_points_per_call"][0] <= 15  # mostly 15-node Kronrod panels


def test_route_metrics_follow_the_route_function_that_ran(in_tmp):
    rnd, req = _request("grid-sweep", "transform-rouse")
    t = tracer.Tracer()
    t.install()
    try:
        with t.request(req.id):
            out = _run(req.argv)
    finally:
        t.uninstall()
    assert out.rc == 0
    metrics, _ = tracer.layer_metrics([t.sums()], t.missing)
    # the rouse closed form evaluates through _cm_pair: counted once, as closed_form
    assert metrics["transforms.closed_form.points"][0] == req.expect["rows"]
    assert metrics["transforms.cm_measure.points"][0] == 0


def test_calibrator_measures_and_ends():
    from calibrator import Calibrator

    with Calibrator() as cal:
        first, second = cal.measure(), cal.measure()
        proc = cal._proc
    assert first > 0 and second > 0
    assert proc.returncode == 0


def _worker(workload, trace, workdir):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "3",
         "--round", "0", "--trace", str(trace), "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_and_untraced_rounds_give_identical_outputs(tmp_path):
    plain = _worker("msd-quadrature", 0, tmp_path / "plain")
    traced = _worker("msd-quadrature", 1, tmp_path / "traced")
    assert [r["digest"] for r in plain["requests"]] == [r["digest"] for r in traced["requests"]]
    assert "layer_sums" in traced and "layer_sums" not in plain
    unexpected = [r["id"] for r in plain["requests"] if r["failure"] and not r["known_defect"]]
    assert unexpected == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
