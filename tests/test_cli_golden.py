"""Golden-file regression for the shipped demo configurations.

Deterministic subcommands (kernel evaluation, simulation with a fixed seed,
fits of committed CSV inputs) must reproduce the stored outputs bit for bit;
quadrature-backed subcommands reproduce them within stated tolerances.
"""

import json
from pathlib import Path

import pytest

from gle_spectra.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "demos" / "configs"


def run_to_file(tmp_path, *argv):
    out = tmp_path / "out.txt"
    assert main([*argv, "-o", str(out)]) == 0
    return out.read_text()


def csv_close(got, want, rel):
    got_lines = got.strip().splitlines()
    want_lines = want.strip().splitlines()
    assert got_lines[0] == want_lines[0]
    assert len(got_lines) == len(want_lines)
    for g, w in zip(got_lines[1:], want_lines[1:]):
        for gv, wv in zip(g.split(","), w.split(",")):
            try:
                gf, wf = float(gv), float(wv)
            except ValueError:
                assert gv == wv
                continue
            assert gf == pytest.approx(wf, rel=rel, abs=1e-300)


def test_kernel_bitwise(tmp_path):
    got = run_to_file(tmp_path, "kernel", "--kernel", "powerlaw:0.5", "--t-grid", "log:0.1:100:7")
    assert got == (GOLDEN / "kernel_powerlaw.csv").read_text()


def test_simulate_bitwise(tmp_path, capsys):
    got = run_to_file(
        tmp_path,
        "simulate", "--config", str(CONFIGS / "trapped_rouse.json"),
        "--n-paths", "64", "--dt", "0.1", "--t-max", "5", "--seed", "7",
    )
    assert got == (GOLDEN / "simulate_rouse_seed7.csv").read_text()
    # the summary on stdout equals its golden as JSON
    summary = json.loads(capsys.readouterr().out)
    assert summary == json.loads((GOLDEN / "simulate_rouse_seed7_summary.json").read_text())


def test_fit_exponent_bitwise(tmp_path):
    got = run_to_file(
        tmp_path,
        "fit-exponent", "--input", str(GOLDEN / "msd_trapped_rouse.csv"),
        "--window", "100:10000", "--model", "power",
    )
    assert got == (GOLDEN / "fit_msd_trapped_rouse.json").read_text()


def test_transform_tolerance(tmp_path):
    got = run_to_file(tmp_path, "transform", "--kernel", "rouse:1", "--omega", "log:0.01:100:9")
    csv_close(got, (GOLDEN / "transform_rouse.csv").read_text(), rel=1e-12)


def test_spectrum_tolerance(tmp_path):
    got = run_to_file(
        tmp_path,
        "spectrum", "--config", str(CONFIGS / "trapped_powerlaw.json"),
        "--grid", "log:0.01:100:9",
    )
    csv_close(got, (GOLDEN / "spectrum_trapped_powerlaw.csv").read_text(), rel=1e-9)


def test_equipartition_tolerance(tmp_path):
    got = json.loads(run_to_file(
        tmp_path, "equipartition", "--config", str(CONFIGS / "trapped_powerlaw.json")
    ))
    want = json.loads((GOLDEN / "equipartition_trapped_powerlaw.json").read_text())
    for key in ("gamma_x_ratio", "m_v_ratio"):
        assert got[key] == pytest.approx(want[key], rel=1e-6)


def test_msd_tolerance(tmp_path):
    got = run_to_file(
        tmp_path,
        "msd", "--config", str(CONFIGS / "trapped_rouse.json"),
        "--quantity", "x", "--t-grid", "log:100:10000:12",
    )
    csv_close(got, (GOLDEN / "msd_trapped_rouse.csv").read_text(), rel=1e-7)

