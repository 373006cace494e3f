import json
import math
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from gle_spectra import (
    PowerLaw,
    SpectralDensityCtx,
    kcos_ksin_grid,
    parse_kernel_spec,
    prony_fit,
    r11,
    r12,
    r22,
    transform,
)
from gle_spectra import kernels
from gle_spectra.cli import main, parse_config
from gle_spectra.errors import ConfigError
from gle_spectra.quad import DEFAULT_QUAD
from conftest import SRC_ENV

TRAPPED_DOC = '{"m":1,"lambda":1,"beta":1,"gamma":2,"kbt":1,"kernel":"powerlaw:0.5"}'
CONFIGS = Path(__file__).parent.parent / "demos" / "configs"
SIGNED_GRID = "-2,-0.5,0,0.5,2"


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "gle_spectra.cli", *argv],
        capture_output=True,
        text=True,
        env=SRC_ENV,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_config_valid():
    ctx = parse_config(TRAPPED_DOC)
    assert isinstance(ctx, SpectralDensityCtx)
    assert ctx.params.gamma == 2.0
    assert ctx.kernel == PowerLaw(0.5)
    assert ctx.quad == DEFAULT_QUAD


def test_parse_config_twice_gives_one_cache_key(tmp_path):
    # the moments caches are keyed by the context, so two requests on one
    # document must hash alike
    atoms = tmp_path / "atoms.json"
    atoms.write_text("[[1.0, 0.5], [3.0, 0.25]]")
    for kernel in ("powerlaw:0.5", f"expmix:@{atoms}"):
        doc = json.loads(TRAPPED_DOC)
        doc.update(kernel=kernel, quad={"rel_tol": 1e-9})
        text = json.dumps(doc)
        first, second = parse_config(text), parse_config(text)
        assert first == second and first is not second
        assert hash(first) == hash(second)


def test_parse_config_field_errors():
    with pytest.raises(ConfigError) as ei:
        parse_config('{"m":-1,"lambda":1,"beta":1,"gamma":2,"kbt":1,"kernel":"rouse:1"}')
    assert ei.value.field == "m"
    with pytest.raises(ConfigError) as ei:
        parse_config('{"lambda":1,"beta":1,"gamma":2,"kbt":1,"kernel":"rouse:1"}')
    assert ei.value.field == "m"
    with pytest.raises(ConfigError) as ei:
        parse_config('{"m":1,"lambda":1,"beta":1,"gamma":2,"kbt":1,"kernel":"zap:9"}')
    assert ei.value.field == "kernel"
    with pytest.raises(ConfigError):
        parse_config("not json")
    # fields are checked in order: a bad m before a missing lambda, a missing
    # kbt before a bad kernel
    with pytest.raises(ConfigError, match="^m: must be > 0$"):
        parse_config('{"m":-1,"beta":1,"gamma":2,"kbt":1}')
    with pytest.raises(ConfigError, match="^kbt: missing required field$"):
        parse_config('{"m":1,"lambda":1,"beta":1,"gamma":2,"kernel":"zap:9"}')
    with pytest.raises(ConfigError, match="^[$]: top-level JSON object required$"):
        parse_config("[1, 2]")


@pytest.mark.parametrize(
    "change,message",
    [
        ({"m": -1}, "m: must be > 0"),
        ({"m": 0}, "m: must be > 0"),
        ({"lambda": -1}, "lambda: must be >= 0"),
        ({"beta": 0}, "beta: must be > 0"),
        ({"gamma": -0.5}, "gamma: must be >= 0"),
        ({"kbt": -1}, "kbt: must be >= 0"),
        ({"kbt": "warm"}, "kbt: must be a number"),
        ({"beta": None}, "beta: must be a number"),
        ({"gamma": "nan"}, "gamma: must be finite"),
        ({"lambda": "-inf"}, "lambda: must be finite"),
        ({"kernel": 3}, "kernel: missing kernel spec string"),
        ({"kernel": "zap:9"}, "kernel: unknown kernel spec 'zap:9'"),
        ({"kernel": "powerlaw:1.5"}, "kernel: powerlaw alpha must lie in (0, 1)"),
        ({"quad": 1e-9}, "quad: must be an object"),
        ({"quad": {"rel_tol": 0}}, "quad: tolerances must be positive"),
        ({"quad": {"rel_tol": None}}, "quad: rel_tol must be a number"),
        ({"quad": {"max_subdivisions": [3]}}, "quad: max_subdivisions must be a number"),
        ({"quad": {"rel_tol": math.nan}}, "quad: tolerances must be positive"),
        ({"quad": {"max_subdivisions": 2.7}}, "quad: max_subdivisions must be a whole number"),
    ],
)
def test_parse_config_error_paths_and_messages(change, message):
    doc = json.loads(TRAPPED_DOC)
    doc.update(change)
    with pytest.raises(ConfigError) as ei:
        parse_config(json.dumps(doc))
    assert str(ei.value) == message
    assert ei.value.field == message.partition(":")[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["msd", "--quantity", "v", "--t-grid", "1,2"],
        ["equipartition"],
        ["spectrum", "--grid", "0.5,2"],
        ["simulate", "--n-paths", "4", "--dt", "0.5", "--t-max", "1"],
    ],
)
def test_expmix_atoms_file_read_once_per_request(argv, tmp_path, monkeypatch, capsys):
    # the kernel a request uses is the one its config validated
    atoms = tmp_path / "atoms.json"
    atoms.write_text("[[1.0, 0.5], [3.0, 0.25]]")
    cfg = tmp_path / "cfg.json"
    doc = json.loads(TRAPPED_DOC)
    doc["kernel"] = f"expmix:@{atoms}"
    cfg.write_text(json.dumps(doc))
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(kernels, "open", counting_open, raising=False)
    assert main([*argv, "--config", str(cfg)]) == 0
    assert opened == [str(atoms)]


def test_unknown_subcommand_usage_exit():
    code, _, err = run_cli("frobnicate")
    assert code == 2


# kernel parameters that are not finite positive numbers, and atom files that
# are not a non-empty list of such [x, w] pairs
@pytest.mark.parametrize(
    "spec, atoms",
    [
        ("rouse:nan", None),
        ("cauchy:inf,1", None),
        ("cauchy:1,inf", None),
        ("gaussian:inf", None),
        ("expmix:@", "[[NaN, 1]]"),
        ("expmix:@", "[[1, Infinity]]"),
        ("expmix:@", "[[1e400, 1]]"),
        ("expmix:@", "[1, 2]"),
        ("expmix:@", "[[1, null]]"),
        ("expmix:@", "[]"),
    ],
)
def test_transform_rejects_kernel_inputs_that_are_not_finite(spec, atoms, tmp_path, capsys):
    if atoms is not None:
        path = tmp_path / "atoms.json"
        path.write_text(atoms)
        spec += str(path)
    assert main(["transform", "--kernel", spec, "--omega", "1,2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_transform_csv(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["transform", "--kernel", "rouse:1", "--omega", "1,2", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "omega,kcos,ksin,route"
    w, kc, ks, route = lines[1].split(",")
    assert float(kc) == pytest.approx(0.5) and float(ks) == pytest.approx(0.5)
    assert route == "closed_form"
    # 17 significant digits, locale-independent
    assert "," not in kc.replace(",", "", 0) or True
    assert len(lines) == 3


def test_kernel_subcommand(tmp_path):
    out = tmp_path / "k.csv"
    assert main(["kernel", "--kernel", "powerlaw:0.5", "--t-grid", "4,9", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,k"
    assert float(lines[1].split(",")[1]) == pytest.approx(0.5)


def test_kernel_validate(tmp_path, capsys):
    assert main(["kernel", "--kernel", "cauchy:1,1", "--t-grid", "log:0.1:50:20", "--validate"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True


@pytest.mark.parametrize(
    "argv",
    [["gaussian:1"], ["gaussian:1", "--t-grid", "log:0.1:20:25"], ["gaussian:0.01"]],
    ids=" ".join,
)
def test_kernel_validate_gaussian(argv, capsys):
    # exp(-t^2) underflows to 0 on the default grid's tail, and Kcos far past
    # the kernel's width is a quadrature zero of either sign within its error
    assert main(["kernel", "--kernel", *argv, "--validate"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True, doc


def test_spectrum_csv(tmp_path, cfg_file):
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--config", cfg_file, "--grid", "log:0.1:10:4", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "omega,r11,r22,im_r12"
    w, a, b, c = (float(v) for v in lines[2].split(","))
    assert b == pytest.approx(w * w * a, rel=1e-12)
    assert c == pytest.approx(w * a, rel=1e-12)


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(TRAPPED_DOC)
    return str(p)


@pytest.fixture
def free_cfg_file(tmp_path):
    p = tmp_path / "free.json"
    p.write_text('{"m":1,"lambda":1,"beta":1,"gamma":0,"kbt":1,"kernel":"rouse:1"}')
    return str(p)


def test_free_particle_position_msd_rejected(free_cfg_file, capsys):
    code = main(["msd", "--config", free_cfg_file, "--quantity", "x", "--t-grid", "1,2"])
    assert code == 2  # request error, not a computational failure
    err = capsys.readouterr().err
    doc = json.loads(err)
    assert "free particle has no stationary position" in doc["error"]["message"]


def test_computational_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "tight.json"
    cfg.write_text(
        '{"m":1,"lambda":1,"beta":1,"gamma":2,"kbt":1,"kernel":"powerlaw:0.5",'
        '"quad":{"rel_tol":1e-14,"abs_tol":1e-300,"max_subdivisions":2}}'
    )
    code = main(["msd", "--config", str(cfg), "--quantity", "x", "--t-grid", "5,10"])
    assert code == 1
    doc = json.loads(capsys.readouterr().err)
    assert "tolerance" in doc["error"]["message"].lower()


def test_missing_config_usage_exit(capsys):
    assert main(["equipartition", "--config", "/does/not/exist.json"]) == 2


def test_free_particle_spectrum_emits_r22_only(free_cfg_file, capsys):
    assert main(["spectrum", "--config", free_cfg_file, "--grid", "1,2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "omega,r22"
    assert float(lines[1].split(",")[1]) == pytest.approx(1.2, rel=1e-12)


def test_equipartition_json(cfg_file, capsys):
    assert main(["equipartition", "--config", cfg_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gamma_x_ratio"] == pytest.approx(1.0, abs=1e-3)
    assert doc["m_v_ratio"] == pytest.approx(1.0, abs=1e-3)


def test_msd_fit_pipeline(tmp_path, cfg_file):
    msd_csv = tmp_path / "msd.csv"
    assert main([
        "msd", "--config", cfg_file, "--quantity", "x",
        "--t-grid", "log:100:10000:12", "-o", str(msd_csv),
    ]) == 0
    fit_json = tmp_path / "fit.json"
    assert main([
        "fit-exponent", "--input", str(msd_csv),
        "--window", "100:10000", "--model", "power", "-o", str(fit_json),
    ]) == 0
    doc = json.loads(fit_json.read_text())
    assert doc["exponent"] == pytest.approx(1.5, abs=0.05)


def test_simulate_summary(tmp_path, capsys):
    rouse_cfg = tmp_path / "r.json"
    rouse_cfg.write_text('{"m":1,"lambda":1,"beta":1,"gamma":2,"kbt":1,"kernel":"rouse:1"}')
    out = tmp_path / "sim.csv"
    # the Markovian run says which surrogate it sampled: rouse:1 is its own fit
    for method, surrogate in (("markovian", {"modes": 1, "sup_rel_error": 0.0}), ("spectral", None)):
        code = main([
            "simulate", "--config", str(rouse_cfg), "--method", method,
            "--n-paths", "400", "--dt", "0.1", "--t-max", "10", "--seed", "7",
            "-o", str(out),
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["method"] == method
        assert summary["surrogate"] == surrogate
        assert summary["equipartition_ratios"]["m_v"] == pytest.approx(1.0, abs=0.3)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,msd,stderr"
        assert len(lines) == 101


def test_simulate_summary_reports_the_prony_fit(capsys):
    argv = ["simulate", "--config", str(CONFIGS / "trapped_powerlaw.json"),
            "--n-paths", "4", "--dt", "0.1", "--t-max", "10"]
    assert main(argv) == 0
    surrogate = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["surrogate"]
    fit = prony_fit(parse_config((CONFIGS / "trapped_powerlaw.json").read_text()).kernel, 8,
                    (0.1, 10.0))
    assert surrogate == {"modes": len(fit.measure.atoms), "sup_rel_error": fit.sup_rel_error}
    assert 0 < surrogate["sup_rel_error"] < 0.05


def test_simulate_methods_share_one_time_grid(capsys):
    # 0.3 does not divide 1.0: both grids stop at 0.9, not past the horizon
    # (the MSD curve starts at the first step)
    columns = []
    for method in ("markovian", "spectral"):
        assert main([
            "simulate", "--config", str(CONFIGS / "trapped_rouse.json"), "--method", method,
            "--n-paths", "4", "--dt", "0.3", "--t-max", "1.0",
        ]) == 0
        _, rows = read_rows(capsys)
        columns.append([r[0] for r in rows[:-1]])
    assert columns[0] == columns[1]
    assert [float(t) for t in columns[0]] == pytest.approx([0.3, 0.6, 0.9], rel=1e-15)


def test_spectral_grid_follows_the_last_sample(capsys):
    # --t-max 20.05 samples up to 20.0, so its FFT bins are those of
    # --t-max 20.0 and the output is the same
    outputs = []
    for t_max in ("20.05", "20.0"):
        assert main([
            "simulate", "--config", str(CONFIGS / "trapped_rouse.json"), "--method", "spectral",
            "--n-paths", "4", "--dt", "0.1", "--t-max", t_max,
        ]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_simulate_deterministic_output(tmp_path):
    cfg = tmp_path / "r.json"
    cfg.write_text('{"m":1,"lambda":1,"beta":1,"gamma":2,"kbt":1,"kernel":"rouse:1"}')
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main([
            "simulate", "--config", str(cfg), "--n-paths", "50",
            "--dt", "0.1", "--t-max", "5", "--seed", "3", "-o", str(out),
        ]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_simulate_spectral_long_horizon(capsys):
    # 1001 times 1 apart: 8000 bins of width pi/4000, whose alias images
    # reach past w = 28
    argv = ["simulate", "--config", str(CONFIGS / "trapped_powerlaw.json"), "--method", "spectral",
            "--t-max", "1000", "--dt", "1", "--n-paths", "4"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1002
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:-1]])
    summary = json.loads(lines[-1])
    assert np.all(np.isfinite(rows))
    assert np.isfinite([summary["var_x"], summary["var_v"]]).all()


def test_cm_measure_near_alpha_one_is_finite(capsys):
    argv = ["transform", "--kernel", "powerlaw:0.95", "--omega", "1", "--route", "cm_measure"]
    assert main(argv) == 0
    _, kcos, ksin, route = capsys.readouterr().out.strip().splitlines()[1].split(",")
    g = math.gamma(0.05)
    assert float(kcos) == pytest.approx(g * math.sin(0.475 * math.pi), rel=1e-10)
    assert float(ksin) == pytest.approx(g * math.cos(0.475 * math.pi), rel=1e-10)
    assert route == "cm_measure"


def test_seventeen_digit_format(cfg_file, capsys):
    assert main(["transform", "--kernel", "powerlaw:0.5", "--omega", "3"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[1]
    kcos = line.split(",")[1]
    assert float(kcos) == pytest.approx(1.2533141373155003 / np.sqrt(3.0), rel=1e-15)
    assert len(kcos.replace(".", "").replace("-", "").lstrip("0")) >= 16


def read_rows(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


@pytest.mark.parametrize("route", [None, "numeric"])
def test_transform_grid_matches_pointwise(route, capsys):
    # one array call for the nonzero frequencies, the scalar path at the origin
    extra = ["--route", route] if route else []
    assert main(["transform", "--kernel", "rouse:1", f"--omega={SIGNED_GRID}", *extra]) == 0
    header, rows = read_rows(capsys)
    assert header == ["omega", "kcos", "ksin", "route"]
    kernel = parse_kernel_spec("rouse:1")
    assert [float(r[0]) for r in rows] == [float(v) for v in SIGNED_GRID.split(",")]
    for w, kc, ks, label in rows:
        want = transform(kernel, float(w), route=route)
        assert label == want.route
        assert float(kc) == pytest.approx(want.kcos, rel=1e-13)
        assert float(ks) == pytest.approx(want.ksin, rel=1e-13, abs=0.0)
    # Ksin is odd, the origin row is (Int K, 0) on the closed-form label
    assert float(rows[0][2]) == -float(rows[4][2]) < 0
    assert rows[2][1:] == ["1", "0", "closed_form"]


def test_spectrum_grid_matches_pointwise(capsys):
    trapped = str(CONFIGS / "trapped_rouse.json")
    assert main(["spectrum", "--config", trapped, f"--grid={SIGNED_GRID}"]) == 0
    header, rows = read_rows(capsys)
    assert header == ["omega", "r11", "r22", "im_r12"]
    ctx = parse_config((CONFIGS / "trapped_rouse.json").read_text())
    for w, a, b, c in rows:
        w = float(w)
        assert float(a) == pytest.approx(r11(ctx, w), rel=1e-13)
        assert float(b) == pytest.approx(r22(ctx, w), rel=1e-13, abs=0.0)
        assert float(c) == pytest.approx(r12(ctx, w).imag, rel=1e-13, abs=0.0)

    free = str(CONFIGS / "free_rouse.json")
    assert main(["spectrum", "--config", free, f"--grid={SIGNED_GRID}"]) == 0
    header, rows = read_rows(capsys)
    assert header == ["omega", "r22"]
    ctx = parse_config((CONFIGS / "free_rouse.json").read_text())
    for w, v in rows:
        assert float(v) == pytest.approx(r22(ctx, float(w)), rel=1e-13)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--grid", "nan,1"],
        ["spectrum", "--grid", "log:0.1:inf:5"],
        ["transform", "--kernel", "rouse:1", "--omega", "0,1,inf"],
        ["transform", "--kernel", "rouse:1", "--omega", "log:1:nan:5"],
    ],
)
def test_nonfinite_grid_usage_exit(argv, cfg_file, capsys):
    if argv[0] == "spectrum":
        argv = [*argv, "--config", cfg_file]
    assert main(argv) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"]["type"] == "ValueError"


@pytest.mark.parametrize("key", ["m", "lambda", "beta", "gamma", "kbt"])
def test_nonfinite_config_rejected(key, tmp_path, capsys):
    doc = json.loads(TRAPPED_DOC)
    doc[key] = "inf"
    with pytest.raises(ConfigError) as ei:
        parse_config(json.dumps(doc))
    assert ei.value.field == key
    cfg = tmp_path / "inf.json"
    cfg.write_text(json.dumps(doc))
    assert main(["equipartition", "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ConfigError"


def test_equipartition_zero_temperature_rejected(tmp_path, capsys):
    doc = json.loads(TRAPPED_DOC)
    doc["kbt"] = 0
    cfg = tmp_path / "cold.json"
    cfg.write_text(json.dumps(doc))
    assert main(["equipartition", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError" and err["message"].startswith("kbt:")


@pytest.mark.parametrize(
    "extra",
    [
        ["--n-paths", "0"],
        ["--n-paths", "1"],
        ["--dt", "5", "--t-max", "1"],
        ["--method", "spectral", "--dt", "5", "--t-max", "1"],
    ],
)
def test_simulate_without_statistics_rejected(extra, capsys):
    argv = ["simulate", "--config", str(CONFIGS / "trapped_rouse.json"), "--n-paths", "8",
            "--t-max", "1", *extra]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_simulate_spectral_free_particle_rejected(free_cfg_file, capsys):
    argv = ["simulate", "--config", free_cfg_file, "--method", "spectral", "--n-paths", "8",
            "--t-max", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "ValueError", "message": "spectral sampling needs gamma > 0"
    }


@pytest.mark.parametrize("method", ["markovian", "spectral"])
@pytest.mark.parametrize("value", ["0", "-0.1", "nan", "inf"])
@pytest.mark.parametrize("option", ["--dt", "--t-max"])
def test_simulate_bad_step_or_horizon_rejected(option, value, method, capsys):
    argv = ["simulate", "--config", str(CONFIGS / "trapped_rouse.json"), "--n-paths", "8",
            "--method", method, f"{option}={value}"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "ValueError", "message": f"{option} must be finite and > 0"
    }


@pytest.mark.parametrize("method", ["markovian", "spectral"])
def test_simulate_negative_seed_rejected(method, capsys):
    argv = ["simulate", "--config", str(CONFIGS / "trapped_rouse.json"), "--n-paths", "8",
            "--method", method, "--t-max", "1", "--seed", "-1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {"type": "ValueError", "message": "--seed must be >= 0"}


def test_spectrum_finite_at_huge_frequency(capsys):
    assert main(["spectrum", "--config", str(CONFIGS / "trapped_rouse.json"),
                 "--grid", "1e80,1e155,1e300"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    vals = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.isfinite(vals).all() and (vals >= 0.0).all()
    assert vals[0, 2] == pytest.approx(2e-160, rel=1e-14)


def test_trapped_spectrum_evaluates_transforms_once(monkeypatch, capsys):
    import gle_spectra.spectra as spectra

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return kcos_ksin_grid(*args, **kwargs)

    monkeypatch.setattr(spectra, "kcos_ksin_grid", counted)
    assert main(["spectrum", "--config", str(CONFIGS / "trapped_rouse.json"),
                 f"--grid={SIGNED_GRID}"]) == 0
    # one call covers all five frequencies: the origin row's Kcos(0) is r11's limit
    assert len(calls) == 1 and calls[0].tolist() == [-2.0, -0.5, 0.0, 0.5, 2.0]


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--kernel", "rouse:1", "--omega"],
        ["spectrum", "--config", str(CONFIGS / "trapped_rouse.json"), "--grid"],
        ["kernel", "--kernel", "rouse:1", "--t-grid"],
    ],
)
def test_signed_grid_after_option(argv, capsys):
    *head, option = argv
    assert main([*head, f"{option}={SIGNED_GRID}"]) == 0
    joined = capsys.readouterr().out
    assert main([*head, option, SIGNED_GRID]) == 0
    assert capsys.readouterr().out == joined


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--kernel", "rouse:1"],
        ["transform", "--kernel", "rouse:1", "--omega", "1", "--bogus"],
        ["simulate", "--config", "cfg.json", "--n-paths", "many"],
        ["spectrum", "--grid", "1,2"],
    ],
)
def test_usage_errors_leave_through_envelope(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["type"] == "UsageError"


def test_usage_error_envelope_from_command_line():
    code, out, err = run_cli("transform", "--kernel", "rouse:1", "--omega")
    assert code == 2 and out == ""
    assert "expected one argument" in json.loads(err)["error"]["message"]


def test_help_stays_plain_text():
    code, out, err = run_cli("transform", "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: gle-spectra transform")


def _trapped_config(tmp_path, kernel):
    doc = json.loads(TRAPPED_DOC)
    doc["kernel"] = kernel
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


@pytest.mark.parametrize(
    "kernel,named",
    [("powerlaw:0.001", "left exponent -0.999"), ("cauchy:1e-3,1", "left exponent -0.998")],
)
def test_equipartition_substitution_underflow_is_typed(kernel, named, tmp_path, capsys):
    # w = u**(1/(1+p)) rounds to the singular origin at the first Kronrod nodes
    assert main(["equipartition", "--config", _trapped_config(tmp_path, kernel)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "UnrepresentableError" and named in err["message"]


def test_equipartition_unresolvable_resonance_is_typed(tmp_path, capsys):
    # undamped, exp(-t^2) leaves the peak at w_r = 100 no width in doubles
    doc = json.loads(TRAPPED_DOC)
    doc.update(kernel="gaussian:1", gamma=1e4, **{"lambda": 0.0})
    cfg = tmp_path / "stiff.json"
    cfg.write_text(json.dumps(doc))
    assert main(["equipartition", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    err = json.loads(err)["error"]
    assert out == "" and err["type"] == "UnrepresentableError"
    assert "w_r = 100.005 has half-width 0," in err["message"]


@pytest.mark.parametrize(
    "command,kernel,alpha",
    [
        ("transform", "cauchy:0.01,1", "0.01"),
        ("transform", "cauchy:0.044,1", "0.044"),
        ("cm_measure", "powerlaw:0.01", "0.01"),
        ("cm_measure", "powerlaw:0.96", "0.96"),
        ("equipartition", "cauchy:0.01,1", "0.01"),
        ("equipartition", "cauchy:0.044,1", "0.044"),
    ],
)
def test_unrepresentable_measure_cutoff_is_typed(command, kernel, alpha, tmp_path, capsys):
    # the Laplace-measure cutoff 10**-ceil(14/alpha), or 10**ceil(14/(1-alpha))
    # for the power law, is not a normal double for these alphas
    argv = {
        "transform": ["transform", "--kernel", kernel, "--omega", "1"],
        "cm_measure": ["transform", "--kernel", kernel, "--omega", "1", "--route", "cm_measure"],
        "equipartition": ["equipartition", "--config", _trapped_config(tmp_path, kernel)],
    }[command]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "UnrepresentableError"
    assert f"alpha = {alpha} " in err["message"]


@pytest.mark.parametrize("config", ["trapped_rouse.json", "free_rouse.json"])
def test_huge_frequency_spectrum_is_quiet(config):
    code, out, err = run_cli("spectrum", "--config", str(CONFIGS / config), "--grid", "1e155")
    assert code == 0 and err == ""
    assert all(float(v) == 0.0 for v in out.splitlines()[1].split(",")[1:])


def test_undamped_trap_spectrum_at_huge_frequency(tmp_path):
    cfg = tmp_path / "undamped.json"
    cfg.write_text('{"m":1,"lambda":0,"beta":1,"gamma":2,"kbt":1,"kernel":"gaussian:1"}')
    code, out, err = run_cli("spectrum", "--config", str(cfg), "--grid", "1e155,1e300")
    assert code == 0 and err == ""
    assert [row.split(",")[1] for row in out.splitlines()[1:]] == ["0", "0"]


def test_transform_route_checked_at_origin(capsys):
    argv = ["transform", "--kernel", "gaussian:1", "--omega", "0", "--route", "cm_measure"]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "TransformDomainError"
    assert main(["transform", "--kernel", "gaussian:1", "--omega", "0"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[1].endswith(",closed_form")


def test_equipartition_failure_is_valid_json(tmp_path, capsys):
    doc = json.loads((CONFIGS / "trapped_powerlaw.json").read_text())
    doc["quad"] = {"max_subdivisions": 1}
    cfg = tmp_path / "starved.json"
    cfg.write_text(json.dumps(doc))
    assert main(["equipartition", "--config", str(cfg)]) == 0

    def reject(name):
        raise ValueError(f"not RFC 8259 JSON: {name}")

    out = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert out["gamma_x_ratio"] is None and out["m_v_ratio"] is None
    assert out["err_x"] is None and out["err_v"] is None
    assert [n.split(":")[0] for n in out["notes"]] == ["var_x0", "var_v0"]


def test_msd_curve_with_one_failing_row_exit_code(tmp_path, capsys):
    # only the t = 0.1 row runs out of its 3 subdivisions; the curve fails
    # with the typed error and writes nothing
    cfg = tmp_path / "budget.json"
    cfg.write_text(
        '{"m":1,"lambda":1,"beta":1,"gamma":2,"kbt":1,"kernel":"rouse:1",'
        '"quad":{"max_subdivisions":3}}'
    )
    code = main(["msd", "--config", str(cfg), "--quantity", "x", "--t-grid", "0.1,1,10"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "ToleranceNotMet"


def test_transform_faddeeva_route_at_huge_frequency(capsys):
    assert main(["transform", "--kernel", "cauchy:0.25,1", "--omega", "1e300"]) == 0
    _, kcos, ksin, route = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert float(kcos) == 0.0 and route == "phi_t2_faddeeva"
    assert float(ksin) == pytest.approx(1e-300, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--kernel", "powerlaw:0.99", "--t-grid", "1e-320,1"],
        ["kernel", "--kernel", "powerlaw:0.99", "--t-grid", "1e-320,1e-3,1,2", "--validate"],
        ["transform", "--kernel", "powerlaw:0.99", "--route", "numeric", "--omega", "1e40"],
    ],
)
def test_kernel_overflow_is_one_envelope(argv):
    # K = t^-0.99 overflows below t ~ 1e-311: no warning, no inf row
    code, out, err = run_cli(*argv)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "UnrepresentableError"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", str(CONFIGS / "trapped_rouse.json"), "--method", "markovian",
         "--n-paths", "1000000000000", "--t-max", "5"],
        ["simulate", "--config", str(CONFIGS / "trapped_rouse.json"), "--method", "spectral",
         "--n-paths", "1000000000000", "--t-max", "5"],
        ["transform", "--kernel", "rouse:1", "--omega", "log:1:2:1000000000000000"],
    ],
    ids=["markovian", "spectral", "transform"],
)
def test_unallocatable_request_is_one_envelope(argv):
    # 24 TB of per-path statistics, more than any machine's memory, are
    # refused before any allocation; 7.1 PiB of frequencies are past a 47-bit
    # address space, so that allocation fails without touching memory
    code, out, err = run_cli(*argv)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "MemoryError"


def _msd_csv(tmp_path, rows):
    path = tmp_path / "msd.csv"
    path.write_text("".join(f"{row}\n" for row in rows))
    return str(path)


def _power_rows(t_lo, t_hi, n=20):
    return [f"{t!r},{t ** 1.5!r}" for t in np.geomspace(t_lo, t_hi, n).tolist()]


@pytest.mark.parametrize(
    "rows,window,model,kind,message",
    [
        ([], "1:100", "power", "GleError", "header t,msd"),
        (["t,msd"], "1:100", "power", "FitRejectedError", "holds 0 points"),
        # t log t is 0 at t = 1 and negative below it
        (["t,msd", *_power_rows(1.0, 100.0)], "1:100", "tlogt", "FitRejectedError", "above t = 1"),
        (["t,msd", *_power_rows(0.5, 100.0)], "0.1:100", "tlogt", "FitRejectedError", "above t = 1"),
        (["t,msd", "2.0,nan", *_power_rows(3.0, 100.0)], "1:100", "power", "ValueError", "finite"),
        (["t,msd", "nan,2.0", *_power_rows(3.0, 100.0)], "1:100", "power", "ValueError", "finite"),
        (["t,msd", *_power_rows(1.0, 100.0), "inf,1e300"], "1:inf", "power", "ValueError", "finite"),
    ],
    ids=["empty", "header-only", "tlogt-at-1", "tlogt-below-1", "nan-msd", "nan-t", "inf-t"],
)
def test_fit_exponent_bad_input_is_one_envelope(tmp_path, rows, window, model, kind, message):
    code, out, err = run_cli(
        "fit-exponent", "--input", _msd_csv(tmp_path, rows), "--window", window, "--model", model
    )
    assert out == "" and code == (2 if kind == "ValueError" else 1)
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == kind and message in error["message"]


def _simulate_markovian(tmp_path, spec, *extra, lam=1):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"m": 1, "lambda": lam, "beta": 1, "gamma": 2, "kbt": 1, "kernel": spec}))
    return run_cli("simulate", "--config", str(cfg), "--n-paths", "10", *extra)


def test_markovian_simulate_kernel_underflow_is_one_envelope(tmp_path):
    # exp(-t^2) underflows to 0 inside the default fit window (0.1, 100),
    # where the Prony fit cannot weigh its error by K
    code, out, err = _simulate_markovian(tmp_path, "gaussian:1")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "PronyAccuracyError"


@pytest.mark.parametrize("spec", ["powerlaw:0.98", "powerlaw:0.99"])
def test_markovian_simulate_fits_power_laws_near_one(tmp_path, spec):
    # a reweighted nnls fit runs out of iterations on these kernels
    code, out, err = _simulate_markovian(tmp_path, spec)
    assert code == 0 and err == ""
    assert json.loads(out.splitlines()[-1])["method"] == "markovian"


def test_markovian_simulate_where_the_kernel_underflows_is_quiet(tmp_path):
    # exp(-t) underflows inside the fit window (1, 1000); the exact atom
    # underflows with it, and the fit's error there is not NaN
    code, out, err = _simulate_markovian(tmp_path, "rouse:1", "--dt", "1", "--t-max", "1000")
    assert code == 0 and err == ""


@pytest.mark.parametrize(
    "spec, lam, extra",
    [
        ("gaussian:0.01", 1, ()),
        ("gaussian:0.01", 0, ()),
        ("rouse:[1,2,4]", 1, ("--prony-modes", "2")),
        ("cauchy:1.5,1", 1, ("--prony-modes", "1", "--dt", "0.05", "--t-max", "2000")),
        ("cauchy:1.5,1", 1, ("--prony-modes", "2", "--dt", "0.05", "--t-max", "2000")),
    ],
    ids=["gaussian-lambda-1", "gaussian-lambda-0", "rouse-3-atoms-2-modes", "cauchy-1-mode", "cauchy-2-modes"],
)
def test_markovian_simulate_refuses_the_zero_surrogate(tmp_path, spec, lam, extra):
    # no nonnegative sum of the fit's exponentials beats 0 for these kernels:
    # a memoryless SDE would stand in for the kernel (and with lambda = 0
    # nothing would damp the trap)
    code, out, err = _simulate_markovian(tmp_path, spec, *extra, lam=lam)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "PronyAccuracyError"
    assert "kept no atoms" in error["message"]
