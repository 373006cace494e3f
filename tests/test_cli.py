import json
import math
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from gle_spectra import kcos_ksin_grid, parse_kernel_spec, r11, r12, r22, transform
from gle_spectra.cli import main, parse_config
from gle_spectra.errors import ConfigError

TRAPPED_DOC = '{"m":1,"lambda":1,"beta":1,"gamma":2,"kbt":1,"kernel":"powerlaw:0.5"}'
CONFIGS = Path(__file__).parent.parent / "demos" / "configs"
SIGNED_GRID = "-2,-0.5,0,0.5,2"


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "gle_spectra.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_config_valid():
    cfg = parse_config(TRAPPED_DOC)
    assert cfg.params.gamma == 2.0
    assert cfg.kernel_spec == "powerlaw:0.5"


def test_parse_config_round_trip():
    cfg = parse_config(TRAPPED_DOC)
    again = parse_config(cfg.to_json())
    assert again == cfg


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


def test_unknown_subcommand_usage_exit():
    code, _, err = run_cli("frobnicate")
    assert code == 2


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


def test_simulate_summary(tmp_path, cfg_file, capsys):
    rouse_cfg = tmp_path / "r.json"
    rouse_cfg.write_text('{"m":1,"lambda":1,"beta":1,"gamma":2,"kbt":1,"kernel":"rouse:1"}')
    out = tmp_path / "sim.csv"
    code = main([
        "simulate", "--config", str(rouse_cfg), "--method", "markovian",
        "--n-paths", "400", "--dt", "0.1", "--t-max", "10", "--seed", "7",
        "-o", str(out),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["equipartition_ratios"]["m_v"] == pytest.approx(1.0, abs=0.3)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,msd,stderr"
    assert len(lines) == 101


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
    # the default grid's widest log cell (0.00574) exceeded pi/t_max = 0.00314
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
    ctx = parse_config((CONFIGS / "trapped_rouse.json").read_text()).ctx()
    for w, a, b, c in rows:
        w = float(w)
        assert float(a) == pytest.approx(r11(ctx, w), rel=1e-13)
        assert float(b) == pytest.approx(r22(ctx, w), rel=1e-13, abs=0.0)
        assert float(c) == pytest.approx(r12(ctx, w).imag, rel=1e-13, abs=0.0)

    free = str(CONFIGS / "free_rouse.json")
    assert main(["spectrum", "--config", free, f"--grid={SIGNED_GRID}"]) == 0
    header, rows = read_rows(capsys)
    assert header == ["omega", "r22"]
    ctx = parse_config((CONFIGS / "free_rouse.json").read_text()).ctx()
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
    assert len(calls) == 1 and calls[0].size == 4  # the origin takes no transform


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
    assert out["err_x"] is None and out["err_v"] is None
    assert [n.split(":")[0] for n in out["notes"]] == ["var_x0", "var_v0"]
