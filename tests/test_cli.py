import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divscan

from divscan.cli import main
from divscan.presets import list_presets


def run_cli(args, tmp_path, name="out"):
    jp = tmp_path / f"{name}.json"
    cp = tmp_path / f"{name}.csv"
    code = main(args + ["--out-json", str(jp), "--out-csv", str(cp)])
    report = json.loads(jp.read_text()) if jp.exists() else None
    csv_text = cp.read_text() if cp.exists() else None
    return code, report, csv_text


def test_list_presets_prints_registry(capsys):
    assert main(["--list-presets"]) == 0
    out = capsys.readouterr().out.split()
    for name in list_presets():
        assert name in out
    assert "schur" in out and "dilation-2x1" in out


def test_missing_command_is_an_error(capsys):
    assert main([]) == 1
    assert "command" in capsys.readouterr().err


def test_scan_p_schur_exits_two_with_csv_contract(tmp_path):
    code, report, csv_text = run_cli(["scan-p", "--preset", "schur"], tmp_path)
    assert code == 2
    assert report["report"]["verdict"] == "NOT_P_DIVISIBLE"
    lines = csv_text.strip().splitlines()
    assert lines[0] == "t,witness_id,value,derivative,flag"
    assert all(len(line.split(",")) == 5 for line in lines[1:])
    assert len(lines) > 1


def test_scan_p_unitary_clean_exit(tmp_path):
    code, report, _ = run_cli(["scan-p", "--preset", "unitary"], tmp_path)
    assert code == 0
    assert report["report"]["verdict"] == "P_EVIDENCE"


def test_scan_cp_mixing_family_reports_slope_four(tmp_path):
    code, report, _ = run_cli(["scan-cp", "--preset", "generic-noncp"], tmp_path)
    assert code == 2
    assert report["report"]["verdict"] == "NOT_CP_DIVISIBLE"
    assert abs(report["report"]["derivative"] - 4.0) < 1e-3


def test_identical_seed_gives_byte_identical_csv(tmp_path):
    args = ["scan-p", "--preset", "schur", "--seed", "123"]
    _, _, csv1 = run_cli(args, tmp_path, name="a")
    _, _, csv2 = run_cli(args, tmp_path, name="b")
    assert csv1 == csv2


def test_custom_grid_and_h_flags(tmp_path):
    code, report, _ = run_cli(
        ["scan-p", "--preset", "schur", "--grid", "0.1:0.4:7", "--h", "1e-5"], tmp_path
    )
    assert code == 2
    assert report["grid"]["points"] == 7
    assert abs(report["h"] - 1e-5) < 1e-18


def test_grid_outside_domain_fails_cleanly(tmp_path, capsys):
    code, _, _ = run_cli(["scan-p", "--preset", "schur", "--grid", "0.1:0.9:5"], tmp_path)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


def test_malformed_grid_spec(tmp_path, capsys):
    code, _, _ = run_cli(["scan-p", "--preset", "schur", "--grid", "0.1-0.4-5"], tmp_path)
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_unknown_preset_lists_alternatives(tmp_path, capsys):
    code, _, _ = run_cli(["scan-p", "--preset", "nope"], tmp_path)
    assert code == 1
    msg = json.loads(capsys.readouterr().err)["message"]
    assert "unitary" in msg


def test_gaussian_preset_routed_to_gaussian_command(tmp_path, capsys):
    code, _, _ = run_cli(["scan-p", "--preset", "dilation-2x1"], tmp_path)
    assert code == 1
    assert "gaussian" in json.loads(capsys.readouterr().err)["message"]


def test_idempotent_command_cp_preset_exits_zero(tmp_path):
    code, report, csv_text = run_cli(["idempotent", "--preset", "idempotent-cp"], tmp_path)
    assert code == 0
    assert report["regime"] == "CP"
    assert len(report["divisor_coeffs"]) == 4
    assert [row["n"] for row in report["truncations"]] == [2, 3, 4, 8, 16]
    assert "divisor-alpha" in csv_text


def test_idempotent_command_jump_presets_exit_two(tmp_path):
    code, report, _ = run_cli(["idempotent", "--preset", "idempotent-not-p"], tmp_path)
    assert code == 2
    assert report["regime"] == "not-P"
    code, report, _ = run_cli(["idempotent", "--preset", "idempotent-p-not-cp"], tmp_path)
    assert code == 2
    assert report["regime"] == "P-not-CP"


def test_idempotent_custom_pair(tmp_path):
    code, report, _ = run_cli(
        ["idempotent", "--preset", "idempotent-cp", "--pair", "0.3:0.6"], tmp_path
    )
    assert code == 0
    assert report["pair"] == [0.3, 0.6]


def test_idempotent_requires_idempotent_preset(tmp_path, capsys):
    code, _, _ = run_cli(["idempotent", "--preset", "schur"], tmp_path)
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_schur_command_emits_growth_table(tmp_path):
    code, report, csv_text = run_cli(["schur", "--n", "4"], tmp_path)
    assert code == 2
    assert abs(report["closed_form_slope"] - 2.0 * np.sqrt(5.0)) < 1e-12
    assert report["spectrum_max_dev"] < 1e-10
    lines = csv_text.strip().splitlines()
    assert "hopping-n4" in lines[1]


def test_gaussian_command_two_mode_flags_violations(tmp_path):
    code, report, csv_text = run_cli(["gaussian", "--preset", "dilation-2x1"], tmp_path)
    assert code == 2
    assert report["verdict"] == "NOT_P_DIVISIBLE"
    assert report["validation"]["ok"] is False  # printed first factor is defective
    assert any(row["violation"] for row in report["rows"])
    assert csv_text.splitlines()[0] == "t,witness_id,value,derivative,flag"
    assert ",detX," in csv_text


def test_gaussian_command_three_mode_reports_validation_failure(tmp_path):
    code, report, _ = run_cli(["gaussian", "--preset", "dilation-3x2"], tmp_path)
    assert code == 0  # constant determinant: no scan violation
    assert report["verdict"] == "P_EVIDENCE"
    assert report["validation"]["ok"] is False
    assert report["validation"]["all_pairs_valid"] is False
    dets = [row["det"] for row in report["rows"]]
    assert max(dets) - min(dets) < 1e-9


def test_gaussian_grid_touching_the_domain_is_pulled_in(tmp_path):
    """A gaussian grid over the whole domain [0.05, 5] has its endpoints
    pulled in by h, so every determinant slope is taken inside the domain."""
    code, report, _ = run_cli(["gaussian", "--preset", "dilation-2x1", "--grid", "0.05:5.0:5"], tmp_path)
    assert code in (0, 2)
    ts = [row["t"] for row in report["rows"]]
    assert len(ts) == 5
    assert 0.05 < ts[0] < 0.06 and 4.99 < ts[-1] < 5.0
    assert all(np.isfinite(row["ddet"]) for row in report["rows"])


def test_gaussian_grid_outside_domain_fails_cleanly(tmp_path, capsys):
    code, _, _ = run_cli(["gaussian", "--preset", "dilation-2x1", "--grid", "0.01:2.0:5"], tmp_path)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "outside the domain" in err["message"]


def test_intermediate_command_unitary(tmp_path):
    code, report, _ = run_cli(
        ["intermediate", "--preset", "unitary", "--pair", "0.3:0.8"], tmp_path
    )
    assert code == 0
    assert report["is_cp"] is True
    assert report["tp_max_deviation"] < 1e-8
    assert report["positivity_evidence"] is True


def test_intermediate_command_idempotent_includes_divisor(tmp_path):
    code, report, _ = run_cli(["intermediate", "--preset", "idempotent-cp"], tmp_path)
    assert code == 0
    assert report["regime"] == "CP"
    assert len(report["divisor_coeffs"]) == 4


def test_config_file_supplies_defaults_flags_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "schur", "grid": [0.1, 0.4, 5], "seed": 7}))
    code, report, _ = run_cli(["scan-p", "--config", str(cfg)], tmp_path)
    assert code == 2
    assert report["grid"]["points"] == 5
    assert report["seed"] == 7
    # explicit flag wins over the file
    code, report, _ = run_cli(["scan-p", "--config", str(cfg), "--seed", "9"], tmp_path, name="o2")
    assert report["seed"] == 9


def test_config_file_unknown_field_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "schur", "speed": 11}))
    code, _, _ = run_cli(["scan-p", "--config", str(cfg)], tmp_path)
    assert code == 1
    assert "speed" in json.loads(capsys.readouterr().err)["message"]


def test_config_file_syntax_error_reports_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{\n  "preset": "schur",\n  oops\n}')
    code, _, _ = run_cli(["scan-p", "--config", str(cfg)], tmp_path)
    assert code == 1
    assert "line 3" in json.loads(capsys.readouterr().err)["message"]


def test_threads_env_var_validated(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DIVSCAN_THREADS", "zero")
    code, _, _ = run_cli(["scan-p", "--preset", "schur"], tmp_path)
    assert code == 1
    assert "DIVSCAN_THREADS" in json.loads(capsys.readouterr().err)["message"]
    monkeypatch.setenv("DIVSCAN_THREADS", "2")
    code, _, _ = run_cli(["scan-p", "--preset", "schur"], tmp_path, name="ok")
    assert code == 2


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_threads_env_var_sets_blas_threads_before_numpy_loads():
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["DIVSCAN_THREADS"] = "1"
    env["PYTHONPATH"] = str(Path(divscan.__file__).resolve().parent.parent)
    code = (
        "import divscan, numpy as np\n"
        "a = np.ones((300, 300)); a @ a\n"
        "print([l.split()[1] for l in open('/proc/self/status') if l.startswith('Threads:')][0])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"
