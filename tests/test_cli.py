import json

import numpy as np
import pytest

import divscan.cli as cli_module

from divscan.cli import main
from divscan.presets import FAMILY_PRESETS, GAUSSIAN_PRESETS, IDEMPOTENT_PRESETS, default_pair, list_presets


def run_cli(args, tmp_path, name="out"):
    """Run the CLI with --out-json, and --out-csv where the command reads it."""
    jp = tmp_path / f"{name}.json"
    cp = tmp_path / f"{name}.csv"
    _, options = cli_module._COMMANDS.get(args[0] if args else None, (None, ()))
    csv_flag = ["--out-csv", str(cp)] if "out_csv" in options else []
    code = main(args + ["--out-json", str(jp)] + csv_flag)
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


# every command that reads --preset, the presets it accepts, and a preset
# that another command reads
_PRESET_TABLES = {
    "scan-p": (FAMILY_PRESETS, "dilation-2x1"),
    "scan-cp": (FAMILY_PRESETS, "dilation-2x1"),
    "idempotent": (IDEMPOTENT_PRESETS, "unitary"),
    "gaussian": (GAUSSIAN_PRESETS, "unitary"),
    "intermediate": (FAMILY_PRESETS, "dilation-3x2"),
}
_WRONG_PRESETS = [
    (command, case) for command in _PRESET_TABLES for case in ("missing", "unknown", "other-table")
]


def test_preset_tables_cover_every_command_that_reads_a_preset():
    readers = {command for command, (_, options) in cli_module._COMMANDS.items() if "preset" in options}
    assert readers == set(_PRESET_TABLES)
    assert set(IDEMPOTENT_PRESETS) < set(FAMILY_PRESETS)
    assert sorted(set(FAMILY_PRESETS) | set(GAUSSIAN_PRESETS)) == list_presets()


@pytest.mark.parametrize("command,case", _WRONG_PRESETS, ids=[f"{c}-{k}" for c, k in _WRONG_PRESETS])
def test_wrong_preset_lists_the_presets_the_command_accepts(command, case, tmp_path, capsys):
    table, other = _PRESET_TABLES[command]
    preset = {"missing": [], "unknown": ["--preset", "nope"], "other-table": ["--preset", other]}[case]
    code, report, csv_text = run_cli([command] + preset, tmp_path)
    assert code == 1 and report is None and csv_text is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert f"one of: {', '.join(sorted(table))};" in err["message"]
    if case == "other-table" and other in GAUSSIAN_PRESETS:
        assert "use the gaussian command" in err["message"]


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


def test_idempotent_grid_outside_domain_fails_cleanly(tmp_path, capsys):
    code, report, csv_text = run_cli(["idempotent", "--preset", "idempotent-cp", "--grid=-1:3:5"], tmp_path)
    assert code == 1
    assert report is None and csv_text is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "outside the domain [0.0, 1.0]" in err["message"]


def test_idempotent_grid_touching_the_domain_is_kept(tmp_path):
    """The idempotent command has no stencil, so a grid over the whole
    domain keeps its endpoints."""
    code, _, csv_text = run_cli(["idempotent", "--preset", "idempotent-cp", "--grid", "0:1:5"], tmp_path)
    assert code == 0
    ts = sorted({float(line.split(",")[0]) for line in csv_text.strip().splitlines()[1:]})
    assert ts == [0.5, 0.75, 1.0]


@pytest.mark.parametrize("preset", sorted(IDEMPOTENT_PRESETS))
def test_idempotent_block_sizes_match_the_family_the_preset_builds(preset, tmp_path):
    code, report, _ = run_cli(["idempotent", "--preset", preset], tmp_path)
    assert code in (0, 2)
    assert report["n"] * report["k"] == FAMILY_PRESETS[preset]["build"]().d


@pytest.mark.parametrize("preset", sorted(IDEMPOTENT_PRESETS))
def test_idempotent_and_intermediate_default_to_one_pair(preset, tmp_path):
    """Without --pair both commands read the points at 25% and 75% of [0, 1]."""
    for command in ("idempotent", "intermediate"):
        code, report, _ = run_cli([command, "--preset", preset], tmp_path, name=command)
        assert code in (0, 2)
        assert report["pair"] == list(default_pair((0, 1))) == [0.25, 0.75]


def test_schur_command_emits_growth_table(tmp_path):
    code, report, csv_text = run_cli(["schur", "--n", "4"], tmp_path)
    assert code == 2
    assert abs(report["closed_form_slope"] - 2.0 * np.sqrt(5.0)) < 1e-12
    assert report["spectrum_max_dev"] < 1e-10
    lines = csv_text.strip().splitlines()
    assert "hopping-n4" in lines[1]


@pytest.mark.parametrize("flags", [[], ["--n", "4"], ["--tau-slope", "100"]], ids=["default", "n4", "evidence"])
def test_schur_table_is_its_scans_hopping_rows(flags, tmp_path):
    """The schur CSV is the canonical-0 (hopping witness) rows of the P scan
    that scan-p --preset schur runs with the same flags, relabelled
    hopping-n{n}: every row, also when the scan ends at evidence, with each
    measured slope within 1e-9 of the closed form."""
    code, report, csv_text = run_cli(["schur"] + flags, tmp_path, name="schur")
    scan_code, _, scan_csv = run_cli(["scan-p", "--preset", "schur"] + flags, tmp_path, name="scan")
    assert code == scan_code == (0 if "--tau-slope" in flags else 2)
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    scan_rows = [line.split(",") for line in scan_csv.splitlines()[1:] if ",canonical-0," in line]
    assert len(rows) == 41
    assert rows == [[t, f"hopping-n{report['n']}", *rest] for t, _, *rest in scan_rows]
    assert all(abs(float(row[3]) - report["closed_form_slope"]) < 1e-9 for row in rows)


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


@pytest.mark.parametrize(
    "argv, code",
    [
        (["scan-p", "--preset", "unitary", "--h", "1e-10"], 0),
        (["scan-cp", "--preset", "unitary", "--h", "1e-10"], 0),
        (["scan-p", "--preset", "idempotent-cp", "--h", "1e-10"], 0),
        (["gaussian", "--preset", "dilation-3x2", "--h", "1e-10"], 0),
        (["gaussian", "--preset", "dilation-2x1", "--h", "1e-12"], 2),
    ],
    ids=["scan-p-unitary", "scan-cp-unitary", "scan-p-idempotent-cp", "dilation-3x2", "dilation-2x1"],
)
def test_rounding_noise_at_a_tiny_h_is_no_violation(argv, code, tmp_path):
    """At --h 1e-10 the stencil values of the divisible unitary and
    idempotent-cp families, and the constant determinant of dilation-3x2,
    differ by rounding alone; their slopes above tau_slope used to exit 2.
    The determinant of dilation-2x1 really rises, so it still exits 2 at
    h=1e-12. The scan CSV's flag column stays derivative > tau_slope, so
    rounding can set it under an EVIDENCE verdict."""
    got, report, csv_text = run_cli(argv, tmp_path)
    assert got == code
    verdict = report["verdict"] if argv[0] == "gaussian" else report["report"]["verdict"]
    assert verdict.endswith("_EVIDENCE") == (code == 0)
    if argv[:3] == ["scan-p", "--preset", "unitary"]:
        assert any(line.endswith(",1") for line in csv_text.splitlines())


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


@pytest.mark.parametrize(
    "text, named",
    [(None, "cannot read config file"), ('["preset", "schur"]', "must hold a JSON object")],
    ids=["missing", "array"],
)
def test_config_file_that_is_not_a_readable_object_is_a_config_error(text, named, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    code, report, _ = run_cli(["scan-p", "--config", str(cfg)], tmp_path)
    assert code == 1 and report is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and named in err["message"]


# ------------------------------------------------------------ command table

# a well-formed value for every option, so that only the option's absence
# from a command's list can make the command reject it
_FLAG_VALUES = {
    "preset": "unitary",
    "grid": "0.1:0.4:5",
    "h": "1e-5",
    "tau_slope": "1e-6",
    "n": "4",
    "pair": "0.3:0.6",
    "out_csv": "unread.csv",
}
_CONFIG_VALUES = {
    "preset": "unitary",
    "grid": [0.1, 0.4, 5],
    "h": 1e-5,
    "tau_slope": 1e-6,
    "n": 4,
    "pair": [0.3, 0.6],
    "out_csv": "unread.csv",
}
_UNREAD = [
    (command, key)
    for command, (_, options) in cli_module._COMMANDS.items()
    for key in cli_module._OPTIONS
    if key not in options
]


def test_table_covers_every_option_and_the_common_ones():
    assert set(_FLAG_VALUES) | set(cli_module._COMMON) == set(cli_module._OPTIONS)
    assert set(_CONFIG_VALUES) == set(_FLAG_VALUES)
    for _, options in cli_module._COMMANDS.values():
        assert set(cli_module._COMMON) <= set(options)
    assert len(_UNREAD) == 6 * len(cli_module._OPTIONS) - 46  # 46 command flags in all


@pytest.mark.parametrize("command,key", _UNREAD, ids=[f"{c}-{k}" for c, k in _UNREAD])
def test_an_option_the_command_does_not_read_is_a_config_error(command, key, tmp_path, capsys):
    flag = "--" + key.replace("_", "-")
    code, report, csv_text = run_cli([command, flag, _FLAG_VALUES[key]], tmp_path)
    assert code == 1
    assert report is None and csv_text is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert f"does not read {flag}" in err["message"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: _CONFIG_VALUES[key]}))
    code, report, _ = run_cli([command, "--config", str(cfg)], tmp_path, name="file")
    assert code == 1 and report is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert repr(key) in err["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-p", "--preset", "unitary", "--bogus", "1"],
        ["scan-p", "--preset", "unitary", "--seed", "abc"],
        ["scan-p", "--preset", "unitary", "--seed", "1.5"],
        ["scan-p", "--preset", "unitary", "--tau", "1e-3"],
        ["idempotent", "--preset", "idempotent-cp", "--h", "5"],
        ["scan-p", "--preset", "schur", "--h", "nan"],
        ["scan-p", "--preset", "schur", "--h", "1" + "0" * 400],
        ["scan-p", "--preset", "unitary", "--h", "5"],
        ["scan-p", "--preset", "unitary", "--seed=-1"],
        ["scan-p", "--preset", "unitary", "--h", "0"],
        ["scan-p", "--preset", "unitary", "--tau-slope", "-1"],
        ["scan-p", "--preset", "unitary", "stray"],
        ["no-such-command"],
        ["--bogus"],
        ["--list-presets", "--bogus"],
    ],
    ids=["unknown-flag", "bad-seed", "fractional-seed", "abbreviation", "h-for-help", "nan-h", "huge-h", "h-above-half-domain", "negative-seed", "zero-h", "negative-tau-slope", "stray", "command", "top-flag", "list-with-flag"],
)
def test_usage_errors_exit_one_with_config_error(argv, tmp_path, capsys):
    """Exit 2 means a NOT_* verdict, so no usage error may exit with it."""
    code, report, _ = run_cli(argv, tmp_path)
    assert code == 1 and report is None
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schur", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--tau-slope" in out and "--preset" not in out


def test_summary_line_and_default_file_names(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["scan-p", "--preset", "unitary"]) == 0
    assert capsys.readouterr().out == (
        "scan-p unitary: P_EVIDENCE (json: divscan_scan-p_unitary.json, csv: divscan_scan-p_unitary.csv)\n"
    )
    assert main(["intermediate", "--preset", "unitary", "--out-csv", "unused.csv"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert main(["intermediate", "--preset", "unitary"]) == 0
    assert capsys.readouterr().out == "intermediate unitary (0.5 -> 1.5): cp=True (json: divscan_intermediate_unitary.json)\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "divscan_intermediate_unitary.json",
        "divscan_scan-p_unitary.csv",
        "divscan_scan-p_unitary.json",
    ]


def test_empty_output_path_is_a_config_error(tmp_path, monkeypatch, capsys):
    """An empty --out-json would otherwise fall back to the default name."""
    monkeypatch.chdir(tmp_path)
    assert main(["scan-p", "--preset", "unitary", "--out-json", ""]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------ typed errors for bad input


@pytest.mark.parametrize(
    "argv", [["schur", "--n", "1"], ["scan-p", "--preset", "schur", "--n", "1"]], ids=["schur", "scan-p"]
)
def test_schur_size_below_two_is_a_config_error(argv, tmp_path, capsys):
    code, _, _ = run_cli(argv, tmp_path)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "n must be >= 2" in err["message"]


def test_n_with_a_non_schur_preset_is_a_config_error(tmp_path, capsys):
    code, report, _ = run_cli(["scan-p", "--preset", "unitary", "--n", "5"], tmp_path)
    assert code == 1 and report is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "schur" in err["message"]


@pytest.mark.parametrize("command", ["idempotent", "intermediate"])
def test_idempotent_pair_outside_domain_is_a_config_error(command, tmp_path, capsys):
    code, report, _ = run_cli([command, "--preset", "idempotent-cp", "--pair", "0.5:3"], tmp_path)
    assert code == 1 and report is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "pair [0.5, 3.0] outside the domain [0.0, 1.0]" in err["message"]


@pytest.mark.parametrize(
    "command,fields,named",
    [
        (["idempotent", "--preset", "idempotent-cp"], {"pair": [0.1]}, "pair"),
        (["idempotent", "--preset", "idempotent-cp"], {"pair": [0.8, 0.3]}, "pair"),
        (["scan-p", "--preset", "unitary"], {"seed": "x"}, "seed"),
        (["scan-p"], {"preset": "schur", "n": "5"}, "n"),
        (["scan-p", "--preset", "unitary"], {"grid": [0.1, 0.4, 5.5]}, "grid points"),
        (["scan-p", "--preset", "unitary"], {"h": None}, "h"),
        (["scan-p"], {"preset": 3}, "preset"),
    ],
    ids=["short-pair", "reversed-pair", "text-seed", "text-n", "fractional-points", "null-h", "numeric-preset"],
)
def test_config_file_values_pass_the_flag_checks(command, fields, named, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    code, report, _ = run_cli(command + ["--config", str(cfg)], tmp_path)
    assert code == 1 and report is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(named)


def test_flag_and_config_file_give_the_same_run(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "schur", "n": 4, "grid": [0.1, 0.4, 5], "h": 1e-5, "tau_slope": 1e-3}))
    _, from_file, csv_file = run_cli(["scan-p", "--config", str(cfg)], tmp_path, name="file")
    flags = ["scan-p", "--preset", "schur", "--n", "4", "--grid", "0.1:0.4:5", "--h", "1e-5", "--tau-slope", "1e-3"]
    _, from_flags, csv_flags = run_cli(flags, tmp_path, name="flags")
    assert from_file == from_flags and csv_file == csv_flags
    assert from_file["h"] == 1e-5 and from_file["tau_slope"] == 1e-3
