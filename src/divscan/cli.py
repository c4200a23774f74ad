"""Command-line front end: presets, sweeps, verdicts, JSON/CSV emission.

Every command is one entry of `_COMMANDS`: its runner and the options it
reads, which are entries of `_OPTIONS`. The parser, the config-file check
and the merge of flags over the file are built from these tables, so a
command accepts only what it reads and a value passes the same check from a
flag or from the config file. Runners return their output; `run` writes it.

Exit codes: 0 for a clean verdict, 2 when a scan certifies NOT_P/NOT_CP
(scriptable), 1 on any error, usage errors included. CSV columns are fixed
to (t, witness_id, value, derivative, flag) with floats at 17 significant
digits, so identical config + seed reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ._errors import ConfigError, DivscanError
from .divisibility import (
    DOMAIN_ATOL,
    NOT_P_DIVISIBLE,
    P_EVIDENCE,
    STENCIL_WIDTH,
    cp_divisibility_scan,
    intermediate_map,
    p_divisibility_scan,
)
from .gaussian import det_criterion_scan
from .idempotent import classify_regime, divisor_coeffs, truncation_report
from .operators import TAU_SLOPE
from .presets import (
    FAMILY_PRESETS,
    GAUSSIAN_PRESETS,
    IDEMPOTENT_PRESETS,
    SCHUR_PRESET,
    default_pair,
    gaussian_family,
    gaussian_pair_at,
    list_presets,
)
from .schur import cosine_abs_sum, toeplitz_a, toeplitz_spectrum


def _number(name: str, val, integer: bool = False):
    typed = isinstance(val, int if integer else (int, float)) and not isinstance(val, bool)
    # the float bound also rules out nan, inf and ints too large for a float
    if not typed or not (integer or abs(val) <= sys.float_info.max):
        raise ConfigError(f"{name} must be {'an integer' if integer else 'a finite number'}, got {val!r}")
    return val if integer else float(val)


def _integer(name: str, val, least: int | None = None) -> int:
    val = _number(name, val, integer=True)
    if least is not None and val < least:
        raise ConfigError(f"{name} must be >= {least}, got {val}")
    return val


def _positive(name: str, val) -> float:
    val = _number(name, val)
    if val <= 0:
        raise ConfigError(f"{name} must be > 0, got {val}")
    return val


def _string(name: str, val) -> str:
    if not isinstance(val, str) or not val:
        raise ConfigError(f"{name} must be a non-empty string, got {val!r}")
    return val


def _span(name: str, val, fields: tuple[str, ...]) -> tuple:
    """[lo, hi] with lo < hi, or [lo, hi, points] with points >= 2 too."""
    if not isinstance(val, (list, tuple)) or len(val) != len(fields):
        raise ConfigError(f"{name} must be {':'.join(fields)}, got {val!r}")
    lo, hi = _number(f"{name} {fields[0]}", val[0]), _number(f"{name} {fields[1]}", val[1])
    points = [_integer(f"{name} {fields[2]}", val[2], least=2)] if len(fields) == 3 else []
    if not lo < hi:
        raise ConfigError(f"{name} needs {fields[0]} < {fields[1]}, got {lo}:{hi}")
    return (lo, hi, *points)


def _from_text(text: str):
    """A flag's text as the JSON value a config file would hold: a number
    where it reads as one, a list where it has colon-separated fields."""
    if ":" in text:
        return [_from_text(part) for part in text.split(":")]
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


class _Option(NamedTuple):
    check: Callable  # (name, JSON value) -> the value, or ConfigError
    default: object = None
    help: str | None = None


# every option a command can read; a flag's text goes through _from_text
# (unless the option is a string), then flag and config value share `check`
_OPTIONS = {
    "preset": _Option(_string, help="preset name (see --list-presets)"),
    "grid": _Option(lambda name, val: _span(name, val, ("t_min", "t_max", "points")), help="t_min:t_max:points"),
    "h": _Option(_positive, help="central-difference step"),
    "tau_slope": _Option(_positive, TAU_SLOPE, "growth threshold"),
    "n": _Option(lambda name, val: _integer(name, val, least=2), help="size of the schur family"),
    "pair": _Option(lambda name, val: _span(name, val, ("s", "t")), help="s:t"),
    "seed": _Option(lambda name, val: _integer(name, val, least=0), 11, "witness RNG seed"),
    "config": _Option(_string, help="JSON file supplying any of the command's other options"),
    "out_json": _Option(_string, help="JSON report path"),
    "out_csv": _Option(_string, help="CSV table path"),
}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: str, rows) -> None:
    lines = ["t,witness_id,value,derivative,flag"]
    for t, wid, value, deriv, flag in rows:
        lines.append(f"{_fmt(t)},{wid},{_fmt(value)},{_fmt(deriv)},{int(bool(flag))}")
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path: str, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _preset(cfg, table: dict) -> dict:
    """The entry of cfg.preset in `table`, the preset table the command reads."""
    if cfg.preset in table:
        return table[cfg.preset]
    got = "no preset" if cfg.preset is None else f"preset {cfg.preset!r}"
    hint = " (covariance-level: use the gaussian command)" if cfg.preset in GAUSSIAN_PRESETS else ""
    raise ConfigError(f"{cfg.command} needs --preset, one of: {', '.join(sorted(table))}; got {got}{hint}")


def _build_family(cfg, entry: dict):
    """The family of a FAMILY_PRESETS entry, sized by cfg.n where it takes one."""
    if cfg.n is None:
        return entry["build"]()
    if not entry.get("takes_n"):
        raise ConfigError(f"n sets the size of the schur preset only; preset {cfg.preset!r} has none")
    return entry["build"](cfg.n)


def _check_domain(what: str, lo: float, hi: float, domain: tuple[float, float]) -> None:
    if lo < domain[0] - DOMAIN_ATOL or hi > domain[1] + DOMAIN_ATOL:
        raise ConfigError(f"{what} [{lo}, {hi}] outside the domain {list(domain)}")


def _checked_grid(cfg, entry: dict, domain: tuple[float, float]) -> np.ndarray:
    """cfg.grid or the preset's default grid, checked against the domain."""
    lo, hi, pts = cfg.grid if cfg.grid is not None else entry["default_grid"]
    _check_domain("grid", lo, hi, domain)
    return np.linspace(lo, hi, pts)


def _grid_and_h(cfg, entry: dict, domain: tuple[float, float]):
    """The checked grid and h = cfg.h or STENCIL_WIDTH times the span of the
    domain, or of the grid for gaussian (its goldens pin that default)."""
    ts = _checked_grid(cfg, entry, domain)
    lo, hi = (ts[0], ts[-1]) if cfg.command == "gaussian" else domain
    h = cfg.h if cfg.h is not None else STENCIL_WIDTH * float(hi - lo)
    if h > (domain[1] - domain[0]) / 2:
        raise ConfigError(f"h={h} is above half the domain {list(domain)}, so no stencil t +/- h fits inside it")
    # grids may touch the domain boundary; pull those points in by h so the
    # finite-difference stencil stays inside
    ts[0] = max(ts[0], domain[0] + h)
    ts[-1] = min(ts[-1], domain[1] - h)
    return ts, h


def _run_scan(cfg):
    entry = _preset(cfg, FAMILY_PRESETS)
    fam = _build_family(cfg, entry)
    ts, h = _grid_and_h(cfg, entry, fam.t_domain)
    scan = p_divisibility_scan if cfg.command == "scan-p" else cp_divisibility_scan
    report = scan(fam, grid=ts, h=h, seed=cfg.seed, tau_slope=cfg.tau_slope)
    obj = {
        "command": cfg.command,
        "preset": cfg.preset,
        "grid": {"t_min": float(ts[0]), "t_max": float(ts[-1]), "points": len(ts)},
        "h": h,
        "seed": cfg.seed,
        "tau_slope": cfg.tau_slope,
        "report": report.to_json(),
    }
    rows = [(t, wid, val, der, der > cfg.tau_slope) for t, wid, val, der in report.rows]
    summary = f"{cfg.command} {cfg.preset}: {report.verdict}"
    return obj, rows, summary, 2 if report.verdict.startswith("NOT_") else 0


def _run_schur(cfg):
    fam = _build_family(cfg, SCHUR_PRESET)
    n = fam.d
    ts, h = _grid_and_h(cfg, SCHUR_PRESET, fam.t_domain)
    report = p_divisibility_scan(fam, grid=ts, h=h, seed=cfg.seed, tau_slope=cfg.tau_slope)
    t_probe = float(ts[len(ts) // 2])
    spectrum_dev = float(np.max(np.abs(toeplitz_spectrum(n, t_probe) - np.linalg.eigvalsh(toeplitz_a(n, t_probe)))))
    slope = 2.0 * cosine_abs_sum(n)
    obj = {
        "command": "schur",
        "n": n,
        "closed_form_slope": slope,
        "spectrum_max_dev": spectrum_dev,
        "verdict": report.verdict,
        "report": report.to_json(),
    }
    # the hopping witness is canonical-0, the scan's first slice: all its rows are kept
    csv_rows = [(t, f"hopping-n{n}", v, d, d > cfg.tau_slope) for t, wid, v, d in report.rows if wid == "canonical-0"]
    summary = f"schur n={n}: {report.verdict} slope={slope:.6f}"
    return obj, csv_rows, summary, 2 if report.verdict.startswith("NOT_") else 0


def _divisor(entry: dict, s: float, t: float):
    """Coefficients and regime of the s -> t divisor of an idempotent preset."""
    fns, (n, k) = entry["coeff_fns"], entry["blocks"]
    return list(divisor_coeffs(*fns(s), *fns(t))), classify_regime(n, k, fns(s), fns(t))


def _run_idempotent(cfg):
    entry = _preset(cfg, IDEMPOTENT_PRESETS)
    n, k = entry["blocks"]
    s, t = cfg.pair if cfg.pair is not None else default_pair(entry["t_domain"])
    _check_domain("pair", s, t, entry["t_domain"])
    coeffs, regime = _divisor(entry, s, t)
    # no stencil here, so the grid is checked but its endpoints are not moved
    ts = _checked_grid(cfg, entry, entry["t_domain"])
    csv_rows = []
    for tt in ts:
        if tt <= s:
            continue
        divisor, tt_regime = _divisor(entry, s, float(tt))
        for name, val in zip(("alpha", "beta", "gamma", "delta"), divisor):
            csv_rows.append((float(tt), f"divisor-{name}", val, 0.0, tt_regime != "CP"))
    obj = {
        "command": "idempotent",
        "preset": cfg.preset,
        "n": n,
        "k": k,
        "pair": [s, t],
        "divisor_coeffs": coeffs,
        "regime": regime,
        "truncations": truncation_report(entry["coeff_fns"](s), entry["coeff_fns"](t), k, [2, 3, 4, 8, 16]),
    }
    summary = f"idempotent {cfg.preset} pair=({s},{t}): regime {regime}"
    return obj, csv_rows, summary, 0 if regime == "CP" else 2


def _run_gaussian(cfg):
    entry = _preset(cfg, GAUSSIAN_PRESETS)
    ts, h = _grid_and_h(cfg, entry, entry["t_domain"])
    rows = det_criterion_scan(gaussian_family(cfg.preset), ts, h=h, tau_slope=cfg.tau_slope)
    # the scan checked every grid pair; the first is rebuilt for its factors
    first = gaussian_pair_at(cfg.preset, float(ts[0]))
    pair_valid = all(r["valid"] for r in rows)
    any_violation = any(r["violation"] for r in rows)
    verdict = NOT_P_DIVISIBLE if any_violation else P_EVIDENCE
    validation = {
        "symplectic": first["symplectic"],
        "deviations": first["deviations"],
        "all_pairs_valid": bool(pair_valid),
        "ok": bool(all(first["symplectic"].values()) and pair_valid),
    }
    obj = {
        "command": "gaussian",
        "preset": cfg.preset,
        "m_keep": entry["m_keep"],
        "validation": validation,
        "verdict": verdict,
        "rows": [{"t": r["t"], "det": r["det"], "ddet": r["ddet"], "violation": r["violation"]} for r in rows],
    }
    csv_rows = [(r["t"], "detX", r["det"], r["ddet"], r["violation"]) for r in rows]
    note = "" if validation["ok"] else " [input validation FAILED; see json]"
    return obj, csv_rows, f"gaussian {cfg.preset}: {verdict}{note}", 2 if any_violation else 0


def _run_intermediate(cfg):
    entry = _preset(cfg, FAMILY_PRESETS)
    fam = _build_family(cfg, entry)
    s, t = cfg.pair if cfg.pair is not None else default_pair(fam.t_domain)
    _check_domain("pair", s, t, fam.t_domain)
    result = intermediate_map(fam, s, t, seed=cfg.seed)
    ch = result["map"]
    obj = {
        "command": "intermediate",
        "preset": cfg.preset,
        "pair": [s, t],
        "dim": ch.d,
        "tp_max_deviation": ch.tp_deviation(),
        "is_cp": result["cp"],
        "positivity_evidence": result["p"]["positive_evidence"],
        "positivity_norms": [result["p"]["input_norm"], result["p"]["output_norm"]],
    }
    if cfg.preset in IDEMPOTENT_PRESETS:
        obj["divisor_coeffs"], obj["regime"] = _divisor(entry, s, t)
    return obj, None, f"intermediate {cfg.preset} ({s} -> {t}): cp={obj['is_cp']}", 0


# every command takes these; the five that write a CSV take _CSV
_COMMON = ("seed", "config", "out_json")
_CSV = _COMMON + ("out_csv",)
_SCAN = ("preset", "grid", "h", "tau_slope", "n") + _CSV

# command -> (runner, the options it reads); a runner returns its JSON
# object, its CSV rows (None for no CSV), a summary line and the exit code
_COMMANDS = {
    "scan-p": (_run_scan, _SCAN),
    "scan-cp": (_run_scan, _SCAN),
    "idempotent": (_run_idempotent, ("preset", "grid", "pair") + _CSV),
    "schur": (_run_schur, ("grid", "h", "tau_slope", "n") + _CSV),
    "gaussian": (_run_gaussian, ("preset", "grid", "h", "tau_slope") + _CSV),
    "intermediate": (_run_intermediate, ("preset", "pair") + _COMMON),
}


class _Parser(argparse.ArgumentParser):
    # a usage error is a ConfigError (exit 1); exit 2 means a NOT_* verdict
    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="divscan", description="Divisibility scans for dynamical-map families.", allow_abbrev=False)
    parser.add_argument("--list-presets", action="store_true", help="list preset names and exit")
    sub = parser.add_subparsers(dest="command")
    for name, (_, options) in _COMMANDS.items():
        # no abbreviations: an unread --h would otherwise be taken for --help
        p = sub.add_parser(name, allow_abbrev=False)
        for key in options:
            p.add_argument(_flag(key), dest=key, help=_OPTIONS[key].help)
    return parser


def _load_config_file(path: str, command: str) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    fields = [key for key in _COMMANDS[command][1] if key != "config"]
    for key in obj:
        if key not in fields:
            raise ConfigError(f"config file {path}: unknown field {key!r}; {command} reads {', '.join(fields)}")
    return obj


def _merge(args: argparse.Namespace) -> argparse.Namespace:
    """The command's options, each from its flag, else the config file,
    else its default; options the command does not read keep the default."""
    file_cfg = _load_config_file(args.config, args.command) if args.config is not None else {}
    cfg = argparse.Namespace(command=args.command, **{key: opt.default for key, opt in _OPTIONS.items()})
    for key in _COMMANDS[args.command][1]:
        check, flag = _OPTIONS[key].check, getattr(args, key)
        if flag is not None:
            setattr(cfg, key, check(key, flag if check is _string else _from_text(flag)))
        elif key in file_cfg:
            setattr(cfg, key, check(key, file_cfg[key]))
    return cfg


def run(cfg: argparse.Namespace) -> int:
    """Run one command, then write its JSON and CSV and print its summary."""
    obj, rows, summary, code = _COMMANDS[cfg.command][0](cfg)
    stem = f"divscan_{cfg.command}_{cfg.preset or 'run'}"
    json_path = cfg.out_json or f"{stem}.json"
    _write_json(json_path, obj)
    paths = f"json: {json_path}"
    if rows is not None:
        csv_path = cfg.out_csv or f"{stem}.csv"
        _write_csv(csv_path, rows)
        paths += f", csv: {csv_path}"
    print(f"{summary} ({paths})")
    return code


def main(argv=None) -> int:
    try:
        args, unread = _build_parser().parse_known_args(argv)
        if unread:
            reads = ", ".join(map(_flag, _COMMANDS[args.command][1] if args.command else ("list_presets",)))
            raise ConfigError(f"{args.command or 'divscan'} does not read {' '.join(unread)}; it reads {reads}")
        if args.list_presets:
            for name in list_presets():
                print(name)
            return 0
        if args.command is None:
            raise ConfigError("a command is required (or --list-presets)")
        return run(_merge(args))
    except DivscanError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
