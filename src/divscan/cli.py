"""Command-line front end: presets, sweeps, verdicts, JSON/CSV emission.

Exit codes: 0 for a clean verdict, 2 when a scan certifies NOT_P/NOT_CP
(scriptable), 1 on any error. CSV columns are fixed to
(t, witness_id, value, derivative, flag) with floats at 17 significant
digits, so identical config + seed reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._errors import ConfigError, DivscanError
from .divisibility import (
    cp_divisibility_scan,
    intermediate_map,
    p_divisibility_scan,
)
from .gaussian import GaussianFamily, det_criterion_scan
from .idempotent import classify_regime, divisor_coeffs, truncation_report
from .presets import (
    DESIGNATED_PAIR,
    FAMILY_PRESETS,
    GAUSSIAN_PRESETS,
    IDEMPOTENT_DOMAIN,
    gaussian_pair_at,
    idempotent_coeff_fns,
    list_presets,
)
from .schur import cosine_abs_sum, toeplitz_a, toeplitz_spectrum, witness_growth

_COMMANDS = ("scan-p", "scan-cp", "idempotent", "schur", "gaussian", "intermediate")


@dataclass
class RunConfig:
    command: str
    preset: str | None = None
    grid: tuple[float, float, int] | None = None
    h: float | None = None
    tau_slope: float = 1e-6
    seed: int = 11
    n: int | None = None
    pair: tuple[float, float] | None = None
    out_json: str | None = None
    out_csv: str | None = None

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.grid is not None:
            lo, hi, pts = self.grid
            if pts < 2:
                raise ConfigError(f"grid points must be >= 2, got {pts}")
            if not lo < hi:
                raise ConfigError(f"grid needs t_min < t_max, got {lo}:{hi}")
        if self.tau_slope <= 0:
            raise ConfigError(f"tau_slope must be > 0, got {self.tau_slope}")
        if self.h is not None and self.h <= 0:
            raise ConfigError(f"h must be > 0, got {self.h}")


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be t_min:t_max:points, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid component in {text!r}: {exc}") from exc


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"pair must be s:t, got {text!r}")
    try:
        s, t = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad pair component in {text!r}: {exc}") from exc
    if not s < t:
        raise ConfigError(f"pair needs s < t, got {text!r}")
    return s, t


_CONFIG_KEYS = {"preset", "grid", "h", "tau_slope", "seed", "n", "pair", "out_json", "out_csv"}


def _load_config_file(path: str) -> dict:
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
    for key in obj:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config file {path}: unknown field {key!r}")
    return obj


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: str, rows) -> None:
    lines = ["t,witness_id,value,derivative,flag"]
    for t, wid, value, deriv, flag in rows:
        lines.append(f"{_fmt(t)},{wid},{_fmt(value)},{_fmt(deriv)},{int(bool(flag))}")
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path: str, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _out_paths(cfg: RunConfig) -> tuple[str, str]:
    stem = f"divscan_{cfg.command}_{cfg.preset or 'run'}"
    return cfg.out_json or f"{stem}.json", cfg.out_csv or f"{stem}.csv"


def _build_family(cfg: RunConfig):
    if cfg.preset is None:
        raise ConfigError("a --preset is required for this command")
    if cfg.preset in GAUSSIAN_PRESETS:
        raise ConfigError(f"preset {cfg.preset!r} is covariance-level; use the gaussian command")
    if cfg.preset not in FAMILY_PRESETS:
        raise ConfigError(f"unknown preset {cfg.preset!r}; available: {', '.join(list_presets())}")
    entry = FAMILY_PRESETS[cfg.preset]
    if cfg.preset == "schur" and cfg.n is not None:
        return entry["build"](cfg.n), entry
    return entry["build"](), entry


def _checked_grid(cfg: RunConfig, entry: dict, domain: tuple[float, float]) -> np.ndarray:
    """cfg.grid or the preset's default grid, checked against the domain."""
    lo, hi, pts = cfg.grid if cfg.grid is not None else entry["default_grid"]
    if lo < domain[0] - 1e-12 or hi > domain[1] + 1e-12:
        raise ConfigError(f"grid [{lo}, {hi}] outside the domain {list(domain)}")
    return np.linspace(lo, hi, pts)


def _grid_and_h(cfg: RunConfig, entry: dict, domain: tuple[float, float]):
    """Grid and stencil width h for the scan, schur and gaussian commands:
    the checked grid, with h = cfg.h or 1e-4 times the domain span."""
    ts = _checked_grid(cfg, entry, domain)
    h = cfg.h if cfg.h is not None else 1e-4 * (domain[1] - domain[0])
    # grids may touch the domain boundary; pull those points in by h so the
    # finite-difference stencil stays inside
    ts[0] = max(ts[0], domain[0] + h)
    ts[-1] = min(ts[-1], domain[1] - h)
    return ts, h


def _run_scan(cfg: RunConfig) -> int:
    fam, entry = _build_family(cfg)
    ts, h = _grid_and_h(cfg, entry, fam.t_domain)
    scan = p_divisibility_scan if cfg.command == "scan-p" else cp_divisibility_scan
    report = scan(fam, grid=ts, h=h, seed=cfg.seed, tau_slope=cfg.tau_slope)
    json_path, csv_path = _out_paths(cfg)
    _write_json(
        json_path,
        {
            "command": cfg.command,
            "preset": cfg.preset,
            "grid": {"t_min": float(ts[0]), "t_max": float(ts[-1]), "points": len(ts)},
            "h": h,
            "seed": cfg.seed,
            "tau_slope": cfg.tau_slope,
            "report": report.to_json(),
        },
    )
    _write_csv(
        csv_path,
        [(t, wid, val, der, der > cfg.tau_slope) for t, wid, val, der in report.csv_rows()],
    )
    print(f"{cfg.command} {cfg.preset}: {report.verdict} (json: {json_path}, csv: {csv_path})")
    return 2 if report.verdict.startswith("NOT_") else 0


def _run_schur(cfg: RunConfig) -> int:
    n = cfg.n if cfg.n is not None else 8
    entry = FAMILY_PRESETS["schur"]
    fam = entry["build"](n)
    ts, h = _grid_and_h(cfg, entry, fam.t_domain)
    rows = witness_growth(n, ts)
    report = p_divisibility_scan(fam, grid=ts, h=h, seed=cfg.seed, tau_slope=cfg.tau_slope)
    t_probe = float(ts[len(ts) // 2])
    spectrum_dev = float(
        np.max(np.abs(toeplitz_spectrum(n, t_probe) - np.linalg.eigvalsh(toeplitz_a(n, t_probe))))
    )
    json_path, csv_path = _out_paths(cfg)
    _write_json(
        json_path,
        {
            "command": "schur",
            "n": n,
            "closed_form_slope": 2.0 * cosine_abs_sum(n),
            "spectrum_max_dev": spectrum_dev,
            "verdict": report.verdict,
            "report": report.to_json(),
        },
    )
    _write_csv(csv_path, [(t, f"hopping-n{n}", nrm, der, der > cfg.tau_slope) for t, nrm, der in rows])
    print(f"schur n={n}: {report.verdict} slope={2.0 * cosine_abs_sum(n):.6f} (json: {json_path}, csv: {csv_path})")
    return 2 if report.verdict.startswith("NOT_") else 0


def _run_idempotent(cfg: RunConfig) -> int:
    if cfg.preset not in ("idempotent-cp", "idempotent-p-not-cp", "idempotent-not-p"):
        raise ConfigError("idempotent command needs one of the idempotent-* presets")
    n, k = 2, 2
    fns = idempotent_coeff_fns(cfg.preset)
    s, t = cfg.pair if cfg.pair is not None else DESIGNATED_PAIR
    coeffs = divisor_coeffs(*fns(s), *fns(t))
    regime = classify_regime(n, k, fns(s), fns(t))
    # no stencil here, so the grid is checked but its endpoints are not moved
    ts = _checked_grid(cfg, FAMILY_PRESETS[cfg.preset], IDEMPOTENT_DOMAIN)
    csv_rows = []
    for tt in ts:
        if tt <= s:
            continue
        al, be, ga, de = divisor_coeffs(*fns(s), *fns(float(tt)))
        flagged = classify_regime(n, k, fns(s), fns(float(tt))) != "CP"
        for name, val in zip(("alpha", "beta", "gamma", "delta"), (al, be, ga, de)):
            csv_rows.append((float(tt), f"divisor-{name}", val, 0.0, flagged))
    json_path, csv_path = _out_paths(cfg)
    _write_json(
        json_path,
        {
            "command": "idempotent",
            "preset": cfg.preset,
            "n": n,
            "k": k,
            "pair": [s, t],
            "divisor_coeffs": list(coeffs),
            "regime": regime,
            "truncations": truncation_report(fns(s), fns(t), k, [2, 3, 4, 8, 16]),
        },
    )
    _write_csv(csv_path, csv_rows)
    print(f"idempotent {cfg.preset} pair=({s},{t}): regime {regime} (json: {json_path}, csv: {csv_path})")
    return 0 if regime == "CP" else 2


def _run_gaussian(cfg: RunConfig) -> int:
    if cfg.preset not in GAUSSIAN_PRESETS:
        raise ConfigError(
            f"gaussian command needs one of: {', '.join(sorted(GAUSSIAN_PRESETS))}"
        )
    entry = GAUSSIAN_PRESETS[cfg.preset]
    dom = entry["t_domain"]
    ts, h = _grid_and_h(cfg, entry, dom)
    if cfg.h is None:
        # determinant slopes keep their default of 1e-4 times the grid span;
        # it is at most the domain-based h, so the clamped stencil stays inside
        h = 1e-4 * float(ts[-1] - ts[0])

    first = gaussian_pair_at(cfg.preset, float(ts[0]))
    pair_valid = all(gaussian_pair_at(cfg.preset, float(t))["pair_valid"] for t in ts)
    fam = GaussianFamily(
        m=entry["m_keep"],
        generator=lambda t: gaussian_pair_at(cfg.preset, t)["pair"],
        t_domain=dom,
        name=cfg.preset,
    )
    rows = det_criterion_scan(fam, ts, h=h, tau_slope=cfg.tau_slope)
    any_violation = any(r["violation"] for r in rows)
    verdict = "NOT_P_DIVISIBLE" if any_violation else "P_EVIDENCE"
    validation = {
        "symplectic": first["symplectic"],
        "deviations": first["deviations"],
        "all_pairs_valid": bool(pair_valid),
        "ok": bool(all(first["symplectic"].values()) and pair_valid),
    }
    json_path, csv_path = _out_paths(cfg)
    _write_json(
        json_path,
        {
            "command": "gaussian",
            "preset": cfg.preset,
            "m_keep": entry["m_keep"],
            "validation": validation,
            "verdict": verdict,
            "rows": [
                {"t": r["t"], "det": r["det"], "ddet": r["ddet"], "violation": r["violation"]}
                for r in rows
            ],
        },
    )
    _write_csv(csv_path, [(r["t"], "detX", r["det"], r["ddet"], r["violation"]) for r in rows])
    note = "" if validation["ok"] else " [input validation FAILED; see json]"
    print(f"gaussian {cfg.preset}: {verdict}{note} (json: {json_path}, csv: {csv_path})")
    return 2 if any_violation else 0


def _run_intermediate(cfg: RunConfig) -> int:
    fam, _ = _build_family(cfg)
    if cfg.pair is not None:
        s, t = cfg.pair
    elif (cfg.preset or "").startswith("idempotent"):
        s, t = DESIGNATED_PAIR
    else:
        s, t = _default_pair(fam)
    result = intermediate_map(fam, s, t, seed=cfg.seed)
    ch = result["map"]
    tp_dev = ch.tp_deviation()
    obj = {
        "command": "intermediate",
        "preset": cfg.preset,
        "pair": [s, t],
        "dim": ch.d,
        "tp_max_deviation": tp_dev,
        "is_cp": result["cp"],
        "positivity_evidence": result["p"]["positive_evidence"],
        "positivity_norms": [result["p"]["input_norm"], result["p"]["output_norm"]],
    }
    if (cfg.preset or "").startswith("idempotent"):
        fns = idempotent_coeff_fns(cfg.preset)
        obj["divisor_coeffs"] = list(divisor_coeffs(*fns(s), *fns(t)))
        obj["regime"] = classify_regime(2, 2, fns(s), fns(t))
    json_path, _ = _out_paths(cfg)
    _write_json(json_path, obj)
    print(f"intermediate {cfg.preset} ({s} -> {t}): cp={obj['is_cp']} (json: {json_path})")
    return 0


def _default_pair(fam) -> tuple[float, float]:
    lo, hi = fam.t_domain
    span = hi - lo
    return lo + 0.25 * span, lo + 0.75 * span


_RUNNERS = {
    "scan-p": _run_scan,
    "scan-cp": _run_scan,
    "idempotent": _run_idempotent,
    "schur": _run_schur,
    "gaussian": _run_gaussian,
    "intermediate": _run_intermediate,
}


def run(cfg: RunConfig) -> int:
    threads = os.environ.get("DIVSCAN_THREADS")
    if threads is not None:
        try:
            if int(threads) < 1:
                raise ValueError
        except ValueError:
            raise ConfigError(f"DIVSCAN_THREADS must be a positive integer, got {threads!r}")
    cfg.validate()
    return _RUNNERS[cfg.command](cfg)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divscan", description="Divisibility scans for dynamical-map families."
    )
    parser.add_argument("--list-presets", action="store_true", help="list preset names and exit")
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--preset")
        p.add_argument("--config", help="JSON file supplying any of the other options")
        p.add_argument("--grid", help="t_min:t_max:points")
        p.add_argument("--h", type=float)
        p.add_argument("--tau-slope", type=float, dest="tau_slope")
        p.add_argument("--seed", type=int)
        p.add_argument("--out-json", dest="out_json")
        p.add_argument("--out-csv", dest="out_csv")
        if name in ("scan-p", "scan-cp", "schur"):
            p.add_argument("--n", type=int, help="truncation size for the schur preset")
        if name in ("idempotent", "intermediate"):
            p.add_argument("--pair", help="s:t")
    return parser


def _merge(args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(key, fallback=None):
        val = getattr(args, key, None)
        if val is not None:
            return val
        return file_cfg.get(key, fallback)

    grid = pick("grid")
    if isinstance(grid, str):
        grid = _parse_grid(grid)
    elif isinstance(grid, (list, tuple)):
        if len(grid) != 3:
            raise ConfigError(f"config grid must be [t_min, t_max, points], got {grid}")
        grid = (float(grid[0]), float(grid[1]), int(grid[2]))
    pair = pick("pair")
    if isinstance(pair, str):
        pair = _parse_pair(pair)
    elif isinstance(pair, (list, tuple)):
        pair = (float(pair[0]), float(pair[1]))

    return RunConfig(
        command=args.command,
        preset=pick("preset"),
        grid=grid,
        h=pick("h"),
        tau_slope=float(pick("tau_slope", 1e-6)),
        seed=int(pick("seed", 11)),
        n=pick("n"),
        pair=pair,
        out_json=pick("out_json"),
        out_csv=pick("out_csv"),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_presets:
        for name in list_presets():
            print(name)
        return 0
    if args.command is None:
        print("error: a command is required (or --list-presets)", file=sys.stderr)
        return 1
    try:
        return run(_merge(args))
    except DivscanError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1
