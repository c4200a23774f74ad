"""Golden outputs and the correctness check.

The goldens were recorded at the seed commit, one file per workload, size
and library seed. Numbers match when they agree within 1e-9 relative to
max(1, |x|); strings (verdicts, witness ids, error types), integers (exit
codes, flags), booleans and list lengths and order must match exactly.
Free-text notes are not compared. Byte equality is never required, so an
engine that only adds float noise still passes.

Record (only on a commit whose outputs are the reference):

    python3 perfbench/golden.py [--size full|tiny] [--workload NAME] [--out DIR]
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
from pathlib import Path

from common import GOLDEN, LIBRARY_SEEDS, ROOT, git_commit, run_child

RTOL = 1e-9
_SKIP_KEYS = {"notes"}


def golden_path(directory, workload: str, size: str, lib_seed: int) -> Path:
    return Path(directory) / f"{workload}-{size}-seed{lib_seed}.json.gz"


def load(path) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save(path, workload: str, size: str, lib_seed: int, ops: dict) -> None:
    obj = {"workload": workload, "size": size, "library_seed": lib_seed, "commit": git_commit(), "ops": ops}
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(obj, separators=(",", ":")).encode())


def mismatch(expected, actual, where: str = "") -> str | None:
    """None when actual matches expected, else where and how they differ."""
    if isinstance(expected, bool) or isinstance(actual, bool) or expected is None or actual is None:
        return None if expected is actual else f"{where}: expected {expected!r}, got {actual!r}"
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if isinstance(expected, int) and isinstance(actual, int):
            return None if expected == actual else f"{where}: expected {expected}, got {actual}"
        if abs(actual - expected) <= RTOL * max(1.0, abs(expected)):
            return None
        if expected != expected and actual != actual:  # both NaN
            return None
        return f"{where}: expected {expected!r}, got {actual!r}"
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return f"{where}: keys differ: {sorted(set(expected) ^ set(actual))}"
        for key in expected:
            if key in _SKIP_KEYS:
                continue
            found = mismatch(expected[key], actual[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{where}: expected {len(expected)} items, got {len(actual)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = mismatch(e, a, f"{where}[{i}]")
            if found:
                return found
        return None
    if type(expected) is not type(actual) or expected != actual:
        return f"{where}: expected {expected!r}, got {actual!r}"
    return None


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Record golden outputs for the benchmark workloads.")
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seed", type=int, action="append", help="library seeds (default: all)")
    parser.add_argument("--out", default=str(GOLDEN))
    args = parser.parse_args(argv)
    for workload in args.workload or WORKLOADS:
        for lib_seed in args.seed or LIBRARY_SEEDS:
            path = golden_path(args.out, workload, args.size, lib_seed)
            res = run_child(
                [sys.executable, ROOT / "perfbench" / "worker.py", "--workload", workload,
                 "--seed", lib_seed, "--size", args.size, "--record", path],
                timeout=600,
            )
            if res.returncode != 0:
                sys.stderr.write(res.stderr)
                print(f"recording {path.name} failed", file=sys.stderr)
                return 1
            print(f"recorded {path.name} ({res.wall_s:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
