"""Dimension-scaling sweep: where the scan's time and memory break.

    python3 perfbench/sweep.py

P scans (full witness library, early_stop=False) and CP scans (the CLI's
early stop) on Schur n in {4, 8, 12, 16, 24} and idempotent-cp with n*k up
to 16, library seed 11. Each size runs in a fresh child under the same
memory cap as the benchmark and a wall-clock cap of CASE_TIMEOUT_S; a size
that fails is recorded with the reason instead of being dropped. wall_s
covers family build, witness library and scan. Results go to
perfbench/out/sweep.json. Not a gated workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from common import MEM_CAP_BYTES, OUT, ROOT, checkout_ok, git_commit, run_child

CASE_TIMEOUT_S = 120
SCHUR_NS = (4, 8, 12, 16, 24)
IDEMPOTENT_NK = ((2, 2), (3, 2), (2, 4), (4, 2), (3, 3), (4, 3), (4, 4))
CASES = [(mode, ("schur", n)) for mode in ("P", "CP") for n in SCHUR_NS] + [
    (mode, ("idempotent-cp", n, k)) for mode in ("P", "CP") for n, k in IDEMPOTENT_NK
]


def case_name(mode, family) -> str:
    return f"{mode} {family[0]} " + "x".join(str(v) for v in family[1:])


def run_case(index: int) -> dict:
    """Runs in the child: one scan at one size; prints one JSON line."""
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))
    from workloads import ScanOp, prepare_scans, run_scan

    mode, family = CASES[index]
    grid = (0.05, 0.45, 41) if family[0] == "schur" else (0.05, 0.95, 19)
    op = ScanOp(case_name(mode, family), mode, family, grid, early_stop=mode == "CP")
    out = {"case": op.op_id, "mode": mode, "family": family[0], "size": list(family[1:])}
    t0 = time.perf_counter()
    try:
        (prep,) = prepare_scans([op], 11)
        report = run_scan(prep)
        out.update(ok=True, rows=len(report.rows), verdict=report.verdict)
    except MemoryError:
        out.update(ok=False, reason=f"MemoryError under the {MEM_CAP_BYTES / 2**30:.0f} GiB address-space cap")
    out["wall_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--case", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case is not None:
        print(json.dumps(run_case(args.case)))
        return 0
    if not checkout_ok():
        print("no divscan sources in this checkout", file=sys.stderr)
        return 1
    rows = []
    for index, (mode, family) in enumerate(CASES):
        res = run_child([sys.executable, ROOT / "perfbench" / "sweep.py", "--case", index], timeout=CASE_TIMEOUT_S)
        if res.timed_out:
            row = {"case": case_name(mode, family), "ok": False,
                   "reason": f"wall-clock cap of {CASE_TIMEOUT_S} s", "wall_s": res.wall_s}
        elif res.returncode != 0:
            tail = res.stderr.strip().splitlines()[-1:] or ["no output"]
            row = {"case": case_name(mode, family), "ok": False, "reason": f"exit {res.returncode}: {tail[0]}"}
        else:
            row = json.loads(res.stdout.strip().splitlines()[-1])
        rows.append(row)
        print(json.dumps(row), flush=True)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "sweep.json", "w") as fh:
        json.dump({"commit": git_commit(), "memory_cap_bytes": MEM_CAP_BYTES, "cases": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
