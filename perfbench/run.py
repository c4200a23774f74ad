"""The divscan benchmark: one command that runs a workload and prints every
metric with its unit, the correctness result and provenance.

    python3 perfbench/run.py --workload p-library|cp-extended|cli-presets
                             [--seed N] [--seconds S] [--trace 0|1]

With --trace 0, set-up is timed in SETUP_SAMPLES fresh processes and
reported as their median. The workload then runs in a fresh child with a memory cap and a
wall-clock cap; it repeats passes over its operations while another pass
fits in --seconds, and checks every output against the goldens.

--trace 0 reports the end-to-end metrics:
  setup_s           import + family build + witness library (cli-presets:
                    a bare ``import divscan.cli``), median of fresh processes
  wall_s            time to all verdicts of one pass, median over passes
  peak_rss_mb       ru_maxrss of the child (cli-presets: of the largest CLI
                    process)
  invocation_p50_s  time of one operation (a scan call, or one CLI process
                    for cli-presets): each operation's median over passes,
                    then the median over the workload's operations
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced pass (see tracing.py), with the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import defaultdict

from common import MEM_CAP_BYTES, OUT, ROOT, checkout_ok, git_commit, library_seed, run_child
from tracing import layer_metrics
from workloads import WORKLOADS, op_ids

SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 30
RUN_LIMIT_S = 170  # the whole command, set-up included, ends within this


def _fail(msg: str) -> int:
    print(f"benchmark error: {msg}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="divscan benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"), help=argparse.SUPPRESS)
    parser.add_argument("--golden-dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not checkout_ok():
        return _fail(f"no divscan sources under {ROOT / 'src'}")
    lib_seed = library_seed(args.seed)
    worker = [sys.executable, ROOT / "perfbench" / "worker.py", "--workload", args.workload,
              "--seed", lib_seed, "--size", args.size]
    if args.golden_dir:
        worker += ["--golden-dir", args.golden_dir]

    setup = []
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        res = run_child(worker + ["--setup-only"], timeout=SETUP_TIMEOUT_S)
        if res.returncode != 0:
            return _fail(f"set-up failed (exit {res.returncode}, timed out: {res.timed_out}):\n{res.stderr}")
        setup.append(float(res.stdout.strip().splitlines()[-1]))

    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"result-{args.workload}-{time.time_ns()}.json"
    res = run_child(
        worker + ["--seconds", args.seconds, "--trace", args.trace, "--result", result_path],
        timeout=RUN_LIMIT_S - (time.perf_counter() - start),
    )
    planned = op_ids(args.workload, args.size)
    if res.returncode == 0 and result_path.is_file():
        out = json.loads(result_path.read_text())
        result_path.unlink()
    else:
        # the child died or hit the wall-clock cap: every operation of the
        # pass counts as failed, and the metrics show what was spent
        reason = "wall-clock cap" if res.timed_out else f"exit {res.returncode}"
        sys.stderr.write(res.stderr[-4000:])
        out = {"passes": [res.wall_s], "peak_rss_kb": 0, "layers": None, "provenance": {},
               "ops": [{"op": o, "wall_s": res.wall_s, "failed": True, "reason": reason, "expected_error": False}
                       for o in planned]}

    ops = out["ops"]
    failed = [o for o in ops if o["failed"]]
    if args.trace:
        layers = out.get("layers") or {}
        names = layer_metrics({}, 0.0, 0.0)
        metrics = {k: {"value": layers.get(k, (0.0, unit))[0], "unit": unit} for k, (_, unit) in names.items()}
    else:
        by_op = defaultdict(list)
        for o in ops:
            by_op[o["op"]].append(o["wall_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(out["passes"]), "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_kb"] / 1024, "unit": "MB"},
            "invocation_p50_s": {"value": statistics.median(statistics.median(v) for v in by_op.values()), "unit": "s"},
        }

    prov = dict(out.get("provenance", {}), workload=args.workload, seed=args.seed, library_seed=lib_seed,
                commit=git_commit(), memory_cap_bytes=MEM_CAP_BYTES, size=args.size)
    print(f"workload {args.workload}: {len(out['passes'])} pass(es) of {len(planned)} operations, "
          f"{len(ops)} attempted, {len(failed)} failed (failed_frac {len(failed) / max(len(ops), 1):.4f})")
    expected = sorted({o["op"] for o in ops if o["expected_error"]})
    if expected:
        print(f"  exit 1 as recorded in the golden (checked, not failed): {', '.join(expected)}")
    for o in failed[:10]:
        print(f"  FAILED {o['op']}: {o['reason']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    if setup:
        print(f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"pass wall times (s): {', '.join(f'{w:.4f}' for w in out['passes'])}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": max(len(ops), 1), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
