"""One run of one workload in a fresh process; started by run.py.

The memory cap (RLIMIT_AS) is set here, first, so it holds in this child
and the CLI processes it starts, and never in the caller. Modes:

  --setup-only   time the workload's set-up and print the seconds
  --record PATH  run one pass and save its outputs as the golden file
  --result PATH  run passes for --seconds, check them against the goldens,
                 and write timings, failures and provenance as JSON
"""

from __future__ import annotations

import argparse
import resource
import sys

from common import MEM_CAP_BYTES

if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import golden  # noqa: E402
import tracing  # noqa: E402
from common import OUT, ROOT, SRC, child_env, run_child  # noqa: E402
from workloads import CLI_WORKLOADS, SCAN_WORKLOADS, cli_op_id, cli_outputs, prepare_scans, run_scan, scan_outputs  # noqa: E402

CLI_TIMEOUT_S = 60


class ScanWorkload:
    def __init__(self, name, size, lib_seed, tracer=None):
        import divscan

        if not Path(divscan.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"divscan imported from {divscan.__file__}, not from {SRC}")
        if tracer is not None:
            tracer.install()
        self.prepared = prepare_scans(SCAN_WORKLOADS[name][size], lib_seed)
        if tracer is not None:
            tracer.uninstall()

    def run_pass(self, traced=False):
        for prep in self.prepared:
            t0 = time.perf_counter()
            try:
                report = run_scan(prep)
            except Exception as exc:  # MemoryError under the cap included: counted, not fatal
                yield prep.op.op_id, time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
                continue
            wall = time.perf_counter() - t0
            yield prep.op.op_id, wall, scan_outputs(report), None


class CliWorkload:
    def __init__(self, name, size, lib_seed):
        self.invocations = CLI_WORKLOADS[name][size]
        self.lib_seed = lib_seed
        self.work = OUT / f"work-{os.getpid()}"
        self.spans_path = self.work / "spans.json"
        self.import_s = []
        self.span_aggs = []

    def run_pass(self, traced=False):
        env = child_env()
        if traced:
            env["PERFBENCH_SPANS"] = str(self.spans_path)
            entry = [sys.executable, ROOT / "perfbench" / "cli_traced.py"]
        else:
            entry = [sys.executable, "-m", "divscan"]
        cwd = self.work / "cwd"
        for argv in self.invocations:
            shutil.rmtree(cwd, ignore_errors=True)
            cwd.mkdir(parents=True)
            res = run_child(entry + argv + ["--seed", self.lib_seed], timeout=CLI_TIMEOUT_S, cwd=cwd, env=env)
            if res.timed_out:
                yield cli_op_id(argv), res.wall_s, None, f"wall-clock cap of {CLI_TIMEOUT_S} s"
                continue
            if traced:
                data = json.loads(self.spans_path.read_text())
                self.import_s.append(data["import_s"])
                self.span_aggs.append(tracing.aggregate(data["spans"]))
            yield cli_op_id(argv), res.wall_s, cli_outputs(res.returncode, res.stderr, cwd), None

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def run_checked_pass(wl, goldens, traced=False):
    """One pass; returns (pass seconds, per-op records). An operation fails
    when it raises, hits a cap, or differs from its golden output."""
    ops = []
    for op_id, wall, outputs, error in wl.run_pass(traced):
        rec = {"op": op_id, "wall_s": wall, "failed": error is not None, "reason": error, "expected_error": False}
        if error is None:
            if goldens is None or op_id not in goldens:
                rec.update(failed=True, reason="no golden output for this operation")
            else:
                diff = golden.mismatch(goldens[op_id], outputs, op_id)
                if diff:
                    rec.update(failed=True, reason="differs from golden: " + diff)
                elif outputs.get("exit_code") == 1:
                    rec["expected_error"] = True
        ops.append(rec)
    return sum(r["wall_s"] for r in ops), ops


def _threads() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return -1


def provenance() -> dict:
    import numpy as np

    a = np.ones((256, 256))
    a @ a  # let the BLAS start whatever threads it is going to
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "threads": _threads(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=tuple(SCAN_WORKLOADS) + tuple(CLI_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="library seed")
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--golden-dir", default=str(golden.GOLDEN))
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--record")
    mode.add_argument("--result")
    args = parser.parse_args(argv)
    is_scan = args.workload in SCAN_WORKLOADS

    if args.setup_only:
        t0 = time.perf_counter()
        if is_scan:
            ScanWorkload(args.workload, args.size, args.seed)
        else:
            import divscan.cli  # noqa: F401
        print(repr(time.perf_counter() - t0))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    wl = ScanWorkload(args.workload, args.size, args.seed, tracer) if is_scan else CliWorkload(args.workload, args.size, args.seed)
    try:
        if args.record:
            outputs = {}
            for op_id, _, out, error in wl.run_pass():
                if error is not None:
                    raise RuntimeError(f"{op_id}: {error}")
                outputs[op_id] = out
            golden.save(args.record, args.workload, args.size, args.seed, outputs)
            return 0

        path = golden.golden_path(args.golden_dir, args.workload, args.size, args.seed)
        goldens = golden.load(path)["ops"] if path.is_file() else None
        passes, ops = [], []
        start = time.perf_counter()
        while True:
            wall, recs = run_checked_pass(wl, goldens)
            passes.append(wall)
            ops += recs
            # start another pass only if it should end within --seconds
            if args.trace or time.perf_counter() - start + statistics.median(passes) > args.seconds:
                break
        result = {"passes": passes, "ops": ops}
        if args.trace:
            if is_scan:
                tracer.install()
            traced_wall, recs = run_checked_pass(wl, goldens, traced=True)
            if is_scan:
                tracer.uninstall()
                agg, import_s = tracing.aggregate(tracer.spans), 0.0
                OUT.mkdir(parents=True, exist_ok=True)
                tracer.dump(OUT / f"spans-{args.workload}.json")
            else:
                agg, import_s = tracing.merge(wl.span_aggs), statistics.median(wl.import_s or [0.0])
            result["ops"] += recs
            result["layers"] = tracing.layer_metrics(agg, import_s, traced_wall - passes[0])
        who = resource.RUSAGE_SELF if is_scan else resource.RUSAGE_CHILDREN
        result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        result["provenance"] = provenance()
        Path(args.result).write_text(json.dumps(result))
        return 0
    finally:
        if not is_scan:
            wl.close()


if __name__ == "__main__":
    sys.exit(main())
