"""Self-test of the benchmark; exits 0 when every check passes.

    python3 perfbench/selftest.py

At tiny sizes it records goldens under perfbench/out/selftest, then runs every
workload with --trace 0 and --trace 1 and checks that the result line has
exactly the four required keys and every metric BENCHMARK.json names, with
its unit. It checks that a golden perturbed beyond the tolerance (a number,
then a witness id) makes the correctness check fail while one perturbed
within it does not, and that a directory holding only BENCHMARK.json and
the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import sys

import golden
from common import BENCH, OUT, ROOT, run_child
from workloads import WORKLOADS

WORK = OUT / "selftest"
GOLDEN_DIR = WORK / "golden"
SEED = 11


def run_bench(workload, trace=0, cwd=ROOT):
    res = run_child(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", SEED, "--seconds", 1,
         "--trace", trace, "--size", "tiny", "--golden-dir", GOLDEN_DIR],
        timeout=170, cwd=cwd,
    )
    lines = res.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    return res, last


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    shutil.rmtree(WORK, ignore_errors=True)
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json names the workloads")

    check(golden.main(["--size", "tiny", "--seed", str(SEED), "--out", str(GOLDEN_DIR)]) == 0, "record tiny goldens")

    for workload in WORKLOADS:
        for trace in (0, 1):
            res, last = run_bench(workload, trace)
            what = f"{workload} --trace {trace}"
            check(res.returncode == 0 and last is not None, f"{what}: exits 0 with a JSON result line")
            if last is None:
                continue
            check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            check(last["correct"] is True and last["failed"] == 0, f"{what}: outputs match the goldens")
            got = {name: m.get("unit") for name, m in last["metrics"].items()}
            check(got == expected[trace], f"{what}: every named metric with its unit")
            check(all(isinstance(m["value"], (int, float)) for m in last["metrics"].values()), f"{what}: numeric values")

    path = golden.golden_path(GOLDEN_DIR, "p-library", "tiny", SEED)
    original = golden.load(path)

    def perturbed(edit):
        obj = json.loads(json.dumps(original))
        row = next(iter(obj["ops"].values()))["rows"][3]
        edit(row)
        golden.save(path, obj["workload"], obj["size"], obj["library_seed"], obj["ops"])
        return run_bench("p-library")[1]

    within = perturbed(lambda row: row.__setitem__(2, row[2] + 1e-12 * max(1.0, abs(row[2]))))
    check(within is not None and within["correct"] is True, "value perturbed by 1e-12: still correct")
    beyond = perturbed(lambda row: row.__setitem__(2, row[2] + 1e-6 * max(1.0, abs(row[2]))))
    check(beyond is not None and beyond["correct"] is False and beyond["failed"] > 0,
          "value perturbed by 1e-6: correctness check fails")
    renamed = perturbed(lambda row: row.__setitem__(1, row[1] + "x"))
    check(renamed is not None and renamed["correct"] is False, "witness id changed: correctness check fails")

    stripped = WORK / "stripped"
    stripped.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", stripped / "BENCHMARK.json")
    shutil.copytree(BENCH, stripped / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    res, last = run_bench("p-library", cwd=stripped)
    check(res.returncode != 0 and last is None, "benchmark alone (no sources): non-zero exit, no result")

    shutil.rmtree(WORK, ignore_errors=True)
    print("self-test " + ("FAILED: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
