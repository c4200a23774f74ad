"""The three workloads and the operations each one runs.

All three are closed loops: one client in one process, and the next
operation starts only when the previous one has ended.

* p-library: in-process P scans of the full witness library with
  early_stop=False, on Schur n=16 (Kraus form, 41-point grid) and
  idempotent-cp (n, k) = (4, 4) (superoperator form, 19-point grid).
  Channel application and trace-norm eigensolves do nearly all the work;
  extension, memory and start-up do almost none.
* cp-extended: in-process CP scans on idempotent-cp (3, 2) with the full
  library on a 10-point grid (the extend_super route, 1296 x 1296
  superoperators) and Schur n=12 with the CLI's early stop (the Kraus kron
  route). A few huge applies instead of thousands of small ones; channel
  extension and the scan's cache of extended channels set the memory. d=6
  is the largest idempotent size whose cache fits: at n*k=8 it would need
  about 15 GB. The idempotent grid is 10 points rather than the preset's
  19 so that two to three passes fit in one run.
* cli-presets: one fresh ``python -m divscan`` process per command and
  preset with default flags (24 invocations). Import, family build, output
  writing and the closed forms do the work; the scan engine does little,
  so scan-engine changes should not move this workload.

"tiny" sizes exist for the benchmark's self-test only.
"""

from __future__ import annotations

from dataclasses import dataclass

TAU_SLOPE = 1e-6


@dataclass(frozen=True)
class ScanOp:
    op_id: str
    mode: str  # "P" or "CP"
    family: tuple  # ("schur", n) or ("idempotent-cp", n, k)
    grid: tuple  # (t_min, t_max, points)
    early_stop: bool


_SCHUR_GRID = (0.05, 0.45, 41)
_IDEM_GRID = (0.05, 0.95, 19)

SCAN_WORKLOADS = {
    "p-library": {
        "full": [
            ScanOp("P schur n=16", "P", ("schur", 16), _SCHUR_GRID, False),
            ScanOp("P idempotent-cp 4x4", "P", ("idempotent-cp", 4, 4), _IDEM_GRID, False),
        ],
        "tiny": [
            ScanOp("P schur n=4", "P", ("schur", 4), (0.05, 0.45, 5), False),
            ScanOp("P idempotent-cp 2x2", "P", ("idempotent-cp", 2, 2), (0.05, 0.95, 5), False),
        ],
    },
    "cp-extended": {
        "full": [
            ScanOp("CP idempotent-cp 3x2", "CP", ("idempotent-cp", 3, 2), (0.05, 0.95, 10), False),
            ScanOp("CP schur n=12", "CP", ("schur", 12), _SCHUR_GRID, True),
        ],
        "tiny": [
            ScanOp("CP idempotent-cp 2x1", "CP", ("idempotent-cp", 2, 1), (0.05, 0.95, 5), False),
            ScanOp("CP schur n=3", "CP", ("schur", 3), (0.05, 0.45, 5), True),
        ],
    },
}

_FAMILY_PRESETS = ("unitary", "generic-noncp", "idempotent-cp", "idempotent-p-not-cp", "idempotent-not-p", "schur")
_IDEMPOTENT_PRESETS = ("idempotent-cp", "idempotent-p-not-cp", "idempotent-not-p")
_GAUSSIAN_PRESETS = ("dilation-2x1", "dilation-3x2")

CLI_WORKLOADS = {
    "cli-presets": {
        "full": (
            [["scan-p", "--preset", p] for p in _FAMILY_PRESETS]
            + [["scan-cp", "--preset", p] for p in _FAMILY_PRESETS]
            + [["idempotent", "--preset", p] for p in _IDEMPOTENT_PRESETS]
            + [["schur"]]
            + [["gaussian", "--preset", p] for p in _GAUSSIAN_PRESETS]
            # intermediate --preset schur exits 1 with SingularChannel at the
            # seed commit; its golden records that, so it is checked, not dropped
            + [["intermediate", "--preset", p] for p in _FAMILY_PRESETS]
        ),
        "tiny": [
            ["scan-p", "--preset", "unitary"],
            ["gaussian", "--preset", "dilation-2x1"],
            ["intermediate", "--preset", "schur"],
        ],
    },
}

WORKLOADS = tuple(SCAN_WORKLOADS) + tuple(CLI_WORKLOADS)


def cli_op_id(argv) -> str:
    return " ".join(argv)


def op_ids(workload: str, size: str) -> list[str]:
    if workload in SCAN_WORKLOADS:
        return [op.op_id for op in SCAN_WORKLOADS[workload][size]]
    return [cli_op_id(argv) for argv in CLI_WORKLOADS[workload][size]]


# ------------------------------------------------------- in-process scans


@dataclass
class PreparedScan:
    op: ScanOp
    family: object
    grid: object
    h: float
    witnesses: list


def prepare_scans(ops, lib_seed: int) -> list[PreparedScan]:
    """Family build and witness-library generation: the set-up of a scan
    workload. The library is the one the scan would draw itself with
    witnesses=None: canonical witnesses first, then default_witnesses."""
    import numpy as np

    from divscan import divisibility, presets

    out = []
    for op in ops:
        kind = op.family[0]
        if kind == "schur":
            fam = presets.FAMILY_PRESETS["schur"]["build"](op.family[1])
        else:
            fam = presets.idempotent_family_preset(kind, n=op.family[1], k=op.family[2])
        lo, hi = fam.t_domain
        h = 1e-4 * (hi - lo)
        grid = np.linspace(*op.grid)
        grid[0] = max(grid[0], lo + h)
        grid[-1] = min(grid[-1], hi - h)
        rng = np.random.default_rng(lib_seed)
        if op.mode == "P":
            lib = [(f"canonical-{i}", w) for i, w in enumerate(fam.witnesses)]
            lib += divisibility.default_witnesses(fam.d, rng)
        else:
            lib = [(f"canonical-{i}", w) for i, w in enumerate(fam.cp_witnesses)]
            lib += divisibility.default_witnesses(fam.d * fam.d, rng, n_proj=10, n_herm=10, pair_cap=60)
        out.append(PreparedScan(op, fam, grid, h, lib))
    return out


def run_scan(prep: PreparedScan):
    from divscan import divisibility

    scan = divisibility.p_divisibility_scan if prep.op.mode == "P" else divisibility.cp_divisibility_scan
    return scan(
        prep.family,
        grid=prep.grid,
        h=prep.h,
        witnesses=prep.witnesses,
        tau_slope=TAU_SLOPE,
        early_stop=prep.op.early_stop,
    )


def scan_outputs(report) -> dict:
    """What the golden check compares for one scan."""
    return {
        "verdict": report.verdict,
        "witness_id": report.witness_id,
        "witness_t": report.witness_t,
        "derivative": report.derivative,
        "rows": [
            [float(t), wid, float(value), float(deriv), int(deriv > TAU_SLOPE)]
            for t, wid, value, deriv in report.rows
        ],
    }


# ------------------------------------------------------ CLI invocations


def cli_outputs(returncode: int, stderr: str, workdir) -> dict:
    """What the golden check compares for one CLI invocation: exit code, the
    error type on exit 1, and every JSON and CSV file it wrote."""
    import json

    error = None
    if returncode == 1:
        for line in reversed(stderr.strip().splitlines()):
            try:
                error = json.loads(line).get("error")
                break
            except (ValueError, AttributeError):
                continue
    files = {}
    for path in sorted(workdir.iterdir()):
        text = path.read_text()
        if path.suffix == ".json":
            files[path.name] = json.loads(text)
        elif path.suffix == ".csv":
            lines = text.splitlines()
            rows = []
            for line in lines[1:]:
                t, wid, value, deriv, flag = line.split(",")
                rows.append([float(t), wid, float(value), float(deriv), int(flag)])
            files[path.name] = {"header": lines[0] if lines else "", "rows": rows}
    return {"exit_code": returncode, "error": error, "files": files}
