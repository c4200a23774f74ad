"""The scan's worker thread: an eigensolve stack of at least
operators.OVERLAP_SIZE is solved on it while the next member is built.

Each test forces the threaded path (OVERLAP_SIZE = 0 and two CPUs) or the
serial one (OVERLAP_SIZE = inf) and compares the two. Everything that could
wait on the worker runs under a timeout, so a hang fails the test instead of
blocking the suite."""

import hashlib
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import divscan.operators
from divscan.channels import super_channel
from divscan.divisibility import DynamicalFamily, cp_divisibility_scan, default_witnesses, p_divisibility_scan
from divscan._errors import NonHermitianInput
from divscan.presets import FAMILY_PRESETS, idempotent_family_preset
from divscan.schur import make_schur_family

TIMEOUT_S = 60
WORKER = "divscan-eigvalsh"  # the prefix of the worker thread's name


def _on_worker(names):
    """Whether any of the thread names is the worker's."""
    return any(name.startswith(WORKER) for name in names)


def _within(*calls):
    """Run each (fn, args, kwargs) on its own thread, all at once, and
    return their results in order; an error is raised here, and a call
    still running after TIMEOUT_S fails the test."""
    boxes = [{} for _ in calls]

    def target(box, fn, args, kwargs):
        try:
            box["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # handed to the test thread
            box["error"] = exc

    threads = [threading.Thread(target=target, args=(box, *call), daemon=True) for box, call in zip(boxes, calls)]
    for th in threads:
        th.start()
    deadline = time.monotonic() + TIMEOUT_S
    for th in threads:
        th.join(max(0.0, deadline - time.monotonic()))
        assert not th.is_alive(), f"no return within {TIMEOUT_S} s"
    for box in boxes:
        if "error" in box:
            raise box["error"]
    return [box["value"] for box in boxes]


def _path(monkeypatch, threaded):
    """Send every overlapped stack to the worker, on a machine with two
    CPUs, or none."""
    monkeypatch.setattr(divscan.operators, "OVERLAP_SIZE", 0 if threaded else np.inf)
    if threaded:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _python(code):
    """Run code in a fresh python process that imports divscan from this
    checkout; its exit status and output, or a failure after TIMEOUT_S."""
    src = str(Path(divscan.operators.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=TIMEOUT_S)


def _scan(monkeypatch, threaded, scan, fam, **kwargs):
    _path(monkeypatch, threaded)
    return _within((scan, (fam,), kwargs))[0]


def _record(report):
    return (report.verdict, report.witness_id, report.witness_t, report.derivative, report.rows, report.notes)


def _solvers(monkeypatch, delay=0.0):
    """Log the thread of every eigensolve; the worker's take delay seconds."""
    names = []
    eigvalsh = np.linalg.eigvalsh

    def logged(a, *args, **kwargs):
        names.append(threading.current_thread().name)
        if names[-1].startswith(WORKER):
            time.sleep(delay)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", logged)
    return names


def _canonical(witnesses):
    return [(f"canonical-{i}", w) for i, w in enumerate(witnesses)]


def _library(d, seed, *sizes):
    return default_witnesses(d, np.random.default_rng(seed), *sizes)


def _perfbench_op(name):
    """The four scan operations of the p-library and cp-extended benchmarks,
    at library seed 13."""
    if name == "P schur n=16":
        fam = make_schur_family(16)
        lib = [*_canonical(fam.witnesses), *_library(16, 13)]
        return p_divisibility_scan, fam, dict(grid=np.linspace(0.05, 0.45, 41), witnesses=lib, early_stop=False)
    if name == "P idempotent-cp 4x4":
        fam = idempotent_family_preset("idempotent-cp", 4, 4)
        return p_divisibility_scan, fam, dict(grid=np.linspace(0.05, 0.95, 19), witnesses=_library(16, 13), early_stop=False)
    if name == "CP idempotent-cp 3x2":
        fam = idempotent_family_preset("idempotent-cp", 3, 2)
        lib = _library(36, 13, 10, 10, 60)
        return cp_divisibility_scan, fam, dict(grid=np.linspace(0.05, 0.95, 10), witnesses=lib, early_stop=False)
    fam = make_schur_family(12)
    lib = [*_canonical(fam.cp_witnesses), *_library(144, 13, 10, 10, 60)]
    return cp_divisibility_scan, fam, dict(grid=np.linspace(0.05, 0.45, 41), witnesses=lib, early_stop=True)


CASES = [
    *(("perfbench", op) for op in ("P schur n=16", "P idempotent-cp 4x4", "CP idempotent-cp 3x2", "CP schur n=12")),
    *(("schur n=4", (mode, early_stop)) for mode in ("P", "CP") for early_stop in (True, False)),
]
IDS = [case if kind == "perfbench" else f"{case[0]} schur n=4 early_stop={case[1]}" for kind, case in CASES]


@pytest.mark.parametrize("kind, case", CASES, ids=IDS)
def test_threaded_scan_is_the_serial_scan_bit_for_bit(monkeypatch, kind, case):
    """Verdict, pick, derivative, every row and note, and the times of the
    members built, in order, are == on both paths, and the threaded run
    solved on the worker."""
    if kind == "perfbench":
        scan, fam, kwargs = _perfbench_op(case)
    else:
        mode, early_stop = case
        scan = p_divisibility_scan if mode == "P" else cp_divisibility_scan
        fam, kwargs = make_schur_family(4), dict(early_stop=early_stop)
    times = []
    channel = DynamicalFamily.channel

    def logged(self, t):
        times.append(t)
        return channel(self, t)

    monkeypatch.setattr(DynamicalFamily, "channel", logged)
    solvers = _solvers(monkeypatch)
    runs = []
    for threaded in (False, True):
        times.clear()
        report = _scan(monkeypatch, threaded, scan, fam, **kwargs)
        runs.append((_record(report), list(times)))
    assert runs[0] == runs[1]
    assert _on_worker(solvers)


def test_one_cpu_starts_no_thread(monkeypatch):
    """Where the process may run on one CPU, every stack is solved inline:
    no thread is started, and the report is the serial one."""
    fam = idempotent_family_preset("idempotent-cp", 2, 2)
    serial = _record(_scan(monkeypatch, False, p_divisibility_scan, fam, early_stop=False))
    monkeypatch.setattr(divscan.operators, "_executor", None)
    monkeypatch.setattr(divscan.operators, "OVERLAP_SIZE", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    before = set(threading.enumerate())
    report = _within((p_divisibility_scan, (fam,), dict(early_stop=False)))[0]
    assert set(threading.enumerate()) == before
    assert divscan.operators._executor is None
    assert _record(report) == serial


def test_worker_eigensolve_error_is_raised_in_the_caller(monkeypatch):
    """A LinAlgError of the worker's eigensolve reaches the caller with the
    type and message of the serial path."""
    eigvalsh = np.linalg.eigvalsh
    solvers = []

    def failing(a, *args, **kwargs):
        solvers.append(threading.current_thread().name)
        if len(a) > 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    fam = idempotent_family_preset("idempotent-cp", 2, 2)
    errors = []
    for threaded in (False, True):
        with pytest.raises(np.linalg.LinAlgError) as info:
            _scan(monkeypatch, threaded, p_divisibility_scan, fam, early_stop=False)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1] == (np.linalg.LinAlgError, "Eigenvalues did not converge")
    assert _on_worker(solvers)


def test_member_error_with_a_stack_in_flight_leaves_no_stale_result(monkeypatch):
    """A NonHermitianInput raised by a member check while the worker still
    solves the stencil time before it is the serial path's error, and the
    next scan is == to its serial report: the unread reply reaches no one."""
    good = make_schur_family(4)

    def channel_at(t):
        ch = good.channel_at(t)
        return super_channel(1j * ch.super, 4) if t > 0.3 else ch

    bad = DynamicalFamily(d=4, t_domain=good.t_domain, channel_at=channel_at, witnesses=good.witnesses)
    expected = _record(_scan(monkeypatch, False, p_divisibility_scan, good, early_stop=False))
    errors = []
    for threaded in (False, True):
        if threaded:
            solvers = _solvers(monkeypatch, delay=0.01)  # so the stack before the bad member is still in flight
        with pytest.raises(NonHermitianInput) as info:
            _scan(monkeypatch, threaded, p_divisibility_scan, bad, early_stop=False)
        errors.append((str(info.value), info.value.t))
    assert errors[0] == errors[1]
    assert _record(_scan(monkeypatch, True, p_divisibility_scan, good, early_stop=False)) == expected
    assert _on_worker(solvers)


def test_scans_run_at_once_each_get_their_serial_report(monkeypatch):
    """Four scans started together from four Python threads, more than the
    cores, with the interpreter switching threads every 10 us, share the
    worker, and each returns the report it gives alone on the serial path:
    a reply read by the wrong scan would change its rows."""
    calls = [
        (p_divisibility_scan, (make_schur_family(8),), dict(early_stop=False)),
        (cp_divisibility_scan, (idempotent_family_preset("idempotent-cp", 2, 2),), dict(early_stop=False)),
        (p_divisibility_scan, (idempotent_family_preset("idempotent-cp", 2, 3),), dict(early_stop=False)),
        (cp_divisibility_scan, (make_schur_family(4),), dict(early_stop=False)),
    ]
    _path(monkeypatch, False)
    serial = [_record(report) for report in _within(*calls)]
    solvers = _solvers(monkeypatch)
    _path(monkeypatch, True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = [_record(report) for report in _within(*calls)]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert _on_worker(solvers)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_forked_after_the_worker_started_can_scan(monkeypatch):
    """A child forked while the worker thread runs has no worker: its first
    stack starts its own, and its scan is the serial one."""
    fam = make_schur_family(4)
    serial = _record(_scan(monkeypatch, False, p_divisibility_scan, fam, early_stop=False))
    _scan(monkeypatch, True, p_divisibility_scan, fam, early_stop=False)
    assert _on_worker(th.name for th in threading.enumerate())
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report a digest of its scan, never return to pytest
        try:
            report = p_divisibility_scan(fam, early_stop=False)
            os.write(write, hashlib.sha256(repr(_record(report)).encode()).hexdigest().encode())
        finally:
            os._exit(0)
    os.close(write)
    try:
        ready = select.select([read], [], [], TIMEOUT_S)[0]
        digest = os.read(read, 64).decode() if ready else None
    finally:
        os.close(read)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert digest == hashlib.sha256(repr(serial).encode()).hexdigest()


def test_reply_slot_is_per_submission(monkeypatch):
    """Each stack sent to the worker has its own Future, so two deferred
    norms read in the opposite order still are those of their own stacks."""
    rng = np.random.default_rng(5)
    stacks = [rng.standard_normal((3, 6, 6)) for _ in range(2)]
    stacks = [(a + a.swapaxes(1, 2)) / 2 for a in stacks]
    serial = [divscan.operators._trace_norms(a) for a in stacks]
    _path(monkeypatch, True)
    solvers = _solvers(monkeypatch)
    first, second = (divscan.operators._trace_norms(a, overlap=True) for a in stacks)
    got = _within((second, (), {}), (first, (), {}))
    assert [name.startswith(WORKER) for name in solvers] == [True, True]
    assert all(np.array_equal(norms, want) for norms, want in zip(got[::-1], serial))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_forked_after_the_worker_started_exits_normally():
    """The executor's thread is joined when the interpreter exits: a child
    forked after the worker started, which scans on its own worker and
    leaves through sys.exit, exits with status 0 instead of hanging on the
    parent's thread. An alarm ends a child that hangs, so none outlives
    the test."""
    code = (
        "import os, signal, sys\n"
        "import divscan.operators\n"
        "from divscan.divisibility import p_divisibility_scan\n"
        "from divscan.schur import make_schur_family\n"
        "divscan.operators.OVERLAP_SIZE = 0\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "fam = make_schur_family(4)\n"
        "p_divisibility_scan(fam, early_stop=False)\n"
        "assert divscan.operators._executor is not None\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        f"    signal.alarm({TIMEOUT_S})\n"
        "    assert divscan.operators._executor is None\n"
        "    p_divisibility_scan(fam, early_stop=False)\n"
        "    assert divscan.operators._executor is not None\n"
        "    sys.exit(0)\n"
        "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
    )
    run = _python(code)
    assert run.returncode == 0, run.stderr


def test_cli_process_loads_no_pool(tmp_path):
    """concurrent.futures is imported by the first stack sent to the
    worker, and no CLI preset sends one: import divscan loads neither
    concurrent nor logging, and scan-p and scan-cp on every family preset,
    and the schur command, leave concurrent unloaded and start no thread."""
    run = _python("import sys, divscan\nprint(sorted({'concurrent', 'logging'} & set(sys.modules)))\n")
    assert (run.returncode, run.stdout.splitlines()[-1]) == (0, "[]"), run.stderr
    runs = [[command, "--preset", preset] for command in ("scan-p", "scan-cp") for preset in sorted(FAMILY_PRESETS)]
    runs.append(["schur"])
    code = (
        "import json, sys, threading\n"
        "from divscan.cli import main\n"
        "seen = []\n"
        f"for i, args in enumerate({runs!r}):\n"
        f"    out = {str(tmp_path)!r} + f'/{{i}}'\n"
        "    main(args + ['--out-json', out + '.json', '--out-csv', out + '.csv'])\n"
        "    seen.append(['concurrent' in sys.modules, threading.active_count()])\n"
        "print(json.dumps(seen))\n"
    )
    run = _python(code)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [[False, 1]] * len(runs)
    assert len(list(tmp_path.glob("*.json"))) == len(runs)
