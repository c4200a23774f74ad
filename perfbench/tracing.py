"""Spans around the calls into divscan's modules, recorded from outside.

Each public name is wrapped where its caller looks it up (a module global
such as ``divscan.divisibility.trace_norm``, a class attribute such as
``Channel.apply``, or a preset's build entry), so ``src/`` is untouched.
A span is ``[name, start, end, parent, extra]``; spans stay in memory and
are written out when the run ends. Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

TAU_SLOPE = 1e-6


def _extend_bytes(args, kwargs, out):
    if out.kraus is not None:
        return {"bytes": sum(k.nbytes for k in out.kraus)}
    return {"bytes": out.super.nbytes}


def _scan_counts(args, kwargs, out):
    """Rows and h/10 confirmations of one scan, read from its report: every
    row with a slope above tau_slope was re-checked, and each rejected
    re-check left a note."""
    tau = kwargs.get("tau_slope", TAU_SLOPE)
    attempts = sum(1 for row in out.rows if row[3] > tau)
    rejected = sum(1 for note in out.notes if "not confirmed at h/10" in note)
    return {"rows": len(out.rows), "confirm_attempts": attempts, "confirmed": attempts - rejected}


def _written_bytes(args, kwargs, out):
    return {"bytes": Path(args[0]).stat().st_size}


# span name -> (where callers look the name up, hook on the result)
SITES = {
    "operators.trace_norm": (
        ["divscan.divisibility:trace_norm", "divscan.channels:trace_norm", "divscan.schur:trace_norm"],
        None,
    ),
    "channels.apply": (["divscan.channels:Channel.apply"], None),
    "channels.extend": (
        ["divscan.divisibility:extend_channel", "divscan.presets:extend_channel"],
        _extend_bytes,
    ),
    "channels.super": (["divscan.channels:kraus_to_super"], None),
    "channels.inverse": (["divscan.channels:inverse", "divscan.presets:inverse"], None),
    "channels.probe": (["divscan.channels:positivity_by_contractivity"], None),
    "divisibility.scan": (
        [
            "divscan.divisibility:p_divisibility_scan",
            "divscan.divisibility:cp_divisibility_scan",
            "divscan.cli:p_divisibility_scan",
            "divscan.cli:cp_divisibility_scan",
        ],
        _scan_counts,
    ),
    "divisibility.channel": (["divscan.divisibility:DynamicalFamily.channel"], None),
    "divisibility.witness_gen": (["divscan.divisibility:default_witnesses"], None),
    "divisibility.validate": (
        [
            "divscan.schur:make_dynamical_family",
            "divscan.idempotent:make_dynamical_family",
            "divscan.presets:make_dynamical_family",
        ],
        None,
    ),
    "schur.channel": (["divscan.schur:schur_channel"], None),
    "idempotent.phi": (["divscan.idempotent:phi", "divscan.presets:phi"], None),
    "idempotent.closed_form": (
        ["divscan.cli:divisor_coeffs", "divscan.cli:classify_regime", "divscan.cli:truncation_report"],
        None,
    ),
    "gaussian.det_scan": (["divscan.cli:det_criterion_scan"], None),
    "gaussian.dilation_report": (["divscan.presets:dilation_report"], None),
    "presets.build": (
        ["divscan.presets:FAMILY_PRESETS[*].build", "divscan.presets:idempotent_family_preset"],
        None,
    ),
    "cli.write": (["divscan.cli:_write_json", "divscan.cli:_write_csv"], _written_bytes),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fn, name, hook):
        if getattr(fn, "__perfbench_span__", None):
            return fn
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if hook is not None:
                spans[idx][4] = hook(args, kwargs, out)
            return out

        traced.__perfbench_span__ = name
        return traced

    def install(self):
        """Wrap every site in SITES. divscan.cli is imported first so that
        every module has bound its names before they are replaced."""
        import importlib

        importlib.import_module("divscan.cli")
        for name, (sites, hook) in SITES.items():
            for site in sites:
                module_name, attr = site.split(":")
                owner = importlib.import_module(module_name)
                if attr.startswith("FAMILY_PRESETS"):
                    for entry in owner.FAMILY_PRESETS.values():
                        self._set(entry, "build", self._wrap(entry["build"], name, hook), item=True)
                    continue
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
                self._set(owner, leaf, self._wrap(orig, name, hook))
        return self

    def _set(self, owner, key, value, item=False):
        old = owner[key] if item else getattr(owner, key)
        self._undo.append((owner, key, old, item))
        if item:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def uninstall(self):
        for owner, key, old, item in reversed(self._undo):
            if item:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def aggregate(spans) -> dict:
    """Per-name totals over one list of spans: calls, total seconds (spans
    nested in a span of the same name are not counted twice), self seconds,
    summed hook values, and counts of spans by the name of their parent."""
    agg = defaultdict(lambda: defaultdict(float))
    child_time = [0.0] * len(spans)
    for name, start, end, parent, extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for idx, (name, start, end, parent, extra) in enumerate(spans):
        a = agg[name]
        a["calls"] += 1
        a["self_s"] += (end - start) - child_time[idx]
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < 0:
            a["s"] += end - start
        for key, val in (extra or {}).items():
            a[key] += val
        if parent >= 0:
            a["parent:" + spans[parent][0]] += 1
    return {name: dict(vals) for name, vals in agg.items()}


def merge(aggs) -> dict:
    total = defaultdict(lambda: defaultdict(float))
    for agg in aggs:
        for name, vals in agg.items():
            for key, val in vals.items():
                total[name][key] += val
    return {name: dict(vals) for name, vals in total.items()}


def layer_metrics(agg: dict, import_s: float, overhead_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""

    def get(name, key):
        return float(agg.get(name, {}).get(key, 0.0))

    attempts = get("divisibility.scan", "confirm_attempts")
    confirmed = get("divisibility.scan", "confirmed")
    return {
        "channels.apply.calls": (get("channels.apply", "calls"), "count"),
        "channels.apply.self_s": (get("channels.apply", "self_s"), "s"),
        "operators.trace_norm.calls": (get("operators.trace_norm", "calls"), "count"),
        "operators.trace_norm.self_s": (get("operators.trace_norm", "self_s"), "s"),
        "channels.extend.calls": (get("channels.extend", "calls"), "count"),
        "channels.extend.self_s": (get("channels.extend", "self_s"), "s"),
        "channels.extend.bytes_built": (get("channels.extend", "bytes"), "bytes_computed"),
        "channels.super.builds": (get("channels.super", "calls"), "count"),
        "channels.inverse.self_s": (get("channels.inverse", "self_s"), "s"),
        "channels.probe.self_s": (get("channels.probe", "self_s"), "s"),
        "divisibility.scan.s": (get("divisibility.scan", "s"), "s"),
        "divisibility.scan.self_s": (get("divisibility.scan", "self_s"), "s"),
        "divisibility.rows": (get("divisibility.scan", "rows"), "count"),
        "divisibility.norm_evals": (get("operators.trace_norm", "parent:divisibility.scan"), "count"),
        "divisibility.channel_builds": (get("divisibility.channel", "parent:divisibility.scan"), "count"),
        "divisibility.confirm.attempts": (attempts, "count"),
        "divisibility.confirm.useful_ratio": (confirmed / attempts if attempts else 0.0, "ratio"),
        "divisibility.witness_gen.s": (get("divisibility.witness_gen", "s"), "s"),
        "divisibility.validate.s": (get("divisibility.validate", "s"), "s"),
        "schur.channel.calls": (get("schur.channel", "calls"), "count"),
        "schur.channel.self_s": (get("schur.channel", "self_s"), "s"),
        "idempotent.phi.calls": (get("idempotent.phi", "calls"), "count"),
        "idempotent.phi.self_s": (get("idempotent.phi", "self_s"), "s"),
        "idempotent.closed_form.s": (get("idempotent.closed_form", "s"), "s"),
        "gaussian.det_scan.s": (get("gaussian.det_scan", "s"), "s"),
        "gaussian.dilation_report.calls": (get("gaussian.dilation_report", "calls"), "count"),
        "presets.build.s": (get("presets.build", "s"), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.write.s": (get("cli.write", "s"), "s"),
        "cli.write.bytes": (get("cli.write", "bytes"), "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
    }
