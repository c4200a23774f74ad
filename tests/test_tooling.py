"""Checks on the repository's tooling that the library code must keep
working."""

import importlib.util
from pathlib import Path

import divscan.channels
import divscan.presets

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_resolves_every_site():
    """Tracer().install() looks up every name in SITES, so a rename or a
    deletion in src/ that breaks the benchmark's --trace 1 fails here."""
    tracing = _load_tracing()
    apply, extend = divscan.channels.Channel.__dict__["apply"], divscan.presets.extend_channel
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert divscan.presets.extend_channel.__perfbench_span__ == "channels.extend"
        assert divscan.channels.Channel.__dict__["apply"] is not apply
    finally:
        tracer.uninstall()
    assert divscan.channels.Channel.__dict__["apply"] is apply
    assert divscan.presets.extend_channel is extend
