"""Smoke run of the benchmark's TEK population workload at its tiny size.

The pass checks the notified set against perfbench/golden.json and the
independent oracle, so a matching change that alters who is notified fails
here. The run takes a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_pop_tek_tiny_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pop_tek", "--seed", "0",
         "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_every_trace_target_exists(monkeypatch):
    """A function the traced run wraps that was renamed or removed would only
    be reported as "trace targets not found" by the benchmark; fail here."""
    import importlib
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    for _, module, *_ in tracing.LAYER_TABLE:
        importlib.import_module(module)
    recorder = tracing.Recorder().install()
    try:
        assert recorder.missing == []
    finally:
        recorder.uninstall()
