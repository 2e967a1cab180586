"""Shared helpers: locating the checkout's dctlab, workload variants, the
reference clock, the environment stamp.

    python3 perfbench/common.py reference    # the reference worker, driven by reference_s
"""

from __future__ import annotations

import hashlib
import hmac
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"        # run records, traces, scratch outputs

# --seed picks one of VARIANTS input variants; golden.json holds the
# expected outcome of each, as produced by the seed commit.
VARIANTS = 16
POP_N = 100
TINY_POP_N = 10
TINY_SUITE = ("fake_claim_tek",)


class BenchError(Exception):
    """The benchmark cannot run here (no dctlab sources, bad arguments)."""


def variant(seed: int) -> int:
    return seed % VARIANTS


def load_dctlab() -> None:
    """Import dctlab from this checkout's src/ and nowhere else."""
    if not (SRC / "dctlab" / "__init__.py").is_file():
        raise BenchError(f"no dctlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    dctlab = importlib.import_module("dctlab")
    if not Path(dctlab.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported dctlab from {dctlab.__file__}, not from {SRC}")


REF_NOMINAL_S = 0.2        # one reference job on a quiet host of the baseline kind
REF_SHARE = 0.25           # reference time per pass, as a share of the last pass


def _reference_job_s() -> float:
    """A fixed job shaped like dctlab's hot paths (event dicts hashed,
    JSON-encoded and grouped; HKDF-style HMAC-SHA256) that never calls
    dctlab. Without the HMAC part it did not follow pop_tek's slowdowns."""
    t0 = time.perf_counter()
    rows = [{"at": i, "seq": i, "kind": "scan",
             "payload": {"device": f"d{i % 100:03d}",
                         "id": hashlib.sha256(i.to_bytes(4, "big")).hexdigest()[:32]}}
            for i in range(20000)]
    text = "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in rows)
    groups: dict[str, list[int]] = {}
    for r in rows:
        groups.setdefault(r["payload"]["device"], []).append(r["at"])
    key = b"\x00" * 32
    for i in range(15000):        # HKDF-shaped, as in identifier schedules
        prk = hmac.new(key, i.to_bytes(16, "big"), hashlib.sha256).digest()
        hmac.new(prk, b"info\x01", hashlib.sha256).digest()
    del rows, text, groups
    return time.perf_counter() - t0


def _reference_median_s(budget_s: float) -> float:
    """Median time of the reference job, repeated for about ``budget_s``
    (once at least). The job's ~10 MB working set matters: a 2.5 MB one
    followed the drift less."""
    times = []
    end = time.perf_counter() + budget_s
    while not times or time.perf_counter() < end:
        times.append(_reference_job_s())
    return statistics.median(times)


def serve_reference() -> None:
    """The reference worker: one budget per input line, one median per output line."""
    for line in sys.stdin:
        print(_reference_median_s(float(line)), flush=True)


_worker: subprocess.Popen | None = None


def reference_s(budget_s: float) -> float:
    """How fast this host runs Python right now: the reference job's median
    time over about ``budget_s``. It runs in a worker process, so that its
    memory stays out of the dctlab process's peak resident set."""
    global _worker
    if _worker is None:
        _worker = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "reference"],
                                   stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    _worker.stdin.write(f"{budget_s}\n")
    _worker.stdin.flush()
    line = _worker.stdout.readline()
    if not line:
        raise BenchError(f"reference worker exited with code {_worker.wait()}")
    return float(line)


def stop_reference() -> None:
    """End the reference worker, if one was started, and wait for it."""
    global _worker
    if _worker is not None:
        _worker.stdin.close()
        _worker.wait()
        _worker.stdout.close()
        _worker = None


def scale(seconds: float, ref_before: float, ref_after: float) -> float:
    """Host seconds as seconds on a host where the reference takes REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S * 2 / (ref_before + ref_after)


class PassClock:
    """Times passes, and scales each by the reference taken around it.

    On a shared VM the same code runs up to 2x slower for seconds to minutes
    at a time. The reference slows with it, and a change to dctlab does not
    move it. So a pass's scaled time, its wall time x REF_NOMINAL_S over the
    mean of the references just before and after it, keeps what the program
    changed and drops much of the host's drift."""

    def __init__(self):
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self.refs: list[float] = [reference_s(0.0)]

    def time(self, fn):
        """Run and time one pass; returns what ``fn`` returns."""
        t0 = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - t0
        self.refs.append(reference_s(REF_SHARE * wall))
        self.wall.append(wall)
        self.scaled.append(scale(wall, self.refs[-2], self.refs[-1]))
        return value


def scaled_setups(setup, repeats: int) -> list[float]:
    """Run ``setup`` (which returns the seconds it measured) ``repeats``
    times, each scaled by single reference jobs just before and after it."""
    refs = [reference_s(0.0)]
    out = []
    for _ in range(repeats):
        seconds = setup()
        refs.append(reference_s(0.0))
        out.append(scale(seconds, refs[-2], refs[-1]))
    return out


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def env_stamp() -> dict:
    try:
        from importlib.metadata import version
        crypto = version("cryptography")
    except Exception:  # noqa: BLE001 - the stamp must not stop a run
        crypto = None
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": crypto,
        "commit": _git_commit(),
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["reference"]:
        sys.exit("usage: common.py reference")
    serve_reference()
