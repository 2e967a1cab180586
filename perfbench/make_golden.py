"""Regenerate golden.json: the outcome of every workload variant.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_golden.py

golden.json is the correctness oracle of run.py; regenerate it only when a
change to dctlab deliberately changes who gets notified, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import common
import simulation


def main() -> int:
    common.load_dctlab()
    scenarios = simulation.load_suite(tiny=False)
    golden: dict = {"variants": common.VARIANTS, "verdicts": None,
                    "suite": {}, "pop_tek": {}, "pop_dh": {}}
    for var in range(common.VARIANTS):
        tmp = Path(tempfile.mkdtemp(prefix="golden-"))
        try:
            outcome, verdicts = simulation.suite_pass(scenarios, var, tmp, matrix=True)
        finally:
            shutil.rmtree(tmp)
        if golden["verdicts"] is None:
            golden["verdicts"] = verdicts
        elif verdicts != golden["verdicts"]:
            raise SystemExit(f"variant {var} changes the verdict matrix: {verdicts}")
        golden["suite"][str(var)] = outcome
        for workload in ("pop_tek", "pop_dh"):
            entry = {}
            for tiny in (False, True):
                result = simulation.pop_pass(simulation.pop_input(workload, var, tiny))
                if result["false_notifications"]:
                    raise SystemExit(f"{workload} variant {var} has false notifications")
                entry["tiny" if tiny else "full"] = result["notified"]
            golden[workload][str(var)] = entry
        print(f"variant {var} done", file=sys.stderr, flush=True)
    path = common.BENCH_DIR / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
