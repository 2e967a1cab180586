"""The simulation workloads: suite, pop_tek and pop_dh.

Each pass calls only dctlab's public entry points (``run_scenario``,
``builtin_scenario``, ``quadrilemma``, ``matrix_csv``), looked up at call
time so that the traced run sees its wrappers. The outcome of a pass is
reduced to the fields the correctness checks compare.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import population
from common import POP_N, TINY_POP_N, TINY_SUITE


def load_suite(tiny: bool) -> dict[str, dict]:
    from dctlab import cli
    return {sid: cli.builtin_scenario(sid) for sid in (TINY_SUITE if tiny else cli.STANDARD_SUITE)}


def pop_input(workload: str, var: int, tiny: bool) -> dict:
    scheme = workload.split("_", 1)[1]
    return population.population_scenario(scheme, TINY_POP_N if tiny else POP_N, var)


def run_outcome(metrics: dict) -> dict:
    """Per run: the notified and the false-notified device sets."""
    return {label: [run["notified_devices"], run["false_notified_devices"]]
            for label, run in metrics["runs"].items()}


def suite_pass(scenarios: dict[str, dict], seed: int, out_root: Path, matrix: bool):
    """One `dctlab --suite standard --matrix` equivalent. Returns the per
    scenario outcome and the verdict rows (None without the matrix)."""
    from dctlab import cli, scenario
    outcome = {}
    for sid, doc in scenarios.items():
        outcome[sid] = run_outcome(scenario.run_scenario(doc, seed=seed, out_dir=out_root / sid))
    verdicts = None
    if matrix:
        rows = cli.quadrilemma(out_root)
        (out_root / "quadrilemma.csv").write_text(cli.matrix_csv(rows), encoding="utf-8")
        verdicts = [[v.requirement, v.scheme, v.sign] for v in rows]
    return outcome, verdicts


def output_digests(out_root: Path) -> dict[str, str]:
    return {str(p.relative_to(out_root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_root.rglob("*")) if p.is_file()}


def pop_pass(doc: dict) -> dict:
    from dctlab import scenario
    metrics = scenario.run_scenario(doc)
    run = metrics["runs"]["day"]
    return {"notified": run["notified_devices"],
            "false_notifications": run["false_notifications"]}
