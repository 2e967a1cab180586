"""Repeat run.py over seeds and summarize, the way the benchmark is gated.

    python3 perfbench/sweep.py --workloads suite,pop_tek,pop_dh,wire --seeds 1-10 \\
        [--out perfbench/results/BENCH_x.json]
    python3 perfbench/sweep.py --traced --workloads pop_tek,pop_dh --seeds 1

Untraced: for each workload and end-to-end metric, the median and quartiles
(statistics.quantiles, n=4) over the seeds, and the spread (q3 - q1) / median
next to a third of the metric's bound. Traced: each seed runs twice; every
count metric must repeat exactly, and the seed-commit expectations of the
layer table are checked. Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common

COUNT_UNITS = ("count", "bytes", "ratio")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=common.ROOT, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((common.OUT / f"result-{workload}-seed{seed}-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    print(f"{workload} seed={seed} trace={trace} {elapsed:.1f}s correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                     if trace == 0), flush=True)
    return {"seed": seed, "elapsed_s": elapsed, "result": result, "record": record}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def summarize(runs: list[dict], spec: dict) -> dict:
    """Gated metrics against their bounds; the unscaled host figures beside them."""
    out = {}
    for metric in spec["end_to_end"]:
        stats = quartiles([r["result"]["metrics"][metric["name"]]["value"] for r in runs])
        out[metric["name"]] = {**stats, "bound": metric["bound"],
                               "within_third_of_bound": stats["spread"] < metric["bound"] / 3}
    for name in ("wall_s", "req_per_s", "req_per_s_scaled", "reference_s"):
        if name in runs[0]["record"]["shown"]:
            out[name] = quartiles([r["record"]["shown"][name]["value"] for r in runs])
    return out


def traced_checks(workload: str, first: dict, second: dict, units: dict) -> list[str]:
    """Counts repeat exactly; the layer table's expectations hold."""
    problems = []
    a, b = first["result"]["metrics"], second["result"]["metrics"]
    for name, unit in units.items():
        if unit in COUNT_UNITS and a[name]["value"] != b[name]["value"]:
            problems.append(f"{name} differs between runs: {a[name]['value']} vs {b[name]['value']}")
    layers = {k: v["value"] for k, v in a.items()}
    wall = statistics.median(first["record"]["passes"])
    if workload == "pop_tek":
        others = {k: v for k, v in layers.items() if k.endswith(".self_s")
                  and k.split(".")[0] not in ("radio", "crypto")}
        top = max(others, key=others.get)
        if layers["crypto.day_schedule_s"] <= others[top]:
            problems.append(f"crypto.day_schedule_s {layers['crypto.day_schedule_s']:.3f} "
                            f"is not above {top} {others[top]:.3f}")
    if workload == "pop_dh" and layers["crypto.day_schedules"] != 0:
        problems.append("pop_dh derives daily schedules")
    if workload == "wire" and not (layers["server.upload_s"] > 0 and layers["server.feed_fetch_s"] > 0):
        problems.append("wire has no server spans")
    if workload.startswith("pop_") and layers["server.upload_s"] >= 0.01 * wall:
        problems.append("server.upload_s is not below 1% of wall_s")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="suite,pop_tek,pop_dh,wire")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", help="write the summary here (JSON)")
    args = parser.parse_args()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    summary = {"env": common.env_stamp(), "run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        if args.traced:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            entry = {}
            for seed in parse_seeds(args.seeds):
                first, second = (run_once(workload, seed, seconds, 1) for _ in range(2))
                problems = traced_checks(workload, first, second, units)
                ok &= not problems
                for p in problems:
                    print(f"  FAIL {p}")
                entry[str(seed)] = {"layers": {k: v["value"] for k, v in
                                               first["result"]["metrics"].items()},
                                    "wall_s": statistics.median(first["record"]["passes"]),
                                    "problems": problems}
            summary["workloads"][workload] = entry
            continue
        runs = [run_once(workload, seed, seconds, 0) for seed in parse_seeds(args.seeds)]
        stats = summarize(runs, spec)
        for name, s in stats.items():
            flag = ("ungated" if "bound" not in s else
                    f"bound {s['bound']} " + ("ok" if s["within_third_of_bound"] else "WIDE"))
            print(f"  {workload} {name}: median {s['median']:.5g} spread {s['spread']:.4f} "
                  f"({flag})", flush=True)
        ok &= all(r["result"]["correct"] for r in runs)
        summary["workloads"][workload] = {
            "runs": [{"seed": r["seed"], "elapsed_s": r["elapsed_s"],
                      "correct": r["result"]["correct"], "attempted": r["result"]["attempted"],
                      "failed": r["result"]["failed"],
                      "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()},
                      "shown": r["record"]["shown"]} for r in runs],
            "summary": stats}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
