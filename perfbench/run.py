"""dctlab benchmark: one workload per invocation.

    python3 perfbench/run.py --workload suite|pop_tek|pop_dh|wire --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --quick             # tiny self-check of every workload
    python3 perfbench/run.py --scale 50,100,200  # population scaling curve, not gated

Run from the repository root. The benchmark imports dctlab from ./src only.
With --trace 0 it measures the end-to-end metrics with nothing wrapped; with
--trace 1 it first runs untraced passes for half the time, then installs the
span recorder (tracing.py) and runs traced passes, and reports per-layer
metrics per pass plus the tracing overhead. Every pass is checked against
golden.json; a mismatch counts as a failed operation. The last line of
standard output is the JSON result; a record with every pass, the
environment stamp and the span files go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common

WORKLOADS = ("suite", "pop_tek", "pop_dh", "wire")
SETUP_REPEATS = 9
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import dctlab.cli, dctlab.scenario, dctlab.server; "
                "print(time.perf_counter() - t)")


def benchmark_spec() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_golden() -> dict:
    path = common.BENCH_DIR / "golden.json"
    if not path.is_file():
        raise common.BenchError(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def import_seconds() -> float:
    """dctlab's import time in a fresh interpreter, as the child measures it."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(common.SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- simulation workloads ------------------------------------------------------------

def run_simulation(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
                   trace_dir: Path) -> dict:
    import population
    import simulation
    import tracing

    golden = load_golden()
    var = common.variant(seed)
    # One CPU for the passes, the set-up probes and the reference worker, which
    # inherit it. On a shared VM the two vCPUs can run the same loop at very
    # different speeds at the same moment, and a reference timed on the other
    # one follows the passes less: within one pop_tek run, scaled passes
    # differed by up to 77% unpinned and by at most 20% pinned.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    size = "tiny" if tiny else "full"

    if workload == "suite":
        def load():
            return simulation.load_suite(tiny)
    else:
        def load():
            return simulation.pop_input(workload, var, tiny)
    inputs = None

    def setup_once() -> float:
        nonlocal inputs
        load_s, inputs = timed(load)
        return import_seconds() + load_s
    setup = common.scaled_setups(setup_once, SETUP_REPEATS)

    work = common.OUT / f"{workload}-{seed}-{os.getpid()}"
    errors: list[str] = []
    attempted = 0
    first_digests = None

    def one_pass():
        if workload == "suite":
            return simulation.suite_pass(inputs, var, work, matrix=not tiny)
        return simulation.pop_pass(inputs)

    def check(got) -> None:
        """Compare one pass's outcome with the golden one, untimed."""
        nonlocal attempted, first_digests
        if workload == "suite":
            outcome, verdicts = got
            expected = golden["suite"][str(var)]
            for sid, runs in outcome.items():
                attempted += 1
                if runs != expected[sid]:
                    errors.append(f"{sid}: notified sets {runs} != golden {expected[sid]}")
            if verdicts is not None:
                attempted += 1
                if verdicts != golden["verdicts"]:
                    errors.append(f"verdicts {verdicts} != golden")
            digests = simulation.output_digests(work)
            if first_digests is None:
                first_digests = digests
            elif digests != first_digests:
                errors.append("outputs differ from the first pass")
        else:
            attempted += 1
            want = golden[workload][str(var)][size]
            if got["false_notifications"] or got["notified"] != want:
                errors.append(f"notified {got['notified']} "
                              f"(false {got['false_notifications']}) != golden {want}")
            if workload == "pop_tek" and got["notified"] != population.contacts_of_reporters(inputs):
                errors.append("tek notified set is not the reporters' contacts")

    # suite needs two passes for its determinism check
    min_passes = 2 if workload == "suite" else 1
    clocks: list[common.PassClock] = []
    recorder = None
    phases = [(False, seconds / 2), (True, seconds / 2)] if trace else [(False, seconds)]
    try:
        for traced, budget in phases:
            if traced:
                recorder = tracing.Recorder().install()
            clock = common.PassClock()
            clocks.append(clock)
            start = time.perf_counter()
            while True:
                if recorder is not None:
                    recorder.pass_id = sum(len(c.wall) for c in clocks) + 1
                check(clock.time(one_pass))
                if len(clock.wall) >= min_passes and time.perf_counter() - start >= budget:
                    break
    finally:
        if recorder is not None:
            recorder.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    result = {"clock": clocks[0], "traced_passes": clocks[1].wall if trace else [], "setup": setup,
              "attempted": attempted, "failed": len(errors), "errors": errors,
              "peak_rss_mb": peak_rss_mb()}
    if trace:
        agg = recorder.aggregate()
        recorder.write(trace_dir, "main")
        layers = tracing.layer_metrics(agg, len(clocks[1].wall))
        layers["trace.overhead_s"] = (statistics.median(clocks[1].wall)
                                      - statistics.median(clocks[0].wall))
        result["layers"] = layers
        result["missing_targets"] = agg["missing"]
    return result


# -- reporting ------------------------------------------------------------------------

def e2e_metrics(result: dict) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, how it was taken), in BENCHMARK.json order."""
    clock = result["clock"]
    return {
        "wall_scaled_s": (statistics.median(clock.scaled), "s",
                          f"median of {len(clock.wall)} passes, scaled by the reference"),
        "setup_s": (statistics.median(result["setup"]), "s",
                    f"median of {len(result['setup'])} set-ups, scaled by the reference"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB", "peak resident set of the dctlab process"),
    }


def info_metrics(result: dict) -> dict[str, tuple[float, str, str]]:
    """Printed and recorded, not gated: host wall time as measured, the
    reference, the failure share, and on wire the request rate and latencies."""
    from wire import percentile
    clock, requests = result["clock"], result.get("requests")
    n = f"median of {len(clock.wall)} passes"
    out = {"wall_s": (statistics.median(clock.wall), "s", n)}
    if requests:
        out["req_per_s"] = (statistics.median(r / t for r, t in zip(requests, clock.wall)),
                            "req/s", n)
        out["req_per_s_scaled"] = (statistics.median(r / t for r, t in zip(requests, clock.scaled)),
                                   "req/s", f"{n}, scaled by the reference")
    out |= {
        "reference_s": (statistics.median(clock.refs), "s",
                        f"median of {len(clock.refs)}; nominal {common.REF_NOMINAL_S}"),
        "failed_frac": (result["failed"] / max(1, result["attempted"]), "ratio",
                        f"{result['failed']} of {result['attempted']} operations"),
    }
    for kind in ("upload", "feed", "issue_tan", "proof", "replay"):
        samples = result.get("latency", {}).get(kind)
        if samples:
            for q in (0.5, 0.99):
                out[f"{kind}_p{int(q * 100)}_ms"] = (percentile(samples, q) * 1000, "ms",
                                                    f"n={len(samples)}")
    return out


def run_workload(args) -> int:
    trace_dir = common.OUT / f"trace-{args.workload}"      # the latest traced run only
    common.load_dctlab()
    common.OUT.mkdir(exist_ok=True)
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
    try:
        if args.workload == "wire":
            import wire
            result = wire.run(args.seed, args.seconds, args.trace, args.tiny, trace_dir)
        else:
            result = run_simulation(args.workload, args.seed, args.seconds, args.trace,
                                    args.tiny, trace_dir)
    finally:
        common.stop_reference()

    spec = benchmark_spec()
    print(f"perfbench workload={args.workload} seed={args.seed} variant={common.variant(args.seed)}"
          f" seconds={args.seconds} trace={int(args.trace)}{' tiny' if args.tiny else ''}")
    stamp = common.env_stamp()
    print("env " + json.dumps(stamp, sort_keys=True))
    shown = {**e2e_metrics(result), **info_metrics(result)}
    for name, (value, unit, how) in shown.items():
        print(f"metric {name} = {value:.6g} {unit}  ({how})")
    for err in result["errors"][:20]:
        print(f"check failed: {err}")
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in result["layers"].items():
            print(f"layer {name} = {value:.6g} {units.get(name, '?')}")
        if result.get("missing_targets"):
            print("trace targets not found: " + ", ".join(result["missing_targets"]))
        gated = {n: {"value": result["layers"][n], "unit": units[n]} for n in units}
    else:
        gated = {m["name"]: {"value": shown[m["name"]][0], "unit": m["unit"]}
                 for m in spec["end_to_end"]}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": int(args.trace), "tiny": args.tiny, "env": stamp,
              "shown": {k: {"value": v, "unit": u, "how": h} for k, (v, u, h) in shown.items()},
              "passes": result["clock"].wall, "scaled": result["clock"].scaled,
              "references": result["clock"].refs,
              "requests": result.get("requests"),
              **{k: result[k] for k in ("traced_passes", "setup", "attempted", "failed", "errors")},
              "layers": result.get("layers")}
    (common.OUT / f"result-{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": gated}))
    return 0


# -- self-check and scaling curve ------------------------------------------------------

def quick() -> int:
    """Every workload at a tiny size, traced and untraced: every named metric
    is printed with its unit and nothing fails."""
    spec = benchmark_spec()
    ok = True
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=common.ROOT,
                                  timeout=300)
            problems = []
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                last = json.loads(lines[-1])
                if set(last) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(last)}")
                if last.get("failed") != 0 or not last.get("correct"):
                    problems.append(f"{last.get('failed')} failed operations")
                want = {m["name"]: m["unit"] for m in spec[kind]}
                got = {k: v["unit"] for k, v in last.get("metrics", {}).items()}
                if got != want:
                    problems.append(f"metrics {sorted(set(got) ^ set(want))} differ")
                prefix = "metric" if trace == 0 else "layer"
                for name, unit in want.items():
                    if not any(l.startswith(f"{prefix} {name} = ") and l.split()[4] == unit
                               for l in lines):
                        problems.append(f"{name} not printed with unit {unit}")
                if not any(l.startswith("metric failed_frac = 0 ") for l in lines):
                    problems.append("failed_frac is not 0")
            ok &= not problems
            print(f"{'PASS' if not problems else 'FAIL'} {workload} trace={trace}"
                  + "".join(f"\n    {p}" for p in problems))
    return 0 if ok else 1


def scale(sizes: list[int], seed: int) -> int:
    """The ROADMAP scaling curve: one untraced pass per (scheme, N)."""
    import population
    import simulation
    common.load_dctlab()
    for scheme in ("tek", "dh", "centralized"):
        for n in sizes:
            doc = population.population_scenario(scheme, n, common.variant(seed))
            wall, got = timed(lambda: simulation.pop_pass(doc))
            ok = got["false_notifications"] == 0 and (
                scheme != "tek" or got["notified"] == population.contacts_of_reporters(doc))
            edges = len(doc["runs"][0]["contact_trace"])
            print(f"scale scheme={scheme} n={n} m={edges} wall_s={wall:.4f} "
                  f"notified={len(got['notified'])} {'ok' if ok else 'CHECK FAILED'}", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="population N=10, one suite scenario, short wire passes")
    parser.add_argument("--quick", action="store_true", help="tiny self-check of all workloads")
    parser.add_argument("--scale", metavar="N,N,...",
                        help="print the population scaling curve for these sizes")
    args = parser.parse_args(argv)
    try:
        if args.quick:
            return quick()
        if args.scale:
            return scale([int(n) for n in args.scale.split(",")], args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        return run_workload(args)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
