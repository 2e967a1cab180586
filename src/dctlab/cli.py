"""Command-line driver: run scenarios, the standard suite, and build the
requirement/scheme verdict matrix from scenario outcomes.

Every sign in the matrix is computed from a concrete metric of a concrete
scenario run on disk, never hardcoded:

    R-S1  fake-claim scenario: claim accepted        -> minus
    R-S2  relay scenario: one-way false alarms > 0   -> minus
    R-P2  linkage: a track outlives one rotation     -> minus
    R-P1  social graph: any edge recovered           -> minus
    R-P3  social graph: any edge recovered           -> minus
    R-Ef2 superspreader detection verified           -> plus

Usage:
    dctlab --scenario PATH [--seed N] --out DIR
    dctlab --suite standard [--seed N] --out DIR [--matrix]
    dctlab --matrix --out DIR
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigurationError, FieldError, ScenarioError
from .scenario import load_scenario, run_scenario
from .schema import shown
from .server import SCHEMES

STANDARD_SUITE = (
    "relay_centralized", "relay_tek", "relay_dh",
    "fake_claim_centralized", "fake_claim_tek", "fake_claim_dh",
    "linkage_centralized", "linkage_tek", "linkage_dh",
    "social_graph", "superspreader", "time_travel",
)
REQUIREMENTS = ("R-Ef2", "R-P1", "R-P2", "R-P3", "R-S1", "R-S2")

# the comparison table's footnotes, rendered as notes rather than extra signs
NOTES = {
    ("R-P1", "tek"): "linkable for infected users only",
    ("R-P2", "tek"): "linkable for infected users only",
    ("R-P3", "tek"): "linkable for infected users only",
    ("R-S2", "dh"): "prevents one-way relays; real-time two-way limited to 8 targets within epsilon",
    ("R-Ef2", "dh"): "detection on the user side, proven to the provider",
    ("R-Ef2", "tek"): "user-side count only, not verifiable",
}


@dataclass(frozen=True)
class Verdict:
    requirement: str
    scheme: str
    sign: str          # "plus" | "minus"
    evidence: str      # scenario:run:metric=value
    notes: str = ""


def builtin_scenario(scenario_id: str) -> dict:
    """A bundled scenario, loaded; one the package cannot read is a ScenarioError."""
    path = resources.files("dctlab") / "scenarios" / f"{scenario_id}.json"
    try:
        with resources.as_file(path) as p:
            return load_scenario(p)
    except OSError as exc:
        raise ScenarioError(f"cannot read bundled scenario {scenario_id}: {exc}")


def _load_metrics(out_root: Path) -> tuple[dict[str, dict], list[str]]:
    found, missing = {}, []
    for sid in STANDARD_SUITE:
        path = out_root / sid / "metrics.json"
        if not path.exists():
            missing.append(sid)
            continue
        try:
            found[sid] = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise ScenarioError(f"cannot read {path}: {exc}")
    return found, missing


def quadrilemma(out_root: str | Path) -> list[Verdict]:
    """Map the standard suite's outcomes to the +/- verdict matrix.
    Raises ScenarioError listing any scenario whose outputs are missing, and
    naming a metrics.json that is not JSON or lacks a field the matrix reads."""
    out_root = Path(out_root)
    metrics, missing = _load_metrics(out_root)
    if missing:
        raise ScenarioError("missing scenario outputs: " + ", ".join(missing))

    def read(sid: str, *keys: str, kind: type = int):
        """The field at keys of sid's metrics.json, which must be of kind."""
        doc, field = metrics[sid], f"{out_root / sid / 'metrics.json'}: field {'.'.join(keys)}"
        for key in keys:
            doc = doc.get(key) if type(doc) is dict else None
        if type(doc) is not kind:
            raise ScenarioError(f"{field} is missing" if doc is None
                                else f"{field}: expected {kind.__name__}, got {shown(doc)}")
        return doc

    verdicts = []
    for scheme in SCHEMES:
        false_alarms = read(f"relay_{scheme}", "runs", "one_way", "false_notifications")
        verdicts.append(Verdict(
            "R-S2", scheme, "plus" if false_alarms == 0 else "minus",
            f"relay_{scheme}:one_way:false_notifications={false_alarms}",
            NOTES.get(("R-S2", scheme), "")))

        accepted = read(f"fake_claim_{scheme}", "runs", "main", "attack", "accepted", kind=bool)
        verdicts.append(Verdict(
            "R-S1", scheme, "minus" if accepted else "plus",
            f"fake_claim_{scheme}:main:accepted={str(accepted).lower()}",
            NOTES.get(("R-S1", scheme), "")))

        duration = read(f"linkage_{scheme}", "runs", "main", "linkage", "max_track_duration_s")
        rotation = read(f"linkage_{scheme}", "runs", "main", "linkage", "rotation_s")
        verdicts.append(Verdict(
            "R-P2", scheme, "minus" if duration > rotation else "plus",
            f"linkage_{scheme}:main:max_track_duration_s={duration}",
            NOTES.get(("R-P2", scheme), "")))

        edges = read("social_graph", "runs", scheme, "social_graph", "recovered_edge_count")
        for req in ("R-P1", "R-P3"):
            verdicts.append(Verdict(
                req, scheme, "minus" if edges > 0 else "plus",
                f"social_graph:{scheme}:recovered_edge_count={edges}",
                NOTES.get((req, scheme), "")))

        spreader = ("runs", scheme, "superspreader")
        device_results = [read("superspreader", *spreader, device, "verified", kind=bool)
                          for device in read("superspreader", *spreader, kind=dict)]
        verified = all(device_results) and bool(device_results)
        verdicts.append(Verdict(
            "R-Ef2", scheme, "plus" if verified else "minus",
            f"superspreader:{scheme}:verified={str(verified).lower()}",
            NOTES.get(("R-Ef2", scheme), "")))

    order = {r: i for i, r in enumerate(REQUIREMENTS)}
    scheme_order = {s: i for i, s in enumerate(SCHEMES)}
    verdicts.sort(key=lambda v: (order[v.requirement], scheme_order[v.scheme]))
    return verdicts


def matrix_csv(verdicts: list[Verdict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["requirement", "scheme", "sign", "evidence", "notes"])
    for v in verdicts:
        writer.writerow([v.requirement, v.scheme, v.sign, v.evidence, v.notes])
    return buf.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dctlab",
        description="Run contact tracing scenarios and build the verdict matrix.")
    parser.add_argument("--scenario", metavar="PATH", help="scenario JSON file to run")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed (u64)")
    parser.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: ./out)")
    parser.add_argument("--suite", choices=["standard"],
                        help="run the bundled scenario suite into OUT/<id>/")
    parser.add_argument("--matrix", action="store_true",
                        help="build OUT/quadrilemma.csv from suite outputs")
    args = parser.parse_args(argv)

    if not (args.scenario or args.suite or args.matrix):
        parser.print_usage(sys.stderr)
        return 2

    out_root = Path(args.out)
    try:
        if args.scenario:
            scenario = load_scenario(args.scenario)
            run_scenario(scenario, seed=args.seed, out_dir=out_root)
            print(f"wrote {out_root}/events.jsonl and {out_root}/metrics.json")
        if args.suite:
            for sid in STANDARD_SUITE:
                scenario = builtin_scenario(sid)
                run_scenario(scenario, seed=args.seed, out_dir=out_root / sid)
                print(f"ran {sid}")
    except (ScenarioError, ConfigurationError, FieldError) as exc:
        line = getattr(exc, "line", None)
        where = f" (line {line}, column {exc.column})" if line is not None else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return 2
    except OSError as exc:     # an --out that is a file, or a path through one
        print(f"error: cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2

    if args.matrix:
        try:
            verdicts = quadrilemma(out_root)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        (out_root / "quadrilemma.csv").write_text(matrix_csv(verdicts), encoding="utf-8")
        print(f"wrote {out_root}/quadrilemma.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
