"""Events go from World.emit straight to a sink: a run holds no event log
unless its caller asks for one, events.jsonl is streamed run by run and
appears only when every run has finished, and its bytes are those of the
whole log joined at the end. A run whose events go nowhere builds no scan
event and ends as a written run does."""

import json
import random
from collections import Counter

import pytest

from dctlab import scenario as scenario_module
from dctlab.cli import STANDARD_SUITE, builtin_scenario
from dctlab.radio import World
from dctlab.rng import SeedStream
from dctlab.scenario import execute_run, run_scenario


def small_population(scheme: str, n: int = 10, edges: int = 30, seed: int = 4) -> dict:
    """A one-run scenario of n devices and random contacts over four hours;
    the first device reports near the end."""
    rng = random.Random(seed)
    ids = [f"d{i}" for i in range(n)]
    trace = []
    for _ in range(edges):
        a, b = rng.sample(ids, 2)
        start = rng.randrange(0, 12000)
        trace.append([a, b, start, start + rng.randrange(300, 1800)])
    return {"id": f"small_{scheme}", "seed": seed,
            "runs": [{"label": "day", "scheme": scheme, "devices": ids, "contact_trace": trace,
                      "infections": [{"device": "d0", "report_at": 14000}],
                      "duration_s": 14400}]}


@pytest.fixture
def worlds(monkeypatch):
    """Every World the scenario driver builds; each counts the event kinds
    that reach its emit, and the beacons injected outside the range rules."""
    built = []

    class Captured(World):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.emitted = Counter()
            self.injected = 0
            built.append(self)

        def emit(self, kind, payload):
            self.emitted[kind] += 1
            return super().emit(kind, payload)

        def inject_beacon(self, *args, **kwargs):
            self.injected += 1
            super().inject_beacon(*args, **kwargs)

    monkeypatch.setattr(scenario_module, "World", Captured)
    return built


@pytest.mark.parametrize("scheme", ["centralized", "tek", "dh"])
def test_a_run_holds_no_events_when_they_go_elsewhere(tmp_path, worlds, scheme):
    scenario = small_population(scheme)
    run_scenario(scenario, out_dir=tmp_path)
    run_scenario(scenario)
    assert len(worlds) == 2
    assert all(world.events == [] for world in worlds)
    assert (tmp_path / "events.jsonl").stat().st_size > 1     # the run did emit


@pytest.mark.parametrize("scenario", [small_population(scheme) for scheme in
                                      ("centralized", "tek", "dh")]
                         + [builtin_scenario(sid) for sid in STANDARD_SUITE],
                         ids=lambda scenario: scenario["id"])
def test_a_discarded_run_builds_no_scan_and_ends_as_a_written_one(tmp_path, worlds, scenario):
    discarded = run_scenario(scenario)
    discarding = list(worlds)
    written = run_scenario(scenario, out_dir=tmp_path)
    writing = worlds[len(discarding):]
    assert discarded == written
    assert len(discarding) == len(writing) == len(scenario["runs"])
    events = [json.loads(line) for line in
              (tmp_path / "events.jsonl").read_text(encoding="utf-8").splitlines() if line]
    scans = Counter(ev["run"] for ev in events if ev["kind"] == "scan")
    for run_cfg, quiet, loud in zip(scenario["runs"], discarding, writing):
        # the scan events left out still took their seq
        assert quiet._seq == loud._seq
        # no scan reaches emit, a relay's injected beacons included
        assert quiet.emitted["scan"] == 0 and quiet.injected == loud.injected
        assert loud.emitted["scan"] == scans[run_cfg["label"]] > loud.injected
        assert quiet.emitted == loud.emitted - Counter(scan=loud.emitted["scan"])


@pytest.mark.parametrize("sid", ["e2e_basic", "relay_dh", "time_travel", "fake_claim_tek"])
def test_a_sink_gets_the_events_the_default_world_keeps(sid):
    scenario = builtin_scenario(sid)
    root = SeedStream(scenario["seed"], scenario["id"])
    for run_cfg in scenario["runs"]:
        kept = execute_run(run_cfg, root.child(run_cfg["label"]))
        sent = []
        streamed = execute_run(run_cfg, root.child(run_cfg["label"]), sent.append)
        assert kept.events and sent == kept.events, run_cfg["label"]
        assert streamed.events == []
        assert streamed.metrics == kept.metrics


def test_a_failed_run_leaves_nothing_behind(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "events.jsonl").write_bytes(b"old events\n")
    (out / "metrics.json").write_bytes(b"{}\n")
    real = scenario_module.execute_run
    calls = []

    def fail_second(run_cfg, stream, sink=None):
        calls.append(run_cfg["label"])
        if len(calls) == 2:
            assert sink is not None     # the first run streamed into events.jsonl.tmp
            raise RuntimeError("second run fails")
        return real(run_cfg, stream, sink)

    monkeypatch.setattr(scenario_module, "execute_run", fail_second)
    scenario = builtin_scenario("e2e_basic")
    assert len(scenario["runs"]) >= 2
    with pytest.raises(RuntimeError, match="second run fails"):
        run_scenario(scenario, out_dir=out)
    assert len(calls) == 2
    assert (out / "events.jsonl").read_bytes() == b"old events\n"
    assert (out / "metrics.json").read_bytes() == b"{}\n"
    assert not (out / "events.jsonl.tmp").exists()

    # an out_dir made for the scenario goes with it
    calls.clear()
    with pytest.raises(RuntimeError, match="second run fails"):
        run_scenario(scenario, out_dir=tmp_path / "fresh")
    assert not (tmp_path / "fresh").exists()


def test_an_empty_log_is_one_newline(tmp_path):
    # devices that never meet and never report: a dh run that emits nothing
    scenario = {"id": "quiet", "seed": 3,
                "runs": [{"label": "main", "scheme": "dh", "devices": ["a", "b"],
                          "duration_s": 3600}]}
    assert execute_run(scenario["runs"][0], SeedStream(3, "quiet").child("main")).events == []
    run_scenario(scenario, out_dir=tmp_path)
    assert (tmp_path / "events.jsonl").read_bytes() == b"\n"
    assert not (tmp_path / "events.jsonl.tmp").exists()
    assert (tmp_path / "metrics.json").exists()
