"""Events go from World.emit straight to a sink: a run holds no event log,
events.jsonl is streamed run by run and appears only when every run has
finished, and its bytes are those of the whole log joined at the end; seq
numbers each run's events 1, 2, ... A run without a sink builds no event,
derives no link address, and ends as a written run does."""

import json
import random
import weakref
from collections import Counter

import pytest

from dctlab import radio
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


@pytest.fixture
def made(monkeypatch):
    """A weak reference to every SimEvent built, and the count of link
    addresses derived, over every world."""
    made = {"events": [], "link_addresses": 0}

    class Tracked(radio.SimEvent):
        def __init__(self, *args):
            super().__init__(*args)
            made["events"].append(weakref.ref(self))

    link_address = radio.Device.link_address

    def counted(device, *args):
        made["link_addresses"] += 1
        return link_address(device, *args)

    monkeypatch.setattr(radio, "SimEvent", Tracked)
    monkeypatch.setattr(radio.Device, "link_address", counted)
    return made


@pytest.mark.parametrize("scheme", ["centralized", "tek", "dh"])
def test_a_run_holds_no_events_when_they_go_elsewhere(tmp_path, made, scheme):
    scenario = small_population(scheme)
    run_scenario(scenario, out_dir=tmp_path)
    assert made["events"]
    assert all(ref() is None for ref in made["events"])     # each is gone once written
    assert (tmp_path / "events.jsonl").stat().st_size > 1     # the run did emit


@pytest.mark.parametrize("scenario", [small_population(scheme) for scheme in
                                      ("centralized", "tek", "dh")]
                         + [builtin_scenario(sid) for sid in STANDARD_SUITE],
                         ids=lambda scenario: scenario["id"])
def test_a_discarded_run_builds_no_scan_and_ends_as_a_written_one(tmp_path, worlds, made,
                                                                  scenario):
    discarded = run_scenario(scenario)
    discarding = list(worlds)
    # a run without a sink builds no event and derives no link address
    assert made == {"events": [], "link_addresses": 0}
    written = run_scenario(scenario, out_dir=tmp_path)
    writing = worlds[len(discarding):]
    assert made["events"] and made["link_addresses"]     # the probes do count
    assert discarded == written
    assert len(discarding) == len(writing) == len(scenario["runs"])
    events = [json.loads(line) for line in
              (tmp_path / "events.jsonl").read_text(encoding="utf-8").splitlines() if line]
    scans = Counter(ev["run"] for ev in events if ev["kind"] == "scan")
    for run_cfg, quiet, loud in zip(scenario["runs"], discarding, writing):
        # seq counts the events written and nothing else: each run's log reads 1..n
        seqs = [ev["seq"] for ev in events if ev["run"] == run_cfg["label"]]
        assert seqs == list(range(1, len(seqs) + 1))
        assert quiet._seq == 0 and loud._seq == len(seqs) == sum(loud.emitted.values())
        # no scan reaches emit, a relay's injected beacons included
        assert quiet.emitted["scan"] == 0 and quiet.injected == loud.injected
        assert loud.emitted["scan"] == scans[run_cfg["label"]] > loud.injected
        assert quiet.emitted == loud.emitted - Counter(scan=loud.emitted["scan"])


@pytest.mark.parametrize("sid", ["e2e_basic", "relay_dh", "time_travel", "fake_claim_tek"])
def test_two_sinks_get_equal_events_and_no_sink_equal_metrics(sid):
    scenario = builtin_scenario(sid)
    root = SeedStream(scenario["seed"], scenario["id"])
    for run_cfg in scenario["runs"]:
        first, second = [], []
        metrics = execute_run(run_cfg, root.child(run_cfg["label"]), first.append)
        assert execute_run(run_cfg, root.child(run_cfg["label"]), second.append) == metrics
        assert first and first == second, run_cfg["label"]
        assert execute_run(run_cfg, root.child(run_cfg["label"])) == metrics


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
    events = []
    execute_run(scenario["runs"][0], SeedStream(3, "quiet").child("main"), events.append)
    assert events == []
    run_scenario(scenario, out_dir=tmp_path)
    assert (tmp_path / "events.jsonl").read_bytes() == b"\n"
    assert not (tmp_path / "events.jsonl.tmp").exists()
    assert (tmp_path / "metrics.json").exists()
