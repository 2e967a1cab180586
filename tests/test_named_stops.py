"""A scheduled call stops only the spans of the devices it names.

Reports, DH sync rounds and a relay's calls name the devices they touch, so
radio spans run on through them. The reference kept here only forces every
scheduled call to stop every span, as each did before. Whole drawn runs both
ways must write byte-identical metrics.json, and the same events.jsonl once
each scan line is expanded into its ticks. They must also upload the same
bundles and leave every client in the same state: a span that ran through a
call it should have stopped before may change neither output, as when a
report uploads a record's last_seen from the span's future.
"""

import json
import tempfile
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dctlab import scenario as scenario_module
from dctlab.adversary import SnifferClient
from dctlab.cli import builtin_scenario
from dctlab.radio import SCAN_TICK_S, World
from dctlab.scenario import run_scenario
from dctlab.schemes.centralized import CentralizedClient
from dctlab.schemes.dh import DhClient
from dctlab.schemes.tek import TekClient
from dctlab.server import TracingServer


@contextmanager
def every_call_stops_every_span():
    real = World.schedule

    def schedule(self, at_s, fn, *args, stops=(None,)):
        real(self, at_s, fn, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(World, "schedule", schedule)
        yield


def client_state(client):
    """What a client keeps that the radio or a sync round writes."""
    if isinstance(client, TekClient):
        return [(ident, runs.tolist()) for ident, runs in client.log.by_identifier.items()], \
            sorted(client._notified)
    if isinstance(client, CentralizedClient):
        return [r.as_dict() for r in client.records]
    if isinstance(client, DhClient):
        return [(r.hash_hex, r.my_timestamp) for r in client.records], \
            [(key, p.started_at, p.accrued_s, p.paired_epoch) for key, p in client._pending.items()], \
            sorted(client._notified_hashes)
    if isinstance(client, SnifferClient):
        return [(r.identifier, r.first_at, r.last_at) for r in client.runs]
    return None


@contextmanager
def recorded():
    """Every upload bundle, as JSON, and each run's client states at its end."""
    seen = {"uploads": [], "clients": []}
    accept, collect = TracingServer.accept_upload, scenario_module._collect_metrics

    def accept_upload(server, bundle):
        seen["uploads"].append(json.dumps(bundle, sort_keys=True))
        return accept(server, bundle)

    def collect_metrics(run_cfg, state):
        seen["clients"].append({d: client_state(c) for d, c in state.clients.items()})
        return collect(run_cfg, state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TracingServer, "accept_upload", accept_upload)
        mp.setattr(scenario_module, "_collect_metrics", collect_metrics)
        yield seen


def expanded(events: bytes):
    """An events.jsonl as its scans, each scan line expanded into its ticks
    (time -> a multiset of (run, listener, speaker, identifier, link
    address)), and its other events in order, without their seq."""
    ticks, other = {}, []
    for line in events.decode().splitlines():
        event = json.loads(line)
        payload = event["payload"]
        if event["kind"] == "scan":
            heard = (event["run"], payload["device"], payload["from"], payload["id"],
                     payload["link"])
            for k in range(payload["ticks"]):
                ticks.setdefault(event["at"] + k * SCAN_TICK_S, Counter())[heard] += 1
        else:
            other.append((event["run"], event["at"], event["kind"], payload))
    return ticks, other


def both_ways(scenario):
    """scenario's metrics.json, events.jsonl, uploads and end states as
    shipped, and with every call stopping every span."""
    got = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, stops in (("named", nullcontext), ("every", every_call_stops_every_span)):
            out = Path(tmp, name)
            with recorded() as seen, stops():
                run_scenario(scenario, out_dir=out)
            got.append([(out / f).read_bytes() for f in ("metrics.json", "events.jsonl")]
                       + [seen])
    return got


def assert_same_as_every_call_stopping_every_span(scenario):
    """Returns the scan lines each way."""
    (metrics, events, seen), (ref_metrics, ref_events, ref_seen) = both_ways(scenario)
    assert metrics == ref_metrics
    assert expanded(events) == expanded(ref_events)
    assert seen == ref_seen
    return events.count(b'"kind":"scan"'), ref_events.count(b'"kind":"scan"')


@st.composite
def small_scenario(draw):
    """One run of at most 8 devices under any scheme: random contacts and
    clock offsets, reports (most during a contact, so a sync round falls in
    one too) and at most one attack: a relay, one-way or two-way, or a time
    travel."""
    scheme = draw(st.sampled_from(["centralized", "tek", "dh"]))
    attack = draw(st.sampled_from([None, "one_way_broadcast", "two_way_realtime",
                                   "time_travel"]))
    relay = attack if attack != "time_travel" else None
    nodes = ["ra", "rb"] if relay else ["ghost"] if attack else []
    ids = [f"d{i}" for i in range(draw(st.integers(2, 8 - len(nodes))))]
    offsets = st.sampled_from([0, 0, 0, -600, 300]) | st.integers(-3000, 3000)
    devices = [{"id": d, "clock_offset_s": draw(offsets)} for d in ids]
    devices += [{"id": d, "role": "relay" if relay else "replayer"} for d in nodes]
    duration = draw(st.integers(600, 3600))
    edges = []
    for _ in range(draw(st.integers(1, 10))):
        a, b = draw(st.lists(st.sampled_from(ids + nodes), min_size=2, max_size=2, unique=True))
        start = draw(st.integers(0, duration))
        edges.append([a, b, start, start + draw(st.integers(5, 1800))])
    reporters = draw(st.lists(st.sampled_from(ids), unique=True, min_size=1, max_size=3))
    infections = []
    for d in reporters:
        a, b, start, end = draw(st.sampled_from(edges))
        during = st.integers(start, end - 1) if d in (a, b) else st.integers(start, end + 60)
        infections.append({"device": d, "report_at": draw(during | st.integers(0, duration))})
    config = {"centralized": {"rotation_s": draw(st.sampled_from([300, 900])),
                              "variant": draw(st.sampled_from(["bluetrace", "pepp_pt"]))},
              "tek": {"validity_window_s": draw(st.sampled_from([0, 120, 7200])),
                      "strict_freshness": draw(st.booleans())},
              "dh": {"rotation_s": draw(st.sampled_from([300, 900])),
                     "min_encounter_s": draw(st.sampled_from([0, 15, 120]))}}[scheme]
    run = {"label": "main", "scheme": scheme, "devices": devices, "duration_s": duration,
           "contact_trace": edges, "infections": infections, "scheme_config": config}
    if relay:
        start = draw(st.integers(0, duration))
        run["attack"] = {"kind": "relay", "node_a": "ra", "node_b": "rb", "mode": relay,
                         "window": [start, start + draw(st.integers(0, 2400))],
                         "latency_s": draw(st.sampled_from([0, 30, 300])),
                         "tick_s": draw(st.sampled_from([60, 300]))}
    elif attack:
        at = draw(st.integers(0, duration))
        run["attack"] = {"kind": "time_travel", "victim": draw(st.sampled_from(ids)),
                         "replayer": "ghost", "offset_s": draw(st.sampled_from([-86400, -600])),
                         "at_s": at, "restore_at_s": at + draw(st.integers(0, 1800))}
    return {"id": f"stops_{scheme}", "seed": draw(st.integers(0, 3)), "runs": [run]}


# d1 hears d0 from 0 to 1200, and d2 from 300 to 900; d0's report at 400 stops
# only d0's spans, and the DH rounds at 460 and 1200 stop none
DH_REPORT_DURING_CONTACTS = {"id": "stops_dh", "seed": 0, "runs": [{
    "label": "main", "scheme": "dh", "devices": ["d0", "d1", "d2"], "duration_s": 1200,
    "contact_trace": [["d0", "d1", 0, 1200], ["d1", "d2", 300, 900]],
    "infections": [{"device": "d0", "report_at": 400}],
    "scheme_config": {"rotation_s": 900, "min_encounter_s": 0}}]}



def relayed(scheme, contacts, attack, config=None):
    devices = ["d0", "d1", {"id": "ra", "role": "relay"}, {"id": "rb", "role": "relay"}]
    return {"id": f"stops_{scheme}", "seed": 0, "runs": [{
        "label": "main", "scheme": scheme, "devices": devices, "duration_s": 1300,
        "contact_trace": contacts, "infections": [{"device": "d0", "report_at": 1250}],
        "scheme_config": config or {},
        "attack": {"kind": "relay", "node_a": "ra", "node_b": "rb", **attack}}]}


# d1 hears d0 first hand, and 30 s after each capture near ra the relay hands it
# d0's identifier again near rb
TEK_RELAYED_BEACON_HEARD_FIRST_HAND = relayed(
    "tek", [["d0", "d1", 0, 1200], ["d0", "ra", 0, 1200], ["d1", "rb", 0, 1200]],
    {"mode": "one_way_broadcast", "window": [0, 1200], "tick_s": 60, "latency_s": 30})
# the relay connects d0 to d1 at 200, beside their own contact: its co-presence
# brings their encounter to min_encounter_s on a tick inside what would otherwise
# be one span
DH_RELAYED_BESIDE_A_CONTACT = relayed(
    "dh", [["d0", "d1", 200, 800], ["d0", "ra", 150, 800], ["d1", "rb", 150, 800]],
    {"mode": "two_way_realtime", "window": [200, 800], "tick_s": 60},
    {"rotation_s": 900, "min_encounter_s": 290})


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=small_scenario())
@example(scenario=DH_REPORT_DURING_CONTACTS)
@example(scenario=TEK_RELAYED_BEACON_HEARD_FIRST_HAND)
@example(scenario=DH_RELAYED_BESIDE_A_CONTACT)
def test_a_drawn_run_writes_what_every_call_stopping_every_span_wrote(scenario):
    assert_same_as_every_call_stopping_every_span(scenario)


def test_a_dh_round_and_a_report_leave_the_other_spans_whole():
    lines, ref_lines = assert_same_as_every_call_stopping_every_span(DH_REPORT_DURING_CONTACTS)
    assert lines < ref_lines


def test_a_one_way_relay_merges_scan_lines_across_its_calls():
    lines, ref_lines = assert_same_as_every_call_stopping_every_span(
        builtin_scenario("relay_centralized"))
    assert lines < ref_lines
