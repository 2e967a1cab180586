"""A sync round hands its page only to the devices it can notify.

The sync rounds as they were, kept here only, hand every page to every
scheme device. Whole runs that way and as shipped must write byte-identical
metrics.json and events.jsonl, on drawn TEK and DH scenarios and on the
bundled ones at the golden seeds. And each client a shipped round skips must
end the round as a sync finding nothing would leave it: a shadow of it,
synced in every round on the same records, finds nothing.
"""

import copy
import json
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dctlab import scenario as scenario_module
from dctlab.cli import STANDARD_SUITE, builtin_scenario
from dctlab.crypto_core import DAY_S, EncounterToken
from dctlab.rng import SeedStream
from dctlab.scenario import run_scenario
from dctlab.schemes.dh import DhClient, EncounterRecord, PublishedDhIndex, report_infection_dh
from dctlab.schemes.tek import PublishedTekIndex, SightingLog, TekClient

GOLDEN_SEEDS = (None, 1, 2)


# -- every device syncs in every round ------------------------------------------

class _EveryDevice:
    """An index whose rounds wake every scheme device."""

    def __init__(self, index, devices):
        self.index, self.devices = index, devices

    def wake(self, page):
        self.index.wake(page)
        return set(self.devices)


@contextmanager
def every_device_syncs():
    real = scenario_module._schedule_syncs

    def all_devices(run_cfg, state, index):
        real(run_cfg, state, _EveryDevice(index, state.scheme_devices))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario_module, "_schedule_syncs", all_devices)
        yield


def _outputs(scenario, seed, out):
    run_scenario(scenario, seed=seed, out_dir=out)
    return {name: (out / name).read_bytes() for name in ("metrics.json", "events.jsonl")}


def assert_same_as_every_device(scenario, seed=None):
    """Run scenario as shipped, its clients shadowed, and with every device
    syncing in every round; the outputs must be byte-identical. Returns the
    shipped metrics and the shadows."""
    with tempfile.TemporaryDirectory() as tmp:
        with shadowed() as shadows:
            shipped = _outputs(scenario, seed, Path(tmp, "shipped"))
        with every_device_syncs():
            every = _outputs(scenario, seed, Path(tmp, "every"))
    assert shipped["metrics.json"] == every["metrics.json"]
    assert shipped["events.jsonl"] == every["events.jsonl"]
    return json.loads(shipped["metrics.json"]), shadows


# -- shadows: each client as a sync in every round keeps it ---------------------

class _Shadows:
    """Every TEK and DH client made in the context gets a shadow synced in
    every round: a TEK shadow logs the same sightings, each under the run's
    round, in a log of its own; a DH shadow shares the client's records.
    After a round opens, a skipped client must equal its shadow, and the
    shadow's sync must find nothing; a woken client's sync must return what
    its shadow's did and leave the same state."""

    def __init__(self):
        self.tek_sync, self.dh_sync = TekClient.sync, DhClient.sync     # unwrapped
        self.tek, self.dh = {}, {}      # client -> its shadow
        self.expected = {}              # woken client -> what its sync must return
        self.skipped = self.woken = 0

    def tek_round(self, index, woken):
        for client, shadow in self.tek.items():
            if client.index is not index:
                continue
            twin = copy.copy(client)
            twin.log, twin._notified = shadow["log"], shadow["notified"]
            self.settle(client, self.tek_sync(twin), woken)

    def dh_round(self, index, woken):
        for client, twin in self.dh.items():
            if client.index is index:
                twin.reported = client.reported
                self.settle(client, self.dh_sync(twin), woken)

    def settle(self, client, found, woken):
        if client.device_id in woken:
            self.expected[client] = found
            self.woken += 1
        else:
            assert found == [], client.device_id
            self.assert_equal(client)
            self.skipped += 1

    def assert_equal(self, client):
        if client in self.tek:
            shadow = self.tek[client]
            assert client.log.by_identifier == shadow["log"].by_identifier
            assert client._notified == shadow["notified"]

    def synced(self, client, got):
        assert got == self.expected.pop(client), client.device_id
        self.assert_equal(client)
        if client in self.dh and not client.reported:   # a reported client's sync reads none
            twin = self.dh[client]
            assert client._unpublished == twin._unpublished
            assert client._notified_hashes == twin._notified_hashes


@contextmanager
def shadowed():
    shadows = _Shadows()
    tek_init, dh_init = TekClient.__init__, DhClient.__init__
    on_sighting = TekClient.on_sighting
    tek_wake, dh_wake = PublishedTekIndex.wake, PublishedDhIndex.wake

    def made_tek(client, *args, **kwargs):
        tek_init(client, *args, **kwargs)
        shadows.tek[client] = {"log": SightingLog(), "notified": set()}

    def made_dh(client, *args, **kwargs):
        dh_init(client, *args, **kwargs)
        twin = shadows.dh[client] = copy.copy(client)     # shares records and the index
        twin._unpublished, twin._notified_hashes = [], set()

    def sighting(client, identifier, local_t, global_t, ticks=1):
        on_sighting(client, identifier, local_t, global_t, ticks)
        shadows.tek[client]["log"].append(identifier, local_t, ticks, client.index.round)

    def waking(real, settle):
        def wake(index, page):
            woken = real(index, page)
            settle(index, woken)
            return woken
        return wake

    def syncing(real):
        def sync(client):
            got = real(client)
            shadows.synced(client, got)
            return got
        return sync

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TekClient, "__init__", made_tek)
        mp.setattr(DhClient, "__init__", made_dh)
        mp.setattr(TekClient, "on_sighting", sighting)
        mp.setattr(TekClient, "sync", syncing(shadows.tek_sync))
        mp.setattr(DhClient, "sync", syncing(shadows.dh_sync))
        mp.setattr(PublishedTekIndex, "wake", waking(tek_wake, shadows.tek_round))
        mp.setattr(PublishedDhIndex, "wake", waking(dh_wake, shadows.dh_round))
        yield shadows
    assert shadows.expected == {}, "a woken client was never synced"


# -- small scenarios ----------------------------------------------------------------

times = st.integers(0, 6000)


@st.composite
def small_run(draw, scheme):
    """One run of at most 12 devices: random contacts, reports and clock
    offsets, and at most one relay, time_travel or fake_claim attack."""
    attack = draw(st.sampled_from([None, None, "relay", "time_travel", "fake_claim"]))
    extra = {"relay": [("ra", "relay"), ("rb", "relay")],
             "time_travel": [("ghost", "replayer")]}.get(attack, [])
    n = draw(st.integers(2, 12 - len(extra)))
    ids = [f"d{i}" for i in range(n)]
    offsets = st.sampled_from([0] * 6 + [-DAY_S, DAY_S - 3000]) | st.integers(-9000, 9000)
    devices = [{"id": i, "clock_offset_s": draw(offsets)} for i in ids]
    devices += [{"id": i, "role": role} for i, role in extra]
    every = ids + [i for i, _ in extra]
    duration = draw(st.integers(600, 7200))
    edges = []
    for _ in range(draw(st.integers(0, 14))):
        a, b = draw(st.sampled_from(every)), draw(st.sampled_from(every))
        start = draw(st.integers(0, duration))
        if a != b:
            edges.append([a, b, start, start + draw(st.integers(5, 2400))])
    reporters = draw(st.lists(st.sampled_from(ids), unique=True, min_size=1, max_size=min(n, 4)))
    # early reports often, so that contacts go on after a key or hash is published
    report_at = st.integers(0, duration // 2) | st.integers(0, duration)
    infections = [{"device": d, "report_at": draw(report_at)} for d in reporters]
    if scheme == "tek":
        config = {"strict_freshness": draw(st.booleans()),
                  "validity_window_s": draw(st.sampled_from([0, 120, 7200])
                                            | st.integers(0, 20000)),
                  "retention_days": draw(st.sampled_from([1, 14]))}
    else:
        rotation = draw(st.sampled_from([300, 900]))
        config = {"rotation_s": rotation, "min_encounter_s": draw(st.integers(0, rotation - 1)),
                  "epsilon_s": draw(st.sampled_from([1, 60, 600]))}
    run = {"label": "main", "scheme": scheme, "devices": devices, "duration_s": duration,
           "contact_trace": edges, "infections": infections, "scheme_config": config}
    if attack == "relay":
        start = draw(times)
        run["attack"] = {"kind": "relay", "node_a": "ra", "node_b": "rb",
                         "mode": draw(st.sampled_from(["one_way_broadcast", "two_way_realtime"])),
                         "window": [start, start + draw(times)],
                         "latency_s": draw(st.sampled_from([0, 30, 300])),
                         "tick_s": draw(st.sampled_from([60, 300]))}
    elif attack == "time_travel":
        at = draw(times)
        run["attack"] = {"kind": "time_travel", "victim": draw(st.sampled_from(ids)),
                         "replayer": "ghost",
                         "offset_s": draw(st.sampled_from([-DAY_S, -600]) | st.integers(-9000, 0)),
                         "at_s": at, "restore_at_s": at + draw(st.integers(0, 3000))}
    elif attack == "fake_claim":
        run["attack"] = {"kind": "fake_claim", "claimant": draw(st.sampled_from(ids)),
                         "at": draw(times)}
        if scheme == "dh":
            run["attack"]["guesses"] = draw(st.integers(0, 2))
    if scheme == "dh" and draw(st.booleans()):
        run["analysis"] = {"superspreader_check": draw(st.lists(st.sampled_from(ids),
                                                                unique=True, max_size=2))}
    return {"id": f"wake_{scheme}", "seed": draw(st.integers(0, 3)), "runs": [run]}


small_scenario = st.sampled_from(["tek", "dh"]).flatmap(small_run)

# b hears a's day key only after the round that published it, and no later
# round brings a key: only the "logged a published identifier since the last
# round" rule wakes b at the last round
LATE_SIGHTING = {"id": "wake_late", "seed": 0, "runs": [{
    "label": "main", "scheme": "tek", "devices": ["a", "b", "c"], "duration_s": 3000,
    "contact_trace": [["a", "b", 1000, 1600], ["a", "c", 0, 600]],
    "infections": [{"device": "a", "report_at": 700}]}]}
# d1 syncs its record in, then reports: its later syncs answer nothing
REPORTED_AFTER_A_RECORD = {"id": "wake_reported", "seed": 0, "runs": [{
    "label": "main", "scheme": "dh", "devices": ["d0", "d1", "d2"], "duration_s": 600,
    "contact_trace": [["d0", "d1", 0, 5]],
    "infections": [{"device": "d0", "report_at": 0}, {"device": "d1", "report_at": 61}],
    "scheme_config": {"rotation_s": 300, "min_encounter_s": 0, "epsilon_s": 1}}]}


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=small_scenario)
@example(scenario=LATE_SIGHTING)
@example(scenario=REPORTED_AFTER_A_RECORD)
def test_a_drawn_run_writes_what_every_device_syncing_wrote_and_skips_only_idle_clients(
        scenario):
    assert_same_as_every_device(scenario)


def test_a_sighting_after_its_key_was_published_wakes_its_listener():
    metrics, shadows = assert_same_as_every_device(LATE_SIGHTING)
    assert metrics["runs"]["main"]["notified_devices"] == ["b", "c"]
    # woken: c at the first round, b at the last; skipped: a and b, then a and c
    assert (shadows.woken, shadows.skipped) == (2, 4)


def test_a_reported_client_whose_own_keys_change_is_woken():
    """Own keys are left out only while retained: once a later day's key
    prunes a published one, a sighting of it may match, so the client is
    woken at the next round though no key arrives."""
    index = PublishedTekIndex()
    client = TekClient(SeedStream(5, "own"), retention_days=1, index=index)
    client.device_id = "a"
    own = client.tek_for_day(0)
    client.make_report("T" * 12)
    page = [{"tek_hex": own.hex, "day": 0, "published_at": 700}]
    client.on_sighting(index.identifiers(own)[1], 630, 630)   # heard back through a relay
    assert index.wake(page) == {"a"}
    assert client.sync() == []
    assert index.wake([]) == set()
    client.tek_for_day(1)
    assert index.wake([]) == {"a"}
    assert [e.key for e in client.sync()] == [(own.hex, 1)]


def test_a_sync_opens_no_round():
    """Only a round's wake hands an index a page: a woken client's sync
    reads the index and leaves it as the round left it, and a second sync
    finds nothing."""
    tek_index = PublishedTekIndex()
    alice, bob = (TekClient(SeedStream(6, name), index=tek_index) for name in ("alice", "bob"))
    alice.device_id, bob.device_id = "alice", "bob"
    for t in range(0, 600, 5):
        bob.on_sighting(alice.advertisement_identifier(t), t, t)
    page = [{**e, "published_at": 700} for e in alice.make_report("T" * 12)["teks"]]
    assert tek_index.wake(page + [{"day": 0}]) == {"bob"}
    opened = (tek_index.round, list(tek_index.published), dict(tek_index.rounds),
              tek_index.skipped)
    assert opened[0] == 1 and opened[3] == 1
    assert len(bob.sync()) == 1
    assert bob.sync() == []
    assert (tek_index.round, tek_index.published, tek_index.rounds, tek_index.skipped) == opened

    dh_index = PublishedDhIndex()
    token = EncounterToken(SeedStream(6, "token").take(32), 0)
    carol, dave = (DhClient(SeedStream(6, name), index=dh_index) for name in ("carol", "dave"))
    for client, name, stamp in ((carol, "carol", 100), (dave, "dave", 110)):
        client.device_id = name
        client.records.append(EncounterRecord(token, stamp))
        dh_index.recorded(client.records[-1].hash_hex, client.device_id)
    page = report_infection_dh(carol.records, "T" * 12)["entries"]
    assert dh_index.wake(page + [{"meta_b64": "AA=="}]) == {"carol", "dave"}
    opened = ({h: list(entries) for h, entries in dh_index.by_hash.items()}, dh_index.skipped)
    assert opened[1] == 1
    assert len(dave.sync()) == 1
    assert dave.sync() == []
    assert (dh_index.by_hash, dh_index.skipped) == opened


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("sid", STANDARD_SUITE)
def test_a_bundled_run_writes_what_every_device_syncing_wrote_and_skips_only_idle_clients(
        sid, seed):
    _, shadows = assert_same_as_every_device(builtin_scenario(sid), seed)
    if any(run["scheme"] != "centralized" for run in builtin_scenario(sid)["runs"]):
        assert shadows.woken + shadows.skipped > 0
