"""Attack-model tests, including the randomized one-way-relay sweep."""

import json
from collections import namedtuple
from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from dctlab import adversary
from dctlab.crypto_core import (DAY_S, Tek, derive_bluetrace_id, derive_centralized_id,
                                derive_day_identifiers)
from dctlab.radio import SCAN_TICK_S
from dctlab.rng import SeedStream
from dctlab.cli import builtin_scenario
from dctlab.scenario import execute_run, run_scenario
from dctlab.schemes.centralized import CentralizedClient, CentralRegistry
from dctlab.schemes.tek import PublishedTekIndex


def one_way_relay_run(scheme, seed, n_targets=5, window_end=600):
    """Small randomized one-way relay scenario built from a seed."""
    stream = SeedStream(seed, "fuzz")
    targets = [f"t{i}" for i in range(n_targets)]
    start = stream.randrange(100)
    cfg = {"group": "x25519"} if scheme == "dh" else {}
    if scheme == "centralized":
        cfg = {"variant": "bluetrace"}
    run = {
        "label": "one_way", "scheme": scheme, "scheme_config": cfg,
        "devices": ["patient", "friend", {"id": "w_in", "role": "relay"},
                    {"id": "w_out", "role": "relay"}] + targets,
        "contact_trace": [["patient", "friend", start, start + 600],
                          ["patient", "w_in", start, start + window_end]]
                         + [[t, "w_out", start, start + window_end] for t in targets],
        "attack": {"kind": "relay", "mode": "one_way_broadcast", "node_a": "w_in",
                   "node_b": "w_out", "window": [start, start + window_end],
                   "tick_s": 60 + int(stream.randrange(120))},
        "infections": [{"device": "patient", "report_at": start + window_end + 100}],
        "duration_s": start + window_end + 300,
    }
    return execute_run(run, SeedStream(seed, "world"))


def test_one_way_relay_never_touches_dh_over_many_seeds():
    # quantified sweep: no seed produces a single false exposure against DH
    for seed in range(100):
        metrics = one_way_relay_run("dh", seed)
        assert metrics["false_notifications"] == 0, f"seed {seed}"


def test_one_way_relay_hits_tek():
    metrics = one_way_relay_run("tek", seed=3)
    assert metrics["false_notifications"] == 5


def delayed_replay_run(validity_window_s):
    """Capture beacons now, re-broadcast them an hour later elsewhere."""
    run = {
        "label": "delayed", "scheme": "tek",
        "scheme_config": {"validity_window_s": validity_window_s},
        "devices": ["patient", {"id": "w_in", "role": "relay"},
                    {"id": "w_out", "role": "relay"}, "t0", "t1"],
        "contact_trace": [["patient", "w_in", 0, 600],
                          ["t0", "w_out", 3600, 4300], ["t1", "w_out", 3600, 4300]],
        "attack": {"kind": "relay", "mode": "one_way_broadcast", "node_a": "w_in",
                   "node_b": "w_out", "window": [0, 600], "latency_s": 3600,
                   "tick_s": 120},
        "infections": [{"device": "patient", "report_at": 4400}],
        "duration_s": 4600,
    }
    return execute_run(run, SeedStream(9, "delay"))


def test_delayed_replay_inside_two_hour_window_matches():
    # displaced by ~1 h: accepted under the deployed 7200 s window
    metrics = delayed_replay_run(validity_window_s=7200)
    assert metrics["false_notifications"] == 2


def test_delayed_replay_rejected_by_tight_window_profile():
    # displaced by ~1 h: refused under a 120 s window, the "fixed" profile
    metrics = delayed_replay_run(validity_window_s=120)
    assert metrics["false_notifications"] == 0


def test_two_way_relay_bounded_by_connection_budget():
    targets = [f"t{i:02d}" for i in range(12)]
    run = {
        "label": "two_way", "scheme": "dh", "scheme_config": {"group": "x25519"},
        "devices": ["victim", {"id": "w_in", "role": "relay"},
                    {"id": "w_out", "role": "relay"}] + targets,
        "contact_trace": [["victim", "w_in", 0, 800]]
                         + [[t, "w_out", 0, 800] for t in targets],
        "attack": {"kind": "relay", "mode": "two_way_realtime", "node_a": "w_in",
                   "node_b": "w_out", "window": [0, 800], "latency_s": 0, "tick_s": 60},
        "infections": [{"device": "victim", "report_at": 900}],
        "duration_s": 1200,
    }
    metrics = execute_run(run, SeedStream(1, "w"))
    assert metrics["attack"]["relayed_connections"] == 8
    assert metrics["attack"]["relay_rejects"] == 4
    assert 1 <= metrics["false_notifications"] <= 8


def tek_owners(published):
    """The owner map the public TEK feed gives: each identifier of a published key, to the key."""
    index = PublishedTekIndex()
    for pub in published:
        index.identifiers(pub)
    return {ident: f"tek:{tek_hex[:16]}" for ident, (tek_hex, _) in index.by_identifier.items()}


def make_run(first, ident, sniffer="sn1", ticks=1):
    """A sniffer's run of ticks sightings of ident, one scan tick apart from first."""
    return adversary.SnifferObservation(ident, first, first + SCAN_TICK_S * (ticks - 1), sniffer)


Sighting = namedtuple("Sighting", "at identifier sniffer_id")


def expand(runs):
    """Each run as its sightings, one per tick: what the per-sighting references read."""
    return [Sighting(at, run.identifier, run.sniffer_id) for run in runs
            for at in range(run.first_at, run.last_at + 1, SCAN_TICK_S)]


def test_linkage_groups_only_published_material():
    tek = Tek(SeedStream(1, "t").take(16), 0)
    other = Tek(SeedStream(2, "t").take(16), 0)
    ids = derive_day_identifiers(tek)
    observations = [make_run(1000, ids[1]), make_run(50000, ids[83]),
                    make_run(2000, derive_day_identifiers(other)[3])]
    report = adversary.run_linkage(observations, tek_owners([tek]))
    assert report["tracks"] == 1
    assert report["max_track_duration_s"] == 49000
    assert report["max_track_sightings"] == 2
    empty = adversary.run_linkage(observations, tek_owners([]))
    assert empty["tracks"] == 0 and empty["max_track_duration_s"] == 0


def test_linkage_tracks_partition_attributed_sightings():
    tek_a = Tek(SeedStream(5, "t").take(16), 0)
    tek_b = Tek(SeedStream(6, "t").take(16), 0)
    observations = []
    for tek, base in ((tek_a, 0), (tek_b, 40000)):
        for k in (0, 5, 9):
            observations.append(make_run(base + k * 600, derive_day_identifiers(tek)[k]))
    report = adversary.run_linkage(
        observations, tek_owners([tek_a, tek_b]))
    assert report["tracks"] == 2 and report["max_track_sightings"] == 3
    # a partition: each key's track alone holds its 3 sightings, so nothing is shared or lost
    for tek in (tek_a, tek_b):
        assert adversary.run_linkage(observations, tek_owners([tek]))["max_track_sightings"] == 3


def test_dh_pseudonym_grouping_bounded_by_rotation():
    observations = [make_run(0, b"\x01" * 16, ticks=179), make_run(900, b"\x02" * 16, ticks=179)]
    report = adversary.run_linkage(observations)
    assert report["tracks"] == 2
    assert report["max_track_duration_s"] <= 900
    assert report["max_track_sightings"] == 179


def test_sniffer_emits_no_radio_traffic():
    client = adversary.SnifferClient()
    assert client.advertisement_identifier(0) is None
    assert client.wants_connection("anyone", 0) is False


def test_a_sniffer_merges_runs_as_the_sighting_log_does():
    client = adversary.SnifferClient()
    client.device_id = "sn"
    client.on_sighting(A, 7, 100, ticks=3)      # 100, 105, 110
    client.on_sighting(B, 7, 105)
    client.on_sighting(A, 7, 115, ticks=2)      # one tick on: the run goes on to 120
    client.on_sighting(A, 7, 120)               # a duplicate starts a new run
    client.on_sighting(B, 7, 115)               # a gap starts a new run
    client.on_sighting(A, 7, 125, ticks=4)      # extends the newest run of A
    assert [(r.identifier, r.first_at, r.last_at, r.ticks, r.sniffer_id) for r in client.runs] \
        == [(A, 100, 120, 5, "sn"), (B, 105, 105, 1, "sn"), (A, 120, 140, 5, "sn"),
            (B, 115, 115, 1, "sn")]


def test_time_travel_gives_the_victim_its_own_clock_offset_back():
    # mark runs 30 s ahead of the world; restore_at_s sets that offset again, not 0
    run = dict(builtin_scenario("time_travel")["runs"][0],
               devices=["patient", "friend", {"id": "mark", "clock_offset_s": 30},
                        {"id": "ghost", "role": "replayer"}])
    events = []
    execute_run(run, SeedStream(1, "time_travel"), events.append)
    assert [(e.at_s, e.payload) for e in events if e.kind == "clock_set"] \
        == [(87000, {"device": "mark", "offset_s": -86400}),
            (87500, {"device": "mark", "offset_s": 30})]


def test_fake_claim_against_empty_feed_fails():
    from dctlab.server import TracingServer
    server = TracingServer(SeedStream(1, "empty"))
    claim = adversary.fake_claim_tek(server, claimant_local_t=500, tek_index=PublishedTekIndex())
    assert claim["accepted"] is False
    dh = adversary.fake_claim_dh(server, SeedStream(2, "em"), guesses=4)
    assert dh["accepted"] is False and dh["proof_accepted"] == 0


def test_fake_claim_dh_skips_a_replayed_entry_that_breaks_the_feed_table(tmp_path):
    # replay applies a spend's entries unchecked; the claim reads the page as clients do
    from dctlab.server import STATE_LOG, TracingServer
    good = {"hash_hex": "ab" * 32, "meta_b64": "AAAA", "published_at": 0}
    records = [{"op": "issue", "tan": "T1", "issued_to": "d"},
               {"op": "spend", "tan": "T1", "scheme": "dh",
                "entries": [{"meta_b64": "AAAA", "published_at": 0}, good]}]
    (tmp_path / STATE_LOG).write_text("".join(json.dumps(r) + "\n" for r in records))
    server = TracingServer(SeedStream(1, "bad"), state_dir=tmp_path)
    assert len(server.fetch_feed("dh")[0]) == 2
    dh = adversary.fake_claim_dh(server, SeedStream(2, "x"), guesses=2)
    assert dh == {"accepted": False, "proof_accepted": 0, "fabricated_exposures": 0}


def test_fake_claim_skips_a_key_published_for_a_day_no_clock_reads():
    # the feed takes any non-negative day; a sighting log keeps only times below 2**60
    from dctlab.server import TracingServer
    server, index = TracingServer(SeedStream(1, "far")), PublishedTekIndex()
    teks = [{"tek_hex": "ab" * 16, "day": 10**15}, {"tek_hex": "cd" * 16, "day": 10**15 + 1}]
    server.accept_upload({"scheme": "tek", "tan": server.issue_tan("x").value, "teks": teks})
    assert adversary.fake_claim_tek(server, claimant_local_t=500, tek_index=index) == {
        "accepted": False, "fabricated_exposures": 0}
    server.accept_upload({"scheme": "tek", "tan": server.issue_tan("y").value,
                          "teks": [{"tek_hex": "ef" * 16, "day": 3}]})
    assert adversary.fake_claim_tek(server, claimant_local_t=500, tek_index=index) == {
        "accepted": True, "fabricated_exposures": 1}


def per_tick_fake_claim_centralized(server, claimant_device, runs):
    """The fake centralized claim as it was: one record per sniffed tick, in
    time order, and ticks heard at one time in the order their runs began."""
    tan = server.issue_tan(claimant_device)
    ticks = sorted(((at, run.identifier) for run in runs
                    for at in range(run.first_at, run.last_at + 1, SCAN_TICK_S)),
                   key=lambda tick: tick[0])
    records = [{"id_hex": ident.hex(), "first_seen": at, "last_seen": at + 60}
               for at, ident in ticks]
    ack = server.accept_upload({"scheme": "centralized", "tan": tan.value,
                                "records": records})
    return {"accepted": ack["matched_users"] > 0,
            "victims_notified": ack["matched_users"]}


def recording(claim, seen):
    """claim, keeping in seen the runs it was given, the records it uploaded,
    what it returned and the users it matched, in match order."""
    def recorded(server, claimant_device, runs):
        accept = server.accept_upload

        def upload(bundle):
            seen["records"] = bundle["records"]
            return accept(bundle)

        server.accept_upload, before = upload, len(server.match_history)
        try:
            seen["result"] = claim(server, claimant_device, runs)
        finally:
            del server.accept_upload
        seen["runs"] = list(runs)
        seen["matched"] = [m["contact_user"] for m in server.match_history[before:]]
        return seen["result"]
    return recorded


@pytest.mark.parametrize("variant", ["bluetrace", "pepp_pt"])
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_a_fake_centralized_claim_uploads_a_run_as_one_record_and_notifies_as_per_tick(
        monkeypatch, seed, variant):
    scenario = builtin_scenario("fake_claim_centralized")
    scenario["runs"][0]["scheme_config"]["variant"] = variant
    shipped, per_tick = {}, {}
    for claim, seen in ((adversary.fake_claim_centralized, shipped),
                        (per_tick_fake_claim_centralized, per_tick)):
        monkeypatch.setattr(adversary, "fake_claim_centralized", recording(claim, seen))
        run_scenario(scenario, seed=seed)
    runs = shipped["runs"]
    assert shipped["records"] == [{"id_hex": r.identifier.hex(), "first_seen": r.first_at,
                                   "last_seen": r.last_at + 60} for r in runs]
    assert len(per_tick["records"]) == sum(r.ticks for r in runs) > len(runs)
    assert shipped["result"] == per_tick["result"]
    assert shipped["matched"] == per_tick["matched"]
    assert len(set(shipped["matched"])) == shipped["result"]["victims_notified"] > 0


def test_social_graph_without_uploads_is_empty():
    from dctlab.server import TracingServer
    server = TracingServer(SeedStream(3, "sg"))
    for owners in (None, tek_owners([])):
        graph = adversary.run_social_graph(server, [], owners)
        assert graph["recovered_edge_count"] == 0


# -- colluding centralized provider -------------------------------------------------

def reference_registry_identifier(registry, user_id, t_k):
    """The identifier of (user, window) under the provider's keys, as the earlier
    whole-day batch derived it: the day's stream read from its start, 16 bytes
    of iv and 8 of auth tag per window."""
    if registry.variant == "pepp_pt":
        return derive_centralized_id(user_id, t_k)
    day, i = divmod(t_k, DAY_S // registry.rotation_s)
    stream = registry.stream.child(f"batch:{user_id}:{day}")
    stream.take(24 * i)
    iv, auth_tag = stream.take(16), stream.take(8)
    return derive_bluetrace_id(user_id, t_k, iv, auth_tag, registry.master)


def reference_colluding_linkage(observations, registry, scanned_windows):
    """The earlier centralized branch of run_linkage, kept as a reference."""
    lo, hi = scanned_windows
    ids_of_user = {}
    for user_id in registry.users:
        for t_k in range(lo, hi + 1):
            ids_of_user[reference_registry_identifier(registry, user_id, t_k)] = user_id
    groups = {}
    for o in observations:
        user = ids_of_user.get(o.identifier)
        if user is not None:
            groups.setdefault(f"user:{user}", []).append(o)
    return reference_tracks(groups)


def user_owners(registry):
    return {ident: f"user:{u}" for ident, u in registry.owners().items()}


@pytest.mark.parametrize("variant", ["pepp_pt", "bluetrace"])
def test_registry_owners_match_the_reference_lookup(variant):
    registry = CentralRegistry(SeedStream(4, "reg"), variant=variant)
    clients = []
    for name in ("a", "b", "c"):
        client = CentralizedClient(registry)
        client.device_id = name
        client.register()
        clients.append(client)
    # beacons on both sides of a day boundary; c never beacons on day 1
    observations, read = [], set()
    for i, client in enumerate(clients):
        end = DAY_S + 3600 if i < 2 else DAY_S - 900
        for start in range(DAY_S - 3600, end, registry.rotation_s):
            ident = client.advertisement_identifier(start)
            read.add(ident)
            observations.append(make_run(start + 10 * i, ident, f"sn{i % 2}", ticks=1 + i))
    observations.append(make_run(DAY_S, b"\x07" * 16))    # nobody's identifier
    observations.sort(key=lambda o: (o.first_at, o.sniffer_id, o.identifier))
    per_day = DAY_S // registry.rotation_s
    # the registry maps only the identifiers its clients read
    expected = {}
    for user_id in registry.users:
        for t_k in range(0, 2 * per_day + 1):
            ident = reference_registry_identifier(registry, user_id, t_k)
            if ident in read:
                expected[ident] = user_id
    assert len(expected) == len(read) and registry.owners() == expected
    report = adversary.run_linkage(observations, user_owners(registry))
    assert report == reference_colluding_linkage(expand(observations), registry, (0, 2 * per_day))
    assert report["tracks"] == 3 and report["max_track_duration_s"] > 3600


@pytest.mark.parametrize("variant", ["pepp_pt", "bluetrace"])
def test_colluding_linkage_in_a_run_matches_the_reference(monkeypatch, variant):
    seen = {}
    run_linkage, owners = adversary.run_linkage, CentralRegistry.owners

    def linkage_spy(runs, owners=None):
        seen["runs"] = runs
        seen["report"] = run_linkage(runs, owners)
        return seen["report"]

    def owners_spy(registry):
        # the last call is the linkage analysis, after every upload has resolved
        seen["registry"] = registry
        return owners(registry)

    monkeypatch.setattr(adversary, "run_linkage", linkage_spy)
    monkeypatch.setattr(CentralRegistry, "owners", owners_spy)
    run = dict(builtin_scenario("linkage_centralized")["runs"][0],
               scheme_config={"variant": variant, "mode": "anonymous"})
    metrics = execute_run(run, SeedStream(2, "collude"))
    # every device clock reads windows 0 .. duration_s // 900 in this run
    reference = reference_colluding_linkage(expand(seen["runs"]), seen["registry"],
                                            (0, run["duration_s"] // 900 + 1))
    assert seen["report"] == reference
    assert metrics["linkage"]["tracks"] == reference["tracks"] == 2
    assert metrics["linkage"]["max_track_duration_s"] == reference["max_track_duration_s"] > 3600


@pytest.mark.parametrize("variant", ["pepp_pt", "bluetrace"])
@pytest.mark.parametrize("offset_s", [0, 90000, -36000])
def test_colluding_provider_tracks_a_walker_whatever_its_clock_reads(variant, offset_s):
    # the provider attributes every identifier it issued: the walker's clock a day
    # ahead reads windows past the run's end, and ten hours behind windows below 0;
    # the walker is tracked from 28800 to 75600 s, its last sighting at 75595 s
    run = builtin_scenario("linkage_centralized")["runs"][0]
    devices = [{"id": dev, "clock_offset_s": offset_s} if dev == "walker" else dev
               for dev in run["devices"]]
    run = dict(run, devices=devices, scheme_config={"variant": variant, "mode": "anonymous"})
    linkage = execute_run(run, SeedStream(2, "collude"))["linkage"]
    assert (linkage["tracks"], linkage["max_track_duration_s"]) == (2, 75595 - 28800)


# -- linkage and the social graph against the earlier designs -----------------------

@dataclass
class Track:
    """The earlier linkage's track: every sighting of one label, sorted by time."""

    label: str
    sightings: list

    @property
    def start(self) -> int:
        return self.sightings[0].at

    @property
    def duration_s(self) -> int:
        return self.sightings[-1].at - self.start


def reference_tracks(groups):
    """The earlier _tracks_from_groups, as the dict run_linkage returns."""
    tracks = [Track(label, sorted(obs, key=lambda o: (o.at, o.sniffer_id)))
              for label, obs in groups.items() if obs]
    tracks.sort(key=lambda t: (t.start, t.label))
    return {"tracks": len(tracks),
            "max_track_duration_s": max((t.duration_s for t in tracks), default=0),
            "max_track_sightings": max((len(t.sightings) for t in tracks), default=0)}


def reference_sightings_by_owner(observations, owners):
    groups = {}
    for o in observations:
        label = owners.get(o.identifier)
        if label is not None:
            groups.setdefault(label, []).append(o)
    return groups


def reference_linkage(observations, owners=None):
    """The earlier Track-based run_linkage, kept as a reference."""
    if owners is None:
        owners = {o.identifier: f"beacon:{o.identifier.hex()[:16]}" for o in observations}
    return reference_tracks(reference_sightings_by_owner(observations, owners))


def reference_social_graph(server, observations, owners):
    """The earlier all-pairs run_social_graph, kept as a reference."""
    edges = set()
    for m in server.match_history:
        edges.add(tuple(sorted((m["uploader_device"], m["contact_device"]))))
    sightings = reference_sightings_by_owner(observations, owners or {})
    labels = sorted(sightings)
    for i, la in enumerate(labels):
        for lb in labels[i + 1:]:
            if any(abs(oa.at - ob.at) <= adversary.CO_SIGHT_WINDOW_S
                   and oa.sniffer_id == ob.sniffer_id
                   for oa in sightings[la] for ob in sightings[lb]):
                edges.add((la, lb))
    return {"recovered_edges": sorted(list(e) for e in edges),
            "recovered_edge_count": len(edges)}


A, B, C, D, E = (bytes([i]) * 16 for i in range(5))
OWNERS = {A: "a", B: "b", C: "a", D: "c"}     # A and C are one owner's; E is nobody's
HISTORY = [("a", "b"), ("x", "b")]


def server_with(history):
    return SimpleNamespace(match_history=[{"uploader_device": u, "contact_device": c}
                                          for u, c in history])


run = st.builds(
    make_run,
    # multiples of 300 s land on the window's edges; the rest fall anywhere, off
    # the 5 s grid too, as a relay's injected beacons do
    st.integers(0, 8).map(lambda k: 300 * k) | st.integers(0, 2500),
    st.sampled_from([A, B, C, D, E]), st.sampled_from(["sn1", "sn2", "sn3"]),
    # most runs are short; a long one holds a whole window and more
    st.sampled_from([1, 1, 2, 3]) | st.integers(1, 400))
owner_map = st.none() | st.dictionaries(st.sampled_from([A, B, C, D]),
                                        st.sampled_from(["a", "b", "c"]))
history = st.lists(st.tuples(st.sampled_from("abxy"), st.sampled_from("abxy")), max_size=3)

# each case names what a sweep or a summary could get wrong
CASES = [
    ([make_run(0, A), make_run(600, B)], OWNERS, []),                   # exactly 600 s apart
    ([make_run(0, A), make_run(601, B)], OWNERS, []),                   # one second too far
    # "a" is heard by two sniffers; "b" is near it in time only on the other one
    ([make_run(0, A, "sn1"), make_run(1000, A, "sn2"), make_run(1000, B, "sn1")], OWNERS, []),
    ([make_run(0, A), make_run(500, C), make_run(1000, B)], OWNERS, []),  # A, C: one owner
    ([make_run(0, A), make_run(500, A), make_run(1050, B)], OWNERS, []),  # heard again, still near
    # heard again, "a" is newer than "b": "b" must leave the window before "a" does
    ([make_run(0, A), make_run(100, B), make_run(500, A), make_run(750, D)], OWNERS, []),
    # unsorted: on sn1 "b" came 1000 s after "a"
    ([make_run(1000, B), make_run(700, A, "sn2"), make_run(0, A)], OWNERS, []),
    # an empty map attributes nothing; without one, linkage groups by beacon
    ([make_run(0, A), make_run(10, B), make_run(20, E)], {}, HISTORY),
    ([make_run(0, A), make_run(10, B), make_run(20, E)], None, HISTORY),
    # runs: "b" 600 s after a run of "a" that ends at 500, and one second more
    ([make_run(0, A, ticks=101), make_run(1100, B)], OWNERS, []),
    ([make_run(0, A, ticks=101), make_run(1101, B)], OWNERS, []),
    # "b" heard once, off the grid, inside a long run of "a" that began far earlier
    ([make_run(0, A, ticks=400), make_run(1502, B)], OWNERS, []),
    # a long run of "c" began first and ends last; "b" comes after a short "a"
    ([make_run(0, D, ticks=400), make_run(10, A), make_run(1900, B)], OWNERS, []),
    # one owner's runs overlap; the later one ends first
    ([make_run(0, A, ticks=300), make_run(100, C, ticks=2), make_run(2000, B)], OWNERS, []),
]


def with_cases(history: bool):
    """CASES as @examples; the match history goes only to a test that draws one."""
    def decorate(test):
        for runs, owners, past in CASES:
            test = example(runs=runs, owners=owners,
                           **({"past": past} if history else {}))(test)
        return test
    return decorate


@with_cases(history=False)
@given(runs=st.lists(run, max_size=25), owners=owner_map)
def test_linkage_summary_matches_the_track_reference(runs, owners):
    """The per-run summary against the per-sighting reference, fed each run's ticks."""
    assert adversary.run_linkage(runs, owners) == reference_linkage(expand(runs), owners)


@with_cases(history=True)
@given(runs=st.lists(run, max_size=25), owners=owner_map, past=history)
def test_social_graph_sweep_matches_the_all_pairs_reference(runs, owners, past):
    """The widened-run rule against the all-pairs per-sighting reference, fed
    each run's ticks."""
    server = server_with(past)
    assert (adversary.run_social_graph(server, runs, owners)
            == reference_social_graph(server, expand(runs), owners))
