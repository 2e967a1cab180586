from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctlab import scenario as scenario_module
from dctlab.cli import builtin_scenario
from dctlab.crypto_core import DAY_S, derive_bluetrace_id, derive_centralized_id
from dctlab.errors import ConfigurationError, ProtocolError
from dctlab.rng import SeedStream
from dctlab.schemes.centralized import (
    VARIANT_BLUETRACE,
    VARIANT_PEPP_PT,
    CentralizedClient,
    CentralRegistry,
    ObservedRecord,
    report_infection,
    server_match,
)
from dctlab.scenario import execute_run, run_scenario


def make_pair(variant):
    registry = CentralRegistry(SeedStream(11, "srv"), variant=variant)
    client = CentralizedClient(registry)
    client.device_id = "dev-a"
    client.register()
    return registry, client


def test_one_hour_window_four_identifiers():
    _, client = make_pair(VARIANT_PEPP_PT)
    idents = [client.advertisement_identifier(t) for t in range(0, 3600, 900)]
    assert len(idents) == 3600 // 900
    assert len(set(idents)) == 4


def test_pepp_pt_identifier_is_local_derivation():
    _, client = make_pair(VARIANT_PEPP_PT)
    uid = client.registration.user_id
    assert client.advertisement_identifier(950) == derive_centralized_id(uid, 1)


def test_bluetrace_identifiers_verify_under_master_rederivation():
    registry, client = make_pair(VARIANT_BLUETRACE)
    uid = client.registration.user_id
    for t in range(0, 3600, 900):
        ident = client.advertisement_identifier(t)
        user_id, t_k, iv, auth_tag = registry._batch_index[ident]
        assert (user_id, t_k) == (uid, t // 900)
        assert derive_bluetrace_id(user_id, t_k, iv, auth_tag, registry.master) == ident


@pytest.mark.parametrize("rotation_s", [7, 0, -900, 900.0, True])
def test_registry_refuses_a_rotation_that_does_not_tile_a_day(rotation_s):
    # a bluetrace day batch holds DAY_S // rotation_s windows; with 7 s, the
    # last windows of a day fell outside it and beaconing raised KeyError
    with pytest.raises(ConfigurationError, match="divides 86400"):
        CentralRegistry(SeedStream(11, "srv"), rotation_s=rotation_s)


@pytest.mark.parametrize("rotation_s", [60, 900])
def test_registry_accepts_a_rotation_that_tiles_a_day(rotation_s):
    registry = CentralRegistry(SeedStream(11, "srv"), rotation_s=rotation_s)
    client = CentralizedClient(registry)
    client.device_id = "dev-a"
    client.register()
    batch = registry.issue_batch(client.registration.user_id, 0)
    assert len(batch) == DAY_S // rotation_s
    assert client.advertisement_identifier(DAY_S - 1) == batch[-1]


def test_unregistered_client_cannot_beacon():
    registry = CentralRegistry(SeedStream(1, "srv"), variant=VARIANT_PEPP_PT)
    client = CentralizedClient(registry)
    with pytest.raises(ProtocolError):
        client.advertisement_identifier(0)


def test_report_bundle_contents():
    records = [ObservedRecord(bytes([i]) * 16, i * 100, i * 100 + 60)
               for i in range(3)]
    bundle = report_infection(records, tan="TANTANTANTAN")
    assert bundle["scheme"] == "centralized"
    assert len(bundle["records"]) == 3
    assert report_infection([], "TANTANTANTAN")["records"] == []


def test_server_match_resolves_and_groups():
    registry = CentralRegistry(SeedStream(2, "srv"), variant=VARIANT_PEPP_PT)
    reg_b = registry.register("dev-b")
    # two identifiers of the same user in different windows, one unknown
    records = [
        {"id_hex": derive_centralized_id(reg_b.user_id, 0).hex(),
         "first_seen": 10, "last_seen": 800},
        {"id_hex": derive_centralized_id(reg_b.user_id, 1).hex(),
         "first_seen": 905, "last_seen": 1700},
        {"id_hex": "ab" * 16, "first_seen": 0, "last_seen": 60},
    ]
    matches = server_match(records, registry)
    assert list(matches) == [reg_b.user_id]
    assert matches[reg_b.user_id] == [(10, 800), (905, 1700)]


def test_pepp_pt_server_match_derives_each_user_window_once_per_bundle(monkeypatch):
    from dctlab.schemes import centralized
    registry = CentralRegistry(SeedStream(4, "srv"), variant=VARIANT_PEPP_PT)
    users = [registry.register(f"dev-{i}").user_id for i in range(3)]
    r = registry.rotation_s
    # overlapping records, two known identifiers outside their records'
    # windows (one just past the last), and an unknown one
    records = [{"id_hex": derive_centralized_id(users[i % 3], w).hex(),
                "first_seen": first, "last_seen": last}
               for i, (w, first, last) in enumerate([
                   (1, r + 10, 2 * r), (2, r, 3 * r - 1), (3, 2 * r, 2 * r + 5),
                   (9, 0, r), (5, 3 * r, 3 * r), (1, 2 * r, 4 * r)])]
    records.append({"id_hex": "ab" * 16, "first_seen": 0, "last_seen": 60})
    want = {}
    for rec in records:
        user_id = registry.resolve(bytes.fromhex(rec["id_hex"]), rec["first_seen"],
                                   rec["last_seen"])
        if user_id is not None:
            want.setdefault(user_id, []).append((rec["first_seen"], rec["last_seen"]))
    calls = []
    derive = centralized.derive_centralized_id

    def counted(user_id, t_k):
        calls.append((user_id, t_k))
        return derive(user_id, t_k)

    monkeypatch.setattr(centralized, "derive_centralized_id", counted)
    got = server_match(records, registry)
    assert got == want and list(got) == list(want)
    assert len(want) == 3 and sum(map(len, want.values())) == 4
    # windows -1 .. 5 are the union of the records' own ranges
    assert sorted(calls) == sorted((u, w) for u in users for w in range(-1, 6))


def test_server_match_bluetrace_roundtrip():
    registry = CentralRegistry(SeedStream(3, "srv"), variant=VARIANT_BLUETRACE)
    client = CentralizedClient(registry)
    client.device_id = "dev-b"
    client.register()
    ident = client.advertisement_identifier(1000)
    matches = server_match([{"id_hex": ident.hex(), "first_seen": 1000, "last_seen": 1100}],
                           registry)
    assert list(matches) == [client.registration.user_id]


def test_sightings_merge_into_records():
    _, client = make_pair(VARIANT_PEPP_PT)
    ident = b"\x07" * 16
    for t in (0, 5, 10, 15):
        client.on_sighting(ident, t, t)
    client.on_sighting(ident, 500, 500)  # gap > merge threshold
    assert len(client.records) == 2
    assert (client.records[0].first_seen, client.records[0].last_seen) == (0, 15)
    assert all(r.first_seen <= r.last_seen for r in client.records)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((b"x", b"y")), st.integers(-100, 300),
                          st.integers(1, 20)), max_size=10))
def test_a_span_of_sightings_records_as_its_ticks_one_by_one(sightings):
    _, spans = make_pair(VARIANT_PEPP_PT)
    _, ticks = make_pair(VARIANT_PEPP_PT)
    for ident, t, n in sightings:
        spans.on_sighting(ident, t, t, n)
        for k in range(n):
            ticks.on_sighting(ident, t + 5 * k, t + 5 * k)
    assert [r.as_dict() for r in spans.records] == [r.as_dict() for r in ticks.records]


@pytest.mark.parametrize("variant", [VARIANT_PEPP_PT, VARIANT_BLUETRACE])
def test_client_identifier_cache_matches_derivation_and_batches(monkeypatch, variant):
    from dctlab.schemes import centralized
    registry, client = make_pair(variant)
    uid = client.registration.user_id
    derivations, pulls = [], []
    derive, issue = centralized.derive_centralized_id, registry.issue_batch
    monkeypatch.setattr(centralized, "derive_centralized_id",
                        lambda *a: derivations.append(a) or derive(*a))
    monkeypatch.setattr(registry, "issue_batch", lambda *a: pulls.append(a) or issue(*a))
    # across the day boundary, then with the clock moved back by an hour, twice over
    times = list(range(DAY_S - 1800, DAY_S + 1800, 60))
    times += [t - 3600 for t in times]
    for _ in range(2):
        for t in times:
            t_k = t // 900
            got = client.advertisement_identifier(t)
            if variant == VARIANT_PEPP_PT:
                assert got == derive_centralized_id(uid, t_k)
            else:
                day = t // DAY_S
                assert got == issue(uid, day)[t_k - day * registry.batch_size]
    windows = {t // 900 for t in times}
    if variant == VARIANT_PEPP_PT:
        assert len(derivations) == len(windows)     # one per window, however often it beacons
        assert pulls == []
    else:
        assert sorted(pulls) == [(uid, 0), (uid, 1)] and derivations == []


def _run_states(monkeypatch) -> list:
    """The _RunState of each run executed from now on, as it is when the run ends."""
    states = []
    collect = scenario_module._collect_metrics
    monkeypatch.setattr(scenario_module, "_collect_metrics",
                        lambda run_cfg, state: states.append(state) or collect(run_cfg, state))
    return states


BUNDLED = sorted(path.name.removesuffix(".json")
                 for path in resources.files("dctlab").joinpath("scenarios").iterdir()
                 if path.name.endswith(".json"))
WITH_CENTRALIZED = [sid for sid in BUNDLED
                    if any(run["scheme"] == "centralized" for run in builtin_scenario(sid)["runs"])]


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("sid", WITH_CENTRALIZED)
def test_a_scenario_run_leaves_no_note_queued(monkeypatch, sid, seed):
    """The driver polls every note an upload queues right after the upload,
    as an app polls notify_poll, so no run ends with a note undelivered."""
    states = _run_states(monkeypatch)
    metrics = run_scenario(builtin_scenario(sid), seed)
    assert len(states) == len(metrics["runs"])
    assert [state.server.notifications for state in states] == [{}] * len(states)


def test_an_uploads_notes_come_in_match_order_before_its_report(monkeypatch):
    # a met c before b, so its upload's records, and the server's matches, name c first
    run = {"label": "fan", "scheme": "centralized", "devices": ["a", "b", "c"],
           "contact_trace": [["a", "c", 0, 600], ["a", "b", 900, 1500]],
           "infections": [{"device": "a", "report_at": 1600}], "duration_s": 1700}
    states, events = _run_states(monkeypatch), []
    metrics = execute_run(run, SeedStream(3, "fan"), events.append)
    matched = [m["contact_device"] for m in states[0].server.match_history]
    assert matched == ["c", "b"]
    assert [(e.kind, e.payload["device"]) for e in events if e.kind in ("notify", "report")] \
        == [("notify", "c"), ("notify", "b"), ("report", "a")]
    assert metrics["notifications"] == {"b": 1, "c": 1}
