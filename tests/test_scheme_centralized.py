from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctlab import scenario as scenario_module
from dctlab.cli import builtin_scenario
from dctlab.crypto_core import DAY_S, derive_bluetrace_id, derive_centralized_id
from dctlab.errors import ConfigurationError, ProtocolError
from dctlab.rng import SeedStream
from dctlab.schemes.centralized import (
    AUTH_TAG_LEN,
    IV_LEN,
    VARIANT_BLUETRACE,
    VARIANT_PEPP_PT,
    CentralizedClient,
    CentralRegistry,
    ObservedRecord,
    report_infection,
    server_match,
)
from dctlab.scenario import execute_run, run_scenario


def make_client(registry, device_id):
    client = CentralizedClient(registry)
    client.device_id = device_id
    client.register()
    return client


def make_pair(variant):
    registry = CentralRegistry(SeedStream(11, "srv"), variant=variant)
    return registry, make_client(registry, "dev-a")


def day_batch_identifier(registry, user_id, t_k):
    """Window t_k's identifier re-derived under the master key, with its iv and
    auth tag read as the whole-day batch laid them out: the day's stream from
    its start, 16 bytes of iv and 8 of auth tag per window."""
    day, i = divmod(t_k, DAY_S // registry.rotation_s)
    stream = registry.stream.child(f"batch:{user_id}:{day}")
    stream.take(24 * i)
    iv, auth_tag = stream.take(16), stream.take(8)
    return derive_bluetrace_id(user_id, t_k, iv, auth_tag, registry.master)


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
        user_id, t_k = registry._batch_index[ident]
        assert (user_id, t_k) == (uid, t // 900)
        assert day_batch_identifier(registry, user_id, t_k) == ident


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
    uid = client.registration.user_id
    per_day = DAY_S // rotation_s
    # the day's last second beacons the last item of day 0's batch, the next
    # second the first item of day 1's
    last, first = client.advertisement_identifier(DAY_S - 1), client.advertisement_identifier(DAY_S)
    day0 = registry.stream.child(f"batch:{uid}:0")
    day0.take(24 * (per_day - 1))
    assert last == derive_bluetrace_id(uid, per_day - 1, day0.take(16), day0.take(8),
                                       registry.master)
    day1 = registry.stream.child(f"batch:{uid}:1")
    assert first == derive_bluetrace_id(uid, per_day, day1.take(16), day1.take(8),
                                        registry.master)
    assert registry.owners() == {last: uid, first: uid}


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
    client = make_client(registry, "dev-b")
    reg_b = client.registration
    # two identifiers of the same user in different windows, one unknown; the
    # user's client reads both windows, as it does before anyone can sight them
    assert [client.advertisement_identifier(t) for t in (0, 900)] \
        == [derive_centralized_id(reg_b.user_id, t_k) for t_k in (0, 1)]
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


def test_pepp_pt_derives_one_identifier_per_window_read_and_one_per_resolve(monkeypatch):
    from dctlab.schemes import centralized
    registry = CentralRegistry(SeedStream(4, "srv"), variant=VARIANT_PEPP_PT)
    search = SearchRegistry(SeedStream(4, "srv"), variant=VARIANT_PEPP_PT)
    calls = []
    derive = centralized.derive_centralized_id
    monkeypatch.setattr(centralized, "derive_centralized_id",
                        lambda *a: calls.append(a) or derive(*a))
    clients = [make_client(registry, f"dev-{i}") for i in range(3)]
    users = [client.registration.user_id for client in clients]
    for i in range(3):
        search.register(f"dev-{i}")
    assert list(search.users) == users
    r = registry.rotation_s
    # each client reads windows 0 .. 9, beaconing three times in each
    for client in clients:
        for t in range(0, 10 * r, r // 3):
            client.advertisement_identifier(t)
    assert sorted(calls) == sorted((u, w) for u in users for w in range(10))
    del calls[:]
    # overlapping records, two known identifiers outside their records'
    # windows (one just past the last), and an unknown one
    records = [{"id_hex": clients[i % 3].advertisement_identifier(w * r).hex(),
                "first_seen": first, "last_seen": last}
               for i, (w, first, last) in enumerate([
                   (1, r + 10, 2 * r), (2, r, 3 * r - 1), (3, 2 * r, 2 * r + 5),
                   (9, 0, r), (5, 3 * r, 3 * r), (1, 2 * r, 4 * r)])]
    records.append({"id_hex": "ab" * 16, "first_seen": 0, "last_seen": 60})
    got = server_match(records, registry)
    # one derivation per record resolved within its windows, to verify the lookup
    assert calls == [(users[0], 1), (users[1], 2), (users[2], 3), (users[2], 1)]
    assert got == {users[0]: [(r + 10, 2 * r)], users[1]: [(r, 3 * r - 1)],
                   users[2]: [(2 * r, 2 * r + 5), (2 * r, 4 * r)]}
    # the reference search finds the same users, in the same order
    want = server_match(records, search)
    assert got == want and list(got) == list(want)


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
                assert got == day_batch_identifier(registry, uid, t_k)
    windows = {t // 900 for t in times}
    # one pull per window, however often it beacons, on either side of the day boundary
    assert sorted(pulls) == sorted((uid, w) for w in windows)
    # which derives the identifier from the user id (pepp_pt), or under the master key
    assert sorted(derivations) == (sorted(pulls) if variant == VARIANT_PEPP_PT else [])


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


class WholeDayRegistry(CentralRegistry):
    """The earlier bluetrace registry, kept as the reference: a user's first
    pull of a day derives and indexes every window of the day, with its iv and
    auth tag, and resolve re-derives from the stored iv and tag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.days: dict[tuple[str, int], list[bytes]] = {}
        self.issued: dict[bytes, tuple[str, int, bytes, bytes]] = {}

    def issue_batch(self, user_id, t_k):
        if user_id not in self.users:
            raise ProtocolError(f"unknown user {user_id}")
        day = t_k // self.batch_size
        if (user_id, day) not in self.days:
            batch = []
            base = day * self.batch_size
            batch_stream = self.stream.child(f"batch:{user_id}:{day}")
            for window in range(base, base + self.batch_size):
                iv = batch_stream.take(IV_LEN)
                auth_tag = batch_stream.take(AUTH_TAG_LEN)
                ident = derive_bluetrace_id(user_id, window, iv, auth_tag, self.master)
                self.issued[ident] = (user_id, window, iv, auth_tag)
                batch.append(ident)
            self.days[(user_id, day)] = batch
        return self.days[(user_id, day)][t_k - day * self.batch_size]

    def owners(self):
        return {ident: user_id for ident, (user_id, _, _, _) in self.issued.items()}

    def resolve(self, identifier, first_seen, last_seen):
        hit = self.issued.get(identifier)
        if hit is None:
            return None
        user_id, t_k, iv, auth_tag = hit
        rederived = derive_bluetrace_id(user_id, t_k, iv, auth_tag, self.master)
        return user_id if rederived == identifier else None


class SearchRegistry(CentralRegistry):
    """The earlier pepp_pt registry, kept as the reference resolver. It indexes
    nothing: a client derives its identifiers from its user id, resolve
    searches every registered user at each of a record's windows
    first_seen // r - 1 .. last_seen // r + 1, and owners() every registered
    user at each window of `windows`."""

    windows = range(0)

    def issue_batch(self, user_id, t_k):
        if user_id not in self.users:
            raise ProtocolError(f"unknown user {user_id}")
        return derive_centralized_id(user_id, t_k)

    def search(self, windows):
        return {derive_centralized_id(user_id, t_k): user_id
                for user_id in self.users for t_k in windows}

    def owners(self):
        return self.search(self.windows)

    def resolve(self, identifier, first_seen, last_seen):
        r = self.rotation_s
        return self.search(range(first_seen // r - 1, last_seen // r + 2)).get(identifier)


def _variant(doc: dict, variant: str, rotation_s: int) -> dict:
    """doc with each centralized run under variant at rotation_s."""
    runs = [dict(run, scheme_config=dict(run.get("scheme_config", {}), variant=variant,
                                         rotation_s=rotation_s))
            if run["scheme"] == "centralized" else run for run in doc["runs"]]
    return dict(doc, runs=runs)


def _population_day(monkeypatch, seed: int) -> dict:
    """The benchmark's population day at N=30, as perfbench/population.py builds it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import population
    return population.population_scenario("centralized", 30, seed)


DIFFERENTIAL = ["relay_centralized", "linkage_centralized", "social_graph", "superspreader",
                "fake_claim_centralized", "population"]


@pytest.mark.parametrize("rotation_s", [60, 900])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", DIFFERENTIAL)
def test_window_by_window_issuance_writes_what_whole_day_batches_wrote(
        monkeypatch, tmp_path, case, seed, rotation_s):
    doc = _population_day(monkeypatch, seed) if case == "population" else builtin_scenario(case)
    doc = _variant(doc, VARIANT_BLUETRACE, rotation_s)
    if case == "linkage_centralized":
        assert doc["runs"][0]["analysis"]["colluding_sp"]
    states = _run_states(monkeypatch)
    run_scenario(doc, seed, out_dir=tmp_path / "lazy")
    with monkeypatch.context() as m:
        m.setattr(scenario_module, "CentralRegistry", WholeDayRegistry)
        run_scenario(doc, seed, out_dir=tmp_path / "whole")
    for name in ("metrics.json", "events.jsonl"):
        assert (tmp_path / "lazy" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()
    # both runs went through the registries compared, and the lazy one issued less
    lazy = [s.server.registry for s in states[:len(states) // 2] if s.server.registry is not None]
    whole = [s.server.registry for s in states[len(states) // 2:] if s.server.registry is not None]
    assert lazy and all(type(r) is CentralRegistry for r in lazy)
    assert all(type(r) is WholeDayRegistry for r in whole)
    assert sum(map(len, (r._batch_index for r in lazy))) < sum(map(len, (r.issued for r in whole)))


@pytest.mark.parametrize("sid", ["relay_centralized", "social_graph", "fake_claim_centralized"])
def test_registry_derives_one_identifier_per_window_read_and_one_per_resolve(monkeypatch, sid):
    from dctlab.schemes import centralized
    reads, derivations, resolves = set(), [], []
    read, derive, resolve = (CentralizedClient._identifier_for_window,
                             centralized.derive_bluetrace_id, CentralRegistry.resolve)

    def reading(client, t_k):
        reads.add((client.registration.user_id, t_k))
        return read(client, t_k)

    monkeypatch.setattr(CentralizedClient, "_identifier_for_window", reading)
    monkeypatch.setattr(centralized, "derive_bluetrace_id",
                        lambda *a: derivations.append(a[:2]) or derive(*a))
    monkeypatch.setattr(CentralRegistry, "resolve",
                        lambda *a: resolves.append(a[1]) or resolve(*a))
    states = _run_states(monkeypatch)
    run_scenario(builtin_scenario(sid))
    assert reads and resolves
    assert set(derivations) <= reads
    assert len(derivations) <= len(reads) + len(resolves)
    for registry in (s.server.registry for s in states if s.server.registry is not None):
        # the index holds (user, window) only: no iv and no auth tag
        assert all(type(u) is str and type(t_k) is int
                   for u, t_k in registry._batch_index.values())
        assert set(registry._batch_index.values()) <= reads


def _clock_offset(doc: dict, device: str, offset_s: int) -> dict:
    """doc with device's clock offset_s seconds off in every run."""
    runs = [dict(run, devices=[{"id": dev, "clock_offset_s": offset_s} if dev == device else dev
                               for dev in run["devices"]]) for run in doc["runs"]]
    return dict(doc, runs=runs)


def _clock_windows(doc: dict, rotation_s: int) -> range:
    """Every window a device clock of doc reads, and one more on either side."""
    offsets = [0] + [dev["clock_offset_s"] for run in doc["runs"] for dev in run["devices"]
                     if type(dev) is dict and "clock_offset_s" in dev]
    end = max(run["duration_s"] for run in doc["runs"]) + max(offsets)
    return range(min(offsets) // rotation_s - 1, end // rotation_s + 2)


PEPP_PT_DIFFERENTIAL = ["relay_centralized", "linkage_centralized", "linkage_ahead",
                        "linkage_behind", "social_graph", "superspreader",
                        "fake_claim_centralized", "population"]


@pytest.mark.parametrize("rotation_s", [60, 900])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", PEPP_PT_DIFFERENTIAL)
def test_pepp_pt_index_lookup_writes_what_the_search_wrote(
        monkeypatch, tmp_path, case, seed, rotation_s):
    if case == "population":
        doc = _population_day(monkeypatch, seed)
    elif case.startswith("linkage_"):
        # the colluding provider, with the walker's clock a day ahead or ten hours behind
        offset_s = {"linkage_ahead": 90000, "linkage_behind": -36000}.get(case, 0)
        doc = _clock_offset(builtin_scenario("linkage_centralized"), "walker", offset_s)
    else:
        doc = builtin_scenario(case)
    doc = _variant(doc, VARIANT_PEPP_PT, rotation_s)
    states = _run_states(monkeypatch)
    run_scenario(doc, seed, out_dir=tmp_path / "index")
    with monkeypatch.context() as m:
        m.setattr(scenario_module, "CentralRegistry", SearchRegistry)
        m.setattr(SearchRegistry, "windows", _clock_windows(doc, rotation_s))
        run_scenario(doc, seed, out_dir=tmp_path / "search")
    for name in ("metrics.json", "events.jsonl"):
        assert (tmp_path / "index" / name).read_bytes() == (tmp_path / "search" / name).read_bytes()
    index, search = states[:len(states) // 2], states[len(states) // 2:]
    assert [s.server.match_history for s in index] == [s.server.match_history for s in search]
    # both runs went through the registries compared
    central = sum(run["scheme"] == "centralized" for run in doc["runs"])
    assert [type(s.server.registry) for s in index if s.server.registry is not None] \
        == [CentralRegistry] * central
    assert [type(s.server.registry) for s in search if s.server.registry is not None] \
        == [SearchRegistry] * central
