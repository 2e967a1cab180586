import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from dctlab.crypto_core import Tek, derive_day_identifiers
from dctlab.rng import SeedStream
from dctlab.schemes import tek as tek_mod
from dctlab.schemes.tek import (
    SightingLog,
    TekClient,
    TekStore,
    match_exposures,
    publish_keys,
)


def make_tek(seed: int, day: int) -> Tek:
    return Tek(SeedStream(seed, "tek").take(16), day)


def test_publish_lists_retained_days():
    store = TekStore()
    for d in range(14):
        store.add(make_tek(d, d))
    bundle = publish_keys(store, tan="T" * 12)
    assert bundle["scheme"] == "tek"
    assert len(bundle["teks"]) == 14

    small = TekStore()
    for d in range(3):
        small.add(make_tek(d, d))
    assert len(publish_keys(small, "T" * 12)["teks"]) == 3


def test_retention_prunes_oldest():
    store = TekStore(retention_days=14)
    for d in range(20):
        store.add(make_tek(d, d))
    assert len(store.teks) == 14
    assert min(store.teks) == 6


def test_match_inside_slot():
    tek = make_tek(1, 0)
    ident = derive_day_identifiers(tek)[7]
    log = SightingLog()
    log.append(ident, seen_at=7 * 600 + 30)
    got = match_exposures(log, [tek])
    assert len(got) == 1
    assert got[0].slot == 7


def test_match_rejects_sighting_outside_window():
    tek = make_tek(1, 0)
    ident = derive_day_identifiers(tek)[7]
    log = SightingLog()
    # 3 h after the slot end, window is 2 h
    log.append(ident, seen_at=8 * 600 + 3 * 3600)
    assert match_exposures(log, [tek], validity_window_s=7200) == []
    # but a 2 h displacement is accepted under the default window
    log2 = SightingLog()
    log2.append(ident, seen_at=8 * 600 + 7200 - 1)
    assert len(match_exposures(log2, [tek])) == 1


def test_two_teks_two_exposures():
    teks = [make_tek(1, 0), make_tek(2, 0)]
    log = SightingLog()
    for tek in teks:
        ident = derive_day_identifiers(tek)[3]
        log.append(ident, seen_at=3 * 600 + 5)
    # brute-force oracle: intersect the log against both full schedules
    expected = 0
    logged = set(log.by_identifier)
    for tek in teks:
        expected += sum(1 for i in derive_day_identifiers(tek) if i in logged)
    got = match_exposures(log, teks)
    assert len(got) == expected == 2


def test_repeated_sightings_single_exposure():
    tek = make_tek(1, 0)
    ident = derive_day_identifiers(tek)[0]
    log = SightingLog()
    for t in range(0, 600, 5):
        log.append(ident, seen_at=t)
    assert len(match_exposures(log, [tek])) == 1


def test_kiss_same_day_replay_and_strict_fix():
    # sighting recorded after the key was already published
    tek = make_tek(3, 0)
    ident = derive_day_identifiers(tek)[10]
    log = SightingLog()
    watermarks = {tek.hex: 0}  # key arrived in round 0, the round the sighting is logged in
    log.append(ident, seen_at=10 * 600 + 50, epoch=0)
    published = [tek]
    assert len(match_exposures(log, published)) == 1  # default: accepted
    assert match_exposures(log, published, watermarks=watermarks) == []


def test_exposures_by_day_and_slot():
    tek0, tek1 = make_tek(1, 0), make_tek(2, 1)
    log = SightingLog()
    for tek, slots in ((tek0, (1, 2)), (tek1, (3,))):
        for slot in slots:
            ident = derive_day_identifiers(tek)[slot]
            log.append(ident, tek.day_index * 86400 + slot * 600 + 1)
    exposures = match_exposures(log, [tek0, tek1])
    assert [(e.day_index, e.slot) for e in exposures] == [(0, 1), (0, 2), (1, 3)]


def test_sighting_log_keeps_runs_of_scan_ticks_in_append_order():
    log = SightingLog()
    for ident, seen_at in [(b"x", 50), (b"y", -7), (b"x", 55), (b"y", -2), (b"x", 60),
                           (b"x", 60),                  # a duplicate starts a run
                           (b"x", 20), (b"x", 30)]:     # so do a clock moved back and a gap
        log.append(ident, seen_at, epoch=0)
    # and so does a new epoch, as a sync round opens one
    for ident, seen_at in [(b"y", 3), (b"x", 2**60 - 6), (b"x", 2**60 - 1)]:
        log.append(ident, seen_at, epoch=1)
    assert list(log.by_identifier[b"x"]) == [50, 60, 0, 60, 60, 0, 20, 20, 0, 30, 30, 0,
                                             2**60 - 6, 2**60 - 1, 1]
    assert list(log.by_identifier[b"y"]) == [-7, -2, 0, 3, 3, 1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just("sync"),
                          st.tuples(st.sampled_from((b"x", b"y")), st.integers(-30, 60),
                                    st.integers(1, 6))), max_size=12))
def test_a_span_of_ticks_appends_as_its_ticks_one_by_one(ops):
    spans, ticks, epoch = SightingLog(), SightingLog(), 0
    for op in ops:
        if op == "sync":
            epoch += 1
            continue
        ident, seen_at, n = op
        spans.append(ident, seen_at, n, epoch)
        for k in range(n):
            ticks.append(ident, seen_at + 5 * k, epoch=epoch)
    assert list(spans.by_identifier) == list(ticks.by_identifier)
    assert {i: list(r) for i, r in spans.by_identifier.items()} \
        == {i: list(r) for i, r in ticks.by_identifier.items()}


def test_sighting_log_holds_consecutive_ticks_as_one_run():
    ident = SeedStream(1, "ident").take(16)
    log = SightingLog()
    log.append(ident, 10**9)     # the first tick makes the run; the others extend it
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(1, 10_000):
            log.append(ident, 10**9 + 5 * n)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert list(log.by_identifier[ident]) == [10**9, 10**9 + 5 * 9_999, 0]
    assert held < 256, held


def test_sighting_log_keeps_and_matches_a_clock_before_zero():
    # day 0's slot 0 opens at 0; a clock 30 s behind still lies in the window
    tek = make_tek(1, 0)
    log = SightingLog()
    log.append(derive_day_identifiers(tek)[0], seen_at=-30)
    exposures = match_exposures(log, [tek])
    assert [(e.slot, e.seen_at) for e in exposures] == [(0, -30)]
    assert match_exposures(log, [tek], validity_window_s=29) == []


def test_sighting_log_holds_at_most_32_bytes_a_sighting():
    idents = [SeedStream(i, "ident").take(16) for i in range(40)]
    log = SightingLog()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(100_000):
            # local times past the small-int cache, as a real day's are
            log.append(idents[n % 40], 10**9 + n)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # every sighting lies 40 s past its identifier's last one, so each is a run
    assert sum(len(runs) for runs in log.by_identifier.values()) == 3 * 100_000
    assert held <= 32 * 100_000, held / 100_000


def test_client_schedule_and_sync_dedupe():
    stream = SeedStream(9, "dev")
    alice = TekClient(stream.child("alice"))
    bob = TekClient(stream.child("bob"))
    alice.device_id, bob.device_id = "alice", "bob"
    # bob hears alice's slot-0 identifier all through the slot
    ident = alice.advertisement_identifier(30)
    assert ident == alice.advertisement_identifier(599)
    assert ident != alice.advertisement_identifier(600)
    for t in range(0, 600, 5):
        bob.on_sighting(alice.advertisement_identifier(t), t, t)
    bundle = alice.make_report("T" * 12)
    feed = [{"tek_hex": e["tek_hex"], "day": e["day"], "published_at": 700}
            for e in bundle["teks"]]
    bob.index.wake(feed)
    first = bob.sync()
    assert len(first) == 1
    assert bob.sync() == []  # already notified


def test_published_key_links_all_day_identifiers():
    # re-derivation from one published key groups sightings across the whole
    # day, and claims nothing from other devices
    mine, other = make_tek(5, 0), make_tek(6, 0)
    schedule = set(derive_day_identifiers(mine))
    assert len(schedule) == 144
    sightings = [derive_day_identifiers(mine)[0],
                 derive_day_identifiers(mine)[143],
                 derive_day_identifiers(other)[0]]
    linked = [s for s in sightings if s in schedule]
    assert linked == sightings[:2]


def test_a_day_older_than_every_retained_key_still_gets_its_key():
    stream = SeedStream(9, "dev")
    mark = TekClient(stream.child("mark"), retention_days=1)
    day1 = mark.tek_for_day(1)
    day0 = mark.tek_for_day(0)      # pruned as soon as it is stored
    assert day0.day_index == 0 and mark.store.retained() == [day1]
    assert mark.tek_for_day(0) == day0   # rederived from the same stream
    assert mark.advertisement_identifier(30) == derive_day_identifiers(day0)[0]

    patient = TekClient(stream.child("patient"))
    kept = [patient.tek_for_day(d) for d in range(14)]
    older = patient.tek_for_day(-1)
    assert older == Tek(stream.child("patient").child("tek:-1").take(16), -1)
    assert patient.store.retained() == kept


def test_the_beacon_is_the_slot_identifier_of_the_local_day():
    client = TekClient(SeedStream(9, "dev").child("beacon"))
    # five days on, then back to the first day, then before the origin
    times = [d * 86400 + s for d in range(5) for s in (0, 599, 600, 86399)] + [0, 1234, -1, -86400]
    for t in times:
        day, within = divmod(t, 86400)
        expected = derive_day_identifiers(client.tek_for_day(day))[within // 600]
        assert client.advertisement_identifier(t) == expected, t


def test_a_client_derives_one_identifier_per_slot_change_and_no_day_schedule(monkeypatch):
    derived, days = [], []
    slot_rule, day_rule = tek_mod.derive_slot_identifier, tek_mod.derive_day_identifiers
    monkeypatch.setattr(tek_mod, "derive_slot_identifier",
                        lambda tek, slot: derived.append((tek.day_index, slot)) or slot_rule(tek, slot))
    monkeypatch.setattr(tek_mod, "derive_day_identifiers",
                        lambda tek: days.append(tek) or day_rule(tek))
    client = TekClient(SeedStream(9, "dev").child("beacon"))
    # a scan tick every 5 s over two days, then the clock moved back by a day and a half
    times = list(range(0, 2 * 86400, 5))
    times += [t - 129600 for t in times]
    changes, slot = [], None
    for t in times:
        ident = client.advertisement_identifier(t)
        if t // 600 != slot:
            slot = t // 600
            changes.append(divmod(slot, 144))
            assert ident == derive_day_identifiers(client.tek_for_day(slot // 144))[slot % 144], t
    assert derived == changes and len(changes) == 2 * 288
    assert days == []
