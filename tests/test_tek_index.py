"""The per-run published-TEK index: each key's schedule is derived once, and
index-backed matching returns exactly what the brute-force matcher did."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dctlab.cli import builtin_scenario
from dctlab.crypto_core import DAY_S, IDENTIFIER_SLOT_S, Tek, derive_day_identifiers
from dctlab.rng import SeedStream
from dctlab.errors import FieldError
from dctlab.scenario import run_scenario
from dctlab.schema import check, passes
from dctlab.schemes import tek as tek_mod
from dctlab.schemes.tek import (
    DEFAULT_VALIDITY_WINDOW_S,
    TEK_ENTRY,
    TEK_FEED_ENTRY,
    Exposure,
    PublishedTekIndex,
    SightingLog,
    TekClient,
    match_exposures,
)
from dctlab.server import TracingServer


# -- reference: the brute-force matcher and client sync this index replaced ----

def _ref_slot_distance(seen_at, valid_from, valid_to):
    if seen_at < valid_from:
        return valid_from - seen_at
    if seen_at >= valid_to:
        return seen_at - (valid_to - 1)
    return 0


def reference_match_exposures(log, published, validity_window_s=DEFAULT_VALIDITY_WINDOW_S,
                              strict_freshness=False, watermarks=None):
    if strict_freshness and watermarks is None:
        raise ValueError("strict_freshness requires first-sight watermarks")
    out = []
    seen_keys = set()
    for pub in published:
        cutoff = watermarks.get(pub.hex) if strict_freshness else None
        for slot, ident in enumerate(derive_day_identifiers(pub)):
            pairs = log.by_identifier.get(ident, [])
            valid_from = pub.day_index * DAY_S + slot * IDENTIFIER_SLOT_S
            for seen_at, seq in zip(pairs[::2], pairs[1::2]):
                if cutoff is not None and seq >= cutoff:
                    continue
                if _ref_slot_distance(seen_at, valid_from, valid_from + 600) > validity_window_s:
                    continue
                exp = Exposure(pub.hex, pub.day_index, slot, seen_at)
                if exp.key not in seen_keys:
                    seen_keys.add(exp.key)
                    out.append(exp)
                break
    return out


class ReferenceSync:
    """TekClient.sync as it was: its own feed bookkeeping over a shared log."""

    def __init__(self, log, validity_window_s, strict_freshness):
        self.log = log
        self.validity_window_s = validity_window_s
        self.strict_freshness = strict_freshness
        self.known_published = []
        self.watermarks = {}
        self.notified = set()

    def sync(self, feed_entries, own):
        known = {p.hex for p in self.known_published}
        for e in feed_entries:
            if e["tek_hex"] in known:
                continue
            self.known_published.append(Tek(bytes.fromhex(e["tek_hex"]), e["day"]))
            self.watermarks.setdefault(e["tek_hex"], len(self.log))
        exposures = reference_match_exposures(
            self.log, [p for p in self.known_published if p.hex not in own],
            self.validity_window_s, self.strict_freshness, self.watermarks)
        fresh = [e for e in exposures if e.key not in self.notified]
        self.notified.update(e.key for e in fresh)
        return fresh


# -- strategies -----------------------------------------------------------------

KEYS = [SeedStream(k, "pool").take(16) for k in range(3)]
OWN_STREAM = SeedStream(4, "own")
OWN_KEY = TekClient(OWN_STREAM).tek_for_day(0).bytes
POOL = KEYS + [OWN_KEY]
SCHEDULES = {key: derive_day_identifiers(Tek(key, 0)) for key in POOL}
SLOTS = [0, 1, 2, 71, 142, 143]   # few slots, so sightings of one slot repeat
NOISE = b"\xee" * 16

key_idx = st.integers(0, len(POOL) - 1)
day = st.integers(0, 2)
published_teks = st.lists(st.builds(lambda k, d: Tek(POOL[k], d), key_idx, day), max_size=6)
windows = st.one_of(st.sampled_from([0, 120, DEFAULT_VALIDITY_WINDOW_S]), st.integers(0, 20000))


@st.composite
def sighting(draw):
    ident = draw(st.one_of(
        st.builds(lambda k, s: SCHEDULES[POOL[k]][s], key_idx, st.sampled_from(SLOTS)),
        st.just(NOISE)))
    seen_at = (draw(day) * DAY_S + draw(st.sampled_from(SLOTS)) * IDENTIFIER_SLOT_S
               + draw(st.integers(-9000, 9000)))
    return ident, seen_at


def build_log(sightings):
    log = SightingLog()
    for ident, seen_at in sightings:
        log.append(ident, seen_at)
    return log


def preloaded_index(pubs):
    """An index that has already seen some keys, possibly under other days."""
    index = PublishedTekIndex()
    for pub in pubs:
        index.identifiers(pub)
    return index


# -- properties -------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(sightings=st.lists(sighting(), max_size=25), published=published_teks,
       validity_window_s=windows, strict=st.booleans(),
       marks=st.dictionaries(key_idx, st.integers(0, 26)), preload=published_teks)
# an identifier first sighted out of window, then in window past the watermark
@example(sightings=[(SCHEDULES[KEYS[0]][1], 600 + DEFAULT_VALIDITY_WINDOW_S + 900),
                    (SCHEDULES[KEYS[0]][1], 630)],
         published=[Tek(KEYS[0], 0)], validity_window_s=DEFAULT_VALIDITY_WINDOW_S,
         strict=True, marks={0: 1}, preload=[])
@example(sightings=[(SCHEDULES[KEYS[0]][1], 600 + DEFAULT_VALIDITY_WINDOW_S + 900),
                    (SCHEDULES[KEYS[0]][1], 630)],
         published=[Tek(KEYS[0], 0)], validity_window_s=DEFAULT_VALIDITY_WINDOW_S,
         strict=False, marks={0: 1}, preload=[])
# a key listed under two days; only the later day's window holds the sighting
@example(sightings=[(SCHEDULES[KEYS[0]][1], DAY_S + 630)],
         published=[Tek(KEYS[0], 0), Tek(KEYS[0], 1)], validity_window_s=120,
         strict=False, marks={}, preload=[Tek(KEYS[0], 2)])
def test_index_matcher_equals_brute_force(sightings, published, validity_window_s, strict,
                                          marks, preload):
    log = build_log(sightings)
    watermarks = {POOL[k].hex(): v for k, v in marks.items()}
    want = reference_match_exposures(log, published, validity_window_s, strict, watermarks)
    index = preloaded_index(preload)
    pins = watermarks if strict else None
    got = match_exposures(log, published, validity_window_s, pins, index)
    assert got == want
    # a second pass over the warm index changes nothing
    assert match_exposures(log, published, validity_window_s, pins, index) == want


feed_entry = st.builds(lambda k, d, at: {"tek_hex": POOL[k].hex(), "day": d, "published_at": at},
                       key_idx, day, st.integers(0, 3 * DAY_S))
bad_entry = st.sampled_from([
    {"tek_hex": "not-hex", "day": 0, "published_at": 1},
    {"tek_hex": "zz" * 16, "day": 0, "published_at": 1},
    {"tek_hex": KEYS[0].hex(), "day": -1, "published_at": 1},
    {"tek_hex": KEYS[0].hex(), "day": "0", "published_at": 1},
    {"day": 0},
    "not an object",
])
operation = st.one_of(
    st.tuples(st.just("sight"), sighting()),
    st.tuples(st.just("sync"), st.lists(st.one_of(feed_entry, feed_entry, bad_entry), max_size=4)),
    st.tuples(st.just("report"), st.none()),
)


def _entry(key, day):
    return {"tek_hex": key.hex(), "day": day, "published_at": 0}


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(operation, max_size=14), validity_window_s=windows, strict=st.booleans(),
       preload=published_teks)
# one page that carries a key under two days: both entries count, as before
@example(ops=[("sight", (SCHEDULES[KEYS[0]][1], DAY_S + 630)),
              ("sync", [_entry(KEYS[0], 0), _entry(KEYS[0], 1)])],
         validity_window_s=DEFAULT_VALIDITY_WINDOW_S, strict=False, preload=[])
def test_client_sync_equals_reference_over_feed_pages(ops, validity_window_s, strict, preload):
    client = TekClient(OWN_STREAM, validity_window_s=validity_window_s,
                       strict_freshness=strict, index=preloaded_index(preload))
    client.tek_for_day(0)
    ref = ReferenceSync(client.log, validity_window_s, strict)
    for kind, arg in ops:
        if kind == "sight":
            client.on_sighting(arg[0], arg[1], 0)
        elif kind == "report":
            client.make_report("T" * 12)
        else:
            own = {t.hex for t in client.store.retained()} if client.reported else set()
            good = [e for e in arg if passes(e, TEK_FEED_ENTRY)]
            assert client.sync(arg, 0) == ref.sync(good, own)


# -- robustness and derive-once checks -----------------------------------------------

@pytest.mark.parametrize("entry,problem", [
    ({"tek_hex": "ab" * 16, "day": 0}, None),
    ({"tek_hex": "AB" * 16, "day": 3, "published_at": 9}, None),
    ({"tek_hex": "not-hex", "day": 0}, "tek_hex"),
    ({"tek_hex": "ab" * 15 + " a", "day": 0}, "tek_hex"),
    ({"tek_hex": "ab" * 17, "day": 0}, "tek_hex"),
    ({"tek_hex": 12, "day": 0}, "tek_hex"),
    ({"day": 0}, "tek_hex"),
    ({"tek_hex": "ab" * 16}, "day"),
    ({"tek_hex": "ab" * 16, "day": -1}, "day"),
    ({"tek_hex": "ab" * 16, "day": 1.0}, "day"),
    ({"tek_hex": "ab" * 16, "day": True}, "day"),
    (["ab" * 16, 0], "object"),
    ({"tek_hex": "ab" * 16, "day": 0, "published_at": "9"}, "published_at"),
    ({"tek_hex": "ab" * 16, "day": 0, "key": 1}, "key: unknown field"),
])
def test_tek_entry_rule(entry, problem):
    """problem is what the feed table finds in entry. The upload table finds
    the same, and refuses a published_at too: only the server stamps it."""
    stamped = type(entry) is dict and "published_at" in entry
    for table, fault in ((TEK_FEED_ENTRY, problem),
                         (TEK_ENTRY, problem or stamped and "published_at: unknown field")):
        if fault:
            with pytest.raises(FieldError, match=fault):
                check(entry, table)
        else:
            assert check(entry, table).items() >= entry.items()


def test_bad_feed_entry_does_not_break_any_client(tmp_path):
    stream = SeedStream(11, "bad-entry")
    alice = TekClient(stream.child("alice"))
    index = PublishedTekIndex()
    listeners = [TekClient(stream.child(name), index=index) for name in ("bob", "carol")]
    listeners.append(TekClient(stream.child("dave")))   # with a private index
    for client in listeners:
        for t in range(0, 600, 60):
            client.on_sighting(alice.advertisement_identifier(t), t, t)
    good = alice.make_report("T" * 12)["teks"][0]
    # the bad entries reached the feed through persisted state, beside a good one
    entries = [{"tek_hex": "not-hex", "day": 0, "published_at": 700},
               {**good, "published_at": 700, "owner": "alice"},
               {**good, "published_at": 700}]
    lines = [{"op": "issue", "tan": "T" * 12, "issued_to": "alice"},
             {"op": "spend", "tan": "T" * 12, "scheme": "tek", "entries": entries}]
    (tmp_path / "state.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    server = TracingServer(SeedStream(1, "srv"), state_dir=tmp_path)
    entries, _ = server.fetch_feed("tek")
    assert len(entries) == 3
    for client in listeners:
        got = client.sync(entries, 700)
        assert [(e.tek_hex, e.slot) for e in got] == [(good["tek_hex"], 0)]
    assert index.skipped == 2                      # once per page, however many clients
    assert listeners[2].index.skipped == 2
    assert list(index.by_hex) == [good["tek_hex"]]


def test_index_maps_identifiers_back_to_key_and_slot():
    tek = Tek(SeedStream(3, "t").take(16), 2)
    index = PublishedTekIndex()
    idents = index.identifiers(tek)
    assert idents == derive_day_identifiers(tek)
    assert index.by_identifier[idents[77]] == (tek.hex, 77)
    assert index.by_hex[tek.hex] is idents
    # the same key under another day: the same bytes, indexed once
    assert index.identifiers(Tek(tek.bytes, 5)) is idents
    assert len(index.by_hex) == 1
    assert len(index.by_identifier) == 144


@pytest.mark.parametrize("sid", ["linkage_tek", "fake_claim_tek", "social_graph", "time_travel"])
def test_each_key_schedule_is_derived_at_most_twice_per_run(sid, monkeypatch):
    """Once by its owner to advertise, once by the run's index; matching and
    the adversary analyses reuse the index."""
    derived: dict[tuple, int] = {}
    original = tek_mod.derive_day_identifiers

    def counting(tek):
        derived[(tek.hex, tek.day_index)] = derived.get((tek.hex, tek.day_index), 0) + 1
        return original(tek)

    monkeypatch.setattr(tek_mod, "derive_day_identifiers", counting)
    run_scenario(builtin_scenario(sid))
    assert derived and max(derived.values()) <= 2
    assert 2 in derived.values()   # something was published and matched
