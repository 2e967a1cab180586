"""The per-run published-TEK index: each key's schedule is derived once, and
index-backed matching returns exactly what the brute-force matcher did."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dctlab.cli import builtin_scenario
from dctlab.crypto_core import DAY_S, IDENTIFIER_SLOT_S, Tek, derive_day_identifiers
from dctlab.radio import SCAN_TICK_S
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


def reference_match_exposures(sightings, published, validity_window_s=DEFAULT_VALIDITY_WINDOW_S,
                              strict_freshness=False, watermarks=None):
    """sightings is a flat list of (ident, seen_at, seq) triples, seq the
    append order; watermarks maps tek_hex to the first seq that cannot match."""
    if strict_freshness and watermarks is None:
        raise ValueError("strict_freshness requires first-sight watermarks")
    by_ident = {}
    for ident, seen_at, seq in sightings:
        by_ident.setdefault(ident, []).append((seen_at, seq))
    out = []
    seen_keys = set()
    for pub in published:
        cutoff = watermarks.get(pub.hex) if strict_freshness else None
        for slot, ident in enumerate(derive_day_identifiers(pub)):
            valid_from = pub.day_index * DAY_S + slot * IDENTIFIER_SLOT_S
            for seen_at, seq in by_ident.get(ident, []):
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
    """TekClient.sync as it was: its own feed bookkeeping, and its own flat
    list of sightings, each with its seq, fed beside the client's log."""

    def __init__(self, validity_window_s, strict_freshness):
        self.sightings = []
        self.validity_window_s = validity_window_s
        self.strict_freshness = strict_freshness
        self.known_published = []
        self.watermarks = {}
        self.notified = set()

    def sight(self, ident, seen_at):
        self.sightings.append((ident, seen_at, len(self.sightings)))

    def sync(self, feed_entries, own):
        known = {p.hex for p in self.known_published}
        for e in feed_entries:
            if e["tek_hex"] in known:
                continue
            self.known_published.append(Tek(bytes.fromhex(e["tek_hex"]), e["day"]))
            self.watermarks.setdefault(e["tek_hex"], len(self.sightings))
        exposures = reference_match_exposures(
            self.sightings, [p for p in self.known_published if p.hex not in own],
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
slot = st.sampled_from(SLOTS)
# an offset from a slot's start: anywhere, near the slot, or up to 1000 s
# before the earliest time a fixed window admits, so a run can enter it
offset = (st.integers(-9000, 9000) | st.integers(-300, 900)
          | st.builds(lambda w, d: -w - d, st.sampled_from([0, 120, DEFAULT_VALIDITY_WINDOW_S]),
                      st.integers(0, 1000)))


@st.composite
def identifier_and_time(draw):
    """A pool key's slot identifier (or noise), and a time near that slot
    or another one, on some day."""
    k, ident_slot = draw(key_idx), draw(slot)
    ident = NOISE if draw(st.integers(0, 4)) == 0 else SCHEDULES[POOL[k]][ident_slot]
    time_slot = draw(st.just(ident_slot) | slot)
    return ident, draw(day) * DAY_S + time_slot * IDENTIFIER_SLOT_S + draw(offset)


@st.composite
def timeline(draw, breaks):
    """Events in append order: ("sight", (ident, seen_at)), and events drawn
    from breaks placed between ticks. Sightings come in runs of 1 to 200
    consecutive scan ticks, some of two identifiers heard at the same ticks
    (the same one twice is a same-second duplicate). A run starts at a time
    near a slot, or relative to its identifier's last sighting: one tick on,
    which continues that run across any break since, the same second, past
    a gap, or earlier, as after a clock moved back."""
    events = draw(st.lists(breaks, max_size=2))
    last = {}
    for _ in range(draw(st.integers(0, 5))):
        ident, near_slot_at = draw(identifier_and_time())
        idents = [ident] + draw(st.lists(identifier_and_time().map(lambda it: it[0]), max_size=1))
        how = draw(st.sampled_from(["near a slot", "next tick", "duplicate", "gap", "back"]))
        prev = last.get(ident)
        if prev is None or how == "near a slot":
            start = near_slot_at
        elif how == "next tick":
            start = prev + SCAN_TICK_S
        elif how == "duplicate":
            start = prev
        elif how == "gap":
            start = prev + draw(st.sampled_from([1, 4, 6, 10, 600]) | st.integers(1, 9000))
        else:
            start = prev - draw(st.integers(1, 9000))
        length = draw(st.integers(1, 200))
        cuts = draw(st.lists(st.tuples(st.integers(0, length - 1), breaks), max_size=3))
        for i in range(length):
            seen_at = start + i * SCAN_TICK_S
            for heard in idents:
                events.append(("sight", (heard, seen_at)))
                last[heard] = seen_at
            events += [brk for at, brk in cuts if at == i]
    return events


SYNC = ("sync", None)


def preloaded_index(pubs):
    """An index that has already seen some keys, possibly under other days."""
    index = PublishedTekIndex()
    for pub in pubs:
        index.identifiers(pub)
    return index


# -- properties -------------------------------------------------------------------

def _ident(k, slot):
    return SCHEDULES[KEYS[k]][slot]


@settings(max_examples=150, deadline=None)
@given(events=timeline(st.just(SYNC)), published=published_teks,
       validity_window_s=windows, strict=st.booleans(),
       marks=st.dictionaries(key_idx, st.integers(0, 8)), preload=published_teks)
# an identifier first sighted out of window, then in window past the watermark
@example(events=[("sight", (_ident(0, 1), 600 + DEFAULT_VALIDITY_WINDOW_S + 900)), SYNC,
                 ("sight", (_ident(0, 1), 630))],
         published=[Tek(KEYS[0], 0)], validity_window_s=DEFAULT_VALIDITY_WINDOW_S,
         strict=True, marks={0: 1}, preload=[])
@example(events=[("sight", (_ident(0, 1), 600 + DEFAULT_VALIDITY_WINDOW_S + 900)), SYNC,
                 ("sight", (_ident(0, 1), 630))],
         published=[Tek(KEYS[0], 0)], validity_window_s=DEFAULT_VALIDITY_WINDOW_S,
         strict=False, marks={0: 1}, preload=[])
# a run that enters the window mid-way, with a tick after a sync
@example(events=[("sight", (_ident(0, 1), 600 - 120 - 12 + 5 * i)) for i in range(3)]
         + [SYNC, ("sight", (_ident(0, 1), 600 - 120 + 3))],
         published=[Tek(KEYS[0], 0)], validity_window_s=120,
         strict=True, marks={0: 1}, preload=[])
# a tick 3 s after a run, the first in window, starts a run of its own
@example(events=[("sight", (_ident(0, 1), 470)), ("sight", (_ident(0, 1), 475)),
                 ("sight", (_ident(0, 1), 478))],
         published=[Tek(KEYS[0], 0)], validity_window_s=124, strict=False, marks={}, preload=[])
# a key listed under two days; only the later day's window holds the sighting
@example(events=[("sight", (_ident(0, 1), DAY_S + 630))],
         published=[Tek(KEYS[0], 0), Tek(KEYS[0], 1)], validity_window_s=120,
         strict=False, marks={}, preload=[Tek(KEYS[0], 2)])
def test_index_matcher_equals_brute_force(events, published, validity_window_s, strict,
                                          marks, preload):
    log, sightings, sync_seqs, epoch = SightingLog(), [], [0], 0
    for kind, arg in events:
        if kind == "sight":
            log.append(*arg, epoch=epoch)
            sightings.append((*arg, len(sightings)))
        else:
            epoch += 1
            sync_seqs.append(len(sightings))
    # watermark m admits the runs begun before the m-th sync: the sightings
    # appended before it, every one when there were fewer syncs
    watermarks = {POOL[k].hex(): m for k, m in marks.items()}
    seq_marks = {h: sync_seqs[m] if m < len(sync_seqs) else len(sightings)
                 for h, m in watermarks.items()}
    want = reference_match_exposures(sightings, published, validity_window_s, strict, seq_marks)
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
feed_page = st.lists(st.one_of(feed_entry, feed_entry, bad_entry), max_size=6)


@st.composite
def client_break(draw):
    """A sync with a feed page, or, one time in four, a report."""
    return ("report", None) if draw(st.integers(0, 3)) == 0 else ("sync", draw(feed_page))


def _entry(key, day):
    return {"tek_hex": key.hex(), "day": day, "published_at": 0}


@settings(max_examples=100, deadline=None)
@given(events=timeline(client_break()), validity_window_s=windows, strict=st.booleans(),
       preload=published_teks)
# one page that carries a key under two days: both entries count, as before
@example(events=[("sight", (_ident(0, 1), DAY_S + 630)),
                 ("sync", [_entry(KEYS[0], 0), _entry(KEYS[0], 1)])],
         validity_window_s=DEFAULT_VALIDITY_WINDOW_S, strict=False, preload=[])
# a run sighted before its key arrives matches under strict freshness
@example(events=[("sight", (_ident(0, 1), 630)), ("sync", [_entry(KEYS[0], 0)])],
         validity_window_s=120, strict=True, preload=[])
# the key arrives between two ticks of a run, the later one in window
@example(events=[("sight", (_ident(0, 1), 475)), ("sync", [_entry(KEYS[0], 0)]),
                 ("sight", (_ident(0, 1), 480)), ("sync", [])],
         validity_window_s=120, strict=True, preload=[])
def test_client_sync_equals_reference_over_feed_pages(events, validity_window_s, strict, preload):
    client = TekClient(OWN_STREAM, validity_window_s=validity_window_s,
                       strict_freshness=strict, index=preloaded_index(preload))
    client.tek_for_day(0)
    ref = ReferenceSync(validity_window_s, strict)
    for kind, arg in events:
        if kind == "sight":
            client.on_sighting(arg[0], arg[1], 0)
            ref.sight(*arg)
        elif kind == "report":
            client.make_report("T" * 12)
        else:
            own = {t.hex for t in client.store.retained()} if client.reported else set()
            good = [e for e in arg if passes(e, TEK_FEED_ENTRY)]
            client.index.wake(arg)
            assert client.sync() == ref.sync(good, own)


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
    index.wake(entries)
    listeners[2].index.wake(entries)
    for client in listeners:
        got = client.sync()
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
    """At most once, in fact: by the run's index, for the keys published.
    Owners derive only the slot identifiers they send, and matching and the
    adversary analyses reuse the index."""
    derived: dict[str, int] = {}
    published: list[str] = []
    original, accept = tek_mod.derive_day_identifiers, TracingServer.accept_upload

    def counting(tek):
        derived[tek.hex] = derived.get(tek.hex, 0) + 1
        return original(tek)

    def accepting(server, bundle):
        ack = accept(server, bundle)
        if bundle["scheme"] == "tek":
            published.extend(t["tek_hex"] for t in bundle["teks"])
        return ack

    monkeypatch.setattr(tek_mod, "derive_day_identifiers", counting)
    monkeypatch.setattr(TracingServer, "accept_upload", accepting)
    run_scenario(builtin_scenario(sid))
    assert published and set(derived) == set(published)
    assert max(derived.values()) == 1


@st.composite
def lockstep_run(draw):
    """Two to four clients' timelines, each cut into sync rounds at its syncs
    (a client with fewer has nothing new in the later rounds), one feed page
    per round, and for each round whether an adversary read of some page
    comes before it."""
    timelines = draw(st.lists(timeline(st.just(SYNC) | st.just(("report", None))),
                              min_size=2, max_size=4))
    segments = []
    for events in timelines:
        cut = [[]]
        for kind, arg in events:
            if kind == "sync":
                cut.append([])
            else:
                cut[-1].append((kind, arg))
        segments.append(cut)
    rounds = max(map(len, segments)) + draw(st.integers(0, 1))
    pages = draw(st.lists(feed_page, min_size=rounds, max_size=rounds))
    reads = draw(st.lists(st.booleans(), min_size=rounds, max_size=rounds))
    return segments, pages, reads


@settings(max_examples=40, deadline=None)
@given(run=lockstep_run(), validity_window_s=windows,
       strict=st.lists(st.booleans(), min_size=4, max_size=4), preload=published_teks)
# a key arrives in the round between two ticks of one client's run; a second
# client sighted it only before, and a third reported and owns it
@example(run=([[[("sight", (_ident(0, 1), 475))], [("sight", (_ident(0, 1), 480))]],
               [[("sight", (_ident(0, 1), 470))], []],
               [[("report", None), ("sight", (SCHEDULES[OWN_KEY][1], 630))], []]],
              [[_entry(KEYS[0], 0), _entry(OWN_KEY, 0)], []], [False, True]),
         validity_window_s=120, strict=[True, True, False, False], preload=[])
def test_clients_sharing_an_index_equal_their_references_in_lockstep(
        run, validity_window_s, strict, preload):
    """Several clients share one index and sync in lockstep, one page a round:
    each returns what its own ReferenceSync returns, its log's epoch is the
    run's round, and each page is checked once. An adversary read of the feed
    between rounds opens no round and records no arrival."""
    segments, pages, reads = run
    index = preloaded_index(preload)
    clients = [TekClient(OWN_STREAM, validity_window_s=validity_window_s,
                         strict_freshness=strict[i], index=index) for i in range(len(segments))]
    refs = [ReferenceSync(validity_window_s, strict[i]) for i in range(len(segments))]
    for client in clients:
        client.tek_for_day(0)
    skipped = 0
    for number, (page, read) in enumerate(zip(pages, reads), 1):
        if read:
            published, rounds = list(index.published), dict(index.rounds)
            index.ingest_all(pages[-1])
            assert (index.round, index.published, index.rounds) == (number - 1, published, rounds)
            skipped = index.skipped
        for client, ref, cut in zip(clients, refs, segments):
            for kind, arg in cut[number - 1] if number <= len(cut) else ():
                if kind == "sight":
                    client.on_sighting(arg[0], arg[1], 0)
                    ref.sight(*arg)
                else:
                    client.make_report("T" * 12)
        good = [e for e in page if passes(e, TEK_FEED_ENTRY)]
        skipped += len(page) - len(good)
        index.wake(page)
        for client, ref in zip(clients, refs):
            own = {t.hex for t in client.store.retained()} if client.reported else set()
            assert client.sync() == ref.sync(good, own)
        assert index.round == number
        assert index.skipped == skipped
