import hashlib
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dctlab.crypto_core import (
    DH_ENTRY,
    DH_FEED_ENTRY,
    EncounterToken,
    GroupParams,
    b64,
    dh_token,
    hash_token,
    open_timestamp,
    seal_timestamp,
    unb64,
)
from dctlab.radio import ContactEdge, ContactTrace, World
from dctlab.rng import SeedStream
from dctlab.scenario import run_scenario
from dctlab.schema import passes
from dctlab.schemes import dh as dh_mod
from dctlab.schemes import tek as tek_mod
from dctlab.schemes.dh import (
    DhClient,
    DhConfig,
    DhExposure,
    EncounterRecord,
    PendingEncounter,
    PublishedDhIndex,
    match_exposures_dh,
    report_infection_dh,
)
from dctlab.schemes.tek import TEK_FEED_ENTRY
from dctlab.server import TracingServer

TOY_CFG = DhConfig(group=GroupParams.toy(23, 5))


class PipeConn:
    """Zero-latency in-test transport between two clients."""

    def __init__(self, a: DhClient, b: DhClient, cid: int = 1):
        self.cid = cid
        self.a, self.b = a.device_id, b.device_id
        self._clients = {a.device_id: a, b.device_id: b}
        self.local_times = {a.device_id: 0, b.device_id: 0}
        self.open = True

    def peer_of(self, device_id):
        return self.b if device_id == self.a else self.a

    def send(self, sender_id, payload):
        receiver = self.peer_of(sender_id)
        self._clients[receiver].on_message(self, sender_id, payload,
                                           self.local_times[receiver])


def make_clients(cfg=None, seed=5):
    cfg = cfg or DhConfig()
    root = SeedStream(seed, "dh")
    a, b = DhClient(root.child("a"), cfg), DhClient(root.child("b"), cfg)
    a.device_id, b.device_id = "a", "b"
    return a, b


def index_of(page):
    """A PublishedDhIndex that has ingested one feed page."""
    index = PublishedDhIndex()
    index.ingest(page)
    return index


def run_encounter(a, b, start, duration, tick=5):
    """Drive a handshake plus co-presence accrual on both ends."""
    conn = PipeConn(a, b)
    conn.local_times = {a.device_id: start, b.device_id: start}
    a.handshake(conn, start)
    b.handshake(conn, start)
    for t in range(start, start + duration, tick):
        conn.local_times = {a.device_id: t, b.device_id: t}
        a.on_copresence_tick(b.device_id, tick, t)
        b.on_copresence_tick(a.device_id, tick, t)
    return conn


def test_long_enough_encounter_creates_record_both_sides():
    a, b = make_clients()
    run_encounter(a, b, start=0, duration=600)
    assert len(a.records) == 1 and len(b.records) == 1
    assert a._pending[("b", 0)].accrued_s >= 300
    assert hash_token(a.records[0].token) == hash_token(b.records[0].token)
    assert a.records[0].my_timestamp == b.records[0].my_timestamp == 0


def test_short_encounter_creates_no_record():
    a, b = make_clients()
    run_encounter(a, b, start=0, duration=200)
    assert a.records == [] and b.records == []


def test_handshake_returns_pending_then_record():
    a, b = make_clients()
    conn = PipeConn(a, b)
    state = a.handshake(conn, 0)
    assert isinstance(state, PendingEncounter)
    b.handshake(conn, 0)
    for t in range(0, 400, 5):
        a.on_copresence_tick("b", 5, t)
    assert isinstance(a.handshake(conn, 395), EncounterRecord)


def test_invalid_peer_key_aborts():
    a, b = make_clients(cfg=TOY_CFG)
    conn = PipeConn(a, b)
    a.on_message(conn, "b", {"kind": "pubkey", "epoch": 0, "key": "01"}, 0)
    assert a.rejected_keys == 1
    assert not a.wants_connection("b", 0)


def test_stale_epoch_key_ignored():
    a, b = make_clients()
    conn = PipeConn(a, b)
    kp = b.keypair(0)
    a.on_message(conn, "b", {"kind": "pubkey", "epoch": 0, "key": kp.public.hex()}, 3000)
    assert a.rejected_keys == 1


def test_report_entries_match_sha256_recomputation():
    a, b = make_clients()
    for start in (0, 1000, 2000, 3000, 4000):
        run_encounter(a, b, start=start, duration=400)
    assert len(a.records) == 5
    bundle = a.make_report("TANTANTANTAN")
    assert len(bundle["entries"]) == 5
    for rec, entry in zip(a.records, bundle["entries"]):
        assert entry["hash_hex"] == hashlib.sha256(rec.token.secret).hexdigest()
        assert rec.token.secret.hex() not in entry["meta_b64"]
        assert b64(rec.token.secret) not in entry["meta_b64"]


def test_match_requires_epsilon_window():
    a, b = make_clients()
    run_encounter(a, b, start=0, duration=400)
    published = report_infection_dh(a.records, "T" * 12)["entries"]
    cfg = b.cfg
    assert len(match_exposures_dh(b.records, index_of(published).by_hash, cfg)) == 1

    # relayed flavor: remote side recorded its handshake 7200 s later
    late = [EncounterRecord(b.records[0].token, b.records[0].my_timestamp + 7200)]
    assert match_exposures_dh(late, index_of(published).by_hash, cfg) == []


def test_match_ignores_entries_failing_authentication():
    a, b = make_clients()
    run_encounter(a, b, start=0, duration=400)
    token = a.records[0].token
    forged = {"hash_hex": hash_token(token).hex(),
              "meta_b64": b64(b"\x00" * 40)}
    assert match_exposures_dh(b.records, index_of([forged]).by_hash, b.cfg) == []


def test_three_published_two_matching():
    a, b = make_clients()
    run_encounter(a, b, start=0, duration=400)
    run_encounter(a, b, start=1000, duration=400)
    stranger_a, stranger_b = make_clients(seed=77)
    run_encounter(stranger_a, stranger_b, start=0, duration=400)
    published = (report_infection_dh(a.records, "T" * 12)["entries"]
                 + report_infection_dh(stranger_a.records, "U" * 12)["entries"])
    assert len(published) == 3
    # brute-force pairwise oracle
    expected = sum(1 for rec in b.records
                   if hash_token(rec.token).hex() in {e["hash_hex"] for e in published})
    got = match_exposures_dh(b.records, index_of(published).by_hash, b.cfg)
    assert len(got) == expected == 2


def test_superspreader_threshold_and_proof():
    hub, _ = make_clients()
    published = []
    for i in range(4):
        peer = DhClient(SeedStream(100 + i, "peer"), hub.cfg)
        peer.device_id = f"p{i}"
        run_encounter(hub, peer, start=i * 1000, duration=400)
        published.extend(report_infection_dh(peer.records, f"T{i}" * 6)["entries"])
    hub.index.ingest(published)
    result = hub.superspreader_check()
    assert result["warn"] is True
    assert len(result["proof"]) == 4
    # SP-side verification: hash of each proof token is in the feed
    feed_hashes = {e["hash_hex"] for e in published}
    assert all(hash_token(t).hex() in feed_hashes for t in result["proof"])


def test_superspreader_below_threshold_empty_proof():
    hub, peer = make_clients()
    run_encounter(hub, peer, start=0, duration=400)
    published = report_infection_dh(peer.records, "T" * 12)["entries"]
    hub.index.ingest(published)
    result = hub.superspreader_check()
    assert result["warn"] is False
    assert result["proof"] == []


def test_encounter_spanning_windows_yields_token_per_window():
    a, b = make_clients()
    # 0..1800 covers rotation windows 0 and 1 at 900 s
    run_encounter(a, b, start=0, duration=1800)
    assert len(a.records) == 2
    assert sorted(r.token.window_index for r in a.records) == [0, 1]
    hashes_a = {hash_token(r.token) for r in a.records}
    hashes_b = {hash_token(r.token) for r in b.records}
    assert hashes_a == hashes_b


def test_sync_dedupes_and_skips_reporter():
    a, b = make_clients()
    run_encounter(a, b, start=0, duration=400)
    feed = report_infection_dh(a.records, "T" * 12)["entries"]
    a.reported = True
    a.index.ingest(feed)
    b.index.ingest(feed)
    assert a.sync() == []
    assert len(b.sync()) == 1
    assert b.sync() == []


def test_sync_skips_and_counts_malformed_feed_entries():
    a, b = make_clients()
    run_encounter(a, b, start=0, duration=400)
    feed = report_infection_dh(a.records, "T" * 12)["entries"]
    bad = [{"meta_b64": "AA=="}, [1], None, {"hash_hex": "ab" * 32, "meta_b64": "not base64!"},
           {"hash_hex": "zz" * 32, "meta_b64": "AA=="}]
    b.index.ingest(bad + feed)
    exposures = b.sync()
    assert len(exposures) == 1 and b.index.skipped == len(bad)
    assert [e for entries in b.index.by_hash.values() for e in entries] == feed


def test_a_pruned_key_pair_is_derived_again_alike():
    a, b = make_clients()
    first = a.keypair(0)
    a.keypair(1)
    a.keypair(2)
    assert sorted(a._keypairs) == [1, 2]
    again = a.keypair(0)
    assert again is not first
    assert (again.secret, again.public) == (first.secret, first.public)
    peer = b.keypair(0).public
    assert again.loaded_secret is not first.loaded_secret
    assert dh_token(again.loaded_secret, peer, a.cfg.group) \
        == dh_token(first.loaded_secret, peer, a.cfg.group)


def test_the_pseudonym_is_the_window_stream_s_16_bytes_and_comes_back_alike():
    a, _ = make_clients()
    rotation = a.cfg.rotation_s

    def expected(epoch):
        return a.stream.child(f"pseudo:{epoch}").take(16)

    first = a.advertisement_identifier(0)
    assert len(first) == 16 and first == expected(0)
    assert a.advertisement_identifier(rotation - 1) == first
    second = a.advertisement_identifier(rotation)
    assert second == expected(1) and second != first
    # the clock moved back: the earlier windows' pseudonyms again
    assert a.advertisement_identifier(rotation - 1) == first
    assert a.advertisement_identifier(-1) == expected(-1) not in (first, second)
    assert a.advertisement_identifier(rotation + 5) == second


class ReferenceDhClient(DhClient):
    """The co-presence tick as it was before a finalized encounter skipped
    it: every tick accrues, and tries to pair and to finalize."""

    def on_copresence_tick(self, peer_id, seconds, local_t):
        epoch = self.epoch_of(local_t)
        conn = self._conns.get(peer_id)
        if conn is not None and conn.open:
            self._ensure_key_sent(conn, epoch, local_t)
        pending = self._ensure_pending(peer_id, epoch, local_t)
        pending.accrued_s += seconds
        self._try_pair(pending)
        self._maybe_finalize(pending)


class SendLog(World):
    """A world that keeps every message a client sends, and every event."""

    def __init__(self, *args, **kwargs):
        self.log = []
        super().__init__(*args, sink=self.log.append, **kwargs)
        self.sent = []

    def send(self, conn, sender_id, payload):
        self.sent.append((self.now, conn.cid, sender_id, dict(payload)))
        super().send(conn, sender_id, payload)


def dh_pair_day(client_class, cfg, contacts, offsets, seed):
    """Two clients of client_class meeting over contacts, (gap, length)
    pairs laid one after another; returns the world and the two clients."""
    edges, t = [], 0
    for gap, length in contacts:
        edges.append(ContactEdge("a", "b", t + gap, t + gap + length))
        t += gap + length
    root = SeedStream(seed, "dh-pair")
    world = SendLog(ContactTrace(edges), root.child("world"), link_rotation_s=cfg.rotation_s)
    clients = [client_class(root.child(did), cfg) for did in ("a", "b")]
    for did, client, offset in zip(("a", "b"), clients, offsets):
        world.add_device(did, client, offset)
    world.run()
    return world, clients


@settings(max_examples=40, deadline=None)
@given(contacts=st.lists(st.tuples(st.integers(0, 1500), st.integers(5, 2400)),
                         min_size=1, max_size=3),
       offsets=st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
       windows=st.sampled_from([(900, 300), (900, 5), (300, 295), (120, 60)]),
       seed=st.integers(0, 2**16))
def test_a_finished_encounter_skips_the_tick_and_changes_nothing(contacts, offsets, windows, seed):
    cfg = DhConfig(rotation_s=windows[0], min_encounter_s=windows[1])
    world, clients = dh_pair_day(DhClient, cfg, contacts, offsets, seed)
    ref_world, ref_clients = dh_pair_day(ReferenceDhClient, cfg, contacts, offsets, seed)
    for client, ref in zip(clients, ref_clients):
        assert [(r.token, r.my_timestamp) for r in client.records] \
            == [(r.token, r.my_timestamp) for r in ref.records]
    assert world.sent == ref_world.sent
    assert world.log == ref_world.log


class EagerDhClient(DhClient):
    """The client as it was before tokens were derived at finalize: every
    pairing derives a token at once, a fallback pairing and the exact-window
    pairing that replaces it both, and so does an encounter that never
    finalizes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tokens = {}       # (peer, epoch) -> the token of its pairing

    def _pair_with(self, pending, peer_pub, epoch):
        kp = self.keypair(pending.epoch)
        pending.paired_epoch = epoch
        self._tokens[(pending.peer_id, pending.epoch)] = dh_mod.dh_token(
            kp.loaded_secret, peer_pub, self.cfg.group, window_index=pending.epoch)

    def _try_pair(self, pending):
        if pending.record is not None:
            return
        exact = self._peer_keys.get((pending.peer_id, pending.epoch))
        if exact is not None:
            if pending.paired_epoch != pending.epoch:
                self._pair_with(pending, exact, pending.epoch)
            return
        if (pending.peer_id, pending.epoch) in self._tokens:
            return
        for e in (pending.epoch - 1, pending.epoch + 1):
            peer_pub = self._peer_keys.get((pending.peer_id, e))
            if peer_pub is not None:
                self._pair_with(pending, peer_pub, e)
                return

    def _maybe_finalize(self, pending):
        token = self._tokens.get((pending.peer_id, pending.epoch))
        if pending.record is not None or token is None:
            return
        if pending.accrued_s < self.cfg.min_encounter_s:
            return
        pending.record = EncounterRecord(token, pending.started_at)
        self.records.append(pending.record)


def counting_dh_tokens(calls):
    """A patch of dh_mod.dh_token that appends each call's window to calls."""
    real = dh_mod.dh_token

    def counting(*args, **kwargs):
        calls.append(kwargs.get("window_index"))
        return real(*args, **kwargs)

    return mock.patch.object(dh_mod, "dh_token", counting)


# b's clock is 100 s behind a's over a contact across the window 0/1 boundary:
# a's window-1 encounter pairs first with b's window-0 key, then with b's
# window-1 key when b's clock rolls over
FALLBACK_THEN_UPGRADE = {"contacts": [(850, 600)], "offsets": (100, 0),
                         "windows": (900, 300), "seed": 1}


@settings(max_examples=40, deadline=None)
@given(contacts=st.lists(st.tuples(st.integers(0, 1500), st.integers(5, 2400)),
                         min_size=1, max_size=3),
       offsets=st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
       windows=st.sampled_from([(900, 300), (900, 5), (300, 295), (120, 60)]),
       seed=st.integers(0, 2**16))
@example(**FALLBACK_THEN_UPGRADE)
def test_a_token_derived_at_finalize_is_the_one_derived_at_pairing(contacts, offsets,
                                                                   windows, seed):
    cfg = DhConfig(rotation_s=windows[0], min_encounter_s=windows[1])
    calls = []
    with counting_dh_tokens(calls):
        world, clients = dh_pair_day(DhClient, cfg, contacts, offsets, seed)
    ref_world, ref_clients = dh_pair_day(EagerDhClient, cfg, contacts, offsets, seed)
    for client, ref in zip(clients, ref_clients):
        assert [(r.token, r.my_timestamp) for r in client.records] \
            == [(r.token, r.my_timestamp) for r in ref.records]
    assert world.sent == ref_world.sent
    assert world.log == ref_world.log
    assert len(calls) == sum(len(client.records) for client in clients)


def test_the_example_pairs_by_fallback_then_upgrades_and_derives_once():
    pairings = []

    class RecordingPairs(DhClient):
        def _pair_with(self, pending, peer_pub, epoch):
            pairings.append((self.device_id, pending.epoch, epoch))
            super()._pair_with(pending, peer_pub, epoch)

    def run(client_class, calls):
        contacts, offsets, windows, seed = FALLBACK_THEN_UPGRADE.values()
        cfg = DhConfig(rotation_s=windows[0], min_encounter_s=windows[1])
        with counting_dh_tokens(calls):
            return dh_pair_day(client_class, cfg, contacts, offsets, seed)[1]

    calls, eager_calls = [], []
    clients = run(RecordingPairs, calls)
    run(EagerDhClient, eager_calls)
    # (device, its window, the peer key's window): a fallback, then the upgrade
    assert [p for p in pairings if p[0] == "a"] == [("a", 1, 0), ("a", 1, 1)]
    assert [r.token.window_index for r in clients[0].records] == [1]
    assert len(calls) == sum(len(c.records) for c in clients) < len(eager_calls)


class RewritingDhClient(DhClient):
    """Sends each pubkey message as rewrite(message) makes it."""

    def __init__(self, stream, rewrite):
        super().__init__(stream)
        self.rewrite = rewrite

    def _ensure_key_sent(self, conn, epoch, local_t):
        if (conn.cid, epoch) not in self._keys_sent:
            self._keys_sent.add((conn.cid, epoch))
            message = {"kind": "pubkey", "epoch": epoch, "key": self.keypair(epoch).public.hex()}
            conn.send(self.device_id, self.rewrite(message))


def run_against(rewrite):
    """An honest client "a" beside "b", whose pubkey messages rewrite makes."""
    root = SeedStream(3, "low-order")
    world = SendLog(ContactTrace([ContactEdge("a", "b", 0, 600)]), root.child("world"))
    honest = DhClient(root.child("a"))
    world.add_device("a", honest)
    world.add_device("b", RewritingDhClient(root.child("b"), rewrite))
    world.run()
    return honest, world


def test_a_small_order_peer_key_is_rejected_and_the_world_runs_on():
    # the all-zero X25519 encoding is a small-order point
    honest, world = run_against(lambda message: {**message, "key": "00" * 32})
    assert honest.rejected_keys == 1
    assert not honest.wants_connection("b", 600)
    assert honest.records == [] and honest._pending[("b", 0)].paired_key is None
    assert any(p["key"] == "00" * 32 for _, _, sender, p in world.sent if sender == "b")


def _without(name):
    return lambda message: {k: v for k, v in message.items() if k != name}


@pytest.mark.parametrize("rewrite", [
    lambda m: {**m, "key": "zz"},
    lambda m: {**m, "key": m["key"][1:]},      # an odd number of hex digits
    lambda m: {**m, "key": m["key"][:2] + " " + m["key"][2:]},
    lambda m: {**m, "key": 5},
    lambda m: {**m, "epoch": "0"},
    lambda m: {**m, "epoch": 0.5},
    lambda m: {**m, "epoch": True},
    _without("epoch"),
    _without("key"),
    lambda m: {**m, "note": "hi"},
], ids=["non-hex key", "odd key", "spaced key", "int key", "str epoch", "float epoch",
        "bool epoch", "no epoch", "no key", "unknown field"])
def test_a_malformed_pubkey_message_is_rejected_and_the_world_runs_on(rewrite):
    honest, world = run_against(rewrite)
    assert any(sender == "b" for _, _, sender, _ in world.sent)
    assert honest.rejected_keys == 1
    assert not honest.wants_connection("b", 600)
    assert honest.records == [] and honest._peer_keys == {}


class RecordingConn(PipeConn):
    """A PipeConn that keeps every message sent over it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent = []

    def send(self, sender_id, payload):
        self.sent.append((sender_id, dict(payload)))
        super().send(sender_id, payload)


def test_a_tick_in_a_finished_window_sends_its_key_on_a_newer_connection():
    a, b = make_clients()
    run_encounter(a, b, start=0, duration=400)      # window 0 finalized over cid 1
    record = a._pending[("b", 0)].record
    assert record is not None
    conn = RecordingConn(a, b, cid=2)
    conn.local_times = {"a": 1000, "b": 1000}
    a.handshake(conn, 1000)                         # window 1 over a newer connection
    conn.local_times["a"] = 300                     # a's clock set back into window 0
    a.on_copresence_tick("b", 5, 300)
    window_0_key = {"kind": "pubkey", "epoch": 0, "key": a.keypair(0).public.hex()}
    assert ("a", window_0_key) in conn.sent
    assert a.records == [record]


def test_a_clock_moved_back_across_a_finalized_window_makes_no_second_record():
    # a and b meet twice; between the two contacts a's clock goes back 300 s,
    # so a's second contact starts in window 2, finalized in the first one
    root = SeedStream(4, "clock-back")
    cfg = DhConfig(rotation_s=300, min_encounter_s=60)
    world = SendLog(ContactTrace([ContactEdge("a", "b", 0, 1000),
                                  ContactEdge("a", "b", 1100, 1800)]),
                    root.child("world"), link_rotation_s=300, capabilities=("clock",))
    a, b = DhClient(root.child("a"), cfg), DhClient(root.child("b"), cfg)
    world.add_device("a", a)
    world.add_device("b", b)
    world.schedule(1050, world.set_clock, "a", -300)
    world.run()
    assert [r.token.window_index for r in a.records] == [0, 1, 2, 3, 4]
    assert [r.my_timestamp for r in a.records][2:] == [600, 900, 1200]
    assert [r.token.window_index for r in b.records] == [0, 1, 2, 3, 4, 5]
    # the two connections were each closed, and each dropped the keys sent over it
    assert [e.payload["cid"] for e in world.log if e.kind == "disconnect"] == [1, 2]
    assert a._keys_sent == b._keys_sent == set()


# -- reference: DhClient.sync and the matchers as they were before the shared index --

def reference_match_exposures_dh(records, published, cfg):
    by_hash = {}
    for entry in published:
        by_hash.setdefault(entry["hash_hex"], []).append(entry)
    out = []
    for rec in records:
        h = hash_token(rec.token).hex()
        for entry in by_hash.get(h, ()):
            remote_ts = open_timestamp(rec.token, unb64(entry["meta_b64"]))
            if remote_ts is None:
                continue
            delta = abs(rec.my_timestamp - remote_ts)
            if delta <= cfg.epsilon_s:
                out.append(DhExposure(h, delta, rec.token.window_index))
                break
    return out


def reference_superspreader_check(records, published, cfg):
    published_hashes = {e["hash_hex"] for e in published}
    matched = [r.token for r in records if hash_token(r.token).hex() in published_hashes]
    warn = len(matched) >= cfg.superspreader_threshold
    return {"warn": warn, "matches": len(matched), "proof": matched if warn else []}


class ReferenceDhSync:
    """DhClient.sync as it was: its own copy of the feed, over a client's records."""

    def __init__(self, client):
        self.client = client
        self.known_published = []
        self.skipped = 0
        self.notified = set()

    def sync(self, feed_entries):
        good = [e for e in feed_entries if passes(e, DH_ENTRY)]
        self.skipped += len(feed_entries) - len(good)
        known = {e["hash_hex"] for e in self.known_published}
        self.known_published.extend(e for e in good if e["hash_hex"] not in known)
        if self.client.reported:
            return []
        exposures = reference_match_exposures_dh(self.client.records, self.known_published,
                                                 self.client.cfg)
        fresh = [e for e in exposures if e.token_hash_hex not in self.notified]
        self.notified.update(e.token_hash_hex for e in fresh)
        return fresh

    def superspreader_check(self):
        return reference_superspreader_check(self.client.records, self.known_published,
                                             self.client.cfg)


# -- strategies: records and feed pages over a small pool of tokens -----------------

SYNC_CFG = DhConfig(epsilon_s=60, superspreader_threshold=2)
TOKENS = [EncounterToken(SeedStream(k, "token").take(32), k % 3) for k in range(4)]
STAMPS = [0, 30, 61, 500]      # 0 and 30 lie within epsilon, 61 and 500 do not
token_idx = st.integers(0, len(TOKENS) - 1)


def entry_of(k, stamp, sealer=None):
    """A feed entry for pool token k, sealed under token sealer (k when None)."""
    return {"hash_hex": hash_token(TOKENS[k]).hex(),
            "meta_b64": b64(seal_timestamp(TOKENS[k if sealer is None else sealer], stamp))}


@st.composite
def published_entry(draw):
    """An entry for one pool token carrying one of a few handshake times; one
    in three is sealed under the next token, so its seal does not open."""
    k = draw(token_idx)
    return entry_of(k, draw(st.sampled_from(STAMPS)),
                    draw(st.sampled_from([k, k, (k + 1) % len(TOKENS)])))


malformed_entry = st.sampled_from([
    {"meta_b64": "AA=="}, [1], None, "not an object",
    {"hash_hex": "ab" * 32, "meta_b64": "not base64!"},
    {"hash_hex": "zz" * 32, "meta_b64": "AA=="},
])
page = st.lists(st.one_of(published_entry(), published_entry(), malformed_entry), max_size=6)
dh_operation = st.one_of(
    st.tuples(st.just("record"), st.tuples(st.integers(0, 2), token_idx, st.sampled_from(STAMPS))),
    st.tuples(st.just("sync"), page),
    st.tuples(st.just("sync again"), st.none()),
    st.tuples(st.just("report"), st.integers(0, 2)),
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(dh_operation, max_size=16))
# within a page, a later entry of a hash matches after an earlier one fails
@example(ops=[("record", (0, 0, 0)), ("sync", [entry_of(0, 0, 1), entry_of(0, 500), entry_of(0, 30)])])
# across pages, the later page's entry of a known hash is dropped
@example(ops=[("record", (0, 0, 0)), ("sync", [entry_of(0, 0, 1)]), ("sync", [entry_of(0, 0)])])
# a record finalized after its hash was notified is not notified again
@example(ops=[("record", (0, 0, 0)), ("sync", [entry_of(0, 0)]), ("record", (0, 0, 30)),
              ("sync again", None)])
def test_clients_sharing_an_index_sync_as_the_reference(ops):
    index = PublishedDhIndex()
    clients = [DhClient(SeedStream(i, "sync"), SYNC_CFG, index) for i in range(3)]
    refs = [ReferenceDhSync(client) for client in clients]
    last, malformed = [], 0
    for kind, arg in ops:
        if kind == "record":         # an encounter finalized between syncs
            who, k, stamp = arg
            clients[who].records.append(EncounterRecord(TOKENS[k], stamp))
        elif kind == "report":
            clients[arg].make_report("T" * 12)
        else:
            # the page enters the shared index once, as a run's sync round does
            if kind == "sync":
                last = arg
                malformed += sum(not passes(e, DH_ENTRY) for e in arg)
                index.ingest(arg)
            for client, ref in zip(clients, refs):
                assert client.sync() == ref.sync(last)
                assert client.superspreader_check() == ref.superspreader_check()
                assert index.skipped == malformed     # each page is checked once
                # a sync decides every record whose hash it finds published
                assert client.reported or not any(r.hash_hex in index.by_hash
                                                  for r in client._unpublished)
    assert sorted(e["hash_hex"] for entries in index.by_hash.values() for e in entries) \
        == sorted(e["hash_hex"] for e in refs[0].known_published)


def test_a_decided_record_opens_its_seal_once(monkeypatch):
    # token 0's entry seals a time beyond epsilon; token 1's is sealed under token 2
    client = DhClient(SeedStream(0, "once"), SYNC_CFG)
    client.records += [EncounterRecord(TOKENS[0], 0), EncounterRecord(TOKENS[1], 0)]
    opened = []

    def counting_open(token, sealed):
        remote_ts = open_timestamp(token, sealed)
        opened.append((hash_token(token).hex(), remote_ts))
        return remote_ts

    monkeypatch.setattr(dh_mod, "open_timestamp", counting_open)
    client.index.ingest([entry_of(0, 500), entry_of(1, 0, sealer=2)])
    for _ in range(3):
        assert client.sync() == []
    assert opened == [(client.records[0].hash_hex, 500), (client.records[1].hash_hex, None)]
    assert client._unpublished == []


# -- each feed page is checked once per run --------------------------------------------

def small_day(scheme):
    """Twelve devices, random contacts over four hours, two reports: two feed
    pages with entries, each handed to every device."""
    rng = random.Random(7)
    ids = [f"d{i}" for i in range(12)]
    trace = []
    for _ in range(40):
        a, b = rng.sample(ids, 2)
        start = rng.randrange(0, 10000)
        trace.append([a, b, start, start + rng.randrange(400, 1800)])
    return {"id": f"small_{scheme}", "seed": 7,
            "runs": [{"label": "day", "scheme": scheme, "devices": ids, "contact_trace": trace,
                      "infections": [{"device": "d0", "report_at": 12000},
                                     {"device": "d1", "report_at": 13000}],
                      "duration_s": 14400}]}


@pytest.mark.parametrize("scheme,rule", [("tek", TEK_FEED_ENTRY), ("dh", DH_FEED_ENTRY)])
def test_a_run_checks_each_feed_entry_once_per_page_fetched(monkeypatch, scheme, rule):
    checked, pages = [], []
    fetch_feed = TracingServer.fetch_feed

    def counting_passes(value, table):
        checked.append(table is rule)
        return passes(value, table)

    def counting_fetch(server, feed, since_cursor=0):
        entries, cursor = fetch_feed(server, feed, since_cursor)
        pages.append(len(entries))
        return entries, cursor

    monkeypatch.setattr(tek_mod, "passes", counting_passes)
    monkeypatch.setattr(dh_mod, "passes", counting_passes)
    monkeypatch.setattr(TracingServer, "fetch_feed", counting_fetch)
    metrics = run_scenario(small_day(scheme))
    assert metrics["runs"]["day"]["notified_devices"]
    assert len([n for n in pages if n]) == 2 and len(pages) == 3
    assert all(checked) and len(checked) == sum(pages)     # not sum(pages) * 12
