"""Diffie-Hellman encounter-token scheme (the TraceCORONA family).

Instead of broadcasting identifiers, devices advertise an opaque per-window
pseudonym and establish a BLE *connection* with peers they stay near. Over
the connection both sides exchange the full ephemeral public key for the
current rotation window (public keys do not fit in an advertisement), and
once accumulated co-presence reaches the minimum encounter duration each
side derives the shared encounter token. Private keys never leave the
device, so only the two participants can know a token.

Reporting uploads, per encounter, the SHA-256 of the token plus the
handshake start time sealed under a token-derived AEAD key. A counterpart
matches by hashing its own tokens, opening the sealed timestamp, and
accepting only when the two recorded times differ by at most epsilon.

A published entry is checked once per run, not once per device and sync.
``PublishedDhIndex`` holds every entry a run has ingested: hash_hex -> its
entries in feed order. One index is shared by every client of a run; a
client built without one keeps a private index. Ingestion skips (and
counts), once per page, an entry that breaks DH_FEED_ENTRY, an upload's
DH_ENTRY and the published_at the server stamps, so one bad entry cannot
break matching for anyone. Only a sync round hands the index a page
(PublishedDhIndex.wake); a client's sync, like the superspreader check,
looks each record's hash up in the index. The index also keeps, per token
hash, the devices that recorded it, so that a round syncs only the devices
it can notify: those holding a record of a hash the round brought, and
those that finalized a record of a published hash since the last round.

Consequences exercised by the adversary lab:

* one-way relays get nothing: copying beacons cannot complete a handshake;
* real-time two-way relays are capped by the 8-connection radio budget and
  defeated outright when the wormhole's latency exceeds epsilon;
* a claimant holding only the public feed cannot produce any token that
  superspreader verification would accept.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..crypto_core import (
    DH_FEED_ENTRY,
    EncounterToken,
    EphemeralKeyPair,
    GroupParams,
    b64,
    dh_token,
    hash_token,
    keygen,
    open_timestamp,
    seal_timestamp,
    unb64,
)
from ..errors import ConfigurationError, FieldError, HandshakeError
from ..radio import SCAN_TICK_S, Connection, DeviceClient, IDENTIFIER_FIELD_LEN
from ..rng import SeedStream
from ..schema import Field, check, passes, predicate
from .wake import WakeMap

_HEX_BYTES = re.compile("(?:[0-9a-fA-F]{2})*")
# a pubkey message as a client sends it; validate_public checks the key's
# length and point. A message that breaks either is a refused key.
PUBKEY_MESSAGE = {
    "kind": Field(str), "epoch": Field(int),
    "key": Field(predicate(lambda v, roles: type(v) is str and _HEX_BYTES.fullmatch(v) is not None,
                           "expected hex digits, got {!r}")),
}


@dataclass(frozen=True)
class DhConfig:
    rotation_s: int = 900            # new key pair every T (e.g. 15) minutes
    min_encounter_s: int = 300       # no token for shorter brushes (e.g. 5 minutes)
    epsilon_s: int = 60              # max |reporter ts - local ts| for a match
    superspreader_threshold: int = 3
    anonymized_upload: bool = False  # postbox mitigation, modeled not implemented
    group: GroupParams = field(default_factory=GroupParams.production)

    def __post_init__(self):
        if not self.min_encounter_s < self.rotation_s:
            raise ConfigurationError("min_encounter_s must be below rotation_s")
        if self.epsilon_s <= 0:
            raise ConfigurationError("epsilon_s must be positive")


@dataclass(slots=True)
class EncounterRecord:
    token: EncounterToken
    my_timestamp: int       # handshake start on this device's clock
    hash_hex: str = field(init=False)   # hash_token(token).hex(), computed once

    def __post_init__(self):
        self.hash_hex = hash_token(self.token).hex()


@dataclass(frozen=True)
class DhExposure:
    token_hash_hex: str
    delta_s: int
    window_index: int

    def as_dict(self) -> dict:
        return {"hash_hex": self.token_hash_hex, "delta_s": self.delta_s,
                "window": self.window_index}


@dataclass(slots=True)
class PendingEncounter:
    """Handshake in flight for one (peer, rotation window). The peer key it
    pairs with is chosen as soon as one is known: paired_key, the key the
    peer sent for window paired_epoch. The token is derived from it once,
    when the encounter finalizes into record."""

    peer_id: str
    epoch: int
    started_at: int
    accrued_s: int = 0
    paired_epoch: int | None = None
    paired_key: bytes | None = None
    record: EncounterRecord | None = None


def report_infection_dh(records: list[EncounterRecord], tan: str,
                        anonymized_upload: bool = False) -> dict:
    """Upload bundle: token hash + sealed handshake timestamp per encounter.
    Raw token bytes never appear here."""
    return {"scheme": "dh", "tan": tan, "anonymized": anonymized_upload,
            "entries": [{"hash_hex": r.hash_hex,
                         "meta_b64": b64(seal_timestamp(r.token, r.my_timestamp))}
                        for r in records]}


class PublishedDhIndex:
    """Every published DH entry one run has seen, each checked once.

    by_hash maps hash_hex to its entries in feed order. An entry whose hash
    was known before its page is dropped; a duplicate within one page is
    kept. skipped counts the malformed entries of the pages ingested.
    recorders is the run's wake map: the devices that recorded each hash,
    and those that recorded a published one since the last round (see wake).
    """

    def __init__(self):
        self.by_hash: dict[str, list[dict]] = {}
        self.skipped = 0
        self.recorders = WakeMap()

    def ingest(self, page: list) -> list[str]:
        """Index a feed page and return the hashes it brought, in page
        order."""
        arrived: dict[str, list[dict]] = {}     # hash_hex -> its entries in this page
        for entry in page:
            if not passes(entry, DH_FEED_ENTRY):
                self.skipped += 1
                continue
            hash_hex = entry["hash_hex"]
            if hash_hex in arrived:
                arrived[hash_hex].append(entry)
            elif hash_hex not in self.by_hash:
                arrived[hash_hex] = self.by_hash[hash_hex] = [entry]
        return list(arrived)

    def recorded(self, hash_hex: str, device: str) -> None:
        """device finalized a record of hash_hex."""
        self.recorders.record(hash_hex, device, True, hash_hex in self.by_hash)

    def wake(self, page: list) -> set[str]:
        """Ingest page and return the devices it can notify: those holding a
        record of a hash it brought, and those that finalized a record of a
        published hash since the last round. An entry of a hash known before
        its page is dropped, so a sync would find nothing on any other
        device."""
        return self.recorders.wake(self.ingest(page))


def match_exposures_dh(records: list[EncounterRecord], by_hash: dict[str, list[dict]],
                       cfg: DhConfig) -> list[DhExposure]:
    """A record matches a published entry when the token hashes agree, the
    sealed metadata opens under the local token, and the two handshake
    timestamps differ by at most epsilon. by_hash maps a published hash_hex
    to its entries in feed order, as PublishedDhIndex.by_hash does; the first
    entry that matches counts. Entries that fail authentication are ignored.
    At most one exposure per local record."""
    out = []
    for rec in records:
        for entry in by_hash.get(rec.hash_hex, ()):
            remote_ts = open_timestamp(rec.token, unb64(entry["meta_b64"]))
            if remote_ts is None:
                continue
            delta = abs(rec.my_timestamp - remote_ts)
            if delta <= cfg.epsilon_s:
                out.append(DhExposure(rec.hash_hex, delta, rec.token.window_index))
                break
    return out


def encode_proof(tokens: list[EncounterToken], group: GroupParams) -> dict:
    """Proof wire form: hex for the toy group, base64 for the production one."""
    if group.kind == "toy-modp":
        return {"tokens": [t.secret.hex() for t in tokens], "encoding": "hex"}
    return {"tokens": [b64(t.secret) for t in tokens], "encoding": "b64"}


class DhClient(DeviceClient):
    def __init__(self, stream: SeedStream, cfg: DhConfig | None = None,
                 index: PublishedDhIndex | None = None):
        self.cfg = cfg or DhConfig()
        self.stream = stream
        self.records: list[EncounterRecord] = []
        self.reported = False
        self.index = index or PublishedDhIndex()
        self._keypairs: dict[int, EphemeralKeyPair] = {}
        self._beacon: tuple[int | None, bytes] = (None, b"")   # (epoch, pseudonym)
        self._pending: dict[tuple[str, int], PendingEncounter] = {}
        self._peer_keys: dict[tuple[str, int], bytes] = {}
        self._keys_sent: set[tuple[int, int]] = set()   # (cid, epoch)
        self._conns: dict[str, Connection] = {}
        self._aborted_peers: set[str] = set()
        self._notified_hashes: set[str] = set()
        # the records whose hash sync has not found published yet, in record
        # order, and how many of records it has looked at: records is only
        # appended to
        self._unpublished: list[EncounterRecord] = []
        self._records_seen = 0
        self.rejected_keys = 0

    # -- key material ---------------------------------------------------------

    def epoch_of(self, local_t: int) -> int:
        return local_t // self.cfg.rotation_s

    def keypair(self, epoch: int) -> EphemeralKeyPair:
        """The window's key pair. Only the last two windows' pairs are kept;
        the window's stream gives an older one the same bytes again."""
        kp = self._keypairs.get(epoch)
        if kp is None:
            kp = self._keypairs[epoch] = keygen(self.cfg.group, self.stream.child(f"key:{epoch}"))
            if len(self._keypairs) > 2:
                self._keypairs.pop(min(self._keypairs))
        return kp

    def advertisement_identifier(self, local_t: int) -> bytes:
        """Beacons carry only an opaque per-window pseudonym; the public key
        (32 bytes) cannot fit and travels over connections instead. Only the
        current window's pseudonym is kept; the window's stream gives an
        earlier one (a clock moved back) the same bytes again."""
        epoch = self.epoch_of(local_t)
        if self._beacon[0] != epoch:
            self._beacon = (epoch, self.stream.child(f"pseudo:{epoch}").take(IDENTIFIER_FIELD_LEN))
        return self._beacon[1]

    # -- handshake --------------------------------------------------------------

    def wants_connection(self, peer_id: str, local_t: int) -> bool:
        return peer_id not in self._aborted_peers

    def on_connected(self, conn: Connection, local_t: int) -> None:
        self.handshake(conn, local_t)

    def on_disconnect(self, conn: Connection, local_t: int) -> None:
        """Forget the connection. The keys sent over it are never read again:
        a cid is not reused, and no message is delivered on a closed one."""
        peer = conn.peer_of(self.device_id)
        if self._conns.get(peer) is conn:
            del self._conns[peer]
        self._keys_sent = {sent for sent in self._keys_sent if sent[0] != conn.cid}

    def handshake(self, conn: Connection, local_t: int) -> PendingEncounter | EncounterRecord:
        """Start (or continue) the two-way exchange for the current rotation
        window over an open connection. Returns the finalized record once
        co-presence reaches the minimum duration, the pending state before."""
        epoch = self.epoch_of(local_t)
        self._conns[conn.peer_of(self.device_id)] = conn
        pending = self._ensure_pending(conn.peer_of(self.device_id), epoch, local_t)
        self._ensure_key_sent(conn, epoch, local_t)
        return pending.record or pending

    def _ensure_pending(self, peer_id: str, epoch: int, local_t: int) -> PendingEncounter:
        key = (peer_id, epoch)
        if key not in self._pending:
            self._pending[key] = PendingEncounter(peer_id, epoch, started_at=local_t)
            self._try_pair(self._pending[key])
        return self._pending[key]

    def _ensure_key_sent(self, conn: Connection, epoch: int, local_t: int) -> None:
        if (conn.cid, epoch) in self._keys_sent:
            return
        self._keys_sent.add((conn.cid, epoch))
        kp = self.keypair(epoch)
        conn.send(self.device_id, {"kind": "pubkey", "epoch": epoch, "key": kp.public.hex()})

    def on_message(self, conn: Connection, sender_id: str, payload: dict, local_t: int) -> None:
        if payload.get("kind") != "pubkey":
            return
        try:
            check(payload, PUBKEY_MESSAGE)
        except FieldError:
            self.rejected_keys += 1
            self._aborted_peers.add(sender_id)
            return
        their_epoch = payload["epoch"]
        my_epoch = self.epoch_of(local_t)
        if abs(their_epoch - my_epoch) > 1:
            # stale or far-future key: not a legal handshake partner state
            self.rejected_keys += 1
            return
        peer_pub = bytes.fromhex(payload["key"])
        try:
            self.cfg.group.validate_public(peer_pub)
        except HandshakeError:
            self.rejected_keys += 1
            self._aborted_peers.add(sender_id)
            return
        self._peer_keys[(sender_id, their_epoch)] = peer_pub
        self._conns[sender_id] = conn
        self._ensure_key_sent(conn, my_epoch, local_t)
        pending = self._ensure_pending(sender_id, my_epoch, local_t)
        self._try_pair(pending)
        self._maybe_finalize(pending)

    def _pair_with(self, pending: PendingEncounter, peer_pub: bytes, epoch: int) -> None:
        pending.paired_epoch = epoch
        pending.paired_key = peer_pub

    def _try_pair(self, pending: PendingEncounter) -> None:
        """Choose the peer key my window key pairs with: the peer key of the
        same window; across a rotation boundary with skewed clocks, an
        adjacent-window key (the fallback choices of the two sides mirror
        each other, so the secrets still agree). A fallback choice gives way
        to the exact-window key if it arrives before the record is
        finalized. Only the choice is made here; _maybe_finalize derives the
        token from it."""
        if pending.record is not None:
            return
        exact = self._peer_keys.get((pending.peer_id, pending.epoch))
        if exact is not None:
            if pending.paired_epoch != pending.epoch:
                self._pair_with(pending, exact, pending.epoch)
            return
        if pending.paired_epoch is not None:
            return
        for e in (pending.epoch - 1, pending.epoch + 1):
            peer_pub = self._peer_keys.get((pending.peer_id, e))
            if peer_pub is not None:
                self._pair_with(pending, peer_pub, e)
                return

    def quiet_until(self, peer_id: str, local_t: int) -> int:
        """Where the scan ticks with peer_id from local_t on stop being quiet:
        the window's end, since the pseudonym, the key and the encounter all
        change with it; and, as this tick changes more than accrued_s, one
        tick when it sends the window's key over an open connection, or when
        it finalizes. An encounter that will be paired after this tick
        (already paired, or a key of the peer's for an adjacent window)
        finalizes on the first tick that brings accrued_s to
        min_encounter_s; the span stops before that tick. Only a message
        changes the peer keys, and a delivery touching either device ends
        every span. With no open connection, the key rule does not apply:
        the radio, not this client, stops a span before a tick on which it
        may connect, and a peer that never connects sends no key. The
        finalize rule still does, since a relayed connection this client was
        not told of accrues co-presence."""
        epoch = self.epoch_of(local_t)
        end = (epoch + 1) * self.cfg.rotation_s
        conn = self._conns.get(peer_id)
        if conn is not None and conn.open and (conn.cid, epoch) not in self._keys_sent:
            return local_t + 1
        pending = self._pending.get((peer_id, epoch))
        if pending is not None and pending.record is not None:
            return end
        if not ((pending is not None and pending.paired_epoch is not None)
                or any((peer_id, e) in self._peer_keys for e in (epoch - 1, epoch, epoch + 1))):
            return end
        accrued = 0 if pending is None else pending.accrued_s
        # ticks up to and including the one that finalizes
        to_final = -((accrued - self.cfg.min_encounter_s) // SCAN_TICK_S)
        return min(end, local_t + max(1, SCAN_TICK_S * (to_final - 1)))

    def on_copresence_tick(self, peer_id: str, seconds: int, local_t: int) -> None:
        """seconds of co-presence from local_t on. A span of several ticks
        never holds a finalize (quiet_until), so accruing them at once is
        accruing them one by one."""
        epoch = self.epoch_of(local_t)
        conn = self._conns.get(peer_id)
        if conn is not None and conn.open:
            # rotation rollover mid-connection: push the fresh window's key
            self._ensure_key_sent(conn, epoch, local_t)
        pending = self._pending.get((peer_id, epoch))
        if pending is None:
            pending = self._ensure_pending(peer_id, epoch, local_t)
        elif pending.record is not None:
            return      # finalized: its token is fixed and nothing reads accrued_s
        pending.accrued_s += seconds
        self._try_pair(pending)
        self._maybe_finalize(pending)

    def _maybe_finalize(self, pending: PendingEncounter) -> None:
        """Once a paired encounter reaches the minimum duration, derive its
        token, the one exchange it costs, and keep the record."""
        if pending.record is not None or pending.paired_key is None:
            return
        if pending.accrued_s < self.cfg.min_encounter_s:
            return
        token = dh_token(self.keypair(pending.epoch).loaded_secret, pending.paired_key,
                         self.cfg.group, window_index=pending.epoch)
        pending.record = EncounterRecord(token, pending.started_at)
        self.records.append(pending.record)
        self.index.recorded(pending.record.hash_hex, self.device_id)

    # -- reporting and matching ---------------------------------------------------

    def make_report(self, tan: str) -> dict:
        self.reported = True
        return report_infection_dh(self.records, tan, self.cfg.anonymized_upload)

    def sync(self) -> list[DhExposure]:
        """Exposures new since the last sync among the entries the run's
        index has published. The index fixes a hash's entries in the page
        that brings it, so the first sync that finds a record's hash
        published decides the record for good: it is matched then, unless
        its hash was notified before, and its seal is never opened again.
        The records whose hash is not published yet wait for a later sync."""
        if self.reported:
            return []
        by_hash, notified = self.index.by_hash, self._notified_hashes
        waiting = self._unpublished + self.records[self._records_seen:]
        self._records_seen = len(self.records)
        self._unpublished = [r for r in waiting if r.hash_hex not in by_hash]
        fresh = match_exposures_dh([r for r in waiting if r.hash_hex in by_hash
                                    and r.hash_hex not in notified], by_hash, self.cfg)
        notified.update(e.token_hash_hex for e in fresh)
        return fresh

    def superspreader_check(self) -> dict:
        """Count own tokens whose hash is in the index. Warn at the threshold;
        the matched raw tokens are released only through this flow, as the
        proof the service provider verifies against published hashes."""
        matched = [r.token for r in self.records if r.hash_hex in self.index.by_hash]
        warn = len(matched) >= self.cfg.superspreader_threshold
        return {"warn": warn, "matches": len(matched), "proof": matched if warn else []}
