"""Executable attack models, run against any scheme inside the radio world.

Attacks come in two forms:

* installers, which hook the attack into a world before it runs (relay
  wormholes, sniffer networks, the clock-shifting replay), and
* analyses, pure functions over what the attacker could see afterwards
  (sighting linkage, social-graph extraction, fake-claim attempts).

Linkage and the social graph take no scheme argument. What separates the
schemes there is who a sniffed beacon can be attributed to, and that is
handed in as an owner map: identifier bytes -> the track label an adversary
can attach to them. A published daily key attributes all 144 of its
identifiers ("tek:..."), a colluding centralized provider every identifier
of its registry ("user:..."), and a DH pseudonym nothing past its rotation
window, so DH gets no map and sightings group by beacon payload
("beacon:...").

A sniffer keeps what it hears as runs, SnifferObservation(identifier,
first_at, last_at, sniffer_id): sightings of one identifier one scan tick
apart, first_at, first_at + SCAN_TICK_S, ..., last_at, on the attacker's
(global) clock. A sighting one tick after its identifier's last run extends
that run; a duplicate, or any other gap, starts a new one, as SightingLog
merges a TEK client's runs. So a sniffer takes the radio's spans, and a run
of ticks sightings stands for them one by one.

Neither analysis keeps the runs it reads. Linkage keeps one summary per
owner label, [first_at, last_at, count], where count adds up the ticks of
the label's runs: every figure a track has, how many, how long, how many
sightings. The social graph sweeps each sniffer's runs once, by first_at,
keeping for each owner the last tick heard of it so far. Two owners met when
one's run, widened by CO_SIGHT_WINDOW_S on each side, meets a tick of the
other's. On runs of ticks SCAN_TICK_S apart that is the per-sighting rule,
two sightings at most CO_SIGHT_WINDOW_S apart: a tick of one run inside the
other's [first_at, last_at] lies within SCAN_TICK_S / 2 of one of its ticks,
far less than CO_SIGHT_WINDOW_S, and a tick outside it is nearest to
first_at or last_at. So its cost follows
the runs and the owners heard together, not every pair of owners. Neither
depends on the order the runs come in.

Every attack is deterministic under the scenario seed: outcomes are counts,
not probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .crypto_core import DAY_S, DH_FEED_ENTRY, IDENTIFIER_SLOT_S, b64
from .radio import LINK_ADDR_LEN, SCAN_TICK_S, DeviceClient, World, takes_spans
from .rng import SeedStream
from .schema import CLOCK_LIMIT_S, passes
from .schemes.tek import PublishedTekIndex, SightingLog, match_exposures
from .server import TracingServer

TWO_WAY_FANOUT_LIMIT = 8   # a phone sustains 8 BLE connections, no more
CO_SIGHT_WINDOW_S = IDENTIFIER_SLOT_S   # two owners heard this close together met


# ---------------------------------------------------------------------------
# Passive sniffing
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class SnifferObservation:
    """A run: identifier heard by sniffer_id at first_at, first_at +
    SCAN_TICK_S, ..., last_at, on the attacker's clock (global time)."""

    identifier: bytes
    first_at: int
    last_at: int
    sniffer_id: str

    @property
    def ticks(self) -> int:
        return (self.last_at - self.first_at) // SCAN_TICK_S + 1


class SnifferClient(DeviceClient):
    """Passive collector: hears everything in range, emits nothing. Its runs
    are merged as the module docstring says, in the order they began."""

    def __init__(self):
        self.runs: list[SnifferObservation] = []
        self._last: dict[bytes, SnifferObservation] = {}    # identifier -> its last run

    def advertisement_identifier(self, local_t):
        return None   # never advertises

    def quiet_until(self, peer_id, local_t):
        return math.inf     # it beacons nothing, and a span only extends or starts a run

    def on_sighting(self, identifier, local_t, global_t, ticks=1):
        last_at = global_t + SCAN_TICK_S * (ticks - 1)
        run = self._last.get(identifier)
        if run is not None and run.last_at == global_t - SCAN_TICK_S:
            run.last_at = last_at
        else:
            run = self._last[identifier] = SnifferObservation(identifier, global_t, last_at,
                                                              self.device_id)
            self.runs.append(run)


class RelayNode(DeviceClient):
    """One end of a relay: it beacons and keeps nothing. install_relay's
    scheduled calls do its work, and the spans of the devices each one
    touches stop before it."""

    def quiet_until(self, peer_id, local_t):
        return math.inf


class ReplayClient(DeviceClient):
    """Attack-controlled beacon; broadcasts whatever the attack armed it with.
    That may be another device's identifier, so it keeps the base client's
    one tick at a time, and spans of edges near it stop before its ticks."""

    def __init__(self):
        self.payload: bytes | None = None

    def advertisement_identifier(self, local_t):
        return self.payload


# ---------------------------------------------------------------------------
# Relay (wormhole) attacks
# ---------------------------------------------------------------------------

@dataclass
class RelayPair:
    """Two attacker nodes bridging distant locations.

    one_way_broadcast copies every advertisement heard near node_a to every
    device near node_b, with unlimited fanout. two_way_realtime keeps live
    relayed connections open so a full handshake can cross the wormhole, at
    most 8 per relayed victim, and every message is delayed by latency_s.
    Its fields are checked by the relay table of scenario.ATTACKS, which
    refuses a fanout_limit above 8.
    """

    node_a: str
    node_b: str
    mode: str
    window: tuple[int, int]
    latency_s: int = 0
    fanout_limit: int = TWO_WAY_FANOUT_LIMIT
    tick_s: int = 60


def install_relay(world: World, pair: RelayPair) -> dict:
    """Wire a relay into the world; returns a live stats dict."""
    stats = {"mode": pair.mode, "copied_beacons": 0, "relayed_connections": 0,
             "relay_rejects": 0}
    start, end = pair.window
    if pair.mode == "one_way_broadcast":
        def capture(t, stops):
            # record what is on the air near node_a now; re-broadcast the
            # recording near node_b after the relay latency
            captured = []
            for src in world.trace.neighbors(pair.node_a, t):
                ident = world.devices[src].client.advertisement_identifier(world.local_time(src))
                if ident is not None:
                    captured.append(
                        (ident, world.stream.child(f"relay:{t}:{src}").take(LINK_ADDR_LEN)))
            if captured:
                world.schedule(t + pair.latency_s, rebroadcast, captured, stops=stops)

        def rebroadcast(captured):
            for sink in world.trace.neighbors(pair.node_b, world.now):
                for ident, link in captured:
                    stats["copied_beacons"] += 1
                    world.inject_beacon(sink, ident, link, origin=pair.node_a)

        def overhearing(t):
            """The listeners of what is captured at t that a span may hand a
            captured identifier straight from its owner: each that ever meets
            a device captured, or all when one captured takes no spans, as it
            may beacon another device's identifier."""
            sources = world.trace.neighbors(pair.node_a, t)
            sinks = world.trace.neighbors(pair.node_b, t + pair.latency_s)
            if not all(takes_spans(world.devices[src].client) for src in sources):
                return tuple(sinks)
            return tuple(sink for sink in sinks
                         if any(world.trace.has_any_contact(sink, src) for src in sources))

        # A client keeps what it hears per identifier, so a re-broadcast
        # commutes with every span of its listeners' but one that hands a
        # listener a captured identifier from its owner. It stops the spans
        # of each overhearing listener, and so does the capture that schedules
        # it: a span taken before the capture ran could not see the
        # re-broadcast. The capture itself only reads beacons, which hold for
        # a span's length.
        for t in range(start, end, pair.tick_s):
            stops = overhearing(t)
            world.schedule(t, capture, t, stops, stops=stops)
        return stats

    def open_links():
        victims = world.trace.neighbors(pair.node_a, world.now)
        targets = world.trace.neighbors(pair.node_b, world.now)
        conns = []
        for victim in victims:
            fanout = 0
            for target in targets:
                if target == victim:
                    continue
                if fanout >= pair.fanout_limit:
                    stats["relay_rejects"] += 1
                    continue
                conn = world.open_connection(victim, target, latency_s=pair.latency_s,
                                             relayed=True)
                if conn is None:
                    stats["relay_rejects"] += 1
                    continue
                fanout += 1
                conns.append(conn)
                # only the near side sees the handshake begin now; the far
                # side learns of it when the first delayed message lands
                world.devices[victim].client.on_connected(conn, world.local_time(victim))
            assert fanout <= TWO_WAY_FANOUT_LIMIT
        stats["relayed_connections"] = len(conns)
        opened_at = world.now

        def accrue(t):
            for conn in conns:
                if not conn.open:
                    continue
                world.devices[conn.a].client.on_copresence_tick(
                    conn.b, pair.tick_s, world.local_time(conn.a))
                # co-presence at the far end starts once the wormhole's
                # first signals have crossed
                if t >= opened_at + pair.latency_s:
                    world.devices[conn.b].client.on_copresence_tick(
                        conn.a, pair.tick_s, world.local_time(conn.b))

        # co-presence and teardown touch only the ends of the relayed connections
        touched = tuple(sorted({d for conn in conns for d in (conn.a, conn.b)}))
        for t in range(world.now + pair.tick_s, end, pair.tick_s):
            world.schedule(t, accrue, t, stops=touched)

        def teardown():
            for conn in conns:
                world.close_connection(conn)
        world.schedule(end, teardown, stops=touched)

    # names every span: the devices it connects are the nodes' neighbors when
    # it runs, and it runs once
    world.schedule(start, open_links)
    return stats


# ---------------------------------------------------------------------------
# Time travel / same-day replay
# ---------------------------------------------------------------------------

@dataclass
class TimeTravelAttack:
    """Shift the victim's clock back, replay an identifier derived from an
    already-published daily key, then restore the victim's own clock offset."""

    victim: str
    replayer: str
    offset_s: int
    at_s: int
    restore_at_s: int


def install_time_travel(world: World, server: TracingServer, attack: TimeTravelAttack,
                        scheme: str, tek_index: PublishedTekIndex) -> dict:
    stats = {"armed": False, "replayed_id": None}

    def shift():
        world.set_clock(attack.victim, attack.offset_s)
        replayer = world.devices[attack.replayer].client
        if scheme == "tek":
            published = tek_index.ingest_all(server.fetch_feed("tek")[0])
            if published:
                tek = published[0]
                victim_local = world.local_time(attack.victim)
                slot = (victim_local % DAY_S) // IDENTIFIER_SLOT_S
                day_of_victim = victim_local // DAY_S
                if day_of_victim == tek.day_index:
                    ident = tek_index.identifiers(tek)[slot]
                    replayer.payload = ident
                    stats["armed"] = True
                    stats["replayed_id"] = ident.hex()
        else:
            # nothing derivable from hash-only or unpublished feeds; beacon noise
            replayer.payload = world.stream.child("tt:noise").take(16)

    # both name every span: a clock moves only between spans, and shift reads
    # the feed into the run's TEK index and arms the replayer
    world.schedule(attack.at_s, shift)
    # back to the victim's own offset: nothing moves a clock before at_s
    world.schedule(attack.restore_at_s, world.set_clock, attack.victim,
                   world.devices[attack.victim].clock_offset_s)
    return stats


# ---------------------------------------------------------------------------
# Linkage analysis
# ---------------------------------------------------------------------------

def _attributed(runs: list[SnifferObservation], owners: dict[bytes, str]):
    """(label, run) for each run whose identifier owners attributes."""
    for run in runs:
        label = owners.get(run.identifier)
        if label is not None:
            yield label, run


def run_linkage(runs: list[SnifferObservation], owners: dict[bytes, str] | None = None) -> dict:
    """How far sniffed sightings link into per-device movement tracks.

    owners maps identifier bytes to the track label an adversary can attach
    to them; runs it does not attribute are dropped. A published daily key
    attributes all 144 of its identifiers, so its track spans the whole day;
    a colluding centralized provider attributes every identifier it issued
    or can derive to its user. Without an owner map, sightings group by
    identical beacon payload, which rotates per window, so no track can
    outlive one rotation period. A track is summed up as its label's
    [first_at, last_at, count], count being the ticks of its runs, whatever
    order the runs come in.
    """
    if owners is None:
        owners = {run.identifier: f"beacon:{run.identifier.hex()[:16]}" for run in runs}
    spans: dict[str, list[int]] = {}     # label -> [first_at, last_at, count]
    for label, run in _attributed(runs, owners):
        span = spans.get(label)
        if span is None:
            spans[label] = [run.first_at, run.last_at, run.ticks]
            continue
        if run.first_at < span[0]:
            span[0] = run.first_at
        if run.last_at > span[1]:
            span[1] = run.last_at
        span[2] += run.ticks
    return {"tracks": len(spans),
            "max_track_duration_s": max((last - first for first, last, _ in spans.values()),
                                        default=0),
            "max_track_sightings": max((n for _, _, n in spans.values()), default=0)}


# ---------------------------------------------------------------------------
# Fake exposure claims
# ---------------------------------------------------------------------------

def fake_claim_tek(server: TracingServer, claimant_local_t: int,
                   tek_index: PublishedTekIndex) -> dict:
    """Fabricate a sighting log purely from the public feed and run the
    standard matcher over it. Nothing distinguishes it from a real log: a
    key published for a day no device clock reads is not sighted."""
    published = tek_index.ingest_all(server.fetch_feed("tek")[0])
    log = SightingLog()
    slot = (claimant_local_t % DAY_S) // IDENTIFIER_SLOT_S
    for tek in published:
        seen_at = tek.day_index * DAY_S + slot * IDENTIFIER_SLOT_S + 30
        if seen_at < CLOCK_LIMIT_S:
            log.append(tek_index.identifiers(tek)[slot], seen_at)
    exposures = match_exposures(log, published, index=tek_index)
    return {"accepted": len(exposures) > 0, "fabricated_exposures": len(exposures)}


def fake_claim_dh(server: TracingServer, stream: SeedStream, guesses: int = 32) -> dict:
    """Try to forge superspreader proof tokens from public data: random
    blobs plus the published hashes themselves. Verification counts how many
    hash into the feed; preimage resistance keeps that at zero. A feed entry
    that breaks DH_FEED_ENTRY is skipped, as clients skip it."""
    entries, _ = server.fetch_feed("dh")
    candidates = [b64(stream.child(f"guess:{i}").take(32)) for i in range(guesses)]
    candidates += [b64(bytes.fromhex(e["hash_hex"])) for e in entries
                   if passes(e, DH_FEED_ENTRY)]
    accepted = server.verify_superspreader_proof({"tokens": candidates, "encoding": "b64"})
    # client-side matching needs the claimant's own encounter records, and
    # public data holds none, so no exposure can be fabricated
    return {"accepted": accepted > 0, "proof_accepted": accepted, "fabricated_exposures": 0}


def fake_claim_centralized(server: TracingServer, claimant_device: str,
                           runs: list[SnifferObservation]) -> dict:
    """An authenticated (infected) claimant uploads sniffed identifiers of
    people it never met; the server cannot tell them from honest records.
    Each run is one record, in the order the runs began, spanning its ticks
    taken as 60 s contacts: [first_at, last_at + 60]."""
    tan = server.issue_tan(claimant_device)
    records = [{"id_hex": run.identifier.hex(), "first_seen": run.first_at,
                "last_seen": run.last_at + 60} for run in runs]
    ack = server.accept_upload({"scheme": "centralized", "tan": tan.value,
                                "records": records})
    return {"accepted": ack["matched_users"] > 0,
            "victims_notified": ack["matched_users"]}


# ---------------------------------------------------------------------------
# Social graph extraction
# ---------------------------------------------------------------------------

def run_social_graph(server: TracingServer, runs: list[SnifferObservation],
                     owners: dict[bytes, str] | None) -> dict:
    """What an adversarial provider can learn about who met whom.

    The server's match history (centralized: every upload resolves straight
    to contact identities) gives its edges as they are. Through colluding
    sniffers, two owners whose identifiers were heard by the same sniffer
    within one identifier slot met too; with published daily keys, that
    links only infected users. DH hashes carry no identity: the history is
    empty and there is no owner map.
    """
    edges = {tuple(sorted((m["uploader_device"], m["contact_device"])))
             for m in server.match_history}
    heard_by: dict[str, list[tuple[int, int, str]]] = {}
    for label, run in _attributed(runs, owners or {}):
        heard_by.setdefault(run.sniffer_id, []).append((run.first_at, run.last_at, label))
    # one sweep along each sniffer's runs by first_at: an earlier run met this
    # one when its last tick is at most CO_SIGHT_WINDOW_S before this first one
    for heard in heard_by.values():
        recent: dict[str, int] = {}     # label -> its last tick heard so far
        for first, last, label in sorted(heard):
            recent = {other: end for other, end in recent.items()
                      if end >= first - CO_SIGHT_WINDOW_S}
            edges.update((min(label, other), max(label, other)) for other in recent
                         if other != label)
            recent[label] = max(last, recent.get(label, last))
    return {"recovered_edges": sorted(list(e) for e in edges),
            "recovered_edge_count": len(edges)}
