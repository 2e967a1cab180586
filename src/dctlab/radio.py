"""Deterministic discrete-event BLE world.

Time is integer seconds from the scenario origin. Work runs in a fixed order,
so a given (scenario, seed) pair always produces the identical event log, byte
for byte. A scheduled call is a heap entry: a function and the arguments it is
called with, ordered by (time, position, order). An edge's next scan tick is
one such entry, at the tick's key: the edge's first-tick time, latest first,
then the edge's index in trace.edges, folded into one even integer. So ticks
due at one time run in the order one entry per tick, each scheduled when the
edge's previous tick ran, would give, even when a span pushed the tick more
than one tick ahead.

A call due at a tick time runs among its ticks at a position worked out from
when it was scheduled, not counted; no edge has that position, so a call and
a tick never tie:

* a call scheduled more than one tick (5 s) before it is due runs after the
  ticks of edges that start then and before every other tick;
* one scheduled one tick before runs where its scheduling moment stood among
  that earlier time's ticks (a call made during an edge's tick, before the
  edge's next tick);
* one scheduled later runs after every tick;
* calls at one position run in the order they were scheduled (an edge's end
  as if its last tick scheduled it, though a span may hold that tick), and a
  call scheduled before the first step runs before every tick.

step(until_s) runs every entry due at or before until_s.

An edge hands its quiet ticks over as one span, whether the world has a sink
or not: the tick at t and the n - 1 ticks after it reach each listener as one
on_sighting(..., ticks=n), and write one scan event at t with ticks n, and
each side of an open connection as one on_copresence_tick(peer,
n * SCAN_TICK_S, ...); the edge's next tick is pushed at t + n * SCAN_TICK_S,
at its key. A span's later ticks stop before the first of:

* the edge's end;
* the next link-address rotation of either side's clock (link_rotation_s),
  since a scan event names the speaker's link address;
* either client's change point, DeviceClient.quiet_until (a base client takes
  one tick at a time; a TEK slot end, a DH window end or the tick before a
  finalize, a centralized window end; a DH client that sends its window key
  on this tick takes one tick; a sniffer and a relay node set no bound, and
  a replayer, which may beacon another device's identifier, keeps the base
  client's one tick);
* the next tick, when the pair has no open connection and both clients can
  connect (both override DeviceClient.wants_connection): a connect attempt
  may run on it, so every attempt, capacity rejects included, runs on its
  own tick;
* any tick after step(until_s);
* the next pending heap entry that names every span, either device or the
  edge's pair. A call the radio did not schedule itself (a sync, a report, a
  clock set, a relay's) names every span; a message delivery or an edge end
  names both its devices; a tick names its pair, when the pair has another
  edge, and each of its devices whose peer takes no spans or was not added
  when the world started. The pair's other edge delivers the same beacons
  to the same listeners, and a client without a quiet_until (a replayer)
  may beacon the speaker's identifier to the span's listener. Either edge
  takes one tick at a time while it overlaps the span's edge (two edges of
  one pair each stop the other), so its next pending tick bounds a span as
  its whole tick range would.

Within these bounds nothing reads or writes what the span's later ticks change
(a TEK run, a centralized record's last_seen, a DH encounter's accrued_s),
and every other hook call runs at its own time and position. So a run ends
with every client in the state one tick at a time leaves it in, with the same
counters, after fewer hook calls. It writes the events one tick at a time
writes, in the same order, but for scan events: a span writes one per
listener with its ticks, where one tick at a time writes one per tick.

Modeling choices:

* Range is boolean, taken from the contact trace edges; there is no RSSI or
  distance estimation (deliberately out of scope).
* Advertisements are delivered to every in-range listener at each scan tick
  (default 5 s). The advertising interval (1 s) is faster than the scan
  tick, so a fresh beacon is always available at delivery time.
* Advertisement payloads fit 31 bytes and carry exactly one 16-byte
  identifier field. A full DH public key (32 bytes) cannot be advertised;
  public keys travel only over connections.
* A device sustains at most 8 simultaneous connections; further attempts
  are rejected and counted.
* Every device has its own clock: local = global + offset. Scheme code only
  ever sees local time. Changing a clock mid-run requires the scenario to
  grant the "clock" capability.

Each event goes, as it is emitted, to the world's sink: a callable given to
World that takes the SimEvent. The world holds no event. Its seq is the
event's 1-based place in the log, counted apart from the order of the
schedule. A world without a sink builds no event at all: emit returns at
once, and a beacon derives no link address, since only its scan event reads
one.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import CapabilityError, ConfigurationError, ProtocolError
from .rng import SeedStream

SCAN_TICK_S = 5
MAX_CONNECTIONS = 8
ADV_PAYLOAD_BUDGET = 31
ADV_OVERHEAD_BYTES = 10           # flags, tx power, service data header
IDENTIFIER_FIELD_LEN = 16
LINK_ADDR_LEN = 6

assert ADV_OVERHEAD_BYTES + IDENTIFIER_FIELD_LEN <= ADV_PAYLOAD_BUDGET

EVENT_KINDS = frozenset({
    "advertise", "scan", "connect", "connect_reject", "message",
    "disconnect", "clock_set", "report", "notify",
})


@dataclass(frozen=True)
class Advertisement:
    """What a device can actually broadcast: one 16-byte identifier."""

    identifier: bytes

    def __post_init__(self):
        if len(self.identifier) != IDENTIFIER_FIELD_LEN:
            raise ConfigurationError(
                f"advertisement identifier field is {IDENTIFIER_FIELD_LEN} bytes, "
                f"got {len(self.identifier)}")

    @property
    def size(self) -> int:
        return ADV_OVERHEAD_BYTES + len(self.identifier)


@dataclass(frozen=True)
class ContactEdge:
    a: str
    b: str
    start_s: int
    end_s: int

    def __post_init__(self):
        if self.a == self.b:
            raise ConfigurationError("contact edge endpoints must differ")
        if self.end_s <= self.start_s:
            raise ConfigurationError("contact edge interval is empty")

    def covers(self, t: int) -> bool:
        return self.start_s <= t < self.end_s

    @property
    def pair(self) -> frozenset:
        return frozenset((self.a, self.b))


class ContactTrace:
    """Ground-truth co-location intervals; symmetric by construction."""

    def __init__(self, edges: list[ContactEdge]):
        self.edges = sorted(edges, key=lambda e: (e.start_s, e.end_s, min(e.a, e.b), max(e.a, e.b)))
        # queries read only the edges of one pair or one device
        self._by_pair: dict[frozenset, list[ContactEdge]] = {}
        self._by_device: dict[str, list[ContactEdge]] = {}
        for e in self.edges:
            self._by_pair.setdefault(e.pair, []).append(e)
            self._by_device.setdefault(e.a, []).append(e)
            self._by_device.setdefault(e.b, []).append(e)

    def in_range(self, a: str, b: str, t: int) -> bool:
        return any(e.covers(t) for e in self._by_pair.get(frozenset((a, b)), ()))

    def has_any_contact(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self._by_pair

    def neighbors(self, device: str, t: int) -> list[str]:
        return sorted({e.b if e.a == device else e.a
                       for e in self._by_device.get(device, ()) if e.covers(t)})

    def contacts_of(self, device: str) -> set[str]:
        return {e.b if e.a == device else e.a for e in self._by_device.get(device, ())}


_quote = json.encoder.encode_basestring_ascii
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _value(v) -> str:
    """v as JSON: a str quoted, an exact int (not a bool) by its repr, anything
    else through the one shared encoder."""
    if type(v) is str:
        return _quote(v)
    if type(v) is int:
        return int.__repr__(v)
    return _encode(v)


@dataclass
class SimEvent:
    at_s: int
    seq: int
    kind: str
    payload: dict

    def to_json_line(self, run: str | None = None) -> str:
        """The event's events.jsonl line, tagged with the run label when given:
        the JSON object {"at", "kind", "payload", "run", "seq"}, keys sorted at
        every level, no whitespace, every non-ASCII character written as a
        \\uXXXX escape. That is json.dumps(..., sort_keys=True,
        separators=(",", ":")) byte for byte, built here without its per-call
        encoder; a value json.dumps refuses raises the same TypeError. Payload
        keys are str."""
        body = ",".join([_quote(k) + ":" + _value(v) for k, v in sorted(self.payload.items())])
        run_field = "" if run is None else '"run":' + _value(run) + ","
        return (f'{{"at":{_value(self.at_s)},"kind":{_value(self.kind)},"payload":{{{body}}},'
                f'{run_field}"seq":{_value(self.seq)}}}')


class DeviceClient:
    """Base scheme client: everything is a no-op so subclasses override only
    the hooks they care about. All hooks receive device-local time."""

    device_id = "?"

    def advertisement_identifier(self, local_t: int) -> bytes | None:
        """Current 16-byte beacon identifier; None for passive devices."""
        return None

    def quiet_until(self, peer_id: str, local_t: int) -> int:
        """The local time before which this client's scan ticks with peer_id,
        from the one at local_t on, may reach it as one span: ticks that
        change its beacon and its state only as the span's hooks say (the
        same identifier, run or record extended, co-presence accrued). The
        tick at local_t is always run; math.inf when no tick changes more
        than that. The base client takes one tick at a time, and so gets
        ticks=1 and one tick's seconds only."""
        return local_t + 1

    def on_sighting(self, identifier: bytes, local_t: int, global_t: int,
                    ticks: int = 1) -> None:
        """identifier was heard at local_t (global_t on the world's clock)
        and, when ticks > 1, at each of the ticks - 1 scan ticks after it:
        local_t + SCAN_TICK_S, ..., local_t + (ticks - 1) * SCAN_TICK_S."""
        pass

    def wants_connection(self, peer_id: str, local_t: int) -> bool:
        """Whether to connect to peer_id now. A client that does not
        override this never connects, and its edges take spans with no
        connect attempt in them. One that does is asked on every tick of a
        pair with no open connection (when the other side overrides it
        too), and its answer may change only through its hooks."""
        return False

    def on_connected(self, conn: "Connection", local_t: int) -> None:
        pass

    def on_message(self, conn: "Connection", sender_id: str, payload: dict, local_t: int) -> None:
        pass

    def on_copresence_tick(self, peer_id: str, seconds: int, local_t: int) -> None:
        """seconds of co-presence with peer_id over an open connection, from
        local_t on: SCAN_TICK_S for one scan tick, n * SCAN_TICK_S for a span
        of n, or a relay's own tick."""
        pass

    def on_disconnect(self, conn: "Connection", local_t: int) -> None:
        pass


@dataclass
class Device:
    device_id: str
    client: DeviceClient
    clock_offset_s: int = 0
    connections: dict = field(default_factory=dict)   # peer_id -> Connection
    last_advertised: bytes | None = None
    link_stream: SeedStream | None = None
    irk_tag: bytes = b""        # set only in an IRK-linkable world
    _link_cache: tuple | None = field(default=None, repr=False)   # (epoch, address)

    def link_address(self, epoch: int) -> bytes:
        """Per-rotation-window pseudo link address. It begins with irk_tag, a
        stable per-device tag in an IRK-linkable world, modeling resolvable
        addresses derived from an unchanging identity key.

        The last address is kept and derived again only when the window
        changes. That is exact, because deriving a child stream consumes
        nothing from link_stream: a clock moved back to an earlier window
        derives that window's address anew and gets the same bytes."""
        if self._link_cache is not None and self._link_cache[0] == epoch:
            return self._link_cache[1]
        rand = self.link_stream.child(f"link:{epoch}").take(LINK_ADDR_LEN)
        addr = self.irk_tag + rand[len(self.irk_tag):]
        self._link_cache = (epoch, addr)
        return addr


@dataclass
class Connection:
    cid: int
    a: str
    b: str
    latency_s: int
    world: "World"
    open: bool = True
    relayed: bool = False

    def peer_of(self, device_id: str) -> str:
        return self.b if device_id == self.a else self.a

    def send(self, sender_id: str, payload: dict) -> None:
        self.world.send(self, sender_id, payload)


# where a call runs among the ticks due at its time (see the module docstring):
# before every tick, or after every one; a tick's own position is its key
_FIRST = -math.inf
_LAST = math.inf


def _takes_spans(client: DeviceClient) -> bool:
    return type(client).quiet_until is not DeviceClient.quiet_until


def _connects(client: DeviceClient) -> bool:
    return type(client).wants_connection is not DeviceClient.wants_connection


class World:
    def __init__(self, trace: ContactTrace, stream: SeedStream, *, link_rotation_s: int = 900,
                 capabilities: tuple[str, ...] = (), irk_linkable: bool = False,
                 sink: Callable[[SimEvent], object] | None = None):
        self.trace = trace
        self.stream = stream
        self.link_rotation_s = link_rotation_s
        self.capabilities = set(capabilities)
        self.irk_linkable = irk_linkable
        self.devices: dict[str, Device] = {}
        self._sink = sink
        self.now = 0
        self.counters = {"connect_rejects_capacity": 0, "connect_rejects_range": 0}
        self._heap: list = []       # (at, position, (when, where) scheduled, order, stops, fn, args)
        self._stride = 0            # of keys, per second of first-tick time
        self._order = 0             # the tie-break of calls at one position
        self._pos = _FIRST          # the position of the work running now
        self._due: dict[str | frozenset | None, list[int]] = {}  # span key -> due times
        self._watch: list[tuple] = []   # by edge index: the span keys its spans stop before
        self._until: int | None = None
        self._seq = 0       # the events emitted
        self._cid = 0
        self._started = False

    # -- wiring -------------------------------------------------------------

    def add_device(self, device_id: str, client: DeviceClient, clock_offset_s: int = 0) -> Device:
        if device_id in self.devices:
            raise ConfigurationError(f"duplicate device {device_id}")
        dev = Device(device_id, client, clock_offset_s,
                     link_stream=self.stream.child(f"device:{device_id}:link"))
        if self.irk_linkable:
            dev.irk_tag = self.stream.child(f"device:{device_id}:irk").take(2)
        client.device_id = device_id
        self.devices[device_id] = dev
        return dev

    def local_time(self, device_id: str) -> int:
        return self.now + self.devices[device_id].clock_offset_s

    # -- event machinery ----------------------------------------------------

    def schedule(self, at_s: int, fn: Callable[..., None], *args) -> None:
        """Call fn(*args) at at_s. The heap entry carries the arguments, so no
        closure is built to hold them; calls at one position run in the order
        they were scheduled. Every radio span stops before such a call."""
        if at_s < self.now:
            raise ConfigurationError("cannot schedule into the past")
        self._push(at_s, self._place(at_s, self.now, self._pos), (None,), fn, args)

    def _place(self, at: int, t: int, pos: float) -> float:
        """The position among at's ticks of a call scheduled at time t from
        position pos. A tick due at at took its place one tick earlier, as
        its edge's previous tick ran, or at the start: so a call scheduled
        one tick earlier falls between them, one scheduled before that goes
        after the ticks of edges starting at at, one scheduled later last."""
        if not self._started:
            return _FIRST
        if at > t + SCAN_TICK_S:
            return self._key(at, len(self.trace.edges))
        if at == t + SCAN_TICK_S:
            return max(pos, self._key(at, len(self.trace.edges)))
        return _LAST

    def _key(self, first: int, idx: int) -> int:
        """A tick's position: its edge's first-tick time, latest first, then
        its index in trace.edges, folded into one even integer. The odd one
        below is where its hook calls run (just before its next tick); an
        index past the last one gives the position after the ticks of edges
        that start at first and before any other."""
        return 2 * idx + 2 - first * self._stride

    def _push(self, at: int, pos: float, stops: tuple, fn: Callable[..., None], args: tuple,
              since: tuple[int, float] | None = None) -> None:
        """Push fn(*args) at (at, pos). Until it runs, each span that a key in
        stops names ends before at: None names every span, a device each span
        of its edges, a pair each span of that pair's edges. Entries at one
        position run in the order of since, the (time, position) they count
        as scheduled from, now's by default, then in the order they were
        pushed."""
        for k in stops:
            heapq.heappush(self._due.setdefault(k, []), at)
        self._order += 1
        heapq.heappush(self._heap, (at, pos, since or (self.now, self._pos), self._order,
                                    stops, fn, args))

    def emit(self, kind: str, payload: dict) -> None:
        """Hand the sink the next event; a world without a sink builds none."""
        if self._sink is None:
            return
        assert kind in EVENT_KINDS, kind
        self._seq += 1
        self._sink(SimEvent(self.now, self._seq, kind, payload))

    def _start(self) -> None:
        if self._started:
            return
        self._started = True
        self._stride = 2 * len(self.trace.edges) + 4
        for idx, edge in enumerate(self.trace.edges):
            pair = (edge.pair,) if len(self.trace._by_pair[edge.pair]) > 1 else ()
            self._watch.append((None, edge.a, edge.b) + pair)
            first = edge.start_s + (-edge.start_s) % SCAN_TICK_S
            if first < edge.end_s:
                if first < self.now:
                    raise ConfigurationError("cannot schedule into the past")
                key = self._key(first, idx)
                # its ticks stop the spans of the pair's other edges, and those of
                # each device whose peer here takes no spans or was not added yet
                stops = pair + tuple(d for d, peer in ((edge.a, edge.b), (edge.b, edge.a))
                                     if peer not in self.devices
                                     or not _takes_spans(self.devices[peer].client))
                self._push(first, key, stops, self._tick, (key, idx, edge, stops))

    def step(self, until_s: int | None = None) -> None:
        """Process all scheduled work at times <= until_s, or all of it when
        until_s is None. Its events have gone to the sink."""
        self._start()
        self._until = until_s
        limit = float("inf") if until_s is None else until_s
        heap, due = self._heap, self._due
        while heap and heap[0][0] <= limit:
            at, self._pos, _, _, stops, fn, args = heapq.heappop(heap)
            for k in stops:
                heapq.heappop(due[k])
            self.now = max(self.now, at)
            fn(*args)
        if until_s is not None:
            self.now = max(self.now, until_s)
        self._pos = _LAST

    def run(self) -> None:
        """Drain the schedule completely."""
        self.step()

    # -- radio behavior -----------------------------------------------------

    def _tick(self, key: int, idx: int, edge: ContactEdge, stops: tuple) -> None:
        """Run edge's scan tick, or span of ticks, due now, and push its next
        tick at its key, stopping the span keys in stops."""
        t = self.now
        self._pos = key - 1
        # a clock changes only through a scheduled call, never within a span
        dev_a, dev_b = self.devices[edge.a], self.devices[edge.b]
        la, lb = t + dev_a.clock_offset_s, t + dev_b.clock_offset_s
        n = self._span(t, idx, edge, dev_a, la, dev_b, lb)
        self._deliver_beacon(dev_a, la, dev_b, lb, n)
        self._deliver_beacon(dev_b, lb, dev_a, la, n)

        conn = dev_a.connections.get(edge.b)
        if conn is None and dev_a.client.wants_connection(edge.b, la) \
                and dev_b.client.wants_connection(edge.a, lb):
            conn = self.open_connection(edge.a, edge.b)
        if conn is not None and conn.open:
            dev_a.client.on_copresence_tick(edge.b, SCAN_TICK_S * n, la)
            dev_b.client.on_copresence_tick(edge.a, SCAN_TICK_S * n, lb)

        nxt = t + SCAN_TICK_S * n
        if nxt < edge.end_s:
            self._push(nxt, key, stops, self._tick, (key, idx, edge, stops))
        else:
            # placed and ordered as if scheduled by the edge's last tick, which
            # a span may hold
            last = (nxt - SCAN_TICK_S, key - 1)
            self._push(edge.end_s, self._place(edge.end_s, *last), (edge.a, edge.b),
                       self._edge_end, (edge,), since=last)

    def _span(self, t: int, idx: int, edge: ContactEdge, dev_a: Device, la: int,
              dev_b: Device, lb: int) -> int:
        """How many ticks, from the one at t, edge hands over as one span:
        every later tick lies before each bound the module docstring names."""
        rotation = self.link_rotation_s
        end = min(edge.end_s,
                  dev_a.client.quiet_until(edge.b, la) - (la - t),
                  dev_b.client.quiet_until(edge.a, lb) - (lb - t),
                  # a scan event names the speaker's link address
                  (la // rotation + 1) * rotation - (la - t),
                  (lb // rotation + 1) * rotation - (lb - t))
        if end <= t + SCAN_TICK_S or (edge.b not in dev_a.connections
                                      and _connects(dev_a.client) and _connects(dev_b.client)):
            return 1
        if self._until is not None:
            end = min(end, self._until + 1)
        due = self._due
        for k in self._watch[idx]:
            times = due.get(k)
            if times:
                end = min(end, times[0])
        return max(1, -((t - end) // SCAN_TICK_S))

    def _edge_end(self, edge: ContactEdge) -> None:
        conn = self.devices[edge.a].connections.get(edge.b)
        if conn is not None and conn.open and not conn.relayed \
                and not self.trace.in_range(edge.a, edge.b, self.now):
            self.close_connection(conn)

    def _deliver_beacon(self, speaker: Device, speaker_t: int,
                        listener: Device, listener_t: int, ticks: int) -> None:
        ident = speaker.client.advertisement_identifier(speaker_t)
        if ident is None:
            return
        if speaker.last_advertised != ident:
            # only a validated identifier becomes last_advertised, so a
            # repeated one needs no second check
            adv = Advertisement(ident)
            speaker.last_advertised = ident
            self.emit("advertise", {"device": speaker.device_id, "id": ident.hex(),
                                    "size": adv.size})
        if self._sink is not None:
            self._scan(listener.device_id, speaker.device_id, ident,
                       speaker.link_address(speaker_t // self.link_rotation_s), ticks)
        listener.client.on_sighting(ident, listener_t, self.now, ticks)

    def inject_beacon(self, listener_id: str, identifier: bytes, link_addr: bytes,
                      origin: str) -> None:
        """Deliver a beacon outside the normal range rules (relay machinery)."""
        Advertisement(identifier)
        if self._sink is not None:
            self._scan(listener_id, origin, identifier, link_addr, 1)
        self.devices[listener_id].client.on_sighting(identifier, self.local_time(listener_id),
                                                     self.now, 1)

    def _scan(self, listener_id: str, origin: str, ident: bytes, link: bytes,
              ticks: int) -> None:
        """The scan event of a beacon that listener heard from origin, now and
        at each of the ticks - 1 scan ticks after."""
        self.emit("scan", {"device": listener_id, "from": origin, "id": ident.hex(),
                           "link": link.hex(), "ticks": ticks})

    # -- connections ----------------------------------------------------------

    def open_connection(self, a: str, b: str, latency_s: int = 0,
                        relayed: bool = False) -> Connection | None:
        """Open a connection and tell both clients; a relayed one tells
        neither, as the relay decides which side learns of it, and when."""
        dev_a, dev_b = self.devices[a], self.devices[b]
        if not relayed and not self.trace.in_range(a, b, self.now):
            self.counters["connect_rejects_range"] += 1
            self.emit("connect_reject", {"a": a, "b": b, "reason": "range"})
            return None
        if len(dev_a.connections) >= MAX_CONNECTIONS or len(dev_b.connections) >= MAX_CONNECTIONS:
            self.counters["connect_rejects_capacity"] += 1
            self.emit("connect_reject", {"a": a, "b": b, "reason": "capacity"})
            return None
        self._cid += 1
        conn = Connection(self._cid, a, b, latency_s, self, relayed=relayed)
        dev_a.connections[b] = conn
        dev_b.connections[a] = conn
        assert len(dev_a.connections) <= MAX_CONNECTIONS
        assert len(dev_b.connections) <= MAX_CONNECTIONS
        self.emit("connect", {"a": a, "b": b, "cid": conn.cid, "relayed": relayed})
        if not relayed:
            dev_a.client.on_connected(conn, self.local_time(a))
            dev_b.client.on_connected(conn, self.local_time(b))
        return conn

    def close_connection(self, conn: Connection) -> None:
        if not conn.open:
            return
        conn.open = False
        self.devices[conn.a].connections.pop(conn.b, None)
        self.devices[conn.b].connections.pop(conn.a, None)
        self.emit("disconnect", {"cid": conn.cid})
        self.devices[conn.a].client.on_disconnect(conn, self.local_time(conn.a))
        self.devices[conn.b].client.on_disconnect(conn, self.local_time(conn.b))

    def send(self, conn: Connection, sender_id: str, payload: dict) -> None:
        """Deliver payload to sender_id's peer after the connection's latency.
        A payload must be a dict whose "kind", when present, is a str: the
        message event reads it. Any other is refused before it is scheduled."""
        if not isinstance(payload, dict):
            raise ProtocolError(f"{sender_id} sent a message payload that is not an object: "
                                f"{type(payload).__name__}")
        if not isinstance(payload.get("kind", ""), str):
            raise ProtocolError(f"{sender_id} sent a message whose kind is not a string: "
                                f"{type(payload['kind']).__name__}")
        at = self.now + conn.latency_s
        if at < self.now:
            raise ConfigurationError("cannot schedule into the past")
        self._push(at, self._place(at, self.now, self._pos), (conn.a, conn.b),
                   self._deliver, (conn, sender_id, payload))

    def _deliver(self, conn: Connection, sender_id: str, payload: dict) -> None:
        if not conn.open:
            return
        receiver_id = conn.peer_of(sender_id)
        self.emit("message", {"cid": conn.cid, "from": sender_id, "to": receiver_id,
                              "kind": payload.get("kind", "data")})
        self.devices[receiver_id].client.on_message(
            conn, sender_id, payload, self.local_time(receiver_id))

    # -- clocks ---------------------------------------------------------------

    def set_clock(self, device_id: str, offset_s: int) -> None:
        if "clock" not in self.capabilities:
            raise CapabilityError("scenario does not grant the 'clock' capability")
        self.devices[device_id].clock_offset_s = offset_s
        self.emit("clock_set", {"device": device_id, "offset_s": offset_s})
