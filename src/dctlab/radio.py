"""Deterministic discrete-event BLE world.

Time is integer seconds from the scenario origin. Work runs in (time,
order scheduled) order, so a given (scenario, seed) pair always produces the
identical event log, byte for byte. A scheduled call is a heap entry: a
function and the arguments it is called with. Scan ticks are kept apart, in
buckets: each tick time maps to its edges' ticks, in the order they were
scheduled, and the heap holds one marker per bucket, keyed by the time and
order of its next tick. The marker runs its ticks in turn and yields to any
call at the same time that was scheduled before the next one, so the order
is the one a heap entry per tick would give. step(until_s) finishes every
bucket at or before until_s.

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
one. Such a run makes the same calls in the same order as a written one.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Callable

from .errors import CapabilityError, ConfigurationError
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


@dataclass
class SimEvent:
    at_s: int
    seq: int
    kind: str
    payload: dict

    def to_json_line(self, run: str | None = None) -> str:
        """The event's events.jsonl line; tagged with the run label when given."""
        doc = {"at": self.at_s, "seq": self.seq, "kind": self.kind, "payload": self.payload}
        if run is not None:
            doc["run"] = run
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class DeviceClient:
    """Base scheme client: everything is a no-op so subclasses override only
    the hooks they care about. All hooks receive device-local time."""

    device_id = "?"

    def advertisement_identifier(self, local_t: int) -> bytes | None:
        """Current 16-byte beacon identifier; None for passive devices."""
        return None

    def on_sighting(self, identifier: bytes, local_t: int, global_t: int) -> None:
        pass

    def wants_connection(self, peer_id: str, local_t: int) -> bool:
        return False

    def on_connected(self, conn: "Connection", local_t: int) -> None:
        pass

    def on_message(self, conn: "Connection", sender_id: str, payload: dict, local_t: int) -> None:
        pass

    def on_copresence_tick(self, peer_id: str, seconds: int, local_t: int) -> None:
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
    irk_tag: bytes = b""
    _link_cache: tuple | None = field(default=None, repr=False)   # ((epoch, irk), address)

    def link_address(self, epoch: int, irk_linkable: bool) -> bytes:
        """Per-rotation-window pseudo link address. With the IRK-linkability
        flag the first two bytes are a stable per-device tag, modeling
        resolvable addresses derived from an unchanging identity key.

        The last address is kept and derived again only when the window or
        the flag changes. That is exact, because deriving a child stream
        consumes nothing from link_stream: a clock moved back to an earlier
        window derives that window's address anew and gets the same bytes."""
        key = (epoch, irk_linkable)
        if self._link_cache is not None and self._link_cache[0] == key:
            return self._link_cache[1]
        rand = self.link_stream.child(f"link:{epoch}").take(LINK_ADDR_LEN)
        addr = self.irk_tag + rand[2:] if irk_linkable else rand
        self._link_cache = (key, addr)
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
        self._heap: list = []
        self._ticks: dict[int, list] = {}   # tick time -> [(order, edge)], order ascending
        self._order = 0     # the tie-break of calls and ticks
        self._seq = 0       # the events emitted
        self._cid = 0
        self._started = False

    # -- wiring -------------------------------------------------------------

    def add_device(self, device_id: str, client: DeviceClient, clock_offset_s: int = 0) -> Device:
        if device_id in self.devices:
            raise ConfigurationError(f"duplicate device {device_id}")
        dev = Device(device_id, client, clock_offset_s,
                     link_stream=self.stream.child(f"device:{device_id}:link"))
        dev.irk_tag = self.stream.child(f"device:{device_id}:irk").take(2)
        client.device_id = device_id
        self.devices[device_id] = dev
        return dev

    def local_time(self, device_id: str, global_t: int | None = None) -> int:
        t = self.now if global_t is None else global_t
        return t + self.devices[device_id].clock_offset_s

    # -- event machinery ----------------------------------------------------

    def schedule(self, at_s: int, fn: Callable[..., None], *args) -> None:
        """Call fn(*args) at at_s. The heap holds (at, order, fn, args): the
        call carries its arguments, so no closure is built to hold them, and
        calls at one time run in the order they were scheduled."""
        if at_s < self.now:
            raise ConfigurationError("cannot schedule into the past")
        self._order += 1
        heapq.heappush(self._heap, (at_s, self._order, fn, args))

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
        for edge in self.trace.edges:
            first = edge.start_s + (-edge.start_s) % SCAN_TICK_S
            if first < edge.end_s:
                if first < self.now:
                    raise ConfigurationError("cannot schedule into the past")
                self._add_tick(first, edge)

    def _add_tick(self, t: int, edge: ContactEdge) -> None:
        """Put edge's tick at t last in its bucket; a new bucket pushes its marker."""
        self._order += 1
        bucket = self._ticks.get(t)
        if bucket is None:
            self._ticks[t] = [(self._order, edge)]
            heapq.heappush(self._heap, (t, self._order, self._run_ticks, (t, 0)))
        else:
            bucket.append((self._order, edge))

    def step(self, until_s: int | None = None) -> None:
        """Process all scheduled work at times <= until_s, or all of it when
        until_s is None. Its events have gone to the sink."""
        self._start()
        limit = float("inf") if until_s is None else until_s
        while self._heap and self._heap[0][0] <= limit:
            at, _, fn, args = heapq.heappop(self._heap)
            self.now = max(self.now, at)
            fn(*args)
        if until_s is not None:
            self.now = max(self.now, until_s)

    def run(self) -> None:
        """Drain the schedule completely."""
        self.step()

    # -- radio behavior -----------------------------------------------------

    def _run_ticks(self, t: int, i: int) -> None:
        """Run bucket t's ticks from its i-th on. Before each, a call at t
        scheduled earlier goes first: the marker is pushed again, keyed by
        that tick's order, and returns."""
        ticks, heap, devices = self._ticks[t], self._heap, self.devices
        nxt = t + SCAN_TICK_S
        while i < len(ticks):
            order, edge = ticks[i]
            if heap and heap[0][0] == t and heap[0][1] < order:
                heapq.heappush(heap, (t, order, self._run_ticks, (t, i)))
                return
            i += 1
            # a clock changes only through a scheduled call, never within a tick
            dev_a, dev_b = devices[edge.a], devices[edge.b]
            la, lb = t + dev_a.clock_offset_s, t + dev_b.clock_offset_s
            self._deliver_beacon(dev_a, la, dev_b, lb)
            self._deliver_beacon(dev_b, lb, dev_a, la)

            conn = dev_a.connections.get(edge.b)
            if conn is None and dev_a.client.wants_connection(edge.b, la) \
                    and dev_b.client.wants_connection(edge.a, lb):
                conn = self.open_connection(edge.a, edge.b)
            if conn is not None and conn.open:
                dev_a.client.on_copresence_tick(edge.b, SCAN_TICK_S, la)
                dev_b.client.on_copresence_tick(edge.a, SCAN_TICK_S, lb)

            if nxt < edge.end_s:
                self._add_tick(nxt, edge)
            else:
                self.schedule(edge.end_s, self._edge_end, edge)
        del self._ticks[t]

    def _edge_end(self, edge: ContactEdge) -> None:
        conn = self.devices[edge.a].connections.get(edge.b)
        if conn is not None and conn.open and not conn.relayed \
                and not self.trace.in_range(edge.a, edge.b, self.now):
            self.close_connection(conn)

    def _deliver_beacon(self, speaker: Device, speaker_t: int,
                        listener: Device, listener_t: int) -> None:
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
            self._scan(listener.device_id, speaker.device_id, ident, speaker.link_address(
                speaker_t // self.link_rotation_s, self.irk_linkable))
        listener.client.on_sighting(ident, listener_t, self.now)

    def inject_beacon(self, listener_id: str, identifier: bytes, link_addr: bytes,
                      origin: str) -> None:
        """Deliver a beacon outside the normal range rules (relay machinery)."""
        Advertisement(identifier)
        if self._sink is not None:
            self._scan(listener_id, origin, identifier, link_addr)
        self.devices[listener_id].client.on_sighting(identifier, self.local_time(listener_id),
                                                     self.now)

    def _scan(self, listener_id: str, origin: str, ident: bytes, link: bytes) -> None:
        """The scan event of a beacon that listener heard from origin."""
        self.emit("scan", {"device": listener_id, "from": origin, "id": ident.hex(),
                           "link": link.hex()})

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
        self.schedule(self.now + conn.latency_s, self._deliver, conn, sender_id, payload)

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
