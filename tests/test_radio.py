import json
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dctlab import adversary
from dctlab.errors import CapabilityError, ConfigurationError, ProtocolError
from dctlab.radio import (
    LINK_ADDR_LEN,
    MAX_CONNECTIONS,
    SCAN_TICK_S,
    Advertisement,
    ContactEdge,
    ContactTrace,
    DeviceClient,
    SimEvent,
    World,
)
from dctlab.rng import SeedStream
from dctlab.schemes.centralized import CentralizedClient, CentralRegistry
from dctlab.schemes.dh import DhClient, DhConfig
from dctlab.schemes.tek import TekClient


class BeaconClient(DeviceClient):
    """Constant-identifier beacon that logs what it hears."""

    def __init__(self, ident: bytes):
        self.ident = ident
        self.heard = []

    def advertisement_identifier(self, local_t):
        return self.ident

    def on_sighting(self, identifier, local_t, global_t, ticks=1):
        self.heard.append((identifier, local_t))


def expected_tick_count(start: int, end: int, tick: int) -> int:
    """Independent tick arithmetic: multiples of `tick` in [start, end)."""
    return len([t for t in range(start, end) if t % tick == 0])


class LoggedWorld(World):
    """A world whose events go to the list world.log."""

    def __init__(self, *args, **kw):
        self.log = []
        super().__init__(*args, sink=self.log.append, **kw)


def make_world(edges, seed=1, **kw):
    return LoggedWorld(ContactTrace(edges), SeedStream(seed, "w"), **kw)


def test_empty_world_empty_log():
    world = make_world([])
    world.run()
    assert world.log == []


def test_sighting_count_matches_tick_arithmetic():
    world = make_world([ContactEdge("a", "b", 0, 600)])
    ca, cb = BeaconClient(b"A" * 16), BeaconClient(b"B" * 16)
    world.add_device("a", ca)
    world.add_device("b", cb)
    world.run()
    want = expected_tick_count(0, 600, 5)
    assert want >= 119
    assert len(cb.heard) == want
    assert len(ca.heard) == want
    assert all(ident == b"A" * 16 for ident, _ in cb.heard)


def test_same_seed_identical_logs():
    def run_once():
        world = make_world([ContactEdge("a", "b", 0, 120), ContactEdge("b", "c", 60, 300)], seed=42)
        for d in ("a", "b", "c"):
            world.add_device(d, BeaconClient(d.encode() * 16))
        world.run()
        return "\n".join(e.to_json_line() for e in world.log)

    assert run_once() == run_once()


def test_advertisement_rejects_oversized_identifier():
    with pytest.raises(ConfigurationError):
        Advertisement(b"\x00" * 32)  # a DH public key cannot be advertised
    with pytest.raises(ConfigurationError):
        Advertisement(b"\x00" * 17)
    assert Advertisement(b"\x00" * 16).size <= 31


class Chatty(DeviceClient):
    def __init__(self):
        self.inbox = []

    def wants_connection(self, peer_id, local_t):
        return True

    def on_message(self, conn, sender_id, payload, local_t):
        self.inbox.append((sender_id, payload, local_t))


def test_connection_capacity_eight():
    # hub is in range of 10 peers; only 8 connections may be open at once
    edges = [ContactEdge("hub", f"p{i}", 0, 300) for i in range(10)]
    world = make_world(edges)
    world.add_device("hub", Chatty())
    for i in range(10):
        world.add_device(f"p{i}", Chatty())
    world.step(0)
    hub = world.devices["hub"]
    assert len(hub.connections) == MAX_CONNECTIONS
    assert world.counters["connect_rejects_capacity"] >= 2
    rejected = [e for e in world.log if e.kind == "connect_reject"]
    assert all(e.payload["reason"] == "capacity" for e in rejected)


def test_connection_out_of_range_rejected():
    world = make_world([ContactEdge("a", "b", 100, 200)])
    world.add_device("a", Chatty())
    world.add_device("b", Chatty())
    world.step(0)
    assert world.open_connection("a", "b") is None
    assert world.counters["connect_rejects_range"] == 1


def test_messages_delivered_with_latency():
    world = make_world([ContactEdge("a", "b", 0, 100)])
    ca, cb = Chatty(), Chatty()
    world.add_device("a", ca)
    world.add_device("b", cb)
    world.step(0)
    conn = world.devices["a"].connections["b"]
    conn.latency_s = 7
    conn.send("a", {"kind": "ping", "n": 1})
    world.run()
    assert cb.inbox == [("a", {"kind": "ping", "n": 1}, 7)]


@pytest.mark.parametrize("payload", [["pubkey"], "pubkey", None, 5,
                                     {"kind": 5}, {"kind": None}, {"kind": b"pubkey"}])
def test_a_message_that_is_not_an_object_with_a_string_kind_is_refused_unscheduled(payload):
    world = make_world([ContactEdge("a", "b", 0, 100)])
    ca, cb = Chatty(), Chatty()
    world.add_device("a", ca)
    world.add_device("b", cb)
    world.step(0)
    conn = world.devices["a"].connections["b"]
    pending = len(world._heap)
    with pytest.raises(ProtocolError, match="^a sent a message"):
        conn.send("a", payload)
    assert len(world._heap) == pending
    conn.send("a", {"n": 1})     # no kind: the message event says "data"
    world.run()
    assert cb.inbox == [("a", {"n": 1}, 0)]
    assert [e.payload["kind"] for e in world.log if e.kind == "message"] == ["data"]


def test_connection_closed_at_contact_end():
    world = make_world([ContactEdge("a", "b", 0, 60)])
    world.add_device("a", Chatty())
    world.add_device("b", Chatty())
    world.run()
    assert world.devices["a"].connections == {}
    assert any(e.kind == "disconnect" for e in world.log)


def test_set_clock_requires_capability():
    world = make_world([])
    world.add_device("v", DeviceClient())
    with pytest.raises(CapabilityError):
        world.set_clock("v", -86400)

    world2 = World(ContactTrace([]), SeedStream(1, "w"), capabilities=("clock",))
    world2.add_device("v", DeviceClient())
    world2.set_clock("v", -86400)
    assert world2.local_time("v") == -86400
    world2.set_clock("v", 0)
    assert world2.local_time("v") == 0


def test_link_addresses_rotate_per_window():
    world = make_world([ContactEdge("a", "b", 0, 1800)])
    ca, cb = BeaconClient(b"A" * 16), BeaconClient(b"B" * 16)
    world.add_device("a", ca)
    world.add_device("b", cb)
    world.run()
    links = {e.payload["link"] for e in world.log
             if e.kind == "scan" and e.payload["from"] == "a"}
    assert len(links) == 2  # windows 0 and 1 over 1800 s at 900 s rotation


# -- reference: the linear contact-trace queries the pair/device index replaced --

def reference_in_range(edges, a, b, t):
    pair = frozenset((a, b))
    return any(e.pair == pair and e.covers(t) for e in edges)


def reference_has_any_contact(edges, a, b):
    pair = frozenset((a, b))
    return any(e.pair == pair for e in edges)


def reference_neighbors(edges, device, t):
    out = [e.b if e.a == device else e.a
           for e in edges if device in e.pair and e.covers(t)]
    return sorted(set(out))


def reference_contacts_of(edges, device):
    return {e.b if e.a == device else e.a for e in edges if device in e.pair}


DEVICES = ("a", "b", "c", "d", "e")


@st.composite
def contact_edges(draw):
    edges = []
    for _ in range(draw(st.integers(0, 12))):
        a, b = draw(st.lists(st.sampled_from(DEVICES), min_size=2, max_size=2, unique=True))
        start = draw(st.integers(0, 400))
        edges.append(ContactEdge(a, b, start, start + draw(st.integers(1, 200))))
    return edges


@settings(max_examples=200, deadline=None)
@given(edges=contact_edges(), times=st.lists(st.integers(-5, 620), min_size=1, max_size=8))
def test_indexed_trace_answers_like_linear_scan(edges, times):
    trace = ContactTrace(edges)
    assert trace.edges == sorted(
        edges, key=lambda e: (e.start_s, e.end_s, min(e.a, e.b), max(e.a, e.b)))
    for a in DEVICES + ("zz",):
        assert trace.contacts_of(a) == reference_contacts_of(edges, a)
        for t in times:
            assert trace.neighbors(a, t) == reference_neighbors(edges, a, t)
        for b in DEVICES + ("zz",):
            assert trace.has_any_contact(a, b) == reference_has_any_contact(edges, a, b)
            for t in times:
                assert trace.in_range(a, b, t) == reference_in_range(edges, a, b, t)


@pytest.mark.parametrize("irk_linkable", [False, True])
def test_link_address_follows_clock_across_windows_and_back(irk_linkable):
    world = make_world([ContactEdge("a", "b", 0, 1800)], seed=9,
                       capabilities=("clock",), irk_linkable=irk_linkable)
    world.add_device("a", BeaconClient(b"A" * 16))
    world.add_device("b", BeaconClient(b"B" * 16))
    # forward two windows, back to the start, then forward one window
    for at, offset in ((100, 1800), (300, 0), (500, 900), (700, 0)):
        world.schedule(at, lambda offset=offset: world.set_clock("a", offset))
    world.run()

    fresh = world.stream.child("device:a:link")
    irk = world.stream.child("device:a:irk").take(2)
    offset, epochs = 0, []
    for ev in world.log:
        if ev.kind == "clock_set":
            offset = ev.payload["offset_s"]
        elif ev.kind == "scan" and ev.payload["from"] == "a":
            epoch = (ev.at_s + offset) // 900
            want = fresh.child(f"link:{epoch}").take(LINK_ADDR_LEN)
            if irk_linkable:
                want = irk + want[2:]
            assert ev.payload["link"] == want.hex()
            if not epochs or epochs[-1] != epoch:
                epochs.append(epoch)
    assert epochs == [0, 2, 0, 1, 0, 1]


# -- reference: every edge tick scheduled as a call, one heap entry each --

class HeapWorld(LoggedWorld):
    """Every scan tick is its own heap call, scheduling the edge's next one."""

    def _start(self):
        if self._started:
            return
        self._started = True
        for edge in self.trace.edges:
            first = edge.start_s + (-edge.start_s) % SCAN_TICK_S
            if first < edge.end_s:
                self.schedule(first, self._edge_tick, edge, first)

    def _edge_tick(self, edge, t):
        dev_a, dev_b = self.devices[edge.a], self.devices[edge.b]
        la, lb = self.now + dev_a.clock_offset_s, self.now + dev_b.clock_offset_s
        self._deliver_beacon(dev_a, la, dev_b, lb, 1)
        self._deliver_beacon(dev_b, lb, dev_a, la, 1)
        conn = dev_a.connections.get(edge.b)
        if conn is None and dev_a.client.wants_connection(edge.b, la) \
                and dev_b.client.wants_connection(edge.a, lb):
            conn = self.open_connection(edge.a, edge.b)
        if conn is not None and conn.open:
            dev_a.client.on_copresence_tick(edge.b, SCAN_TICK_S, la)
            dev_b.client.on_copresence_tick(edge.a, SCAN_TICK_S, lb)
        nxt = t + SCAN_TICK_S
        if nxt < edge.end_s:
            self.schedule(nxt, self._edge_tick, edge, nxt)
        else:
            self.schedule(edge.end_s, self._edge_end, edge)


class RecordingClient(DeviceClient):
    """Logs every hook call with the world's time. A "beacon" advertises an
    identifier that rotates each local minute; a "chatty" one also connects,
    sends hello, a message every third co-presence tick and replies, each over
    a connection whose latency it sets to `latency_s`."""

    def __init__(self, world, kind, latency_s, calls):
        self.world, self.kind, self.latency_s, self.calls = world, kind, latency_s, calls

    def _log(self, *call):
        self.calls.append((self.world.now, self.device_id) + call)

    def advertisement_identifier(self, local_t):
        self._log("adv", local_t)
        if self.kind == "passive":
            return None
        return (self.device_id + str(local_t // 60)).encode().ljust(16, b".")[:16]

    def on_sighting(self, identifier, local_t, global_t, ticks=1):
        self._log("sighting", identifier, local_t, global_t, ticks)

    def wants_connection(self, peer_id, local_t):
        self._log("wants", peer_id, local_t)
        return self.kind == "chatty"

    def on_connected(self, conn, local_t):
        self._log("connected", conn.cid, local_t)
        if conn.a == self.device_id:
            conn.latency_s = self.latency_s
        conn.send(self.device_id, {"kind": "hello", "n": 0})

    def on_message(self, conn, sender_id, payload, local_t):
        self._log("message", conn.cid, sender_id, payload["kind"], payload["n"], local_t)
        if payload["n"] < 2:
            conn.send(self.device_id, {"kind": "reply", "n": payload["n"] + 1})

    def on_copresence_tick(self, peer_id, seconds, local_t):
        self._log("copresence", peer_id, seconds, local_t)
        conn = self.world.devices[self.device_id].connections.get(peer_id)
        if local_t % 15 == 0 and conn is not None:
            conn.send(self.device_id, {"kind": "tick", "n": 2})

    def on_disconnect(self, conn, local_t):
        self._log("disconnect", conn.cid, local_t)


HUB_PEERS = tuple(f"p{i}" for i in range(11))


@st.composite
def tick_plans(draw):
    """A trace, each device's client and a plan of steps and clock sets. Most
    times fall on the 5 s tick; the hub can have more than 8 peers, so a
    capacity reject races an edge's end at the same tick."""
    def moment(hi):
        return draw(st.integers(0, hi // 5)) * 5 + draw(st.sampled_from((0, 0, 0, 1, 4)))

    edges = []
    for _ in range(draw(st.integers(0, 14))):
        a, b = draw(st.lists(st.sampled_from(DEVICES), min_size=2, max_size=2, unique=True))
        start = moment(200)
        edges.append(ContactEdge(a, b, start, start + max(1, moment(150))))
        if draw(st.booleans()):     # an overlapping edge of the same pair
            s2 = start + draw(st.integers(0, 60))
            edges.append(ContactEdge(b, a, s2, s2 + max(1, moment(100))))
    hub_peers = list(HUB_PEERS[:draw(st.integers(0, len(HUB_PEERS)))])
    for peer in hub_peers + draw(st.lists(st.sampled_from(HUB_PEERS), max_size=2)):
        start = moment(40)
        edges.append(ContactEdge("hub", peer, start, start + 20 + moment(80)))
    devices = sorted({d for e in edges for d in (e.a, e.b)} | {"hub"})
    # the hub and its peers always want connections
    clients = {d: (draw(st.sampled_from(("passive", "beacon", "chatty", "chatty")))
                   if d in DEVICES else "chatty", draw(st.sampled_from((0, 5, 5))))
               for d in devices}

    def clock_sets(lo):
        return draw(st.lists(st.tuples(st.integers((lo + 4) // 5, 81).map(lambda k: k * 5),
                                       st.sampled_from(devices),
                                       st.sampled_from((-300, -60, 0, 60, 900))),
                             max_size=4))

    plan = [("clock", clock_sets(0))]
    now = 0
    for _ in range(draw(st.integers(0, 3))):
        now = draw(st.integers(now, 400))
        plan += [("step", now), ("clock", clock_sets(now))]
    return edges, clients, plan


def run_plan(world_cls, edges, clients, plan):
    world = world_cls(ContactTrace(edges), SeedStream(5, "w"), capabilities=("clock",),
                      link_rotation_s=60)
    calls = []
    for d, (kind, latency_s) in clients.items():
        world.add_device(d, RecordingClient(world, kind, latency_s, calls))
    for op, arg in plan:
        if op == "step":
            world.step(arg)
            calls.append(("stepped", arg, world.now))
        else:
            for at, device, offset in arg:
                world.schedule(at, world.set_clock, device, offset)
    world.run()
    return [e.to_json_line() for e in world.log], calls, world.counters


@settings(max_examples=200, deadline=None)
@given(tick_plans())
def test_tick_buckets_run_in_per_tick_heap_order(case):
    """Ticks pushed to the heap at their keys give the events and the client
    hook calls that scheduling each tick as a call gives, across partial
    steps."""
    edges, clients, plan = case
    events, calls, counters = run_plan(LoggedWorld, edges, clients, plan)
    assert (events, calls, counters) == run_plan(HeapWorld, edges, clients, plan)


# -- spans: a world without a sink against one heap entry per tick -----------

class SpanWorld(World):
    """A world without a sink that counts the event kinds reaching emit, and
    the spans of more than one tick it hands over."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.emitted = Counter()
        self.long_spans = 0
        self.spanned = set()    # the pairs of the edges that took such a span

    def emit(self, kind, payload):
        self.emitted[kind] += 1
        super().emit(kind, payload)

    def _span(self, t, idx, edge, *args):
        n = super()._span(t, idx, edge, *args)
        if n > 1:
            self.long_spans += 1
            self.spanned.add(edge.pair)
        return n


class WrittenSpanWorld(SpanWorld):
    """A SpanWorld whose events go to the list world.log."""

    def __init__(self, *args, **kw):
        self.log = []
        super().__init__(*args, sink=self.log.append, **kw)


class LaggingDh(DhClient):
    """A DH client whose connections it opens carry latency_s."""

    def __init__(self, stream, cfg, latency_s):
        super().__init__(stream, cfg)
        self.latency_s = latency_s

    def on_connected(self, conn, local_t):
        if conn.a == self.device_id:
            conn.latency_s = self.latency_s
        super().on_connected(conn, local_t)


class Echo(DeviceClient):
    """A base client that beacons another device's current identifier, or
    nothing when there is none to copy."""

    def __init__(self, world, target):
        self.world, self.target = world, target

    def advertisement_identifier(self, local_t):
        if self.target is None:
            return None
        return self.world.devices[self.target].client.advertisement_identifier(
            self.world.local_time(self.target))


@st.composite
def span_plans(draw):
    """A trace (overlapping edges of one pair, a hub with up to 11 peers), a
    client per device with a clock offset (a scheme client, a lab client, a
    sniffer, a relay node or a replayer), a relay between two relay nodes,
    and a plan of partial steps, clock sets, syncs and replayer armings.
    Times mostly fall on the 5 s tick."""
    def moment(hi):
        return draw(st.integers(0, hi // 5)) * 5 + draw(st.sampled_from((0, 0, 0, 1, 4)))

    edges = []
    for _ in range(draw(st.integers(1, 10))):
        a, b = draw(st.lists(st.sampled_from(DEVICES), min_size=2, max_size=2, unique=True))
        start = moment(900)
        edges.append(ContactEdge(a, b, start, start + max(1, moment(700))))
        if draw(st.integers(0, 3)) == 0:     # an overlapping edge of the same pair
            s2 = start + draw(st.integers(0, 300))
            edges.append(ContactEdge(b, a, s2, s2 + max(1, moment(400))))
    hub_peers = list(HUB_PEERS[:draw(st.sampled_from((0, 3, 9, 10, 11)))])
    for peer in hub_peers:
        start = moment(300)
        edges.append(ContactEdge("hub", peer, start, start + 20 + moment(600)))
    devices = sorted({d for e in edges for d in (e.a, e.b)})
    # the hub and its peers run DH, so more than 8 of them want a connection
    clients = {d: (draw(st.sampled_from(("tek", "dh", "centralized", "echo", "sniffer", "relay",
                                         "replayer")))
                   if d in DEVICES else "dh",
                   draw(st.sampled_from((0, 0, -300, 7, 600))),     # clock offset
                   draw(st.sampled_from((0, 5))))                   # latency of its connections
               for d in devices}
    dh_cfg = DhConfig(rotation_s=draw(st.sampled_from((60, 120, 900))),
                      min_encounter_s=draw(st.sampled_from((0, 5, 15, 40))))
    variant = draw(st.sampled_from(("bluetrace", "pepp_pt")))
    relays = [d for d in devices if clients[d][0] == "relay"]
    relay = None
    if len(relays) >= 2 and draw(st.booleans()):
        start = moment(900)
        relay = adversary.RelayPair(
            relays[0], relays[1], draw(st.sampled_from(("one_way_broadcast", "two_way_realtime"))),
            (start, start + moment(900)), latency_s=draw(st.sampled_from((0, 0, 7, 60))),
            tick_s=draw(st.sampled_from((15, 60, 97))))

    def calls(lo):
        # most on a tick time, some between two
        when = st.tuples(st.integers(lo, 1700), st.sampled_from((0, 0, 2))).map(
            lambda tw: tw[0] + (-tw[0]) % 5 + tw[1])
        return draw(st.lists(st.one_of(
            st.tuples(st.just("clock"), when, st.sampled_from(devices),
                      st.sampled_from((-300, -60, 0, 60, 900))),
            st.tuples(st.just("sync"), when),
            # a replayer copies a device's current beacon, or sends noise
            st.tuples(st.just("arm"), when, st.sampled_from(devices) | st.none())),
            max_size=4))

    plan = [("calls", calls(0))]
    now = 0
    for _ in range(draw(st.integers(0, 3))):
        now = draw(st.integers(now, 1600))
        plan += [("step", now), ("calls", calls(now))]
    return edges, clients, dh_cfg, variant, relay, plan


def client_state(client):
    """Everything a client keeps that the radio writes, in order."""
    if isinstance(client, TekClient):
        return ("tek", client.index.round,
                [(ident, runs.tolist()) for ident, runs in client.log.by_identifier.items()])
    if isinstance(client, CentralizedClient):
        return ("centralized", [(r.identifier, r.first_seen, r.last_seen) for r in client.records])
    if isinstance(client, DhClient):
        return ("dh", [(r.hash_hex, r.my_timestamp) for r in client.records],
                [(key, p.started_at, p.accrued_s, p.paired_epoch,
                  p.paired_key, p.record is not None)
                 for key, p in client._pending.items()],
                list(client._peer_keys), sorted(client._keys_sent), client.rejected_keys)
    if isinstance(client, adversary.SnifferClient):
        return ("sniffer", [(r.identifier, r.first_at, r.last_at, r.sniffer_id)
                            for r in client.runs])
    if isinstance(client, adversary.ReplayClient):
        return ("replayer", client.payload)
    return ()


def run_span_plan(world_cls, edges, clients, dh_cfg, variant, relay, plan):
    """Run the plan; returns the state of every client after each step, the
    world's counters and connections opened (with the relay's stats), and
    the world."""
    root = SeedStream(11, "spans")
    world = world_cls(ContactTrace(edges), root.child("world"), capabilities=("clock",))
    registry = CentralRegistry(root.child("registry"), variant)
    for d, (kind, offset, latency_s) in clients.items():
        if kind == "tek":
            client = TekClient(root.child(d))
        elif kind == "dh":
            client = LaggingDh(root.child(d), dh_cfg, latency_s)
        elif kind == "centralized":
            client = CentralizedClient(registry)
        elif kind == "sniffer":
            client = adversary.SnifferClient()
        elif kind == "relay":
            client = adversary.RelayNode()
        elif kind == "replayer":
            client = adversary.ReplayClient()
        else:
            client = Echo(world, min((d for d in clients if clients[d][0] != "echo"), default=None))
        world.add_device(d, client, offset)
        if kind == "centralized":
            client.register()

    def sync():
        for dev in world.devices.values():
            if isinstance(dev.client, (TekClient, DhClient)):
                dev.client.index.wake([])
                dev.client.sync()

    def arm(source):
        payload = b"noise-of-replay!"
        if source is not None:
            payload = world.devices[source].client.advertisement_identifier(
                world.local_time(source))
        for dev in world.devices.values():
            if isinstance(dev.client, adversary.ReplayClient):
                dev.client.payload = payload

    def snapshot():
        return [client_state(dev.client) for dev in world.devices.values()] \
            + [list(registry._batch_index)]

    stats = adversary.install_relay(world, relay) if relay is not None else {}

    states = []
    for op, arg in plan:
        if op == "step":
            world.step(arg)
            states.append((world.now, snapshot()))
        else:
            for call in arg:
                if call[0] == "clock":
                    world.schedule(call[1], world.set_clock, call[2], call[3])
                elif call[0] == "arm":
                    world.schedule(call[1], arm, call[2])
                else:
                    world.schedule(call[1], sync)
    world.run()
    states.append((world.now, snapshot()))
    return states, (dict(world.counters), stats), world._cid, world


# the replayer c beacons a's identifier beside a itself, so b and the sniffer d
# hear it twice a tick, until a's clock set at 400 moves a to its next slot
COPIED_BEACON = ([ContactEdge("a", "b", 0, 700), ContactEdge("c", "b", 100, 900),
                  ContactEdge("a", "d", 0, 700), ContactEdge("c", "d", 100, 900)],
                 {"a": ("tek", 0, 0), "b": ("tek", 0, 0), "c": ("replayer", 0, 0),
                  "d": ("sniffer", 0, 0)},
                 DhConfig(), "bluetrace", None,
                 [("calls", [("arm", 50, "a"), ("clock", 400, "a", 300)])])


# the DH client a is beside a sniffer b, a TEK client c and a relay node d, none of
# which connects, and meets the DH client e, which connects; the hub and its 10 peers
# run DH, so two of them are refused a connection on every tick
DH_BESIDE_PEERS_THAT_NEVER_CONNECT = (
    [ContactEdge("a", peer, 0, 1200) for peer in "bcd"] + [ContactEdge("a", "e", 300, 700)]
    + [ContactEdge("hub", peer, 0, 300) for peer in HUB_PEERS[:10]],
    {"a": ("dh", 0, 0), "b": ("sniffer", 0, 0), "c": ("tek", 0, 0), "d": ("relay", 0, 0),
     "e": ("dh", 0, 5), "hub": ("dh", 0, 0), **{peer: ("dh", 0, 0) for peer in HUB_PEERS[:10]}},
    DhConfig(), "bluetrace", None, [("calls", [("sync", 600)])])


# the DH clients a and b exchange window-0 keys over 0-100; then a's clock moves to
# window 3 and b's to window 1, and a relay connects a to b at 200 without telling
# b, which refuses a's window-3 key: b has no open connection, but the relayed one
# accrues co-presence over the direct edge, and b's window-1 encounter pairs with
# a's window-0 key and finalizes once 290 s have accrued, on a tick inside what
# would otherwise be one span
RELAYED_TO_A_DH_CLIENT_THAT_REFUSED_THE_KEY = (
    [ContactEdge("a", "b", 0, 100), ContactEdge("a", "b", 200, 800),
     ContactEdge("a", "c", 150, 800), ContactEdge("b", "d", 150, 800)],
    {"a": ("dh", 0, 0), "b": ("dh", 0, 0), "c": ("relay", 0, 0), "d": ("relay", 0, 0)},
    DhConfig(min_encounter_s=290), "bluetrace",
    adversary.RelayPair("c", "d", "two_way_realtime", (200, 800), tick_s=60),
    [("calls", [("clock", 150, "a", 2700), ("clock", 150, "b", 900)])])


@settings(max_examples=300, deadline=None)
@given(span_plans())
@example(COPIED_BEACON)
@example(DH_BESIDE_PEERS_THAT_NEVER_CONNECT)
@example(RELAYED_TO_A_DH_CLIENT_THAT_REFUSED_THE_KEY)
def test_a_world_without_a_sink_hands_spans_over_as_ticks_one_by_one(case):
    """Spans leave every client in the state one heap entry per tick leaves
    it in, after each partial step: TEK runs and key order, centralized
    records, DH records, encounters with their accrued_s, peer keys and keys
    sent, a sniffer's runs and a replayer's payload; and the same counters,
    relay stats, connections and event kinds but scans."""
    states, counters, cids, world = run_span_plan(SpanWorld, *case)
    ref_states, ref_counters, ref_cids, ref = run_span_plan(HeapWorld, *case)
    assert states == ref_states
    assert (counters, cids) == (ref_counters, ref_cids)
    kinds = Counter(e.kind for e in ref.log)
    assert world.emitted == kinds - Counter(scan=kinds["scan"])


def scan_ticks(log):
    """Each scan event as the scans of its ticks: time -> a multiset of
    (listener, speaker, identifier, link address)."""
    got = {}
    for e in log:
        if e.kind == "scan":
            heard = (e.payload["device"], e.payload["from"], e.payload["id"], e.payload["link"])
            for k in range(e.payload["ticks"]):
                got.setdefault(e.at_s + k * SCAN_TICK_S, Counter())[heard] += 1
    return got


# two of the hub's contacts end at 22: their ends run in the order of their last
# ticks, at 20, though spans held those ticks
EDGE_ENDS_AT_ONCE = ([ContactEdge("hub", "p8", 1, 22), ContactEdge("hub", "p9", 1, 22)],
                     {"hub": ("dh", 0, 5), "p8": ("dh", 0, 0), "p9": ("dh", 0, 0)},
                     DhConfig(rotation_s=60, min_encounter_s=0), "bluetrace", None,
                     [("calls", [])])


# a TEK slot runs from 600 to 1200, but the link address rotates at 900
ACROSS_A_LINK_ROTATION = ([ContactEdge("a", "b", 0, 1300)],
                          {"a": ("tek", 0, 0), "b": ("tek", 0, 0)},
                          DhConfig(), "bluetrace", None, [("calls", [])])


@settings(max_examples=150, deadline=None)
@given(span_plans())
@example(COPIED_BEACON)
@example(EDGE_ENDS_AT_ONCE)
@example(ACROSS_A_LINK_ROTATION)
@example(DH_BESIDE_PEERS_THAT_NEVER_CONNECT)
@example(RELAYED_TO_A_DH_CLIENT_THAT_REFUSED_THE_KEY)
def test_a_written_world_writes_each_span_as_one_scan_event_of_its_ticks(case):
    """A world with a sink takes the same spans: every client ends in the
    state one heap entry per tick leaves it in, each scan event expanded into
    its ticks gives that world's scans at each time, and every other event is
    the same, in the same order."""
    states, counters, cids, world = run_span_plan(LoggedWorld, *case)
    ref_states, ref_counters, ref_cids, ref = run_span_plan(HeapWorld, *case)
    assert states == ref_states
    assert (counters, cids) == (ref_counters, ref_cids)
    assert all(e.payload["ticks"] == 1 for e in ref.log if e.kind == "scan")
    assert scan_ticks(world.log) == scan_ticks(ref.log)
    assert [(e.at_s, e.kind, e.payload) for e in world.log if e.kind != "scan"] \
        == [(e.at_s, e.kind, e.payload) for e in ref.log if e.kind != "scan"]
    assert [e.seq for e in world.log] == list(range(1, len(world.log) + 1))


@pytest.mark.parametrize("world_cls", [SpanWorld, WrittenSpanWorld])
def test_a_dh_client_beside_peers_that_never_connect_takes_spans(world_cls):
    """The DH client a takes spans with the sniffer, the TEK client and the
    relay node, and ends in the state one tick at a time leaves it in. A DH
    pair with no open connection still runs one tick at a time, so the hub's
    peers are refused a connection as often as one heap entry per tick
    refuses them."""
    states, counters, cids, world = run_span_plan(world_cls, *DH_BESIDE_PEERS_THAT_NEVER_CONNECT)
    ref_states, ref_counters, ref_cids, _ = run_span_plan(
        HeapWorld, *DH_BESIDE_PEERS_THAT_NEVER_CONNECT)
    assert {frozenset(("a", peer)) for peer in "bcd"} <= world.spanned
    assert states == ref_states
    assert (counters, cids) == (ref_counters, ref_cids)
    rejects = counters[0]["connect_rejects_capacity"]
    assert rejects == ref_counters[0]["connect_rejects_capacity"] == 2 * 60


class SpanLogWorld(SpanWorld):
    """A SpanWorld that keeps each span it hands over as (edge, t, ticks)."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.spans = []

    def _span(self, t, idx, edge, *args):
        n = super()._span(t, idx, edge, *args)
        self.spans.append((edge, t, n))
        return n


class WrittenSpanLogWorld(SpanLogWorld, WrittenSpanWorld):
    """A SpanLogWorld whose events go to the list world.log."""


# the TEK clients a and b meet from 0 to 600, and again from 203 to 232
PAIR_INSIDE_A_PAIR = ([ContactEdge("a", "b", 0, 600), ContactEdge("b", "a", 203, 232)],
                      {"a": ("tek", 0, 0), "b": ("tek", 0, 0)},
                      DhConfig(), "bluetrace", None, [("calls", [])])

# the TEK clients a and b meet from 0 to 600; the replayer c, armed with a's
# identifier, meets b from 203 to 232
TEK_PAIR_BESIDE_A_REPLAYER = ([ContactEdge("a", "b", 0, 600), ContactEdge("c", "b", 203, 232)],
                              {"a": ("tek", 0, 0), "b": ("tek", 0, 0), "c": ("replayer", 0, 0)},
                              DhConfig(), "bluetrace", None, [("calls", [("arm", 0, "a")])])


@pytest.mark.parametrize("case", [PAIR_INSIDE_A_PAIR, TEK_PAIR_BESIDE_A_REPLAYER],
                         ids=["pair", "replayer"])
def test_a_span_stops_before_the_ticks_of_an_edge_that_can_deliver_its_identifier(case):
    """a-b spans up to the first tick of the other edge (the pair's own, or
    the replayer's that may beacon a's identifier to b), at 205. The two
    take one tick at a time while both are live, up to 230, where a-b also
    stops before the other edge's end at 232; then a-b spans to its end (one
    TEK slot, one link-address window). A world with a sink takes the same
    spans, and both leave every client as one heap entry per tick does."""
    ab, other = case[0]
    ref_states, ref_counters, ref_cids, _ = run_span_plan(HeapWorld, *case)
    for world_cls in (SpanLogWorld, WrittenSpanLogWorld):
        states, counters, cids, world = run_span_plan(world_cls, *case)
        assert world.spans == ([(ab, 0, 41)]
                               + [(e, t, 1) for t in range(205, 235, 5) for e in (other, ab)]
                               + [(ab, 235, 73)])
        assert states == ref_states
        assert (counters, cids) == (ref_counters, ref_cids)


class TickCounting(BeaconClient):
    """A lab beacon without quiet_until that keeps the ticks of each sighting."""

    def on_sighting(self, identifier, local_t, global_t, ticks=1):
        self.heard.append(ticks)


@pytest.mark.parametrize("world_cls", [World, LoggedWorld])
def test_a_lab_client_without_quiet_until_gets_one_tick_at_a_time(world_cls):
    world = world_cls(ContactTrace([ContactEdge("a", "b", 0, 600)]), SeedStream(2, "w"))
    tek, lab = TekClient(SeedStream(2, "a")), TickCounting(b"L" * 16)
    world.add_device("a", tek)
    world.add_device("b", lab)
    world.run()
    assert lab.heard == [1] * 120
    assert tek.log.by_identifier[b"L" * 16].tolist() == [0, 595, 0]
    if world_cls is LoggedWorld:
        scans = [e.payload["ticks"] for e in world.log if e.kind == "scan"]
        assert scans == [1] * 240


def test_a_span_never_holds_a_tick_past_step_until():
    """After step(200) in the middle of a contact, a clock set and a call
    scheduled for the next tick see the world as one tick at a time leaves
    it: the tick at 205 has run (it was due before them), no later one has."""
    def run(world_cls):
        world = world_cls(ContactTrace([ContactEdge("a", "b", 0, 600)]), SeedStream(3, "w"),
                          capabilities=("clock",))
        root = SeedStream(3, "clients")
        for d in ("a", "b"):
            world.add_device(d, TekClient(root.child(d)))
        log = world.devices["b"].client.log
        seen = []
        world.step(200)
        seen.append([runs.tolist() for runs in log.by_identifier.values()])
        world.schedule(205, world.set_clock, "a", 600)    # a's next slot: a new identifier
        world.schedule(205, lambda: seen.append([runs.tolist()
                                                 for runs in log.by_identifier.values()]))
        world.run()
        seen.append([runs.tolist() for runs in log.by_identifier.values()])
        return seen, world

    seen, world = run(SpanWorld)
    assert world.long_spans > 0
    assert seen == [[[0, 200, 0]], [[0, 205, 0]], [[0, 205, 0], [210, 595, 0]]]
    assert seen == run(HeapWorld)[0]


def reference_json_line(event, run):
    """The events.jsonl line as one json.dumps call per event wrote it."""
    doc = {"at": event.at_s, "seq": event.seq, "kind": event.kind, "payload": event.payload}
    if run is not None:
        doc["run"] = run
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# all of Unicode, lone surrogates included, with what JSON must escape made common
json_text = st.text(st.one_of(st.characters(exclude_categories=()),
                              st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfff')),
                    max_size=12)
json_ints = st.one_of(st.integers(), st.integers(min_value=2 ** 64, max_value=2 ** 200),
                      st.integers(min_value=-2 ** 200, max_value=-2 ** 63))
json_floats = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
json_values = st.recursive(
    st.one_of(json_text, json_ints, st.booleans(), st.none(), json_floats),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(json_text, kids, max_size=4),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(at=json_ints, seq=json_ints, kind=json_text,
       payload=st.dictionaries(json_text, json_values, max_size=6),
       run=st.none() | json_text)
def test_an_event_line_is_the_one_json_dumps_writes(at, seq, kind, payload, run):
    event = SimEvent(at, seq, kind, payload)
    assert event.to_json_line(run) == reference_json_line(event, run)


@pytest.mark.parametrize("payload", [{"id": b"\x00"}, {"ids": [1, b"\x00"]},
                                     {"at": {"x": bytearray(b"1")}}])
def test_an_event_value_json_dumps_refuses_raises_the_same_type_error(payload):
    event = SimEvent(0, 1, "scan", payload)
    with pytest.raises(TypeError) as want:
        reference_json_line(event, "r")
    with pytest.raises(TypeError) as got:
        event.to_json_line("r")
    assert str(got.value) == str(want.value)
