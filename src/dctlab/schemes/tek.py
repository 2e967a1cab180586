"""Decentralized daily-key scheme (the GAEN/DP3T-1 family).

Each device keeps one random 16-byte key per day and beacons the key's
derived identifier for the current 10-minute slot. On infection the daily
keys themselves are published, so matching happens on the phone: derive the
144 identifiers of each published key and intersect with the sighting log.

A published key's identifiers are derived once per run, not once per device
and sync. ``PublishedTekIndex`` holds every published key a run has ingested:
tek_hex -> its 144 identifier bytes, and identifier bytes -> (tek_hex, slot).
The bytes depend on the key alone; a slot's validity window follows from the
day a key is published under and the slot. One index is shared by every
client of a run and by the adversary analyses; a client built without one
keeps a private index. Ingestion skips (and counts), once per page, a feed
entry that breaks TEK_FEED_ENTRY, an upload's TEK_ENTRY and the published_at
the server stamps, so one bad entry cannot break matching for anyone. Only a
sync round hands the index a page (PublishedTekIndex.wake); a client's sync
reads the index. The index also keeps, per identifier, the devices that
logged it, so that a round syncs only the devices it can notify: those that
logged an identifier of a key the round brought, and those that logged a
published one since the last round.

A sighting log keeps each identifier's sightings as runs of scan ticks:
flat (first_at, last_at, epoch) triples in one array('q'). A listener hears
an identifier at every 5 s scan tick for as long as a contact and its 600 s
slot last, so one run stands for dozens of sightings; the radio hands a
listener such ticks over as one span, appended at once. A span extends its
identifier's last run only when it begins one tick past the run's last_at in
the same epoch; anything else starts a new run, so the log never holds more
triples than sightings. Times are the local clock at record time; scenario
times are bounded below 2**60 in magnitude, so they fit in 64 bits. Matching
walks the join from the small side: each distinct identifier in a sighting
log is looked up in the index, since a log holds a few dozen of them and
every published key holds 144. The first in-window sighting of a run follows
from its first_at by arithmetic.

The weaknesses the adversary lab exercises are reproduced deliberately:

* a generous match validity window (default 7200 s) that admits relayed
  sightings recorded hours away from an identifier's nominal slot;
* publication of whole daily keys, which links all 144 identifiers of an
  infected device's day (tracking), and lets anyone fabricate "sightings"
  straight from the public feed (fake exposure claims, same-day replays).

The optional strict-freshness fix pins every published key to the run's sync
round that brought it, which the index holds once for the run with the key.
A client hands its log the index's round with each sighting, each run keeps
the round it began in, and a run matches the key only if it began in an
earlier round. So sightings appended after the key arrived cannot match it.
The pin counts rounds, not time, so it holds even when the device clock has
been manipulated. It ships off by default, as deployed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from ..crypto_core import (
    DAY_S,
    IDENTIFIER_SLOT_S,
    IDENTIFIERS_PER_DAY,
    Tek,
    derive_day_identifiers,
    derive_slot_identifier,
)
from ..radio import SCAN_TICK_S, DeviceClient
from ..rng import SeedStream
from ..schema import Field, hex_of, natural, passes
from .wake import WakeMap

DEFAULT_VALIDITY_WINDOW_S = 7200
DEFAULT_RETENTION_DAYS = 14
# a daily key as uploaded, which may not carry published_at: the server stamps it
TEK_ENTRY = {"tek_hex": Field(hex_of(32)), "day": Field(natural)}
# a daily key as published in the feed
TEK_FEED_ENTRY = {**TEK_ENTRY, "published_at": Field(int, None)}


@dataclass
class TekStore:
    """At most retention_days daily keys, pruned oldest-first."""

    retention_days: int = DEFAULT_RETENTION_DAYS
    teks: dict[int, Tek] = field(default_factory=dict)

    def add(self, tek: Tek) -> None:
        self.teks[tek.day_index] = tek
        while len(self.teks) > self.retention_days:
            del self.teks[min(self.teks)]

    def retained(self) -> list[Tek]:
        return [self.teks[d] for d in sorted(self.teks)]


class SightingLog:
    """Append-only within a run. by_identifier maps identifier bytes to that
    identifier's runs in append order, as flat triples in one array('q'):
    first_at and last_at, the local clock at record time of the run's first
    and last sighting, then epoch, the sync round the run began in, as its
    caller handed it to append. append(identifier, seen_at, ticks, epoch)
    records ticks sightings one scan tick apart from seen_at. They extend
    the identifier's last run only when seen_at is last_at + SCAN_TICK_S
    and the epoch is the run's; a duplicate, a clock moved back, any other
    gap or a new epoch starts a new run. So a run's sightings are first_at,
    first_at + SCAN_TICK_S, ..., last_at, all appended in one epoch, and a
    span of ticks leaves the log as its ticks appended one by one would."""

    def __init__(self):
        self.by_identifier: dict[bytes, array] = {}

    def append(self, identifier: bytes, seen_at: int, ticks: int = 1, epoch: int = 0) -> bool:
        """Record the sightings; True when they are the identifier's first."""
        last_at = seen_at + SCAN_TICK_S * (ticks - 1)
        runs = self.by_identifier.get(identifier)
        if runs is None:
            self.by_identifier[identifier] = array("q", (seen_at, last_at, epoch))
            return True
        if runs[-2] == seen_at - SCAN_TICK_S and runs[-1] == epoch:
            runs[-2] = last_at
        else:
            runs.extend((seen_at, last_at, epoch))
        return False


@dataclass(frozen=True)
class Exposure:
    tek_hex: str
    day_index: int
    slot: int
    seen_at: int

    @property
    def key(self) -> tuple:
        return (self.tek_hex, self.slot)

    def as_dict(self) -> dict:
        return {"tek_hex": self.tek_hex, "day": self.day_index,
                "slot": self.slot, "seen_at": self.seen_at}


class PublishedTekIndex:
    """Every published daily key one run has seen, each derived once.

    by_hex maps tek_hex to the key's 144 identifier bytes in slot order, held
    once however many days the key is published under; by_identifier maps
    each identifier's bytes to (tek_hex, slot). published lists the keys the
    run's sync rounds brought, in the order they first arrived (a page that
    lists a key twice keeps both listings), and rounds maps each one's
    tek_hex to the round that brought it; only wake, which opens a round,
    adds to them. skipped counts the malformed entries of the pages
    ingested. recorders is the run's wake map: the devices that logged each
    identifier, and those that logged a published one since the last round.
    """

    def __init__(self):
        self.by_hex: dict[str, list[bytes]] = {}
        self.by_identifier: dict[bytes, tuple[str, int]] = {}
        self.published: list[Tek] = []
        self.rounds: dict[str, int] = {}
        self.skipped = 0
        self.round = 0
        self.recorders = WakeMap()

    def identifiers(self, tek: Tek) -> list[bytes]:
        """The 144 identifier bytes of tek's key, slot by slot."""
        idents = self.by_hex.get(tek.hex)
        if idents is None:
            idents = self.by_hex[tek.hex] = derive_day_identifiers(tek)
            for slot, ident in enumerate(idents):
                self.by_identifier.setdefault(ident, (tek.hex, slot))
        return idents

    def ingest_all(self, page: list) -> list[Tek]:
        """Index a feed page and return its keys in page order, skipping (and
        counting) an entry that breaks TEK_FEED_ENTRY. It opens no round."""
        teks = [Tek(bytes.fromhex(e["tek_hex"]), e["day"]) for e in page
                if passes(e, TEK_FEED_ENTRY)]
        self.skipped += len(page) - len(teks)
        for tek in teks:
            self.identifiers(tek)
        return teks

    def recorded(self, identifier: bytes, device: str, first: bool) -> None:
        """device logged a sighting of identifier, its first when first."""
        self.recorders.record(identifier, device, first, identifier in self.by_identifier)

    def wake(self, page: list) -> set[str]:
        """Open the next sync round with page, publishing its keys not
        published before, pinned to the round, and return the devices it
        can notify: those that logged an identifier of a key the round
        brought, and those that logged an identifier of a published key, or
        whose own keys changed after a report, since the last round. A sync
        would find nothing new on any other device."""
        self.round += 1
        arrived = [t for t in self.ingest_all(page) if t.hex not in self.rounds]
        self.published += arrived
        self.rounds.update((t.hex, self.round) for t in arrived)
        return self.recorders.wake(ident for tek in arrived for ident in self.by_hex[tek.hex])


def publish_keys(store: TekStore, tan: str) -> dict:
    """Upload bundle: the raw daily keys become public by design."""
    return {
        "scheme": "tek",
        "tan": tan,
        "teks": [{"tek_hex": t.hex, "day": t.day_index} for t in store.retained()],
    }


# a cutoff above every epoch an array('q') can hold: an unpinned key admits every run
_UNPINNED = 2**63


def _first_in_window(runs: array, lo: int, hi: int, cutoff: int) -> int | None:
    """The first sighting of runs, in log order, that lies in [lo, hi] and
    belongs to a run whose epoch is below cutoff; None if there is none."""
    it = iter(runs)
    for first_at, last_at, epoch in zip(it, it, it):
        # the run's first tick at or past lo
        at = max(first_at, lo + (first_at - lo) % SCAN_TICK_S)
        if epoch < cutoff and at <= last_at and at <= hi:
            return at
    return None


def match_exposures(log: SightingLog, published: list[Tek],
                    validity_window_s: int = DEFAULT_VALIDITY_WINDOW_S,
                    watermarks: dict[str, int] | None = None,
                    index: PublishedTekIndex | None = None) -> list[Exposure]:
    """Intersect the sighting log with the identifiers of published keys. A
    sighting matches when the bytes are equal and its recorded local time
    lies within validity_window_s (at least 0) of the identifier's nominal
    slot on the day the key is published under. One exposure per matched
    (key, slot), not per sighting; for each slot the first in-window
    sighting in log order decides. Exposures come in publication order, then
    slot order.

    watermarks pins keys to the strict-freshness fix: tek_hex -> the sync
    round that brought the key, and runs that began in that round or later
    are ignored for it. None pins no key, and neither does a map
    without the key. Identifiers come from index (a private one when None).
    """
    index = index or PublishedTekIndex()
    positions: dict[str, list[int]] = {}
    for pos, tek in enumerate(published):
        index.identifiers(tek)
        positions.setdefault(tek.hex, []).append(pos)
    found = []   # (position, slot, seen_at)
    for ident, runs in log.by_identifier.items():
        tek_hex, slot = index.by_identifier.get(ident, (None, 0))
        cutoff = (watermarks or {}).get(tek_hex, _UNPINNED)
        # a key listed more than once counts under the first listing that matches
        for pos in positions.get(tek_hex, ()):
            slot_start = published[pos].day_index * DAY_S + slot * IDENTIFIER_SLOT_S
            seen_at = _first_in_window(runs, slot_start - validity_window_s,
                                       slot_start + IDENTIFIER_SLOT_S - 1 + validity_window_s,
                                       cutoff)
            if seen_at is not None:
                found.append((pos, slot, seen_at))
                break
    return [Exposure(published[pos].hex, published[pos].day_index, slot, seen_at)
            for pos, slot, seen_at in sorted(found)]


class TekClient(DeviceClient):
    def __init__(self, stream: SeedStream, *, validity_window_s: int = DEFAULT_VALIDITY_WINDOW_S,
                 strict_freshness: bool = False, retention_days: int = DEFAULT_RETENTION_DAYS,
                 index: PublishedTekIndex | None = None):
        self.stream = stream
        self.validity_window_s = validity_window_s
        self.strict_freshness = strict_freshness
        self.store = TekStore(retention_days=retention_days)
        self.reported = False
        self.index = index or PublishedTekIndex()
        self.log = SightingLog()
        self._beacon: tuple[int | None, bytes] = (None, b"")   # (slot since origin, identifier)
        self._notified: set[tuple] = set()

    def tek_for_day(self, day: int) -> Tek:
        """The day's key. A day older than every retained one is pruned as
        soon as it is stored; its stream gives the same bytes each time."""
        tek = self.store.teks.get(day)
        if tek is None:
            tek = Tek(self.stream.child(f"tek:{day}").take(16), day)
            self.store.add(tek)
            if self.reported:
                # the own keys a sync leaves out may have lost one to pruning
                self.index.recorders.touched.add(self.device_id)
        return tek

    def advertisement_identifier(self, local_t: int) -> bytes:
        """The identifier of the current slot, derived from the day's key and
        the slot alone; the device never derives its day's whole schedule.
        The last one is kept, since a beacon is asked for at every scan tick
        and a slot lasts 600 s; a slot changed back (a clock moved back) is
        derived again and gives the same bytes. A day holds a whole number of
        slots, so slot // 144 is the day."""
        slot = local_t // IDENTIFIER_SLOT_S
        if self._beacon[0] != slot:
            day, within = divmod(slot, IDENTIFIERS_PER_DAY)
            self._beacon = (slot, derive_slot_identifier(self.tek_for_day(day), within))
        return self._beacon[1]

    def quiet_until(self, peer_id: str, local_t: int) -> int:
        """The end of the current slot: the beacon holds until then, and a
        sighting span only extends a run (a sync round, which starts an epoch,
        is a scheduled call, and so ends every span)."""
        return (local_t // IDENTIFIER_SLOT_S + 1) * IDENTIFIER_SLOT_S

    def on_sighting(self, identifier: bytes, local_t: int, global_t: int,
                    ticks: int = 1) -> None:
        first = self.log.append(identifier, local_t, ticks, self.index.round)
        self.index.recorded(identifier, self.device_id, first)

    def make_report(self, tan: str) -> dict:
        self.reported = True
        return publish_keys(self.store, tan)

    def sync(self) -> list[Exposure]:
        """Not-yet-seen exposures among the keys the run's index has
        published. Each run of the log keeps the index's round it began in,
        so under strict freshness only runs begun before the round that
        brought a key can match it."""
        own = {t.hex for t in self.store.retained()} if self.reported else set()
        exposures = match_exposures(self.log,
                                    [t for t in self.index.published if t.hex not in own],
                                    self.validity_window_s,
                                    self.index.rounds if self.strict_freshness else None,
                                    self.index)
        fresh = [e for e in exposures if e.key not in self._notified]
        self._notified.update(e.key for e in fresh)
        return fresh
