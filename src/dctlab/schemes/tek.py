"""Decentralized daily-key scheme (the GAEN/DP3T-1 family).

Each device keeps one random 16-byte key per day and beacons the key's
derived identifier for the current 10-minute slot. On infection the daily
keys themselves are published, so matching happens on the phone: derive the
144 identifiers of each published key and intersect with the sighting log.

A published key's schedule is derived once per run, not once per device and
sync. ``PublishedTekIndex`` holds every published key a run has ingested:
tek_hex -> (PublishedTek, its 144-identifier schedule), and identifier bytes
-> (tek_hex, slot). One index is shared by every client of a run and by the
adversary analyses; a client built without one keeps a private index.
Ingestion skips (and counts) a feed entry that breaks TEK_ENTRY, the table
an upload's daily keys are checked against too, so one bad entry cannot
break matching for anyone.

The weaknesses the adversary lab exercises are reproduced deliberately:

* a generous match validity window (default 7200 s) that admits relayed
  sightings recorded hours away from an identifier's nominal slot;
* publication of whole daily keys, which links all 144 identifiers of an
  infected device's day (tracking), and lets anyone fabricate "sightings"
  straight from the public feed (fake exposure claims, same-day replays).

The optional strict-freshness fix pins every published key to the length of
the sighting log at the moment the key first arrived in a feed sync; entries
appended after that cannot match the key. The pin is an append-order
watermark, not a timestamp, so it holds even when the device clock has been
manipulated. It ships off by default, mirroring deployed behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto_core import DAY_S, IDENTIFIER_SLOT_S, Identifier, Tek, derive_day_identifiers
from ..radio import DeviceClient
from ..rng import SeedStream
from ..schema import Field, hex_of, natural, passes

DEFAULT_VALIDITY_WINDOW_S = 7200
DEFAULT_RETENTION_DAYS = 14
STRICT_VALIDITY_WINDOW_S = 120   # the "fixed" profile
# a daily key as uploaded and as published; a feed entry adds published_at
TEK_ENTRY = {"tek_hex": Field(hex_of(32)), "day": Field(natural)}


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


@dataclass(frozen=True)
class Sighting:
    identifier: bytes
    seen_at: int    # local clock at record time; this is what matching uses
    seq: int        # append order, immune to clock manipulation
    global_at: int  # simulator ground truth, never consulted by the scheme


class SightingLog:
    """Append-only within a run."""

    def __init__(self):
        self.entries: list[Sighting] = []
        self._by_id: dict[bytes, list[Sighting]] = {}

    def append(self, identifier: bytes, seen_at: int, global_at: int) -> Sighting:
        s = Sighting(identifier, seen_at, len(self.entries), global_at)
        self.entries.append(s)
        self._by_id.setdefault(identifier, []).append(s)
        return s

    def sightings_of(self, identifier: bytes) -> list[Sighting]:
        return self._by_id.get(identifier, [])


@dataclass(frozen=True)
class PublishedTek:
    tek: Tek
    published_at: int


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
    """Every published daily key one run has seen, each schedule derived once.

    by_hex maps tek_hex to the first PublishedTek indexed under it and that
    key's identifier schedule; by_identifier maps each identifier's bytes to
    (tek_hex, slot). skipped counts the malformed entries handed to ingest.
    """

    def __init__(self):
        self.by_hex: dict[str, tuple[PublishedTek, list[Identifier]]] = {}
        self.by_identifier: dict[bytes, tuple[str, int]] = {}
        self.skipped = 0

    def schedule(self, pub: PublishedTek) -> list[Identifier]:
        """The 144 identifiers of pub's key, as derive_day_identifiers gives them."""
        tek = pub.tek
        hit = self.by_hex.get(tek.hex)
        if hit is None:
            hit = self.by_hex[tek.hex] = (pub, derive_day_identifiers(tek))
            for slot, ident in enumerate(hit[1]):
                self.by_identifier.setdefault(ident.bytes, (tek.hex, slot))
        indexed, schedule = hit
        shift = (tek.day_index - indexed.tek.day_index) * DAY_S
        if shift:
            # the identifier bytes depend on the key alone, the windows on its day
            return [Identifier(i.bytes, i.valid_from + shift, i.valid_to + shift)
                    for i in schedule]
        return schedule

    def ingest(self, entry) -> PublishedTek | None:
        """Index one feed entry and return it, or None if it breaks TEK_ENTRY."""
        if not passes(entry, TEK_ENTRY):
            self.skipped += 1
            return None
        pub = PublishedTek(Tek(bytes.fromhex(entry["tek_hex"]), entry["day"]),
                           entry.get("published_at", 0))
        self.schedule(pub)
        return pub

    def ingest_all(self, entries: list) -> list[PublishedTek]:
        return [pub for pub in map(self.ingest, entries) if pub is not None]


def publish_keys(store: TekStore, tan: str) -> dict:
    """Upload bundle: the raw daily keys become public by design."""
    return {
        "scheme": "tek",
        "tan": tan,
        "teks": [{"tek_hex": t.hex, "day": t.day_index} for t in store.retained()],
    }


def _slot_distance(seen_at: int, valid_from: int, valid_to: int) -> int:
    if seen_at < valid_from:
        return valid_from - seen_at
    if seen_at >= valid_to:
        return seen_at - (valid_to - 1)
    return 0


def match_exposures(log: SightingLog, published: list[PublishedTek],
                    validity_window_s: int = DEFAULT_VALIDITY_WINDOW_S,
                    watermarks: dict[str, int] | None = None,
                    index: PublishedTekIndex | None = None) -> list[Exposure]:
    """Intersect the sighting log with the identifier schedules of published
    keys. A sighting matches when the bytes are equal and its recorded local
    time lies within validity_window_s of the identifier's nominal slot.
    One exposure per matched (key, slot), not per sighting; for each slot the
    first in-window sighting in log order decides. Exposures come in
    publication order, then slot order.

    watermarks pins keys to the strict-freshness fix: tek_hex -> the log
    length when the key first arrived, and sightings at or past a key's
    watermark are ignored for it. None pins no key, and neither does a map
    without the key. Schedules come from index (a private one when None).
    """
    index = index or PublishedTekIndex()
    out: list[Exposure] = []
    seen_keys: set[tuple] = set()
    for pub in published:
        cutoff = watermarks.get(pub.tek.hex) if watermarks is not None else None
        for slot, ident in enumerate(index.schedule(pub)):
            for s in log.sightings_of(ident.bytes):
                if cutoff is not None and s.seq >= cutoff:
                    continue
                if _slot_distance(s.seen_at, ident.valid_from, ident.valid_to) > validity_window_s:
                    continue
                exp = Exposure(pub.tek.hex, pub.tek.day_index, slot, s.seen_at)
                if exp.key not in seen_keys:
                    seen_keys.add(exp.key)
                    out.append(exp)
                break
    return out


class TekClient(DeviceClient):
    def __init__(self, stream: SeedStream, *, validity_window_s: int = DEFAULT_VALIDITY_WINDOW_S,
                 strict_freshness: bool = False, retention_days: int = DEFAULT_RETENTION_DAYS,
                 index: PublishedTekIndex | None = None):
        self.stream = stream
        self.validity_window_s = validity_window_s
        self.strict_freshness = strict_freshness
        self.store = TekStore(retention_days=retention_days)
        self.log = SightingLog()
        self.watermarks: dict[str, int] = {}
        self.known_published: list[PublishedTek] = []
        self.reported = False
        self.index = index or PublishedTekIndex()
        self._schedules: dict[int, list] = {}
        self._notified: set[tuple] = set()

    def tek_for_day(self, day: int) -> Tek:
        if day not in self.store.teks:
            self.store.add(Tek(self.stream.child(f"tek:{day}").take(16), day))
        return self.store.teks[day]

    def _schedule_for(self, day: int) -> list:
        if day not in self._schedules:
            self._schedules[day] = derive_day_identifiers(self.tek_for_day(day))
            if len(self._schedules) > 4:  # keep the cache small on long runs
                self._schedules.pop(min(self._schedules))
        return self._schedules[day]

    def advertisement_identifier(self, local_t: int) -> bytes:
        day, within = divmod(local_t, DAY_S)
        return self._schedule_for(day)[within // IDENTIFIER_SLOT_S].bytes

    def on_sighting(self, identifier: bytes, link_addr: bytes, local_t: int, global_t: int) -> None:
        self.log.append(identifier, local_t, global_t)

    def make_report(self, tan: str) -> dict:
        self.reported = True
        return publish_keys(self.store, tan)

    def sync(self, feed_entries: list[dict], local_t: int) -> list[Exposure]:
        """Ingest new feed entries and return not-yet-seen exposures."""
        known = {p.tek.hex for p in self.known_published}
        for e in feed_entries:
            pub = self.index.ingest(e)
            if pub is None or pub.tek.hex in known:
                continue
            self.known_published.append(pub)
            self.watermarks.setdefault(pub.tek.hex, len(self.log.entries))
        own = {t.hex for t in self.store.retained()} if self.reported else set()
        exposures = match_exposures(self.log,
                                    [p for p in self.known_published if p.tek.hex not in own],
                                    self.validity_window_s,
                                    self.watermarks if self.strict_freshness else None,
                                    self.index)
        fresh = [e for e in exposures if e.key not in self._notified]
        self._notified.update(e.key for e in fresh)
        return fresh
