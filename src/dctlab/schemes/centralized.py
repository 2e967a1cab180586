"""Centralized scheme (the BlueTrace/PEPP-PT family).

Devices register with the service provider and get a pseudonymous user id.
Identifiers rotate every 15 minutes by default and are either derived
locally from the user id (pepp_pt variant) or pulled as pre-generated
batches the server computed under its master key (bluetrace variant).

The defining property: an infected user uploads the identifiers it
*observed*, and the server resolves each one back to the user that emitted
it. Matching happens server-side against the registry, which is also why
this architecture exposes the full contact multiset of every uploader to
the operator. That exposure is exactly what the adversary lab's
social-graph and collusion scenarios measure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto_core import DAY_S, MasterKey, derive_bluetrace_id, derive_centralized_id
from ..errors import ConfigurationError, ProtocolError
from ..radio import SCAN_TICK_S, DeviceClient
from ..rng import SeedStream
from ..schema import Field, hex_of

DEFAULT_ROTATION_S = 900       # "10 to 15 minutes"; exposed as a parameter
VARIANT_BLUETRACE = "bluetrace"
VARIANT_PEPP_PT = "pepp_pt"
MODE_ANONYMOUS = "anonymous"
MODE_PHONE = "phone"
SIGHTING_MERGE_GAP_S = 60
# a sighting one scan tick after a record's last one extends it, so a span of ticks does
assert SCAN_TICK_S <= SIGHTING_MERGE_GAP_S
IV_LEN = 16
AUTH_TAG_LEN = 8
# an uploaded record, as ObservedRecord.as_dict writes it
RECORD = {"id_hex": Field(hex_of(32)), "first_seen": Field(int), "last_seen": Field(int)}


@dataclass(frozen=True)
class CentralRegistration:
    user_id: str
    mode: str
    phone: str | None = None


@dataclass
class ObservedRecord:
    identifier: bytes
    first_seen: int
    last_seen: int

    def as_dict(self) -> dict:
        return {"id_hex": self.identifier.hex(),
                "first_seen": self.first_seen, "last_seen": self.last_seen}


class CentralRegistry:
    """Server-side user registry plus identifier resolution.

    For the bluetrace variant the registry keeps the (iv, auth_tag, window)
    of every identifier it issued and re-derives under the master key when
    resolving, rather than trusting the lookup index. owners(lo, hi) is the
    registry's reverse map over a range of windows: pepp_pt resolution
    searches it, and a colluding provider attributes sniffed beacons with it.
    """

    def __init__(self, stream: SeedStream, variant: str = VARIANT_BLUETRACE,
                 rotation_s: int = DEFAULT_ROTATION_S):
        if variant not in (VARIANT_BLUETRACE, VARIANT_PEPP_PT):
            raise ProtocolError(f"unknown centralized variant {variant!r}")
        # a day's batch holds DAY_S // rotation_s windows, so they must tile the day
        if type(rotation_s) is not int or rotation_s <= 0 or DAY_S % rotation_s:
            raise ConfigurationError(
                f"rotation_s must be a positive integer that divides {DAY_S}, got {rotation_s!r}")
        self.variant = variant
        self.rotation_s = rotation_s
        self.stream = stream
        self.master = MasterKey(stream.child("master").take(32))
        self.users: dict[str, CentralRegistration] = {}
        self.device_of: dict[str, str] = {}
        self._batch_index: dict[bytes, tuple[str, int, bytes, bytes]] = {}

    @property
    def batch_size(self) -> int:
        return DAY_S // self.rotation_s

    def register(self, device_id: str, mode: str = MODE_ANONYMOUS,
                 phone: str | None = None) -> CentralRegistration:
        user_id = "u-" + self.stream.child(f"uid:{len(self.users)}").take(6).hex()
        reg = CentralRegistration(user_id, mode, phone)
        self.users[user_id] = reg
        self.device_of[user_id] = device_id
        return reg

    def issue_batch(self, user_id: str, day: int) -> list[bytes]:
        """Pre-generated identifiers for one day (bluetrace pull), in window
        order: item i is window day * batch_size + i. A client pulls each day
        once; a repeat pull derives the same identifiers again from the day's
        own stream."""
        if user_id not in self.users:
            raise ProtocolError(f"unknown user {user_id}")
        batch = []
        base = day * self.batch_size
        batch_stream = self.stream.child(f"batch:{user_id}:{day}")
        for t_k in range(base, base + self.batch_size):
            iv = batch_stream.take(IV_LEN)
            auth_tag = batch_stream.take(AUTH_TAG_LEN)
            ident = derive_bluetrace_id(user_id, t_k, iv, auth_tag, self.master)
            self._batch_index[ident] = (user_id, t_k, iv, auth_tag)
            batch.append(ident)
        return batch

    def owners(self, lo: int, hi: int) -> dict[bytes, str]:
        """identifier -> user id, for every registered user and window lo..hi:
        derived on the spot (pepp_pt) or read from the issued batches (bluetrace)."""
        if self.variant == VARIANT_BLUETRACE:
            return {ident: user_id for ident, (user_id, t_k, _, _) in self._batch_index.items()
                    if lo <= t_k <= hi}
        return {derive_centralized_id(user_id, t_k): user_id
                for user_id in self.users for t_k in range(lo, hi + 1)}

    def resolve(self, identifier: bytes, first_seen: int, last_seen: int) -> str | None:
        """Map an uploaded identifier back to the user that emitted it."""
        if self.variant == VARIANT_BLUETRACE:
            hit = self._batch_index.get(identifier)
            if hit is None:
                return None
            user_id, t_k, iv, auth_tag = hit
            rederived = derive_bluetrace_id(user_id, t_k, iv, auth_tag, self.master)
            return user_id if rederived == identifier else None
        r = self.rotation_s
        return self.owners(first_seen // r - 1, last_seen // r + 1).get(identifier)


def report_infection(records: list[ObservedRecord], tan: str) -> dict:
    """Upload bundle: the observed identifiers with their raw timestamps.
    This plaintext exposure is the heart of the centralized privacy critique."""
    return {"scheme": "centralized", "tan": tan,
            "records": [r.as_dict() for r in records]}


def _resolve_pepp_pt(records: list[dict], registry: CentralRegistry) -> list[str | None]:
    """Each record's user as registry.resolve finds it, only within the
    record's own windows first_seen // r - 1 .. last_seen // r + 1, but from
    one map over the union of the bundle's windows: each (user, window) is
    derived once per bundle, not once per record."""
    r = registry.rotation_s
    spans = [(rec["first_seen"] // r - 1, rec["last_seen"] // r + 1) for rec in records]
    windows = sorted(set().union(*(range(lo, hi + 1) for lo, hi in spans)))
    owners = {derive_centralized_id(user_id, t_k): (user_id, t_k)
              for user_id in registry.users for t_k in windows}
    resolved = []
    for rec, (lo, hi) in zip(records, spans):
        user_id, t_k = owners.get(bytes.fromhex(rec["id_hex"]), (None, 0))
        resolved.append(user_id if lo <= t_k <= hi else None)
    return resolved


def server_match(records: list[dict], registry: CentralRegistry) -> dict[str, list[tuple[int, int]]]:
    """Resolve uploaded records to user ids; unresolvable ones are skipped.
    Returns user_id -> contact intervals (one per resolved record)."""
    if registry.variant == VARIANT_PEPP_PT:
        resolved = _resolve_pepp_pt(records, registry)
    else:
        resolved = [registry.resolve(bytes.fromhex(rec["id_hex"]), rec["first_seen"],
                                     rec["last_seen"]) for rec in records]
    matches: dict[str, list[tuple[int, int]]] = {}
    for rec, user_id in zip(records, resolved):
        if user_id is not None:
            matches.setdefault(user_id, []).append((rec["first_seen"], rec["last_seen"]))
    return matches


class CentralizedClient(DeviceClient):
    def __init__(self, registry: CentralRegistry, *, mode: str = MODE_ANONYMOUS,
                 phone: str | None = None):
        self.registry = registry
        self.rotation_s = registry.rotation_s
        self.mode = mode
        self.phone = phone
        self.registration: CentralRegistration | None = None
        self.records: list[ObservedRecord] = []
        self._last_by_id: dict[bytes, ObservedRecord] = {}
        self._ids: dict[int, bytes] = {}    # t_k -> identifier, pulled or derived

    def register(self) -> CentralRegistration:
        self.registration = self.registry.register(self.device_id, self.mode, self.phone)
        return self.registration

    def _require_registration(self) -> CentralRegistration:
        if self.registration is None:
            raise ProtocolError("device is not registered")
        return self.registration

    def _identifier_for_window(self, t_k: int) -> bytes:
        if t_k not in self._ids:
            user_id = self._require_registration().user_id
            if self.registry.variant == VARIANT_BLUETRACE:
                # one pull fills the whole day
                day = (t_k * self.rotation_s) // DAY_S
                batch = self.registry.issue_batch(user_id, day)
                self._ids.update(enumerate(batch, day * self.registry.batch_size))
            else:
                self._ids[t_k] = derive_centralized_id(user_id, t_k)
        return self._ids[t_k]

    def advertisement_identifier(self, local_t: int) -> bytes:
        return self._identifier_for_window(local_t // self.rotation_s)

    def quiet_until(self, peer_id: str, local_t: int) -> int:
        """The end of the current window: the beacon holds until then, and a
        sighting span only extends the record its first tick opens or
        extends."""
        return (local_t // self.rotation_s + 1) * self.rotation_s

    def on_sighting(self, identifier: bytes, local_t: int, global_t: int,
                    ticks: int = 1) -> None:
        # a span's later ticks lie one tick apart, so each extends the same record
        last_seen = local_t + SCAN_TICK_S * (ticks - 1)
        rec = self._last_by_id.get(identifier)
        if rec is not None and local_t - rec.last_seen <= SIGHTING_MERGE_GAP_S:
            rec.last_seen = max(rec.last_seen, last_seen)
            return
        rec = ObservedRecord(identifier, local_t, last_seen)
        self.records.append(rec)
        self._last_by_id[identifier] = rec

    def make_report(self, tan: str) -> dict:
        self._require_registration()
        return report_infection(self.records, tan)
