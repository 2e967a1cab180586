"""Beacon identifier schedules of the three scheme families.

Walk through how each scheme turns long-lived material into the 16-byte
rotating identifiers that actually go over the air.
"""

from dctlab.crypto_core import (
    DAY_S,
    IDENTIFIER_SLOT_S,
    MasterKey,
    Tek,
    derive_bluetrace_id,
    derive_centralized_id,
    derive_day_identifiers,
)
from dctlab.rng import SeedStream

stream = SeedStream(2024, "demo")

# Centralized, locally derived flavor: the identifier is a keyed digest of
# the server-issued pseudonym and the 15-minute window index. The server can
# re-derive it for every registered user, which is what makes server-side
# matching (and server-side surveillance) possible. An identifier carries no
# validity window of its own: window t_k covers [t_k * 900, (t_k + 1) * 900).
rotation_s = 900
print(f"== centralized identifiers (pseudonym u-1f2a, {rotation_s} s rotation)")
for t_k in range(4):
    ident = derive_centralized_id("u-1f2a", t_k)
    print(f"  window {t_k}: {ident.hex()}  valid [{t_k * rotation_s:5d}, {(t_k + 1) * rotation_s:5d})")

# Pre-generated flavor: the server derives batches under its master key with
# a per-identifier IV and authenticity tag, and phones just pull them.
master = MasterKey(stream.child("master").take(32))
iv, tag = stream.child("iv").take(16), stream.child("tag").take(8)
print("\n== server-generated identifier (master-keyed, four KDF inputs)")
print("  window 12:", derive_bluetrace_id("u-1f2a", 12, iv, tag, master).hex())

# Decentralized daily-key flavor: one 16-byte key per day, 144 identifiers
# derived from it (one per 10-minute slot). Publishing the key on infection
# publishes the entire day of identifiers at once. The schedule comes in slot
# order, so slot s of day d starts at d * DAY_S + s * IDENTIFIER_SLOT_S.
tek = Tek(stream.child("tek").take(16), day_index=0)
schedule = derive_day_identifiers(tek)
day_start = tek.day_index * DAY_S
print(f"\n== daily-key schedule: {len(schedule)} identifiers from one 16-byte key")
for slot, ident in enumerate(schedule[:3]):
    start = day_start + slot * IDENTIFIER_SLOT_S
    print(f"  slot [{start:5d}, {start + IDENTIFIER_SLOT_S:5d}): {ident.hex()}")
print("  ...")
start = day_start + (len(schedule) - 1) * IDENTIFIER_SLOT_S
print(f"  slot [{start}, {start + IDENTIFIER_SLOT_S}): {schedule[-1].hex()}")
print("\nAll of these derive from the same key, so a sniffer holding the")
print("published key links every one of them to the same person.")
