"""Diffie-Hellman encounter tokens, hand-checkable and production-sized.

Two devices that stay near each other exchange ephemeral public keys over a
BLE connection and each derive the same secret token. Infection reports
carry only the token's hash plus an encrypted timestamp, so possessing the
raw token later proves the encounter really happened.
"""

from dctlab.crypto_core import (
    GroupParams,
    dh_token,
    hash_token,
    keygen,
    open_timestamp,
    seal_timestamp,
)
from dctlab.rng import SeedStream

# Tiny group first: p=23, g=5, small enough to check on paper.
toy = GroupParams.toy(23, 5)
print("== toy group p=23 g=5")
print("  5^4 mod 23 =", pow(5, 4, 23), " (public key of secret 4)")
print("  5^3 mod 23 =", pow(5, 3, 23), " (public key of secret 3)")
t_i = dh_token(4, toy.encode_element(10), toy)
t_j = dh_token(3, toy.encode_element(4), toy)
print("  token from (sk=4, pub=10):", toy.decode_element(t_i.secret))
print("  token from (sk=3, pub=4): ", toy.decode_element(t_j.secret))
print("  identical on both sides:", t_i.secret == t_j.secret)

# Production group: 32-byte X25519 keys. These do not fit in a BLE
# advertisement (31 bytes total), which is exactly why the scheme uses
# connections for the exchange.
prod = GroupParams.production()
stream = SeedStream(7, "demo2")
alice = keygen(prod, stream.child("alice"))
bob = keygen(prod, stream.child("bob"))
et_a = dh_token(alice.secret, bob.public, prod)
et_b = dh_token(bob.secret, alice.public, prod)
print("\n== x25519")
print("  public key size:", len(alice.public), "bytes (advertisement budget is 31)")
print("  tokens agree:", et_a.secret == et_b.secret)
print("  published form is the hash only:", hash_token(et_a).hex())

# The encounter timestamp travels sealed under a token-derived key; only the
# counterpart can open it, and tampering is detected.
sealed = seal_timestamp(et_a, 4242)
print("\n== sealed timestamp")
print("  counterpart opens:", open_timestamp(et_b, sealed))
other = dh_token(keygen(prod, stream.child("eve")).secret, bob.public, prod)
print("  anyone else gets: ", open_timestamp(other, sealed))
