"""Cryptographic primitives and key-schedule derivations shared by all schemes.

Three identifier schedules live here:

* centralized: ``id = HKDF(user_id, t_k)``, optionally keyed by a server
  master key with a per-identifier IV and authenticity tag (the pre-generated
  batch flavor);
* decentralized key-schedule: one 16-byte daily key from which the day's 144
  rotating identifiers are derived (10-minute slots, 24*6 = 144);
* encounter tokens: an ephemeral Diffie-Hellman shared secret per rotation
  window, established over a two-way exchange and never transmitted raw.
  Only its SHA-256 hash and metadata sealed under a token-derived AEAD key
  ever leave the device.

All derivations are pure functions of their inputs. HKDF is HKDF-SHA256
(RFC 5869); epoch indexes enter KDF inputs as 8-byte big-endian integers.
Schedules yield plain 16-byte ``bytes``; an identifier's validity window
follows from its index (window ``t_k`` of a rotation period ``r`` is
``[t_k * r, (t_k + 1) * r)``, slot ``s`` of day ``d`` starts at
``d * DAY_S + s * IDENTIFIER_SLOT_S``), so no derivation returns it.
"""

from __future__ import annotations

import base64
import hashlib
import struct
from dataclasses import dataclass, field
from functools import cached_property

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .errors import ConfigurationError, HandshakeError
from .rng import SeedStream
from .schema import Field, base64_text, hex_of

IDENTIFIER_LEN = 16          # BLE advertising leaves space for 128 bits only
IDENTIFIER_SLOT_S = 600      # 10-minute identifier slots
IDENTIFIERS_PER_DAY = 144    # 24 * 6
DAY_S = 86400


# ---------------------------------------------------------------------------
# HKDF-SHA256 (RFC 5869)
# ---------------------------------------------------------------------------

# HKDF is written as RFC 5869's two steps, so a key that derives several
# outputs is extracted once: a Tek keeps its pseudorandom key (PRK) for the
# 144 slot identifiers of its day, sealing a token's metadata extracts the
# token once for its two keys, and a MasterKey keeps its key state as the
# salt of every bluetrace identifier. Each object keeps the state of its own
# key only; nothing is cached across keys. Independent of library HKDFs on
# purpose: the test suite cross-checks these against one.

_BLOCK = 64     # SHA-256's block size, which HMAC pads its key to
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class HmacKey:
    """An HMAC-SHA256 key (RFC 2104) with its two padded blocks hashed once,
    so each mac() costs two copies of a SHA-256 state, not two re-keyings."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes):
        if len(key) > _BLOCK:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_BLOCK, b"\x00")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))

    def mac(self, msg: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(msg)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


_NO_SALT = HmacKey(b"\x00" * 32)     # RFC 5869: no salt is HashLen zero bytes


def hkdf_extract(ikm: bytes, salt: bytes | HmacKey | None) -> HmacKey:
    """The PRK of ikm under salt, keyed for hkdf_expand. An empty salt is no
    salt; a salt used for many keys may be passed as its HmacKey."""
    if not isinstance(salt, HmacKey):
        salt = HmacKey(salt) if salt else _NO_SALT
    return HmacKey(salt.mac(ikm))


def hkdf_expand(prk: HmacKey, info: bytes, length: int) -> bytes:
    """length bytes of output keying material for info."""
    if length > 255 * 32:
        raise ValueError("HKDF output too long")
    okm = block = b""
    counter = 1
    while len(okm) < length:
        block = prk.mac(block + info + bytes([counter]))
        okm += block
        counter += 1
    return okm[:length]


def hkdf_sha256(ikm: bytes, salt: bytes | None, info: bytes, length: int) -> bytes:
    """HMAC-based key derivation in one call, for a key that derives one output."""
    return hkdf_expand(hkdf_extract(ikm, salt), info, length)


EPOCH_LIMIT = 2**63     # encode_epoch takes a window index in [-EPOCH_LIMIT, EPOCH_LIMIT)


def encode_epoch(t_k: int) -> bytes:
    """Epoch index as it enters every KDF input: 8-byte big-endian, signed
    so that windows before the scenario origin (shifted clocks) encode too."""
    return struct.pack(">q", t_k)


# ---------------------------------------------------------------------------
# Group abstraction: toy multiplicative group mod p, or X25519
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 with the fixed base set."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


KIND_TOY = "toy-modp"
KIND_PRODUCTION = "production-curve"
PRODUCTION_KEY_LEN = 32      # 256-bit keys, the floor for standardized ECDH

_X25519_P = 2**255 - 19
_X25519_U_MASK = 2**255 - 1
# u-coordinates of the small-order points of Curve25519 and their
# non-canonical encodings, as libsodium lists them: 0, 1, the two points of
# order 8, p - 1, p and p + 1
X25519_SMALL_ORDER_U = frozenset((
    0, 1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
    _X25519_P - 1, _X25519_P, _X25519_P + 1,
))


@dataclass(frozen=True)
class GroupParams:
    """Where Diffie-Hellman happens: a hand-checkable toy group or X25519."""

    kind: str
    modulus: int | None = None
    generator: int | None = None

    @classmethod
    def toy(cls, p: int, g: int) -> "GroupParams":
        return cls(kind=KIND_TOY, modulus=p, generator=g)

    @classmethod
    def production(cls) -> "GroupParams":
        return cls(kind=KIND_PRODUCTION)

    def __post_init__(self) -> None:
        """A group is checked once, when it is built."""
        if self.kind == KIND_TOY:
            if self.modulus is None or self.generator is None:
                raise ConfigurationError("toy-modp group needs modulus and generator")
            if not _is_probable_prime(self.modulus):
                raise ConfigurationError(f"toy-modp modulus {self.modulus} is not prime")
            g, p = self.generator, self.modulus
            if not 1 < g < p or pow(g, 2, p) == 1:
                raise ConfigurationError("generator must generate a subgroup of order > 2")
        elif self.kind != KIND_PRODUCTION:
            raise ConfigurationError(f"unknown group kind {self.kind!r}")

    @property
    def element_size(self) -> int:
        """Byte length of a canonically serialized group element."""
        if self.kind == KIND_TOY:
            return (self.modulus.bit_length() + 7) // 8
        return PRODUCTION_KEY_LEN

    def encode_element(self, value: int) -> bytes:
        """Fixed-length big-endian encoding (toy group only)."""
        return value.to_bytes(self.element_size, "big")

    def decode_element(self, data: bytes) -> int:
        return int.from_bytes(data, "big")

    def validate_public(self, public: bytes) -> None:
        """Reject the identity element, low-order and out-of-group encodings."""
        if len(public) != self.element_size:
            raise HandshakeError(f"public key must be {self.element_size} bytes")
        if self.kind == KIND_TOY:
            value = self.decode_element(public)
            # 0/1 are not usable, p-1 has order 2: all make the shared
            # secret predictable regardless of our scalar.
            if value <= 1 or value >= self.modulus - 1:
                raise HandshakeError("public key is the identity or out of group")
        elif (int.from_bytes(public, "little") & _X25519_U_MASK) in X25519_SMALL_ORDER_U:
            # X25519 ignores the high bit; a small-order point gives the
            # all-zero shared secret whatever our scalar
            raise HandshakeError("public key is a small-order point")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EphemeralKeyPair:
    """Per-rotation-window DH key pair. The secret never leaves the device,
    and neither does loaded_secret: the secret in the form dh_token computes
    with, the scalar itself for the toy group and the X25519 key that keygen
    loaded for the production one, so a token costs no second load."""

    secret: int | bytes = field(repr=False)
    public: bytes
    loaded_secret: int | X25519PrivateKey = field(repr=False, compare=False)


@dataclass(frozen=True)
class Tek:
    """Daily exposure key; published wholesale on an infection report. hex
    is computed on first read and kept, as matching reads it per sync, and
    so is prk, which every slot identifier of the day expands."""

    bytes: bytes
    day_index: int

    @cached_property
    def hex(self) -> str:
        return self.bytes.hex()

    @cached_property
    def prk(self) -> HmacKey:
        return hkdf_extract(self.bytes, None)


@dataclass(frozen=True)
class EncounterToken:
    """Shared DH secret for one encounter window. Both parties derive
    bit-identical secret bytes; uploads carry only hash_token(self)."""

    secret: bytes = field(repr=False)
    window_index: int = 0


@dataclass(frozen=True)
class MasterKey:
    """Server-side secret for pre-generated identifier batches. It salts
    every identifier's HKDF, so its HMAC key state is built once, as salt."""

    bytes: bytes = field(repr=False)

    def __post_init__(self):
        if len(self.bytes) != 32:
            raise ConfigurationError("master key must be 32 bytes")

    @cached_property
    def salt(self) -> HmacKey:
        return HmacKey(self.bytes)


# ---------------------------------------------------------------------------
# Key generation and token agreement
# ---------------------------------------------------------------------------

def keygen(params: GroupParams, stream: SeedStream) -> EphemeralKeyPair:
    """Draw a fresh key pair for one rotation window from a seed stream."""
    if params.kind == KIND_TOY:
        while True:
            secret = 1 + stream.randrange(params.modulus - 2)
            value = pow(params.generator, secret, params.modulus)
            # resample scalars whose public key is the identity or the lone
            # order-2 element; peers reject those encodings
            if 1 < value < params.modulus - 1:
                break
        public = params.encode_element(value)
        return EphemeralKeyPair(secret=secret, public=public, loaded_secret=secret)
    secret = stream.take(PRODUCTION_KEY_LEN)
    private = X25519PrivateKey.from_private_bytes(secret)
    return EphemeralKeyPair(secret=secret, public=private.public_key().public_bytes_raw(),
                            loaded_secret=private)


def dh_token(my_secret: int | bytes | X25519PrivateKey, their_public: bytes,
             params: GroupParams, window_index: int = 0) -> EncounterToken:
    """Shared encounter token: their_public raised to my secret. Symmetric by
    construction; private keys are never exchanged. my_secret is a key pair's
    secret or its loaded_secret; both give the same token."""
    params.validate_public(their_public)
    if params.kind == KIND_TOY:
        shared = pow(params.decode_element(their_public), my_secret, params.modulus)
        return EncounterToken(secret=params.encode_element(shared), window_index=window_index)
    try:
        private = (my_secret if isinstance(my_secret, X25519PrivateKey)
                   else X25519PrivateKey.from_private_bytes(my_secret))
        shared = private.exchange(X25519PublicKey.from_public_bytes(their_public))
    except ValueError as exc:
        # the library reports an all-zero shared secret (identity/low-order
        # peer point) as ValueError
        raise HandshakeError(f"invalid peer public key: {exc}") from exc
    return EncounterToken(secret=shared, window_index=window_index)


# ---------------------------------------------------------------------------
# Beacon identifier schedules
# ---------------------------------------------------------------------------

def _as_bytes(value: str | bytes) -> bytes:
    return value.encode() if isinstance(value, str) else value


def derive_centralized_id(user_id: str | bytes, t_k: int) -> bytes:
    """id = HKDF(user_id, t_k), truncated to 16 bytes."""
    return hkdf_sha256(_as_bytes(user_id), None, encode_epoch(t_k), IDENTIFIER_LEN)


def derive_bluetrace_id(user_id: str | bytes, t_k: int, iv: bytes, auth_tag: bytes,
                        master: MasterKey) -> bytes:
    """Four-input HKDF(user_id || t_k || IV || auth_tag) keyed by the server
    master key. Only the server can generate or verify these."""
    ikm = _as_bytes(user_id) + encode_epoch(t_k) + iv + auth_tag
    return hkdf_expand(hkdf_extract(ikm, master.salt), b"", IDENTIFIER_LEN)


def derive_slot_identifier(tek: Tek, slot: int) -> bytes:
    """The identifier of one slot of tek's day: HKDF(tek, slot_index), with
    slot_index in 0..143. It depends on the key and the slot only, so a
    device derives just the identifier it is about to send. It only expands
    tek.prk, which the key extracts once."""
    return hkdf_expand(tek.prk, encode_epoch(slot), IDENTIFIER_LEN)


def derive_day_identifiers(tek: Tek) -> list[bytes]:
    """The day's full identifier schedule: the 144 slot identifiers of
    derive_slot_identifier, in slot order. Whoever holds a published key
    derives it, which links every identifier of the day: exactly what the
    linkage attack exploits."""
    return [derive_slot_identifier(tek, slot) for slot in range(IDENTIFIERS_PER_DAY)]


# ---------------------------------------------------------------------------
# Token hashing and sealed metadata
# ---------------------------------------------------------------------------

def hash_token(et: EncounterToken) -> bytes:
    """SHA-256 of the canonical token encoding; this is all an infected user
    ever publishes about an encounter."""
    return hashlib.sha256(et.secret).digest()


def _meta_keys(et: EncounterToken) -> tuple[bytes, bytes]:
    """The AEAD key and the nonce key, from one extract of the token."""
    prk = hkdf_extract(et.secret, None)
    return hkdf_expand(prk, b"meta", 32), hkdf_expand(prk, b"meta-nonce", 32)


def seal_metadata(et: EncounterToken, plaintext: bytes) -> bytes:
    """Authenticated encryption under a token-derived key. The nonce is a MAC
    of the plaintext, so sealing is deterministic and never reuses a nonce
    for distinct messages under the same token."""
    key, nonce_key = _meta_keys(et)
    nonce = HmacKey(nonce_key).mac(plaintext)[:12]
    return nonce + ChaCha20Poly1305(key).encrypt(nonce, plaintext, None)


def open_metadata(et: EncounterToken, sealed: bytes) -> bytes | None:
    """Inverse of seal_metadata. Returns None on authentication failure: a
    wrong token is a no-match signal, not an error."""
    if len(sealed) < 12 + 16:
        return None
    key = hkdf_sha256(et.secret, None, b"meta", 32)     # the nonce key is not needed
    try:
        return ChaCha20Poly1305(key).decrypt(sealed[:12], sealed[12:], None)
    except InvalidTag:
        return None


def seal_timestamp(et: EncounterToken, ts: int) -> bytes:
    """ts sealed as its 8-byte big-endian signed encoding (encode_epoch's)."""
    return seal_metadata(et, encode_epoch(ts))


def open_timestamp(et: EncounterToken, sealed: bytes) -> int | None:
    plain = open_metadata(et, sealed)
    if plain is None or len(plain) != 8:
        return None
    return struct.unpack(">q", plain)[0]


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def unb64(data: str) -> bytes:
    return base64.b64decode(data.encode("ascii"))


# a DH entry as uploaded, which may not carry published_at: the server stamps it,
# and DH_FEED_ENTRY, which DhClient.sync reads, names it. They live here, beside
# hash_token and b64, because the server does not import schemes.dh, which would
# lengthen its start-up
DH_ENTRY = {"hash_hex": Field(hex_of(64)), "meta_b64": Field(base64_text)}
DH_FEED_ENTRY = {**DH_ENTRY, "published_at": Field(int, None)}
