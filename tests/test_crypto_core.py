"""Crypto core tests. Expected values for derivations come from independent
oracles: the pyca/cryptography HKDF for key schedules, and naive repeated
multiplication for modular exponentiation."""

import hashlib
import hmac

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PublicKey
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from hypothesis import given, settings
from hypothesis import strategies as st

from dctlab.crypto_core import (
    IDENTIFIER_LEN,
    IDENTIFIERS_PER_DAY,
    X25519_SMALL_ORDER_U,
    EncounterToken,
    GroupParams,
    HmacKey,
    MasterKey,
    Tek,
    derive_bluetrace_id,
    derive_centralized_id,
    derive_day_identifiers,
    dh_token,
    encode_epoch,
    hash_token,
    hkdf_expand,
    hkdf_extract,
    hkdf_sha256,
    keygen,
    open_metadata,
    open_timestamp,
    seal_metadata,
    seal_timestamp,
)
from dctlab.errors import ConfigurationError, HandshakeError
from dctlab.rng import SeedStream


def hkdf_oracle(ikm: bytes, salt: bytes | None, info: bytes, length: int) -> bytes:
    """Independent HKDF-SHA256 reference (pyca/cryptography)."""
    return HKDF(algorithm=hashes.SHA256(), length=length, salt=salt, info=info).derive(ikm)


def modexp_oracle(base: int, exp: int, mod: int) -> int:
    """Naive square-free modular exponentiation by repeated multiplication."""
    acc = 1
    for _ in range(exp):
        acc = (acc * base) % mod
    return acc


TOY = GroupParams.toy(23, 5)
PROD = GroupParams.production()


# ---------------------------------------------------------------------------
# HKDF
# ---------------------------------------------------------------------------

def test_hkdf_matches_rfc5869_case_1():
    # RFC 5869 appendix A.1
    ikm = bytes.fromhex("0b" * 22)
    salt = bytes.fromhex("000102030405060708090a0b0c")
    info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
    okm = hkdf_sha256(ikm, salt, info, 42)
    assert okm == bytes.fromhex(
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865"
    )


@given(
    ikm=st.binary(min_size=1, max_size=64),
    salt=st.one_of(st.none(), st.binary(min_size=1, max_size=32)),
    info=st.binary(max_size=32),
    length=st.integers(min_value=1, max_value=96),
)
def test_hkdf_matches_library_oracle(ikm, salt, info, length):
    assert hkdf_sha256(ikm, salt, info, length) == hkdf_oracle(ikm, salt, info, length)


@given(
    ikm=st.binary(max_size=80),
    salt=st.one_of(st.none(), st.binary(max_size=130)),
    infos=st.lists(st.binary(max_size=40), min_size=1, max_size=3),
    length=st.integers(min_value=1, max_value=100),
)
def test_one_extract_expands_as_the_library_oracle_derives(ikm, salt, infos, length):
    # salts past the 64-byte HMAC block are hashed first, as RFC 2104 says
    prk = hkdf_extract(ikm, salt)
    salted = hkdf_extract(ikm, HmacKey(salt) if salt else None)
    for info in infos:
        expected = hkdf_oracle(ikm, salt, info, length)
        assert hkdf_expand(prk, info, length) == expected
        assert hkdf_expand(salted, info, length) == expected
        assert hkdf_sha256(ikm, salt, info, length) == expected


@given(ikm=st.binary(max_size=40), info=st.binary(max_size=16))
def test_an_empty_salt_is_no_salt(ikm, info):
    assert hkdf_sha256(ikm, b"", info, 32) == hkdf_sha256(ikm, None, info, 32)


def test_hkdf_refuses_more_than_255_blocks():
    assert len(hkdf_sha256(b"k", None, b"i", 255 * 32)) == 255 * 32
    with pytest.raises(ValueError, match="too long"):
        hkdf_sha256(b"k", None, b"i", 255 * 32 + 1)
    with pytest.raises(ValueError, match="too long"):
        hkdf_expand(hkdf_extract(b"k", None), b"i", 255 * 32 + 1)


@given(key=st.binary(max_size=130), msgs=st.lists(st.binary(max_size=200), max_size=3))
def test_an_hmac_key_macs_as_the_standard_library_does(key, msgs):
    hmac_key = HmacKey(key)
    for msg in msgs:      # each mac starts from the keyed state, whatever came before
        assert hmac_key.mac(msg) == hmac.new(key, msg, hashlib.sha256).digest()


def test_a_key_with_its_state_built_compares_hashes_and_reprs_as_a_fresh_one():
    tek, fresh_tek = Tek(bytes(range(16)), 3), Tek(bytes(range(16)), 3)
    derive_day_identifiers(tek)
    assert isinstance(tek.prk, HmacKey) and tek.hex == fresh_tek.bytes.hex()
    assert tek == fresh_tek and hash(tek) == hash(fresh_tek)
    assert repr(tek) == repr(fresh_tek)
    assert "prk" not in repr(tek) and "Hmac" not in repr(tek)
    master, fresh_master = MasterKey(b"\x42" * 32), MasterKey(b"\x42" * 32)
    derive_bluetrace_id("u7", 12, b"\x01" * 16, b"\x02" * 8, master)
    assert isinstance(master.salt, HmacKey)
    assert master == fresh_master and hash(master) == hash(fresh_master)
    assert repr(master) == repr(fresh_master) == "MasterKey()"


# ---------------------------------------------------------------------------
# Groups, keygen, encounter tokens
# ---------------------------------------------------------------------------

def test_toy_keygen_vectors():
    # 5^4 mod 23 and 5^3 mod 23, checked against the naive oracle
    assert modexp_oracle(5, 4, 23) == 4
    assert modexp_oracle(5, 3, 23) == 10
    kp4 = keygen_with_secret(TOY, 4)
    kp3 = keygen_with_secret(TOY, 3)
    assert TOY.decode_element(kp4.public) == 4
    assert TOY.decode_element(kp3.public) == 10


def keygen_with_secret(params: GroupParams, secret: int):
    """Drive keygen through seed streams until it lands on `secret`."""
    for i in range(10_000):
        stream = SeedStream(i, "probe")
        kp = keygen(params, stream)
        if kp.secret == secret:
            return kp
    pytest.fail(f"no seed produced secret {secret}")


def test_toy_dh_token_vector_and_symmetry():
    # ET = 10^4 mod 23 = 4^3 mod 23 = 18 per the naive oracle
    assert modexp_oracle(10, 4, 23) == 18
    assert modexp_oracle(4, 3, 23) == 18
    t1 = dh_token(4, TOY.encode_element(10), TOY)
    t2 = dh_token(3, TOY.encode_element(4), TOY)
    assert TOY.decode_element(t1.secret) == 18
    assert t1.secret == t2.secret


def test_keygen_deterministic_given_seed_stream():
    a = keygen(TOY, SeedStream(7, "kg"))
    b = keygen(TOY, SeedStream(7, "kg"))
    assert (a.secret, a.public) == (b.secret, b.public)
    c = keygen(PROD, SeedStream(7, "kg"))
    d = keygen(PROD, SeedStream(7, "kg"))
    assert (c.secret, c.public) == (d.secret, d.public)


def test_invalid_toy_params_rejected():
    with pytest.raises(ConfigurationError):
        GroupParams.toy(21, 5)  # not prime
    with pytest.raises(ConfigurationError):
        GroupParams.toy(23, 22)  # order 2


def test_identity_public_key_rejected():
    with pytest.raises(HandshakeError):
        dh_token(4, TOY.encode_element(1), TOY)
    with pytest.raises(HandshakeError):
        dh_token(4, TOY.encode_element(0), TOY)
    with pytest.raises(HandshakeError):
        dh_token(4, TOY.encode_element(22), TOY)  # order 2
    kp = keygen(PROD, SeedStream(1, "id"))
    for secret in (kp.secret, kp.loaded_secret):
        with pytest.raises(HandshakeError):
            dh_token(secret, b"\x00" * 32, PROD)
        with pytest.raises(HandshakeError):
            dh_token(secret, b"\x01" * 16, PROD)  # wrong length


def test_every_small_order_x25519_encoding_is_refused_as_the_library_refuses_it():
    # 0, 1, the two order-8 points, p - 1, p and p + 1; X25519 masks the high bit
    assert len(X25519_SMALL_ORDER_U) == 7
    private = keygen(PROD, SeedStream(3, "low-order")).loaded_secret
    for u in X25519_SMALL_ORDER_U:
        for high_bit in (0, 1 << 255):
            public = (u | high_bit).to_bytes(32, "little")
            with pytest.raises(ValueError):
                private.exchange(X25519PublicKey.from_public_bytes(public))
            with pytest.raises(HandshakeError, match="small-order"):
                PROD.validate_public(public)
            with pytest.raises(HandshakeError):
                dh_token(private, public, PROD)


@settings(max_examples=50)
@given(seed=st.integers(0, 2**32))
def test_a_generated_x25519_public_key_passes_validation(seed):
    PROD.validate_public(keygen(PROD, SeedStream(seed, "valid")).public)


@settings(max_examples=200)
@given(seed_a=st.integers(0, 2**32), seed_b=st.integers(0, 2**32))
def test_dh_symmetry_property_toy(seed_a, seed_b):
    a = keygen(TOY, SeedStream(seed_a, "a"))
    b = keygen(TOY, SeedStream(seed_b, "b"))
    assert dh_token(a.secret, b.public, TOY).secret == dh_token(b.secret, a.public, TOY).secret
    assert dh_token(a.loaded_secret, b.public, TOY) == dh_token(a.secret, b.public, TOY)


@settings(max_examples=50)
@given(seed_a=st.integers(0, 2**32), seed_b=st.integers(0, 2**32))
def test_dh_symmetry_property_production(seed_a, seed_b):
    a = keygen(PROD, SeedStream(seed_a, "a"))
    b = keygen(PROD, SeedStream(seed_b, "b"))
    assert dh_token(a.secret, b.public, PROD).secret == dh_token(b.secret, a.public, PROD).secret
    # the key keygen loaded gives the token its bytes give
    assert dh_token(a.loaded_secret, b.public, PROD) == dh_token(a.secret, b.public, PROD)


def test_production_public_keys_are_32_bytes():
    kp = keygen(PROD, SeedStream(99, "sz"))
    assert len(kp.public) == 32


# ---------------------------------------------------------------------------
# Identifier schedules
# ---------------------------------------------------------------------------

def test_centralized_id_matches_hkdf_oracle():
    ident = derive_centralized_id("u1", 0)
    assert ident == hkdf_oracle(b"u1", None, encode_epoch(0), IDENTIFIER_LEN)
    assert len(ident) == 16


def test_centralized_id_changes_with_window():
    assert derive_centralized_id("u1", 0) != derive_centralized_id("u1", 1)
    assert derive_centralized_id("u1", 5) == derive_centralized_id("u1", 5)


def test_bluetrace_id_matches_hkdf_oracle():
    master = MasterKey(b"\x42" * 32)
    iv, tag = b"\x01" * 16, b"\x02" * 8
    ident = derive_bluetrace_id("u7", 12, iv, tag, master)
    ikm = b"u7" + encode_epoch(12) + iv + tag
    assert ident == hkdf_oracle(ikm, master.bytes, b"", IDENTIFIER_LEN)


def test_bluetrace_id_sensitive_to_auth_tag_bit():
    master = MasterKey(b"\x42" * 32)
    iv = b"\x01" * 16
    a = derive_bluetrace_id("u7", 12, iv, b"\x02" * 8, master)
    b = derive_bluetrace_id("u7", 12, iv, b"\x03" + b"\x02" * 7, master)
    assert a != b
    again = derive_bluetrace_id("u7", 12, iv, b"\x02" * 8, master)
    assert a == again


def test_day_schedule_is_144_slots_matching_oracle():
    tek = Tek(bytes(range(16)), day_index=3)
    idents = derive_day_identifiers(tek)
    assert len(idents) == IDENTIFIERS_PER_DAY
    for slot, ident in enumerate(idents):
        assert len(ident) == 16
        assert ident == hkdf_oracle(tek.bytes, None, encode_epoch(slot), 16)


def test_day_schedules_of_distinct_teks_disjoint():
    a = set(derive_day_identifiers(Tek(SeedStream(1, "t").take(16), 0)))
    b = set(derive_day_identifiers(Tek(SeedStream(2, "t").take(16), 0)))
    assert len(a) == 144 and len(b) == 144
    assert not (a & b)


# ---------------------------------------------------------------------------
# Token hashing and sealed metadata
# ---------------------------------------------------------------------------

def test_hash_token_is_sha256_of_canonical_encoding():
    et = EncounterToken(secret=b"\xaa" * 32, window_index=4)
    assert hash_token(et) == hashlib.sha256(b"\xaa" * 32).digest()
    assert hash_token(et) == hash_token(EncounterToken(secret=b"\xaa" * 32, window_index=9))


def test_seal_open_roundtrip():
    et = EncounterToken(secret=b"\x11" * 32)
    blob = seal_metadata(et, b"hello")
    assert open_metadata(et, blob) == b"hello"


def test_open_with_wrong_token_fails_quietly():
    et1 = EncounterToken(secret=b"\x11" * 32)
    et2 = EncounterToken(secret=b"\x22" * 32)
    blob = seal_metadata(et1, b"hello")
    assert open_metadata(et2, blob) is None
    assert open_metadata(et2, b"") is None


def test_seal_timestamp_roundtrip():
    et = EncounterToken(secret=b"\x33" * 32)
    assert open_timestamp(et, seal_timestamp(et, 12345)) == 12345
    assert open_timestamp(et, seal_timestamp(et, -600)) == -600
    other = EncounterToken(secret=b"\x44" * 32)
    assert open_timestamp(other, seal_timestamp(et, 12345)) is None


def test_sealing_is_deterministic():
    et = EncounterToken(secret=b"\x55" * 32)
    assert seal_metadata(et, b"m") == seal_metadata(et, b"m")
    assert seal_metadata(et, b"m") != seal_metadata(et, b"n")
