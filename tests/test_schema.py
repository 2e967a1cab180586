"""The field tables that replaced the hand-written upload and feed-entry
checks accept exactly the input those checks accepted."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctlab.crypto_core import DH_ENTRY, b64
from dctlab.errors import ConfigurationError, FieldError
from dctlab.schema import (Field, base64_text, builds, check, clock, hex_of, natural, passes,
                           tagged)
from dctlab.schemes.centralized import RECORD
from dctlab.schemes.tek import TEK_ENTRY
from dctlab.server import _BUNDLE


# -- reference: the entry checks the tables replaced ----------------------------------

_REF_HEX32 = re.compile(r"[0-9a-fA-F]{32}")
_REF_HEX64 = re.compile(r"[0-9a-fA-F]{64}")


def ref_tek_entry_error(entry):
    if not isinstance(entry, dict):
        return "TEK entry is not an object"
    tek_hex, day = entry.get("tek_hex"), entry.get("day")
    if not isinstance(tek_hex, str) or not _REF_HEX32.fullmatch(tek_hex):
        return "tek_hex must be 32 hex characters"
    if not isinstance(day, int) or isinstance(day, bool) or day < 0:
        return "day must be a non-negative integer"
    return None


def ref_dh_entry_error(entry):
    import base64
    hash_hex, meta = entry.get("hash_hex"), entry.get("meta_b64")
    if not isinstance(hash_hex, str) or not _REF_HEX64.fullmatch(hash_hex):
        return "hash_hex must be 64 hex characters"
    if isinstance(meta, str):
        try:
            base64.b64decode(meta, validate=True)
            return None
        except ValueError:
            pass
    return "meta_b64 must be a base64 string"


def ref_record_error(record):
    id_hex = record.get("id_hex")
    if not isinstance(id_hex, str) or not _REF_HEX32.fullmatch(id_hex):
        return "id_hex must be 32 hex characters"
    bad = [key for key in ("first_seen", "last_seen") if type(record.get(key)) is not int]
    return f"{bad[0]} must be an integer" if bad else None


REF_UPLOADS = {"tek": ("teks", ref_tek_entry_error), "dh": ("entries", ref_dh_entry_error),
               "centralized": ("records", ref_record_error)}


def ref_bundle_error(bundle):
    """Whether accept_upload refused a bundle before its scheme's bundle check
    or when spending its TAN, as it was: by the hand-written checks."""
    scheme = bundle.get("scheme") if isinstance(bundle, dict) else None
    if not isinstance(scheme, str) or scheme not in REF_UPLOADS:
        return "unknown scheme"
    key, entry_error = REF_UPLOADS[scheme]
    entries = bundle.get(key)
    if not isinstance(entries, list):
        return f"missing {key}"
    for entry in entries:
        problem = entry_error(entry) if isinstance(entry, dict) else "not an object"
        if problem is not None:
            return problem
    # a TAN that is not a string was refused when spent, as unknown
    return None if isinstance(bundle.get("tan"), str) else "unknown TAN"


# -- random entries near the edge of each rule ---------------------------------------

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(0, 1),
                 st.text(max_size=6), st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def next_to(text, chars):
    """text with one of chars put before or after it."""
    return st.tuples(text, st.sampled_from(chars), st.booleans()).map(
        lambda t: t[1] + t[0] if t[2] else t[0] + t[1])


def hex_like(n):
    """(n hex digits of either case, a near miss: one digit more or less, or
    a digit swapped for a character that is not one)."""
    near = next_to(st.text("0123456789abcdef", min_size=n - 1, max_size=n - 1),
                   ["g", "G", " ", "\n", "é", "٣", "0", ""])
    return st.text("0123456789abcdefABCDEF", min_size=n, max_size=n), st.one_of(near, JUNK)


BASE64 = st.binary(max_size=12).map(b64)
BASE64_LIKE = (BASE64, st.one_of(next_to(BASE64, ["-", "_", " ", "\n", "=", "é", "A"]),
                                 st.binary(min_size=1, max_size=12).map(lambda raw: b64(raw)[:-1]),
                                 JUNK))
INT_LIKE = (st.integers(0, 10**6), st.one_of(st.integers(-2, -1), st.booleans(), st.floats(0, 2),
                                             st.just("1"), JUNK))
FIELDS = {
    "tek": {"tek_hex": hex_like(32), "day": INT_LIKE},
    "dh": {"hash_hex": hex_like(64), "meta_b64": BASE64_LIKE},
    "centralized": {"id_hex": hex_like(32), "first_seen": INT_LIKE, "last_seen": INT_LIKE},
}


@st.composite
def entry(draw, fields):
    """Each field valid, near a miss or left out, or junk in place of the entry."""
    out = {}
    for name, (valid, near) in fields.items():
        how = draw(st.sampled_from(["valid", "valid", "valid", "near", "drop"]))
        if how != "drop":
            out[name] = draw(valid if how == "valid" else near)
    return out if draw(st.integers(0, 9)) else draw(JUNK)


@st.composite
def bundle(draw):
    scheme = draw(st.sampled_from(sorted(FIELDS)))
    key = REF_UPLOADS[scheme][0]
    out = {"scheme": draw(st.one_of(st.just(scheme), st.just(scheme), JUNK)),
           key: draw(st.one_of(st.lists(entry(FIELDS[scheme]), max_size=3), JUNK)),
           "tan": draw(st.one_of(st.text(max_size=12), st.text(max_size=12), JUNK))}
    return out if draw(st.integers(0, 9)) else draw(JUNK)


@settings(max_examples=400, deadline=None)
@given(tek=entry(FIELDS["tek"]), dh=entry(FIELDS["dh"]), record=entry(FIELDS["centralized"]))
def test_entry_tables_accept_what_the_hand_written_checks_did(tek, dh, record):
    assert passes(tek, TEK_ENTRY) == (ref_tek_entry_error(tek) is None)
    assert passes(dh, DH_ENTRY) == (isinstance(dh, dict) and ref_dh_entry_error(dh) is None)
    assert passes(record, RECORD) == (isinstance(record, dict) and ref_record_error(record) is None)


@settings(max_examples=300, deadline=None)
@given(bundle=bundle())
def test_bundle_rule_accepts_what_accept_upload_did(bundle):
    assert passes(bundle, _BUNDLE) == (ref_bundle_error(bundle) is None)


# -- the rules themselves ----------------------------------------------------------------

def test_hex_and_base64_rules_name_the_path():
    rule = {"h": Field(hex_of(4)), "b": Field(base64_text)}
    assert check({"h": "aB09", "b": "AA=="}, rule) == {"h": "aB09", "b": "AA=="}
    with pytest.raises(FieldError, match=r"^h: expected 4 hex digits, got 'aB0'$"):
        check({"h": "aB0", "b": "AA=="}, rule)
    with pytest.raises(FieldError, match=r"^x\.b: Incorrect padding$"):
        check({"h": "aB09", "b": "AAA"}, rule, ("x",))


def test_tagged_rule_picks_the_table_its_tag_names():
    rule = tagged("kind", {"n": {"v": Field(natural)}, "s": {"v": Field(str)}}, "kind")
    assert check({"kind": "n", "v": 3}, rule) == {"kind": "n", "v": 3}
    assert check({"kind": "s", "v": "x"}, rule) == {"kind": "s", "v": "x"}
    with pytest.raises(FieldError, match=r"^kind: unknown kind 'q'$"):
        check({"kind": "q", "v": 3}, rule)
    with pytest.raises(FieldError, match=r"^v: expected a string, got 3$"):
        check({"kind": "s", "v": 3}, rule)
    with pytest.raises(FieldError, match=r"^the input: expected an object, got 5$"):
        check(5, rule)


def test_builds_rule_raises_the_constructor_check_at_the_path():
    def build(pair):
        if pair[0] >= pair[1]:
            raise ConfigurationError("low must be below high")

    rule = [builds(("[low, high]", Field(natural), Field(natural)), build)]
    assert check([[1, 2]], rule) == [[1, 2]]
    with pytest.raises(FieldError, match=r"^\[1\]: low must be below high$"):
        check([[1, 2], [2, 2]], rule)
    with pytest.raises(FieldError, match=r"^\[0\]\[1\]: expected a non-negative integer"):
        check([[1, -2]], rule)


@pytest.mark.parametrize("value, problem", [
    ({"t": 2**60}, rf"t: expected a magnitude below 2\*\*60, got {2**60}"),
    ({"t": 0, "offset": -2**60}, rf"offset: expected a magnitude below 2\*\*60, got -{2**60}"),
    ({"t": 0, "offset": 10**30}, rf"offset: expected a magnitude below 2\*\*60, got {10**30}"),
    ({"t": -1}, r"t: expected a non-negative integer, got -1"),
    ({"t": 0, "offset": "5"}, r"offset: expected an integer, got '5'"),
])
def test_clock_rule_bounds_the_magnitude_below_2_to_the_60(value, problem):
    table = {"t": Field(clock(natural)), "offset": Field(clock(int), 0)}
    assert check({"t": 2**60 - 1, "offset": 1 - 2**60}, table) == {"t": 2**60 - 1,
                                                                  "offset": 1 - 2**60}
    with pytest.raises(FieldError, match=f"^{problem}$"):
        check(value, table)
