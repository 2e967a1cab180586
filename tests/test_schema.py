"""The field tables that replaced the hand-written upload and feed-entry
checks accept exactly the input those checks accepted."""

import copy
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctlab.cli import STANDARD_SUITE, builtin_scenario
from dctlab.crypto_core import DH_ENTRY, DH_FEED_ENTRY, b64
from dctlab.errors import ConfigurationError, DctError, FieldError
from dctlab.rng import SeedStream
from dctlab.scenario import SCENARIO as SCENARIO_TABLE
from dctlab.scenario import load_scenario, run_scenario
from dctlab.schema import (_KINDS, REQUIRED, SHOWN_CHARS, Field, base64_text, builds, check,
                           clock, hex_of, natural, passes, path, shown, tagged)
from dctlab.schemes.centralized import RECORD, CentralRegistry
from dctlab.schemes.dh import PublishedDhIndex
from dctlab.schemes.tek import TEK_ENTRY, TEK_FEED_ENTRY, PublishedTekIndex
from dctlab.server import _BUNDLE, TracingServer, _handle_request


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


@st.composite
def valid_bundle(draw):
    """A bundle that passes, a DH one with or without its anonymized field."""
    scheme = draw(st.sampled_from(sorted(FIELDS)))
    entries = st.fixed_dictionaries({name: valid for name, (valid, _) in FIELDS[scheme].items()})
    out = {"scheme": scheme, REF_UPLOADS[scheme][0]: draw(st.lists(entries, max_size=3)),
           "tan": draw(st.text(max_size=12))}
    if scheme == "dh" and draw(st.booleans()):
        out["anonymized"] = draw(st.booleans())
    return out


@settings(max_examples=300, deadline=None)
@given(bundle=st.one_of(bundle(), valid_bundle()))
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


# -- a fault shows a value cut short ------------------------------------------------------

@pytest.mark.parametrize("value", ["x" * 98, list(range(26)), {"k": "v" * 90}, -2**60, None])
def test_a_value_whose_repr_is_short_is_shown_whole(value):
    assert len(repr(value)) <= SHOWN_CHARS
    assert shown(value) == repr(value)


@pytest.mark.parametrize("value", ["x" * 99, list(range(5000)), {"k": "v" * 500_000}])
def test_a_value_whose_repr_is_long_is_cut_and_marked(value):
    text = repr(value)
    assert shown(value) == f"{text[:SHOWN_CHARS]}... ({len(text)} characters)"


def test_a_fault_names_a_long_value_in_a_short_message():
    """check's type test, a predicate rule, a clock rule and the scenario
    rules for a device or run label declared twice each show a value as
    shown does: a short one as before, a long one cut."""
    table = {"run": Field(dict), "id": Field(hex_of(4), "abcd"), "t": Field(clock(int), 0)}
    for value, short in (({"run": [1]}, "run: expected an object, got [1]"),
                         ({"run": {}, "id": "xyz"}, "id: expected 4 hex digits, got 'xyz'")):
        with pytest.raises(FieldError) as short_fault:
            check(value, table)
        assert str(short_fault.value) == short
    for value in ({"run": list(range(100_000))}, {"run": {}, "id": "z" * 500_000},
                  {"run": {}, "t": 10**4000}):
        with pytest.raises(FieldError, match=r" characters\)$") as long_fault:
            check(value, table)
        assert len(str(long_fault.value)) < 200
    long = "d" * 500_000
    twice = {"label": long, "scheme": "tek", "devices": [long, long], "duration_s": 10}
    for runs, problem in (([list(range(5000))], r"expected an object, got \[0, 1, 2, .*"),
                          ([twice], r"device 'ddd.* \(500002 characters\) is declared twice"),
                          ([{**twice, "devices": ["a"]}] * 2,
                           r"'ddd.* \(500002 characters\) names an earlier run too")):
        with pytest.raises(FieldError, match=rf"^runs\[[01]\].*: {problem}$") as scenario_fault:
            run_scenario({"id": "x", "runs": runs})
        assert len(str(scenario_fault.value)) < 200


# -- check copies nothing it does not fill ----------------------------------------------

def copying_check(value, rule, at=(), roles=None):
    """The walker as it was: it copied every object and list it walked."""
    kind = type(rule)
    want = rule if kind is type else kind if kind is dict or kind is list else None
    if want is not None and type(value) is not want:
        raise FieldError(f"{path(at)}: expected {_KINDS[want]}, got {value!r}")
    if kind is dict:
        for name in value:
            if name not in rule:
                raise FieldError(f"{path((*at, name))}: unknown field")
        out = dict(value)
        for name, (sub, default) in rule.items():
            if (item := value.get(name)) is None and (item := default) is REQUIRED:
                raise FieldError(f"{path(at)} is missing the {name!r} field")
            out[name] = item if type(item) is sub or item is default and type(item) not in (
                dict, list) else copying_check(item, sub, (*at, name), roles)
        return out
    if kind is list:
        return [copying_check(item, rule[0], (*at, i), roles) for i, item in enumerate(value)]
    if kind is tuple:
        n, fields = len(value) if type(value) is list else -1, rule[1:]
        if not 0 <= n <= len(fields) or n < len(fields) and fields[n][1] is REQUIRED:
            raise FieldError(f"{path(at)}: expected {rule[0]}")
        return [copying_check(value[i], fields[i][0], (*at, i), roles) for i in range(n)] + [
            default for _, default in fields[n:]]
    return value if kind is type else rule(value, at, roles)


def checked(walker, value, rule):
    try:
        return walker(value, rule)
    except FieldError as exc:
        return ("refused", str(exc))


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(bundle(), valid_bundle()))
def test_a_bundle_checks_as_the_copying_walker_checked_it_and_is_not_copied(value):
    """The same bundle, or the same fault; the input is never changed, and a
    bundle is copied only when a DH one leaves anonymized to its default."""
    before = copy.deepcopy(value)
    got = checked(check, value, _BUNDLE)
    assert got == checked(copying_check, value, _BUNDLE)
    assert value == before
    if passes(value, _BUNDLE):
        key = REF_UPLOADS[value["scheme"]][0]
        assert (got is value) == (value["scheme"] != "dh" or "anonymized" in value)
        assert got[key] is value[key]


@pytest.mark.parametrize("sid", STANDARD_SUITE)
def test_a_bundled_scenario_checks_as_the_copying_walker_checked_it(sid):
    scenario = builtin_scenario(sid)
    before = copy.deepcopy(scenario)
    assert check(scenario, SCENARIO_TABLE) == copying_check(scenario, SCENARIO_TABLE)
    assert scenario == before


def test_a_filled_in_default_is_a_copy_and_a_whole_row_is_not():
    table = {"xs": Field([int], []), "inner": Field({"n": Field(int, 0)}, {})}
    first = check({}, table)
    first["xs"].append(1)
    first["inner"]["n"] = 5
    assert check({}, table) == {"xs": [], "inner": {"n": 0}}
    given = {"xs": [1], "inner": {}}
    got = check(given, table)
    assert got == {"xs": [1], "inner": {"n": 0}} and got["xs"] is given["xs"]
    assert given == {"xs": [1], "inner": {}}
    row = ("[a, b]", Field(int), Field(int, 0))
    whole = [1, 2]
    assert check(whole, row) is whole
    assert check([1], row) == [1, 0]


# -- every boundary table names every key it admits ------------------------------------

def refusal(call, *args, **kwargs):
    """The message of the typed error call(*args, **kwargs) raises, or None."""
    try:
        call(*args, **kwargs)
    except DctError as exc:
        return str(exc)
    return None


def tek_feed():
    index = PublishedTekIndex()

    def submit(entry):
        index.ingest_all([entry])
        return refusal(check, entry, TEK_FEED_ENTRY) if index.skipped else None
    return submit


def dh_feed():
    index = PublishedDhIndex()

    def submit(entry):
        index.ingest([entry])
        return refusal(check, entry, DH_FEED_ENTRY) if index.skipped else None
    return submit


def server_with_a_tan():
    server = TracingServer(SeedStream(1, "srv"), registry=CentralRegistry(SeedStream(5, "reg")))
    return server, server.issue_tan("a").value


def upload():
    server, tan = server_with_a_tan()
    # the bundle whose table refused a key has left its TAN to the one that follows
    return lambda bundle: refusal(server.accept_upload, dict(bundle, tan=tan))


def proof():
    server = server_with_a_tan()[0]
    return lambda value: refusal(server.verify_superspreader_proof, value)


def wire():
    server, tan = server_with_a_tan()

    def submit(req):
        if req["op"] == "upload":
            req["args"]["bundle"]["tan"] = tan
        resp = _handle_request(server, req)
        return None if resp["ok"] else resp["error"]
    return submit


def state_log():
    def submit(records):
        with tempfile.TemporaryDirectory() as state:
            Path(state, "state.jsonl").write_text(
                "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
            return refusal(TracingServer, SeedStream(1, "srv"), state_dir=state)
    return submit


def scenario_file():
    def submit(scenario):
        with tempfile.TemporaryDirectory() as out:
            path = Path(out, "scenario.json")
            path.write_text(json.dumps(scenario), encoding="utf-8")
            return refusal(load_scenario, path)
    return submit


TEK = {"tek_hex": "ab" * 16, "day": 1}
DH = {"hash_hex": "cd" * 32, "meta_b64": "AAAA"}
BUNDLES = {"tek": {"scheme": "tek", "teks": [TEK]},
           "dh": {"scheme": "dh", "entries": [DH], "anonymized": True},
           "centralized": {"scheme": "centralized",
                           "records": [{"id_hex": "ef" * 16, "first_seen": 0, "last_seen": 60}]}}
PROOF = {"tokens": [b64(b"\1" * 32)], "encoding": "b64"}
WIRE_ARGS = {"issue_tan": {"device_id": "d"}, "upload": {"bundle": BUNDLES["tek"]},
             "feed": {"scheme": "dh", "since_cursor": 0}, "superspreader_proof": {"proof": PROOF},
             "notify_poll": {"user_id": "u"},
             "register": {"device_id": "d", "phone": "+1555", "mode": "phone"}}
RUN = {"devices": [{"id": "a", "role": "device", "clock_offset_s": 5, "mode": "phone",
                    "phone": "+1555"}, {"id": "b"}, {"id": "s", "role": "sniffer"},
                   {"id": "r", "role": "replayer"}],
       "duration_s": 1000, "contact_trace": [["a", "b", 0, 600]],
       "infections": [{"device": "a", "report_at": 650}], "irk_linkable": False,
       "analysis": {"linkage": True, "colluding_sp": True, "social_graph": True,
                    "superspreader_check": ["a"]}}
SHARED = {"retention_days": 14, "superspreader_threshold": 3}


def run(**fields):
    """A run with every field, sharing no object with another run."""
    return copy.deepcopy(dict(RUN, **fields))


SCENARIO = {"id": "every_table", "description": "every field", "seed": 3, "runs": [
    run(label="c", scheme="centralized",
        scheme_config={"rotation_s": 900, **SHARED, "variant": "pepp_pt", "mode": "phone"},
        attack={"kind": "fake_claim", "claimant": "a", "at": 100, "source_sniffer": "s"}),
    run(label="t", scheme="tek",
        scheme_config={"rotation_s": 600, **SHARED, "validity_window_s": 60,
                       "strict_freshness": True},
        attack={"kind": "relay", "node_a": "a", "node_b": "b", "mode": "two_way_realtime",
                "window": [0, 600], "latency_s": 1, "tick_s": 30, "fanout_limit": 4}),
    run(label="d", scheme="dh",
        scheme_config={"rotation_s": 900, **SHARED, "min_encounter_s": 300, "epsilon_s": 60,
                       "anonymized_upload": True, "group": {"p": 23, "g": 5}},
        attack={"kind": "time_travel", "victim": "a", "replayer": "r", "offset_s": -60,
                "at_s": 100, "restore_at_s": 200}),
    run(label="d2", scheme="dh",
        attack={"kind": "fake_claim", "claimant": "a", "at": 100, "guesses": 4})]}
STATE = [{"op": "issue", "tan": "T" * 12, "issued_to": "a"},
         {"op": "spend", "tan": "T" * 12, "scheme": "tek", "entries": []},
         {"op": "tag", "hashes": ["ab" * 32]}]


def named(at):
    return lambda level: path((*at, *level))


def in_request(level):
    # a bundle is checked by accept_upload, from a path of its own
    return path(("bundle", *level[2:]) if level[:2] == ("args", "bundle") else ("request", *level))


def in_state_log(level):
    return f"state.jsonl line {level[0] + 1}: {path(('record', *level[1:]))}"


# per boundary: a valid value, with every field of every table in it; how to
# submit it to fresh state; and how the boundary renders the path of a level
BOUNDARIES = {
    **{f"{scheme} bundle": (bundle, upload, named(("bundle",)))
       for scheme, bundle in BUNDLES.items()},
    "tek feed entry": (dict(TEK, published_at=5), tek_feed, named(())),
    "dh feed entry": (dict(DH, published_at=5), dh_feed, named(())),
    "proof": (PROOF, proof, named(("proof",))),
    "state log": (STATE, state_log, in_state_log),
    **{f"{op} request": ({"op": op, "args": args}, wire, in_request)
       for op, args in WIRE_ARGS.items()},
    "scenario": (SCENARIO, scenario_file, named(())),
}


def tables_in(value, at=()):
    """The path of every object in value, value itself included."""
    if type(value) is dict:
        yield at
        items = value.items()
    else:
        items = enumerate(value) if type(value) is list else ()
    for key, item in items:
        yield from tables_in(item, (*at, key))


def at_path(value, at):
    for key in at:
        value = value[key]
    return value


# every key a table names: each sample holds every field of its tables
NAMED = {key for sample, _, _ in BOUNDARIES.values()
         for at in tables_in(sample) for key in at_path(sample, at)}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_boundary_refuses_a_key_its_table_does_not_name(data):
    """A drawn key at any level of a valid value is refused by the boundary's
    typed error as <path>.<key>: unknown field; the value without it is then
    accepted, by the same state (an upload by the same TAN)."""
    sample, fresh, render = BOUNDARIES[data.draw(st.sampled_from(sorted(BOUNDARIES)))]
    level = data.draw(st.sampled_from(list(tables_in(sample))))
    key = data.draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in NAMED))
    keyed = copy.deepcopy(sample)
    at_path(keyed, level)[key] = 1
    submit = fresh()
    problem = submit(keyed)
    assert problem is not None and f"{render((*level, key))}: unknown field" in problem, problem
    assert submit(copy.deepcopy(sample)) is None
