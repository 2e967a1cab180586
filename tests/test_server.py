import errno
import gc
import hashlib
import json
import os
import re
import sys
import tempfile
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dctlab.crypto_core import GroupParams, b64, hash_token, keygen, dh_token
from dctlab.errors import StateError, UploadRejected
from dctlab.rng import SeedStream
from dctlab.schemes.centralized import CentralRegistry, CentralizedClient
from dctlab.schemes.dh import encode_proof
from dctlab.server import SCHEMES, TracingServer, WireClient, _handle_request, serve_tcp


def make_server(seed=1, **kw):
    return TracingServer(SeedStream(seed, "srv"), **kw)


def tek_bundle(server, days, device="d1"):
    tan = server.issue_tan(device)
    return {"scheme": "tek", "tan": tan.value,
            "teks": [{"tek_hex": f"{d:032x}", "day": d} for d in days]}


@contextmanager
def serving(server):
    """serve_tcp for the length of a with block: yields the port, then shuts
    the endpoint down and closes it, ending the connections it still serves."""
    tcp, port = serve_tcp(server)
    try:
        yield port
    finally:
        tcp.shutdown()
        tcp.server_close()


def persisted(server):
    """What the state log holds: each TAN with its owner and spent flag, both
    feeds, the DH feed's hash set and the superspreader tags."""
    return ({v: (t.issued_to, t.used) for v, t in server.tans.items()},
            {s: list(f.entries) for s, f in server.feeds.items()},
            set(server.feeds["dh"].hashes), set(server.feeds["dh"].superspreader_tags))


NO_SPACE = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class HalfWriter:
    """A file whose write puts half its bytes on disk and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def tell(self):
        return self.fh.tell()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise NO_SPACE


@contextmanager
def failing_write(how):
    """Make the next file opened for appending fail: at its open ("open"), or
    after half of what is written reaches the disk ("partial"). Yields the
    list of the paths it failed, empty until one is."""
    real_open, failed = Path.open, []

    def fake_open(path, mode="r", *args, **kwargs):
        if "a" not in mode or failed:
            return real_open(path, mode, *args, **kwargs)
        failed.append(path)
        if how == "open":
            raise NO_SPACE
        return HalfWriter(real_open(path, mode, *args, **kwargs))

    with patch.object(Path, "open", fake_open):
        yield failed


# -- TANs ---------------------------------------------------------------------

def test_tans_distinct_and_single_use():
    server = make_server()
    t1, t2 = server.issue_tan("a"), server.issue_tan("a")
    assert t1.value != t2.value
    assert len(t1.value) == 12
    server.accept_upload({"scheme": "tek", "tan": t1.value, "teks": []})
    with pytest.raises(UploadRejected, match="already used"):
        server.accept_upload({"scheme": "tek", "tan": t1.value, "teks": []})
    with pytest.raises(UploadRejected, match="unknown TAN"):
        server.accept_upload({"scheme": "tek", "tan": "NOPE", "teks": []})


def test_tan_no_double_spend_under_concurrency():
    server = make_server()
    tan = server.issue_tan("a")

    def submit(i):
        try:
            server.accept_upload({"scheme": "tek", "tan": tan.value,
                                  "teks": [{"tek_hex": f"{i:032x}", "day": 0}]})
            return 1
        except UploadRejected:
            return 0

    with ThreadPoolExecutor(max_workers=16) as pool:
        outcomes = list(pool.map(submit, range(100)))
    assert sum(outcomes) == 1


# -- uploads and feeds -----------------------------------------------------------

def test_tek_upload_span_rule():
    server = make_server()
    server.accept_upload(tek_bundle(server, list(range(14))))
    assert len(server.feeds["tek"].entries) == 14
    with pytest.raises(UploadRejected, match="spans"):
        server.accept_upload(tek_bundle(server, [0, 19]))


def test_a_tek_upload_listing_a_day_twice_keeps_its_tan():
    # an honest client holds one key a day, so K keys of one day would only
    # make every client index derive 144 * K identifiers
    server = make_server()
    honest = tek_bundle(server, list(range(3, 17)))
    repeated = tek_bundle(server, [3, 4, 3])
    repeated["teks"][2]["tek_hex"] = "ab" * 16
    with pytest.raises(UploadRejected, match=r"teks\[2\]: day 3 is listed twice"):
        server.accept_upload(repeated)
    assert not server.tans[repeated["tan"]].used
    assert server.fetch_feed("tek") == ([], 0)
    assert server.accept_upload(honest)["published"] == 14
    assert server.tans[honest["tan"]].used


def test_malformed_bundles_rejected():
    server = make_server()
    tan = server.issue_tan("a")
    with pytest.raises(UploadRejected, match="unknown scheme"):
        server.accept_upload({"scheme": "nope", "tan": tan.value})
    with pytest.raises(UploadRejected, match="malformed"):
        server.accept_upload({"scheme": "tek", "tan": tan.value})


def test_malformed_tek_upload_keeps_its_tan(tmp_path):
    server = make_server(state_dir=tmp_path)
    tan = server.issue_tan("a")
    bad_teks = ([{"tek_hex": "zz"}], [{"tek_hex": "aa" * 16}],
                [{"tek_hex": "aa" * 16, "day": -1}], [{"tek_hex": "aa" * 16, "day": "2"}],
                ["aa" * 16], "aa" * 16)
    for teks in bad_teks:
        with pytest.raises(UploadRejected, match="malformed bundle"):
            server.accept_upload({"scheme": "tek", "tan": tan.value, "teks": teks})
    with pytest.raises(UploadRejected, match="spans"):
        server.accept_upload({"scheme": "tek", "tan": tan.value,
                              "teks": [{"tek_hex": "aa" * 16, "day": d} for d in (0, 19)]})
    assert not server.tans[tan.value].used
    assert server.fetch_feed("tek") == ([], 0)
    # the TAN is still unspent after a restart, and accepts the corrected bundle
    reborn = make_server(state_dir=tmp_path)
    assert not reborn.tans[tan.value].used
    ack = reborn.accept_upload({"scheme": "tek", "tan": tan.value,
                                "teks": [{"tek_hex": "aa" * 16, "day": 2}]})
    assert ack["published"] == 1 and reborn.tans[tan.value].used


def test_malformed_dh_upload_keeps_its_tan(tmp_path):
    server = make_server(state_dir=tmp_path)
    tan = server.issue_tan("a")
    good = {"hash_hex": "ab" * 32, "meta_b64": b64(b"x" * 40)}
    bad_entries = ([{}], [good, {"meta_b64": good["meta_b64"]}],
                   [{"hash_hex": "ab" * 31, "meta_b64": good["meta_b64"]}],
                   [{"hash_hex": "zz" * 32, "meta_b64": good["meta_b64"]}],
                   [{"hash_hex": good["hash_hex"]}],
                   [{"hash_hex": good["hash_hex"], "meta_b64": "not base64!"}],
                   [{"hash_hex": good["hash_hex"], "meta_b64": 40}],
                   ["ab" * 32], None)
    for entries in bad_entries:
        with pytest.raises(UploadRejected, match=r"malformed bundle"):
            server.accept_upload({"scheme": "dh", "tan": tan.value, "entries": entries})
    with pytest.raises(UploadRejected, match=r"entries\[1\] is missing the 'hash_hex' field"):
        server.accept_upload({"scheme": "dh", "tan": tan.value,
                              "entries": [good, {"meta_b64": good["meta_b64"]}]})
    for flag in ("no", 1):
        with pytest.raises(UploadRejected, match=r"^malformed bundle: bundle\.anonymized: "):
            server.accept_upload({"scheme": "dh", "tan": tan.value, "anonymized": flag,
                                  "entries": [good]})
    assert not server.tans[tan.value].used
    assert server.fetch_feed("dh") == ([], 0)
    reborn = make_server(state_dir=tmp_path)
    assert not reborn.tans[tan.value].used
    ack = reborn.accept_upload({"scheme": "dh", "tan": tan.value, "entries": [good]})
    assert ack["published"] == 1 and reborn.tans[tan.value].used


def test_malformed_centralized_upload_keeps_its_tan(tmp_path):
    registry = CentralRegistry(SeedStream(5, "reg"), variant="pepp_pt")
    server = make_server(state_dir=tmp_path, registry=registry)
    alice = CentralizedClient(registry)
    alice.device_id = "alice"
    alice.register()
    good = {"id_hex": alice.advertisement_identifier(100).hex(),
            "first_seen": 100, "last_seen": 400}
    tan = server.issue_tan("bob")
    bad_records = ([{}], [good, {"first_seen": 100, "last_seen": 400}],
                   [dict(good, id_hex="ab" * 15)], [dict(good, id_hex="zz" * 16)],
                   [{"id_hex": good["id_hex"], "first_seen": 100}],
                   [dict(good, first_seen="100")], [dict(good, last_seen=True)],
                   [dict(good, last_seen=400.0)], [good["id_hex"]], None, good,
                   [dict(good, first_seen=401)], [good, dict(good, last_seen=10**9)])
    for records in bad_records:
        with pytest.raises(UploadRejected, match="malformed bundle"):
            server.accept_upload({"scheme": "centralized", "tan": tan.value, "records": records})
    with pytest.raises(UploadRejected, match=r"records\[1\] is missing the 'id_hex' field"):
        server.accept_upload({"scheme": "centralized", "tan": tan.value,
                              "records": [good, {"first_seen": 100, "last_seen": 400}]})
    # a span longer than the retention period is no record a client keeps; the
    # bound is checked before the TAN is spent
    with pytest.raises(UploadRejected, match=r"records\[1\]: last_seen must lie within 14 days"):
        server.accept_upload({"scheme": "centralized", "tan": tan.value,
                              "records": [good, dict(good, last_seen=100 + 14 * 86400 + 1)]})
    assert not server.tans[tan.value].used
    assert server.match_history == [] and server.notifications == {}
    # a server without a registry rejects the bundle before spending the TAN too
    bare = make_server(state_dir=tmp_path / "bare")
    bare_tan = bare.issue_tan("bob")
    with pytest.raises(UploadRejected, match="registry"):
        bare.accept_upload({"scheme": "centralized", "tan": bare_tan.value, "records": [good]})
    assert not bare.tans[bare_tan.value].used
    # the TAN is still unspent after a restart, and accepts the corrected bundle
    reborn = make_server(state_dir=tmp_path, registry=registry)
    assert not reborn.tans[tan.value].used
    longest = dict(good, last_seen=100 + 14 * 86400)
    ack = reborn.accept_upload({"scheme": "centralized", "tan": tan.value,
                                "records": [good, longest]})
    assert ack["matched_users"] == 1 and reborn.tans[tan.value].used


def test_centralized_record_whose_windows_do_not_encode_keeps_its_tan():
    # an identifier is issued only for a window index that packs into 8 signed
    # bytes; a record whose windows t // rotation_s - 1 .. + 1 go past that is
    # rejected before its TAN is spent
    server = make_server(registry=CentralRegistry(SeedStream(5, "reg"), variant="pepp_pt"))
    with serving(server) as port:
        import socket as socketlib
        tans = [server.issue_tan("bob").value for _ in range(3)]
        lines = [{"op": "upload", "args": {"bundle": {
            "scheme": "centralized", "tan": tan,
            "records": [{"id_hex": "ab" * 16, "first_seen": t, "last_seen": t}]}}}
            for tan, t in zip(tans, (2**80, -2**80, 2**62))]
        lines.append({"op": "feed", "args": {"scheme": "tek"}})
        with socketlib.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall("\n".join(map(json.dumps, lines)).encode() + b"\n")
            fh = sock.makefile("r")
            responses = [json.loads(fh.readline()) for _ in lines]
    for resp in responses[:2]:
        assert resp == {"ok": False, "error": "malformed bundle: bundle.records[0]: "
                        "its window indexes must fit in 8 signed bytes"}
    assert [server.tans[tan].used for tan in tans] == [False, False, True]
    # a local time a scenario can reach still encodes
    assert responses[2]["ok"] is True and responses[2]["result"]["matched_users"] == 0
    assert responses[3] == {"ok": True, "result": {"entries": [], "cursor": 0}}


def test_server_is_freed_without_the_cycle_collector():
    # a server in a reference cycle would keep what its clock closes over (a
    # whole simulated world, in a scenario run) alive until a full collection
    gc.disable()
    try:
        server = make_server(registry=CentralRegistry(SeedStream(5, "reg")))
        alive = weakref.ref(server)
        del server
        assert alive() is None
    finally:
        gc.enable()


def test_feed_cursor_replay_identical():
    server = make_server()
    assert server.fetch_feed("tek") == ([], 0)
    server.accept_upload(tek_bundle(server, [1, 2]))
    page1, cursor = server.fetch_feed("tek", 0)
    assert len(page1) == 2 and cursor == 2
    again, cursor2 = server.fetch_feed("tek", 0)
    assert again == page1 and cursor2 == cursor
    server.accept_upload(tek_bundle(server, [3]))
    page2, cursor3 = server.fetch_feed("tek", cursor)
    assert [e["day"] for e in page2] == [3] and cursor3 == 3
    with pytest.raises(UploadRejected, match="unknown scheme"):
        server.fetch_feed("bogus")


def test_dh_feed_has_no_user_field_and_no_registry_path():
    server = make_server()  # no registry configured at all
    tan = server.issue_tan("a")
    server.accept_upload({"scheme": "dh", "tan": tan.value, "anonymized": False,
                          "entries": [{"hash_hex": "ab" * 32, "meta_b64": b64(b"x" * 40)}]})
    entries, _ = server.fetch_feed("dh")
    assert set(entries[0]) == {"hash_hex", "meta_b64", "published_at"}
    tek_entries, _ = server.fetch_feed("tek")
    assert tek_entries == []


def test_centralized_upload_requires_registry():
    server = make_server()
    tan = server.issue_tan("a")
    with pytest.raises(UploadRejected, match="registry"):
        server.accept_upload({"scheme": "centralized", "tan": tan.value, "records": []})


def test_centralized_upload_routes_to_match_not_feed():
    registry = CentralRegistry(SeedStream(5, "reg"), variant="pepp_pt")
    server = make_server(registry=registry)
    alice = CentralizedClient(registry)
    alice.device_id = "alice"
    alice.register()
    ident = alice.advertisement_identifier(100)

    tan = server.issue_tan("bob")
    ack = server.accept_upload({"scheme": "centralized", "tan": tan.value,
                                "records": [{"id_hex": ident.hex(),
                                             "first_seen": 100, "last_seen": 400}]})
    assert ack["matched_users"] == 1
    assert server.fetch_feed("centralized") == ([], 0)
    notes = server.notify_poll(alice.registration.user_id)
    assert len(notes) == 1
    assert notes[0]["channel"] == "app"
    assert server.notify_poll(alice.registration.user_id) == []


def test_superspreader_proof_verification():
    group = GroupParams.production()
    server = make_server()
    stream = SeedStream(31, "ss")
    tokens = []
    entries = []
    for i in range(4):
        a = keygen(group, stream.child(f"a{i}"))
        b = keygen(group, stream.child(f"b{i}"))
        token = dh_token(a.secret, b.public, group)
        tokens.append(token)
        entries.append({"hash_hex": hash_token(token).hex(), "meta_b64": b64(b"m" * 40)})
    tan = server.issue_tan("inf")
    server.accept_upload({"scheme": "dh", "tan": tan.value, "entries": entries})

    assert server.verify_superspreader_proof(encode_proof(tokens, group)) == 4
    assert server.feeds["dh"].superspreader_tags == {e["hash_hex"] for e in entries}
    # random blobs and the published hashes themselves are useless as proofs
    junk = {"tokens": [b64(bytes([i]) * 32) for i in range(10)], "encoding": "b64"}
    assert server.verify_superspreader_proof(junk) == 0
    hashes_as_tokens = {"tokens": [e["hash_hex"] for e in entries], "encoding": "hex"}
    assert server.verify_superspreader_proof(hashes_as_tokens) == 0
    assert server.verify_superspreader_proof({"tokens": [], "encoding": "b64"}) == 0


def test_superspreader_proof_reads_the_feed_hash_index_after_a_restart(tmp_path):
    # the proof counts against the hash set the feed keeps as entries are
    # appended; a replayed feed fills it the same way, and a replayed entry
    # that carries no usable hash is left out of it rather than breaking it
    group = GroupParams.production()
    server = make_server(state_dir=tmp_path)
    stream = SeedStream(32, "ss")
    tokens = [dh_token(keygen(group, stream.child(f"a{i}")).secret,
                       keygen(group, stream.child(f"b{i}")).public, group) for i in range(3)]
    entries = [{"hash_hex": hash_token(t).hex(), "meta_b64": b64(b"m" * 40)} for t in tokens]
    tan = server.issue_tan("inf")
    server.accept_upload({"scheme": "dh", "tan": tan.value, "entries": entries[:2]})
    assert server.feeds["dh"].hashes == {e["hash_hex"] for e in entries[:2]}
    assert server.feeds["tek"].hashes == set()

    proof = encode_proof(tokens, group)
    assert server.verify_superspreader_proof(proof) == 2
    log = tmp_path / "state.jsonl"
    tagged = log.read_bytes()
    assert server.verify_superspreader_proof(proof) == 2     # tagged once, counted again
    assert log.read_bytes() == tagged

    with log.open("a", encoding="utf-8") as fh:
        fh.write('{"op": "issue", "tan": "T", "issued_to": "x"}\n'
                 '{"op": "spend", "tan": "T", "scheme": "dh", '
                 '"entries": [[1], {"hash_hex": 7}, {"meta_b64": "AA=="}]}\n')
    appended = log.read_bytes()
    reborn = make_server(state_dir=tmp_path)
    assert reborn.feeds["dh"].hashes == server.feeds["dh"].hashes
    assert reborn.feeds["dh"].superspreader_tags == server.feeds["dh"].superspreader_tags
    assert reborn.verify_superspreader_proof(proof) == 2
    assert log.read_bytes() == appended


# -- upload property ----------------------------------------------------------------

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(0, 1),
                 st.text(max_size=6), st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def hex_text(n):
    return st.text("0123456789abcdefABCDEF", min_size=n, max_size=n)


def registry_server(**kw):
    """A server whose bluetrace registry has issued the first day of
    identifiers to two registered devices; returns it and those identifiers."""
    registry = CentralRegistry(SeedStream(5, "reg"))
    known = []
    for device in ("alice", "carol"):
        client = CentralizedClient(registry)
        client.device_id = device
        client.register()
        known += [client.advertisement_identifier(t).hex() for t in (0, 900, 1800)]
    return make_server(registry=registry, **kw), known


KNOWN_IDS = registry_server()[1]
ENTRY_FIELDS = {
    "tek": ("teks", {"tek_hex": hex_text(32), "day": st.integers(0, 40)}),
    "dh": ("entries", {"hash_hex": hex_text(64),
                       "meta_b64": st.binary(max_size=48).map(b64)}),
    "centralized": ("records", {"id_hex": st.one_of(hex_text(32), st.sampled_from(KNOWN_IDS)),
                                "first_seen": st.integers(-10**6, 10**6),
                                "last_seen": st.integers(-10**6, 10**6)}),
}


@st.composite
def upload_entry(draw, fields):
    """A valid entry, one with a field replaced by junk or left out, or junk."""
    entry = {name: draw(value) for name, value in fields.items()}
    fault = draw(st.sampled_from(["none", "none", "junk field", "missing field", "junk"]))
    if fault == "junk":
        return draw(JUNK)
    name = draw(st.sampled_from(sorted(fields)))
    if fault == "junk field":
        entry[name] = draw(JUNK)
    elif fault == "missing field":
        del entry[name]
    return entry


@st.composite
def upload(draw):
    """(bundle without its TAN, which TAN to send, in-process or over the wire)."""
    scheme = draw(st.sampled_from(SCHEMES))
    key, fields = ENTRY_FIELDS[scheme]
    bundle = {"scheme": scheme, key: draw(st.lists(upload_entry(fields), max_size=4))}
    fault = draw(st.sampled_from(["none", "none", "none", "scheme", "entries", "no entries"]))
    if fault == "scheme":
        bundle["scheme"] = draw(st.one_of(JUNK, st.sampled_from(["tek ", "DH"])))
    elif fault == "entries":
        bundle[key] = draw(JUNK)
    elif fault == "no entries":
        del bundle[key]
    if draw(st.booleans()):
        bundle["anonymized"] = draw(st.booleans())
    tan = draw(st.one_of(st.sampled_from(["fresh", "fresh", "spent", "unknown"]), JUNK))
    # whether the state write fails, and how
    fail = draw(st.sampled_from([None, None, "open", "partial"]))
    return bundle, tan, draw(st.sampled_from(["call", "wire"])), fail


@settings(max_examples=150, deadline=None)
@given(uploads=st.lists(upload(), min_size=1, max_size=5))
@example(uploads=[({"scheme": "tek", "teks": [{"tek_hex": "ab" * 16, "day": 1}]},
                   "fresh", "call", "partial")])
def test_random_uploads_spend_a_tan_exactly_when_acked(uploads):
    with tempfile.TemporaryDirectory() as state:
        server, _ = registry_server(state_dir=state)
        acked_tans = []
        for bundle, tan, via, fail in uploads:
            if tan == "fresh":
                tan = server.issue_tan("d").value
            elif tan == "spent":
                tan = acked_tans[-1] if acked_tans else "NOPE"
            elif tan == "unknown":
                tan = "NOPE"
            bundle = dict(bundle, tan=tan)
            unspent = {v for v, t in server.tans.items() if not t.used}
            published = {s: len(f.entries) for s, f in server.feeds.items()}
            matches = len(server.match_history)
            with failing_write(fail) if fail else nullcontext([]) as failed:
                if via == "call":
                    try:
                        server.accept_upload(bundle)
                        acked = True
                    except UploadRejected:
                        acked = False
                else:
                    resp = _handle_request(server, {"op": "upload", "args": {"bundle": bundle}})
                    acked = resp["ok"]
                    # a handler crash shows on the wire as "malformed request: <exception>"
                    assert acked or not resp["error"].startswith("malformed request"), resp
            assert not (failed and acked)       # an upload whose write failed is not acked
            spent = {v for v in unspent if server.tans[v].used}
            assert spent == ({tan} if acked else set())
            if acked:
                acked_tans.append(tan)
            else:
                assert {s: len(f.entries) for s, f in server.feeds.items()} == published
                assert len(server.match_history) == matches
        assert persisted(registry_server(state_dir=state)[0]) == persisted(server)


# -- persistence --------------------------------------------------------------------

def test_state_replay_after_restart(tmp_path):
    state = tmp_path / "state"
    server = make_server(state_dir=state)
    server.accept_upload(tek_bundle(server, [1, 2, 3]))
    tan = server.issue_tan("d2")

    reborn = make_server(state_dir=state)
    assert [e["day"] for e in reborn.feeds["tek"].entries] == [1, 2, 3]
    # unused TAN survives the restart and is still single-use
    reborn.accept_upload({"scheme": "tek", "tan": tan.value, "teks": []})
    with pytest.raises(UploadRejected):
        reborn.accept_upload({"scheme": "tek", "tan": tan.value, "teks": []})


def test_replay_drops_a_torn_final_line(tmp_path):
    state = tmp_path / "state"
    server = make_server(state_dir=state)
    server.accept_upload(tek_bundle(server, [1, 2]))
    written = list(server.feeds["tek"].entries)
    log = state / "state.jsonl"
    whole = log.read_bytes()
    with log.open("ab") as fh:
        fh.write(whole.splitlines(keepends=True)[-1][:20])   # half a line, no newline

    reborn = make_server(state_dir=state)
    assert reborn.feeds["tek"].entries == written
    # the torn bytes are gone, so later appends and restarts stay readable
    assert log.read_bytes() == whole
    reborn.accept_upload(tek_bundle(reborn, [3]))
    assert [e["day"] for e in make_server(state_dir=state).feeds["tek"].entries] == [1, 2, 3]


TOO_DEEP = b"[" * 100_000    # nested past the recursion limit, so json cannot parse it


def test_replay_drops_a_final_tans_line_nested_too_deeply(tmp_path):
    server = make_server(state_dir=tmp_path)
    tan = server.issue_tan("a")
    log = tmp_path / "state.jsonl"
    whole = log.read_bytes()
    with log.open("ab") as fh:
        fh.write(TOO_DEEP + b"\n")

    reborn = make_server(state_dir=tmp_path)
    assert list(reborn.tans) == [tan.value]
    assert log.read_bytes() == whole


def test_replay_rejects_a_tans_line_nested_too_deeply_before_the_last(tmp_path):
    server = make_server(state_dir=tmp_path)
    server.issue_tan("a")
    log = tmp_path / "state.jsonl"
    whole = log.read_bytes()
    log.write_bytes(TOO_DEEP + b"\n" + whole)
    with pytest.raises(StateError, match="^state.jsonl line 1 is not JSON"):
        make_server(state_dir=tmp_path)


def test_replay_keeps_a_final_line_missing_only_its_newline(tmp_path):
    state = tmp_path / "state"
    server = make_server(state_dir=state)
    server.accept_upload(tek_bundle(server, [1]))
    log = state / "state.jsonl"
    log.write_bytes(log.read_bytes().rstrip(b"\n"))

    reborn = make_server(state_dir=state)
    assert [e["day"] for e in reborn.feeds["tek"].entries] == [1]
    reborn.accept_upload(tek_bundle(reborn, [2]))
    assert [e["day"] for e in make_server(state_dir=state).feeds["tek"].entries] == [1, 2]


def test_replay_rejects_a_bad_line_before_the_last(tmp_path):
    state = tmp_path / "state"
    server = make_server(state_dir=state)
    server.accept_upload(tek_bundle(server, [1, 2]))
    log = state / "state.jsonl"
    first, second = log.read_bytes().splitlines(keepends=True)    # the issue, the spend
    log.write_bytes(first[:20] + b"\n" + second)
    with pytest.raises(StateError, match="^state.jsonl line 1 is not JSON"):
        make_server(state_dir=state)


@pytest.mark.parametrize("record, problem", [
    ({"op": "spend", "tan": "NOPE", "scheme": "tek", "entries": []},
     "state.jsonl line 2: record.tan: TAN 'NOPE' was never issued"),
    ([1], "state.jsonl line 2: record: expected an object, got [1]"),
    ({"op": "consume", "tan": "NOPE"}, "state.jsonl line 2: record.op: unknown op 'consume'"),
    ({"op": "tag"}, "state.jsonl line 2: record is missing the 'hashes' field"),
    ({"op": "tag", "hashes": ["ab" * 32, "ab"]},
     "state.jsonl line 2: record.hashes[1]: expected 64 hex digits, got 'ab'"),
])
def test_replay_rejects_a_state_record_that_breaks_its_table(tmp_path, record, problem):
    server = make_server(state_dir=tmp_path)
    server.issue_tan("a")
    with (tmp_path / "state.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    with pytest.raises(StateError, match=f"^{re.escape(problem)}"):
        make_server(state_dir=tmp_path)


def test_replay_checks_a_consume_against_the_tans_issued_before_it(tmp_path):
    server = make_server(state_dir=tmp_path)
    tan = server.issue_tan("a")
    server.accept_upload({"scheme": "tek", "tan": tan.value, "teks": []})
    assert make_server(state_dir=tmp_path).tans[tan.value].used
    log = tmp_path / "state.jsonl"
    issue, spend = log.read_text(encoding="utf-8").splitlines(keepends=True)
    log.write_text(spend + issue, encoding="utf-8")
    with pytest.raises(StateError, match=f"^state.jsonl line 1: record.tan: TAN '{tan.value}' "
                                         f"was never issued$"):
        make_server(state_dir=tmp_path)


@pytest.mark.parametrize("repeat, problem", [
    (0, "state.jsonl line 3: record.tan: TAN {!r} was issued before"),
    (1, "state.jsonl line 3: record.tan: TAN {!r} was spent before"),
])
def test_replay_refuses_a_tan_issued_or_spent_twice(tmp_path, repeat, problem):
    # a repeated spend would publish its entries twice, and a repeated issue
    # would make a spent TAN spendable again
    server = make_server(state_dir=tmp_path)
    server.accept_upload(tek_bundle(server, [1]))
    log = tmp_path / "state.jsonl"
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join(lines) + lines[repeat])
    tan = json.loads(lines[0])["tan"]
    with pytest.raises(StateError, match=f"^{re.escape(problem.format(tan))}$"):
        make_server(state_dir=tmp_path)


@pytest.mark.parametrize("issue, spend, problem", [
    # a log of records whose keys no table names, and a centralized spend with entries
    ({"extra": 1}, {"bogus": 2}, "state.jsonl line 1: record.extra: unknown field"),
    ({}, {"bogus": 2}, "state.jsonl line 2: record.bogus: unknown field"),
    ({}, {}, "state.jsonl line 2: record.entries: a centralized spend publishes nothing"),
])
def test_replay_refuses_an_unnamed_key_and_a_centralized_spend_with_entries(
        tmp_path, issue, spend, problem):
    lines = [{"op": "issue", "tan": "T" * 12, "issued_to": "a", **issue},
             {"op": "spend", "tan": "T" * 12, "scheme": "centralized",
              "entries": [{"id_hex": "ab"}], **spend}]
    (tmp_path / "state.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(StateError, match=f"^{re.escape(problem)}$"):
        make_server(state_dir=tmp_path)


def test_persisted_dh_state_contains_no_raw_tokens(tmp_path):
    group = GroupParams.production()
    stream = SeedStream(77, "leak")
    a = keygen(group, stream.child("a"))
    b = keygen(group, stream.child("b"))
    token = dh_token(a.secret, b.public, group)

    server = make_server(state_dir=tmp_path / "state")
    tan = server.issue_tan("inf")
    server.accept_upload({"scheme": "dh", "tan": tan.value,
                          "entries": [{"hash_hex": hash_token(token).hex(),
                                       "meta_b64": b64(b"sealed" * 8)}]})
    server.verify_superspreader_proof(encode_proof([token], group))

    blob = b"".join(p.read_bytes() for p in sorted((tmp_path / "state").glob("*.jsonl")))
    assert token.secret not in blob
    assert token.secret.hex().encode() not in blob
    assert b64(token.secret).encode() not in blob


@pytest.mark.parametrize("name", ["tans.jsonl", "feed_tek.jsonl", "feed_dh.jsonl", "tags.jsonl"])
def test_a_state_directory_of_the_earlier_format_is_refused(tmp_path, name):
    # one of the per-feed logs alone must not start a server that looks empty
    (tmp_path / name).write_text("", encoding="utf-8")
    with pytest.raises(StateError, match=re.escape(str(tmp_path / name))):
        make_server(state_dir=tmp_path)


def test_a_state_directory_that_is_a_file_is_refused(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    with pytest.raises(StateError, match=f"^cannot use {re.escape(str(taken))} as a state directory"):
        make_server(state_dir=taken)


def test_a_state_log_that_is_a_directory_is_refused(tmp_path):
    (tmp_path / "state.jsonl").mkdir()
    with pytest.raises(StateError, match=f"^cannot read {re.escape(str(tmp_path / 'state.jsonl'))}"):
        make_server(state_dir=tmp_path)


TOKENS = [bytes([i]) * 32 for i in range(6)]


def dh_entries(tokens):
    return [{"hash_hex": hashlib.sha256(t).hexdigest(), "meta_b64": b64(t[:8])} for t in tokens]


def proof_of(tokens):
    return {"tokens": [b64(t) for t in tokens], "encoding": "b64"}


def stateful_server(state_dir):
    """A server with a TEK upload, a DH upload and one tag in its state log;
    returns it and the identifiers its registry issued."""
    server, known = registry_server(state_dir=state_dir)
    server.accept_upload(tek_bundle(server, [1, 2]))
    server.accept_upload({"scheme": "dh", "tan": server.issue_tan("d2").value,
                          "entries": dh_entries(TOKENS[:4])})
    assert server.verify_superspreader_proof(proof_of(TOKENS[:1])) == 1
    return server, known


# each state-changing request, given a fresh TAN and the registry's identifiers
WRITES = {
    "issue_tan": lambda tan, known: ("issue_tan", {"device_id": "d9"}),
    "tek": lambda tan, known: ("upload", {"bundle": {
        "scheme": "tek", "tan": tan, "teks": [{"tek_hex": "ab" * 16, "day": 3},
                                              {"tek_hex": "cd" * 16, "day": 4}]}}),
    "dh": lambda tan, known: ("upload", {"bundle": {
        "scheme": "dh", "tan": tan, "entries": dh_entries(TOKENS[4:])}}),
    "dh anonymized": lambda tan, known: ("upload", {"bundle": {
        "scheme": "dh", "tan": tan, "anonymized": True, "entries": dh_entries(TOKENS[3:])}}),
    "centralized": lambda tan, known: ("upload", {"bundle": {
        "scheme": "centralized", "tan": tan,
        "records": [{"id_hex": known[0], "first_seen": 0, "last_seen": 300}]}}),
    "superspreader_proof": lambda tan, known: ("superspreader_proof",
                                               {"proof": proof_of(TOKENS[:3])}),
}


@pytest.mark.parametrize("how", ["open", "partial"])
@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_failed_state_write_changes_nothing(tmp_path, write, how):
    server, known = stateful_server(tmp_path)
    tan = server.issue_tan("d3").value
    op, args = WRITES[write](tan, known)
    before, log = persisted(server), (tmp_path / "state.jsonl").read_bytes()
    with failing_write(how) as failed:
        resp = _handle_request(server, {"op": op, "args": args})
    assert failed == [tmp_path / "state.jsonl"]
    # the answer is typed, and names no path of the server's
    assert resp == {"ok": False, "error": "state write failed: No space left on device"}
    assert persisted(server) == before
    assert server.match_history == [] and server.notifications == {}
    assert (tmp_path / "state.jsonl").read_bytes() == log
    assert persisted(registry_server(state_dir=tmp_path)[0]) == before
    # the same request, TAN included, succeeds once the disk takes it
    resp = _handle_request(server, {"op": op, "args": args})
    assert resp["ok"] is True, resp
    assert server.tans[tan].used is (op == "upload")
    assert persisted(server) != before
    assert persisted(registry_server(state_dir=tmp_path)[0]) == persisted(server)


def test_an_upload_whose_state_log_is_gone_keeps_its_tan(tmp_path):
    # the log's path turns into a directory between the TAN and its upload
    server = make_server(state_dir=tmp_path)
    bundle = tek_bundle(server, [1, 2])
    log = tmp_path / "state.jsonl"
    log.rename(tmp_path / "aside")
    log.mkdir()
    resp = _handle_request(server, {"op": "upload", "args": {"bundle": bundle}})
    assert resp == {"ok": False, "error": "state write failed: Is a directory"}
    assert not server.tans[bundle["tan"]].used and server.fetch_feed("tek") == ([], 0)
    log.rmdir()
    (tmp_path / "aside").rename(log)
    reborn = make_server(state_dir=tmp_path)
    assert not reborn.tans[bundle["tan"]].used and reborn.fetch_feed("tek") == ([], 0)
    assert reborn.accept_upload(bundle) == {"status": "ack", "published": 2}
    assert [e["day"] for e in make_server(state_dir=tmp_path).feeds["tek"].entries] == [1, 2]


def test_a_log_that_cannot_be_cut_back_takes_no_more_records(tmp_path):
    # torn bytes left at the end of the log would merge with the next record
    server = make_server(state_dir=tmp_path)
    bundle = tek_bundle(server, [1])
    log = tmp_path / "state.jsonl"
    whole = log.read_bytes()
    with failing_write("partial"), patch("os.truncate", side_effect=NO_SPACE):
        with pytest.raises(UploadRejected, match="^state write failed: No space left on device$"):
            server.accept_upload(bundle)
    torn = log.read_bytes()
    assert torn.startswith(whole) and not torn.endswith(b"\n")
    with pytest.raises(UploadRejected, match="could not be cut back$"):
        server.issue_tan("d2")
    assert log.read_bytes() == torn and not server.tans[bundle["tan"]].used
    # a restart drops the torn final line, and the TAN is spendable again
    reborn = make_server(state_dir=tmp_path)
    assert log.read_bytes() == whole
    assert reborn.accept_upload(bundle)["published"] == 1


def test_the_wire_connection_serves_on_after_a_failed_state_write(tmp_path):
    server = make_server(state_dir=tmp_path)
    bundle = tek_bundle(server, [1])
    with serving(server) as port:
        import socket as socketlib
        lines = [{"op": "upload", "args": {"bundle": bundle}},
                 {"op": "issue_tan", "args": {"device_id": "d2"}}]
        with failing_write("partial"), \
                socketlib.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall("\n".join(map(json.dumps, lines)).encode() + b"\n")
            fh = sock.makefile("r")
            responses = [json.loads(fh.readline()) for _ in lines]
    assert responses[0] == {"ok": False, "error": "state write failed: No space left on device"}
    assert responses[1]["ok"] is True
    assert persisted(make_server(state_dir=tmp_path)) == persisted(server)
    assert set(server.tans) == {bundle["tan"], responses[1]["result"]["tan"]}
    assert not server.tans[bundle["tan"]].used


def test_the_state_log_is_byte_stable(tmp_path):
    # the tag record lists the hashes in the proof's order, not a set's, so
    # the log is the same whatever order str hashes in
    server, known = registry_server(state_dir=tmp_path)
    server.clock = lambda: 4000
    server.accept_upload(tek_bundle(server, [1, 2, 3]))
    server.accept_upload({"scheme": "dh", "tan": server.issue_tan("d2").value,
                          "entries": dh_entries(TOKENS[:3])})
    server.accept_upload({"scheme": "dh", "tan": server.issue_tan("d3").value,
                          "anonymized": True, "entries": dh_entries(TOKENS[3:])})
    ack = server.accept_upload({"scheme": "centralized", "tan": server.issue_tan("d4").value,
                                "records": [{"id_hex": known[0], "first_seen": 0,
                                             "last_seen": 300}]})
    assert ack["matched_users"] == 1
    assert server.verify_superspreader_proof(proof_of(TOKENS[5:0:-1])) == 5
    server.issue_tan("d5")
    log = (tmp_path / "state.jsonl").read_bytes()
    records = [json.loads(line) for line in log.splitlines()]
    assert [r["op"] for r in records] == ["issue", "spend"] * 4 + ["tag", "issue"]
    assert records[-2]["hashes"] == [e["hash_hex"] for e in dh_entries(TOKENS[5:0:-1])]
    assert hashlib.sha256(log).hexdigest() == (
        "a39c4b5d969bfe869d03dbece76a296ab35083b8bd03075fcb26caf887211421")


state_write = st.one_of(
    st.tuples(st.just("issue"), st.sampled_from(["d1", "d2"])),
    st.tuples(st.just("tek"), st.lists(st.integers(0, 3), max_size=2)),
    st.tuples(st.just("dh"), st.lists(st.integers(0, 5), max_size=2)),
    st.tuples(st.just("proof"), st.lists(st.integers(0, 5), min_size=1, max_size=2)),
    # an upload under the last TAN issued, which may be spent: then it writes nothing
    st.tuples(st.just("again"), st.none()))


def records_state(records):
    """What a server holds after the records: persisted() worked out from the
    records themselves."""
    tans, feeds, tags = {}, {s: [] for s in SCHEMES}, set()
    for record in records:
        if record["op"] == "issue":
            tans[record["tan"]] = (record["issued_to"], False)
        elif record["op"] == "spend":
            tans[record["tan"]] = (tans[record["tan"]][0], True)
            feeds[record["scheme"]] += record["entries"]
        else:
            tags.update(record["hashes"])
    return tans, feeds, {e["hash_hex"] for e in feeds["dh"]}, tags


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(writes=st.lists(state_write, max_size=5))
def test_a_state_log_cut_at_any_byte_replays_exactly_its_whole_records(tmp_path, writes):
    """A crash may cut the log anywhere. A server restarted on a cut log holds
    exactly the records whose line survived through its closing brace, spent
    TANs included, and leaves the log holding just those lines; since only
    the last line can be torn, no cut raises, StateError included."""
    root = Path(tempfile.mkdtemp(dir=tmp_path))     # tmp_path is shared by the examples
    state, cut_dir = root / "state", root / "cut"
    server, tan = make_server(state_dir=state), None
    for kind, arg in [("issue", "d0"), *writes]:     # the first write makes the log
        try:
            if kind == "issue":
                tan = server.issue_tan(arg).value
            elif kind == "tek":
                server.accept_upload(tek_bundle(server, arg))
            elif kind == "dh":
                tan = server.issue_tan("d3").value
                server.accept_upload({"scheme": "dh", "tan": tan,
                                      "entries": dh_entries([TOKENS[i] for i in arg])})
            elif kind == "proof":
                server.verify_superspreader_proof(proof_of([TOKENS[i] for i in arg]))
            elif tan is not None:
                server.accept_upload({"scheme": "tek", "tan": tan, "teks": []})
        except UploadRejected:
            pass
    whole = (state / "state.jsonl").read_bytes()
    lines = whole.splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    assert records_state(records) == persisted(server)
    ends = [len(b"".join(lines[:i + 1])) for i in range(len(lines))]   # past each newline
    cut_dir.mkdir()
    for cut in range(len(whole) + 1):
        (cut_dir / "state.jsonl").write_bytes(whole[:cut])
        kept = sum(end - 1 <= cut for end in ends)      # lines whole through "}"
        reborn = make_server(state_dir=cut_dir)
        assert persisted(reborn) == records_state(records[:kept]), cut
        assert (cut_dir / "state.jsonl").read_bytes() == b"".join(lines[:kept]), cut


# -- wire protocol ---------------------------------------------------------------------

def test_wire_protocol_roundtrip():
    registry = CentralRegistry(SeedStream(9, "reg"), variant="pepp_pt")
    server = make_server(registry=registry)
    with serving(server) as port, WireClient("127.0.0.1", port) as client:
        reg = client.call("register", device_id="devX", mode="phone", phone="+1555")
        assert reg["user_id"].startswith("u-")
        tan = client.call("issue_tan", device_id="devX")["tan"]
        ack = client.call("upload", bundle={"scheme": "tek", "tan": tan,
                                            "teks": [{"tek_hex": "aa" * 16, "day": 2}]})
        assert ack["published"] == 1
        feed = client.call("feed", scheme="tek", since_cursor=0)
        assert feed["cursor"] == 1
        assert feed["entries"][0]["tek_hex"] == "aa" * 16
        with pytest.raises(UploadRejected, match="already used"):
            client.call("upload", bundle={"scheme": "tek", "tan": tan, "teks": []})
        assert client.call("superspreader_proof",
                           proof={"tokens": [], "encoding": "b64"})["accepted"] == 0
        assert client.call("notify_poll", user_id=reg["user_id"])["notifications"] == []


def test_wire_protocol_bad_json_line():
    server = make_server()
    with serving(server) as port:
        import socket as socketlib
        with socketlib.create_connection(("127.0.0.1", port), timeout=10) as sock:
            # not JSON, not UTF-8 inside a string, and nested past the recursion
            # limit: each is answered, and the connection still serves a request
            sock.sendall(b"this is not json\n" + b'"\xff"\n' + b"[" * 100_000 + b"\n"
                         + json.dumps({"op": "feed", "args": {"scheme": "tek"}}).encode() + b"\n")
            fh = sock.makefile("r")
            bad = [json.loads(fh.readline()) for _ in range(3)]
            good = json.loads(fh.readline())
        for resp in bad:
            assert resp["ok"] is False and resp["error"].startswith("bad json: ")
        assert good["ok"] is True


def test_a_wire_answer_names_a_long_value_in_under_1_kb():
    """An error names the value it refuses by a repr cut to about 100
    characters: a 500 KB scheme, op, bundle scheme or arg is answered in
    under 1 KB, and a short value as before."""
    server = make_server()
    long = "x" * 500_000
    requests = [{"op": "feed", "args": {"scheme": long}},
                {"op": long, "args": {}},
                {"op": "upload", "args": {"bundle": {"scheme": long, "tan": "T", "teks": []}}},
                {"op": "issue_tan", "args": {"device_id": [0] * 250_000}},
                {"op": "feed", "args": {"scheme": "nope"}},
                {"op": "nope"}]
    with serving(server) as port:
        import socket as socketlib
        with socketlib.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(b"".join(json.dumps(req).encode() + b"\n" for req in requests))
            fh = sock.makefile("rb")
            answers = [fh.readline() for _ in requests]
    assert all(len(line) < 1024 for line in answers)
    errors = [json.loads(line)["error"] for line in answers]
    assert errors[0].startswith("unknown scheme 'xxx") and errors[0].endswith(
        "x... (500002 characters)")
    assert errors[1].startswith("malformed request: request.op: unknown op 'xxx")
    assert errors[2].startswith("malformed bundle: bundle.scheme: unknown scheme 'xxx")
    assert errors[3].startswith("malformed request: request.args.device_id: "
                                "expected a string, got [0, 0,")
    assert errors[4:] == ["unknown scheme 'nope'",
                          "malformed request: request.op: unknown op 'nope'"]


def test_wire_answers_a_line_too_long_and_closes_only_that_connection(monkeypatch):
    from dctlab import server as server_mod
    monkeypatch.setattr(server_mod, "MAX_LINE_BYTES", 64)
    server = make_server()
    with serving(server) as port:
        import socket as socketlib
        feed = json.dumps({"op": "feed", "args": {"scheme": "tek"}}).encode()
        at_limit = feed.ljust(63) + b"\n"          # 64 bytes, its newline included
        with socketlib.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(at_limit + feed.ljust(64) + b"\n" + feed + b"\n")
            fh = sock.makefile("r")
            served, refused = json.loads(fh.readline()), json.loads(fh.readline())
            assert fh.readline() == ""             # closed: the last request is not read
        assert served["ok"] is True
        assert refused == {"ok": False, "error": "line too long"}
        # a line with no newline is cut off at the limit too
        with socketlib.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(b"x" * 1000)
            fh = sock.makefile("r")
            assert json.loads(fh.readline()) == {"ok": False, "error": "line too long"}
            assert fh.readline() == ""
        with WireClient("127.0.0.1", port) as client:
            assert client.call("issue_tan", device_id="d1")["tan"] in server.tans


def test_a_line_too_long_drops_the_wire_clients_connection(monkeypatch):
    # the server closes the connection after this answer; the client's next
    # call is served on a fresh one, and the refused line was never served
    from dctlab import server as server_mod
    monkeypatch.setattr(server_mod, "MAX_LINE_BYTES", 200)
    server = make_server()
    with serving(server) as port, WireClient("127.0.0.1", port) as client:
        assert client.call("issue_tan", device_id="d1")["tan"] in server.tans
        with pytest.raises(UploadRejected, match="^line too long$"):
            client.call("issue_tan", device_id="x" * 300)
        assert client.call("issue_tan", device_id="d2")["tan"] in server.tans
    assert sorted(t.issued_to for t in server.tans.values()) == ["d1", "d2"]


def test_a_line_far_too_long_is_refused_though_the_server_closes_mid_send(monkeypatch):
    # the server answers after MAX_LINE_BYTES + 1 bytes and closes while the
    # client is still sending: the client reads that answer back, not a broken
    # pipe, and its next call is served on a fresh connection
    from dctlab import server as server_mod
    monkeypatch.setattr(server_mod, "MAX_LINE_BYTES", 200)
    server = make_server()
    with serving(server) as port, WireClient("127.0.0.1", port) as client:
        for device in ("d1", "d2", "d3"):
            with pytest.raises(UploadRejected, match="^line too long$"):
                client.call("issue_tan", device_id="x" * (4 << 20))
            assert client.call("issue_tan", device_id=device)["tan"] in server.tans
    assert sorted(t.issued_to for t in server.tans.values()) == ["d1", "d2", "d3"]


def test_a_wire_client_keeps_one_connection_for_its_calls():
    from dctlab import server as server_mod
    accepted = []
    process_request = server_mod._WireServer.process_request

    def counting(tcp, request, client_address):
        accepted.append(client_address)
        process_request(tcp, request, client_address)

    server = make_server()
    with patch.object(server_mod._WireServer, "process_request", counting), \
            serving(server) as port:
        with WireClient("127.0.0.1", port) as client:
            tans = [client.call("issue_tan", device_id="d1")["tan"] for _ in range(5)]
            assert client.call("feed", scheme="tek", since_cursor=0)["cursor"] == 0
        assert len(accepted) == 1
        # a closed client connects afresh on its next call
        try:
            tans.append(client.call("issue_tan", device_id="d1")["tan"])
        finally:
            client.close()
        assert len(accepted) == 2
    assert sorted(tans) == sorted(server.tans)


def test_threads_that_share_a_wire_client_each_get_their_own_answer():
    server = make_server()
    devices = [f"d{i}" for i in range(4)]          # more threads than cores

    def issue(client, device):
        return [client.call("issue_tan", device_id=device)["tan"] for _ in range(40)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with serving(server) as port, WireClient("127.0.0.1", port) as client, \
                ThreadPoolExecutor(len(devices)) as pool:
            futures = {d: pool.submit(issue, client, d) for d in devices}
            got = {d: f.result(timeout=60) for d, f in futures.items()}
    finally:
        sys.setswitchinterval(interval)
    for device, tans in got.items():
        assert [server.tans[t].issued_to for t in tans] == [device] * 40
    assert len(server.tans) == 40 * len(devices)


def test_closing_the_server_ends_the_connections_it_serves():
    import socket as socketlib
    server = make_server()
    issue = json.dumps({"op": "issue_tan", "args": {"device_id": "d1"}}).encode() + b"\n"
    tcp, port = serve_tcp(server)
    try:
        with socketlib.create_connection(("127.0.0.1", port), timeout=10) as sock, \
                sock.makefile("rb") as fh, WireClient("127.0.0.1", port) as client:
            sock.sendall(issue)
            assert json.loads(fh.readline())["ok"] is True
            assert client.call("issue_tan", device_id="d2")["tan"] in server.tans
            issued = dict(server.tans)
            tcp.shutdown()
            tcp.server_close()
            assert fh.readline() == b""             # EOF: the server ended it
            try:
                sock.sendall(issue)
            except OSError:
                pass                                # or the client saw it end first
            with pytest.raises(OSError):
                client.call("issue_tan", device_id="d3")
    finally:
        tcp.shutdown()
        tcp.server_close()
    assert server.tans == issued


NOT_OBJECTS = ([1], "x", None, 3, {"op": "feed", "args": [1]}, {"op": "feed", "args": "x"},
               {"op": "superspreader_proof", "args": {"proof": [1]}})


def test_wire_request_that_is_not_an_object_is_answered():
    server = make_server()
    for req in NOT_OBJECTS:
        resp = _handle_request(server, req)
        assert resp["ok"] is False and "malformed" in resp["error"]
    assert _handle_request(server, {"op": "feed", "args": {"scheme": "tek"}})["ok"] is True


@pytest.mark.parametrize("req, path", [
    ({"op": "feed", "args": {"scheme": "tek", "cursor": 5}}, "request.args.cursor"),
    ({"op": "feed", "args": {"scheme": "tek"}, "id": 7}, "request.id"),
    ({"op": "issue_tan", "args": {"device_id": "d1", "device": "d2"}}, "request.args.device"),
])
def test_wire_refuses_a_key_its_tables_do_not_name(req, path):
    server = make_server()
    server.feeds["tek"].append({"tek_hex": "aa" * 16, "day": 0, "published_at": 0})
    assert _handle_request(server, req) == {
        "ok": False, "error": f"malformed request: {path}: unknown field"}
    assert server.tans == {}


def test_wire_answers_every_bad_bundle_as_a_malformed_bundle():
    server = make_server()
    tan = server.issue_tan("a")
    for args in ({"bundle": 5}, {"bundle": None}, {}, {"bundle": {"scheme": "tek", "tan": tan.value,
                                                               "teks": [{"day": 0}]}}):
        resp = _handle_request(server, {"op": "upload", "args": args})
        assert resp["ok"] is False and resp["error"].startswith("malformed bundle: bundle"), resp
    assert not server.tans[tan.value].used


@pytest.mark.parametrize("scheme, entry, key", [
    ("tek", {"tek_hex": "ab" * 16, "day": 1}, "published_at"),
    ("tek", {"tek_hex": "ab" * 16, "day": 1}, "owner"),
    ("dh", {"hash_hex": "cd" * 32, "meta_b64": "AAAA"}, "published_at"),
])
def test_an_upload_entry_with_a_key_its_table_does_not_name_keeps_its_tan(scheme, entry, key):
    # published_at is the server's stamp, and an upload may not bring its own
    server = make_server()
    tan = server.issue_tan("a").value
    field = {"tek": "teks", "dh": "entries"}[scheme]
    bundle = {"scheme": scheme, "tan": tan, field: [entry, dict(entry, **{key: 5})]}
    resp = _handle_request(server, {"op": "upload", "args": {"bundle": bundle}})
    assert resp == {"ok": False,
                    "error": f"malformed bundle: bundle.{field}[1].{key}: unknown field"}
    assert not server.tans[tan].used and server.fetch_feed(scheme) == ([], 0)
    # two entries alike are accepted, but a TEK bundle lists each day once
    bundle[field] = [entry, dict(entry, day=2) if scheme == "tek" else entry]
    resp = _handle_request(server, {"op": "upload", "args": {"bundle": bundle}})
    assert resp == {"ok": True, "result": {"status": "ack", "published": 2}}
    assert server.tans[tan].used
    assert [e["published_at"] for e in server.fetch_feed(scheme)[0]] == [0, 0]


def test_wire_connection_survives_a_request_that_is_not_an_object():
    server = make_server()
    with serving(server) as port:
        import socket as socketlib
        with socketlib.create_connection(("127.0.0.1", port), timeout=10) as sock:
            lines = [json.dumps(req) for req in NOT_OBJECTS]
            lines.append(json.dumps({"op": "issue_tan", "args": {"device_id": "d1"}}))
            sock.sendall("\n".join(lines).encode() + b"\n")
            fh = sock.makefile("r")
            responses = [json.loads(fh.readline()) for _ in lines]
        assert all(r["ok"] is False for r in responses[:-1])
        assert responses[-1]["ok"] is True and responses[-1]["result"]["tan"] in server.tans


def test_wire_proof_with_a_token_that_is_not_a_string_is_answered():
    server = make_server()
    with serving(server) as port:
        import socket as socketlib
        with socketlib.create_connection(("127.0.0.1", port), timeout=10) as sock:
            lines = [{"op": "superspreader_proof", "args": {"proof": {"tokens": [5]}}},
                     {"op": "superspreader_proof", "args": {"proof": {"tokens": ["zz"],
                                                                      "encoding": "hex"}}},
                     {"op": "issue_tan", "args": {"device_id": "d1"}}]
            sock.sendall("\n".join(map(json.dumps, lines)).encode() + b"\n")
            fh = sock.makefile("r")
            responses = [json.loads(fh.readline()) for _ in lines]
        assert responses[0] == {"ok": False, "error": "malformed request: "
                                "request.args.proof.tokens[0]: expected a string, got 5"}
        assert responses[1]["ok"] is False and "does not decode" in responses[1]["error"]
        assert responses[2]["ok"] is True and responses[2]["result"]["tan"] in server.tans
    assert server.feeds["dh"].superspreader_tags == set()


# every wire op with each of its args, and values that break them
WIRE_ARGS = {
    "issue_tan": {"device_id": st.just("d1")},
    "upload": {"bundle": st.fixed_dictionaries({"scheme": st.sampled_from(SCHEMES),
                                                "tan": st.text(max_size=12)})},
    "feed": {"scheme": st.sampled_from(SCHEMES), "since_cursor": st.integers(0, 5)},
    "superspreader_proof": {"proof": st.fixed_dictionaries(
        {"tokens": st.lists(st.binary(max_size=8).map(b64), max_size=3),
         "encoding": st.just("b64")})},
    "register": {"device_id": st.just("d1"), "mode": st.sampled_from(["anonymous", "phone"]),
                 "phone": st.just("+1555")},
    "notify_poll": {"user_id": st.text(max_size=6)},
}
BREAKING = st.one_of(JUNK, st.sampled_from([-1, True, [1], {"tokens": [5]}, "x"]))


@st.composite
def wire_line(draw):
    """A request for a random op, each of its args kept, dropped, broken or
    sent under a name the op does not know."""
    op = draw(st.sampled_from(sorted(WIRE_ARGS)))
    args = {}
    for name, value in WIRE_ARGS[op].items():
        how = draw(st.sampled_from(["keep", "keep", "drop", "break", "rename"]))
        if how != "drop":
            args[name + "_" if how == "rename" else name] = draw(
                value if how in ("keep", "rename") else BREAKING)
    req = {"op": op, "args": args}
    if draw(st.integers(0, 9)) == 0:
        req = draw(st.one_of(JUNK, st.just({"op": op, "args": draw(JUNK)})))
    return req


@pytest.fixture(scope="module")
def wire_server():
    server, _ = registry_server()
    with serving(server) as port:
        yield server, port


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reqs=st.lists(wire_line(), min_size=1, max_size=8))
def test_random_wire_lines_get_an_ack_or_a_typed_error(wire_server, reqs):
    server, port = wire_server
    import socket as socketlib
    lines = [json.dumps(req) for req in reqs] + [
        json.dumps({"op": "issue_tan", "args": {"device_id": "last"}})]
    with socketlib.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall("\n".join(lines).encode() + b"\n")
        fh = sock.makefile("r")
        responses = [json.loads(fh.readline()) for _ in lines]
    assert responses[-1]["ok"] is True     # the connection still serves a request
    for req, resp in zip(reqs, responses):
        unknown = [name for name in req["args"] if name not in WIRE_ARGS[req["op"]]] \
            if type(req) is dict and type(req.get("args")) is dict else []
        if unknown:
            assert resp == {"ok": False, "error": f"malformed request: "
                            f"request.args.{unknown[0]}: unknown field"}, resp
            continue
        if not resp["ok"]:
            assert isinstance(resp["error"], str)
            # a crash used to show as "malformed request: <exception>"; a typed
            # fault names the JSON path of the bad value
            assert (not resp["error"].startswith("malformed request")
                    or resp["error"].startswith("malformed request: request")), resp
            continue
        args = req["args"]
        if req["op"] == "feed":
            since = 0 if args.get("since_cursor") is None else args["since_cursor"]
            assert type(since) is int and since >= 0
            assert resp["result"]["cursor"] == since + len(resp["result"]["entries"])
        if req["op"] in ("issue_tan", "register"):
            assert isinstance(args["device_id"], str)
    assert all(isinstance(t.issued_to, str) for t in server.tans.values())
