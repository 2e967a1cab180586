"""Tracing service provider + health authority.

One server instance backs all three schemes:

* TAN lifecycle: the health authority issues single-use 12-character
  authenticators; verifying an upload consumes its TAN atomically, so a TAN
  cannot be spent twice even under concurrent submissions.
* Per-scheme uploads: daily-key bundles are published to a feed, DH bundles
  publish token hashes and sealed metadata only, centralized bundles are
  never published - they are routed to server-side matching against the
  registry, and each matched user's note is queued for notify_poll, which
  both the wire op and the scenario driver read. A bundle is checked against
  its scheme's table in _uploads (TEK_ENTRY, DH_ENTRY or RECORD per entry)
  and then its scheme's bundle check; one that breaks either - a malformed
  entry, a key a table does not name (an entry's published_at, which the
  server stamps, included), daily keys spanning more than the retention
  period, a centralized record seen for longer than the retention period (or
  ending before it starts) or at a time whose window index does not encode,
  or centralized records sent to a server without a registry - is rejected
  with its TAN left unspent.
* Publication feeds are append-only; clients page through them with an
  integer cursor and replaying a cursor returns the identical page.
* Superspreader proofs: raw tokens submitted through this flow are hashed,
  counted against the DH feed, tagged, and discarded - they are never stored
  or served.

Only the centralized code path can touch the registry; the TEK and DH paths
have no access to user identities and their feeds carry no user field.

The server is callable in-process and over a newline-delimited JSON
request/response protocol on a TCP byte stream (see serve_tcp / WireClient).
A connection serves one line after another, each answered in turn, and a
WireClient keeps one connection for all its calls until it is closed.
A request line is checked against _REQUEST and the args table its op has in
_OPS; one that breaks them, or carries a key they do not name, is answered
with ok: false, naming the JSON path of the first bad value. A line json
cannot parse, one that is not UTF-8 or is nested past the recursion limit
included, is answered "bad json: ..." and the connection keeps serving. A
line longer than MAX_LINE_BYTES, its newline included, is answered "line too
long" and the connection is closed, so no line is read into memory whole;
closing the server (server_close) ends every connection it still serves.
Persistence is one append-only JSON-lines log, state.jsonl, with one record
per change to server state: an issue (a TAN and whom it went to), a spend (a
TAN and, in the same line, every entry its upload published, in feed order),
and a tag (the hashes one superspreader proof newly tagged). A record is
written before memory changes and is then applied by _apply, the same code
that replays it; a write that fails is cut back and answered UploadRejected,
leaving memory, the log and the TAN as they were. A server constructed over
the same state directory replays the log, dropping a final line that a crash
cut off mid-write; an unparsable line before the last, one nested too deeply
included, raises StateError, and so does a record that breaks STATE_RECORD:
a key its op does not name, an issue of a TAN issued before, a spend of a TAN
never issued or already spent, or a centralized spend with entries. Entries
inside a spend replay as they are, and clients skip and count a bad one. A
state directory that holds another *.jsonl log, as the earlier per-feed
format did, or that cannot be created or read, raises StateError naming the
file.
The form of every field that arrives from outside - bundle, wire request,
proof, state record - is checked by schema.check against a table that names
every key it admits; the code checks only what depends on server state:
TANs, the retention span, the registry, and whether proof tokens decode.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import socketserver
import threading
from dataclasses import dataclass
from pathlib import Path

from .crypto_core import DAY_S, DH_ENTRY, EPOCH_LIMIT, unb64
from .errors import FieldError, StateError, UploadRejected
from .rng import SeedStream
from .schema import Field, check, fault, hex_of, natural, one_of, predicate, shown, tagged
from .schemes.centralized import MODE_ANONYMOUS, MODE_PHONE, RECORD, CentralRegistry, server_match
from .schemes.tek import DEFAULT_RETENTION_DAYS, TEK_ENTRY

TAN_LENGTH = 12
SCHEMES = ("centralized", "tek", "dh")
PROOF = {"tokens": Field([str], []), "encoding": Field(one_of(("hex", "b64"), "encoding"), "b64")}
STATE_LOG = "state.jsonl"
MAX_LINE_BYTES = 1 << 20     # a wire request line, its newline included
LINE_TOO_LONG = {"ok": False, "error": "line too long"}   # then the connection is closed
_issued = predicate(lambda v, tans: type(v) is str and v in tans, "TAN {!r} was never issued")
_unspent = predicate(lambda v, tans: not tans[v].used, "TAN {!r} was spent before")
# a line of state.jsonl, by op, checked with the TANs replayed before it as roles
STATE_RECORD = tagged("op", {
    "issue": {"tan": Field(predicate(lambda v, tans: type(v) is str and v not in tans,
                                     "TAN {!r} was issued before")),
              "issued_to": Field(str)},
    "spend": {"tan": Field(lambda v, at, tans: _unspent(_issued(v, at, tans), at, tans)),
              "scheme": Field(one_of(SCHEMES, "scheme")), "entries": Field(list)},
    "tag": {"hashes": Field([hex_of(64)])}}, "op")


@dataclass
class Tan:
    value: str
    issued_to: str
    used: bool = False


class PublicationFeed:
    """Append-only entry list with cursor paging, and the set of the
    hash_hex strings its entries carry (none for a TEK feed), which a
    superspreader proof reads."""

    def __init__(self):
        self.entries: list[dict] = []
        self.hashes: set[str] = set()
        self.superspreader_tags: set[str] = set()

    def append(self, entry: dict) -> None:
        self.entries.append(entry)
        # a replayed entry is not checked, so it may carry no hash, or not a string
        h = entry.get("hash_hex") if type(entry) is dict else None
        if type(h) is str:
            self.hashes.add(h)

    def page(self, since_cursor: int) -> tuple[list[dict], int]:
        entries = self.entries[since_cursor:]
        return entries, since_cursor + len(entries)


class TracingServer:
    def __init__(self, stream: SeedStream, *, registry: CentralRegistry | None = None,
                 retention_days: int = DEFAULT_RETENTION_DAYS,
                 state_dir: str | Path | None = None):
        self.stream = stream
        self.registry = registry
        self.retention_days = retention_days
        self.clock = lambda: 0          # the scenario runner points this at world time
        self.feeds = {s: PublicationFeed() for s in SCHEMES}
        self.tans: dict[str, Tan] = {}
        self.notifications: dict[str, list[dict]] = {}
        self.match_history: list[dict] = []   # centralized matches, uploader included
        self._lock = threading.RLock()
        self._tan_stream = stream.child("tan")
        self._shuffle_stream = stream.child("shuffle")
        self._unwritable = None     # why the state log takes no more records, once it can't
        self.state_dir = Path(state_dir) if state_dir is not None else None
        if self.state_dir is not None:
            try:
                self.state_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise StateError(f"cannot use {self.state_dir} as a state directory: "
                                 f"{exc.strerror}")
            self._replay_state()

    # -- persistence ----------------------------------------------------------

    def _commit(self, record: dict) -> None:
        """Append record to the state log as one line, then apply it. A write
        that fails is cut back to the log's size before it and raised as
        UploadRejected, so neither the log nor memory changes; if even the cut
        fails, no later record is written after the torn bytes."""
        if self._unwritable is not None:
            raise UploadRejected(self._unwritable)
        if self.state_dir is not None:
            path, size = self.state_dir / STATE_LOG, None
            try:
                with path.open("ab") as fh:
                    size = fh.tell()
                    fh.write(json.dumps(record, sort_keys=True).encode() + b"\n")
            except OSError as exc:
                # the reason reaches the wire, so it names no path
                reason = f"state write failed: {exc.strerror or 'I/O error'}"
                if size is not None:
                    try:
                        os.truncate(path, size)
                    except OSError:
                        self._unwritable = f"{reason}, and the state log could not be cut back"
                raise UploadRejected(reason)
        self._apply(record)

    def _apply(self, record: dict) -> None:
        """Change memory as one record says: the one path both a live change
        and a replayed one take."""
        if record["op"] == "issue":
            self.tans[record["tan"]] = Tan(record["tan"], record["issued_to"])
        elif record["op"] == "spend":
            self.tans[record["tan"]].used = True
            for entry in record["entries"]:
                self.feeds[record["scheme"]].append(entry)
        else:
            self.feeds["dh"].superspreader_tags.update(record["hashes"])

    def _replay_state(self) -> None:
        """Apply each record of the state log, checked against STATE_RECORD
        with the TANs replayed so far as roles; a record that breaks it, or a
        centralized spend with entries, raises StateError naming its line. An
        unparsable final line is a write cut off by a crash: it is dropped and
        cut from the file, and a kept final line lacking its newline gets one,
        so the next append starts a line of its own. An unparsable line before
        the last raises StateError."""
        # the earlier format kept a log per feed: none of it may go unread
        for other in sorted(self.state_dir.glob("*.jsonl")):
            if other.name != STATE_LOG:
                raise StateError(f"{other} is not {STATE_LOG}: a log of an earlier "
                                 f"state format, which this server does not replay")
        path = self.state_dir / STATE_LOG
        torn, line = None, ""
        try:
            fh = path.open(encoding="utf-8", errors="surrogateescape")
        except FileNotFoundError:
            return
        except OSError as exc:
            raise StateError(f"cannot read {path}: {exc.strerror}")
        with fh:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                if torn is not None:
                    raise StateError(f"{STATE_LOG} line {torn[0]} is not JSON: {torn[1]}")
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    torn = (number, exc)
                    continue
                try:
                    record = check(record, STATE_RECORD, ("record",), self.tans)
                    if record.get("scheme") == "centralized" and record["entries"]:
                        raise fault(("record", "entries"), "a centralized spend publishes nothing")
                except FieldError as exc:
                    raise StateError(f"{STATE_LOG} line {number}: {exc}")
                self._apply(record)
        if torn is not None:
            with path.open("r+b") as fh:
                fh.truncate(fh.read().rstrip().rfind(b"\n") + 1)
        elif line and not line.endswith("\n"):
            with path.open("a", encoding="utf-8") as fh:
                fh.write("\n")

    # -- health authority -------------------------------------------------------

    def issue_tan(self, device_id: str) -> Tan:
        with self._lock:
            while True:
                value = self._tan_stream.token(TAN_LENGTH)
                if value not in self.tans:
                    break
            self._commit({"op": "issue", "tan": value, "issued_to": device_id})
            return self.tans[value]

    # -- registration (centralized only) ----------------------------------------

    def register(self, device_id: str, mode: str = "anonymous", phone: str | None = None):
        if self.registry is None:
            raise UploadRejected("no centralized registry configured")
        with self._lock:
            return self.registry.register(device_id, mode, phone)

    # -- uploads -------------------------------------------------------------------

    def accept_upload(self, bundle: dict) -> dict:
        """Check a bundle against its scheme's table, then its scheme's bundle
        check, then accept it: its handler builds the one record that spends its
        TAN and publishes its entries. A rejected bundle keeps its TAN."""
        try:
            bundle = check(bundle, _BUNDLE, ("bundle",))
        except FieldError as exc:
            raise UploadRejected(f"malformed bundle: {exc}")
        _, check_bundle, accept = self._uploads[bundle["scheme"]]
        check_bundle(self, bundle)
        with self._lock:
            tan = self.tans.get(bundle["tan"])
            if tan is None:
                raise UploadRejected("unknown TAN")
            if tan.used:
                raise UploadRejected("TAN already used")
            return accept(self, bundle, tan)

    def _check_tek_span(self, bundle: dict) -> None:
        """An honest TekStore holds one key a day, retention_days of them at
        most: so a bundle lists each day once, within retention_days days.
        Every key published makes each client index derive its 144
        identifiers, so this also caps that work per upload."""
        days = [t["day"] for t in bundle["teks"]]
        seen: set[int] = set()
        for i, day in enumerate(days):
            if day in seen:
                raise UploadRejected(f"malformed bundle: bundle.teks[{i}]: day {day} "
                                     f"is listed twice")
            seen.add(day)
        if days and max(days) - min(days) + 1 > self.retention_days:
            raise UploadRejected(f"TEK bundle spans more than {self.retention_days} days")

    def _check_registry(self, bundle: dict) -> None:
        if self.registry is None:
            raise UploadRejected("no centralized registry configured")
        # outside input: an honest record spans at most the retention period, and its
        # windows first_seen // r - 1 .. last_seen // r + 1 are ones an identifier can
        # be issued for, each window index encoding in 8 signed bytes
        rotation_s = self.registry.rotation_s
        for i, r in enumerate(bundle["records"]):
            if not 0 <= r["last_seen"] - r["first_seen"] <= self.retention_days * DAY_S:
                raise UploadRejected(f"malformed bundle: bundle.records[{i}]: last_seen must "
                                     f"lie within {self.retention_days} days after first_seen")
            if not (-EPOCH_LIMIT <= r["first_seen"] // rotation_s - 1
                    and r["last_seen"] // rotation_s + 1 < EPOCH_LIMIT):
                raise UploadRejected(f"malformed bundle: bundle.records[{i}]: its window "
                                     f"indexes must fit in 8 signed bytes")

    def _publish(self, tan: Tan, scheme: str, entries: list[dict]) -> dict:
        self._commit({"op": "spend", "tan": tan.value, "scheme": scheme, "entries": entries})
        return {"status": "ack", "published": len(entries)}

    def _accept_tek(self, bundle: dict, tan: Tan) -> dict:
        now = self.clock()
        return self._publish(tan, "tek", [{"tek_hex": t["tek_hex"], "day": t["day"],
                                           "published_at": now} for t in bundle["teks"]])

    def _accept_dh(self, bundle: dict, tan: Tan) -> dict:
        now = self.clock()
        published = [{"hash_hex": e["hash_hex"], "meta_b64": e["meta_b64"],
                      "published_at": now} for e in bundle["entries"]]
        if bundle["anonymized"]:
            # postbox model: drop bundle grouping by shuffling before
            # publication; the cryptographic mixing itself is out of scope
            self._shuffle_stream.shuffle(published)
        return self._publish(tan, "dh", published)

    def _accept_centralized(self, bundle: dict, tan: Tan) -> dict:
        now = self.clock()
        horizon = now - self.retention_days * DAY_S
        fresh = [r for r in bundle["records"] if r["last_seen"] >= horizon]
        matches = server_match(fresh, self.registry)
        # matches are not persisted: the spend publishes nothing
        self._commit({"op": "spend", "tan": tan.value, "scheme": "centralized", "entries": []})
        for user_id, intervals in matches.items():
            reg = self.registry.users[user_id]
            channel = "phone" if reg.mode == MODE_PHONE else "app"
            note = {"user_id": user_id, "device_id": self.registry.device_of[user_id],
                    "channel": channel, "intervals": [list(i) for i in intervals],
                    "cause": "centralized_match"}
            self.notifications.setdefault(user_id, []).append(note)
            self.match_history.append({"uploader_device": tan.issued_to,
                                       "contact_user": user_id,
                                       "contact_device": note["device_id"],
                                       "intervals": note["intervals"]})
        return {"status": "ack", "matched_users": len(matches),
                "skipped": len(bundle["records"]) - len(fresh)}

    # per scheme: (bundle table, bundle check, handler); the methods are stored
    # unbound so that a server holds no reference to itself
    _uploads = {
        "tek": ({"teks": Field([TEK_ENTRY])}, _check_tek_span, _accept_tek),
        "dh": ({"entries": Field([DH_ENTRY]), "anonymized": Field(bool, False)},
               lambda self, bundle: None, _accept_dh),
        "centralized": ({"records": Field([RECORD])}, _check_registry, _accept_centralized),
    }

    # -- feeds and verification ------------------------------------------------------

    def fetch_feed(self, scheme: str, since_cursor: int = 0) -> tuple[list[dict], int]:
        if scheme not in self.feeds:
            raise UploadRejected(f"unknown scheme {shown(scheme)}")
        with self._lock:
            return self.feeds[scheme].page(since_cursor)

    def verify_superspreader_proof(self, proof: dict) -> int:
        """Count proof tokens whose hash appears in the DH feed and tag those
        hashes. Tokens are hashed and discarded, never stored. A proof that
        breaks PROOF raises FieldError, and one whose token does not decode
        UploadRejected; either is raised before anything is tagged."""
        proof = check(proof, PROOF, ("proof",))
        decode = bytes.fromhex if proof["encoding"] == "hex" else unb64
        try:
            hashes = [hashlib.sha256(decode(raw)).hexdigest() for raw in proof["tokens"]]
        except ValueError as exc:
            raise UploadRejected(f"malformed proof: a token does not decode: {exc}")
        feed = self.feeds["dh"]
        with self._lock:
            accepted = [h for h in hashes if h in feed.hashes]
            # in the proof's order, not set order, so that the log is byte-stable
            fresh = list(dict.fromkeys(h for h in accepted if h not in feed.superspreader_tags))
            if fresh:
                self._commit({"op": "tag", "hashes": fresh})
            return len(accepted)

    def notify_poll(self, user_id: str) -> list[dict]:
        """Drain pending notifications for one registered user."""
        with self._lock:
            return self.notifications.pop(user_id, [])


# a bundle: its TAN, and the table of the scheme it names
_BUNDLE = tagged("scheme", {scheme: {"tan": Field(str), **up[0]}
                            for scheme, up in TracingServer._uploads.items()}, "scheme")


# ---------------------------------------------------------------------------
# Newline-delimited JSON wire protocol
# ---------------------------------------------------------------------------

def _feed(server: TracingServer, args: dict) -> dict:
    entries, cursor = server.fetch_feed(args["scheme"], args["since_cursor"])
    return {"entries": entries, "cursor": cursor}


def _register(server: TracingServer, args: dict) -> dict:
    reg = server.register(args["device_id"], args["mode"], args["phone"])
    return {"user_id": reg.user_id, "mode": reg.mode}


# per wire op: (the table of its args, the handler that answers them); _REQUEST is
# the table of a request line. A bundle passes as it is, so that accept_upload
# answers every fault in one as a malformed bundle
_OPS = {
    "issue_tan": ({"device_id": Field(str)},
                  lambda server, args: {"tan": server.issue_tan(args["device_id"]).value}),
    "upload": ({"bundle": Field(lambda value, at, roles: value, None)},
               lambda server, args: server.accept_upload(args["bundle"])),
    "feed": ({"scheme": Field(str), "since_cursor": Field(natural, 0)}, _feed),
    "superspreader_proof": ({"proof": Field(PROOF)}, lambda server, args: {
        "accepted": server.verify_superspreader_proof(args["proof"])}),
    "notify_poll": ({"user_id": Field(str)},
                    lambda server, args: {"notifications": server.notify_poll(args["user_id"])}),
    "register": ({"device_id": Field(str), "phone": Field(str, None),
                  "mode": Field(one_of((MODE_ANONYMOUS, MODE_PHONE), "mode"), MODE_ANONYMOUS)},
                 _register),
}
_REQUEST = {"op": Field(one_of(_OPS, "op")), "args": Field(dict, {})}


def _handle_request(server: TracingServer, req: dict) -> dict:
    try:
        req = check(req, _REQUEST, ("request",))
        table, handle = _OPS[req["op"]]
        args = check(req["args"], table, ("request", "args"))
        return {"ok": True, "result": handle(server, args)}
    except FieldError as exc:
        return {"ok": False, "error": f"malformed request: {exc}"}
    except UploadRejected as exc:
        return {"ok": False, "error": exc.reason}


class _WireHandler(socketserver.StreamRequestHandler):
    def handle(self):
        while line := self.rfile.readline(MAX_LINE_BYTES + 1):
            if len(line) > MAX_LINE_BYTES:
                self._answer(LINE_TOO_LONG)
                return
            line = line.strip()
            if not line:
                continue
            try:
                req = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # ValueError covers a line that is not UTF-8 as well as bad JSON
                resp = {"ok": False, "error": f"bad json: {exc}"}
            else:
                resp = _handle_request(self.server.tracing_server, req)
            self._answer(resp)

    def _answer(self, resp: dict) -> None:
        self.wfile.write(json.dumps(resp, sort_keys=True).encode() + b"\n")
        self.wfile.flush()


class _WireServer(socketserver.ThreadingTCPServer):
    """Keeps the sockets its handlers serve, so that server_close() can end
    them: a connection lasts as long as its client keeps it."""
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args, **kw):
        self._open: set[socket.socket] = set()
        self._open_changed = threading.Condition()
        super().__init__(*args, **kw)

    def process_request(self, request, client_address):
        with self._open_changed:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        # under the lock, so server_close never shuts down a socket as it closes
        with self._open_changed:
            self._open.discard(request)
            super().shutdown_request(request)
            self._open_changed.notify_all()

    def server_close(self):
        """Close the listening socket, then end each connection still served
        and wait for its handler to return, so none answers another line."""
        super().server_close()
        with self._open_changed:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)   # its handler reads EOF
                except OSError:
                    pass                                  # the client has gone
            self._open_changed.wait_for(lambda: not self._open)


def serve_tcp(server: TracingServer, host: str = "127.0.0.1", port: int = 0):
    """Start the NDJSON endpoint on a background thread.
    Returns (tcp_server, bound_port). To stop, call tcp_server.shutdown(),
    which stops accepting, then tcp_server.server_close(), which closes the
    listening socket and ends every connection still served."""
    tcp = _WireServer((host, port), _WireHandler)
    tcp.tracing_server = server
    thread = threading.Thread(target=tcp.serve_forever, daemon=True)
    thread.start()
    return tcp, tcp.server_address[1]


class WireClient:
    """NDJSON client that keeps one connection. It connects on its first call;
    each call sends one line and reads one answer line on that connection,
    one call at a time, whichever thread makes it. No request is sent twice: a
    call whose connection fails, or ends before an answer, drops it and raises
    OSError, and the next call connects afresh. A "line too long" answer,
    after which the server closes the connection, drops it too; it is raised
    as UploadRejected even when the server answered, and closed, before the
    line was all sent. close(), or the end of a with block, ends the
    connection; a later call opens another."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._rfile = None

    def call(self, op: str, **args) -> dict:
        line = json.dumps({"op": op, "args": args}, sort_keys=True).encode() + b"\n"
        with self._lock:
            if self._sock is None:
                self._sock = socket.create_connection((self.host, self.port), timeout=10)
                self._rfile = self._sock.makefile("rb")
            try:
                try:
                    self._sock.sendall(line)
                except ConnectionError:
                    # the server may have refused the line, answered and closed
                    # while it was still being sent: that answer is the one
                    if self._answer_left() == LINE_TOO_LONG:
                        raise UploadRejected(LINE_TOO_LONG["error"]) from None
                    raise
                answer = self._rfile.readline()
                if not answer.endswith(b"\n"):
                    raise ConnectionError("server closed the connection")
            except BaseException:
                # the connection may hold half a request or an answer not read
                self._drop()
                raise
            resp = json.loads(answer)
            if resp == LINE_TOO_LONG:
                self._drop()
        if not resp.get("ok"):
            raise UploadRejected(resp.get("error", "request failed"))
        return resp["result"]

    def _answer_left(self) -> dict | None:
        """The answer line the server sent before the connection broke, if
        a whole one can still be read."""
        try:
            answer = self._rfile.readline()
            return json.loads(answer) if answer.endswith(b"\n") else None
        except (OSError, ValueError):
            return None

    def _drop(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    def close(self) -> None:
        with self._lock:
            self._drop()

    def __enter__(self) -> WireClient:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
