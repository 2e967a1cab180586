"""The wire workload: a TracingServer behind serve_tcp in its own process,
driven by two closed-loop WireClient threads over loopback.

The server process (``python3 perfbench/wire.py serve ...``) replays a
pre-written state directory, prints a ready line with its port, and then
obeys one-line commands on stdin: ``trace`` installs the span recorder,
``pass N`` sets the pass id of later spans, ``stop`` shuts down and reports
its peak RSS (and the trace aggregate). It exits when stdin closes.

Each pass, both clients run a fixed number of actions from their own seeded
mix, wait for each other, then read both feeds up to their ends:

    write   18%  issue_tan, then an upload (tek: 14 daily keys; dh: 10 entries)
    feed    78%  an incremental page from the client's own cursor
    proof    2%  superspreader_proof with up to 3 of the client's own tokens
    replay   2%  an upload with an already spent TAN, which must be refused

so about 30% of requests are writes.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import common

ACTIONS_PER_PASS = {False: 250, True: 20}      # per client, by tiny
# The feed, and with it the server's memory, grows with every pass, so a run
# does a fixed number of passes: --seconds times this many client actions,
# about --seconds of work on a 2-CPU host.
ACTIONS_PER_SECOND = 300
STATE_UPLOADS = {False: 600, True: 20}         # per scheme, pre-written state
CLIENTS = 2
PROBES = 11               # start-ups timed for setup_s
TEK_KEYS = 14
DH_ENTRIES = 10
META_LEN = 36            # sealed timestamp: 12-byte nonce + 8 + 16-byte tag
SERVER_TIMEOUT_S = 60
MIX = (("write", 0.18), ("feed", 0.78), ("proof", 0.02), ("replay", 0.02))


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def make_bundle(rng: random.Random, scheme: str, tan: str) -> tuple[dict, list[str], list[bytes]]:
    """Upload bundle, the feed ids it publishes, and the raw dh tokens."""
    if scheme == "tek":
        day = 19000 + int(rng.random() * 30)
        keys = [rng.randbytes(16).hex() for _ in range(TEK_KEYS)]
        bundle = {"scheme": "tek", "tan": tan,
                  "teks": [{"tek_hex": k, "day": day + i} for i, k in enumerate(keys)]}
        return bundle, keys, []
    tokens = [rng.randbytes(32) for _ in range(DH_ENTRIES)]
    hashes = [hashlib.sha256(t).hexdigest() for t in tokens]
    bundle = {"scheme": "dh", "tan": tan, "anonymized": False,
              "entries": [{"hash_hex": h, "meta_b64": _b64(rng.randbytes(META_LEN))}
                          for h in hashes]}
    return bundle, hashes, tokens


def prepare_state(state_dir: Path, seed: int, tiny: bool) -> list[str]:
    """Write the server's starting state through dctlab's own API; returns
    the spent TANs, which the clients replay."""
    from dctlab.rng import SeedStream
    from dctlab.server import TracingServer

    shutil.rmtree(state_dir, ignore_errors=True)
    server = TracingServer(SeedStream(seed, "perfbench-wire-state"), state_dir=state_dir)
    rng = random.Random(seed)
    spent = []
    for i in range(STATE_UPLOADS[tiny]):
        for scheme in ("tek", "dh"):
            tan = server.issue_tan(f"seed-{i}").value
            server.accept_upload(make_bundle(rng, scheme, tan)[0])
            spent.append(tan)
    return spent


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- server process ---------------------------------------------------------------

def serve(argv: list[str]) -> int:
    import argparse
    parser = argparse.ArgumentParser(prog="wire.py serve")
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe", action="store_true", help="exit once ready")
    parser.add_argument("--trace-start", action="store_true",
                        help="trace from start-up (replay included)")
    parser.add_argument("--trace-dir", help="where spans are written on stop")
    args = parser.parse_args(argv)

    common.load_dctlab()
    import dctlab.server
    from dctlab.rng import SeedStream
    import tracing

    recorder = tracing.Recorder().install() if args.trace_start else None
    server = dctlab.server.TracingServer(SeedStream(args.seed, "perfbench-wire-server"),
                                         state_dir=args.state_dir)
    tcp, port = dctlab.server.serve_tcp(server)

    def reply(obj):
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    ready = {"port": port, "feeds": {s: len(server.feeds[s].entries) for s in ("tek", "dh")}}
    if recorder is not None:
        ready["agg"] = recorder.aggregate()
    reply(ready)
    try:
        for line in ([] if args.probe else sys.stdin):
            cmd = line.split()
            if cmd == ["trace"]:
                recorder = recorder or tracing.Recorder().install()
                reply({"ok": True})
            elif cmd[:1] == ["pass"]:
                if recorder is not None:
                    recorder.pass_id = int(cmd[1])
                reply({"ok": True})
            elif cmd == ["stop"]:
                break
        tcp.shutdown()
        if args.probe:
            return 0
        out = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if recorder is not None:
            out["agg"] = recorder.aggregate()
            if args.trace_dir:
                recorder.write(Path(args.trace_dir), "server")
        reply(out)
        return 0
    finally:
        tcp.server_close()


class ServerProcess:
    """A running ``wire.py serve``; ``setup_s`` is spawn-to-ready time."""

    def __init__(self, state_dir: Path, seed: int, *, probe=False, trace_start=False,
                 trace_dir: Path | None = None):
        cmd = [sys.executable, str(Path(__file__).resolve()), "serve",
               "--state-dir", str(state_dir), "--seed", str(seed)]
        if probe:
            cmd.append("--probe")
        if trace_start:
            cmd.append("--trace-start")
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        t0 = time.perf_counter()
        # one malloc arena: with one per handler thread, the server's peak RSS
        # varied by 25% between identical runs with the thread interleaving.
        # dctlab does not set this; the server figures are a single-arena server's.
        env = {**os.environ, "MALLOC_ARENA_MAX": "1"}
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=common.ROOT, env=env)
        self.ready = self._read()
        self.setup_s = time.perf_counter() - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise common.BenchError(f"wire server exited with code {self.proc.returncode}")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# -- load ---------------------------------------------------------------------------

class Client:
    """One closed-loop client: its next request goes out when the last returns."""

    def __init__(self, cid: int, port: int, seed: int, spent: list[str]):
        from dctlab.errors import UploadRejected
        from dctlab.server import WireClient
        self.rejected = UploadRejected
        self.wc = WireClient("127.0.0.1", port)
        self.cid = cid
        self.rng = random.Random(seed * CLIENTS + cid + 1)
        self.cursor = {"tek": 0, "dh": 0}
        self.acked: dict[str, list[str]] = {"tek": [], "dh": []}
        self.tokens: list[bytes] = []
        self.spent = list(spent)
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.errors: list[str] = []

    def _fail(self, what: str) -> None:
        self.errors.append(what)

    def request(self, kind: str, op: str, **args):
        """One timed request; returns the result, or the rejection."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.wc.call(op, **args)
        except self.rejected as exc:
            result = exc
        except OSError as exc:
            self._fail(f"{op}: {exc!r}")
            return None
        self.latency[kind].append(time.perf_counter() - t0)
        return result

    def feed(self, scheme: str) -> None:
        before = self.cursor[scheme]
        r = self.request("feed", "feed", scheme=scheme, since_cursor=before)
        if not isinstance(r, dict) or r.get("cursor") != before + len(r.get("entries", ())):
            self._fail(f"feed {scheme} from {before}: {r!r:.200}")
            return
        self.cursor[scheme] = r["cursor"]

    def write(self) -> None:
        r = self.request("issue_tan", "issue_tan", device_id=f"client-{self.cid}")
        if not isinstance(r, dict) or not isinstance(r.get("tan"), str):
            self._fail(f"issue_tan: {r!r:.200}")
            return
        scheme = "tek" if self.rng.random() < 0.5 else "dh"
        bundle, ids, tokens = make_bundle(self.rng, scheme, r["tan"])
        r = self.request("upload", "upload", bundle=bundle)
        if r != {"status": "ack", "published": len(ids)}:
            self._fail(f"upload {scheme}: {r!r:.200}")
            return
        self.acked[scheme].extend(ids)
        self.tokens.extend(tokens)
        self.spent.append(bundle["tan"])

    def proof(self) -> None:
        chosen = [self.tokens[int(self.rng.random() * len(self.tokens))]
                  for _ in range(min(3, len(self.tokens)))]
        r = self.request("proof", "superspreader_proof",
                         proof={"tokens": [_b64(t) for t in chosen], "encoding": "b64"})
        if r != {"accepted": len(chosen)}:
            self._fail(f"proof of {len(chosen)} tokens: {r!r:.200}")

    def replay(self) -> None:
        tan = self.spent[int(self.rng.random() * len(self.spent))]
        bundle = make_bundle(self.rng, "tek", tan)[0]
        r = self.request("replay", "upload", bundle=bundle)
        if not isinstance(r, self.rejected) or r.reason != "TAN already used":
            self._fail(f"replayed TAN: {r!r:.200}")

    def action(self) -> None:
        x = self.rng.random()
        for kind, share in MIX:
            if x < share:
                break
            x -= share
        if kind == "feed":
            self.feed("tek" if self.rng.random() < 0.5 else "dh")
        else:
            getattr(self, kind)()

    def run_pass(self, actions: int, barrier: threading.Barrier) -> None:
        try:
            for _ in range(actions):
                self.action()
            barrier.wait(timeout=SERVER_TIMEOUT_S)
            self.feed("tek")
            self.feed("dh")
        except Exception as exc:  # noqa: BLE001 - a crashed client is a failed run
            self._fail(f"client {self.cid}: {exc!r}")
            barrier.abort()


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run(seed: int, seconds: float, trace: bool, tiny: bool, trace_dir: Path) -> dict:
    from dctlab.rng import SeedStream
    from dctlab.server import TracingServer
    import tracing

    var = common.variant(seed)
    state_dir = common.OUT / f"wire-state-{seed}"
    try:
        spent = prepare_state(state_dir, var, tiny)
        expected_feeds = {"tek": STATE_UPLOADS[tiny] * TEK_KEYS,
                          "dh": STATE_UPLOADS[tiny] * DH_ENTRIES}
        probe_agg = None

        def probe_once() -> float:
            nonlocal probe_agg
            probe = ServerProcess(state_dir, var, probe=True, trace_start=trace)
            probe.close()
            probe_agg = probe.ready.get("agg")
            return probe.setup_s
        setup = common.scaled_setups(probe_once, 1 if trace else PROBES)
        server = ServerProcess(state_dir, var, trace_dir=trace_dir if trace else None)
        try:
            result = _drive(server, spent, var, seconds, trace, tiny, expected_feeds, state_dir)
        finally:
            server.close()
        replayed = TracingServer(SeedStream(0, "perfbench-replay-check"), state_dir=state_dir)
        for scheme, length in result.pop("final_feeds").items():
            if len(replayed.feeds[scheme].entries) != length:
                result["errors"].append(f"state replays {scheme} to "
                                        f"{len(replayed.feeds[scheme].entries)}, not {length}")
                result["failed"] += 1
        result["state_growth"] = (dir_bytes(state_dir) - result.pop("state_before")) / (
            len(result["clock"].wall) + len(result["traced_passes"]))
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    result["setup"] = setup
    if trace:
        layers = tracing.layer_metrics(result["agg"], len(result["traced_passes"]))
        if probe_agg is not None:
            layers["server.replay_s"] = probe_agg["spans"].get("server.replay", [0, 0.0, 0.0])[1]
        layers["server.state_bytes"] = result["state_growth"]
        handled = result["agg"]["spans"].get("server.handle", [0, 0.0, 0.0])[1]
        n = result["traced_requests"]
        layers["wire.overhead_ms"] = (result["traced_latency_s"] - handled) / n * 1000 if n else 0.0
        layers["trace.overhead_s"] = (statistics.median(result["traced_passes"])
                                      - statistics.median(result["clock"].wall))
        result["layers"] = layers
    return result


def _drive(server, spent, var, seconds, trace, tiny, expected_feeds, state_dir) -> dict:
    errors = []
    if server.ready["feeds"] != expected_feeds:
        errors.append(f"start-up replayed {server.ready['feeds']}, expected {expected_feeds}")
    port = server.ready["port"]
    clients = [Client(cid, port, var, spent) for cid in range(CLIENTS)]
    for c in clients:
        c.feed("tek")
        c.feed("dh")
    for c in clients:
        c.latency.clear()
    state_before = dir_bytes(state_dir)

    def one_pass():
        barrier = threading.Barrier(CLIENTS)
        threads = [threading.Thread(target=c.run_pass, args=(ACTIONS_PER_PASS[tiny], barrier))
                   for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=SERVER_TIMEOUT_S * 2)
        if any(t.is_alive() for t in threads):
            raise common.BenchError("a wire client did not finish its pass")

    clocks, requests = [], []
    traced_latency_s, traced_requests = 0.0, 0
    total = max(2, round(seconds * ACTIONS_PER_SECOND / ACTIONS_PER_PASS[tiny]))
    phases = [(False, total // 2), (True, total - total // 2)] if trace else [(False, total)]
    pass_no = 0
    for traced, count in phases:
        if traced:
            server.command("trace")
        clock = common.PassClock()
        clocks.append(clock)
        for _ in range(count):
            pass_no += 1
            server.command(f"pass {pass_no}")
            before = [(sum(map(sum, c.latency.values())), c.attempted) for c in clients]
            clock.time(one_pass)
            done = sum(c.attempted - att for c, (_, att) in zip(clients, before))
            if traced:
                traced_requests += done
                traced_latency_s += sum(sum(map(sum, c.latency.values())) - lat
                                        for c, (lat, _) in zip(clients, before))
            else:
                requests.append(done)
            if any(c.errors for c in clients):
                break
    # a final full read holds every acknowledged publication
    final = {}
    reader = clients[0]
    for scheme in ("tek", "dh"):
        page = reader.wc.call("feed", scheme=scheme, since_cursor=0)
        final[scheme] = len(page["entries"])
        key = "tek_hex" if scheme == "tek" else "hash_hex"
        held = {e[key] for e in page["entries"]}
        missing = sum(1 for c in clients for i in c.acked[scheme] if i not in held)
        if missing:
            errors.append(f"{missing} acknowledged {scheme} publications missing from the feed")
        for c in clients:
            if c.cursor[scheme] != final[scheme]:
                errors.append(f"client {c.cid} {scheme} cursor {c.cursor[scheme]} "
                              f"!= feed length {final[scheme]}")
    stop = server.command("stop")
    for c in clients:
        errors.extend(c.errors)
    latency = defaultdict(list)
    for c in clients:
        for kind, samples in c.latency.items():
            latency[kind].extend(samples)
    return {
        "clock": clocks[0], "requests": requests,
        "traced_passes": clocks[1].wall if trace else [],
        "attempted": sum(c.attempted for c in clients), "failed": len(errors),
        "errors": errors, "latency": dict(latency),
        "peak_rss_mb": stop["peak_rss_mb"], "agg": stop.get("agg"),
        "traced_latency_s": traced_latency_s, "traced_requests": traced_requests,
        "final_feeds": final, "state_before": state_before,
    }


if __name__ == "__main__":
    if sys.argv[1:2] != ["serve"]:
        sys.exit("usage: wire.py serve --state-dir DIR --seed N [--probe] [--trace-start]")
    sys.exit(serve(sys.argv[2:]))
