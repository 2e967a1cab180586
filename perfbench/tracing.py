"""Span recorder for the traced run.

The recorder wraps dctlab's functions and methods from outside: it replaces
each target in every ``dctlab.*`` module namespace that holds it (a function
imported by name, such as ``derive_day_identifiers`` in ``schemes.tek`` and
``adversary``, is patched there too) and on its class for methods. The
program's source is not touched, and nothing is wrapped unless ``install``
is called, so untraced runs measure dctlab as it is.

Every wrapped call records a span (name, start, end, parent span, pass id)
in flat in-memory arrays; ``write`` stores them at the end of the run. Self
time is a span's duration minus the time its child spans cover. Call
counts, self and total time per span name, and a few counters taken from
arguments and results accumulate as the calls happen. A handful of very hot
calls whose time is not reported (``World.schedule``,
``TekClient.on_sighting``) are counted without a span.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

SPAN_FIELDS = (("name", "H"), ("start", "d"), ("end", "d"), ("parent", "q"), ("pass", "H"))

DH_HOOKS = ("advertisement_identifier", "wants_connection", "on_connected",
            "on_message", "on_copresence_tick", "on_disconnect")

# upload reject reason -> per-layer metric suffix
REJECT_REASONS = (("TAN already used", "tan_used"), ("unknown TAN", "unknown_tan"),
                  ("malformed", "malformed"), ("spans more than", "retention"))
REJECT_KEYS = tuple(k for _, k in REJECT_REASONS) + ("other",)


def _reject_key(reason: str) -> str:
    for needle, key in REJECT_REASONS:
        if needle in reason:
            return key
    return "other"


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.published_in_pass: set[tuple[int, str]] = set()
        self.spans = {field: array(code) for field, code in SPAN_FIELDS}
        self.pass_id = 0
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def _span_wrapper(self, fn, nid, before, after, on_error):
        rec, perf, lock, local = self, time.perf_counter, self._lock, self._local
        s_name, s_start, s_end = self.spans["name"], self.spans["start"], self.spans["end"]
        s_parent, s_pass = self.spans["parent"], self.spans["pass"]
        calls, total, self_time = self.calls, self.total, self.self_time

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            token = before(rec, args) if before is not None else None
            with lock:
                idx = len(s_start)
                s_name.append(nid)
                s_start.append(0.0)
                s_end.append(0.0)
                s_parent.append(stack[-1][0] if stack else -1)
                s_pass.append(rec.pass_id)
            frame = [idx, 0.0]
            stack.append(frame)
            done = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                with lock:
                    s_start[idx] = t0
                    s_end[idx] = t1
                    calls[nid] += 1
                    total[nid] += dur
                    self_time[nid] += dur - frame[1]
                    if not done and on_error is not None:
                        on_error(rec, args, sys.exc_info()[1])
            if after is not None:
                with lock:
                    after(rec, args, kwargs, result, token)
            return result

        return wrapper

    def _count_wrapper(self, fn, nid, after):
        rec, lock, calls = self, self._lock, self.calls

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            with lock:
                calls[nid] += 1
                if after is not None:
                    after(rec, args, kwargs, result, None)
            return result

        return wrapper

    def wrap(self, name: str, module: str, target: str, *, span: bool = True,
             before=None, after=None, on_error=None) -> None:
        mod = sys.modules.get(module)
        owner_name, _, attr = target.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = owner.__dict__.get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{target}")
            return
        nid = self._name_id(name)
        wrapper = (self._span_wrapper(original, nid, before, after, on_error) if span
                   else self._count_wrapper(original, nid, after))
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__wrapped__ = original
        if owner_name:
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mname, m in list(sys.modules.items()):
            if mname != "dctlab" and not mname.startswith("dctlab."):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    self._undo.append((m, key, original))
                    setattr(m, key, wrapper)

    def install(self) -> "Recorder":
        for entry in LAYER_TABLE:
            self.wrap(*entry[:3], **(entry[3] if len(entry) > 3 else {}))
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, total and self seconds; plus the counters."""
        by_name: dict[str, list] = {}
        for nid, name in enumerate(self.names):
            agg = by_name.setdefault(name, [0, 0.0, 0.0])
            agg[0] += self.calls[nid]
            agg[1] += self.total[nid]
            agg[2] += self.self_time[nid]
        counters = dict(self.counters)
        counters["tek.published_keys"] = len(self.published_in_pass)
        counters["trace.spans"] = len(self.spans["start"])
        return {"spans": by_name, "counters": counters, "missing": self.missing}

    def write(self, directory: Path, part: str) -> None:
        """Store every span: <part>.bin holds the arrays one after another,
        in SPAN_FIELDS order; <part>.json describes them."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{part}.bin", "wb") as fh:
            for field, _ in SPAN_FIELDS:
                self.spans[field].tofile(fh)
        meta = {"names": self.names, "count": len(self.spans["start"]),
                "fields": [[f, c, array(c).itemsize] for f, c in SPAN_FIELDS],
                "byteorder": sys.byteorder, "clock": "time.perf_counter"}
        (directory / f"{part}.json").write_text(json.dumps(meta), encoding="utf-8")


# -- hooks: counters taken from arguments and results -------------------------

def _count_emit_kind(rec, args):
    kind = args[1]
    if kind in ("scan", "connect", "connect_reject"):
        rec.counters[f"radio.kind.{kind}"] += 1


def _schedule_of_published(rec, args):
    if (rec.pass_id, args[0].hex) in rec.published_in_pass:
        rec.counters["tek.published_schedules"] += 1


def _on_upload(rec, args, kwargs, result, token):
    bundle = args[1]
    if bundle.get("scheme") == "tek":
        for t in bundle.get("teks", []):
            rec.published_in_pass.add((rec.pass_id, t["tek_hex"]))


def _on_upload_error(rec, args, exc):
    reason = getattr(exc, "reason", type(exc).__name__)
    rec.counters[f"server.rejects.{_reject_key(reason)}"] += 1


def _records_before(rec, args):
    return len(args[0].records)


def _records_after(rec, args, kwargs, result, before_len):
    rec.counters["dh.records"] += len(args[0].records) - before_len


def _copresence_after(rec, args, kwargs, result, before_len):
    rec.counters["dh.copresence_ticks"] += 1
    _records_after(rec, args, kwargs, result, before_len)


def _add_len(key):
    def hook(rec, args, kwargs, result, token):
        rec.counters[key] += len(result)
    return hook


def _add_if_none(key, want_none):
    def hook(rec, args, kwargs, result, token):
        if (result is None) == want_none:
            rec.counters[key] += 1
    return hook


def _feed_served(rec, args, kwargs, result, token):
    rec.counters["server.feed_entries_served"] += len(result[0])


def _on_run_scenario(rec, args, kwargs, result, token):
    for run in result["runs"].values():
        rec.counters["adversary.copied_beacons"] += run.get("attack", {}).get("copied_beacons", 0)
    out_dir = kwargs.get("out_dir", args[2] if len(args) > 2 else None)
    if out_dir is not None:
        for name in ("events.jsonl", "metrics.json"):
            path = Path(out_dir) / name
            if path.is_file():
                rec.counters["scenario.output_bytes"] += path.stat().st_size


DH_HOOK_OPTIONS = {
    "on_message": {"before": _records_before, "after": _records_after},
    "on_copresence_tick": {"before": _records_before, "after": _copresence_after},
}

# (span name, module, target, options); layer = the part before the first dot
LAYER_TABLE = [
    ("radio.run", "dctlab.radio", "World.run"),
    ("radio.emit", "dctlab.radio", "World.emit", {"before": _count_emit_kind}),
    ("radio.schedule", "dctlab.radio", "World.schedule", {"span": False}),
    ("radio.link_address", "dctlab.radio", "Device.link_address"),
    ("radio.range_query", "dctlab.radio", "ContactTrace.in_range"),
    ("radio.range_query", "dctlab.radio", "ContactTrace.neighbors"),
    ("rng.child", "dctlab.rng", "SeedStream.child"),
    ("rng.take", "dctlab.rng", "SeedStream.take"),
    ("crypto.hkdf", "dctlab.crypto_core", "hkdf_sha256"),
    ("crypto.day_schedule", "dctlab.crypto_core", "derive_day_identifiers",
     {"before": _schedule_of_published}),
    ("crypto.keygen", "dctlab.crypto_core", "keygen"),
    ("crypto.dh_token", "dctlab.crypto_core", "dh_token"),
    ("crypto.seal", "dctlab.crypto_core", "seal_metadata"),
    ("crypto.open", "dctlab.crypto_core", "open_metadata",
     {"after": _add_if_none("crypto.aead_open_fails", True)}),
    ("tek.sync", "dctlab.schemes.tek", "TekClient.sync", {"after": _add_len("tek.exposures")}),
    ("tek.match", "dctlab.schemes.tek", "match_exposures"),
    ("tek.on_sighting", "dctlab.schemes.tek", "TekClient.on_sighting", {"span": False}),
    *[("dh.hook", "dctlab.schemes.dh", f"DhClient.{hook}", DH_HOOK_OPTIONS.get(hook, {}))
      for hook in DH_HOOKS],
    ("dh.sync", "dctlab.schemes.dh", "DhClient.sync"),
    ("dh.match", "dctlab.schemes.dh", "match_exposures_dh", {"after": _add_len("dh.matches")}),
    ("central.issue_batch", "dctlab.schemes.centralized", "CentralRegistry.issue_batch"),
    ("central.resolve", "dctlab.schemes.centralized", "CentralRegistry.resolve",
     {"after": _add_if_none("central.resolved", False)}),
    ("server.issue_tan", "dctlab.server", "TracingServer.issue_tan"),
    ("server.upload", "dctlab.server", "TracingServer.accept_upload",
     {"after": _on_upload, "on_error": _on_upload_error}),
    ("server.fetch_feed", "dctlab.server", "TracingServer.fetch_feed", {"after": _feed_served}),
    ("server.proof", "dctlab.server", "TracingServer.verify_superspreader_proof"),
    ("server.replay", "dctlab.server", "TracingServer._replay_state"),
    ("server.handle", "dctlab.server", "_handle_request"),
    ("adversary.linkage", "dctlab.adversary", "run_linkage"),
    ("adversary.social_graph", "dctlab.adversary", "run_social_graph"),
    ("adversary.fake_claim", "dctlab.adversary", "fake_claim_tek"),
    ("adversary.fake_claim", "dctlab.adversary", "fake_claim_dh"),
    ("adversary.fake_claim", "dctlab.adversary", "fake_claim_centralized"),
    ("scenario.run", "dctlab.scenario", "run_scenario", {"after": _on_run_scenario}),
    ("scenario.execute", "dctlab.scenario", "execute_run"),
    ("cli.matrix", "dctlab.cli", "quadrilemma"),
    ("cli.matrix", "dctlab.cli", "matrix_csv"),
]
LAYERS = ("radio", "rng", "crypto", "tek", "dh", "central", "server", "adversary",
          "scenario", "cli")

# per-layer metric -> unit, in BENCHMARK.json order
LAYER_METRICS = {
    "radio.run_self_s": "s", "radio.emit_s": "s", "radio.events": "count",
    "radio.scan_events": "count", "radio.scheduled": "count",
    "radio.link_address_calls": "count", "radio.link_address_s": "s",
    "radio.range_queries": "count", "radio.range_query_s": "s",
    "radio.connects": "count", "radio.connect_rejects": "count",
    "rng.child_calls": "count", "rng.take_calls": "count", "rng.busy_s": "s",
    "crypto.hkdf_calls": "count", "crypto.hkdf_s": "s", "crypto.day_schedules": "count",
    "crypto.day_schedule_s": "s", "crypto.keygens": "count", "crypto.dh_tokens": "count",
    "crypto.x25519_s": "s", "crypto.aead_seals": "count", "crypto.aead_opens": "count",
    "crypto.aead_open_fails": "count", "crypto.aead_s": "s",
    "tek.sync_calls": "count", "tek.sync_s": "s", "tek.match_s": "s",
    "tek.published_keys": "count", "tek.schedules_per_key": "ratio",
    "tek.sightings": "count", "tek.exposures": "count",
    "dh.hook_s": "s", "dh.copresence_ticks": "count", "dh.records": "count",
    "dh.sync_s": "s", "dh.match_s": "s", "dh.open_success_ratio": "ratio",
    "central.issue_batch_s": "s", "central.resolve_calls": "count",
    "central.resolve_s": "s", "central.resolved_ratio": "ratio",
    "server.tan_issue_s": "s", "server.uploads": "count", "server.upload_s": "s",
    "server.upload_rejects": "count",
    **{f"server.rejects.{key}": "count" for key in REJECT_KEYS},
    "server.feed_fetch_s": "s", "server.feed_entries_served": "count",
    "server.proof_s": "s", "server.replay_s": "s", "server.state_bytes": "bytes",
    "wire.overhead_ms": "ms",
    "adversary.linkage_s": "s", "adversary.social_graph_s": "s",
    "adversary.fake_claim_s": "s", "adversary.copied_beacons": "count",
    "scenario.execute_s": "s", "scenario.serialize_s": "s", "scenario.output_bytes": "bytes",
    "cli.matrix_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count", "trace.overhead_s": "s",
}


def layer_metrics(agg: dict, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from an aggregate() of the traced passes.
    Metrics whose layer did not run are 0; external ones (state bytes, wire
    overhead, tracing overhead, replay time) are filled in by the workload."""
    spans, counters = agg["spans"], agg["counters"]

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ctr(key):
        return counters.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    uploads_ok = calls("server.upload") - sum(ctr(f"server.rejects.{k}") for k in REJECT_KEYS)
    per_pass = {
        "radio.run_self_s": self_s("radio.run"),
        "radio.emit_s": total("radio.emit"),
        "radio.events": calls("radio.emit"),
        "radio.scan_events": ctr("radio.kind.scan"),
        "radio.scheduled": calls("radio.schedule"),
        "radio.link_address_calls": calls("radio.link_address"),
        "radio.link_address_s": total("radio.link_address"),
        "radio.range_queries": calls("radio.range_query"),
        "radio.range_query_s": total("radio.range_query"),
        "radio.connects": ctr("radio.kind.connect"),
        "radio.connect_rejects": ctr("radio.kind.connect_reject"),
        "rng.child_calls": calls("rng.child"),
        "rng.take_calls": calls("rng.take"),
        "rng.busy_s": total("rng.child", "rng.take"),
        "crypto.hkdf_calls": calls("crypto.hkdf"),
        "crypto.hkdf_s": total("crypto.hkdf"),
        "crypto.day_schedules": calls("crypto.day_schedule"),
        "crypto.day_schedule_s": total("crypto.day_schedule"),
        "crypto.keygens": calls("crypto.keygen"),
        "crypto.dh_tokens": calls("crypto.dh_token"),
        "crypto.x25519_s": self_s("crypto.keygen", "crypto.dh_token"),
        "crypto.aead_seals": calls("crypto.seal"),
        "crypto.aead_opens": calls("crypto.open"),
        "crypto.aead_open_fails": ctr("crypto.aead_open_fails"),
        "crypto.aead_s": self_s("crypto.seal", "crypto.open"),
        "tek.sync_calls": calls("tek.sync"),
        "tek.sync_s": total("tek.sync"),
        "tek.match_s": total("tek.match"),
        "tek.published_keys": ctr("tek.published_keys"),
        "tek.sightings": calls("tek.on_sighting"),
        "tek.exposures": ctr("tek.exposures"),
        "dh.hook_s": total("dh.hook"),
        "dh.copresence_ticks": ctr("dh.copresence_ticks"),
        "dh.records": ctr("dh.records"),
        "dh.sync_s": total("dh.sync"),
        "dh.match_s": total("dh.match"),
        "central.issue_batch_s": total("central.issue_batch"),
        "central.resolve_calls": calls("central.resolve"),
        "central.resolve_s": total("central.resolve"),
        "server.tan_issue_s": total("server.issue_tan"),
        "server.uploads": uploads_ok,
        "server.upload_s": total("server.upload"),
        "server.upload_rejects": calls("server.upload") - uploads_ok,
        **{f"server.rejects.{k}": ctr(f"server.rejects.{k}") for k in REJECT_KEYS},
        "server.feed_fetch_s": total("server.fetch_feed"),
        "server.feed_entries_served": ctr("server.feed_entries_served"),
        "server.proof_s": total("server.proof"),
        "adversary.linkage_s": total("adversary.linkage"),
        "adversary.social_graph_s": total("adversary.social_graph"),
        "adversary.fake_claim_s": total("adversary.fake_claim"),
        "adversary.copied_beacons": ctr("adversary.copied_beacons"),
        "scenario.execute_s": total("scenario.execute"),
        "scenario.serialize_s": self_s("scenario.run"),
        "scenario.output_bytes": ctr("scenario.output_bytes"),
        "cli.matrix_s": total("cli.matrix"),
        "trace.spans": ctr("trace.spans"),
        **{f"{layer}.self_s": sum(v[2] for n, v in spans.items() if n.split(".", 1)[0] == layer)
           for layer in LAYERS},
    }
    out = {k: v / passes for k, v in per_pass.items()}
    # ratios are not divided by the pass count
    out["tek.schedules_per_key"] = ratio(ctr("tek.published_schedules"), ctr("tek.published_keys"))
    out["dh.open_success_ratio"] = ratio(ctr("dh.matches"), calls("crypto.open"))
    out["central.resolved_ratio"] = ratio(ctr("central.resolved"), calls("central.resolve"))
    for key in ("server.replay_s", "server.state_bytes", "wire.overhead_ms", "trace.overhead_s"):
        out[key] = 0.0
    return {k: out[k] for k in LAYER_METRICS}
