"""Scenario loading and execution.

A scenario file is JSON with an id and a list of runs. Each run builds one
world (devices, contact trace, scheme clients, a tracing server), optionally
installs an attack, schedules infection reports and feed syncs, drains the
event loop, and evaluates the configured analyses. Runs inside a scenario
are independent worlds; they share only the scenario seed, from which every
run derives a labelled sub-stream. What differs per scheme is stated once,
in the SCHEMES table.

Run fields:

    label          unique name within the scenario
    scheme         "centralized" | "tek" | "dh"
    scheme_config  per-scheme knobs (rotation_s, validity_window_s, ...)
    devices        ["id", ...] or {"id", "role", "clock_offset_s", "mode", "phone"}
                   role: device (default) | sniffer | relay | replayer
    contact_trace  [[a, b, start_s, end_s], ...] ground-truth co-location
    infections     [{"device", "report_at"}, ...]
    duration_s     run horizon; a final feed sync happens here
    attack         optional: relay | time_travel | fake_claim block
    analysis       optional: linkage / social_graph / superspreader_check flags

Outputs per scenario: events.jsonl (every SimEvent of every run, tagged with
the run label) and metrics.json. Identical (scenario, seed) pairs produce
byte-identical outputs.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from pathlib import Path

from . import adversary
from .crypto_core import GroupParams
from .errors import ScenarioError, UploadRejected
from .radio import ContactEdge, ContactTrace, DeviceClient, World
from .rng import SeedStream
from .schemes.centralized import CentralizedClient, CentralRegistry
from .schemes.dh import DhClient, DhConfig, encode_proof
from .schemes.tek import PublishedTekIndex, TekClient
from .server import TracingServer

SYNC_DELAY_S = 60
ROLE_CLIENTS = {"sniffer": adversary.SnifferClient, "relay": DeviceClient,
                "replayer": adversary.ReplayClient}
ATTACK_DEVICES = {"relay": ("node_a", "node_b"), "time_travel": ("victim", "replayer"),
                  "fake_claim": ("claimant", "source_sniffer")}
ATTACK_FIELDS = {"relay": ("node_a", "node_b", "mode", "window"),
                 "time_travel": ("victim", "replayer", "offset_s", "at_s", "restore_at_s"),
                 "fake_claim": ("claimant", "at")}    # plus the scheme's Scheme.claim_fields


def load_scenario(path: str | Path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}")
    try:
        scenario = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc.msg}",
                            line=exc.lineno, column=exc.colno)
    for key in ("id", "runs"):
        if key not in scenario:
            raise ScenarioError(f"scenario {path} is missing the {key!r} field")
    return scenario


def _normalize_devices(raw: list) -> list[dict]:
    out = []
    for entry in raw:
        if isinstance(entry, str):
            entry = {"id": entry}
        out.append({"id": entry["id"], "role": entry.get("role", "device"),
                    "clock_offset_s": entry.get("clock_offset_s", 0),
                    "mode": entry.get("mode"), "phone": entry.get("phone")})
    return out


def _check_run(run_cfg: dict, where: str) -> None:
    """Raise ScenarioError, naming the JSON path, for a missing field, an
    unknown scheme or attack kind, a contact, infection, superspreader
    check or attack that names a device the run does not declare, or a
    fake claim's source_sniffer that is not a sniffer."""
    for key in ("label", "scheme", "devices", "duration_s"):
        if key not in run_cfg:
            raise ScenarioError(f"{where} is missing the {key!r} field")
    if not isinstance(run_cfg["scheme"], str) or run_cfg["scheme"] not in SCHEMES:
        raise ScenarioError(f"{where}.scheme: unknown scheme {run_cfg['scheme']!r}")
    roles = {d["id"]: d["role"] for d in _normalize_devices(run_cfg["devices"])}
    named = []
    for i, edge in enumerate(run_cfg.get("contact_trace", [])):
        if not isinstance(edge, list) or len(edge) not in (4, 5):
            raise ScenarioError(
                f"{where}.contact_trace[{i}]: expected [a, b, start_s, end_s]")
        named += [(f"contact_trace[{i}][0]", edge[0]), (f"contact_trace[{i}][1]", edge[1])]
    for i, infection in enumerate(run_cfg.get("infections", [])):
        device = infection.get("device") if isinstance(infection, dict) else None
        named.append((f"infections[{i}].device", device))
    for i, device in enumerate(run_cfg.get("analysis", {}).get("superspreader_check", [])):
        named.append((f"analysis.superspreader_check[{i}]", device))
    attack = run_cfg.get("attack")
    if attack:
        kind = attack.get("kind") if isinstance(attack, dict) else None
        if not isinstance(kind, str) or kind not in ATTACK_DEVICES:
            raise ScenarioError(f"{where}.attack.kind: unknown attack kind {kind!r}")
        needed = ATTACK_FIELDS[kind]
        if kind == "fake_claim":
            needed += SCHEMES[run_cfg["scheme"]].claim_fields
        for key in needed:
            if key not in attack:
                raise ScenarioError(f"{where}.attack is missing the {key!r} field")
        named += [(f"attack.{key}", attack[key]) for key in ATTACK_DEVICES[kind] if key in attack]
    for path, device in named:
        if not isinstance(device, Hashable) or device not in roles:
            raise ScenarioError(f"{where}.{path}: unknown device {device!r}")
    sniffer = attack.get("source_sniffer") if attack and attack["kind"] == "fake_claim" else None
    if sniffer is not None and roles[sniffer] != "sniffer":
        raise ScenarioError(f"{where}.attack.source_sniffer: {sniffer!r} is not a sniffer")


@dataclass
class RunResult:
    label: str
    events: list
    metrics: dict


@dataclass
class _RunState:
    world: World
    server: TracingServer
    trace: ContactTrace
    scheme: str
    sconf: dict
    rotation_s: int
    clients: dict[str, DeviceClient] = field(default_factory=dict)
    scheme_devices: list[str] = field(default_factory=list)
    reporters: set[str] = field(default_factory=set)
    notified: dict[str, int] = field(default_factory=dict)
    exposures_by_device: dict[str, int] = field(default_factory=dict)
    cursors: dict[str, int] = field(default_factory=dict)
    attack_stats: dict = field(default_factory=dict)
    superspreader: dict[str, dict] = field(default_factory=dict)
    tek_index: PublishedTekIndex = field(default_factory=PublishedTekIndex)


def execute_run(run_cfg: dict, stream: SeedStream) -> RunResult:
    scheme = run_cfg["scheme"]
    sconf = run_cfg.get("scheme_config", {})
    rotation_s = sconf.get("rotation_s", SCHEMES[scheme].rotation_s)
    attack = run_cfg.get("attack")

    edges = [ContactEdge(*e) for e in run_cfg.get("contact_trace", [])]
    trace = ContactTrace(edges)
    capabilities = ("clock",) if attack and attack.get("kind") == "time_travel" else ()
    world = World(trace, stream.child("world"),
                  link_rotation_s=rotation_s, capabilities=capabilities,
                  irk_linkable=bool(run_cfg.get("irk_linkable", False)))

    registry = None
    if scheme == "centralized":
        registry = CentralRegistry(stream.child("registry"),
                                   variant=sconf.get("variant", "bluetrace"),
                                   rotation_s=rotation_s)
    server = TracingServer(stream.child("server"), registry=registry,
                           retention_days=sconf.get("retention_days", 14))
    server.clock = lambda: world.now

    state = _RunState(world, server, trace, scheme, sconf, rotation_s)
    _build_devices(run_cfg, state, stream)
    if attack:
        _install_attack(attack, state, stream)
    _schedule_reports(run_cfg, state)
    SCHEMES[scheme].start(run_cfg, state)

    world.run()

    return RunResult(run_cfg["label"], world.events, _collect_metrics(run_cfg, state))


def _build_devices(run_cfg: dict, state: _RunState, stream: SeedStream) -> None:
    scheme_client = SCHEMES[state.scheme].clients(state, stream)
    for dev in _normalize_devices(run_cfg["devices"]):
        did, role = dev["id"], dev["role"]
        client = ROLE_CLIENTS[role]() if role in ROLE_CLIENTS else scheme_client(dev)
        state.world.add_device(did, client, dev["clock_offset_s"])
        state.clients[did] = client
        if role == "device":
            state.scheme_devices.append(did)
            state.cursors[did] = 0


def _dh_clients(state: _RunState, stream: SeedStream) -> Callable[[dict], DhClient]:
    sconf = state.sconf
    group = sconf.get("group", "x25519")
    cfg = DhConfig(rotation_s=state.rotation_s,
                   min_encounter_s=sconf.get("min_encounter_s", 300),
                   epsilon_s=sconf.get("epsilon_s", 60),
                   superspreader_threshold=sconf.get("superspreader_threshold", 3),
                   anonymized_upload=sconf.get("anonymized_upload", False),
                   group=(GroupParams.production() if group == "x25519"
                          else GroupParams.toy(group["p"], group["g"])))
    return lambda dev: DhClient(stream.child(f"device:{dev['id']}"), cfg)


def _start_centralized(run_cfg: dict, state: _RunState) -> None:
    # no feed syncs: the server pushes notifications at upload time
    for did in state.scheme_devices:
        state.clients[did].register()
    # the server keeps this callback; closing over state would make the run a cycle
    notified, world = state.notified, state.world

    def on_notify(note: dict) -> None:
        device = note["device_id"]
        notified[device] = notified.get(device, 0) + 1
        world.emit("notify", {"device": device, "scheme": "centralized",
                              "channel": note["channel"], "cause": note["cause"]})

    state.server.on_notify = on_notify


def _install_attack(attack: dict, state: _RunState, stream: SeedStream) -> None:
    kind = attack["kind"]
    if kind == "relay":
        pair = adversary.RelayPair(node_a=attack["node_a"], node_b=attack["node_b"],
                                   mode=attack["mode"], window=tuple(attack["window"]),
                                   latency_s=attack.get("latency_s", 0),
                                   fanout_limit=attack.get("fanout_limit", 8),
                                   tick_s=attack.get("tick_s", 60))
        state.attack_stats = adversary.install_relay(state.world, pair)
        state.attack_stats["kind"] = "relay"
    elif kind == "time_travel":
        tt = adversary.TimeTravelAttack(victim=attack["victim"], replayer=attack["replayer"],
                                        offset_s=attack["offset_s"], at_s=attack["at_s"],
                                        restore_at_s=attack["restore_at_s"])
        state.attack_stats = adversary.install_time_travel(state.world, state.server,
                                                           tt, state.scheme, state.tek_index)
        state.attack_stats["kind"] = "time_travel"
    else:
        state.attack_stats = {"kind": "fake_claim"}

        def run_claim():
            state.reporters.add(attack["claimant"])
            state.attack_stats.update(SCHEMES[state.scheme].fake_claim(state, attack, stream))

        state.world.schedule(attack["at"], run_claim)


def _schedule_reports(run_cfg: dict, state: _RunState) -> None:
    for infection in run_cfg.get("infections", []):
        device = infection["device"]
        at = infection["report_at"]

        def report(device=device):
            state.reporters.add(device)
            tan = state.server.issue_tan(device)
            bundle = state.clients[device].make_report(tan.value)
            try:
                ack = state.server.accept_upload(bundle)
                state.world.emit("report", {"device": device, "scheme": state.scheme,
                                            "entries": ack.get("published",
                                                               ack.get("matched_users", 0)),
                                            "accepted": True})
            except UploadRejected as exc:
                state.world.emit("report", {"device": device, "scheme": state.scheme,
                                            "accepted": False, "reason": exc.reason})

        state.world.schedule(at, report)


def _schedule_syncs(run_cfg: dict, state: _RunState) -> None:
    times = sorted({i["report_at"] + SYNC_DELAY_S for i in run_cfg.get("infections", [])}
                   | {run_cfg["duration_s"]})

    def sync():
        for did in state.scheme_devices:
            client = state.clients[did]
            entries, cursor = state.server.fetch_feed(state.scheme, state.cursors[did])
            state.cursors[did] = cursor
            fresh = client.sync(entries, state.world.local_time(did))
            for exposure in fresh:
                state.notified[did] = state.notified.get(did, 0) + 1
                state.exposures_by_device[did] = state.exposures_by_device.get(did, 0) + 1
                state.world.emit("notify", {"device": did, "scheme": state.scheme,
                                            "cause": "exposure_match",
                                            "detail": exposure.as_dict()})

    for t in times:
        state.world.schedule(t, sync)


def _start_dh(run_cfg: dict, state: _RunState) -> None:
    _schedule_syncs(run_cfg, state)
    if run_cfg.get("analysis", {}).get("superspreader_check"):
        # proven inside the run, after the final feed sync at the same time
        state.world.schedule(run_cfg["duration_s"], lambda: _check_superspreaders(run_cfg, state))


def _check_superspreaders(run_cfg: dict, state: _RunState) -> None:
    basis = SCHEMES[state.scheme].superspreader
    threshold = state.sconf.get("superspreader_threshold", 3)
    for did in run_cfg["analysis"]["superspreader_check"]:
        state.superspreader[did] = basis(state, did, threshold)


def _match_history_count(state: _RunState, did: str, threshold: int) -> dict:
    count = len({m["uploader_device"] for m in state.server.match_history
                 if m["contact_device"] == did})
    return {"warn": count >= threshold, "matches": count, "verified": count >= threshold,
            "basis": "server-side match history"}


def _client_count(state: _RunState, did: str, threshold: int) -> dict:
    count = state.exposures_by_device.get(did, 0)
    return {"warn": count >= threshold, "matches": count, "verified": False,
            "basis": "client-side count, not provable"}


def _dh_proof(state: _RunState, did: str, threshold: int) -> dict:
    client = state.clients[did]
    result = client.superspreader_check()
    accepted = 0
    if result["proof"]:
        proof = encode_proof(result["proof"], client.cfg.group)
        accepted = state.server.verify_superspreader_proof(proof)
    return {"warn": result["warn"], "matches": result["matches"],
            "proof_accepted": accepted, "verified": accepted >= threshold}


def _tek_owners(state: _RunState) -> dict[bytes, str]:
    # a published daily key gives away all 144 of its identifiers
    index = state.tek_index
    index.ingest_all(state.server.fetch_feed("tek")[0])
    return {ident: f"tek:{tek_hex[:16]}" for ident, (tek_hex, _) in index.by_identifier.items()}


@dataclass(frozen=True)
class Scheme:
    """What the scenario driver does differently for one scheme family."""

    rotation_s: int     # when scheme_config names none
    clients: Callable[[_RunState, SeedStream], Callable[[dict], DeviceClient]]
    fake_claim: Callable[[_RunState, dict, SeedStream], dict]
    start: Callable[[dict, _RunState], None]    # once devices, attack and reports are set up
    superspreader: Callable[[_RunState, str, int], dict]    # (state, device, threshold)
    owners: Callable[[_RunState], dict[bytes, str] | None]  # what public data attributes
    claim_fields: tuple[str, ...] = ()    # attack fields the fake claim reads beyond ATTACK_FIELDS


SCHEMES = {
    "centralized": Scheme(
        rotation_s=900,
        clients=lambda state, stream: lambda dev: CentralizedClient(
            state.server.registry, mode=dev["mode"] or state.sconf.get("mode", "anonymous"),
            phone=dev["phone"]),
        fake_claim=lambda state, attack, stream: adversary.fake_claim_centralized(
            state.server, attack["claimant"], state.clients[attack["source_sniffer"]].observations),
        start=_start_centralized, superspreader=_match_history_count,
        owners=lambda state: None, claim_fields=("source_sniffer",)),
    "tek": Scheme(
        rotation_s=600,
        clients=lambda state, stream: lambda dev: TekClient(
            stream.child(f"device:{dev['id']}"), index=state.tek_index,
            validity_window_s=state.sconf.get("validity_window_s", 7200),
            strict_freshness=state.sconf.get("strict_freshness", False),
            retention_days=state.sconf.get("retention_days", 14)),
        fake_claim=lambda state, attack, stream: adversary.fake_claim_tek(
            state.server, state.world.local_time(attack["claimant"]), state.tek_index),
        start=_schedule_syncs, superspreader=_client_count, owners=_tek_owners),
    "dh": Scheme(
        rotation_s=900, clients=_dh_clients,
        fake_claim=lambda state, attack, stream: adversary.fake_claim_dh(
            state.server, stream.child("attack"), guesses=attack.get("guesses", 32)),
        start=_start_dh, superspreader=_dh_proof, owners=lambda state: None),
}


def _sniffer_observations(state: _RunState) -> list[adversary.SnifferObservation]:
    obs = []
    for did in sorted(state.clients):
        client = state.clients[did]
        if isinstance(client, adversary.SnifferClient):
            obs.extend(client.observations)
    obs.sort(key=lambda o: (o.at, o.sniffer_id, o.identifier))
    return obs


def _collect_metrics(run_cfg: dict, state: _RunState) -> dict:
    trace = state.trace
    analysis = run_cfg.get("analysis", {})
    notified = dict(sorted(state.notified.items()))
    false_devices = sorted(
        d for d in notified
        if not any(trace.has_any_contact(d, r) for r in state.reporters))
    metrics: dict = {
        "scheme": state.scheme,
        "notifications": notified,
        "notified_devices": sorted(notified),
        "false_notified_devices": false_devices,
        "false_notifications": len(false_devices),
        "true_notified_devices": sorted(set(notified) - set(false_devices)),
        "notify_events": sum(notified.values()),
        "reports": len(state.reporters),
        "connect_rejects_capacity": state.world.counters["connect_rejects_capacity"],
        "connect_rejects_range": state.world.counters["connect_rejects_range"],
    }
    if state.attack_stats:
        metrics["attack"] = state.attack_stats

    if analysis.get("superspreader_check"):
        if not state.superspreader:     # unless the scheme checked inside the run
            _check_superspreaders(run_cfg, state)
        metrics["superspreader"] = state.superspreader

    if analysis.get("linkage") or analysis.get("social_graph"):
        observations = _sniffer_observations(state)
        owners = SCHEMES[state.scheme].owners(state)

    if analysis.get("linkage"):
        registry, linkable = state.server.registry, owners
        if analysis.get("colluding_sp") and registry is not None:
            # the provider attributes every identifier of every user it registered
            last = run_cfg["duration_s"] // state.rotation_s + 1
            linkable = {ident: f"user:{u}" for ident, u in registry.owners(0, last).items()}
        report = adversary.run_linkage(observations, linkable)
        metrics["linkage"] = dict(report.as_dict(), rotation_s=state.rotation_s)

    if analysis.get("social_graph"):
        graph = adversary.run_social_graph(state.server, observations, owners)
        roles = {d["id"]: d["role"] for d in _normalize_devices(run_cfg["devices"])}
        truth = sorted(
            sorted((r, c)) for r in state.reporters
            for c in trace.contacts_of(r) if roles.get(c) == "device")
        graph["ground_truth_edges"] = truth
        graph["ground_truth_edge_count"] = len(truth)
        if state.scheme == "centralized":
            recovered = {tuple(e) for e in graph["recovered_edges"]}
            graph["recovered_fraction"] = (
                len(recovered & {tuple(e) for e in truth}) / len(truth) if truth else 0.0)
        metrics["social_graph"] = graph

    return metrics


def run_scenario(scenario: dict, seed: int | None = None,
                 out_dir: str | Path | None = None) -> dict:
    """Execute every run of a scenario; optionally write events.jsonl and
    metrics.json under out_dir. Returns the metrics document."""
    sid = scenario["id"]
    seed = scenario.get("seed", 0) if seed is None else seed
    root = SeedStream(seed, sid)
    for i, run_cfg in enumerate(scenario["runs"]):
        _check_run(run_cfg, f"runs[{i}]")
    lines: list[str] = []      # filled only when there is somewhere to write them
    runs_metrics: dict[str, dict] = {}
    for run_cfg in scenario["runs"]:
        result = execute_run(run_cfg, root.child(run_cfg["label"]))
        if out_dir is not None:
            lines.extend(ev.to_json_line(result.label) for ev in result.events)
        runs_metrics[result.label] = result.metrics
    metrics = {"scenario": sid, "seed": seed, "runs": runs_metrics}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "events.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (out / "metrics.json").write_text(
            json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return metrics
