"""Scenario loading and execution.

A scenario file is JSON with an id and a list of runs. Each run builds one
world (devices, contact trace, scheme clients, a tracing server), optionally
installs an attack, schedules infection reports and feed syncs, drains the
event loop, and evaluates the configured analyses. The server queues a
centralized upload's notes in match order; the driver polls them right after
it. Feed syncs come in rounds at the same times for every device, so they
all read the feed up to one cursor: a round fetches one page and hands it to
the run's index, the only place a page enters, then syncs, in device order,
only the devices it can notify: those that recorded an identifier or token
hash the page brought, and those that recorded a published one since the
last round. A sync reads the index and would find nothing new on any other
device. Runs inside a scenario are independent worlds; they share only the
scenario seed, from which every run derives a labelled sub-stream. What
differs per scheme is stated once, in the SCHEMES table.

Each field of a scenario file is stated once, with its rule and default, in
a table that schema.check reads: SCENARIO for the file, RUN for a run,
DEVICE for a devices entry, EDGE, INFECTION and ANALYSIS for the parts of a
run, ATTACKS for each attack kind, and per scheme in SCHEMES, Scheme.config
for scheme_config and Scheme.claim for the fake-claim fields that scheme
reads, which ATTACK merges into that scheme's attack table. The rules that
span fields are in the tables too: EDGE, the toy group and the dh config
run the checks of ContactEdge, GroupParams.toy and DhConfig; a device id
and a run label may each be declared once; a relay's window may not end
before it starts. So every run is checked, cross-field rules included,
before any executes: a bad field raises FieldError naming its JSON path,
and load_scenario raises it as ScenarioError. A table names every key it
admits, at every level, so a key it does not name, such as a misspelled
field, is refused as an unknown field, not ignored.

Outputs per scenario: events.jsonl (every SimEvent of every run, tagged with
the run label; seq numbers each run's events 1, 2, ...) and metrics.json.
Identical (scenario, seed) pairs produce byte-identical outputs. Each event
is written as it is emitted, to events.jsonl.tmp, which becomes events.jsonl
when the last run has finished and before metrics.json is written; no run
holds its events. Without an out_dir a run's world gets no sink, so it
builds no event, and its metrics are those of a written run. A run that
raises leaves no new output behind.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from . import adversary
from .crypto_core import DAY_S, GroupParams
from .errors import FieldError, ScenarioError, UploadRejected
from .radio import ContactEdge, ContactTrace, DeviceClient, SimEvent, World
from .rng import SeedStream
from .schema import (Field, builds, check, clock, device, fault, has_role, natural, one_of,
                     positive, predicate, shown, tagged)
from .schemes.centralized import MODE_ANONYMOUS, MODE_PHONE, CentralizedClient, CentralRegistry
from .schemes.dh import DhClient, DhConfig, PublishedDhIndex, encode_proof
from .schemes.tek import PublishedTekIndex, TekClient
from .server import TracingServer

SYNC_DELAY_S = 60
ROLE_CLIENTS = {"sniffer": adversary.SnifferClient, "relay": adversary.RelayNode,
                "replayer": adversary.ReplayClient}
MODE = one_of((MODE_ANONYMOUS, MODE_PHONE), "mode")
SNIFFER = has_role("sniffer")

DEVICE = {"id": Field(str), "role": Field(one_of(("device", *ROLE_CLIENTS), "role"), "device"),
          "clock_offset_s": Field(clock(int), 0), "mode": Field(MODE, None),
          "phone": Field(str, None)}
EDGE = builds(("[a, b, start_s, end_s]", Field(device), Field(device), Field(clock(natural)),
               Field(clock(natural))), lambda edge: ContactEdge(*edge))
INFECTION = {"device": Field(has_role("device")), "report_at": Field(clock(natural))}
ANALYSIS = {"linkage": Field(bool, False), "colluding_sp": Field(bool, False),
            "social_graph": Field(bool, False),
            "superspreader_check": Field([has_role("device")], [])}
# a relay holds at most 8 live connections per relayed victim, as the radio does
FANOUT = predicate(lambda v, roles: type(v) is int and 0 <= v <= adversary.TWO_WAY_FANOUT_LIMIT,
                   f"expected an integer from 0 to {adversary.TWO_WAY_FANOUT_LIMIT}, got {{!r}}")
RELAY_WINDOW = ("[start_s, end_s]", Field(clock(natural)), Field(clock(natural)))


def _relay_window(value, at, roles):
    """A relay's [start_s, end_s]: it may be empty, but never ends before it starts."""
    start, end = check(value, RELAY_WINDOW, at, roles)
    if end < start:
        raise fault(at, f"end_s {end} is before start_s {start}")
    return [start, end]


# each kind's fields; _install_attack passes relay's and time_travel's but "kind" as
# keywords to RelayPair and TimeTravelAttack, so their names are those dataclasses' fields
ATTACKS = {
    "relay": {"node_a": Field(device), "node_b": Field(device),
              "mode": Field(one_of(("one_way_broadcast", "two_way_realtime"), "relay mode")),
              "window": Field(_relay_window),
              "latency_s": Field(clock(natural), 0), "tick_s": Field(clock(positive), 60),
              "fanout_limit": Field(FANOUT, adversary.TWO_WAY_FANOUT_LIMIT)},
    "time_travel": {"victim": Field(device), "replayer": Field(has_role("replayer")),
                    "offset_s": Field(clock(int)), "at_s": Field(clock(natural)),
                    "restore_at_s": Field(clock(natural))},
    "fake_claim": {"claimant": Field(device),
                   "at": Field(clock(natural))},    # plus the scheme's Scheme.claim
}


def load_scenario(path: str | Path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}")
    try:
        scenario = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc.msg}",
                            line=exc.lineno, column=exc.colno)
    except RecursionError:
        raise ScenarioError(f"scenario {path} is nested too deeply to parse")
    try:
        check(scenario, SCENARIO)
    except FieldError as exc:
        raise ScenarioError(f"scenario {path}: {exc}")
    return scenario


def _declare(value, at: tuple, roles: dict) -> dict:
    """A devices entry, "id" or a DEVICE object. Its role is recorded in
    roles, so that the RUN fields after devices can name the device."""
    dev = check({"id": value} if type(value) is str else value, DEVICE, at, roles)
    if dev["id"] in roles:
        raise fault(at, f"device {shown(dev['id'])} is declared twice")
    roles[dev["id"]] = dev["role"]
    return dev


class _CheckedRun(dict):
    """A run as _check_run returns it, which it need not check again. Only
    _check_run makes one."""


def _check_run(run_cfg: dict, at: tuple, _=None) -> _CheckedRun:
    """run_cfg with its defaults filled in, checked against RUN and then its
    scheme's config and attack tables; raises FieldError naming the JSON path
    of the first bad field. A run it returned before is returned as it is,
    so execute_run does not check again a run that run_scenario's check
    returned. As the rule of SCENARIO's runs, it ignores the walker's roles:
    each run declares its own devices."""
    if type(run_cfg) is _CheckedRun:
        return run_cfg
    roles = {}
    run = check(run_cfg, RUN, at, roles)
    scheme = run["scheme"]
    config = check(run["scheme_config"], SCHEMES[scheme].config, (*at, "scheme_config"))
    attack = run["attack"]
    if attack is not None:
        attack = check(attack, ATTACK[scheme], (*at, "attack"), roles)
    return _CheckedRun(run, scheme_config=config, attack=attack)


def _runs(value, at: tuple, _=None) -> list:
    """SCENARIO's runs: each checked by _check_run, and no label twice."""
    runs = check(value, [_check_run], at)
    labels = [run["label"] for run in runs]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise fault((*at, i, "label"), f"{shown(label)} names an earlier run too")
    return runs


@dataclass
class _RunState:
    world: World
    server: TracingServer
    scheme: str
    sconf: dict
    clients: dict[str, DeviceClient] = field(default_factory=dict)
    scheme_devices: list[str] = field(default_factory=list)
    reporters: set[str] = field(default_factory=set)
    notified: dict[str, int] = field(default_factory=dict)
    attack_stats: dict = field(default_factory=dict)
    superspreader: dict[str, dict] = field(default_factory=dict)
    tek_index: PublishedTekIndex = field(default_factory=PublishedTekIndex)
    dh_index: PublishedDhIndex = field(default_factory=PublishedDhIndex)


def execute_run(run_cfg: dict, stream: SeedStream,
                sink: Callable[[SimEvent], object] | None = None) -> dict:
    """Build and drain one run's world; returns the run's metrics. Its events
    go to sink as they are emitted; without one, no event is built."""
    run_cfg = _check_run(run_cfg, ("run",))
    scheme, sconf, attack = run_cfg["scheme"], run_cfg["scheme_config"], run_cfg["attack"]

    trace = ContactTrace([ContactEdge(*e) for e in run_cfg["contact_trace"]])
    capabilities = ("clock",) if attack and attack["kind"] == "time_travel" else ()
    world = World(trace, stream.child("world"),
                  link_rotation_s=sconf["rotation_s"], capabilities=capabilities,
                  irk_linkable=run_cfg["irk_linkable"], sink=sink)

    server = TracingServer(stream.child("server"), registry=SCHEMES[scheme].registry(sconf, stream),
                           retention_days=sconf["retention_days"])
    server.clock = lambda: world.now

    state = _RunState(world, server, scheme, sconf)
    _build_devices(run_cfg, state, stream)
    if attack:
        _install_attack(attack, state, stream)
    _schedule_reports(run_cfg, state)
    SCHEMES[scheme].start(run_cfg, state)

    world.run()
    return _collect_metrics(run_cfg, state)


def _build_devices(run_cfg: dict, state: _RunState, stream: SeedStream) -> None:
    scheme_client = SCHEMES[state.scheme].clients(state, stream)
    for dev in run_cfg["devices"]:
        did, role = dev["id"], dev["role"]
        client = ROLE_CLIENTS[role]() if role in ROLE_CLIENTS else scheme_client(dev)
        state.world.add_device(did, client, dev["clock_offset_s"])
        state.clients[did] = client
        if role == "device":
            state.scheme_devices.append(did)


def _dh_config(sconf: dict) -> DhConfig:
    group = sconf["group"]
    return DhConfig(rotation_s=sconf["rotation_s"], min_encounter_s=sconf["min_encounter_s"],
                    epsilon_s=sconf["epsilon_s"], anonymized_upload=sconf["anonymized_upload"],
                    superspreader_threshold=sconf["superspreader_threshold"],
                    group=(GroupParams.production() if group == "x25519"
                           else GroupParams.toy(group["p"], group["g"])))


def _dh_clients(state: _RunState, stream: SeedStream) -> Callable[[dict], DhClient]:
    cfg = _dh_config(state.sconf)
    return lambda dev: DhClient(stream.child(f"device:{dev['id']}"), cfg, state.dh_index)


def _start_centralized(run_cfg: dict, state: _RunState) -> None:
    # no feed syncs: _poll_notes reads what each upload matched
    for did in state.scheme_devices:
        state.clients[did].register()


def _notify(state: _RunState, device: str, **payload) -> None:
    state.notified[device] = state.notified.get(device, 0) + 1
    state.world.emit("notify", {"device": device, "scheme": state.scheme, **payload})


def _poll_notes(state: _RunState) -> None:
    for user_id in list(state.server.notifications):
        for note in state.server.notify_poll(user_id):
            _notify(state, note["device_id"], channel=note["channel"], cause=note["cause"])


def _install_attack(attack: dict, state: _RunState, stream: SeedStream) -> None:
    kind = attack["kind"]
    args = {key: value for key, value in attack.items() if key != "kind"}
    if kind == "relay":
        state.attack_stats = adversary.install_relay(state.world, adversary.RelayPair(**args))
    elif kind == "time_travel":
        state.attack_stats = adversary.install_time_travel(
            state.world, state.server, adversary.TimeTravelAttack(**args), state.scheme,
            state.tek_index)
    else:
        state.attack_stats = {}
        state.world.schedule(attack["at"], _run_claim, state, attack, stream)
    state.attack_stats["kind"] = kind


def _run_claim(state: _RunState, attack: dict, stream: SeedStream) -> None:
    state.reporters.add(attack["claimant"])
    state.attack_stats.update(SCHEMES[state.scheme].fake_claim(state, attack, stream))
    _poll_notes(state)


def _schedule_reports(run_cfg: dict, state: _RunState) -> None:
    for infection in run_cfg["infections"]:
        state.world.schedule(infection["report_at"], _report, state, infection["device"])


def _report(state: _RunState, device: str) -> None:
    state.reporters.add(device)
    tan = state.server.issue_tan(device)
    bundle = state.clients[device].make_report(tan.value)
    try:
        ack = state.server.accept_upload(bundle)
        _poll_notes(state)
        state.world.emit("report", {"device": device, "scheme": state.scheme,
                                    "entries": ack.get("published", ack.get("matched_users", 0)),
                                    "accepted": True})
    except UploadRejected as exc:
        state.world.emit("report", {"device": device, "scheme": state.scheme,
                                    "accepted": False, "reason": exc.reason})


def _schedule_syncs(run_cfg: dict, state: _RunState,
                    index: PublishedTekIndex | PublishedDhIndex) -> None:
    times = sorted({i["report_at"] + SYNC_DELAY_S for i in run_cfg["infections"]}
                   | {run_cfg["duration_s"]})
    order = {did: i for i, did in enumerate(state.scheme_devices)}
    cursor = 0

    def sync():
        # the round's page enters the run's index here and nowhere else; each
        # woken client's sync reads the index, and a device the round cannot
        # notify is not synced
        nonlocal cursor
        entries, cursor = state.server.fetch_feed(state.scheme, cursor)
        for did in sorted(index.wake(entries), key=order.__getitem__):
            for exposure in state.clients[did].sync():
                _notify(state, did, cause="exposure_match", detail=exposure.as_dict())

    for t in times:
        state.world.schedule(t, sync)


def _start_dh(run_cfg: dict, state: _RunState) -> None:
    _schedule_syncs(run_cfg, state, state.dh_index)
    if run_cfg["analysis"]["superspreader_check"]:
        # proven inside the run, after the final feed sync at the same time
        state.world.schedule(run_cfg["duration_s"], _check_superspreaders, run_cfg, state)


def _check_superspreaders(run_cfg: dict, state: _RunState) -> None:
    basis = SCHEMES[state.scheme].superspreader
    threshold = state.sconf["superspreader_threshold"]
    for did in run_cfg["analysis"]["superspreader_check"]:
        state.superspreader[did] = basis(state, did, threshold)


def _match_history_count(state: _RunState, did: str, threshold: int) -> dict:
    count = len({m["uploader_device"] for m in state.server.match_history
                 if m["contact_device"] == did})
    return {"warn": count >= threshold, "matches": count, "verified": count >= threshold,
            "basis": "server-side match history"}


def _client_count(state: _RunState, did: str, threshold: int) -> dict:
    count = state.notified.get(did, 0)     # each notification is one exposure
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

    config: dict | Callable     # the rule of scheme_config
    claim: dict         # the attack fields a fake claim reads beyond ATTACKS["fake_claim"]
    clients: Callable[[_RunState, SeedStream], Callable[[dict], DeviceClient]]
    fake_claim: Callable[[_RunState, dict, SeedStream], dict]
    start: Callable[[dict, _RunState], None]    # once devices, attack and reports are set up
    superspreader: Callable[[_RunState, str, int], dict]    # (state, device, threshold)
    owners: Callable[[_RunState], dict[bytes, str] | None]  # what public data attributes
    # the server's registry, from (scheme_config, stream)
    registry: Callable[[dict, SeedStream], CentralRegistry | None] = lambda sconf, stream: None


TOY_GROUP = builds({"p": Field(int), "g": Field(int)}, lambda g: GroupParams.toy(g["p"], g["g"]))


def _group(value, at: tuple, roles) -> str | dict:
    """"x25519", or a toy group's {"p", "g"}."""
    return value if value == "x25519" else check(value, TOY_GROUP, at)


# a centralized rotation_s: bluetrace issues each day's DAY_S // rotation_s identifiers
# as one batch, so it divides a day, and at least 60 s bounds a batch to 1,440
DAY_DIVISOR = predicate(lambda v, roles: type(v) is int and v >= 60 and DAY_S % v == 0,
                        "expected a positive integer of at least 60 that divides 86400, got {!r}")

# read by every scheme: the server's retention and the superspreader threshold
SHARED_CONFIG = {"retention_days": Field(positive, 14), "superspreader_threshold": Field(natural, 3)}

SCHEMES = {
    "centralized": Scheme(
        config={"rotation_s": Field(DAY_DIVISOR, 900), **SHARED_CONFIG,
                "variant": Field(one_of(("bluetrace", "pepp_pt"), "variant"), "bluetrace"),
                "mode": Field(MODE, MODE_ANONYMOUS)},
        claim={"source_sniffer": Field(SNIFFER)},
        registry=lambda sconf, stream: CentralRegistry(
            stream.child("registry"), variant=sconf["variant"], rotation_s=sconf["rotation_s"]),
        clients=lambda state, stream: lambda dev: CentralizedClient(
            state.server.registry, mode=dev["mode"] or state.sconf["mode"], phone=dev["phone"]),
        fake_claim=lambda state, attack, stream: adversary.fake_claim_centralized(
            state.server, attack["claimant"], state.clients[attack["source_sniffer"]].runs),
        start=_start_centralized, superspreader=_match_history_count, owners=lambda state: None),
    "tek": Scheme(
        config={"rotation_s": Field(positive, 600), **SHARED_CONFIG,
                "validity_window_s": Field(natural, 7200), "strict_freshness": Field(bool, False)},
        claim={},
        clients=lambda state, stream: lambda dev: TekClient(
            stream.child(f"device:{dev['id']}"), index=state.tek_index,
            validity_window_s=state.sconf["validity_window_s"],
            strict_freshness=state.sconf["strict_freshness"],
            retention_days=state.sconf["retention_days"]),
        fake_claim=lambda state, attack, stream: adversary.fake_claim_tek(
            state.server, state.world.local_time(attack["claimant"]), state.tek_index),
        start=lambda run_cfg, state: _schedule_syncs(run_cfg, state, state.tek_index),
        superspreader=_client_count, owners=_tek_owners),
    "dh": Scheme(
        # DhConfig holds the rules across fields: min_encounter_s below rotation_s
        config=builds({"rotation_s": Field(positive, 900), **SHARED_CONFIG,
                       "min_encounter_s": Field(natural, 300), "epsilon_s": Field(positive, 60),
                       "anonymized_upload": Field(bool, False), "group": Field(_group, "x25519")},
                      _dh_config),
        claim={"guesses": Field(natural, 32)},
        clients=_dh_clients,
        fake_claim=lambda state, attack, stream: adversary.fake_claim_dh(
            state.server, stream.child("attack"), guesses=attack["guesses"]),
        start=_start_dh, superspreader=_dh_proof, owners=lambda state: None),
}

# per scheme, the rule of a run's attack: ATTACKS, and the scheme's Scheme.claim in a fake claim
ATTACK = {name: tagged("kind", {**ATTACKS, "fake_claim": {**ATTACKS["fake_claim"],
                                                          **scheme.claim}}, "attack kind")
          for name, scheme in SCHEMES.items()}
RUN = {"label": Field(str), "scheme": Field(one_of(SCHEMES, "scheme")),
       "devices": Field([_declare]), "duration_s": Field(clock(natural)),
       "scheme_config": Field(dict, {}),    # checked against its scheme's config
       "contact_trace": Field([EDGE], []), "infections": Field([INFECTION], []),
       "attack": Field(dict, None),         # checked against its scheme's ATTACK
       "analysis": Field(ANALYSIS, {}), "irk_linkable": Field(bool, False)}
SCENARIO = {"id": Field(str), "description": Field(str, None), "seed": Field(int, 0),
            "runs": Field(_runs)}


def _sniffer_runs(state: _RunState) -> list[adversary.SnifferObservation]:
    # in no set order: neither analysis depends on it
    return [run for client in state.clients.values()
            if isinstance(client, adversary.SnifferClient) for run in client.runs]


def _collect_metrics(run_cfg: dict, state: _RunState) -> dict:
    trace = state.world.trace
    analysis = run_cfg["analysis"]
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

    if analysis["superspreader_check"]:
        if not state.superspreader:     # unless the scheme checked inside the run
            _check_superspreaders(run_cfg, state)
        metrics["superspreader"] = state.superspreader

    if analysis["linkage"] or analysis["social_graph"]:
        runs = _sniffer_runs(state)
        owners = SCHEMES[state.scheme].owners(state)

    rotation_s = state.sconf["rotation_s"]
    if analysis["linkage"]:
        registry, linkable = state.server.registry, owners
        if analysis["colluding_sp"] and registry is not None:
            # the provider attributes every identifier of every user it registered
            last = run_cfg["duration_s"] // rotation_s + 1
            linkable = {ident: f"user:{u}" for ident, u in registry.owners(0, last).items()}
        metrics["linkage"] = dict(adversary.run_linkage(runs, linkable),
                                  rotation_s=rotation_s)

    if analysis["social_graph"]:
        graph = adversary.run_social_graph(state.server, runs, owners)
        roles = {d["id"]: d["role"] for d in run_cfg["devices"]}
        truth = sorted(
            sorted((r, c)) for r in state.reporters
            for c in trace.contacts_of(r) if roles[c] == "device")
        graph["ground_truth_edges"] = truth
        graph["ground_truth_edge_count"] = len(truth)
        if state.server.registry is not None:
            recovered = {tuple(e) for e in graph["recovered_edges"]}
            graph["recovered_fraction"] = (
                len(recovered & {tuple(e) for e in truth}) / len(truth) if truth else 0.0)
        metrics["social_graph"] = graph

    return metrics


def run_scenario(scenario: dict, seed: int | None = None,
                 out_dir: str | Path | None = None) -> dict:
    """Execute every run of a scenario; optionally write events.jsonl and
    metrics.json under out_dir. Returns the metrics document. A field that
    breaks SCENARIO raises FieldError naming its JSON path before any run
    executes. Events are streamed to events.jsonl.tmp, renamed only once
    every run has finished; a run that raises deletes it, and out_dir if
    this call made it, and leaves what out_dir held untouched."""
    scenario = check(scenario, SCENARIO)
    sid = scenario["id"]
    seed = scenario["seed"] if seed is None else seed
    root = SeedStream(seed, sid)
    runs_metrics: dict[str, dict] = {}
    if out_dir is None:
        for run_cfg in scenario["runs"]:
            runs_metrics[run_cfg["label"]] = execute_run(run_cfg, root.child(run_cfg["label"]))
        return {"scenario": sid, "seed": seed, "runs": runs_metrics}

    out = Path(out_dir)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / "events.jsonl.tmp"
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            for run_cfg in scenario["runs"]:
                label = run_cfg["label"]
                runs_metrics[label] = execute_run(
                    run_cfg, root.child(label), lambda ev: fh.write(ev.to_json_line(label) + "\n"))
            if fh.tell() == 0:
                fh.write("\n")     # an empty log is one newline, as "\n".join([]) + "\n"
    except BaseException:
        tmp.unlink(missing_ok=True)
        if made:
            out.rmdir()     # made for this scenario, and empty again
        raise
    tmp.replace(out / "events.jsonl")
    metrics = {"scenario": sid, "seed": seed, "runs": runs_metrics}
    (out / "metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return metrics
