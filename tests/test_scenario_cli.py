import gc
import json
import shutil
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dctlab import scenario as scenario_module
from dctlab.cli import STANDARD_SUITE, builtin_scenario, main, matrix_csv, quadrilemma
from dctlab.crypto_core import b64
from dctlab.errors import FieldError, ScenarioError
from dctlab.radio import World
from dctlab.scenario import execute_run, load_scenario, run_scenario
from dctlab.rng import SeedStream


def test_e2e_scenario_one_notification_per_scheme(tmp_path):
    metrics = run_scenario(builtin_scenario("e2e_basic"), out_dir=tmp_path)
    for label, run in metrics["runs"].items():
        assert run["notified_devices"] == ["bob"], label
        assert run["notify_events"] == 1, label
        assert run["false_notifications"] == 0, label
    assert (tmp_path / "events.jsonl").exists()
    assert (tmp_path / "metrics.json").exists()


def test_scenario_rerun_same_seed_identical(tmp_path):
    scenario = builtin_scenario("e2e_basic")
    run_scenario(scenario, seed=5, out_dir=tmp_path / "a")
    run_scenario(scenario, seed=5, out_dir=tmp_path / "b")
    assert (tmp_path / "a/events.jsonl").read_bytes() == (tmp_path / "b/events.jsonl").read_bytes()
    assert (tmp_path / "a/metrics.json").read_bytes() == (tmp_path / "b/metrics.json").read_bytes()
    run_scenario(scenario, seed=6, out_dir=tmp_path / "c")
    assert (tmp_path / "a/events.jsonl").read_bytes() != (tmp_path / "c/events.jsonl").read_bytes()


@pytest.mark.parametrize("scheme,config", [
    ("centralized", {"variant": "bluetrace"}),
    ("centralized", {"variant": "pepp_pt"}),
    ("tek", {}),
    ("dh", {"group": "x25519"}),
])
def test_completeness_across_rotation_boundary(scheme, config):
    # co-location longer than one rotation period always notifies
    run = {
        "label": "main", "scheme": scheme, "scheme_config": config,
        "devices": ["alice", "bob"],
        "contact_trace": [["alice", "bob", 0, 1000]],
        "infections": [{"device": "alice", "report_at": 1100}],
        "duration_s": 1300,
    }
    metrics = execute_run(run, SeedStream(3, "w"))
    assert "bob" in metrics["notified_devices"]
    assert metrics["false_notifications"] == 0


def test_clock_shift_flips_the_replay_outcome():
    # paired scenarios: the same replay succeeds only under the shifted clock
    scenario = builtin_scenario("time_travel")
    shifted = next(r for r in scenario["runs"] if r["label"] == "tek_default")
    with_shift = execute_run(shifted, SeedStream(61, "a"))
    assert with_shift["false_notifications"] == 1

    unshifted = json.loads(json.dumps(shifted))
    unshifted["attack"]["offset_s"] = 0
    without_shift = execute_run(unshifted, SeedStream(61, "a"))
    # with the victim's clock correct, nothing derived from the published
    # key is valid at replay time, so the attacker has nothing to replay
    assert without_shift["attack"]["armed"] is False
    assert without_shift["false_notifications"] == 0


def test_no_secret_bytes_in_any_artifact(tmp_path, monkeypatch):
    # every private key and encounter token the DH runs derive, in every window,
    # and every daily key a TEK client holds, is recorded as it is made; none may
    # appear in any artifact (the events a list sink collects, or the events.jsonl
    # and metrics.json written to disk) unless it is a daily key whose upload the
    # server accepted, which publishes it by design
    from dctlab.crypto_core import GroupParams, keygen
    from dctlab.schemes import dh as dh_mod
    from dctlab.schemes.tek import TekClient
    from dctlab.server import TracingServer
    secrets, token_windows, published = {}, set(), set()

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            made = fn(*args, **kwargs)
            secrets[made.secret] = name
            if name == "token":
                token_windows.add(made.window_index)
            return made
        return wrapped

    monkeypatch.setattr(dh_mod, "keygen", recording("key", dh_mod.keygen))
    monkeypatch.setattr(dh_mod, "dh_token", recording("token", dh_mod.dh_token))
    tek_for_day, accept_upload = TekClient.tek_for_day, TracingServer.accept_upload

    def recording_tek(client, day):
        tek = tek_for_day(client, day)
        secrets[tek.bytes] = "tek"
        return tek

    def accepting(server, bundle):
        ack = accept_upload(server, bundle)
        published.update(bytes.fromhex(t["tek_hex"]) for t in bundle.get("teks", ()))
        return ack

    monkeypatch.setattr(TekClient, "tek_for_day", recording_tek)
    monkeypatch.setattr(TracingServer, "accept_upload", accepting)

    blobs = {}
    # e2e_basic's handshake, relay_dh's relayed windows, superspreader's proof;
    # linkage_tek's and time_travel's daily keys, some published and some not
    for sid in ("e2e_basic", "relay_dh", "superspreader", "linkage_tek", "time_travel"):
        scenario = builtin_scenario(sid)
        root = SeedStream(scenario["seed"], sid)
        written = run_scenario(scenario, out_dir=tmp_path / sid)
        for name in ("events.jsonl", "metrics.json"):
            blobs[f"{sid}/{name}"] = (tmp_path / sid / name).read_bytes()
        for run_cfg in scenario["runs"]:
            events = []
            metrics = execute_run(run_cfg, root.child(run_cfg["label"]), events.append)
            assert written["runs"][run_cfg["label"]] == metrics
            # an empty log would pass the scan below with nothing checked
            assert any(e.kind == "message" for e in events) or run_cfg["scheme"] != "dh"
            blobs[f"{sid}/{run_cfg['label']} list sink"] = \
                "\n".join(e.to_json_line() for e in events).encode()

    # the recording sees keys and tokens of several windows, the first one's included
    kinds = list(secrets.values())
    assert kinds.count("key") > 10 and kinds.count("token") > 10 and len(token_windows) > 1
    # the daily keys are scanned for, and some are published and exempt
    unpublished = {k for k, kind in secrets.items() if kind == "tek"} - published
    assert len(unpublished) > 5 and published and published <= set(secrets)
    assert any(k.hex().encode() in blob for k in published for blob in blobs.values())
    scenario = builtin_scenario("e2e_basic")
    run_cfg = next(r for r in scenario["runs"] if r["scheme"] == "dh")
    first = SeedStream(scenario["seed"], "e2e_basic").child(run_cfg["label"])
    for device in ("alice", "bob"):
        assert keygen(GroupParams.production(),
                      first.child(f"device:{device}").child("key:0")).secret in secrets

    for secret, kind in secrets.items():
        if secret in published:
            continue
        for form in (secret, secret.hex().encode(), secret.hex().upper().encode(),
                     b64(secret).encode()):
            for name, blob in blobs.items():
                assert form not in blob, (kind, name)


def test_clock_set_back_past_every_retained_key_runs_to_the_end(tmp_path):
    # the victim advertises on day 1, then its clock goes back to day 0 while
    # it keeps one day of keys: day 0's key is pruned as soon as it is made
    scenario = builtin_scenario("time_travel")
    run = next(r for r in scenario["runs"] if r["label"] == "tek_default")
    run["scheme_config"] = {"retention_days": 1}
    run["contact_trace"].append(["friend", "mark", 86500, 86700])
    scenario["runs"] = [run]
    path = tmp_path / "retention_1.json"
    path.write_text(json.dumps(scenario))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    metrics = json.loads((tmp_path / "out/metrics.json").read_text())
    assert metrics["runs"]["tek_default"]["attack"]["armed"] is True


def test_load_scenario_malformed_json_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"id": "x",\n  "runs": [}\n')
    with pytest.raises(ScenarioError) as err:
        load_scenario(bad)
    assert err.value.line == 2
    assert err.value.column is not None


@pytest.mark.parametrize("content, problem", [
    (b'{"id": "\xff"}', "cannot read scenario .*can't decode byte 0xff"),
    (b"[" * 100_000, "nested too deeply"),
], ids=["not-utf8", "too-deep"])
def test_load_scenario_undecodable_file_is_a_scenario_error(tmp_path, capsys, content, problem):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    with pytest.raises(ScenarioError, match=problem):
        load_scenario(bad)
    assert main(["--scenario", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_load_scenario_missing_fields(tmp_path):
    p = tmp_path / "incomplete.json"
    p.write_text('{"id": "x"}')
    with pytest.raises(ScenarioError, match="runs"):
        load_scenario(p)


def test_cli_run_smoke_and_exit_codes(tmp_path, capsys):
    scenario_path = tmp_path / "smoke.json"
    scenario_path.write_text(json.dumps({
        "id": "smoke", "seed": 1,
        "runs": [{"label": "main", "scheme": "tek", "scheme_config": {},
                  "devices": ["a", "b"], "contact_trace": [["a", "b", 0, 600]],
                  "infections": [{"device": "a", "report_at": 650}],
                  "duration_s": 800}]}))
    assert main(["--scenario", str(scenario_path), "--out", str(tmp_path / "out")]) == 0
    metrics = json.loads((tmp_path / "out/metrics.json").read_text())
    assert metrics["runs"]["main"]["notified_devices"] == ["b"]

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["--scenario", str(bad), "--out", str(tmp_path / "out2")]) == 2
    err = capsys.readouterr().err
    assert "line" in err

    assert main([]) == 2


SMOKE_RUN = {"label": "main", "scheme": "dh", "scheme_config": {},
             "devices": ["a", "b", {"id": "s", "role": "sniffer"}, {"id": "r", "role": "replayer"}],
             "contact_trace": [["a", "b", 0, 600], ["a", "s", 0, 600]],
             "infections": [{"device": "a", "report_at": 650}],
             "analysis": {"superspreader_check": ["b"]},
             "duration_s": 800}


@pytest.mark.parametrize("field, value, expected", [
    ("scheme", "pigeon", "runs[1].scheme"),
    ("contact_trace", [["a", "b", 0, 600], ["zz", "a", 0, 60]], "runs[1].contact_trace[1][0]"),
    ("contact_trace", [["a", "b", 0, 600], ["a", "zz", 0, 600]], "runs[1].contact_trace[1][1]"),
    ("contact_trace", [["a", "b", 0]], "runs[1].contact_trace[0]"),
    ("infections", [{"device": "a", "report_at": 1}, {"device": "zz", "report_at": 5}],
     "runs[1].infections[1].device"),
    ("analysis", {"superspreader_check": ["b", "zz"]}, "runs[1].analysis.superspreader_check[1]"),
    ("duration_s", None, "runs[1] is missing the 'duration_s' field"),
    ("contact_trace", [["a", "a", 0, 600]], "endpoints must differ"),
    ("scheme_config", {"rotation_s": 300, "min_encounter_s": 300}, "min_encounter_s"),
    ("attack", {"kind": "teleport", "at": 100}, "runs[1].attack.kind: unknown attack kind"),
    ("attack", {"kind": "fake_claim", "claimant": "zz", "at": 100},
     "runs[1].attack.claimant: unknown device 'zz'"),
    (("scheme", "attack"), ("centralized", {"kind": "fake_claim", "claimant": "a",
                                            "source_sniffer": "zz", "at": 100}),
     "runs[1].attack.source_sniffer: unknown device 'zz'"),
    ("attack", {"kind": "relay", "mode": "one_way_broadcast", "node_a": "zz", "node_b": "b",
                "window": [0, 600]}, "runs[1].attack.node_a: unknown device 'zz'"),
    ("attack", {"kind": "relay", "mode": "one_way_broadcast", "node_a": "a", "node_b": "zz",
                "window": [0, 600]}, "runs[1].attack.node_b: unknown device 'zz'"),
    ("attack", {"kind": "time_travel", "victim": "zz", "replayer": "r", "offset_s": -60,
                "at_s": 100, "restore_at_s": 200}, "runs[1].attack.victim: unknown device 'zz'"),
    ("attack", {"kind": "time_travel", "victim": "a", "replayer": "zz", "offset_s": -60,
                "at_s": 100, "restore_at_s": 200}, "runs[1].attack.replayer: unknown device 'zz'"),
    ("attack", {"kind": "relay", "node_b": "b", "mode": "one_way_broadcast", "window": [0, 600]},
     "runs[1].attack is missing the 'node_a' field"),
    ("attack", {"kind": "relay", "node_a": "a", "node_b": "b", "window": [0, 600]},
     "runs[1].attack is missing the 'mode' field"),
    ("attack", {"kind": "relay", "node_a": "a", "node_b": "b", "mode": "one_way_broadcast"},
     "runs[1].attack is missing the 'window' field"),
    ("attack", {"kind": "time_travel", "victim": "a", "replayer": "r", "at_s": 100,
                "restore_at_s": 200}, "runs[1].attack is missing the 'offset_s' field"),
    ("attack", {"kind": "time_travel", "victim": "a", "replayer": "r", "offset_s": -60,
                "restore_at_s": 200}, "runs[1].attack is missing the 'at_s' field"),
    ("attack", {"kind": "time_travel", "victim": "a", "replayer": "r", "offset_s": -60,
                "at_s": 100}, "runs[1].attack is missing the 'restore_at_s' field"),
    ("attack", {"kind": "fake_claim", "at": 100}, "runs[1].attack is missing the 'claimant' field"),
    ("attack", {"kind": "fake_claim", "claimant": "a"}, "runs[1].attack is missing the 'at' field"),
    (("scheme", "attack"), ("centralized", {"kind": "fake_claim", "claimant": "a", "at": 100}),
     "runs[1].attack is missing the 'source_sniffer' field"),
    (("scheme", "attack"), ("centralized", {"kind": "fake_claim", "claimant": "a",
                                            "source_sniffer": "b", "at": 100}),
     "runs[1].attack.source_sniffer: 'b' is not a sniffer"),
    ("devices", ["a", "b", {"id": "s", "role": "sniffer"}, {"role": "relay"}],
     "runs[1].devices[3] is missing the 'id' field"),
    ("duration_s", "86400", "runs[1].duration_s: expected a non-negative integer"),
    ("contact_trace", [["a", "b", "0", 600]], "runs[1].contact_trace[0][2]: expected"),
    ("infections", [{"device": "a", "report_at": "650"}], "runs[1].infections[0].report_at"),
    (("scheme", "scheme_config"), ("tek", {"rotation_s": 0}),
     "runs[1].scheme_config.rotation_s: expected a positive integer"),
    (("scheme", "scheme_config"), ("centralized", {"rotation_s": 0}),
     "runs[1].scheme_config.rotation_s: expected a positive integer"),
    ("attack", {"kind": "fake_claim", "claimant": "a", "at": "100"}, "runs[1].attack.at"),
    ("attack", {"kind": "relay", "mode": "one_way_broadcast", "node_a": "a", "node_b": "b",
                "window": 5}, "runs[1].attack.window: expected [start_s, end_s]"),
    ("scheme_config", [], "runs[1].scheme_config: expected an object"),
    ("analysis", [], "runs[1].analysis: expected an object"),
    ("label", 5, "runs[1].label: expected a string"),
    ("scheme_config", {"group": "p256"}, "runs[1].scheme_config.group"),
    (("scheme", "scheme_config"), ("centralized", {"variant": "x"}),
     "runs[1].scheme_config.variant: unknown variant 'x'"),
    ("devices", ["a", "b", {"id": "s", "role": "wizard"}], "runs[1].devices[2].role: unknown role"),
    ("infections", [{"device": "s", "report_at": 650}], "runs[1].infections[0].device: 's' is not"),
    (("devices", "infections"),
     (["a", "b", {"id": "s", "role": "sniffer"}, {"id": "r", "role": "relay"}],
      [{"device": "r", "report_at": 650}]),
     "runs[1].infections[0].device: 'r' is not a device"),
    ("analysis", {"superspreader_check": ["s"]},
     "runs[1].analysis.superspreader_check[0]: 's' is not a device"),
    ("label", "main", "runs[1].label: 'main' names an earlier run too"),
    (("scheme", "scheme_config"), ("centralized", {"rotation_s": 90000}),
     "runs[1].scheme_config.rotation_s: expected a positive integer of at least 60 that "
     "divides 86400, got 90000"),
    (("scheme", "scheme_config"), ("centralized", {"rotation_s": 1000}),
     "runs[1].scheme_config.rotation_s: expected a positive integer of at least 60"),
    (("scheme", "scheme_config"), ("centralized", {"rotation_s": 30}),
     "runs[1].scheme_config.rotation_s: expected a positive integer of at least 60"),
    (("scheme", "scheme_config"), ("centralized", {"rotation_s": 1}),
     "runs[1].scheme_config.rotation_s: expected a positive integer of at least 60"),
    ("contact_trace", [["a", "b", 0, 600], ["a", "b", 600, 900, "near"]],
     "runs[1].contact_trace[1]: expected [a, b, start_s, end_s]"),
    # a key that no table names, such as a misspelled field, is refused, not ignored
    ("/bogus", 1, ".json: bogus: unknown field"),
    ("durration_s", 800, "runs[1].durration_s: unknown field"),
    ("scheme_config", {"rotaton_s": 1800}, "runs[1].scheme_config.rotaton_s: unknown field"),
    (("scheme", "scheme_config"), ("tek", {"rotaton_s": 900}),
     "runs[1].scheme_config.rotaton_s: unknown field"),
    (("scheme", "scheme_config"), ("centralized", {"varaint": "pepp_pt"}),
     "runs[1].scheme_config.varaint: unknown field"),
    ("scheme_config", {"group": {"p": 23, "g": 5, "q": 11}},
     "runs[1].scheme_config.group.q: unknown field"),
    ("devices", ["a", "b", {"id": "s", "role": "sniffer", "clock_ofset_s": 60}],
     "runs[1].devices[2].clock_ofset_s: unknown field"),
    ("infections", [{"device": "a", "report_at": 650, "at": 700}],
     "runs[1].infections[0].at: unknown field"),
    ("analysis", {"socail_graph": True}, "runs[1].analysis.socail_graph: unknown field"),
    ("attack", {"kind": "relay", "mode": "one_way_broadcast", "node_a": "a", "node_b": "b",
                "window": [0, 600], "latency": 30}, "runs[1].attack.latency: unknown field"),
    ("attack", {"kind": "time_travel", "victim": "a", "replayer": "r", "offset_s": -60,
                "at_s": 100, "restore_at_s": 200, "restore_s": 300},
     "runs[1].attack.restore_s: unknown field"),
    ("attack", {"kind": "fake_claim", "claimant": "a", "at": 100, "guess": 4},
     "runs[1].attack.guess: unknown field"),
    (("scheme", "attack"), ("tek", {"kind": "fake_claim", "claimant": "a", "at": 100,
                                    "guesses": 4}),
     "runs[1].attack.guesses: unknown field"),
    # only a centralized fake claim reads a sniffer's observations
    ("attack", {"kind": "fake_claim", "claimant": "a", "source_sniffer": "s", "at": 100},
     "runs[1].attack.source_sniffer: unknown field"),
    (("scheme", "attack"), ("tek", {"kind": "fake_claim", "claimant": "a",
                                    "source_sniffer": "s", "at": 100}),
     "runs[1].attack.source_sniffer: unknown field"),
    # a relayed victim holds at most 8 live connections: more is refused, not clamped
    ("attack", {"kind": "relay", "mode": "two_way_realtime", "node_a": "a", "node_b": "b",
                "window": [0, 600], "fanout_limit": 9},
     "runs[1].attack.fanout_limit: expected an integer from 0 to 8, got 9"),
    # a time-travel replayer beacons what the attack arms it with: a plain device would not
    ("attack", {"kind": "time_travel", "victim": "a", "replayer": "b", "offset_s": -60,
                "at_s": 100, "restore_at_s": 200},
     "runs[1].attack.replayer: 'b' is not a replayer"),
])
def test_cli_bad_run_exits_2_naming_the_fault(tmp_path, capsys, field, value, expected):
    bad_run = dict(SMOKE_RUN, label="bad")
    document = {"id": "bad_run", "seed": 1, "runs": [SMOKE_RUN, bad_run]}
    if value is None:
        del bad_run[field]
    elif isinstance(field, tuple):
        bad_run.update(zip(field, value))
    elif field.startswith("/"):     # a key of the scenario document, not of its bad run
        document[field[1:]] = value
    else:
        bad_run[field] = value
    scenario_path = tmp_path / "bad_run.json"
    scenario_path.write_text(json.dumps(document))
    assert main(["--scenario", str(scenario_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad, expected", [
    ({"contact_trace": [["a", "b", 0, 600], ["a", "a", 0, 600]]},
     r"runs\[1\]\.contact_trace\[1\]: contact edge endpoints must differ"),
    ({"contact_trace": [["a", "b", 600, 600]]},
     r"runs\[1\]\.contact_trace\[0\]: contact edge interval is empty"),
    ({"scheme_config": {"group": {"p": 8, "g": 3}}},
     r"runs\[1\]\.scheme_config\.group: toy-modp modulus 8 is not prime"),
    ({"scheme_config": {"group": {"p": 23, "g": 22}}},
     r"runs\[1\]\.scheme_config\.group: generator must generate a subgroup of order > 2"),
    ({"scheme_config": {"rotation_s": 300, "min_encounter_s": 300}},
     r"runs\[1\]\.scheme_config: min_encounter_s must be below rotation_s"),
    ({"devices": ["a", "b", {"id": "s", "role": "sniffer"}, {"id": "a", "role": "relay"}]},
     r"runs\[1\]\.devices\[3\]: device 'a' is declared twice"),
    # a reversed window would raise from inside the run (two-way) or copy nothing (one-way)
    ({"attack": {"kind": "relay", "mode": "two_way_realtime", "node_a": "a", "node_b": "s",
                 "window": [600, 0]}},
     r"runs\[1\]\.attack\.window: end_s 0 is before start_s 600"),
    ({"attack": {"kind": "relay", "mode": "one_way_broadcast", "node_a": "a", "node_b": "s",
                 "window": [300, 299]}},
     r"runs\[1\]\.attack\.window: end_s 299 is before start_s 300"),
])
def test_cross_field_rules_are_checked_before_any_run_executes(monkeypatch, bad, expected):
    executed = []
    monkeypatch.setattr(scenario_module, "execute_run",
                        lambda run, stream: executed.append(run["label"]))
    with pytest.raises(FieldError, match=f"^{expected}$"):
        run_scenario({"id": "cross", "runs": [SMOKE_RUN, dict(SMOKE_RUN, label="bad", **bad)]})
    assert executed == []


_TIME_TRAVEL = {"kind": "time_travel", "victim": "a", "replayer": "r", "offset_s": -60,
                "at_s": 100, "restore_at_s": 200}
_RELAY = {"kind": "relay", "mode": "one_way_broadcast", "node_a": "a", "node_b": "s",
          "window": [0, 600]}
_TOO_BIG = r"expected a magnitude below 2\*\*60, got "


@pytest.mark.parametrize("bad, at", [
    ({"devices": ["a", "b", {"id": "s", "role": "sniffer", "clock_offset_s": 2**63}]},
     r"devices\[2\]\.clock_offset_s"),
    ({"devices": ["a", "b", {"id": "s", "role": "sniffer", "clock_offset_s": 10**30}]},
     r"devices\[2\]\.clock_offset_s"),
    ({"devices": ["a", "b", {"id": "s", "role": "sniffer", "clock_offset_s": -2**63}]},
     r"devices\[2\]\.clock_offset_s"),
    ({"attack": dict(_TIME_TRAVEL, offset_s=2**63)}, r"attack\.offset_s"),
    ({"attack": dict(_TIME_TRAVEL, offset_s=-10**30)}, r"attack\.offset_s"),
    ({"attack": dict(_TIME_TRAVEL, at_s=2**60)}, r"attack\.at_s"),
    ({"attack": dict(_TIME_TRAVEL, restore_at_s=10**30)}, r"attack\.restore_at_s"),
    ({"contact_trace": [["a", "b", 10**30, 10**30 + 600]]}, r"contact_trace\[0\]\[2\]"),
    ({"contact_trace": [["a", "b", 0, 2**60]]}, r"contact_trace\[0\]\[3\]"),
    ({"duration_s": 2**63}, r"duration_s"),
    ({"infections": [{"device": "a", "report_at": 10**30}]}, r"infections\[0\]\.report_at"),
    ({"attack": dict(_RELAY, window=[0, 2**60])}, r"attack\.window\[1\]"),
    ({"attack": dict(_RELAY, latency_s=2**60)}, r"attack\.latency_s"),
    ({"attack": dict(_RELAY, tick_s=2**60)}, r"attack\.tick_s"),
    ({"attack": {"kind": "fake_claim", "claimant": "a", "at": 10**30}}, r"attack\.at"),
])
def test_times_that_reach_a_clock_are_bounded_before_any_run_executes(monkeypatch, bad, at):
    executed = []
    monkeypatch.setattr(scenario_module, "execute_run",
                        lambda run, stream: executed.append(run["label"]))
    with pytest.raises(FieldError, match=rf"^runs\[1\]\.{at}: {_TOO_BIG}-?\d+$"):
        run_scenario({"id": "clock", "runs": [SMOKE_RUN, dict(SMOKE_RUN, label="bad", **bad)]})
    assert executed == []


@pytest.mark.parametrize("offset, notified", [(2**60 - 1, ["b"]), (1 - 2**60, [])])
def test_tek_run_at_an_extreme_clock_offset_runs_to_the_end(offset, notified):
    # every local time is offset, so the sighting log holds times near 2**60 or
    # below 0; a clock before 0 dates keys to negative days, which no feed takes
    devices = [{"id": "a", "clock_offset_s": offset}, {"id": "b", "clock_offset_s": offset}]
    run = {"label": "main", "scheme": "tek", "devices": devices, "duration_s": 800,
           "contact_trace": [["a", "b", 0, 600]], "infections": [{"device": "a", "report_at": 650}]}
    metrics = run_scenario({"id": "clock", "runs": [run]})["runs"]["main"]
    assert metrics["reports"] == 1
    assert metrics["notified_devices"] == notified
    assert metrics["false_notifications"] == 0


@pytest.mark.parametrize("text", ["5", "null", "[]", '"runs"'])
def test_scenario_file_that_is_not_an_object_is_a_scenario_error(tmp_path, capsys, text):
    path = tmp_path / "odd.json"
    path.write_text(text)
    with pytest.raises(ScenarioError, match=r": the input: expected an object, got "):
        load_scenario(path)
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: scenario {path}: the input: expected")


class _UnreadableResource:
    """A package resource that cannot be read, as in a package installed
    without its data files."""

    name = "unreadable.json"

    def __truediv__(self, child):
        return self

    def read_bytes(self):
        raise FileNotFoundError("no such resource")


def test_unreadable_bundled_scenario_exits_2(monkeypatch, tmp_path, capsys):
    from dctlab import cli
    monkeypatch.setattr(cli.resources, "files", lambda package: _UnreadableResource())
    assert main(["--suite", "standard", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read bundled scenario relay_centralized")


def test_duplicate_run_labels_are_rejected_before_any_run_executes(monkeypatch):
    executed = []
    monkeypatch.setattr(scenario_module, "execute_run",
                        lambda run, stream: executed.append(run["label"]))
    runs = [SMOKE_RUN, dict(SMOKE_RUN, label="other"), SMOKE_RUN]
    with pytest.raises(FieldError, match=r"^runs\[2\]\.label: 'main' names an earlier run too$"):
        run_scenario({"id": "twins", "runs": runs})
    assert executed == []


def test_run_scenario_checks_each_run_once(monkeypatch, tmp_path):
    """The scenario's check checks every run, and execute_run does not check
    again a run that check returned; a run handed to it directly is checked,
    and a checked scenario passes the check again unchanged."""
    checked = []
    real = scenario_module.check

    def counting(value, rule, *args):
        if rule is scenario_module.RUN:
            checked.append(value["label"])
        return real(value, rule, *args)

    scenario = builtin_scenario("e2e_basic")
    labels = [run["label"] for run in scenario["runs"]]
    monkeypatch.setattr(scenario_module, "check", counting)
    run_scenario(scenario)
    assert checked == labels
    checked.clear()
    run_scenario(scenario, out_dir=tmp_path)
    assert checked == labels
    checked.clear()
    execute_run(scenario["runs"][0], SeedStream(1, "direct"))
    assert checked == labels[:1]
    with pytest.raises(FieldError, match=r"^run\.duration_s: "):
        execute_run(dict(scenario["runs"][0], duration_s=-1), SeedStream(1, "direct"))
    once = counting(scenario, scenario_module.SCENARIO)
    checked.clear()
    assert counting(once, scenario_module.SCENARIO) == once
    assert checked == []


def _slots(value, at=()):
    """The path of every key and list position inside value."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    out = []
    for key, item in items:
        out.append((*at, key))
        out += _slots(item, (*at, key))
    return out


def _strings(value):
    """Every string inside value."""
    if isinstance(value, str):
        return {value}
    items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    return set().union(*map(_strings, items))


# integers stay at or below 10**5: a valid end_s of 10**12 simulates ~10**11 scan ticks
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-10**5, 10**5),
                 st.floats(-1e5, 1e5, allow_nan=False), st.text(max_size=4),
                 st.lists(st.integers(-10**5, 10**5), max_size=4),
                 st.dictionaries(st.text(max_size=3), st.integers(0, 10**5), max_size=2))


@st.composite
def mutated_scenario(draw):
    """A bundled scenario with one to three fields dropped, swapped for junk,
    or renamed to another name the scenario uses (or to a new one)."""
    doc = builtin_scenario(draw(st.sampled_from(STANDARD_SUITE)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.sampled_from(_slots(doc)))
        parent = reduce(getitem, at[:-1], doc)
        how = draw(st.sampled_from(["drop", "junk", "rename"]))
        if how == "drop":
            del parent[at[-1]]
        elif how == "junk" or not isinstance(parent[at[-1]], str):
            parent[at[-1]] = draw(JUNK)
        else:
            parent[at[-1]] = draw(st.sampled_from(sorted(_strings(doc) | {"zz"})))
    return doc


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_scenario())
def test_mutated_scenario_exits_2_or_runs_deterministically(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.json"
        path.write_text(json.dumps(doc))
        code = main(["--scenario", str(path), "--out", f"{tmp}/a"])
        assert code in (0, 2)
        if code == 0:
            assert main(["--scenario", str(path), "--out", f"{tmp}/b"]) == 0
            assert (Path(tmp, "a/metrics.json").read_bytes()
                    == Path(tmp, "b/metrics.json").read_bytes())


def test_finished_runs_are_freed_without_the_cycle_collector():
    # the superspreader scenario runs all three schemes; a run caught in a
    # reference cycle keeps its world, events included, until a full collection
    def worlds():
        return sum(isinstance(o, World) for o in gc.get_objects())

    gc.disable()
    try:
        before = worlds()
        run_scenario(builtin_scenario("superspreader"))
        assert worlds() == before
    finally:
        gc.enable()


def test_cli_outputs_identical_across_processes(tmp_path):
    import subprocess
    import sys
    from importlib import resources
    with resources.as_file(resources.files("dctlab") / "scenarios" / "e2e_basic.json") as p:
        scenario_path = str(p)
        for sub in ("a", "b"):
            proc = subprocess.run(
                [sys.executable, "-m", "dctlab.cli", "--scenario", scenario_path,
                 "--out", str(tmp_path / sub)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
    assert ((tmp_path / "a/events.jsonl").read_bytes()
            == (tmp_path / "b/events.jsonl").read_bytes())
    assert ((tmp_path / "a/metrics.json").read_bytes()
            == (tmp_path / "b/metrics.json").read_bytes())


def test_matrix_requires_all_outputs(tmp_path, capsys):
    assert main(["--matrix", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    for sid in STANDARD_SUITE:
        assert sid in err


@pytest.mark.parametrize("argv", [
    lambda tmp: ["--scenario", str(tmp / "e2e_basic.json"), "--out", str(tmp / "FILE")],
    lambda tmp: ["--suite", "standard", "--out", str(tmp / "FILE" / "x")],
], ids=["out-is-a-file", "out-inside-a-file"])
def test_an_out_that_cannot_be_made_exits_2_and_writes_nothing(tmp_path, capsys, argv):
    (tmp_path / "e2e_basic.json").write_text(json.dumps(builtin_scenario("e2e_basic")))
    (tmp_path / "FILE").write_text("kept\n")
    before = sorted(tmp_path.rglob("*"))
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / 'FILE'}") and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "FILE").read_text() == "kept\n"


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    assert main(["--suite", "standard", "--matrix", "--out", str(out)]) == 0
    return out


def test_matrix_signs_match_expected_columns(suite_dir):
    verdicts = quadrilemma(suite_dir)
    signs = {(v.requirement, v.scheme): v.sign for v in verdicts}
    assert len(verdicts) == 18
    expected_columns = {
        "centralized": {"R-Ef2": "plus", "R-P1": "minus", "R-P2": "minus",
                        "R-P3": "minus", "R-S1": "minus", "R-S2": "minus"},
        "tek": {"R-Ef2": "minus", "R-P1": "minus", "R-P2": "minus",
                "R-P3": "minus", "R-S1": "minus", "R-S2": "minus"},
        "dh": {"R-Ef2": "plus", "R-P1": "plus", "R-P2": "plus",
               "R-P3": "plus", "R-S1": "plus", "R-S2": "plus"},
    }
    for scheme, cells in expected_columns.items():
        for req, sign in cells.items():
            assert signs[(req, scheme)] == sign, (req, scheme)


def test_matrix_cells_cite_existing_evidence(suite_dir):
    for v in quadrilemma(suite_dir):
        scenario_id = v.evidence.split(":", 1)[0]
        assert (suite_dir / scenario_id / "metrics.json").exists()
        assert (suite_dir / scenario_id / "events.jsonl").exists()


def test_matrix_csv_shape_and_regeneration(suite_dir):
    text = matrix_csv(quadrilemma(suite_dir))
    lines = text.strip().split("\n")
    assert lines[0] == "requirement,scheme,sign,evidence,notes"
    assert len(lines) == 19
    assert text == matrix_csv(quadrilemma(suite_dir))
    assert (suite_dir / "quadrilemma.csv").read_text() == text


def _without(*path):
    """An edit of a metrics.json's text that deletes the field at path."""
    def edit(text):
        metrics = json.loads(text)
        del reduce(getitem, path[:-1], metrics)[path[-1]]
        return json.dumps(metrics)
    return edit


@pytest.mark.parametrize("sid, edit, problem", [
    ("relay_tek", lambda text: '{"runs": {}', "cannot read .*relay_tek/metrics.json: Expecting"),
    ("relay_tek", lambda text: '{"runs": {}}',
     "relay_tek/metrics.json: field runs.one_way.false_notifications is missing"),
    ("relay_tek", lambda text: "[]",
     "relay_tek/metrics.json: field runs.one_way.false_notifications is missing"),
    ("relay_tek", lambda text: '{"runs": {"one_way": {"false_notifications": "0"}}}',
     "relay_tek/metrics.json: field runs.one_way.false_notifications: expected int, got '0'"),
    ("relay_tek", lambda text: json.dumps({"runs": {"one_way": {
        "false_notifications": list(range(100_000))}}}),
     r"false_notifications: expected int, got \[0, 1, 2, [^\n]{,100}\.\.\. \(688890 characters\)$"),
    ("superspreader", _without("runs", "dh", "superspreader", "hub", "verified"),
     "superspreader/metrics.json: field runs.dh.superspreader.hub.verified is missing"),
    ("linkage_dh", _without("runs", "main", "linkage", "rotation_s"),
     "linkage_dh/metrics.json: field runs.main.linkage.rotation_s is missing"),
], ids=["not-json", "no-run", "not-an-object", "wrong-type", "long-value", "no-device-field",
        "no-rotation"])
def test_matrix_over_a_malformed_metrics_file_exits_1_naming_it(suite_dir, tmp_path, capsys,
                                                                   sid, edit, problem):
    out = tmp_path / "out"
    shutil.copytree(suite_dir, out)
    metrics = out / sid / "metrics.json"
    metrics.write_text(edit(metrics.read_text()))
    with pytest.raises(ScenarioError, match=problem):
        quadrilemma(out)
    assert main(["--matrix", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert (out / "quadrilemma.csv").read_bytes() == (suite_dir / "quadrilemma.csv").read_bytes()
