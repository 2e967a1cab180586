"""Acceptance criteria for the workbench, one test per criterion.

Each criterion prints a PASS/FAIL line (run with `pytest -s` to see them
live) and enforces its runtime budget. Expected values come from independent
oracles: the pyca/cryptography HKDF, naive modular exponentiation, SHA-256
recomputation, and ground-truth contact traces.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from dctlab import adversary
from dctlab.cli import builtin_scenario, main, matrix_csv, quadrilemma
from dctlab.crypto_core import (
    GroupParams,
    Tek,
    b64,
    derive_day_identifiers,
    dh_token,
    encode_epoch,
    hash_token,
    keygen,
)
from dctlab.errors import UploadRejected
from dctlab.rng import SeedStream
from dctlab.scenario import execute_run, run_scenario
from dctlab.schemes.tek import PublishedTekIndex
from dctlab.server import TracingServer


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({elapsed:.3f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget: {elapsed:.3f}s"


def hkdf_oracle(ikm, salt, info, length):
    return HKDF(algorithm=hashes.SHA256(), length=length, salt=salt, info=info).derive(ikm)


def naive_modexp(base, exp, mod):
    acc = 1
    for _ in range(exp):
        acc = (acc * base) % mod
    return acc


def test_01_tek_schedule_is_144_oracle_checked_identifiers():
    with criterion(1, "TEK day schedule: 24x6=144 identifiers match the HKDF oracle", 0.1):
        tek = Tek(bytes(range(16)), day_index=2)
        idents = derive_day_identifiers(tek)
        assert len(idents) == 144
        for slot, ident in enumerate(idents):
            assert len(ident) == 16
            assert ident == hkdf_oracle(tek.bytes, None, encode_epoch(slot), 16)


def test_02_dh_symmetry_1000_pairs_per_group_plus_toy_vector():
    with criterion(2, "DH token symmetry over 1000 random pairs per group", 1.0):
        toy = GroupParams.toy(23, 5)
        assert naive_modexp(10, 4, 23) == 18
        assert naive_modexp(4, 3, 23) == 18
        t1 = dh_token(4, toy.encode_element(10), toy)
        t2 = dh_token(3, toy.encode_element(4), toy)
        assert toy.decode_element(t1.secret) == 18
        assert t1.secret == t2.secret

        for params, label in ((toy, "toy"), (GroupParams.production(), "prod")):
            stream = SeedStream(2024, label)
            for i in range(1000):
                a = keygen(params, stream.child(f"a{i}"))
                b = keygen(params, stream.child(f"b{i}"))
                assert (dh_token(a.secret, b.public, params).secret
                        == dh_token(b.secret, a.public, params).secret), (label, i)


def test_03_end_to_end_completeness_per_scheme():
    scenario = builtin_scenario("e2e_basic")
    root = SeedStream(scenario["seed"], scenario["id"])
    for run_cfg in scenario["runs"]:
        scheme = run_cfg["scheme"]
        with criterion(3, f"2-device 10-minute co-location notifies once ({scheme})", 1.0):
            metrics = execute_run(run_cfg, root.child(run_cfg["label"]))
            assert metrics["notified_devices"] == ["bob"]
            assert metrics["notify_events"] == 1
            assert metrics["false_notifications"] == 0


def test_04_relay_differential():
    with criterion(4, "relay: one-way hits centralized/TEK, never DH; two-way capped at 8 within epsilon", 2.0):
        central = run_scenario(builtin_scenario("relay_centralized"))["runs"]["one_way"]
        assert central["false_notifications"] >= 1
        assert central["false_notifications"] == 12

        tek = run_scenario(builtin_scenario("relay_tek"))["runs"]["one_way"]
        assert tek["false_notifications"] == 50  # all 50 targets, within 7200 s

        dh = run_scenario(builtin_scenario("relay_dh"))["runs"]
        assert dh["one_way"]["false_notifications"] == 0
        eps = dh["two_way_eps"]
        assert eps["false_notifications"] <= 8
        assert eps["false_notifications"] == 8  # 12 targets, 8-connection budget
        assert eps["attack"]["relay_rejects"] == 4
        assert dh["two_way_late"]["false_notifications"] == 0  # delta_t > epsilon


def test_05_fake_claim_differential_100_trials():
    with criterion(5, "fake claim: feed-only claimant accepted by TEK, 0 DH proofs over 100 seeds", 2.0):
        accepted_tek = 0
        accepted_dh_proofs = 0
        for seed in range(100):
            stream = SeedStream(seed, "fc")
            server = TracingServer(stream.child("server"))
            tan = server.issue_tan("patient")
            server.accept_upload({"scheme": "tek", "tan": tan.value,
                                  "teks": [{"tek_hex": stream.child("tek").take(16).hex(),
                                            "day": 0}]})
            claim = adversary.fake_claim_tek(server, int(stream.randrange(86400)),
                                             PublishedTekIndex())
            accepted_tek += claim["accepted"]

            group = GroupParams.production()
            a = keygen(group, stream.child("a"))
            b = keygen(group, stream.child("b"))
            token = dh_token(a.secret, b.public, group)
            tan2 = server.issue_tan("patient2")
            server.accept_upload({"scheme": "dh", "tan": tan2.value,
                                  "entries": [{"hash_hex": hash_token(token).hex(),
                                               "meta_b64": b64(b"m" * 40)}]})
            dh_claim = adversary.fake_claim_dh(server, stream.child("claimant"), guesses=8)
            accepted_dh_proofs += dh_claim["proof_accepted"]
            assert dh_claim["accepted"] is False, f"seed {seed}"
        assert accepted_tek == 100
        assert accepted_dh_proofs == 0


def test_06_linkability_differential():
    with criterion(6, "linkage: TEK track >= 12h and > 100 sightings, DH tracks <= 900 s", 2.0):
        tek = run_scenario(builtin_scenario("linkage_tek"))["runs"]["main"]["linkage"]
        assert tek["max_track_duration_s"] >= 12 * 3600
        assert tek["max_track_sightings"] > 100

        dh = run_scenario(builtin_scenario("linkage_dh"))["runs"]["main"]["linkage"]
        assert dh["max_track_duration_s"] <= 900


def test_07_social_graph_differential():
    with criterion(7, "social graph: centralized SP recovers 100%, DH SP recovers 0", 1.0):
        runs = run_scenario(builtin_scenario("social_graph"))["runs"]
        central = runs["centralized"]["social_graph"]
        assert central["recovered_fraction"] == 1.0
        assert central["recovered_edge_count"] == central["ground_truth_edge_count"] == 4
        assert runs["dh"]["social_graph"]["recovered_edge_count"] == 0


def test_08_time_travel_and_kiss():
    with criterion(8, "time travel: default TEK fooled, strict-freshness fix and DH are not", 1.0):
        runs = run_scenario(builtin_scenario("time_travel"))["runs"]
        assert runs["tek_default"]["false_notifications"] == 1
        assert runs["tek_strict"]["false_notifications"] == 0
        assert runs["dh"]["false_notifications"] == 0


def test_09_server_contracts(tmp_path):
    with criterion(9, "server: concurrent TAN single-use, 14-day span rule, no raw tokens persisted", 2.0):
        server = TracingServer(SeedStream(9, "acc"), state_dir=tmp_path / "state")
        tan = server.issue_tan("device")

        def submit(i):
            try:
                server.accept_upload({"scheme": "tek", "tan": tan.value,
                                      "teks": [{"tek_hex": f"{i:032x}", "day": 0}]})
                return 1
            except UploadRejected:
                return 0

        with ThreadPoolExecutor(max_workers=16) as pool:
            assert sum(pool.map(submit, range(100))) == 1

        tan2 = server.issue_tan("device")
        with pytest.raises(UploadRejected, match="spans"):
            server.accept_upload({"scheme": "tek", "tan": tan2.value,
                                  "teks": [{"tek_hex": "00" * 16, "day": 0},
                                           {"tek_hex": "11" * 16, "day": 15}]})

        group = GroupParams.production()
        a = keygen(group, SeedStream(1, "a"))
        b = keygen(group, SeedStream(2, "b"))
        token = dh_token(a.secret, b.public, group)
        tan3 = server.issue_tan("device")
        server.accept_upload({"scheme": "dh", "tan": tan3.value,
                              "entries": [{"hash_hex": hash_token(token).hex(),
                                           "meta_b64": b64(b"sealed" * 8)}]})
        from dctlab.schemes.dh import encode_proof
        assert server.verify_superspreader_proof(encode_proof([token], group)) == 1
        persisted = b"".join(p.read_bytes()
                             for p in sorted((tmp_path / "state").glob("*.jsonl")))
        assert token.secret not in persisted
        assert token.secret.hex().encode() not in persisted
        assert b64(token.secret).encode() not in persisted


def test_10_suite_determinism_and_matrix_signs(tmp_path):
    with criterion(10, "standard suite: byte-identical reruns, matrix matches the comparison table", 10.0):
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["--suite", "standard", "--matrix", "--out", str(out)]) == 0
        for sid in ("relay_dh", "linkage_tek", "time_travel"):
            assert ((tmp_path / "a" / sid / "events.jsonl").read_bytes()
                    == (tmp_path / "b" / sid / "events.jsonl").read_bytes())
        events_a = sorted((tmp_path / "a").rglob("events.jsonl"))
        events_b = sorted((tmp_path / "b").rglob("events.jsonl"))
        assert len(events_a) == len(events_b) == 12
        for pa, pb in zip(events_a, events_b):
            assert pa.read_bytes() == pb.read_bytes(), pa
        csv_a = (tmp_path / "a/quadrilemma.csv").read_bytes()
        assert csv_a == (tmp_path / "b/quadrilemma.csv").read_bytes()

        signs = {(v.requirement, v.scheme): v.sign for v in quadrilemma(tmp_path / "a")}
        expected = {
            "centralized": {"R-Ef2": "plus", "R-P1": "minus", "R-P2": "minus",
                            "R-P3": "minus", "R-S1": "minus", "R-S2": "minus"},
            "tek": {"R-Ef2": "minus", "R-P1": "minus", "R-P2": "minus",
                    "R-P3": "minus", "R-S1": "minus", "R-S2": "minus"},
            "dh": {"R-Ef2": "plus", "R-P1": "plus", "R-P2": "plus",
                   "R-P3": "plus", "R-S1": "plus", "R-S2": "plus"},
        }
        for scheme, cells in expected.items():
            for req, sign in cells.items():
                assert signs[(req, scheme)] == sign, (req, scheme)
        assert matrix_csv(quadrilemma(tmp_path / "a")).encode() == csv_a
