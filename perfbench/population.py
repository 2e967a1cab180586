"""Synthetic population day: the input of the pop_* workloads.

N devices and M = 5N distinct random contact pairs (all pairs, when N is too
small for 5N) over one simulated day.
Each contact starts uniformly in [0, 86400 - 1800) and lasts 300-1800 s; the
first N/20 devices (at least one) report infection in the last hour. The
scenario is a plain dctlab scenario document, so dctlab receives only the
generated input. Everything is drawn from ``random.Random(seed).random()``,
whose sequence Python keeps stable across versions.
"""

from __future__ import annotations

import random

DAY_S = 86400
MAX_CONTACT_S = 1800
MIN_CONTACT_S = 300
LAST_HOUR_S = 3600
SYNC_DELAY_S = 60          # dctlab syncs 60 s after a report; keep that inside the day
EDGES_PER_DEVICE = 5


def device_ids(n: int) -> list[str]:
    return [f"d{i:03d}" for i in range(n)]


def reporters(n: int) -> list[str]:
    return device_ids(n)[:max(1, n // 20)]


def population_scenario(scheme: str, n: int, seed: int) -> dict:
    """One-run scenario of ``scheme`` over a day of random contacts."""
    rng = random.Random(seed)

    def below(k: int) -> int:
        return int(rng.random() * k)

    ids = device_ids(n)
    pairs: set[tuple[int, int]] = set()
    edges = []
    m = min(EDGES_PER_DEVICE * n, n * (n - 1) // 2)
    while len(edges) < m:
        a, b = below(n), below(n)
        if a == b or (min(a, b), max(a, b)) in pairs:
            continue
        pairs.add((min(a, b), max(a, b)))
        start = below(DAY_S - MAX_CONTACT_S)
        length = MIN_CONTACT_S + below(MAX_CONTACT_S - MIN_CONTACT_S + 1)
        edges.append([ids[a], ids[b], start, start + length])
    infections = [{"device": d, "report_at": DAY_S - LAST_HOUR_S + below(LAST_HOUR_S - SYNC_DELAY_S)}
                  for d in reporters(n)]
    return {
        "id": f"pop_{scheme}_n{n}",
        "seed": seed,
        "runs": [{
            "label": "day",
            "scheme": scheme,
            "devices": ids,
            "contact_trace": edges,
            "infections": infections,
            "duration_s": DAY_S,
        }],
    }


def contacts_of_reporters(scenario: dict) -> list[str]:
    """Devices that met a reporter: under the tek scheme exactly these are
    notified, since every contact lasts many scan ticks inside day 0."""
    run = scenario["runs"][0]
    sick = {i["device"] for i in run["infections"]}
    met = set()
    for a, b, _, _ in run["contact_trace"]:
        if a in sick:
            met.add(b)
        if b in sick:
            met.add(a)
    return sorted(met)
