"""Tests of the benchmark's own correctness checks.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.  A
correct outcome on a tiny instance, with its optimum found by brute force,
must pass; each kind of corrupted output must fail.
"""

from __future__ import annotations

import itertools
import sys
from collections import namedtuple
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402

Req = namedtuple("Req", "request_id edges cost")

CAPACITIES = {"a": 1, "b": 2, "c": 1}
REQUESTS = [
    Req(0, frozenset({"a", "b"}), 3.0),
    Req(1, frozenset({"a"}), 1.0),
    Req(2, frozenset({"b", "c"}), 2.0),
    Req(3, frozenset({"b"}), 4.0),
    Req(4, frozenset({"c"}), 1.5),
    Req(5, frozenset({"a", "c"}), 2.5),
]


def brute_force_optimum():
    """Cheapest rejected set whose complement fits every capacity."""
    best = None
    ids = [r.request_id for r in REQUESTS]
    for k in range(len(ids) + 1):
        for kept in itertools.combinations(ids, k):
            accepted = set(kept)
            load = checks.edge_counts(r for r in REQUESTS if r.request_id in accepted)
            if all(n <= CAPACITIES[e] for e, n in load.items()):
                cost = checks.integral_cost(REQUESTS, accepted)
                if best is None or cost < best[0]:
                    best = (cost, accepted)
    return best


def test_brute_force_optimum_passes_every_check():
    cost, accepted = brute_force_optimum()
    bound = checks.lp_lower_bound(CAPACITIES, REQUESTS)
    assert bound <= cost + 1e-9
    assert checks.check_integral_run(CAPACITIES, REQUESTS, accepted, cost, bound, "opt") == cost
    fractions = {r.request_id: 0.0 if r.request_id in accepted else 1.0 for r in REQUESTS}
    assert checks.check_fractional_run(CAPACITIES, REQUESTS, fractions, cost, bound, "opt") == cost


def test_lp_bound_is_exact_when_every_request_crosses_one_tight_edge():
    # One binding row per request: the LP is integral, so it equals brute force.
    capacities = {"x": 2, "y": 1}
    requests = [Req(k, frozenset({"x" if k < 4 else "y"}), float(k + 1)) for k in range(6)]
    assert checks.lp_lower_bound(capacities, requests) == pytest.approx(1 + 2 + 5)


def test_over_capacity_accept_fails():
    cost, accepted = brute_force_optimum()
    rejected = next(r for r in REQUESTS if r.request_id not in accepted)
    corrupted = accepted | {rejected.request_id}
    with pytest.raises(checks.CheckFailed, match="capacity"):
        checks.check_integral_feasible(CAPACITIES, REQUESTS, corrupted)


def test_shrunk_fraction_fails():
    cost, accepted = brute_force_optimum()
    fractions = {r.request_id: 0.0 if r.request_id in accepted else 1.0 for r in REQUESTS}
    rejected = next(rid for rid, f in fractions.items() if f == 1.0)
    fractions[rejected] = 0.5
    with pytest.raises(checks.CheckFailed, match="overload"):
        checks.check_fractional_feasible(CAPACITIES, REQUESTS, fractions)


def test_wrong_cost_fails():
    cost, accepted = brute_force_optimum()
    bound = checks.lp_lower_bound(CAPACITIES, REQUESTS)
    with pytest.raises(checks.CheckFailed, match="reported"):
        checks.check_integral_run(CAPACITIES, REQUESTS, accepted, cost + 0.01, bound, "cost")
    fractions = {r.request_id: 0.0 if r.request_id in accepted else 1.0 for r in REQUESTS}
    with pytest.raises(checks.CheckFailed, match="reported"):
        checks.check_fractional_run(CAPACITIES, REQUESTS, fractions, cost * 0.99, bound, "cost")


def test_cost_below_lp_optimum_fails():
    bound = checks.lp_lower_bound(CAPACITIES, REQUESTS)
    with pytest.raises(checks.CheckFailed, match="below the LP optimum"):
        checks.check_lower_bound(bound * 0.99, bound, "cost")


def test_decision_log_replay():
    log = [
        {"id": 0, "event": "accept", "at": None},
        {"id": 1, "event": "reject", "at": None},
        {"id": 2, "event": "accept", "at": None},
        {"id": 0, "event": "preempt", "at": 2},
    ]
    arrivals, accepted = checks.replay_integral_log(log)
    assert arrivals == [0, 1, 2] and accepted == {2}
    checks.check_one_decision_each(arrivals, [0, 1, 2])
    with pytest.raises(checks.CheckFailed):
        checks.check_one_decision_each(arrivals + [1], [0, 1, 2])
    with pytest.raises(checks.CheckFailed):
        checks.check_one_decision_each(arrivals, [0, 1, 2, 3])
    with pytest.raises(checks.CheckFailed, match="not accepted"):
        checks.replay_integral_log(log + [{"id": 1, "event": "preempt", "at": 2}])
