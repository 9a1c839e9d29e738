"""Correctness checks on the program's outputs, independent of the program.

Nothing here uses ``repro.offline`` or any ``check_invariants``: the checks
read only the requests the benchmark generated and the per-request outcomes
the program reported, and recompute everything else.

* Feasibility.  A fractional run must reject, on every edge ``e`` crossed by
  ``n_e`` requests with capacity ``c_e``, a total fraction of at least
  ``n_e - c_e``.  An integral run may keep at most ``c_e`` accepted requests
  on ``e``.
* Cost.  The reported rejection cost must equal the cost recomputed from the
  per-request outcomes.
* Lower bound.  No solution, fractional or integral, costs less than the
  optimum of the covering LP ``min sum p_i x_i`` subject to
  ``sum_{i on e} x_i >= n_e - c_e`` and ``0 <= x <= 1``, solved here with
  ``scipy.optimize.linprog``.
"""

from __future__ import annotations

import io
import subprocess
import sys
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

import numpy as np

#: Relative slack granted to the fractional covering constraints: the
#: weight mechanism stops an augmentation loop once the alive weight is
#: within 1e-9 (relative) of the excess, so exact sums may fall short by that.
FEASIBILITY_RTOL = 1e-7

#: Relative tolerance of cost comparisons (sums taken in another order).
COST_RTOL = 1e-9


class CheckFailed(AssertionError):
    """A program output failed an independent correctness check."""


def edge_counts(requests: Iterable) -> Dict[object, int]:
    counts: Dict[object, int] = {}
    for request in requests:
        for edge in request.edges:
            counts[edge] = counts.get(edge, 0) + 1
    return counts


def check_fractional_feasible(
    capacities: Mapping[object, int], requests: Sequence, fractions: Mapping[int, float]
) -> None:
    """Every edge rejects at least its overload, counting fractions capped at 1."""
    missing = [r.request_id for r in requests if r.request_id not in fractions]
    if missing:
        raise CheckFailed(f"{len(missing)} requests have no fraction, first {missing[0]}")
    rejected: Dict[object, float] = {}
    for request in requests:
        f = fractions[request.request_id]
        if not 0.0 <= f <= 1.0:
            raise CheckFailed(f"request {request.request_id} has fraction {f} outside [0, 1]")
        for edge in request.edges:
            rejected[edge] = rejected.get(edge, 0.0) + f
    for edge, n in edge_counts(requests).items():
        need = n - capacities[edge]
        if need > 0 and rejected[edge] < need * (1.0 - FEASIBILITY_RTOL):
            raise CheckFailed(
                f"edge {edge!r}: rejected fraction {rejected[edge]:.9f} < overload {need}"
            )


def check_integral_feasible(
    capacities: Mapping[object, int], requests: Sequence, accepted: Set[int]
) -> None:
    """No edge carries more accepted requests than its capacity."""
    load = edge_counts(r for r in requests if r.request_id in accepted)
    for edge, n in load.items():
        if n > capacities[edge]:
            raise CheckFailed(f"edge {edge!r}: {n} accepted requests > capacity {capacities[edge]}")


def fractional_cost(requests: Sequence, fractions: Mapping[int, float]) -> float:
    return float(sum(fractions[r.request_id] * r.cost for r in requests))


def integral_cost(requests: Sequence, accepted: Set[int]) -> float:
    return float(sum(r.cost for r in requests if r.request_id not in accepted))


def check_cost(reported: float, recomputed: float, what: str) -> None:
    if abs(reported - recomputed) > COST_RTOL * max(1.0, abs(recomputed)):
        raise CheckFailed(f"{what}: reported {reported!r} but outcomes give {recomputed!r}")


def lp_lower_bound(capacities: Mapping[object, int], requests: Sequence) -> float:
    """Optimum of the fractional covering LP, by ``scipy.optimize.linprog``.

    Only over-capacity edges can bind and only requests crossing one can pay,
    so the LP is built over those rows and columns alone; HiGHS presolve is
    switched off because on these wide, few-row LPs it costs ten times the
    solve itself.  Neither changes the optimum.  The solve runs in a child
    process (this file run as a script, the LP's arrays on its standard
    input), so the solver's memory never counts in the peak RSS of the
    process under test.
    """
    counts = edge_counts(requests)
    rows = {e: k for k, e in enumerate(e for e, n in counts.items() if n > capacities[e])}
    if not rows:
        return 0.0
    row_idx: List[int] = []
    col_idx: List[int] = []
    costs: List[float] = []
    for request in requests:
        hit = [rows[e] for e in request.edges if e in rows]
        if hit:
            row_idx.extend(hit)
            col_idx.extend([len(costs)] * len(hit))
            costs.append(request.cost)
    need = np.empty(len(rows))
    for edge, k in rows.items():
        need[k] = counts[edge] - capacities[edge]
    arrays = io.BytesIO()
    np.savez(arrays, rows=np.asarray(row_idx), cols=np.asarray(col_idx),
             costs=np.asarray(costs), need=need)
    done = subprocess.run(
        [sys.executable, __file__], input=arrays.getvalue(), capture_output=True, timeout=170
    )
    if done.returncode != 0:
        raise CheckFailed(f"LP lower bound did not solve: {done.stderr.decode(errors='replace')}")
    return float(done.stdout.decode())


def _solve_lp(arrays: bytes) -> float:
    """Solve the LP whose arrays :func:`lp_lower_bound` wrote; returns its optimum."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    lp = np.load(io.BytesIO(arrays))
    rows, cols, costs, need = lp["rows"], lp["cols"], lp["costs"], lp["need"]
    a = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(need), len(costs)))
    result = linprog(
        costs, A_ub=-a, b_ub=-need, bounds=(0.0, 1.0), method="highs",
        options={"presolve": False},
    )
    if result.status != 0:
        raise CheckFailed(f"LP lower bound did not solve: {result.message}")
    return float(result.fun)


def check_lower_bound(cost: float, bound: float, what: str) -> None:
    if cost < bound * (1.0 - 1e-6) - 1e-9:
        raise CheckFailed(f"{what}: cost {cost!r} is below the LP optimum {bound!r}")


def replay_integral_log(entries: Iterable[Mapping]) -> Tuple[List[int], Set[int]]:
    """Arrival ids in log order and the final accepted set, from decision entries.

    An arrival entry is ``accept`` or ``reject``; a ``preempt`` entry removes
    an accepted request for good.
    """
    arrivals: List[int] = []
    accepted: Set[int] = set()
    for entry in entries:
        rid = int(entry["id"])
        event = entry["event"]
        if event == "preempt":
            if rid not in accepted:
                raise CheckFailed(f"request {rid} preempted while not accepted")
            accepted.discard(rid)
        elif event in ("accept", "reject"):
            arrivals.append(rid)
            if event == "accept":
                accepted.add(rid)
        else:
            raise CheckFailed(f"unknown decision event {event!r} for request {rid}")
    return arrivals, accepted


def check_one_decision_each(arrivals: Sequence[int], submitted: Iterable[int]) -> None:
    """Exactly one arrival decision per submitted request, no others."""
    expected = sorted(submitted)
    seen = sorted(arrivals)
    if seen != expected:
        dup = len(seen) - len(set(seen))
        raise CheckFailed(
            f"{len(seen)} arrival decisions ({dup} duplicated) for {len(expected)} "
            f"submitted requests"
        )


def check_integral_run(
    capacities: Mapping[object, int],
    requests: Sequence,
    accepted: Set[int],
    reported_cost: float,
    bound: float,
    what: str,
) -> float:
    """Feasibility, cost and LP bound of an integral outcome; returns the cost."""
    check_integral_feasible(capacities, requests, accepted)
    cost = integral_cost(requests, accepted)
    check_cost(reported_cost, cost, what)
    check_lower_bound(cost, bound, what)
    return cost


def check_fractional_run(
    capacities: Mapping[object, int],
    requests: Sequence,
    fractions: Mapping[int, float],
    reported_cost: float,
    bound: float,
    what: str,
) -> float:
    """Feasibility, cost and LP bound of a fractional outcome; returns the cost."""
    check_fractional_feasible(capacities, requests, fractions)
    cost = fractional_cost(requests, fractions)
    check_cost(reported_cost, cost, what)
    check_lower_bound(cost, bound, what)
    return cost


if __name__ == "__main__":
    print(repr(_solve_lp(sys.stdin.buffer.read())))
