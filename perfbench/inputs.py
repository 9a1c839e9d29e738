"""Seeded inputs for the three workloads.

Every input is a deterministic function of ``--seed``: the program only ever
receives the requests (or the trace file) built here.  All shapes share one
pattern: ``num_hot`` low-capacity "hot" edges, each arrival crossing exactly
one of them (round-robin) plus ``path_length - 1`` random "cold" edges whose
capacity no run can exhaust, and costs drawn uniformly from ``[1, 8]``.

* ``trace_saturated`` — 100,000 arrivals, 512 edges, 16 hot edges at
  capacity 48, paths of 4: every hot edge is over capacity after its first
  48 arrivals, so nearly every arrival runs restores.
* ``stream_checkpoint`` — 8,000 arrivals, 256 edges, 8 hot edges at
  capacity 32, paths of 3.
* ``service_tcp`` — a 2,048-arrival *prefix* on 4 hot edges at capacity 16
  (the randomized algorithm rejects and preempts there), then a *pool* of
  arrivals on 252 cold edges only, each path 3 edges, which no run can
  overload: after the prefix the engine only registers arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from common import use_program

use_program()

from repro.instances.request import Request  # noqa: E402

#: Distinct child streams of the seed, one per input, so inputs stay
#: independent of one another under the same ``--seed``.
_STREAMS = {"trace_saturated": 1, "stream_checkpoint": 2, "service_prefix": 3, "service_pool": 4}


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAMS[stream]])


@dataclass(frozen=True)
class HotColdShape:
    """``num_requests`` arrivals over ``num_edges`` edges, the first ``num_hot`` tight."""

    num_requests: int
    num_edges: int
    num_hot: int
    capacity: int
    path_length: int

    def capacities(self, cold_capacity: int) -> Dict[int, int]:
        return {
            e: self.capacity if e < self.num_hot else cold_capacity
            for e in range(self.num_edges)
        }

    def requests(self, rng: np.random.Generator) -> List[Request]:
        cold_per = self.path_length - (1 if self.num_hot else 0)
        cold = rng.integers(self.num_hot, self.num_edges, size=(self.num_requests, cold_per))
        costs = rng.uniform(1.0, 8.0, size=self.num_requests)
        out = []
        for rid, (path, cost) in enumerate(zip(cold.tolist(), costs.tolist())):
            edges = set(path)
            if self.num_hot:
                edges.add(rid % self.num_hot)
            out.append(Request(rid, frozenset(edges), cost))
        return out


SATURATED = HotColdShape(num_requests=100_000, num_edges=512, num_hot=16, capacity=48, path_length=4)
STREAM = HotColdShape(num_requests=8_000, num_edges=256, num_hot=8, capacity=32, path_length=3)
SERVICE_PREFIX = HotColdShape(num_requests=2_048, num_edges=256, num_hot=4, capacity=16, path_length=2)

#: Pool arrivals generated per second of timed window: several times the
#: fastest rate the service reaches, so a run never runs out of arrivals.
SERVICE_POOL_PER_SECOND = 12_000


def saturated_input(seed: int) -> Tuple[Dict[int, int], List[Request]]:
    shape = SATURATED
    return shape.capacities(shape.num_requests + 1), shape.requests(_rng(seed, "trace_saturated"))


def stream_input(seed: int) -> Tuple[Dict[int, int], List[Request]]:
    shape = STREAM
    return shape.capacities(shape.num_requests + 1), shape.requests(_rng(seed, "stream_checkpoint"))


def service_pool_size(seconds: float) -> int:
    return int(SERVICE_POOL_PER_SECOND * max(seconds, 1.0))


def service_capacities(pool_size: int) -> Dict[int, int]:
    return SERVICE_PREFIX.capacities(SERVICE_PREFIX.num_requests + pool_size + 1)


def service_prefix(seed: int) -> List[Request]:
    return SERVICE_PREFIX.requests(_rng(seed, "service_prefix"))


class ServicePool:
    """The slack arrivals of ``service_tcp``, built lazily by index.

    Pool request ``k`` has id ``prefix + k``; its edges and cost are fixed by
    the seed, whichever process or connection builds it.
    """

    def __init__(self, seed: int, size: int):
        rng = _rng(seed, "service_pool")
        shape = SERVICE_PREFIX
        self.size = size
        self.first_id = shape.num_requests
        # Cold edges only: the pool never touches the prefix's hot edges.
        self._cold = rng.integers(shape.num_hot, shape.num_edges, size=(size, 3))
        self._costs = rng.uniform(1.0, 8.0, size=size)

    def request(self, k: int) -> Request:
        return Request(
            self.first_id + k,
            frozenset(self._cold[k].tolist()),
            float(self._costs[k]),
        )

    def requests(self, lo: int, hi: int) -> List[Request]:
        return [self.request(k) for k in range(lo, min(hi, self.size))]
