"""The ``service_tcp`` load generator, run as its own process.

Usage: ``python3 perfbench/loadgen.py PORT SEED POOL_SIZE SECONDS SERVER_PID CHECKPOINT``

1. Sends the contended prefix over one connection, ``submit_batch`` frames
   of 8 in order, each after the previous reply, so the server sees the
   prefix in one fixed order.  Then sends ``drain``: the server writes its
   checkpoint, whose size is recorded.
2. Warms up for one second: two connections, closed loop, slack pool
   arrivals.
3. Measures for ``SECONDS``: the same two closed-loop connections, each
   sending its next ``submit_batch`` of 8 only after the reply to the last.

Throughput is the median over one-second slices of the window.  Prints one
JSON line: the round-trip latencies' summary, the frames sent,
the window's bounds on the shared monotonic clock, and the CPU time of
this process and of the server over the window.  It speaks to the service
only through the program's client SDK.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time
from typing import Dict, List, Tuple

import inputs
from common import cpu_seconds_of, peak_rss_mb_of

from repro.service.client import AdmissionClient
from repro.service.loadtest import percentile

FRAME = 8
CONNECTIONS = 2
WARMUP_SECONDS = 1.0

#: The 99th percentile is the median of its values over this many equal
#: parts of the window (each holds well over the thousand round trips a 99th
#: percentile needs), so one burst of host noise moves one part, not the run.
TAIL_WINDOWS = 4


class Pool:
    """Hands out consecutive frames of the slack pool to the connections."""

    def __init__(self, pool: inputs.ServicePool):
        self.pool = pool
        self.next = 0
        self.lock = threading.Lock()

    def take(self):
        with self.lock:
            k = self.next
            if k + FRAME > self.pool.size:
                return None
            self.next = k + FRAME
        return self.pool.requests(k, k + FRAME)


def closed_loop(clients: List[AdmissionClient], pool: Pool, seconds: float) -> List[Tuple[float, float]]:
    """Drive every client closed-loop until ``seconds`` pass.

    Returns one ``(reply time, round trip)`` pair per call, in no order.
    """
    deadline = time.perf_counter() + seconds
    latencies: List[List[Tuple[float, float]]] = [[] for _ in clients]
    errors: List[BaseException] = []

    def drive(k: int) -> None:
        client = clients[k]
        own = latencies[k]
        try:
            while time.perf_counter() < deadline:
                batch = pool.take()
                if batch is None:
                    raise RuntimeError("the slack pool ran out of arrivals")
                t0 = time.perf_counter()
                entries = client.submit_batch(batch)
                t1 = time.perf_counter()
                own.append((t1, t1 - t0))
                if sum(1 for e in entries if e.get("event") != "preempt") != len(batch):
                    raise RuntimeError(f"reply holds no decision for some of {len(batch)} arrivals")
        except BaseException as err:  # re-raised in the main thread below
            errors.append(err)

    threads = [threading.Thread(target=drive, args=(k,)) for k in range(len(clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [x for own in latencies for x in own]


def main(argv: List[str]) -> int:
    port, seed, pool_size = int(argv[0]), int(argv[1]), int(argv[2])
    seconds, server_pid, checkpoint = float(argv[3]), int(argv[4]), argv[5]
    prefix = inputs.service_prefix(seed)
    pool = Pool(inputs.ServicePool(seed, pool_size))

    clients = [AdmissionClient("127.0.0.1", port) for _ in range(CONNECTIONS)]
    try:
        for lo in range(0, len(prefix), FRAME):
            clients[0].submit_batch(prefix[lo : lo + FRAME])
        prefix_frames = (len(prefix) + FRAME - 1) // FRAME
        clients[0].drain()
        checkpoint_bytes = os.path.getsize(checkpoint)
        server_rss_mb = peak_rss_mb_of(server_pid)

        warm = closed_loop(clients, pool, WARMUP_SECONDS)

        cpu0, server0 = time.process_time(), cpu_seconds_of(server_pid)
        t0 = time.perf_counter()
        calls = closed_loop(clients, pool, seconds)
        t1 = time.perf_counter()
        cpu1, server1 = time.process_time(), cpu_seconds_of(server_pid)
    finally:
        for client in clients:
            client.close()

    latencies = [rtt for _, rtt in calls]
    slices = [0] * max(int(t1 - t0), 1)
    for done, _ in calls:
        slices[min(int(done - t0), len(slices) - 1)] += FRAME
    quarters: List[List[float]] = [[] for _ in range(TAIL_WINDOWS)]
    for done, rtt in calls:
        quarters[min(int((done - t0) / (t1 - t0) * TAIL_WINDOWS), TAIL_WINDOWS - 1)].append(rtt)
    result: Dict[str, object] = {
        "prefix_frames": prefix_frames,
        "warmup_frames": len(warm),
        "frames": len(calls),
        "pool_used": pool.next,
        "window": [t0, t1],
        "rate_rps": statistics.median(slices),
        "p50_ms": statistics.median(latencies) * 1e3,
        "p99_ms": statistics.median([percentile(sorted(q), 99) for q in quarters]) * 1e3,
        "rtt_s": sum(latencies) / len(latencies),
        "cpu_s": cpu1 - cpu0,
        "server_cpu_s": server1 - server0,
        "server_rss_mb": server_rss_mb,
        "checkpoint_bytes": checkpoint_bytes,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
