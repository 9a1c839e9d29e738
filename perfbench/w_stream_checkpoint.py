"""``stream_checkpoint``: the randomized algorithm in a checkpointed streaming session.

One pass streams the 8k-arrival trace through a fresh ``StreamingSession``
(randomized, numpy, record on) in micro-batches of 64, calls ``save`` every
1,024 arrivals and at the end, and halfway through drops the session and
continues from ``StreamingSession.load`` of the checkpoint just written.
The whole pass is timed; passes repeat until they add up to the run length.
Throughput and latency are the median (and 99th percentile) over passes: a
pass is the unit a caller waits for.  Per-``submit_batch`` latency is not the
metric because its 99th percentile flips between two modes: about one call
in a hundred pays for a full garbage collection of the session's heap
(45-65 ms against a median of 16 ms), so the percentile lands on either side
of those calls from run to run.

The untimed warm-up is one uninterrupted pass without checkpoints.  Its
decision log is the reference every resumed pass must reproduce exactly
(ARCHITECTURE.md invariant 7); only its digest is kept, so the reference
adds nothing to the peak RSS of the passes.  Set-up time is the time
``load`` takes to give back a ready session from the mid-stream checkpoint,
timed on loads of that checkpoint after every pass, so the samples spread
over the run instead of sharing one phase of the host's speed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import time
from typing import Any, Dict

import checks
import inputs
import tracing
from common import out_dir, peak_rss_mb_self, repeat_for

from repro.engine.streaming import StreamingSession
from repro.service.loadtest import percentile

BATCH = 64
SAVE_EVERY = 1024

#: Loads of the mid-stream checkpoint timed for ``setup_s`` after each pass,
#: each from a freshly collected heap (see ``trace_saturated``'s set-up).
LOADS_PER_PASS = 2


def _digest(log) -> str:
    return hashlib.sha256(json.dumps(log, sort_keys=True).encode()).hexdigest()


def run(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    capacities, requests = inputs.stream_input(seed)
    n = len(requests)
    midpoint = (n // 2) // SAVE_EVERY * SAVE_EVERY
    checkpoint = str(out_dir() / "stream_checkpoint.json")
    middle = str(out_dir() / "stream_checkpoint-mid.json")

    def new_session() -> StreamingSession:
        return StreamingSession(
            capacities, algorithm="randomized", backend="numpy", record=True, seed=seed,
            name="stream_checkpoint",
        )

    reference = new_session()
    for lo in range(0, n, BATCH):
        reference.submit_batch(requests[lo : lo + BATCH])
    reference_log = reference.decision_log()
    reference_digest = _digest(reference_log)
    bound = checks.lp_lower_bound(capacities, requests)
    arrivals, accepted = checks.replay_integral_log(reference_log)
    checks.check_one_decision_each(arrivals, (r.request_id for r in requests))
    cost = checks.check_integral_run(
        capacities, requests, accepted, reference.algorithm.rejection_cost(), bound,
        "stream_checkpoint rejection cost",
    )
    del reference, reference_log
    loads = []

    def one_pass():
        t0 = time.perf_counter()
        session = new_session()
        for lo in range(0, n, BATCH):
            session.submit_batch(requests[lo : lo + BATCH])
            done = min(lo + BATCH, n)
            if done == midpoint:
                session.save(middle)
                session = StreamingSession.load(middle)
            elif done % SAVE_EVERY == 0 or done == n:
                session.save(checkpoint)
        t1 = time.perf_counter()
        if _digest(session.decision_log()) != reference_digest:
            raise checks.CheckFailed("the resumed decision log differs from the uninterrupted one")
        info = {
            "run_s": t1 - t0,
            "window": (t0, t1),
            "counters": tracing.engine_counters(session.algorithm) if traced else None,
        }
        del session
        for _ in range(LOADS_PER_PASS):
            gc.collect()
            l0 = time.perf_counter()
            StreamingSession.load(middle)
            loads.append(time.perf_counter() - l0)
        return t1 - t0, info

    window = seconds / 2 if traced else seconds
    passes = repeat_for(window, one_pass)
    result: Dict[str, Any] = {"attempted": len(passes) * n, "failed": 0}
    pass_times = [p["run_s"] for p in passes]
    throughput = n / statistics.median(pass_times)

    if not traced:
        result["metrics"] = {
            "throughput_rps": throughput,
            "setup_s": statistics.median(loads),
            "peak_rss_mb": peak_rss_mb_self(),
            "rejection_cost": cost,
            "checkpoint_mb": os.path.getsize(checkpoint) / 2**20,
            "latency_p50_ms": statistics.median(pass_times) * 1e3,
            "latency_p99_ms": percentile(sorted(pass_times), 99) * 1e3,
        }
        return result

    tracer, count, result["layers"] = tracing.traced_passes(one_pass, window, n, throughput)
    result["attempted"] += count * n
    result["spans"] = tracer
    return result
