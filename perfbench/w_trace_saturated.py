"""``trace_saturated``: the compiled whole-trace executor on a saturated trace.

One pass compiles the 100k-arrival trace (``compile_instance``), builds a
record-free numpy ``FractionalAdmissionControl`` (set-up), and runs
``process_compiled_sequence`` over it (the timed call).  Passes repeat until
the timed calls add up to the run length.  Before them, an untimed warm-up
pass over the first 10k arrivals loads code and fills caches.

``setup_s`` is the median of set-ups spread over the whole run: a few after
the warm-up and a few before every pass.  Taken together at one moment they
would all see the same phase of the host's speed, which drifts by half
from one few-second stretch to the next on the reference host.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from typing import Any, Dict, List

import checks
import inputs
import tracing
from common import peak_rss_mb_self, repeat_for

from repro.core.fractional import FractionalAdmissionControl
from repro.instances import compiled as compiled_mod
from repro.instances.admission import AdmissionInstance
from repro.instances.request import RequestSequence
from repro.service.loadtest import percentile

#: The seed-weight bound of the weight mechanism (the paper's ``g``).
G = 64.0

WARMUP_ARRIVALS = 10_000

#: Set-ups timed after the warm-up and before each pass (the last one feeds the pass).
SETUPS_PER_PASS = 4


def _setup(capacities, sequence: RequestSequence):
    """Compile a fresh instance and build the algorithm; returns (seconds, compiled, algorithm).

    ``compile_instance`` memoizes on the instance object, so each set-up gets
    a new one (built before the clock starts).  The heap is collected first,
    so every set-up, and the pass after it, starts with no garbage pending
    from the one before: otherwise whether a full collection falls inside a
    100 ms set-up is chance, and the median of set-ups moved by 30% between
    two sets of ten runs.
    """
    instance = AdmissionInstance(capacities, sequence, name="trace_saturated")
    gc.collect()
    t0 = time.perf_counter()
    compiled = compiled_mod.compile_instance(instance)
    algorithm = FractionalAdmissionControl(capacities, g=G, backend="numpy", record=False)
    return time.perf_counter() - t0, compiled, algorithm


def run(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    capacities, requests = inputs.saturated_input(seed)
    sequence = RequestSequence(requests)
    _, compiled, algorithm = _setup(capacities, RequestSequence(requests[:WARMUP_ARRIVALS]))
    algorithm.process_compiled_sequence(compiled)
    setups = [_setup(capacities, sequence)[0] for _ in range(SETUPS_PER_PASS)]

    bound = checks.lp_lower_bound(capacities, requests)
    costs: List[float] = []
    last: Dict[str, Any] = {}

    def one_pass():
        last.clear()
        for _ in range(SETUPS_PER_PASS - 1):
            setups.append(_setup(capacities, sequence)[0])
        setup_s, compiled, algorithm = _setup(capacities, sequence)
        setups.append(setup_s)
        t1 = time.perf_counter()
        t0 = t1 - setup_s
        algorithm.process_compiled_sequence(compiled)
        t2 = time.perf_counter()
        cost = checks.check_fractional_run(
            capacities, requests, algorithm.fractions(), algorithm.fractional_cost(),
            bound, "trace_saturated fractional cost",
        )
        if costs and cost != costs[0]:
            raise checks.CheckFailed(f"pass cost {cost!r} differs from the first pass {costs[0]!r}")
        costs.append(cost)
        pass_info = {
            "run_s": t2 - t1,
            "window": (t0, t2),
            "counters": tracing.engine_counters(algorithm) if traced else None,
        }
        last["algorithm"] = algorithm
        return t2 - t1, pass_info

    window = seconds / 2 if traced else seconds
    passes = repeat_for(window, one_pass)
    attempted = len(passes) * len(requests)
    run_times = [p["run_s"] for p in passes]
    throughput = len(requests) / statistics.median(run_times)
    result: Dict[str, Any] = {"attempted": attempted, "failed": 0}

    if not traced:
        peak_rss_mb = peak_rss_mb_self()
        state = json.dumps(last["algorithm"].export_state())
        result["metrics"] = {
            "throughput_rps": throughput,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "rejection_cost": costs[0],
            "checkpoint_mb": len(state) / 2**20,
            "latency_p50_ms": statistics.median(run_times) * 1e3,
            "latency_p99_ms": percentile(sorted(run_times), 99) * 1e3,
        }
        return result

    tracer, count, result["layers"] = tracing.traced_passes(
        one_pass, window, len(requests), throughput
    )
    result["attempted"] += count * len(requests)
    result["spans"] = tracer
    return result
