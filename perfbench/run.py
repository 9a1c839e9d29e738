"""Benchmark entry point: one workload, one seed, one process.

Usage::

    python3 perfbench/run.py --workload trace_saturated --seed 1 --seconds 12 --trace 0

Run it from the root of a source checkout.  It builds the workload's inputs
from ``--seed``, warms up, measures for ``--seconds``, checks every output
with :mod:`checks`, and prints as its last line one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

With ``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json``; with ``--trace 1`` they are the ``per_layer`` ones, the
run measures half its length untraced and half traced, prints the layer
table, and writes the spans to ``.perfbench_out/``.  A failed check prints
``"correct": false`` and exits 1; a checkout without the program exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from typing import Any, Dict

from common import BENCHMARK_JSON, ProgramMissing, metric, out_dir, print_table, use_program

WORKLOADS = ("trace_saturated", "stream_checkpoint", "service_tcp")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _layer_table(workload: str, layers: Dict[str, float], traced_s: float) -> None:
    window = layers["trace.window_s"]
    rows = [("layer", "self s", "share of window")]
    for name in (
        "instances.compile_s",
        "engine.vectorized.self_s",
        "engine.backends.kernel_s",
        "core.randomized.self_s",
        "engine.streaming.submit_self_s",
        "engine.streaming.save_s",
        "engine.streaming.load_s",
        "service.wire.decode_s",
        "service.wire.encode_s",
    ):
        rows.append((name, f"{layers[name]:.4f}", f"{layers[name] / window:6.1%}"))
    rows.append(("outside traced calls", f"{layers['trace.unattributed_s']:.4f}",
                 f"{layers['trace.unattributed_s'] / window:6.1%}"))
    cpu = layers["service.server_cpu_s"]
    if cpu > 0:
        # The server spends the rest of the window in its event loop or idle.
        rows.append(("  of which server CPU", f"{cpu - traced_s:.4f}",
                     f"{(cpu - traced_s) / window:6.1%}"))
        rows.append(("  of which server idle", f"{window - cpu:.4f}",
                     f"{(window - cpu) / window:6.1%}"))
    rows.append(("timed window", f"{window:.4f}", "100.0%"))
    print_table(f"per-layer self time, {workload} (traced window)", rows)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        use_program()
        spec = json.loads(BENCHMARK_JSON.read_text())
    except (ProgramMissing, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    import checks
    import w_service_tcp
    import w_stream_checkpoint
    import w_trace_saturated

    module = {
        "trace_saturated": w_trace_saturated,
        "stream_checkpoint": w_stream_checkpoint,
        "service_tcp": w_service_tcp,
    }[args.workload]
    traced = bool(args.trace)
    try:
        result: Dict[str, Any] = module.run(args.seed, args.seconds, traced)
    except checks.CheckFailed as err:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        print(f"check failed: {err}", file=sys.stderr)
        return 1

    if traced:
        wanted = spec["per_layer"]
        values = {m["name"]: 0.0 for m in wanted}
        layers = result["layers"]
        traced_s = layers.pop("traced_s")
        values.update(layers)
        kernel_s = values["engine.backends.kernel_s"]
        values["engine.backends.augmentations_per_s"] = (
            values["engine.backends.augmentations"] / kernel_s if kernel_s > 0 else 0.0
        )
        values["trace.unattributed_s"] = values["trace.window_s"] - traced_s
        tracer = result.get("spans")
        if tracer is not None:
            tracer.dump(str(out_dir() / f"spans-{args.workload}.json"))
        _layer_table(args.workload, values, traced_s)
    else:
        wanted = spec["end_to_end"]
        values = result["metrics"]
    names = {m["name"] for m in wanted}
    if set(values) != names:
        raise RuntimeError(f"metrics {sorted(set(values) ^ names)} disagree with BENCHMARK.json")
    metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in wanted}
    print(json.dumps({
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
