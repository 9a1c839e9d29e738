"""Steadiness check: repeat every workload in fresh processes and report spreads.

Usage::

    python3 perfbench/steady.py [--sets 2]

Each set runs every workload of ``BENCHMARK.json`` ten times, run ``k`` with
seed ``k + 1`` (every set uses the same seeds), in alternating order:
forward on even ``k``, reversed on odd ``k``.  Each run is
``perfbench/run.py`` in its own process with the ``run_seconds`` of
``BENCHMARK.json``.  For every workload and end-to-end metric it prints the
first set's median and quartiles (``statistics.quantiles(values, n=4)``), the
spread ``(q3 - q1) / median`` (the larger of the sets') and the metric's
bound; with ``--sets 2`` also how far the second set's median moved from the
first, in the worse direction.  Every run's result goes to
``.perfbench_out/steady.json``.  It exits 1 when a spread or a move exceeds
its bound, a run fails, or the share of failed operations differs between
sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from common import BENCHMARK_JSON, ROOT, out_dir

RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_set(workloads: List[str], seconds: int) -> Dict[str, List[Dict]]:
    results: Dict[str, List[Dict]] = {w: [] for w in workloads}
    for k in range(RUNS):
        order = workloads if k % 2 == 0 else list(reversed(workloads))
        for workload in order:
            result = run_once(workload, k + 1, seconds)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {k + 1}: a check failed")
            results[workload].append(result)
            print(f"  run {k + 1}/{RUNS} {workload}: attempted {result['attempted']}", flush=True)
    return results


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    sets = []
    for s in range(args.sets):
        print(f"set {s + 1}/{args.sets}", flush=True)
        sets.append(run_set(workloads, spec["run_seconds"]))
    (out_dir() / "steady.json").write_text(json.dumps(sets))

    ok = True
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}"
              + ("  moved" if args.sets == 2 else ""))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            line_medians, spreads = [], []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results[workload]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                line_medians.append(statistics.median(values))
                spreads.append((q3 - q1) / med)
            values = [r["metrics"][name]["value"] for r in sets[0][workload]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = max(spreads)
            flag = ""
            if spread > bound:
                flag, ok = " FAIL", False
            elif spread > bound / 3:
                flag = " (over a third of the bound)"
            moved = ""
            if args.sets == 2:
                sign = 1 if m["better"] == "lower" else -1
                move = sign * (line_medians[1] - line_medians[0]) / line_medians[0]
                moved = f"  {move:+.3f}"
                if move > bound:
                    moved, ok = moved + " FAIL", False
            print(f"  {name:16} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} {bound:6.2f}"
                  + moved + flag)
        shares = {
            sum(r["failed"] for r in results[workload])
            / sum(r["attempted"] for r in results[workload])
            for results in sets
        }
        print(f"  failed share: {sorted(shares)}")
        if len(shares) != 1:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
