"""Shared plumbing of the benchmark: paths, process metrics, output.

The benchmark runs from the root of a source checkout.  It imports the
program from ``src/`` beside its own directory and writes scratch files
(traces, checkpoints, decision logs, span dumps) under ``.perfbench_out/`` in
that checkout, nowhere else.
"""

from __future__ import annotations

import os
import resource
import sys
from pathlib import Path
from typing import Dict, List, Sequence

#: Root of the checkout the benchmark runs in (the parent of its directory).
ROOT = Path(__file__).resolve().parents[1]

#: Where the program's sources live in the checkout.
SRC = ROOT / "src"

#: Scratch directory for every file a run writes.
OUT = ROOT / ".perfbench_out"

#: The benchmark's own description, read for run length and bounds.
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


class ProgramMissing(RuntimeError):
    """The checkout holds no program to measure."""


def use_program() -> None:
    """Make ``import repro`` load the checkout's sources, or raise ProgramMissing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for a child process that imports the program and the benchmark."""
    env = dict(os.environ)
    paths = [str(SRC), str(Path(__file__).resolve().parent)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def out_dir() -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process, in MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def cpu_seconds_of(pid: int) -> float:
    """User plus system CPU seconds a process has used, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3 of stat); utime/stime are fields 14/15.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def print_table(title: str, rows: List[Sequence[str]]) -> None:
    """Print a plain aligned table (to stdout, before the result line)."""
    print(title)
    widths = [max(len(str(row[k])) for row in rows) for k in range(len(rows[0]))]
    for row in rows:
        print("  " + "  ".join(str(cell).ljust(widths[k]) for k, cell in enumerate(row)))


def repeat_for(seconds: float, one_pass):
    """Call ``one_pass()`` until the time it reports reaches ``seconds`` (at least once).

    ``one_pass`` returns ``(timed_seconds, value)``; only the timed part
    counts, so checks run between passes do not shorten the measurement.
    """
    values = []
    timed = 0.0
    while not values or timed < seconds:
        took, value = one_pass()
        timed += took
        values.append(value)
    return values
