"""``service_tcp``: the network admission service, driven over loopback TCP.

The server is the program's own command line in a process of its own:
``python -m repro serve --listen 127.0.0.1:0 --algorithm randomized`` over
the generated trace header (numpy backend, ``--log`` and ``--checkpoint``
set).  Set-up time is from spawning it to its ``service listening on`` line.
One untimed spawn warms the file cache; ``setup_s`` is the median of five
timed spawns, three before the load (the third server takes it) and two
after, so the samples straddle the run instead of sharing one phase of the
host's speed.

A load-generator process (``loadgen.py``) sends the contended prefix, asks
for a drain (the server checkpoints), warms up, then drives two closed-loop
connections for the run length.  Throughput is the median over the window's
one-second slices and the 99th percentile the median over its quarters, so
a stall of the shared host moves one part, not the run.  The rejection cost
comes from the prefix alone — pool arrivals never overload an edge — so it
is fixed by the seed however many pool arrivals a run gets through.  For
the same reason the server's peak RSS and checkpoint size are read right
after the prefix's drain: read at the end, they would grow with every
arrival a faster server gets through.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import checks
import inputs
import tracing
from common import ROOT, out_dir, program_env

from repro.instances.admission import AdmissionInstance
from repro.instances.request import RequestSequence
from repro.instances.serialize import dump_admission_trace

HERE = Path(__file__).resolve().parent
#: Timed spawns before the load (the last one takes it) and after it.
SPAWNS_BEFORE = 3
SPAWNS_AFTER = 2
FRAME = 8


class Server:
    """One ``repro serve --listen`` process, started and waited for."""

    def __init__(self, seed: int, trace: str, spans: Optional[str] = None):
        out = out_dir()
        self.log = str(out / "service_tcp.log")
        self.checkpoint = str(out / "service_tcp-checkpoint.json")
        for path in (self.log, self.checkpoint):
            if os.path.exists(path):
                os.remove(path)
        args = [
            "serve", "--listen", "127.0.0.1:0", "--algorithm", "randomized",
            "--trace", trace, "--backend", "numpy", "--seed", str(seed),
            "--log", self.log, "--checkpoint", self.checkpoint,
        ]
        if spans is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), spans, *args]
        self._stderr = open(out / "service_tcp.stderr", "w", encoding="utf-8")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - t0
            if not line.startswith("service listening on "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.strip().rsplit(":", 1)[1])
        except BaseException:
            self.kill()
            raise

    def stop(self) -> Dict[str, Any]:
        """SIGTERM (the service drains and checkpoints), wait, return its summary."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=120)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        lines = out.splitlines()
        return json.loads("\n".join(lines[lines.index("{") :]))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._stderr.close()


#: Body of an idle-priority process that keeps one CPU from going idle.
_SPIN = "import os, time\nos.nice(19)\nend = time.monotonic() + {limit}\nwhile time.monotonic() < end: pass\n"


def _drive(server: Server, seed: int, pool_size: int, seconds: float) -> Dict[str, Any]:
    """Run the load generator against ``server`` while spinners hold every CPU awake.

    Each round trip hands control between the server and the load generator
    several times.  On a virtual machine an idle CPU is descheduled, and
    waking it again costs the hypervisor a delay that depends on its other
    guests, not on the program: on the reference host, three alternating
    pairs of 10 s runs gave a 99th percentile of 9.4-10.3 ms with spinners
    and 10.7-13.7 ms without, and about a tenth less throughput without.
    One spinner per CPU at the lowest priority keeps the CPUs busy; the
    server and load generator preempt it whenever they wake.
    """
    command = [
        sys.executable, str(HERE / "loadgen.py"), str(server.port), str(seed),
        str(pool_size), str(seconds), str(server.proc.pid), server.checkpoint,
    ]
    limit = seconds + 60
    spinners = [
        subprocess.Popen([sys.executable, "-c", _SPIN.format(limit=limit)])
        for _ in os.sched_getaffinity(0)
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=program_env(), capture_output=True, text=True,
            timeout=limit,
        )
    finally:
        for spinner in spinners:
            spinner.kill()
            spinner.wait()
    if done.returncode != 0:
        raise RuntimeError(f"load generator failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _check(seed, capacities, prefix, pool_size, drive, server, summary) -> float:
    """One decision per request sent, a feasible accepted set, the right cost."""
    pool = inputs.ServicePool(seed, pool_size).requests(0, drive["pool_used"])
    submitted = prefix + pool
    with open(server.log, encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    arrivals, accepted = checks.replay_integral_log(entries)
    checks.check_one_decision_each(arrivals, (r.request_id for r in submitted))
    bound = checks.lp_lower_bound(capacities, submitted)
    return checks.check_integral_run(
        capacities, submitted, accepted, float(summary["rejection_cost"]), bound,
        "service_tcp rejection cost",
    )


def _serve_once(seed, capacities, prefix, pool_size, seconds, server):
    """Load one started server, stop it, check it; returns (load report, cost)."""
    try:
        drive = _drive(server, seed, pool_size, seconds)
        summary = server.stop()
    finally:
        server.kill()
    return drive, _check(seed, capacities, prefix, pool_size, drive, server, summary)


def _calls(drive: Dict[str, Any]) -> int:
    return drive["prefix_frames"] + 1 + drive["warmup_frames"] + drive["frames"]


def run(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    pool_size = inputs.service_pool_size(seconds)
    capacities = inputs.service_capacities(pool_size)
    prefix = inputs.service_prefix(seed)
    trace = str(out_dir() / "service_tcp.jsonl")
    dump_admission_trace(
        AdmissionInstance(capacities, RequestSequence(prefix), name="service_tcp"), trace
    )
    Server(seed, trace).stop()

    if not traced:
        setups: List[float] = []
        server = None
        for k in range(SPAWNS_BEFORE):
            server = Server(seed, trace)
            setups.append(server.setup_s)
            if k < SPAWNS_BEFORE - 1:
                server.stop()
        drive, cost = _serve_once(seed, capacities, prefix, pool_size, seconds, server)
        for _ in range(SPAWNS_AFTER):
            server = Server(seed, trace)
            setups.append(server.setup_s)
            server.stop()
        return {
            "attempted": _calls(drive),
            "failed": 0,
            "metrics": {
                "throughput_rps": drive["rate_rps"],
                "setup_s": statistics.median(setups),
                "peak_rss_mb": drive["server_rss_mb"],
                "rejection_cost": cost,
                "checkpoint_mb": drive["checkpoint_bytes"] / 2**20,
                "latency_p50_ms": drive["p50_ms"],
                "latency_p99_ms": drive["p99_ms"],
            },
        }

    window = seconds / 2
    plain, _ = _serve_once(seed, capacities, prefix, pool_size, window, Server(seed, trace))
    spans_path = str(out_dir() / "spans-service_tcp-server.json")
    drive, _ = _serve_once(
        seed, capacities, prefix, pool_size, window, Server(seed, trace, spans_path)
    )
    with open(spans_path, encoding="utf-8") as fh:
        dumped = json.load(fh)
    spans = [tuple(s) for s in dumped["spans"]]
    lo, hi = drive["window"]
    layers = tracing.layer_metrics(spans, [(lo, hi)])
    layers.update(tracing.service_metrics(spans, [(lo, hi)]))
    counters = tracing.counter_delta(dumped["samples"], lo, hi)
    layers.update(
        {
            "engine.backends.augmentations": counters["augmentations"],
            "engine.backends.kills": counters["kills"],
            "service.server_cpu_s": drive["server_cpu_s"],
            "loadgen.cpu_s": drive["cpu_s"],
            "loadgen.rtt_s": drive["rtt_s"],
            "trace.window_s": hi - lo,
            "trace.overhead_rps": plain["rate_rps"] - drive["rate_rps"],
        }
    )
    return {"attempted": _calls(plain) + _calls(drive), "failed": 0, "layers": layers}
