"""Spans and counters recorded around the program's public calls.

The benchmark never edits the program: :func:`install` replaces a handful of
public functions and methods, inside the process under test, with wrappers
that record one span per call — ``(name, start, end, parent, counts)`` —
and then call the original.  Spans stay in memory and are written out when
the run ends.  A span's *self time* is its duration minus its direct
children's; a layer's self time is the sum over its spans, so the layers'
self times partition the time spent inside traced calls.

Span names are ``layer`` or ``layer:call``:

========================  ====================================================
``instances.compile``     ``compile_instance``; the streaming layer's
                          per-batch ``compile_sequence``
``engine.vectorized``     ``FractionalAdmissionControl.process_compiled_range``
                          (hence ``process_compiled_sequence``) and
                          ``.process_indexed``
``engine.backends:*``     the restore kernel entry points of the numpy
                          backend: ``register_batch_indexed`` (``bulk``),
                          ``process_arrival_block_indexed`` (``block``),
                          ``process_arrival_indexed`` (``scalar``)
``core.randomized``       ``RandomizedAdmissionControl.process_indexed``
``engine.streaming:*``    ``StreamingSession.submit_batch`` / ``save`` / ``load``
``service.wire:*``        the server's ``decode_frame`` / ``encode_frame``
========================  ====================================================

Counters that are state rather than calls (augmentations, dead requests) are
read from the algorithm through its public methods at the edges of the timed
window: :func:`engine_counters`.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from common import repeat_for

Span = Tuple[str, float, float, int, Optional[Tuple[int, ...]]]
Window = Tuple[float, float]

class Tracer:
    """In-memory span recorder with a call stack for parent links."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.samples: List[Dict[str, float]] = []
        self._stack: List[int] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        measure: Optional[Callable[[tuple, Any], Tuple[int, ...]]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper around the original.

        ``measure(args, result)`` may return counts to attach to the span.
        Class methods are re-wrapped as class methods.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else getattr(owner, attr)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if measure is not None:
                spans[index] = (name, start, end, parent, measure(args, result))
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def sample(self, counters: Dict[str, float]) -> None:
        """Record a state sample (counter values at one instant)."""
        self.samples.append({"t": time.perf_counter(), **counters})

    def dump(self, path: str) -> None:
        """Write spans and samples as JSON; call it once every traced call has returned."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "samples": self.samples}, fh)


def _len_first(args: tuple, result: Any) -> Tuple[int, ...]:
    return (len(args[1]),)


def _one(args: tuple, result: Any) -> Tuple[int, ...]:
    return (1,)


def _entries(args: tuple, result: Any) -> Tuple[int, ...]:
    batch = args[1]
    arrivals = len(batch) if hasattr(batch, "__len__") else 0
    preempts = sum(1 for entry in result if entry.get("event") == "preempt")
    return (arrivals, len(result), preempts)


def _file_size(args: tuple, result: Any) -> Tuple[int, ...]:
    return (os.path.getsize(args[1]),)


def install(tracer: Tracer, *, service: bool = False) -> None:
    """Wrap the program's layer entry points (and the server's codec when ``service``)."""
    import repro.engine.streaming as streaming
    import repro.instances.compiled as compiled
    from repro.core.fractional import FractionalAdmissionControl
    from repro.core.randomized import RandomizedAdmissionControl
    from repro.engine.backends import NumpyWeightBackend
    from repro.engine.streaming import StreamingSession

    tracer.wrap(compiled, "compile_instance", "instances.compile")
    tracer.wrap(streaming, "compile_sequence", "instances.compile")
    tracer.wrap(FractionalAdmissionControl, "process_compiled_range", "engine.vectorized")
    tracer.wrap(FractionalAdmissionControl, "process_indexed", "engine.vectorized")
    tracer.wrap(NumpyWeightBackend, "register_batch_indexed", "engine.backends:bulk", _len_first)
    tracer.wrap(NumpyWeightBackend, "process_arrival_block_indexed", "engine.backends:block", _len_first)
    tracer.wrap(NumpyWeightBackend, "process_arrival_indexed", "engine.backends:scalar", _one)
    tracer.wrap(RandomizedAdmissionControl, "process_indexed", "core.randomized")
    tracer.wrap(StreamingSession, "submit_batch", "engine.streaming:submit", _entries)
    tracer.wrap(StreamingSession, "save", "engine.streaming:save", _file_size)
    tracer.wrap(StreamingSession, "load", "engine.streaming:load", _file_size)
    if service:
        import repro.service.server as server

        tracer.wrap(server, "decode_frame", "service.wire:decode")
        tracer.wrap(server, "encode_frame", "service.wire:encode")


def traced_passes(
    one_pass: Callable[[], Tuple[float, Dict[str, Any]]],
    seconds: float,
    arrivals: int,
    untraced_rps: float,
) -> Tuple[Tracer, int, Dict[str, float]]:
    """Install the wrappers, repeat ``one_pass`` for ``seconds``, derive the layer metrics.

    For the in-process workloads: each pass starts from fresh state and
    reports ``run_s`` (its timed call), ``window`` (its first and last
    instant) and ``counters`` (:func:`engine_counters` at its end).
    Returns the tracer, the number of passes and the metrics.
    """
    tracer = Tracer()
    install(tracer)
    passes = repeat_for(seconds, one_pass)
    layers = layer_metrics(tracer.spans, [p["window"] for p in passes])
    layers.update(
        {
            "engine.backends.augmentations": sum(p["counters"]["augmentations"] for p in passes),
            "engine.backends.kills": sum(p["counters"]["kills"] for p in passes),
            "trace.window_s": sum(p["window"][1] - p["window"][0] for p in passes),
            "trace.overhead_rps": untraced_rps - arrivals / statistics.median([p["run_s"] for p in passes]),
        }
    )
    return tracer, len(passes), layers


def engine_counters(algorithm: Any) -> Dict[str, float]:
    """Augmentations and dead requests so far, read through public methods."""
    fractional = getattr(algorithm, "shadow", algorithm)
    weights = fractional.weight_state
    kills = sum(1 for rid in weights.weights() if weights.is_dead(rid))
    return {"augmentations": float(fractional.num_augmentations), "kills": float(kills)}


def _inside(span: Span, windows: Sequence[Window]) -> bool:
    return any(lo <= span[1] and span[2] <= hi for lo, hi in windows)


def self_times(spans: Sequence[Span], windows: Sequence[Window]) -> Dict[str, float]:
    """Self time per span name, over spans lying inside one of the ``windows``."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, float] = {}
    for k, span in enumerate(spans):
        if _inside(span, windows):
            out[span[0]] = out.get(span[0], 0.0) + (span[2] - span[1]) - child_time[k]
    return out


def in_window(spans: Iterable[Span], windows: Sequence[Window]) -> List[Span]:
    return [s for s in spans if _inside(s, windows)]


def counter_delta(samples: Sequence[Dict[str, float]], lo: float, hi: float) -> Dict[str, float]:
    """Counter growth between the last sample at or before ``lo`` and the first at or after ``hi``."""
    before = [s for s in samples if s["t"] <= lo]
    after = [s for s in samples if s["t"] >= hi]
    if not before or not after:
        raise RuntimeError(f"no state samples around the window [{lo}, {hi}]")
    first, last = before[-1], after[0]
    return {k: last[k] - first[k] for k in last if k != "t"}


def layer_metrics(spans: Sequence[Span], windows: Sequence[Window]) -> Dict[str, float]:
    """The per-layer metrics that spans give, over the timed ``windows``."""
    selfs = self_times(spans, windows)
    inside = in_window(spans, windows)

    def total(prefix: str) -> float:
        return sum(v for k, v in selfs.items() if k == prefix or k.startswith(prefix + ":"))

    def count(name: str, k: int = 0) -> int:
        return sum(s[4][k] for s in inside if s[0] == name and s[4] is not None)

    saves = [s for s in inside if s[0] == "engine.streaming:save"]
    return {
        "instances.compile_s": total("instances.compile"),
        "instances.compile_calls": float(sum(1 for s in inside if s[0] == "instances.compile")),
        "engine.vectorized.self_s": total("engine.vectorized"),
        "engine.vectorized.bulk_arrivals": float(count("engine.backends:bulk")),
        "engine.vectorized.block_arrivals": float(count("engine.backends:block")),
        "engine.vectorized.scalar_arrivals": float(count("engine.backends:scalar")),
        "engine.backends.kernel_s": total("engine.backends"),
        "core.randomized.self_s": total("core.randomized"),
        "core.preemptions": float(count("engine.streaming:submit", 2)),
        "engine.streaming.submit_self_s": selfs.get("engine.streaming:submit", 0.0),
        "engine.streaming.decisions": float(count("engine.streaming:submit", 1)),
        "engine.streaming.save_s": selfs.get("engine.streaming:save", 0.0),
        "engine.streaming.load_s": selfs.get("engine.streaming:load", 0.0),
        "engine.streaming.checkpoint_bytes": float(saves[-1][4][0]) if saves else 0.0,
        "traced_s": sum(selfs.values()),
    }


def service_metrics(spans: Sequence[Span], windows: Sequence[Window]) -> Dict[str, float]:
    """The server-side metrics of ``service_tcp``, over the timed ``windows``."""
    selfs = self_times(spans, windows)
    inside = in_window(spans, windows)
    submits = [s for s in inside if s[0] == "engine.streaming:submit"]
    return {
        "service.wire.decode_s": selfs.get("service.wire:decode", 0.0),
        "service.wire.encode_s": selfs.get("service.wire:encode", 0.0),
        "service.wire.frames": float(sum(1 for s in inside if s[0] == "service.wire:decode")),
        "service.engine_submit_s": sum(s[2] - s[1] for s in submits),
        "service.batch_arrivals_mean": (
            sum(s[4][0] for s in submits) / len(submits) if submits else 0.0
        ),
    }
