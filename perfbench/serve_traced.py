"""Run ``python -m repro serve ...`` with the benchmark's spans installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_JSON serve --listen ...``

Wraps the engine's layer entry points and the server's frame codec
(:func:`tracing.install`), samples the engine counters after every
checkpoint the server writes (the ``drain`` after the prefix opens the
measured window, the drain on SIGTERM closes it), runs the program's own
command line, and writes the spans and samples when the server exits.
"""

from __future__ import annotations

import sys

import tracing
from common import use_program


def main(argv):
    use_program()
    from repro.cli import main as cli_main
    from repro.engine.streaming import StreamingSession

    tracer = tracing.Tracer()
    tracing.install(tracer, service=True)
    save = StreamingSession.save

    def save_and_sample(self, path):
        result = save(self, path)
        tracer.sample(tracing.engine_counters(self.algorithm))
        return result

    StreamingSession.save = save_and_sample
    try:
        return cli_main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
