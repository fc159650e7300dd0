"""Start ``repro serve``, optionally with the benchmark's layer wrappers installed.

Run as ``python3 perfbench/serve_launcher.py [--trace-out SPANS.json]
<repro serve arguments>``.  With ``--trace-out`` the spans recorded inside
the server are written to that file when the server stops (on SIGINT).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.experiments.cli import main  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def launch(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = Tracer()
    if trace_out is not None:
        install(tracer)
        tracer.enabled = True
    code = main(["serve", *argv])
    if trace_out is not None:
        tracer.enabled = False
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
