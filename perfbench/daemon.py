"""``repro serve`` under the outside-in tracer (the traced ``serve-mixed`` run).

``python3 perfbench/daemon.py --trace-out FILE --spans FILE serve ARGS...``
installs the tracer's patches, enables the program's own span recorder,
and runs the ``repro serve`` command line unchanged.  When the daemon is
interrupted it drains, the patches are undone, and the per-layer
metrics of everything it served are written to the ``--trace-out`` file
and the raw spans to the ``--spans`` file.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from common import write_json


def main(argv):
    if len(argv) < 4 or argv[0] != "--trace-out" or argv[2] != "--spans":
        raise SystemExit("usage: daemon.py --trace-out FILE --spans FILE serve ARGS...")
    trace_out, spans_out = Path(argv[1]), Path(argv[3])
    import repro.cli
    import repro.obs
    from tracer import Tracer, install, layer_metrics

    tracer = Tracer()
    install(tracer)
    # enabled here, the daemon keeps this recorder instead of its own, so
    # its spans outlive the daemon's shutdown
    recorder = repro.obs.enable()
    start = time.perf_counter()
    try:
        code = repro.cli.main(argv[4:])
    finally:
        tracer.restore()
    layers = layer_metrics(tracer, time.perf_counter() - start, recorder.export_spans())
    write_json(trace_out, layers)
    tracer.dump(spans_out, {"argv": argv[4:]})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
