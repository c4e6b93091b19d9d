"""``repro serve`` with the benchmark's spans installed, for the traced run.

Wraps the layers the server calls (cache, workload capture and queries,
system models), runs the ``repro`` command line with the remaining
arguments, and writes the trace summary as JSON when the server stops.

    python3 perfbench/traced_serve.py TRACE_OUT.json serve --port 0 --cache-dir DIR
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from spans import Tracer, install  # noqa: E402


def main() -> int:
    from repro.cli import main as repro_main

    out = Path(sys.argv[1])
    tracer = Tracer()
    install(tracer)
    try:
        return repro_main(sys.argv[2:])
    finally:
        out.write_text(json.dumps(tracer.summary()))


if __name__ == "__main__":
    sys.exit(main())
