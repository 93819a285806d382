"""A traced `foursquares` command-line run, one per child process.

    python3 bench/clichild.py TRACE_OUT ARG...

Times ``import foursquares.cli``, wraps the package's functions, runs
``cli.run(ARG...)`` with its output captured, writes the per-layer totals to
TRACE_OUT, prints the captured output and exits with the command's code.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path
from time import perf_counter

import spans


def main() -> int:
    trace_out, argv = Path(sys.argv[1]), sys.argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = perf_counter()
    import foursquares.cli  # noqa: F401  (the import being timed)
    import_s = perf_counter() - t0

    tracer = spans.Tracer()
    mods = spans.install(tracer)
    out = io.StringIO()
    rc = mods["cli"].run(argv, out=out)
    text = out.getvalue()
    tracer.add("cli.import_s", import_s)
    tracer.add("cli.output_bytes", len(text.encode()))
    trace_out.write_text(json.dumps({
        "trace": {**tracer.raw(), **spans.table_info(mods)},
        "roadmap": spans.roadmap_durations(tracer),
    }))
    tracer.dump(trace_out.with_suffix(".spans.json"))
    sys.stdout.write(text)
    return rc


if __name__ == "__main__":
    sys.exit(main())
