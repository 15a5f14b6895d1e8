"""Run one CLI call with the tracer installed, for the traced cli workload.

    python3 bench/trace_child.py SPANS_OUT ARGS...

Times the import of ``puiseux.cli``, installs the hooks, runs the command
exactly as ``python -m puiseux.cli ARGS...`` would, writes the spans and
totals to SPANS_OUT and exits with the command's exit code.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import puiseux.cli as cli

    import_ns = time.perf_counter_ns() - start
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_op(os.path.basename(spans_path))
    code = cli.main(args)
    tracer.end_op()
    sys.stdout.flush()
    tracer.dump(spans_path)
    with open(spans_path + ".totals", "w") as fh:
        json.dump({"import_ns": import_ns, "totals": tracer.totals(), "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
