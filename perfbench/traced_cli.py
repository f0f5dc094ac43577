"""Run the qcslab CLI with the outside-in tracer installed.

Usage: python3 perfbench/traced_cli.py <qcslab arguments>; the spans and
computed counts are written as JSON to the file named by PERFBENCH_TRACE_OUT
when the command exits, whatever its exit code.
"""

import json
import os
import sys

from tracer import Tracer


def main() -> None:
    import qcslab.cli

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli", "cli.main"):
            qcslab.cli.main(args=sys.argv[1:], prog_name="qcslab")
    finally:
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "absent": tracer.absent}, fh)


if __name__ == "__main__":
    main()
