"""Run the sparsity-forge CLI with the span recorders installed.

    python perfbench/cli_child.py TRACE_OUT.json <cli arguments>

Behaves like ``python -m sparsity_forge.cli <cli arguments>`` and then writes
the recorded counters to TRACE_OUT.json.  Needs ``src`` on PYTHONPATH.
"""

import json
import sys

import spans


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer().install()
    tracer.active = True
    from sparsity_forge import cli

    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w", encoding="ascii") as fh:
            json.dump({"counts": tracer.counts, "absent": tracer.absent}, fh)


if __name__ == "__main__":
    sys.exit(main())
