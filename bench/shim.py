"""Run one ``wugbench`` command with the benchmark's timing wrappers.

    python bench/shim.py <trace-dir> <stages|full> <wugbench arguments...>

It installs ``tracer`` (stage spans only, or every layer), runs the
program's own command-line entry point, and writes the spans into
``<trace-dir>`` before exiting with the command's exit code.
"""

import sys
from pathlib import Path

import tracer


def main() -> int:
    trace_dir, mode, *argv = sys.argv[1:]
    spans = tracer.install(Path(trace_dir), full=(mode == "full"))
    from wugbench.cli import main as wugbench_main
    try:
        return wugbench_main(argv)
    finally:
        spans.write()


if __name__ == "__main__":
    sys.exit(main())
