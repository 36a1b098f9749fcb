"""Run the quartic-nve CLI with every module boundary traced.

    python3 perfbench/shim.py SPANS_JSON CLI_ARGS...

Installs the tracer of `tracing.py`, calls `quartic_nve.cli.main`, writes
the spans and counts to SPANS_JSON and exits with the CLI's exit code.
The package must be importable (PYTHONPATH=src).
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import quartic_nve.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return quartic_nve.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
