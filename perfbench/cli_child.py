"""Run one nodaltrade CLI command with spans, for the traced run of cli_cold.

    python3 perfbench/cli_child.py <spans.json> <subcommand> [args...]

Imports the CLI, wraps the public functions (spans.py), runs the command
exactly as `python -m nodaltrade.cli` would, and writes the spans and
counts to <spans.json> when it ends.  Standard output is untouched, so it
must be byte-identical to an untraced run.
"""

from __future__ import annotations

import json
import sys

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import nodaltrade.cli

    tracer = spans.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return nodaltrade.cli.main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
