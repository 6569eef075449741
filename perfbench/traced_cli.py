"""Run one ``permsym`` CLI invocation with spans recorded.

Usage: python3 traced_cli.py SPANS_PATH OP_ID -- CLI_ARGS...

Exits with the CLI's own exit code.  Importing ``permsym.cli`` first lets it
apply the PERMSYM_THREADS cap before numpy loads.
"""

import sys

from permsym import cli

from tracer import Recorder


def main() -> int:
    spans_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_PATH OP_ID -- CLI_ARGS...")
    recorder = Recorder()
    recorder.install()
    try:
        return cli.main(argv)
    finally:
        recorder.dump(spans_path, int(op_id))


if __name__ == "__main__":
    sys.exit(main())
