"""Run the ``repro`` CLI under the benchmark's tracer.

    python -m bench.traced_entry --trace-out T [--parent ID] [--label L] -- ARGS...

does what ``python -m repro ARGS...`` does, with every layer target of
:mod:`bench.trace` wrapped.  ``import repro.cli`` is timed as the
``cli.import`` span and ``repro.cli.main`` as ``cli.main``; the spans
are written to ``T`` when the CLI returns.  ``--parent`` names the span
of the launching process that this process's top spans attach to.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from bench.trace import IMPORT_SPAN, MAIN_SPAN, Recorder, install


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.traced_entry")
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--parent", default=None)
    parser.add_argument("--label", default="")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args
    if cli_args[:1] == ["--"]:
        cli_args = cli_args[1:]

    recorder = Recorder(str(os.getpid()), default_parent=args.parent,
                        label=args.label)
    try:
        with recorder.span(IMPORT_SPAN):
            import repro.cli
        install(recorder)
        with recorder.span(MAIN_SPAN) as main_id:
            # Threads the CLI starts (the serve executor) attach here.
            recorder.default_parent = main_id
            try:
                return repro.cli.main(cli_args)
            finally:
                recorder.default_parent = args.parent
    finally:
        recorder.write(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
