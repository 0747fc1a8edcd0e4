"""Traced launcher: ``python perfbench/launch.py SPANS.json <repro args>``.

Installs the span recorder (:mod:`spans`) and then runs ``repro.cli``'s
entry point with the given ``serve`` or ``build`` arguments. The spans
are written to ``SPANS.json`` when the command returns, including after
the SIGINT that stops a server.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import spans  # noqa: E402


def main(argv: list) -> int:
    out, cli_args = argv[0], argv[1:]
    measure.use_program()
    recorder = spans.SpanRecorder()
    spans.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
