"""The traced run's server child: ``repro serve`` under the layer wrappers.

``python -m bench.traced_server --spans FILE <serve arguments>`` installs
:mod:`bench.trace`'s wrappers and then calls ``repro.cli.main(["serve", ...])``
— the very entry point ``python -m repro serve`` runs — so the traced
``serve_closed`` run has the same process topology as the untraced one.  On
exit (the harness sends SIGINT, which ``repro serve`` traps) the spans and the
end-of-run counts are written to ``FILE``; the harness assigns epoch ids.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.traced_server")
    parser.add_argument("--spans", type=Path, required=True)
    args, serve_arguments = parser.parse_known_args(argv)

    from repro import cli

    from bench import trace

    recorder = trace.SpanRecorder()
    try:
        with trace.installed(recorder):
            return cli.main(["serve", *serve_arguments])
    finally:
        finals = trace.final_counts(recorder.coordinator) if recorder.coordinator else {}
        trace.write_spans(args.spans, recorder.export(), trailer=finals)


if __name__ == "__main__":
    sys.exit(main())
