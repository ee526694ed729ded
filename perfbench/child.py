"""Child-process entry points the benchmark starts.

``python -m perfbench.child cli [--trace-out F] -- <repro args>``
    runs the ``repro`` command line, optionally with every layer wrapper
    installed, and writes the wrappers' report to ``F`` on exit.

``python -m perfbench.child serve --socket S --cache-dir C [--trace-out F]``
    runs a ``repro`` serve daemon (one worker) until SIGTERM drains it,
    optionally traced the same way.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from perfbench import layers
from perfbench.tracer import Tracer


def _tracer(path: str | None) -> Tracer | None:
    if path is None:
        return None
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    return tracer


def _write(tracer: Tracer | None, path: str | None) -> None:
    if tracer is not None:
        Path(path).write_text(json.dumps(tracer.report()), encoding="utf-8")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--trace-out")
    cli.add_argument("args", nargs=argparse.REMAINDER)
    serve = sub.add_parser("serve")
    serve.add_argument("--socket", required=True)
    serve.add_argument("--cache-dir", required=True)
    serve.add_argument("--trace-out")
    args = parser.parse_args(argv)

    tracer = _tracer(args.trace_out)
    if args.mode == "cli":
        from repro.cli import main as repro_main

        command = args.args[1:] if args.args[:1] == ["--"] else args.args
        code = repro_main(command)
    else:
        from repro.serve import run_server

        run_server(args.socket, cache_dir=args.cache_dir, workers=1)
        code = 0
    _write(tracer, args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
