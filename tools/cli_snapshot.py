"""Print the CLI's user-visible output, for diffing two checkouts.

Run from a checkout's root and diff the outputs of two checkouts::

    PYTHONPATH=src python3 tools/cli_snapshot.py > before.txt
    # ... in the other checkout ...
    PYTHONPATH=src python3 tools/cli_snapshot.py > after.txt
    diff before.txt after.txt

The snapshot holds:

* the parser tree: every parser path, its argument count and its
  ``--help`` text (rendered at 80 columns);
* stdout, stderr and exit code of each classic experiment command for
  every application, plus flag variants, error cases and the
  ``study``/``scenario status`` flag paths, each run as ``python -m
  repro`` in a fresh process;
* the reply lines :class:`~repro.serve.service.StudyService` sends for
  ``mine`` and ``replay`` requests, good and bad, in-process and with no
  cache.

It runs every classic command serially without a cache, the full-scale
MySQL archive included.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

os.environ["COLUMNS"] = "80"

#: Command lines run through ``python -m repro``.
COMMANDS = [
    *(["table", app] for app in ("apache", "gnome", "mysql", "httpd")),
    *(["figure", app] for app in ("apache", "gnome", "mysql", "httpd")),
    ["figure", "mysql", "--width", "20"],
    ["figure", "gnome", "--granularity", "quarter"],
    ["aggregate"],
    *(["mine", app] for app in ("apache", "gnome", "mysql", "httpd")),
    ["mine", "gnome", "--scale", "300"],
    ["replay"],
    ["replay", "--technique", "restart-fresh"],
    ["replay", "--technique", "restart-fresh", "--technique", "checkpoint-rollback"],
    ["replay", "--technique", "magic"],
    ["report"],
    ["report", "--format", "markdown"],
    ["report", "--with-replay", "--format", "markdown"],
    ["catalog"],
    *(["funnel", app] for app in ("apache", "gnome", "mysql", "httpd")),
    ["funnel", "apache", "--scale", "300"],
    ["mine"],
    ["study", "status", "--no-cache", "--nodes", "T1,F2"],
    ["scenario", "status", "--no-cache"],
    ["scenario", "status", "--no-cache", "--nodes", "T1"],
]

#: ``(kind, params)`` requests answered in-process by ``StudyService``.
REQUESTS = [
    ("mine", {"application": "gnome"}),
    ("mine", {"application": "GNOME", "scale": 300}),
    ("mine", {"application": "apache", "scale": "300"}),
    ("mine", {"application": "httpd"}),
    ("mine", {}),
    ("replay", {}),
    ("replay", {"techniques": "restart-fresh,checkpoint-rollback"}),
    ("replay", {"techniques": "magic"}),
    ("replay", {"techniques": ""}),
    ("replay", {"techniques": ["restart-fresh"]}),
]


def parser_paths(
    parser: argparse.ArgumentParser, path: tuple[str, ...] = ()
) -> list[tuple[tuple[str, ...], argparse.ArgumentParser]]:
    """Every parser in the tree, depth first, keyed by its command path."""
    found = [(path, parser)]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                found.extend(parser_paths(child, path + (name,)))
    return found


def argument_count(parser: argparse.ArgumentParser) -> int:
    """Arguments declared on one parser (``-h`` and subcommands excluded)."""
    return sum(
        1
        for action in parser._actions
        if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
    )


def main() -> int:
    from repro.cli import build_parser

    paths = parser_paths(build_parser())
    arguments = sum(argument_count(parser) for _, parser in paths)
    print(f"== parser tree: {len(paths)} parser paths, {arguments} arguments")
    for path, parser in paths:
        print(f"== help: repro {' '.join(path)} ({argument_count(parser)} arguments)")
        print(parser.format_help(), end="")

    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    for argv in COMMANDS:
        result = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        print(f"== run: repro {' '.join(argv)} (exit {result.returncode})")
        print("-- stdout")
        print(result.stdout, end="")
        print("-- stderr")
        print(result.stderr, end="")

    from repro.serve.protocol import Request, encode_line
    from repro.serve.service import StudyService

    service = StudyService()
    for index, (kind, params) in enumerate(REQUESTS):
        reply = encode_line(
            service.handle(Request(kind=kind, params=params, id=f"r{index}"))
        )
        print(f"== serve: {kind} {params}")
        print(reply.decode("utf-8"), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
