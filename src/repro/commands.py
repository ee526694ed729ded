"""The classic experiment commands: one table from command to study-graph node.

Each paper artifact is reached through a classic command: ``repro table
apache`` prints Table 1 (node ``T1``), ``repro aggregate`` the Section
5.4 numbers (``A1``), ``repro replay`` the recovery replay (``E1``).
:data:`COMMANDS` is the one place a classic command is added: the CLI
generates its parser from it, the serve daemon's ``mine`` and ``replay``
kinds resolve through it, and :mod:`repro.studygraph.nodes` takes the
T/F node names from it.  It imports no part of the study graph, since
the CLI loads it to build its parser.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

from repro.bugdb.enums import Application
from repro.recovery.nodes import TECHNIQUES

#: Tables 1-3 and Figures 1-3: one node per application.
TABLE_NODES = {Application.APACHE: "T1", Application.GNOME: "T2", Application.MYSQL: "T3"}
FIGURE_NODES = {Application.APACHE: "F1", Application.GNOME: "F2", Application.MYSQL: "F3"}


def application(name: Any) -> Application:
    """The application called ``name``, in any case.

    Raises:
        ValueError: unknown name; the message lists the valid names.
    """
    try:
        return Application(str(name).lower())
    except ValueError:
        raise ValueError(
            f"unknown application {name!r}; choose from "
            + ", ".join(app.value for app in Application)
        ) from None


def _per_application(template: str) -> dict[Application, str]:
    return {app: template.format(app=app.value) for app in Application}


@dataclasses.dataclass(frozen=True)
class Flag:
    """One command-line flag and the node parameter it sets.

    ``param`` is also the flag's ``argparse`` dest, and ``options`` its
    other ``argparse`` keywords.  ``node`` names the node owning
    ``param`` per application (None: the command's own node); the flag
    sets nothing for an application missing from it.  A repeated flag's
    values are comma-joined, and an unset one (None) leaves the node's
    own default.
    """

    name: str
    param: str
    options: Mapping[str, Any]
    node: Mapping[Application, str] | None = None


def _flag(name: str, param: str, *, node=None, **options: Any) -> Flag:
    return Flag(name, param, options, node)


@dataclasses.dataclass(frozen=True)
class Command:
    """One classic command: the node it prints, one name or one per
    application, and the flags that set node parameters, in ``--help``
    order.  With ``subcommands`` the application is a subcommand (``mine
    apache``) and ``{app}`` in ``help`` is its display name; otherwise a
    per-application command takes it as an argument (``table apache``).
    """

    name: str
    help: str
    node: str | Mapping[Application, str]
    flags: tuple[Flag, ...] = ()
    subcommands: bool = False

    @property
    def per_application(self) -> bool:
        return not isinstance(self.node, str)

    def resolve(
        self, app: Application | None = None, values: Mapping[str, Any] | None = None
    ) -> tuple[str, dict[str, dict[str, Any]]]:
        """``(node, overrides)`` for one invocation; ``values`` maps flag
        params to the values given."""
        values = values or {}
        node = self.node if isinstance(self.node, str) else self.node[app]
        overrides: dict[str, dict[str, Any]] = {}
        for flag in self.flags:
            target = node if flag.node is None else flag.node.get(app)
            value = values.get(flag.param)
            if target is None or value is None:
                continue
            if isinstance(value, list):
                value = ",".join(value)
            overrides.setdefault(target, {})[flag.param] = value
        return node, overrides


def _scale(help_text: str) -> Flag:
    """``--scale``: the raw archive size of the application's parse."""
    return _flag(
        "--scale", "scale", node=_per_application("parsed.{app}"),
        type=int, default=None, help=help_text,
    )


#: Every classic command, by name.
COMMANDS = {
    command.name: command
    for command in (
        Command("table", "print Table 1/2/3 for an application", TABLE_NODES),
        Command("figure", "print Figure 1/2/3 for an application", FIGURE_NODES, (
            _flag("--width", "width", type=int, default=40, help="bar width in characters"),
            _flag(
                "--granularity", "granularity",
                node={Application.GNOME: FIGURE_NODES[Application.GNOME]},
                choices=("month", "quarter"), default="month",
                help="time bucketing for GNOME",
            ),
        )),
        Command("aggregate", "print the Section 5.4 numbers", "A1"),
        Command(
            "mine", "mine the generated {app} archive", _per_application("mine.{app}"),
            (_scale("raw archive size (defaults to the paper's full scale)"),),
            subcommands=True,
        ),
        Command("replay", "replay all faults under recovery techniques", "E1", (
            _flag(
                "--technique", "techniques", action="append", choices=sorted(TECHNIQUES),
                help="technique to replay (repeatable; default: all)",
            ),
        )),
        Command("report", "print the full study report", "report", (
            _flag(
                "--with-replay", "with_replay", action="store_true", default=False,
                help="include the recovery replay (slower)",
            ),
            _flag(
                "--format", "format", choices=("text", "markdown"), default="text",
                help="output format",
            ),
        )),
        Command("catalog", "print the 139-fault catalog as markdown", "catalog"),
        Command(
            "funnel", "print the mining narrowing funnel for an application",
            _per_application("funnel.{app}"), (_scale("raw archive size"),),
        ),
    )
}
