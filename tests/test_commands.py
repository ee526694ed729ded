"""The classic command table: every entry resolves to the node the paper
artifact names, the CLI prints exactly that node's text, and the serve
daemon's ``mine``/``replay`` kinds agree with the CLI flags they mirror."""

import pytest

import repro.studygraph
from repro.cli import main
from repro.commands import COMMANDS, application
from repro.serve.protocol import Request
from repro.serve.service import StudyService
from repro.studygraph import StudyContext, default_registry, run_single_node, run_study

#: ``(argv, node, overrides)`` for every table entry and application.
#: ``mine``/``funnel`` run at a reduced archive scale (the full-scale
#: chains are exercised by the study benchmark and the CI smoke jobs).
CASES = [
    (["table", "apache"], "T1", {}),
    (["table", "gnome"], "T2", {}),
    (["table", "mysql"], "T3", {}),
    (["figure", "apache"], "F1", {"F1": {"width": 40}}),
    (["figure", "gnome"], "F2", {"F2": {"width": 40, "granularity": "month"}}),
    (["figure", "mysql", "--width", "20"], "F3", {"F3": {"width": 20}}),
    (["aggregate"], "A1", {}),
    *(
        (
            ["mine", app, "--scale", "300"],
            f"mine.{app}",
            {f"parsed.{app}": {"scale": 300}},
        )
        for app in ("apache", "gnome", "mysql")
    ),
    (
        ["replay", "--technique", "restart-fresh"],
        "E1",
        {"E1": {"techniques": "restart-fresh"}},
    ),
    (
        ["report", "--format", "markdown"],
        "report",
        {"report": {"format": "markdown", "with_replay": False}},
    ),
    (["catalog"], "catalog", {}),
    *(
        (
            ["funnel", app, "--scale", "300"],
            f"funnel.{app}",
            {f"parsed.{app}": {"scale": 300}},
        )
        for app in ("apache", "gnome", "mysql")
    ),
]


def _recorded(monkeypatch, argv):
    """The ``(node, overrides)`` the CLI runs for ``argv``, nothing executed."""
    calls = []

    def record(node, *, overrides=None):
        calls.append((node, overrides))
        return {"text": ""}

    monkeypatch.setattr(repro.studygraph, "run_single_node", record)
    assert main(argv) == 0
    (call,) = calls
    return call


def _batch_digest(node, overrides):
    registry = default_registry()
    if overrides:
        registry = registry.with_overrides(overrides)
    result = run_study(StudyContext.default(), nodes=[node], registry=registry)
    return result.runs[node].digest


class TestTableEntries:
    def test_cases_cover_every_entry_and_application(self):
        covered = {}
        for argv, _, _ in CASES:
            covered.setdefault(argv[0], set()).add(
                argv[1] if COMMANDS[argv[0]].per_application else None
            )
        assert set(covered) == set(COMMANDS)
        for name, apps in covered.items():
            if COMMANDS[name].per_application:
                assert apps == {"apache", "gnome", "mysql"}, name

    @pytest.mark.parametrize(
        ("argv", "node", "overrides"), CASES, ids=[" ".join(c[0]) for c in CASES]
    )
    def test_cli_runs_the_entry_node(self, monkeypatch, argv, node, overrides):
        assert _recorded(monkeypatch, argv) == (node, overrides)

    @pytest.mark.parametrize(
        ("argv", "node", "overrides"), CASES, ids=[" ".join(c[0]) for c in CASES]
    )
    def test_cli_prints_the_node_text(self, capsys, argv, node, overrides):
        assert main(argv) == 0
        expected = run_single_node(node, overrides=overrides)["text"] + "\n"
        assert capsys.readouterr().out == expected

    def test_replay_without_technique_keeps_every_technique(self, monkeypatch):
        from repro.recovery.nodes import TECHNIQUES

        assert _recorded(monkeypatch, ["replay"]) == ("E1", {})
        e1 = default_registry().node("E1")
        assert e1.params_dict() == {"techniques": ",".join(TECHNIQUES)}

    def test_unset_and_inapplicable_flags_set_nothing(self):
        assert COMMANDS["report"].resolve() == ("report", {})
        assert COMMANDS["mine"].resolve(application("MySQL"), {"scale": None}) == (
            "mine.mysql", {}
        )
        values = {"width": 20, "granularity": "quarter"}
        assert COMMANDS["figure"].resolve(application("apache"), values) == (
            "F1", {"F1": {"width": 20}}
        )


@pytest.fixture(scope="module")
def service():
    return StudyService(workers=1)


def _served(service, monkeypatch, kind, params):
    """``(node, overrides)`` the service resolves, and the reply's digest."""
    calls = []
    run_node = service._run_node

    def record(node, overrides=None):
        calls.append((node, overrides))
        return run_node(node, overrides)

    monkeypatch.setattr(service, "_run_node", record)
    response = service.handle(Request(kind=kind, params=params))
    assert response.ok, response.error
    (call,) = calls
    return call, response.payload["digest"]


class TestServeAgreesWithCli:
    def test_mine_with_scale(self, service, monkeypatch):
        resolved, digest = _served(
            service, monkeypatch, "mine", {"application": "gnome", "scale": 300}
        )
        assert resolved == _recorded(monkeypatch, ["mine", "gnome", "--scale", "300"])
        assert resolved == ("mine.gnome", {"parsed.gnome": {"scale": 300}})
        assert digest == _batch_digest(*resolved)

    def test_mine_without_scale(self, service, monkeypatch):
        resolved, digest = _served(service, monkeypatch, "mine", {"application": "gnome"})
        assert resolved == _recorded(monkeypatch, ["mine", "gnome"])
        assert resolved == ("mine.gnome", {})
        assert digest == _batch_digest(*resolved)

    def test_replay_with_two_techniques(self, service, monkeypatch):
        resolved, digest = _served(
            service,
            monkeypatch,
            "replay",
            {"techniques": "restart-fresh,checkpoint-rollback"},
        )
        assert resolved == _recorded(
            monkeypatch,
            ["replay", "--technique", "restart-fresh", "--technique", "checkpoint-rollback"],
        )
        assert resolved == ("E1", {"E1": {"techniques": "restart-fresh,checkpoint-rollback"}})
        assert digest == _batch_digest(*resolved)


class TestUnknownApplication:
    @pytest.mark.parametrize("command", ["table", "figure", "funnel"])
    def test_cli_and_serve_give_the_same_message(self, service, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "httpd"])
        message = excinfo.value.code
        assert message == (
            "unknown application 'httpd'; choose from apache, gnome, mysql"
        )
        response = service.handle(Request(kind="mine", params={"application": "httpd"}))
        assert not response.ok
        assert response.error == f"ValueError: {message}"
