"""Command-line interface for the reproduction.

Usage (after ``pip install -e .``, or via ``python -m repro``)::

    repro study run --workers 4   # every experiment, parallel + memoized
    repro study run --trace run.trace --workers 4   # same, traced
    repro study run --live live.json   # monitored
    repro study watch live.json   # refreshing status line for a live run
    repro study status            # per-node memo state, nothing executed
    repro study status --trace run.trace   # plus traced wall-ms per node
    repro study diff cache-a cache-b   # node-by-node digest drift report
    repro study graph             # the node catalog and its edges
    repro scenario run --workers 4   # the multi-fault pair sweep, memoized
    repro scenario matrix         # the pair-interaction matrix
    repro scenario status         # memo state of the scenario closure
    repro trace summary run.trace   # phases, coverage, self time, slowest spans
    repro trace export run.trace --out run.json   # Perfetto / speedscope JSON
    repro serve start --workers 4 --warm T1,report   # warm daemon, detached
    repro serve request study --param node=T1        # served in milliseconds
    repro serve request ping --repeat 2000 --concurrency 8   # burst + p99
    repro serve status            # health, admission, request counters
    repro serve stop              # graceful drain and shutdown
    repro table apache            # Table 1 / 2 / 3
    repro figure gnome            # Figure 1 / 2 / 3 (ASCII)
    repro aggregate               # Section 5.4 numbers
    repro mine mysql              # run the mining pipeline, print the trace
    repro mine run --application mysql --workers 4   # fast archive path
    repro replay --technique process-pairs
    repro campaign run --workers 4 --journal run.jsonl   # parallel, resumable
    repro campaign status --journal run.jsonl
    repro report                  # the full study report
    repro export-archive apache apache.gnats   # write a raw archive

Every classic experiment command (``table``, ``figure``, ``aggregate``,
``mine <app>``, ``replay``, ``report``, ``catalog``, ``funnel``) is a
single-node invocation of the study graph: the command resolves its
registered node, applies flag overrides, and prints the node's rendered
text.  Their parsers and their one handler are generated from the
command table in :mod:`repro.commands`, the one place a classic command
is added.  ``repro study run`` executes the same graph wholesale.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Sequence

from repro.bugdb.enums import Application
from repro.recovery.nodes import TECHNIQUES as _TECHNIQUES, resolve_technique
from repro.reports.tableformat import format_table
from repro.rng import DEFAULT_SEED as _CAMPAIGN_DEFAULT_SEED

#: Default memo directory for ``repro study`` (gitignored).
DEFAULT_STUDY_CACHE = ".repro-study-cache"


def _application(name: str) -> Application:
    from repro.commands import application

    try:
        return application(name)
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _cmd_classic(args: argparse.Namespace) -> int:
    """Every classic command: print its node's text, flags applied."""
    command = args.classic
    app = _application(args.application) if command.per_application else None
    node, overrides = command.resolve(app, vars(args))

    from repro.studygraph import run_single_node

    print(run_single_node(node, overrides=overrides)["text"])
    return 0


def _cmd_mine_run(args: argparse.Namespace) -> int:
    from repro.obs.metrics import MetricsRegistry
    from repro.pipeline import mine_application
    from repro.pipeline.cache import ParseMineCache
    from repro.pipeline.runner import mine_archive_file

    if args.workers < 1:
        raise SystemExit("--workers must be at least 1")
    if args.max_shard_bytes is not None and args.max_shard_bytes < 1:
        raise SystemExit("--max-shard-bytes must be positive")
    if not args.target_application:
        raise SystemExit("mine run requires --application")
    application = _application(args.target_application)

    if args.archive is not None:
        # Streaming byte-range path: the archive file is never loaded
        # whole; shards are record-aligned byte ranges.
        from repro.pipeline.streamsplit import DEFAULT_MAX_SHARD_BYTES

        cache = (
            ParseMineCache(args.cache_dir)
            if (args.cache_dir is not None and not args.no_cache)
            else None
        )
        try:
            run = mine_archive_file(
                application,
                args.archive,
                max_shard_bytes=args.max_shard_bytes or DEFAULT_MAX_SHARD_BYTES,
                workers=args.workers,
                cache=cache,
                telemetry=MetricsRegistry(),
                index_dir=args.index_dir,
            )
        except ValueError as error:
            raise SystemExit(str(error)) from error
    else:
        if args.max_shard_bytes is not None or args.index_dir is not None:
            raise SystemExit(
                "--max-shard-bytes/--index-dir require --archive "
                "(the streaming file path)"
            )
        run = mine_application(
            application,
            scale=args.scale,
            workers=args.workers,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            telemetry=MetricsRegistry(),
        )
    print(
        format_table(
            ["stage", "survivors"],
            run.result.trace.as_rows(),
            title=f"Mining narrowing for {application.display_name} "
            f"(workers={args.workers})",
        )
    )
    print(f"final unique bugs: {len(run.result.items)}")
    for line in run.summary_lines():
        print(line)
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from repro.bugdb.segments import SegmentedTextIndex

    root = Path(args.dir)
    if not (root / "manifest.json").exists():
        raise SystemExit(f"no segment manifest under {args.dir!r}")
    index = SegmentedTextIndex(root)
    if args.index_action == "status":
        status = index.status()
        rows = [
            ["documents", status["documents"]],
            ["segments", status["segment_count"]],
            ["size", f"{status['size_bytes'] / (1024 * 1024):.2f} MB"],
            ["memtable docs", status["memtable_documents"]],
            ["compactable tiers", len(status["compaction_candidates"])],
        ]
        print(format_table(["field", "value"], rows, title=f"Segment index {root}"))
        if args.segments:
            seg_rows = [
                [
                    seg["name"],
                    seg["doc_base"],
                    seg["doc_count"],
                    seg["token_count"],
                    f"{seg['size_bytes'] / 1024:.1f} KB",
                ]
                for seg in status["segments"]
            ]
            print(
                format_table(
                    ["segment", "doc base", "docs", "tokens", "size"],
                    seg_rows,
                )
            )
        return 0
    if args.index_action == "compact":
        stats = index.compact(full=args.full, tier_fanout=args.tier_fanout)
        if not stats.compacted:
            print("nothing to compact (no tier holds enough segments)")
        else:
            print(
                f"merged {stats.merged_segments} segment(s) into "
                f"{stats.produced_segments} "
                f"({stats.bytes_read / (1024 * 1024):.2f} MB read, "
                f"{stats.bytes_written / (1024 * 1024):.2f} MB written)"
            )
        print(
            f"now {index.segment_count} segment(s), "
            f"{index.document_count} document(s)"
        )
        return 0
    raise SystemExit(f"unknown index action {args.index_action!r}")


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.corpus.loader import full_study
    from repro.harness import ProgressReporter, load_journal
    from repro.harness.campaigns import KIND_REPLAY, run_replay_campaign
    from repro.obs.metrics import MetricsRegistry
    from repro.recovery.driver import REPLAY_COLUMNS
    from repro.rng import DEFAULT_SEED

    if args.workers < 1:
        raise SystemExit("--workers must be at least 1")

    def load(path: str):
        try:
            return load_journal(path)
        except FileNotFoundError:
            raise SystemExit(f"no journal at {path!r}") from None

    if args.action == "status":
        if not args.journal:
            raise SystemExit("campaign status requires --journal")
        contents = load(args.journal)
        meta = contents.meta
        total = meta.get("total_units", "?")
        survived = sum(
            1 for record in contents.records.values()
            if record["result"].get("survived")
        )
        rows = [
            ["kind", meta.get("kind", "?")],
            ["technique", meta.get("technique", "?")],
            ["seed", meta.get("seed", "?")],
            ["scope", meta.get("application") or "full study"],
            ["completed units", f"{contents.completed}/{total}"],
            ["survived so far", survived],
        ]
        if contents.skipped_lines:
            rows.append(["corrupt lines skipped", contents.skipped_lines])
        print(format_table(["field", "value"], rows, title=f"Campaign journal {args.journal}"))
        return 0

    if args.action == "resume":
        if not args.journal:
            raise SystemExit("campaign resume requires --journal")
        meta = load(args.journal).meta
        if meta.get("kind") != KIND_REPLAY:
            raise SystemExit(
                f"journal {args.journal!r} has no resumable replay-campaign header"
            )
        technique_name = meta.get("technique", args.technique)
        seed = meta.get("seed", DEFAULT_SEED)
        application = meta.get("application")
        limit = meta.get("limit")
    else:  # run
        technique_name = args.technique
        seed = args.seed
        application = args.application
        limit = args.limit

    try:
        factory = resolve_technique(technique_name)
    except ValueError as error:
        raise SystemExit(str(error)) from None

    study = full_study()
    if application is not None:
        faults = list(study.corpus(_application(application)).faults)
    else:
        faults = study.all_faults()
    if limit is not None:
        faults = faults[: limit]

    telemetry = MetricsRegistry()
    report = run_replay_campaign(
        faults,
        factory,
        seed=seed,
        workers=args.workers,
        journal_path=args.journal,
        journal_meta={
            "kind": KIND_REPLAY,
            "technique": technique_name,
            "seed": seed,
            "application": application,
            "limit": limit,
            "total_units": len(faults),
        },
        telemetry=telemetry,
        progress=ProgressReporter.if_interactive(
            len(faults),
            quiet=args.quiet,
            label=f"campaign {technique_name}",
        ),
    )
    print(
        format_table(
            REPLAY_COLUMNS,
            [report.row()],
            title=f"Campaign replay over {len(faults)} study faults "
            f"(workers={args.workers})",
        )
    )
    for line in telemetry.summary_lines():
        print(line)
    if args.journal:
        print(f"journal: {args.journal}")
    return 0


def _cmd_csv(args: argparse.Namespace) -> int:
    from repro.analysis.distributions import study_figure_series
    from repro.analysis.tables import classification_table
    from repro.corpus.loader import full_study
    from repro.reports.csvexport import classification_table_csv, figure_series_csv

    application = _application(args.application)
    study = full_study()
    if args.kind == "table":
        table = classification_table(study.corpus(application))
        print(classification_table_csv(table), end="")
    else:
        series = study_figure_series(study, application)
        print(figure_series_csv(series), end="")
    return 0


def _cmd_export_archive(args: argparse.Namespace) -> int:
    from repro.corpus.loader import full_study
    from repro.fileio import atomic_write
    from repro.pipeline.formats import format_for

    application = _application(args.application)
    corpus = full_study().corpus(application)
    text = format_for(application).render(corpus, args.scale)
    atomic_write(args.path, text)
    print(f"wrote {len(text)} bytes to {args.path}")
    return 0


def _split_node_list(value: str) -> list[str]:
    """Split a comma-joined node list, keeping grid-point names whole.

    Grid points are named ``family[axis=value,...]`` -- commas inside
    the brackets are part of the name, not separators.
    """
    names: list[str] = []
    part: list[str] = []
    depth = 0
    for char in value:
        if char == "," and depth == 0:
            if part:
                names.append("".join(part))
                part = []
            continue
        depth += {"[": 1, "]": -1}.get(char, 0)
        part.append(char)
    if part:
        names.append("".join(part))
    return names


def _study_nodes(args: argparse.Namespace) -> list[str] | None:
    """Flatten repeatable, comma-separated ``--nodes`` values.

    Without ``--nodes``, the command's ``default_nodes`` apply, if any.
    """
    names: list[str] = []
    for value in args.nodes or [getattr(args, "default_nodes", "")]:
        names.extend(_split_node_list(value))
    return names or None


def _study_cache_dir(args: argparse.Namespace) -> str | None:
    return None if args.no_cache else args.cache_dir


def _collapse_grid_rows(
    rows: Sequence[Sequence[Any]], registry: Any, merge: Any
) -> list[list[Any]]:
    """Collapse grid-point rows (name in column 0) to one row per family.

    Non-grid rows pass through in place; each family's points fold into
    a single ``merge(family, member_rows)`` row at the position of the
    family's first point.  ``study run|status --expand-grids`` skips
    this and shows every point.
    """
    family_of = {
        node.name: node.family for node in registry.nodes() if node.family
    }
    ordered: list[tuple[str, Any]] = []
    groups: dict[str, list[Sequence[Any]]] = {}
    for row in rows:
        family = family_of.get(row[0])
        if family is None:
            ordered.append(("row", row))
            continue
        if family not in groups:
            groups[family] = []
            ordered.append(("family", family))
        groups[family].append(row)
    collapsed: list[list[Any]] = []
    for kind, value in ordered:
        if kind == "row":
            collapsed.append(list(value))
        else:
            collapsed.append(merge(value, groups[value]))
    return collapsed


def _merge_run_rows(family: str, members: list[Sequence[Any]]) -> list[Any]:
    """One ``family[xN]`` summary row for ``study run`` output."""
    executed = sum(1 for row in members if row[1] == "executed")
    cached = len(members) - executed
    if cached == 0:
        status = "executed"
    elif executed == 0:
        status = "cached"
    else:
        status = f"{executed} executed, {cached} cached"
    wall = sum(float(row[2]) for row in members)
    return [f"{family}[x{len(members)}]", status, f"{wall:.1f}", "-"]


def _merge_status_rows(family: str, members: list[Sequence[Any]]) -> list[Any]:
    """One ``family[xN]`` summary row for ``study status`` output."""
    states: dict[str, int] = {}
    for row in members:
        states[row[2]] = states.get(row[2], 0) + 1
    if len(states) == 1:
        state = next(iter(states))
    else:
        state = " ".join(f"{name}:{count}" for name, count in sorted(states.items()))
    merged = [f"{family}[x{len(members)}]", "grid", state, "-"]
    for column in range(4, len(members[0])):
        walls = [float(row[column]) for row in members if row[column] != "-"]
        merged.append(f"{sum(walls):.1f}" if walls else "-")
    return merged


def _cmd_study_run(args: argparse.Namespace) -> int:
    import contextlib

    from repro import obs
    from repro.harness.telemetry import ProgressReporter
    from repro.obs.metrics import MetricsRegistry
    from repro.studygraph import StudyContext, default_registry, run_study
    from repro.studygraph.registry import GraphError

    from repro.obs import resources

    if args.workers < 1:
        raise SystemExit("--workers must be at least 1")
    telemetry = MetricsRegistry()
    context = StudyContext.default(
        workers=args.workers,
        cache_dir=_study_cache_dir(args),
        telemetry=telemetry,
    )
    nodes = _study_nodes(args)
    registry = default_registry()
    monitor = obs.RunMonitor(args.live) if args.live else None
    if getattr(args, "sample_resources", None) is not None:
        if args.sample_resources <= 0:
            raise SystemExit("--sample-resources interval must be positive")
        # Module-global config: the engine starts the dispatcher sampler
        # and fork-pool workers inherit the interval across the fork.
        resources.configure(args.sample_resources)
    try:
        closure = registry.topo_order(registry.targets(nodes))
        tracing = (
            obs.tracing(args.trace) if args.trace else contextlib.nullcontext()
        )
        with tracing:
            result = run_study(
                context,
                nodes=nodes,
                outputs=[args.show] if args.show else None,
                registry=registry,
                progress=ProgressReporter.if_interactive(
                    len(closure), quiet=args.quiet, label="study"
                ),
                monitor=monitor,
            )
    except GraphError as exc:
        raise SystemExit(str(exc)) from None
    finally:
        if getattr(args, "sample_resources", None) is not None:
            resources.configure(None)
    summary_rows = result.summary_rows()
    if not args.expand_grids:
        summary_rows = _collapse_grid_rows(summary_rows, registry, _merge_run_rows)
    print(
        format_table(
            ["node", "status", "wall ms", "digest"],
            summary_rows,
            title=f"Study run: {result.executed} executed, {result.cached} cached, "
            f"{result.waves} waves (workers={args.workers})",
        )
    )
    for line in telemetry.summary_lines():
        print(line)
    if args.trace:
        print(f"trace: {args.trace}")
    if args.live:
        print(f"live snapshot: {args.live}")
    if args.show:
        print()
        print(result.output_text(args.show))
    return 0


def _cmd_study_watch(args: argparse.Namespace) -> int:
    import time

    from repro import obs

    deadline = time.monotonic() + args.timeout if args.timeout else None
    while True:
        snapshot = obs.read_snapshot(args.snapshot)
        print(
            obs.render_watch_line(snapshot, stale_after=args.stale_after),
            flush=True,
        )
        if snapshot is not None and snapshot.get("state") == "finished":
            return 0
        if args.once:
            return 0
        if deadline is not None and time.monotonic() >= deadline:
            print("watch timed out before the run finished", file=sys.stderr)
            return 1
        time.sleep(args.interval)


def _report_skipped(skipped: int) -> None:
    """Say how many torn or corrupt log lines a read skipped, if any."""
    if skipped:
        print(f"corrupt lines skipped: {skipped}")


def _read_trace(path: str) -> list[dict[str, Any]]:
    """A trace file's records; exits with a message when it is missing."""
    from repro import obs

    try:
        records, skipped = obs.read_trace(path)
    except FileNotFoundError:
        raise SystemExit(f"no trace file at {path!r}") from None
    _report_skipped(skipped)
    return records


def _cmd_study_diff(args: argparse.Namespace) -> int:
    from repro.studygraph import diff_caches
    from repro.studygraph.registry import GraphError

    try:
        report = diff_caches(args.cache_a, args.cache_b, nodes=_study_nodes(args))
    except GraphError as exc:
        raise SystemExit(str(exc)) from None
    print(
        format_table(
            ["node", "kind", "state", "digest a", "digest b", "Δwall ms"],
            report.rows(),
            title=f"Study memo diff: {args.cache_a} vs {args.cache_b}",
        )
    )
    if report.clean:
        print("no drift")
        return 0
    print(f"{len(report.drifted)} node(s) drifted")
    return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.fileio import atomic_write

    records = _read_trace(args.path)
    if not records:
        raise SystemExit(f"no trace records in {args.path!r}")

    if args.trace_command == "summary":
        summary = obs.summarize_trace(records, top=args.top)
        root_name = summary.root.get("name", "?") if summary.root else "-"
        fields = [
            ["spans", summary.spans],
            ["processes", summary.processes],
            ["root span", root_name],
            ["root wall ms", f"{summary.root_seconds * 1000:.1f}"],
            ["root coverage", f"{summary.coverage:.1%}"],
        ]
        if summary.orphaned:
            fields.append(["orphaned spans", summary.orphaned])
        print(
            format_table(
                ["field", "value"],
                fields,
                title=f"Trace summary: {args.path}",
            )
        )
        print(
            format_table(
                ["phase", "spans", "total ms", "max ms"],
                summary.phase_rows(),
                title="Wall time by phase",
            )
        )
        self_rows = summary.self_time_rows(args.top)
        print(
            format_table(
                ["span", "calls", "self ms", "total ms", "peak RSS MB", "cpu ms"],
                self_rows,
                title=f"Self time (top {len(self_rows)})",
            )
        )
        print(
            format_table(
                ["span", "wall ms", "pid", "parent"],
                summary.slowest_rows(),
                title=f"Slowest {len(summary.slowest)} spans",
            )
        )
        return 0

    payload = obs.chrome_trace(records)
    atomic_write(args.out, json.dumps(payload, separators=(",", ":")))
    print(
        f"wrote {len(payload['traceEvents'])} events to {args.out} "
        "(load in chrome://tracing or https://ui.perfetto.dev)"
    )
    return 0


def _cmd_study_status(args: argparse.Namespace) -> int:
    from repro.studygraph import StudyContext, study_status
    from repro.studygraph.registry import GraphError

    cache_dir = _study_cache_dir(args)
    context = StudyContext.default(cache_dir=cache_dir)
    trace_records = None
    if getattr(args, "trace", None):
        trace_records = _read_trace(args.trace)
    try:
        rows = study_status(
            context, nodes=_study_nodes(args), trace_records=trace_records
        )
    except GraphError as exc:
        raise SystemExit(str(exc)) from None
    if not args.expand_grids:
        from repro.studygraph import default_registry

        rows = _collapse_grid_rows(rows, default_registry(), _merge_status_rows)
    headers = ["node", "kind", "state", "digest", "wall ms"]
    if trace_records is not None:
        headers.append("traced ms")
    print(
        format_table(
            headers,
            rows,
            title=f"Study memo status ({cache_dir or 'cache disabled'})",
        )
    )
    return 0


#: Targets `repro scenario run|status` default to: the pair-interaction
#: sweep (its closure pulls in the baseline and every pair point) plus
#: the temporal-clustering experiment.  Otherwise they are `study
#: run|status`: same engine, same flags.
_SCENARIO_DEFAULT_NODES = "scenario.pairs,scenario.temporal"


def _cmd_scenario_matrix(args: argparse.Namespace) -> int:
    """``repro scenario matrix``: print the pair-interaction matrix.

    Resolves from the memo cache when warm; otherwise runs the closure
    serially (the default 40-pair grid takes seconds).
    """
    from repro.studygraph import StudyContext, run_single_node

    context = StudyContext.default(cache_dir=_study_cache_dir(args))
    print(run_single_node("scenario.pairs", context=context)["text"])
    return 0


def _summarize_deps(deps: tuple[str, ...], registry: Any) -> str:
    """Dependency list with grid-point runs collapsed to ``family[xN]``."""
    if not deps:
        return "-"
    parts: list[str] = []
    counts: dict[str, int] = {}
    for dep in deps:
        family = registry.family_of(dep)
        if family is None:
            parts.append(dep)
        elif family not in counts:
            counts[family] = 1
            parts.append(family)
        else:
            counts[family] += 1
    return ", ".join(
        f"{part}[x{counts[part]}]" if part in counts else part for part in parts
    )


def _cmd_study_graph(args: argparse.Namespace) -> int:
    from repro.studygraph import default_registry

    registry = default_registry()
    rows: list[list[str]] = []
    seen_families: set[str] = set()
    for name in registry.topo_order():
        node = registry.node(name)
        if node.family and not args.expand_grids:
            if node.family in seen_families:
                continue
            seen_families.add(node.family)
            family = registry.family(node.family)
            axes = ", ".join(
                f"{axis}x{len(values)}" for axis, values in family.axes
            )
            rows.append(
                [
                    f"{family.name}[x{family.size}]",
                    "grid",
                    ", ".join(node.deps) if node.deps else "-",
                    f"{family.size}-point grid ({axes})",
                ]
            )
            continue
        deps = (
            ", ".join(node.deps)
            if args.expand_grids
            else _summarize_deps(node.deps, registry)
        ) if node.deps else "-"
        rows.append([node.name, node.kind, deps, node.title])
    families = registry.families()
    points = sum(family.size for family in families.values())
    grid_note = (
        f", {len(families)} grid families ({points} points)" if families else ""
    )
    print(
        format_table(
            ["node", "kind", "depends on", "title"],
            rows,
            title=f"Study graph: {len(registry)} nodes, "
            f"{len(registry.edges())} edges{grid_note} (topological order)",
        )
    )
    return 0


#: Default unix socket for ``repro serve`` (beware the ~100-byte OS
#: limit on unix socket paths when overriding).
DEFAULT_SERVE_SOCKET = ".repro-serve.sock"


def _serve_params(pairs: Sequence[str]) -> dict[str, Any]:
    """``--param key=value`` pairs as a request params object.

    Values parse as JSON when they can (numbers, booleans, objects) and
    fall back to plain strings, so ``--param scale=3`` sends an int and
    ``--param node=T1`` sends a string.
    """
    import json

    params: dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param must look like key=value, got {pair!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def _cmd_serve_start(args: argparse.Namespace) -> int:
    from repro.serve import run_server, wait_for_server

    warm_nodes = [
        name for chunk in (args.warm or []) for name in chunk.split(",") if name
    ]
    if args.foreground:
        run_server(
            args.socket,
            cache_dir=_study_cache_dir(args),
            workers=args.workers,
            max_pending=args.max_pending,
            quota_capacity=args.quota_burst,
            quota_refill_per_second=args.quota_rps,
            warm_nodes=warm_nodes,
        )
        return 0

    # Detach: re-exec ourselves with --foreground in a new session so the
    # daemon survives this shell, then block until it answers a ping.
    import subprocess

    log_path = Path(args.log) if args.log else Path(str(args.socket) + ".log")
    command = [
        sys.executable, "-m", "repro", "serve", "start", "--foreground",
        "--socket", str(args.socket),
        "--workers", str(args.workers),
        "--max-pending", str(args.max_pending),
        "--quota-rps", str(args.quota_rps),
    ]
    cache_dir = _study_cache_dir(args)
    if cache_dir is None:
        command.append("--no-cache")
    else:
        command += ["--cache-dir", str(cache_dir)]
    if args.quota_burst is not None:
        command += ["--quota-burst", str(args.quota_burst)]
    for node in warm_nodes:
        command += ["--warm", node]
    with open(log_path, "ab") as log:
        process = subprocess.Popen(
            command, stdout=log, stderr=log, start_new_session=True
        )
    if not wait_for_server(args.socket, timeout=args.startup_timeout):
        process.poll()
        raise SystemExit(
            f"serve daemon did not come up on {args.socket} within "
            f"{args.startup_timeout:.0f}s (log: {log_path})"
        )
    print(f"serve daemon ready: pid {process.pid}, socket {args.socket}")
    return 0


def _cmd_serve_stop(args: argparse.Namespace) -> int:
    import os
    import signal
    import time

    from repro.serve import pid_path_for

    pid_path = pid_path_for(args.socket)
    try:
        pid = int(pid_path.read_text(encoding="utf-8").strip())
    except (FileNotFoundError, ValueError):
        raise SystemExit(
            f"no serve daemon pidfile at {pid_path} (is one running?)"
        ) from None
    try:
        os.kill(pid, signal.SIGTERM)
    except ProcessLookupError:
        pid_path.unlink(missing_ok=True)
        raise SystemExit(
            f"stale pidfile {pid_path}: no process {pid} (removed)"
        ) from None
    deadline = time.monotonic() + args.timeout
    socket_path = Path(args.socket)
    while time.monotonic() < deadline:
        if not socket_path.exists():
            print(f"serve daemon (pid {pid}) drained and stopped")
            return 0
        time.sleep(0.05)
    raise SystemExit(
        f"daemon (pid {pid}) still draining after {args.timeout:.0f}s; "
        "in-flight requests may be long-running"
    )


def _cmd_serve_status(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.serve import (
        ServeClient,
        ServeConnectionError,
        status_path_for,
    )

    if getattr(args, "metrics", False):
        # Raw exposition text for scrapers; no snapshot fallback -- a
        # scrape of a dead daemon should fail loudly, not go stale.
        try:
            with ServeClient(
                args.socket, client="status", timeout=args.timeout
            ) as client:
                response = client.request("metrics")
        except (ServeConnectionError, OSError) as exc:
            print(f"metrics scrape failed: {exc}", file=sys.stderr)
            return 1
        if not response.ok:
            print(f"{response.status}: {response.error}", file=sys.stderr)
            return 1
        print(response.payload.get("text", ""), end="")
        return 0

    payload = None
    try:
        with ServeClient(args.socket, client="status", timeout=args.timeout) as client:
            response = client.request("status")
            if response.ok:
                payload = dict(response.payload)
    except (ServeConnectionError, OSError):
        payload = None

    if payload is None:
        # Daemon unreachable (busy, draining, or dead): fall back to the
        # heartbeat snapshot file, which requests keep fresh.
        snapshot = obs.read_snapshot(status_path_for(args.socket))
        healthz = obs.healthz_view(snapshot)
        rows = [[key, healthz[key]] for key in sorted(healthz)]
        print(
            format_table(
                ["field", "value"],
                rows,
                title=f"Serve status (snapshot fallback): {args.socket}",
            )
        )
        return 0 if healthz.get("healthy") else 1

    healthz = payload.get("healthz", {})
    requests = payload.get("requests", {})
    admission = payload.get("admission", {})
    warm = payload.get("warm", {})
    rows = [
        ["healthy", healthz.get("healthy")],
        ["state", healthz.get("state")],
        ["uptime s", payload.get("uptime_seconds")],
        ["in flight", admission.get("pending")],
        ["max pending", admission.get("max_pending")],
        ["draining", admission.get("draining")],
        ["requests", requests.get("requests")],
        ["ok", requests.get("ok")],
        ["errors", requests.get("errors")],
        ["rejected", requests.get("rejected")],
        ["memo hits", requests.get("memo_hits")],
        ["memo entries", payload.get("memo_entries")],
        ["clients", admission.get("clients")],
        ["faults loaded", warm.get("faults")],
        ["graph nodes", warm.get("nodes")],
        ["workers", warm.get("workers")],
    ]
    print(
        format_table(
            ["field", "value"], rows, title=f"Serve status: {args.socket}"
        )
    )
    return 0 if healthz.get("healthy", False) else 1


def _cmd_serve_request(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServeClient

    params = _serve_params(args.param or [])

    if args.repeat > 1 or args.concurrency > 1:
        return _serve_burst(args, params)

    with ServeClient(args.socket, client=args.client, timeout=args.timeout) as client:
        response = client.request(args.kind, params)
    if response.ok:
        text = response.payload.get("text")
        if text is not None and not args.json:
            # Plain print(), like every batch node command: served stdout
            # is byte-for-byte the batch output -- CI diffs on this.
            print(text)
        else:
            print(json.dumps(response.payload, indent=2, sort_keys=True))
        return 0
    print(f"{response.status}: {response.error}", file=sys.stderr)
    return 3 if response.rejected else 1


def _serve_burst(args: argparse.Namespace, params: dict[str, Any]) -> int:
    """Closed-loop request burst: throughput and latency percentiles."""
    import threading

    from repro.envmodel.loadgen import run_closed_loop
    from repro.serve import ServeClient

    local = threading.local()

    def send(index: int) -> None:
        client = getattr(local, "client", None)
        if client is None:
            client = local.client = ServeClient(
                args.socket, client=args.client, timeout=args.timeout
            )
        response = client.request(args.kind, params)
        if not response.ok:
            raise RuntimeError(f"{response.status}: {response.error}")

    result = run_closed_loop(
        send, requests=args.repeat, concurrency=args.concurrency
    )
    rows = [
        ["requests", result.requests_issued],
        ["failures", result.failures],
        ["concurrency", args.concurrency],
        ["wall s", f"{result.wall_seconds:.3f}"],
        ["req/s", f"{result.throughput:.0f}"],
        ["p50 ms", f"{result.p50 * 1000:.2f}"],
        ["p95 ms", f"{result.p95 * 1000:.2f}"],
        ["p99 ms", f"{result.p99 * 1000:.2f}"],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"Serve burst: {args.repeat} x {args.kind}",
        )
    )
    return 0 if result.failures == 0 else 1


_RESTRICT_NODES_HELP = "restrict to these nodes plus dependencies (repeatable)"
_SCENARIO_NODES_HELP = "override the default scenario targets (repeatable)"


def _add_run_flags(
    parser: argparse.ArgumentParser, *, workers_help: str, nodes_help: str, grids_help: str
) -> None:
    """The flags ``study run`` and ``scenario run`` share."""
    parser.add_argument("--workers", type=int, default=1, help=workers_help)
    parser.add_argument(
        "--nodes", action="append", default=None, metavar="NAME[,NAME...]",
        help=nodes_help,
    )
    parser.add_argument(
        "--show", default=None, metavar="NODE",
        help="print one node's rendered text after the run summary",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_STUDY_CACHE,
        help="node memo directory (warm reruns resolve from it)",
    )
    parser.add_argument("--no-cache", action="store_true", help="disable memoization entirely")
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a span trace to this JSONL file (see 'repro trace')",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress progress output (auto-suppressed when stderr is not a TTY)",
    )
    parser.add_argument(
        "--live", default=None, metavar="PATH",
        help="write an atomic live-status snapshot here (see 'repro study watch')",
    )
    parser.add_argument("--expand-grids", action="store_true", help=grids_help)


def _add_status_flags(
    parser: argparse.ArgumentParser, *, nodes_help: str, grids_help: str
) -> None:
    """The flags ``study status`` and ``scenario status`` share."""
    parser.add_argument(
        "--nodes", action="append", default=None, metavar="NAME[,NAME...]",
        help=nodes_help,
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_STUDY_CACHE,
        help="node memo directory to inspect",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="report against a disabled cache (every node shows missing)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="join per-node wall time from this trace into the table",
    )
    parser.add_argument("--expand-grids", action="store_true", help=grids_help)


def _add_classic(subparsers: Any, command: Any) -> None:
    """Add a classic command's parser, or one per application, from its entry."""
    if command.subcommands:
        parsers = []
        for app in Application:
            parser = subparsers.add_parser(
                app.value, help=command.help.format(app=app.display_name)
            )
            parser.set_defaults(application=app.value)
            parsers.append(parser)
    else:
        parser = subparsers.add_parser(command.name, help=command.help)
        if command.per_application:
            parser.add_argument("application", help="apache | gnome | mysql")
        parsers = [parser]
    for parser in parsers:
        for flag in command.flags:
            parser.add_argument(flag.name, dest=flag.param, **flag.options)
        parser.set_defaults(func=_cmd_classic, classic=command)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from repro.commands import COMMANDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Whither Generic Recovery from Application Faults?' (DSN 2000)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name in ("table", "figure", "aggregate"):
        _add_classic(subparsers, COMMANDS[name])

    mine = subparsers.add_parser(
        "mine", help="run the mining pipeline on a generated archive"
    )
    mine_sub = mine.add_subparsers(dest="mine_command", required=True)
    _add_classic(mine_sub, COMMANDS["mine"])
    mine_run = mine_sub.add_parser(
        "run", help="fast archive path: parallel sharded parse + mine"
    )
    mine_run.add_argument(
        "--application", dest="target_application", default=None,
        metavar="APP", help="application to mine (required)",
    )
    mine_run.add_argument(
        "--scale", type=int, default=None,
        help="raw archive size (defaults to the paper's full scale)",
    )
    mine_run.add_argument(
        "--workers", type=int, default=1,
        help="parse-shard worker processes (traces are identical for any count)",
    )
    mine_run.add_argument(
        "--cache-dir", default=None,
        help="content-addressed parse/mine cache directory",
    )
    mine_run.add_argument(
        "--no-cache", action="store_true",
        help="bypass the cache entirely, even with --cache-dir",
    )
    mine_run.add_argument(
        "--archive", default=None, metavar="PATH",
        help="mine an archive file through the streaming byte-range path "
        "instead of rendering one in memory",
    )
    mine_run.add_argument(
        "--max-shard-bytes", type=int, default=None, metavar="N",
        help="byte budget per streaming shard (requires --archive; "
        "bounds per-worker memory)",
    )
    mine_run.add_argument(
        "--index-dir", default=None, metavar="DIR",
        help="build/extend an LSM-style segment index here while streaming "
        "(requires --archive)",
    )
    mine_run.set_defaults(func=_cmd_mine_run)

    index = subparsers.add_parser(
        "index", help="inspect and compact an on-disk segment text index"
    )
    index_sub = index.add_subparsers(dest="index_action", required=True)
    index_status = index_sub.add_parser(
        "status", help="segment count, sizes, doc totals, compactable tiers"
    )
    index_status.add_argument("dir", help="segment index directory")
    index_status.add_argument(
        "--segments", action="store_true", help="also list every segment"
    )
    index_status.set_defaults(func=_cmd_index)
    index_compact = index_sub.add_parser(
        "compact", help="run size-tiered compaction to a fixed point"
    )
    index_compact.add_argument("dir", help="segment index directory")
    index_compact.add_argument(
        "--full", action="store_true",
        help="merge everything into a single segment regardless of tiers",
    )
    index_compact.add_argument(
        "--tier-fanout", type=int, default=4, metavar="N",
        help="segments per size tier before a merge triggers (default 4)",
    )
    index_compact.set_defaults(func=_cmd_index)

    _add_classic(subparsers, COMMANDS["replay"])

    campaign = subparsers.add_parser(
        "campaign",
        help="run a parallel, resumable replay campaign (repro.harness)",
    )
    campaign.add_argument(
        "action", nargs="?", choices=("run", "resume", "status"), default="run",
        help="run a campaign, resume one from its journal, or inspect a journal",
    )
    campaign.add_argument(
        "--technique", choices=sorted(_TECHNIQUES), default="checkpoint-rollback",
        help="recovery technique to replay",
    )
    campaign.add_argument(
        "--application", choices=[app.value for app in Application], default=None,
        help="restrict the campaign to one application's faults",
    )
    campaign.add_argument(
        "--limit", type=int, default=None, help="replay only the first N faults"
    )
    campaign.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (verdicts are identical for any count)",
    )
    campaign.add_argument(
        "--journal", default=None,
        help="JSONL run log; reruns with the same journal resume completed units",
    )
    campaign.add_argument(
        "--seed", type=int, default=_CAMPAIGN_DEFAULT_SEED, help="base campaign seed"
    )
    campaign.add_argument(
        "--quiet", action="store_true",
        help="suppress progress output (auto-suppressed when stderr is not a TTY)",
    )
    campaign.set_defaults(func=_cmd_campaign)

    for name in ("report", "catalog", "funnel"):
        _add_classic(subparsers, COMMANDS[name])

    csv_command = subparsers.add_parser("csv", help="emit a table or figure as CSV")
    csv_command.add_argument("kind", choices=("table", "figure"))
    csv_command.add_argument("application", help="apache | gnome | mysql")
    csv_command.set_defaults(func=_cmd_csv)

    export = subparsers.add_parser(
        "export-archive", help="write a raw 1999-style archive to a file"
    )
    export.add_argument("application", help="apache | gnome | mysql")
    export.add_argument("path", help="output file")
    export.add_argument("--scale", type=int, default=None, help="archive size")
    export.set_defaults(func=_cmd_export_archive)

    study = subparsers.add_parser(
        "study", help="execute the whole study as a memoized artifact graph"
    )
    study_sub = study.add_subparsers(dest="study_command", required=True)

    study_run = study_sub.add_parser(
        "run", help="run every experiment node (parallel, memoized, resumable)"
    )
    _add_run_flags(
        study_run,
        workers_help="worker processes (outputs are identical for any count)",
        nodes_help="run only these nodes plus dependencies (repeatable)",
        grids_help="list every grid point in the summary instead of one row "
        "per family",
    )
    study_run.add_argument(
        "--sample-resources", nargs="?", type=float, default=None,
        const=0.02, metavar="SECONDS",
        help="sample RSS/CPU/IO for the dispatcher and every worker at this "
        "interval (default 0.02s when the flag is given); samples land in "
        "the --trace file span-attributed",
    )
    study_run.set_defaults(func=_cmd_study_run)

    study_watch = study_sub.add_parser(
        "watch", help="refreshing status line for a run started with --live"
    )
    study_watch.add_argument("snapshot", help="snapshot file written by --live")
    study_watch.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between refreshes (default 1.0)",
    )
    study_watch.add_argument(
        "--once", action="store_true",
        help="print one status line and exit",
    )
    study_watch.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="give up (exit 1) if the run has not finished by then",
    )
    study_watch.add_argument(
        "--stale-after", type=float, default=30.0, metavar="SECONDS",
        help="flag the snapshot as stale past this age (default 30)",
    )
    study_watch.set_defaults(func=_cmd_study_watch)

    study_status_cmd = study_sub.add_parser(
        "status", help="per-node memo state (nothing is executed)"
    )
    _add_status_flags(
        study_status_cmd,
        nodes_help=_RESTRICT_NODES_HELP,
        grids_help="list every grid point instead of one row per family",
    )
    study_status_cmd.set_defaults(func=_cmd_study_status)

    study_graph_cmd = study_sub.add_parser(
        "graph", help="print the node catalog and dependency edges"
    )
    study_graph_cmd.add_argument(
        "--expand-grids", action="store_true",
        help="list every grid point instead of one row per family",
    )
    study_graph_cmd.set_defaults(func=_cmd_study_graph)

    study_diff_cmd = study_sub.add_parser(
        "diff", help="node-by-node digest drift between two memo caches"
    )
    study_diff_cmd.add_argument("cache_a", help="baseline memo directory")
    study_diff_cmd.add_argument("cache_b", help="candidate memo directory")
    study_diff_cmd.add_argument(
        "--nodes", action="append", default=None, metavar="NAME[,NAME...]",
        help=_RESTRICT_NODES_HELP,
    )
    study_diff_cmd.set_defaults(func=_cmd_study_diff)

    scenario = subparsers.add_parser(
        "scenario",
        help="multi-fault scenario sweeps (pair interactions, temporal clustering)",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    scenario_run = scenario_sub.add_parser(
        "run",
        help="run the scenario sweep (scenario.pairs + scenario.temporal)",
    )
    _add_run_flags(
        scenario_run,
        workers_help="worker processes (the matrix is identical for any count)",
        nodes_help=_SCENARIO_NODES_HELP,
        grids_help="list every pair point in the summary instead of one "
        "family row",
    )
    scenario_run.set_defaults(func=_cmd_study_run, default_nodes=_SCENARIO_DEFAULT_NODES)

    scenario_status_cmd = scenario_sub.add_parser(
        "status", help="memo state of the scenario closure (nothing executed)"
    )
    _add_status_flags(
        scenario_status_cmd,
        nodes_help=_SCENARIO_NODES_HELP,
        grids_help="list every pair point instead of one family row",
    )
    scenario_status_cmd.set_defaults(
        func=_cmd_study_status, default_nodes=_SCENARIO_DEFAULT_NODES
    )

    scenario_matrix_cmd = scenario_sub.add_parser(
        "matrix",
        help="print the pair-interaction matrix (serial run if not memoized)",
    )
    scenario_matrix_cmd.add_argument(
        "--cache-dir", default=DEFAULT_STUDY_CACHE,
        help="node memo directory (warm caches answer without replaying)",
    )
    scenario_matrix_cmd.add_argument(
        "--no-cache", action="store_true",
        help="ignore the memo cache and replay the sweep serially",
    )
    scenario_matrix_cmd.set_defaults(func=_cmd_scenario_matrix)

    trace = subparsers.add_parser(
        "trace", help="inspect or export a span trace recorded with --trace"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_summary = trace_sub.add_parser(
        "summary", help="wall-time attribution: phases, coverage, slowest spans"
    )
    trace_summary.add_argument("path", help="trace JSONL file")
    trace_summary.add_argument(
        "--top", type=int, default=10, help="how many slowest spans to list"
    )
    trace_summary.set_defaults(func=_cmd_trace)

    trace_export = trace_sub.add_parser(
        "export", help="convert a trace to Chrome trace_event JSON "
        "(opens in Perfetto and speedscope)"
    )
    trace_export.add_argument("path", help="trace JSONL file")
    trace_export.add_argument(
        "--out", required=True, metavar="PATH",
        help="output file",
    )
    trace_export.set_defaults(func=_cmd_trace)

    serve = subparsers.add_parser(
        "serve",
        help="persistent study service: warm daemon answering study/mine/"
        "replay/trace-summary requests over a local socket",
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    serve_start = serve_sub.add_parser(
        "start", help="launch the daemon (detached by default)"
    )
    serve_start.add_argument(
        "--socket", default=DEFAULT_SERVE_SOCKET, metavar="PATH",
        help="unix socket to listen on (default %(default)s; OS caps "
        "socket paths near 100 bytes)",
    )
    serve_start.add_argument(
        "--cache-dir", default=DEFAULT_STUDY_CACHE, metavar="DIR",
        help="shared node-memo cache (same default as 'study run', so the "
        "daemon and batch CLIs share warm state)",
    )
    serve_start.add_argument(
        "--no-cache", action="store_true",
        help="no on-disk cache; only the in-memory response memo",
    )
    serve_start.add_argument(
        "--workers", type=int, default=1,
        help="harness-pool workers for cold node execution (default 1)",
    )
    serve_start.add_argument(
        "--max-pending", type=int, default=64,
        help="admission bound: requests in service before new ones are "
        "rejected busy (default 64)",
    )
    serve_start.add_argument(
        "--quota-burst", type=float, default=None, metavar="N",
        help="per-client token-bucket burst size (default: quotas off)",
    )
    serve_start.add_argument(
        "--quota-rps", type=float, default=0.0, metavar="RATE",
        help="per-client sustained requests/second refill (with --quota-burst)",
    )
    serve_start.add_argument(
        "--warm", action="append", metavar="NODE[,NODE...]",
        help="pre-execute these study-graph nodes at startup (repeatable)",
    )
    serve_start.add_argument(
        "--foreground", action="store_true",
        help="run in this process until SIGTERM/SIGINT (default: detach)",
    )
    serve_start.add_argument(
        "--log", default=None, metavar="PATH",
        help="detached daemon's log file (default: <socket>.log)",
    )
    serve_start.add_argument(
        "--startup-timeout", type=float, default=30.0, metavar="SECONDS",
        help="how long to wait for the detached daemon to answer (default 30)",
    )
    serve_start.set_defaults(func=_cmd_serve_start)

    serve_stop = serve_sub.add_parser(
        "stop", help="SIGTERM the daemon and wait for its graceful drain"
    )
    serve_stop.add_argument(
        "--socket", default=DEFAULT_SERVE_SOCKET, metavar="PATH",
        help="the daemon's unix socket (default %(default)s)",
    )
    serve_stop.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="how long to wait for the drain to finish (default 30)",
    )
    serve_stop.set_defaults(func=_cmd_serve_stop)

    serve_status = serve_sub.add_parser(
        "status",
        help="health, admission, and request counters (falls back to the "
        "heartbeat snapshot when the daemon is unreachable; exit 1 when "
        "unhealthy)",
    )
    serve_status.add_argument(
        "--socket", default=DEFAULT_SERVE_SOCKET, metavar="PATH",
        help="the daemon's unix socket (default %(default)s)",
    )
    serve_status.add_argument(
        "--timeout", type=float, default=5.0, metavar="SECONDS",
        help="status request timeout before the snapshot fallback (default 5)",
    )
    serve_status.add_argument(
        "--metrics", action="store_true",
        help="print the Prometheus-style text exposition instead of the "
        "status table (exit 1 if the daemon is unreachable)",
    )
    serve_status.set_defaults(func=_cmd_serve_status)

    serve_request = serve_sub.add_parser(
        "request",
        help="send one request (or a --repeat burst) to the daemon",
    )
    serve_request.add_argument(
        "kind",
        choices=["study", "mine", "replay", "trace-summary", "status", "ping", "metrics"],
        help="request kind",
    )
    serve_request.add_argument(
        "--socket", default=DEFAULT_SERVE_SOCKET, metavar="PATH",
        help="the daemon's unix socket (default %(default)s)",
    )
    serve_request.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="request parameter (repeatable); values parse as JSON when "
        "possible, e.g. --param node=T1 --param scale=3",
    )
    serve_request.add_argument(
        "--client", default="cli",
        help="quota identity sent with the request (default %(default)s)",
    )
    serve_request.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="per-request socket timeout (default 60)",
    )
    serve_request.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="send the request N times closed-loop and print throughput "
        "and latency percentiles instead of the payload",
    )
    serve_request.add_argument(
        "--concurrency", type=int, default=1, metavar="C",
        help="closed-loop client threads for --repeat (default 1)",
    )
    serve_request.add_argument(
        "--json", action="store_true",
        help="print the full JSON payload even when the node has rendered text",
    )
    serve_request.set_defaults(func=_cmd_serve_request)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        import os

        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
