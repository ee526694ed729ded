"""Study-graph adapters for the mining layer (M1 and its artifacts).

Three artifact stages per application, mirroring the paper's Section 4
methodology as explicit graph edges::

    corpus.<app>  ->  parsed.<app>  ->  mined.<app>  ->  mine.<app> (text)
                                               \\->  funnel.<app> (text)

plus the Section 6 mining ablations (keyword subsets over the parsed
MySQL archive, dedup strategies over the parsed Apache archive).  All
payloads use the :mod:`repro.pipeline` record codecs, so graph entries
and the fast-archive-path cache speak the same JSON.

``mined.mysql`` and the three ``ablate.keywords.*`` nodes share one
decode, index and thread grouping of ``parsed.mysql`` per wave (none
depends on the keywords) through ``StudyContext.derived`` -- not a graph
node, which would serialize the decoded archive into the memo cache.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, TYPE_CHECKING

from repro.analysis.tables import classify_and_tabulate
from repro.bugdb.enums import Application
from repro.bugdb.mbox import MailMessage
from repro.bugdb.textindex import TextIndex
from repro.mining.apache import mine_apache
from repro.mining.dedup import Deduplicator
from repro.mining.funnel import funnel_from_trace
from repro.mining.mysql import build_message_index, mine_mysql
from repro.mining.pipeline import MiningResult
from repro.mining.threads import Thread, group_threads
from repro.pipeline import records as _records
from repro.pipeline.formats import format_for
from repro.reports.tableformat import format_table, render_classification_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.studygraph.context import StudyContext

#: Section 6 dedup-strategy ablation points (label -> deduplicator args).
DEDUP_STRATEGIES: tuple[tuple[str, bool, float], ...] = (
    ("exact-only", False, 0.6),
    ("exact+fuzzy-0.6", True, 0.6),
    ("exact+fuzzy-0.9", True, 0.9),
)


def _single_input(inputs: Mapping[str, Any]) -> dict[str, Any]:
    """The payload of a node's only dependency."""
    (payload,) = inputs.values()
    return payload


def parsed_archive(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Artifact: one application's raw archive, rendered and parsed.

    Uses the serial reference parse (`ArchiveFormat.parse`: split, then
    ``parse_record`` per chunk), which the streamed parse driver is asserted
    bit-identical to, so graph outputs match the per-command paths by
    construction.  The rendered text is dropped once split and each
    chunk goes straight to its dict, so neither the text nor a list of
    parsed records is alive beside the payload.

    Params:
        application: ``apache | gnome | mysql``.
        scale: raw archive size (None = the paper's full scale).
    """
    application = Application(params["application"])
    fmt = format_for(application)
    chunks = fmt.split(fmt.render(ctx.study.corpus(application), params.get("scale")))
    records = [fmt.record_to_dict(fmt.parse_record(chunk)) for chunk in chunks]
    return {
        "application": application.value,
        "scale": params.get("scale"),
        "parser_version": fmt.parser_version,
        "record_count": len(records),
        "records": records,
    }


def _decode_records(application: Application, parsed: Mapping[str, Any]) -> list[Any]:
    fmt = format_for(application)
    return [fmt.record_from_dict(data) for data in parsed["records"]]


@dataclasses.dataclass(frozen=True)
class MysqlMiningInputs:
    """The keyword-independent inputs every MySQL miner run needs."""

    messages: list[MailMessage]
    index: TextIndex[int]
    threads: list[Thread]

    @classmethod
    def from_parsed(cls, parsed: Mapping[str, Any]) -> "MysqlMiningInputs":
        messages = _decode_records(Application.MYSQL, parsed)
        return cls(messages, build_message_index(messages), group_threads(messages))


def _mine_parsed_mysql(
    ctx: "StudyContext", parsed: Mapping[str, Any], **kwargs: Any
) -> MiningResult:
    """``mine_mysql`` over ``parsed`` with the wave's shared inputs."""
    shared = ctx.derived("mysql-mining-inputs", parsed, MysqlMiningInputs.from_parsed)
    return mine_mysql(
        shared.messages, index=shared.index, threads=shared.threads, **kwargs
    )


def mined_result(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Artifact: the mined study set (items plus narrowing trace).

    Params:
        application: ``apache | gnome | mysql``.
    """
    application = Application(params["application"])
    fmt = format_for(application)
    parsed = _single_input(inputs)
    if application is Application.MYSQL:
        result = _mine_parsed_mysql(ctx, parsed)
    else:
        result = fmt.mine(_decode_records(application, parsed), None)
    payload = _records.result_to_payload(result, fmt.item_to_dict)
    payload["application"] = application.value
    payload["miner_version"] = fmt.miner_version
    return payload


def mine_report_text(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Experiment text: the ``repro mine <app>`` narrowing report.

    Renders the narrowing-trace table followed by the classification
    table of the mined, classified bugs -- exactly the per-command
    output.
    """
    application = Application(params["application"])
    fmt = format_for(application)
    mined = _single_input(inputs)
    result = _records.result_from_payload(mined, fmt.item_from_dict)
    trace_table = format_table(
        ["stage", "survivors"],
        result.trace.as_rows(),
        title=f"Mining narrowing for {application.display_name}",
    )
    class_table = render_classification_table(
        classify_and_tabulate(application, result.items)
    )
    return {
        "application": application.value,
        "unique_bugs": len(result.items),
        "text": f"{trace_table}\n\n{class_table}",
    }


def m1_narrowing(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Experiment M1: the Section 4 narrowing across all three archives."""
    sections = []
    unique = {}
    for name in ("mine.apache", "mine.gnome", "mine.mysql"):
        payload = inputs[name]
        sections.append(payload["text"])
        unique[payload["application"]] = payload["unique_bugs"]
    return {
        "unique_bugs": unique,
        "text": "\n\n".join(sections),
    }


def funnel_text(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Experiment text: the ``repro funnel <app>`` selectivity report."""
    application = Application(params["application"])
    mined = _single_input(inputs)
    funnel = funnel_from_trace(_records.trace_from_rows(mined["trace"]))
    table = format_table(
        ["stage", "before", "after", "kept"],
        funnel.rows(),
        title=f"Narrowing funnel for {application.display_name}",
    )
    lines = [
        table,
        f"overall selectivity: {funnel.overall_selectivity:.2%}",
        f"most selective stage: {funnel.most_selective_stage().name}",
    ]
    return {
        "application": application.value,
        "overall_selectivity": funnel.overall_selectivity,
        "text": "\n".join(lines),
    }


def ablate_keywords(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Section 6 ablation: one MySQL keyword subset's recall.

    Params:
        keywords: comma-joined keyword subset (order preserved).
    """
    keywords = tuple(params["keywords"].split(","))
    result = _mine_parsed_mysql(ctx, _single_input(inputs), keywords=keywords)
    recall = len(result.items) / 44
    text = format_table(
        ["quantity", "value"],
        [
            ["keywords", " ".join(keywords)],
            ["unique bugs found", len(result.items)],
            ["recall vs paper's 44", f"{recall:.1%}"],
        ],
        title="Keyword-set ablation (Section 4 mining)",
    )
    return {
        "keywords": list(keywords),
        "unique_bugs": len(result.items),
        "recall": recall,
        "text": text,
    }


def ablate_dedup(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Section 6 ablation: dedup strategies over the Apache archive."""
    reports = _decode_records(Application.APACHE, _single_input(inputs))
    rows = []
    counts = {}
    for label, use_fuzzy, threshold in DEDUP_STRATEGIES:
        dedup = Deduplicator(use_fuzzy=use_fuzzy, fuzzy_threshold=threshold)
        result = mine_apache(reports, deduplicator=dedup)
        counts[label] = len(result.items)
        rows.append([label, len(result.items)])
    text = format_table(
        ["strategy", "unique bugs"],
        rows,
        title="Dedup-strategy ablation (paper: 50 unique Apache bugs)",
    )
    return {"unique_bugs": counts, "text": text}
