"""Full study report generation.

Renders the complete reproduction -- Tables 1-3, Figures 1-3, the
Section 5.4 aggregate, the Lee & Iyer reconciliation, mitigation
coverage, and (optionally) the recovery replay -- as one text or
markdown document.  This is what the CLI's ``report`` command emits.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.aggregate import aggregate_summary
from repro.analysis.distributions import release_distribution, time_distribution
from repro.analysis.leeiyer import lee_iyer_reconciliation
from repro.analysis.mitigations import assess_study
from repro.analysis.related import related_work_comparison
from repro.analysis.stats import proportion_invariance_chi2, wilson_interval
from repro.analysis.tables import classification_table
from repro.bugdb.enums import Application, FaultClass
from repro.corpus.apache import RELEASES as APACHE_RELEASES
from repro.corpus.loader import StudyData
from repro.corpus.mysql import RELEASES as MYSQL_RELEASES
from repro.recovery.driver import REPLAY_COLUMNS, ReplayReport
from repro.reports.figures import render_figure
from repro.reports.tableformat import format_table, render_classification_table

_SECTION_RULE = "=" * 72


def _figure_for(study: StudyData, application: Application):
    if application is Application.APACHE:
        order = tuple(version for version, _ in APACHE_RELEASES)
        return release_distribution(study.corpus(application), release_order=order)
    if application is Application.MYSQL:
        order = tuple(version for version, _ in MYSQL_RELEASES)
        return release_distribution(study.corpus(application), release_order=order)
    return time_distribution(study.corpus(application), granularity="month")


def render_study_report(
    study: StudyData,
    *,
    replay_reports: Sequence[ReplayReport] = (),
) -> str:
    """Render the full study as a plain-text report.

    Args:
        study: the curated study.
        replay_reports: optional per-technique replay results to include
            as the future-work section.
    """
    sections: list[str] = [
        "Whither Generic Recovery from Application Faults? -- reproduction report",
        _SECTION_RULE,
    ]

    # Tables 1-3.
    for application in Application:
        table = classification_table(study.corpus(application))
        sections.append(render_classification_table(table))
        sections.append("")

    # Figures 1-3, with the invariance statistic where releases apply.
    for application in Application:
        series = _figure_for(study, application)
        sections.append(render_figure(series))
        if application is not Application.GNOME:
            invariance = proportion_invariance_chi2(series)
            sections.append(
                f"class-proportion invariance: chi2={invariance.statistic:.2f}, "
                f"dof={invariance.degrees_of_freedom}, p={invariance.p_value:.3f} "
                f"({'invariant' if invariance.invariant_at_5pct else 'varies'})"
            )
        sections.append("")

    # Section 5.4 aggregate.
    summary = aggregate_summary(study)
    ei_low, ei_high = summary.fraction_range(FaultClass.ENV_INDEPENDENT)
    edt_low, edt_high = summary.fraction_range(FaultClass.ENV_DEP_TRANSIENT)
    ci_low, ci_high = wilson_interval(summary.counts[FaultClass.ENV_DEP_TRANSIENT],
                                      summary.total_faults)
    sections.append("Aggregate (Section 5.4)")
    sections.append(
        format_table(
            ["quantity", "value"],
            [
                ["total unique faults", summary.total_faults],
                [
                    "environment-dependent-nontransient",
                    f"{summary.counts[FaultClass.ENV_DEP_NONTRANSIENT]} "
                    f"({summary.fraction(FaultClass.ENV_DEP_NONTRANSIENT):.0%})",
                ],
                [
                    "environment-dependent-transient",
                    f"{summary.counts[FaultClass.ENV_DEP_TRANSIENT]} "
                    f"({summary.fraction(FaultClass.ENV_DEP_TRANSIENT):.0%})",
                ],
                ["environment-independent range", f"{ei_low:.0%}-{ei_high:.0%}"],
                ["transient range", f"{edt_low:.0%}-{edt_high:.0%}"],
                ["transient share 95% CI (Wilson)", f"{ci_low:.1%}-{ci_high:.1%}"],
            ],
        )
    )
    sections.append("")

    # Section 7: Lee & Iyer.
    reconciliation = lee_iyer_reconciliation()
    sections.append("Lee & Iyer reconciliation (Section 7)")
    sections.append(
        format_table(
            ["step", "recovery rate"],
            [[description, f"{rate:.2f}"] for description, rate in reconciliation.steps()],
        )
    )
    sections.append("")

    # Section 7: prior fault studies.
    comparison = related_work_comparison(summary)
    sections.append("Prior fault studies (Section 7)")
    sections.append(
        format_table(["study", "systems", "transient fraction"], comparison.rows())
    )
    sections.append(
        "consistency with prior studies: "
        + ("all roughly match" if comparison.all_consistent() else "MISMATCH")
    )
    sections.append("")

    # Section 6: mitigation coverage.
    coverage = assess_study(study)
    sections.append("Mitigation coverage (Section 6)")
    rows = sorted(
        coverage.counts_by_mitigation().items(),
        key=lambda item: item[1],
        reverse=True,
    )
    sections.append(
        format_table(
            ["technique", "faults covered"],
            [[kind.value, count] for kind, count in rows],
        )
    )
    sections.append(
        f"generic recovery (process pairs / rollback) coverage: "
        f"{coverage.generic_recovery_coverage():.0%} of {coverage.total} faults"
    )
    sections.append("")

    # Future work: the replay.
    if replay_reports:
        sections.append("Generic-recovery replay (Section 8 future work)")
        sections.append(
            format_table(REPLAY_COLUMNS, [report.row() for report in replay_reports])
        )
        sections.append("")

    sections.append(
        "Conclusion: only the environment-dependent-transient slice "
        f"({edt_low:.0%}-{edt_high:.0%} of faults) is survivable by "
        "application-generic recovery; surviving the rest requires "
        "application-specific knowledge."
    )
    return "\n".join(sections)


def render_study_report_markdown(
    study: StudyData,
    *,
    replay_reports: Sequence[ReplayReport] = (),
) -> str:
    """Render the full study as a markdown document.

    Covers the same content as :func:`render_study_report`, formatted
    for publishing: headings, markdown tables, and fenced figure blocks.
    """
    from repro.reports.markdown import markdown_classification_table, markdown_table

    parts: list[str] = [
        "# Whither Generic Recovery from Application Faults? — reproduction report",
        "",
    ]

    parts.append("## Tables 1–3")
    for application in Application:
        table = classification_table(study.corpus(application))
        parts.append("")
        parts.append(markdown_classification_table(table))
    parts.append("")

    parts.append("## Figures 1–3")
    for application in Application:
        series = _figure_for(study, application)
        parts.append("")
        parts.append("```")
        parts.append(render_figure(series))
        parts.append("```")
    parts.append("")

    summary = aggregate_summary(study)
    ei_low, ei_high = summary.fraction_range(FaultClass.ENV_INDEPENDENT)
    edt_low, edt_high = summary.fraction_range(FaultClass.ENV_DEP_TRANSIENT)
    parts.append("## Aggregate (Section 5.4)")
    parts.append("")
    parts.append(
        markdown_table(
            ["quantity", "value"],
            [
                ["total unique faults", summary.total_faults],
                [
                    "environment-dependent-nontransient",
                    f"{summary.counts[FaultClass.ENV_DEP_NONTRANSIENT]} "
                    f"({summary.fraction(FaultClass.ENV_DEP_NONTRANSIENT):.0%})",
                ],
                [
                    "environment-dependent-transient",
                    f"{summary.counts[FaultClass.ENV_DEP_TRANSIENT]} "
                    f"({summary.fraction(FaultClass.ENV_DEP_TRANSIENT):.0%})",
                ],
                ["environment-independent range", f"{ei_low:.0%}–{ei_high:.0%}"],
                ["transient range", f"{edt_low:.0%}–{edt_high:.0%}"],
            ],
        )
    )
    parts.append("")

    reconciliation = lee_iyer_reconciliation()
    parts.append("## Lee & Iyer reconciliation (Section 7)")
    parts.append("")
    parts.append(
        markdown_table(
            ["step", "recovery rate"],
            [[description, f"{rate:.2f}"] for description, rate in reconciliation.steps()],
        )
    )
    parts.append("")

    if replay_reports:
        parts.append("## Generic-recovery replay (Section 8 future work)")
        parts.append("")
        parts.append(
            markdown_table(REPLAY_COLUMNS, [report.row() for report in replay_reports])
        )
        parts.append("")

    parts.append(
        f"**Conclusion:** only the transient slice ({edt_low:.0%}–{edt_high:.0%}) "
        "is survivable by application-generic recovery."
    )
    return "\n".join(parts)
