"""Declarative service-level objectives, evaluated offline.

The observability stack now measures three things no single component
judges: request latency (the serve exposition), per-node peak RSS and
in-run RSS behaviour (both from sampler records in a trace).  This
module is the judge: an :class:`Objective` declares a bound,
:func:`evaluate_objectives` checks every objective against whatever
evidence sources are on hand, and ``repro slo check`` turns the
verdicts into a CI gate.

Three design points, all deliberate:

* **Offline, from artifacts.**  Evaluation reads a scraped exposition
  text and/or a trace file -- never a live daemon -- so the same check
  runs in CI, post-hoc on archived runs, and locally.
* **Three-valued verdicts.**  ``ok`` / ``violated`` / ``no-data``: an
  objective whose evidence source is absent reports ``no-data`` rather
  than passing silently or failing spuriously.  The CLI only fails on
  ``violated``.
* **Same math as the source.**  Latency percentiles are recomputed from
  exposition buckets with :func:`~repro.obs.hist.bucket_percentile`,
  bit-identical to what the live histogram would answer -- the SLO
  checker can never disagree with the daemon about its own p99.

The fault-study connection: the paper's recovery argument rests on
resource exhaustion (leaks, runaway retries) being *observable before
it is fatal*.  The ``rss-growth`` objective encodes exactly that lens
-- a span family whose sampled RSS series grows monotonically through
the run is flagged as a leak suspect.

Layering: imports only sibling ``repro.obs`` modules (the package
contract -- nothing from the rest of ``repro``).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.obs.hist import (
    bucket_percentile,
    exposition_buckets,
    exposition_value,
    parse_exposition,
)
from repro.obs.resources import rss_series_by_span, usage_by_span_name

__all__ = [
    "Objective",
    "SloResult",
    "STATUS_NO_DATA",
    "STATUS_OK",
    "STATUS_VIOLATED",
    "default_objectives",
    "evaluate_objectives",
    "load_objectives",
]

STATUS_OK = "ok"
STATUS_VIOLATED = "violated"
STATUS_NO_DATA = "no-data"

#: Objective kinds understood by :func:`evaluate_objectives`.
KIND_LATENCY = "latency"
KIND_ERROR_BUDGET = "error-budget"
KIND_REJECTION_BUDGET = "rejection-budget"
KIND_PEAK_RSS = "peak-rss"
KIND_RSS_GROWTH = "rss-growth"

_KINDS = (
    KIND_LATENCY,
    KIND_ERROR_BUDGET,
    KIND_REJECTION_BUDGET,
    KIND_PEAK_RSS,
    KIND_RSS_GROWTH,
)


@dataclasses.dataclass(frozen=True)
class Objective:
    """One declared objective.

    Attributes:
        name: display name (unique within a set).
        kind: one of the ``KIND_*`` constants.
        threshold: the bound (seconds, a fraction, or bytes -- see the
            per-kind evaluators).
        target: what the objective applies to: a request kind for
            ``latency``, a span-name prefix for ``peak-rss`` and
            ``rss-growth`` (``node:sweep.g`` covers a grid family);
            unused by the budget kinds.
        fraction: the percentile for ``latency`` (default p99); the
            minimum sample count for ``rss-growth`` (as a float).
    """

    name: str
    kind: str
    threshold: float
    target: str = ""
    fraction: float = 0.99

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown objective kind {self.kind!r}; known: " + ", ".join(_KINDS)
            )
        if self.threshold < 0:
            raise ValueError("objective threshold must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "threshold": self.threshold,
            "target": self.target,
            "fraction": self.fraction,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Objective":
        return cls(
            name=str(data.get("name", "")) or str(data.get("kind", "?")),
            kind=str(data.get("kind", "")),
            threshold=float(data.get("threshold", 0.0)),
            target=str(data.get("target", "")),
            fraction=float(data.get("fraction", 0.99)),
        )


@dataclasses.dataclass(frozen=True)
class SloResult:
    """One objective's verdict.

    Attributes:
        objective: the evaluated objective.
        status: ``ok`` / ``violated`` / ``no-data``.
        observed: the measured value (None for ``no-data``).
        detail: one human-readable line of evidence.
    """

    objective: Objective
    status: str
    observed: float | None
    detail: str

    @property
    def violated(self) -> bool:
        return self.status == STATUS_VIOLATED

    def row(self) -> list[Any]:
        """``[name, kind, status, observed, threshold, detail]``."""
        return [
            self.objective.name,
            self.objective.kind,
            self.status,
            "-" if self.observed is None else f"{self.observed:.6g}",
            f"{self.objective.threshold:.6g}",
            self.detail,
        ]


def default_objectives() -> list[Objective]:
    """The stock objective set ``repro slo check`` evaluates.

    Bounds are deliberately loose -- they exist to catch order-of-
    magnitude regressions (a leak, a stall, a runaway node), not to
    enforce performance tuning; tighten per-deployment with a JSON
    objectives file.
    """
    return [
        Objective(
            name="serve-study-p99",
            kind=KIND_LATENCY,
            target="study",
            fraction=0.99,
            threshold=30.0,
        ),
        Objective(
            name="serve-error-budget",
            kind=KIND_ERROR_BUDGET,
            threshold=0.05,
        ),
        Objective(
            name="serve-rejection-budget",
            kind=KIND_REJECTION_BUDGET,
            threshold=0.25,
        ),
        Objective(
            name="campaign-peak-rss",
            kind=KIND_PEAK_RSS,
            target="node:",  # any node
            threshold=2 * 1024 ** 3,
        ),
        Objective(
            name="span-rss-leak",
            kind=KIND_RSS_GROWTH,
            target="",  # any span family
            threshold=32 * 1024 * 1024,
            fraction=4,  # minimum samples before a series can be judged
        ),
    ]


def load_objectives(path: str | Path) -> list[Objective]:
    """Objectives from a JSON file: a list of objective objects.

    Raises:
        FileNotFoundError: there is no file at ``path``.
        ValueError: the file is not a JSON list or an entry is invalid.
    """
    with open(path, "r", encoding="utf-8") as stream:
        data = json.load(stream)
    if not isinstance(data, list):
        raise ValueError("objectives file must be a JSON list")
    objectives = []
    for index, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ValueError(f"objective {index} is not a JSON object")
        try:
            objectives.append(Objective.from_dict(entry))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"objective {index}: {exc}") from None
    return objectives


# -- per-kind evaluators -------------------------------------------------- #


def _no_data(objective: Objective, why: str) -> SloResult:
    return SloResult(objective, STATUS_NO_DATA, None, why)


def _verdict(objective: Objective, observed: float, detail: str) -> SloResult:
    status = STATUS_VIOLATED if observed > objective.threshold else STATUS_OK
    return SloResult(objective, status, observed, detail)


def _eval_latency(
    objective: Objective, samples: list[tuple[str, dict[str, str], float]]
) -> SloResult:
    match = {"kind": objective.target} if objective.target else None
    buckets = exposition_buckets(
        samples, "repro_request_latency_seconds", match
    )
    if not buckets or buckets[-1][1] == 0:
        return _no_data(objective, f"no latency samples for kind={objective.target!r}")
    observed = bucket_percentile(buckets, objective.fraction)
    return _verdict(
        objective,
        observed,
        f"p{objective.fraction * 100:g} over {buckets[-1][1]} request(s)",
    )


def _eval_budget(
    objective: Objective,
    samples: list[tuple[str, dict[str, str], float]],
    status_label: str,
) -> SloResult:
    total = exposition_value(samples, "repro_requests_total")
    if not total:
        return _no_data(objective, "no requests recorded")
    bad = exposition_value(
        samples, "repro_requests_total", {"status": status_label}
    ) or 0.0
    observed = bad / total
    return _verdict(
        objective, observed, f"{bad:g} {status_label} of {total:g} request(s)"
    )


def _eval_peak_rss(
    objective: Objective, trace_records: list[dict[str, Any]]
) -> SloResult:
    """Worst sampled peak RSS among the spans whose name starts with
    the target (``node:`` covers every study node)."""
    peaks = {
        name: usage.peak_rss_bytes
        for name, usage in sorted(usage_by_span_name(trace_records).items())
        if name.startswith(objective.target)
    }
    if not peaks:
        return _no_data(
            objective, f"no resource samples for {objective.target or 'any span'}"
        )
    worst = max(peaks, key=lambda name: peaks[name])
    return _verdict(objective, float(peaks[worst]), f"worst span {worst}")


def _eval_rss_growth(
    objective: Objective, trace_records: list[dict[str, Any]]
) -> SloResult:
    """Flag span families whose RSS series grows monotonically.

    A leak looks like: every successive sample's RSS >= the last (small
    jitter tolerated at 1%), total growth over the series above the
    threshold, across at least ``fraction`` samples.  Flat or sawtooth
    series (allocate, free, repeat) pass.
    """
    series = rss_series_by_span(trace_records)
    min_samples = max(2, int(objective.fraction))
    suspects: list[tuple[str, int]] = []
    seen_any = False
    for name, points in series.items():
        if objective.target and not name.startswith(objective.target):
            continue
        if len(points) < min_samples:
            continue
        seen_any = True
        values = [rss for _, rss in points]
        growth = values[-1] - values[0]
        monotonic = all(
            later >= earlier * 0.99
            for earlier, later in zip(values, values[1:])
        )
        if monotonic and growth > objective.threshold:
            suspects.append((name, growth))
    if not seen_any:
        return _no_data(
            objective,
            f"no RSS series with >= {min_samples} samples for "
            f"{objective.target or 'any span'}",
        )
    if not suspects:
        return SloResult(
            objective, STATUS_OK, 0.0, f"{len(series)} series, none growing"
        )
    worst_name, worst_growth = max(suspects, key=lambda item: item[1])
    return SloResult(
        objective,
        STATUS_VIOLATED,
        float(worst_growth),
        f"monotonic growth in {worst_name} "
        f"(+{worst_growth / (1024 * 1024):.1f} MB)"
        + (f" and {len(suspects) - 1} other span(s)" if len(suspects) > 1 else ""),
    )


def evaluate_objectives(
    objectives: Iterable[Objective],
    *,
    exposition_text: str | None = None,
    trace_records: Iterable[dict[str, Any]] | None = None,
) -> list[SloResult]:
    """Judge every objective against the evidence sources provided.

    Objectives whose evidence source was not passed verdict
    ``no-data``; a malformed exposition raises ``ValueError`` (the CI
    scrape check wants parse failures loud, not absorbed).
    """
    samples = parse_exposition(exposition_text) if exposition_text else None
    trace = list(trace_records) if trace_records is not None else None

    results: list[SloResult] = []
    for objective in objectives:
        if objective.kind == KIND_LATENCY:
            results.append(
                _eval_latency(objective, samples)
                if samples is not None
                else _no_data(objective, "no exposition provided")
            )
        elif objective.kind == KIND_ERROR_BUDGET:
            results.append(
                _eval_budget(objective, samples, "error")
                if samples is not None
                else _no_data(objective, "no exposition provided")
            )
        elif objective.kind == KIND_REJECTION_BUDGET:
            results.append(
                _eval_budget(objective, samples, "rejected-busy")
                if samples is not None
                else _no_data(objective, "no exposition provided")
            )
        elif objective.kind == KIND_PEAK_RSS:
            results.append(
                _eval_peak_rss(objective, trace)
                if trace is not None
                else _no_data(objective, "no trace provided")
            )
        elif objective.kind == KIND_RSS_GROWTH:
            results.append(
                _eval_rss_growth(objective, trace)
                if trace is not None
                else _no_data(objective, "no trace provided")
            )
    return results
