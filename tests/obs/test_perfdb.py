"""The perf history database: appends, reads, trace import, gating."""

import json
import multiprocessing

import pytest

from repro.obs.perfdb import (
    PERFDB_VERSION,
    STATUS_CACHED,
    STATUS_TRACED,
    NodePerf,
    PerfDB,
    PerfRecord,
    check_regressions,
    family_medians,
    git_sha,
    grid_family,
    node_history,
    node_medians,
    record_from_trace,
    report_rows,
    run_rows,
)


def make_record(nodes, *, source="study-run", **kwargs):
    return PerfRecord.new(
        {
            name: NodePerf(wall_seconds=wall, version="1")
            for name, wall in nodes.items()
        },
        source=source,
        sha="deadbeef",
        **kwargs,
    )


def span(name, span_id, start, end, parent_id=None, **attrs):
    record = {
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "trace_id": "t1",
        "start": float(start),
        "end": float(end),
        "pid": 1,
    }
    if attrs:
        record["attrs"] = attrs
    return record


class TestPerfDB:
    def test_append_read_round_trip(self, tmp_path):
        db = PerfDB(tmp_path / "perf.jsonl")
        record = make_record({"T1": 0.5, "corpus.apache": 1.25})
        db.append(record)
        loaded = db.read()
        assert len(loaded) == 1
        assert loaded[0].run_id == record.run_id
        assert loaded[0].git_sha == "deadbeef"
        assert loaded[0].nodes["T1"].wall_seconds == pytest.approx(0.5)
        assert loaded[0].nodes["corpus.apache"].version == "1"

    def test_missing_file_reads_empty(self, tmp_path):
        assert PerfDB(tmp_path / "absent.jsonl").read() == []

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "perf.jsonl"
        db = PerfDB(path)
        db.append(make_record({"T1": 0.5}))
        db.append(make_record({"T1": 0.6}))
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"perfdb_version": 1, "run_id": "crash')
        loaded = db.read()
        assert len(loaded) == 2
        assert db.skipped_lines == 1

    def test_torn_line_mid_file_keeps_later_records(self, tmp_path):
        path = tmp_path / "perf.jsonl"
        db = PerfDB(path)
        db.append(make_record({"T1": 0.5}))
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"perfdb_version": 1, "run_id": "torn\n')
        db.append(make_record({"T1": 0.6}))
        loaded = db.read()
        assert [r.nodes["T1"].wall_seconds for r in loaded] == [0.5, 0.6]
        assert db.skipped_lines == 1

    def test_concurrent_full_size_appends_stay_whole(self, tmp_path):
        """4 processes x 50 appends of >= 18 KB lines read back whole."""
        path = tmp_path / "perf.jsonl"
        context = multiprocessing.get_context("spawn")
        workers = [
            context.Process(target=_append_large_records, args=(path, worker, 50))
            for worker in range(4)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=120)
        assert [process.exitcode for process in workers] == [0] * 4

        lines = path.read_bytes().splitlines()
        assert len(lines) == 200
        assert min(len(line) for line in lines) >= 18 * 1024
        db = PerfDB(path)
        loaded = db.read()
        assert len(loaded) == 200
        assert db.skipped_lines == 0
        labels = sorted(record.label for record in loaded)
        assert labels == sorted(f"w{w}-{i}" for w in range(4) for i in range(50))
        assert all(len(record.nodes) == _LARGE_NODES for record in loaded)

    def test_version_mismatch_skipped(self, tmp_path):
        path = tmp_path / "perf.jsonl"
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(json.dumps({"perfdb_version": 999, "run_id": "x"}))
            stream.write("\n")
        db = PerfDB(path)
        db.append(make_record({"T1": 0.5}))
        assert len(db.read()) == 1

    def test_runs_filters_by_source(self, tmp_path):
        db = PerfDB(tmp_path / "perf.jsonl")
        db.append(make_record({"T1": 0.5}, source="study-run"))
        db.append(make_record({"T1": 0.5}, source="trace"))
        assert len(db.runs(source="trace")) == 1
        assert len(db.runs()) == 2

    def test_record_serialisation_is_deterministic(self):
        record = make_record({"b": 1.0, "a": 2.0})
        data = record.to_dict()
        assert data["perfdb_version"] == PERFDB_VERSION
        assert list(data["nodes"]) == ["a", "b"]


_LARGE_NODES = 300  # ~62 bytes per node entry: an ~18.5 KB line


def _append_large_records(path, worker, count):
    db = PerfDB(path)
    for index in range(count):
        db.append(
            make_record(
                {f"node.{worker}.{n:04d}": 0.001 * n for n in range(_LARGE_NODES)},
                label=f"w{worker}-{index}",
            )
        )


class TestGitSha:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafe1234")
        assert git_sha() == "cafe1234"


class TestRecordFromTrace:
    def trace(self):
        return [
            span("study.run", "r", 0.0, 10.0, workers=4),
            span("wave", "w", 0.0, 9.0, parent_id="r"),
            span("node:T1", "n1", 1.0, 3.0, parent_id="w"),
            span("node:T1", "n1b", 4.0, 5.0, parent_id="w"),
            span("node:corpus.apache", "n2", 5.0, 9.0, parent_id="w"),
            span("memo:T1", "m1", 0.5, 0.6, parent_id="w", hit=False),
            span("memo:F1", "m2", 0.6, 0.7, parent_id="w", hit=True),
            span("cache:load", "c1", 0.7, 0.8, parent_id="w", hit=True),
        ]

    def test_node_walls_summed_from_spans(self):
        record = record_from_trace(self.trace(), versions={"T1": "2"})
        assert record.source == "trace"
        assert record.workers == 4
        assert record.trace_id == "t1"
        t1 = record.nodes["T1"]
        assert t1.wall_seconds == pytest.approx(3.0)  # 2s + 1s repeats
        assert t1.status == STATUS_TRACED
        assert t1.version == "2"
        assert record.nodes["corpus.apache"].wall_seconds == pytest.approx(4.0)

    def test_counters_from_memo_and_cache_spans(self):
        record = record_from_trace(self.trace())
        assert record.counters == {
            "memo.hits": 1,
            "memo.misses": 1,
            "cache.hits": 1,
        }

    def test_node_cpu_falls_back_to_span_attribute(self):
        # No resource samples: each node's CPU is its spans' own
        # ``cpu_seconds`` attribute, summed across repeats.
        trace = self.trace()
        trace[2]["attrs"] = {"cpu_seconds": 0.5}
        trace[3]["attrs"] = {"cpu_seconds": 0.25}
        record = record_from_trace(trace)
        assert record.nodes["T1"].cpu_seconds == pytest.approx(0.75)
        assert record.nodes["corpus.apache"].cpu_seconds is None

    def test_memo_walls_added_as_cached(self):
        record = record_from_trace(
            self.trace(), memo_walls={"F1": 0.9, "T1": 99.0}
        )
        # Traced nodes win over memo entries for the same name.
        assert record.nodes["T1"].status == STATUS_TRACED
        assert record.nodes["F1"].status == STATUS_CACHED
        assert record.nodes["F1"].wall_seconds == pytest.approx(0.9)


class TestHistoryViews:
    def test_cached_samples_excluded(self):
        cached = PerfRecord.new(
            {"T1": NodePerf(wall_seconds=5.0, status=STATUS_CACHED)},
            source="study-run",
            sha="s",
        )
        measured = make_record({"T1": 1.0})
        history = node_history([cached, measured])
        assert len(history["T1"]) == 1
        assert history["T1"][0][1].wall_seconds == pytest.approx(1.0)

    def test_node_medians(self):
        records = [make_record({"T1": w}) for w in (1.0, 3.0, 2.0)]
        assert node_medians(records)["T1"] == pytest.approx(2.0)

    def test_report_and_run_rows_shape(self):
        records = [make_record({"T1": 1.0}), make_record({"T1": 2.0})]
        rows = report_rows(records)
        assert rows[0][0] == "T1"
        assert rows[0][2] == 2  # runs
        listing = run_rows(records, limit=1)
        assert len(listing) == 1
        assert listing[0][0] == records[-1].run_id


class TestReadCached:
    def test_reuses_the_parse_until_the_file_changes(self, tmp_path, monkeypatch):
        db = PerfDB(tmp_path / "perf.jsonl")
        db.append(make_record({"T1": 1.0}))
        first = db.read_cached()
        parses = []
        original = PerfDB.read
        monkeypatch.setattr(
            PerfDB, "read", lambda self: parses.append(1) or original(self)
        )
        assert db.read_cached() is first  # same stat key: no re-parse
        assert parses == []
        db.append(make_record({"T1": 3.0}))
        assert len(db.read_cached()) == 2  # append changed size: re-parse
        assert parses == [1]

    def test_medians_memoized_on_the_same_token(self, tmp_path):
        db = PerfDB(tmp_path / "perf.jsonl")
        db.append(make_record({"T1": 1.0}))
        db.append(make_record({"T1": 3.0}))
        first = db.node_medians()
        assert first["T1"] == pytest.approx(2.0)
        assert db.node_medians() is first
        db.append(make_record({"T1": 5.0}))
        assert db.node_medians()["T1"] == pytest.approx(3.0)

    def test_missing_file_caches_empty(self, tmp_path):
        db = PerfDB(tmp_path / "absent.jsonl")
        assert db.read_cached() == []
        assert db.node_medians() == {}
        db.append(make_record({"T1": 1.0}))
        assert len(db.read_cached()) == 1  # creation is a state change


class TestGridFamilyHelpers:
    @pytest.mark.parametrize(
        ("name", "family"),
        [
            ("sweep.retry-budget[budget=2]", "sweep.retry-budget"),
            ("sweep.g[a=1,b=0.5]", "sweep.g"),
            ("T1", None),
            ("sweep.retry-budget", None),
            ("[x=1]", None),  # empty family prefix is not a point
            ("weird]", None),
        ],
    )
    def test_grid_family_parses_the_naming_contract(self, name, family):
        assert grid_family(name) == family

    def test_family_medians_take_the_median_of_point_medians(self):
        medians = {
            "sweep.g[x=1]": 1.0,
            "sweep.g[x=2]": 5.0,
            "sweep.g[x=3]": 2.0,
            "T1": 9.0,
        }
        assert family_medians(medians) == {"sweep.g": pytest.approx(2.0)}

    def test_no_grid_points_means_no_families(self):
        assert family_medians({"T1": 1.0}) == {}


class TestCheckRegressions:
    def test_flags_25_percent_slowdown_vs_3_run_baseline(self):
        baseline = [make_record({"T1": 1.0, "F1": 0.5}) for _ in range(3)]
        slow = make_record({"T1": 1.30, "F1": 0.5})
        latest, regressions = check_regressions(
            baseline + [slow], window=3, tolerance=0.25
        )
        assert latest is slow
        assert [r.node for r in regressions] == ["T1"]
        regression = regressions[0]
        assert regression.ratio == pytest.approx(1.30)
        assert regression.baseline_seconds == pytest.approx(1.0)
        assert regression.samples == 3

    def test_unchanged_rerun_stays_clean(self):
        records = [make_record({"T1": 1.0}) for _ in range(4)]
        _, regressions = check_regressions(records)
        assert regressions == []

    def test_within_tolerance_is_clean(self):
        records = [make_record({"T1": 1.0}) for _ in range(3)]
        records.append(make_record({"T1": 1.2}))
        _, regressions = check_regressions(records, tolerance=0.25)
        assert regressions == []

    def test_empty_history(self):
        assert check_regressions([]) == (None, [])

    def test_single_run_has_no_baseline(self):
        latest, regressions = check_regressions([make_record({"T1": 1.0})])
        assert latest is not None
        assert regressions == []

    def test_version_bump_resets_history(self):
        old = [make_record({"T1": 1.0}) for _ in range(3)]
        bumped = PerfRecord.new(
            {"T1": NodePerf(wall_seconds=10.0, version="2")},
            source="study-run",
            sha="s",
        )
        _, regressions = check_regressions(old + [bumped])
        assert regressions == []

    def test_sources_never_compared(self):
        study = [make_record({"T1": 1.0}) for _ in range(3)]
        traced = make_record({"T1": 9.0}, source="trace")
        _, regressions = check_regressions(study + [traced])
        assert regressions == []

    def test_sub_threshold_nodes_ignored(self):
        records = [make_record({"fast": 0.0001}) for _ in range(3)]
        records.append(make_record({"fast": 0.0009}))
        _, regressions = check_regressions(records, min_seconds=0.001)
        assert regressions == []

    def test_window_uses_most_recent_samples(self):
        # Old slow history outside the window must not mask a regression
        # against the recent fast baseline.
        old = [make_record({"T1": 5.0}) for _ in range(3)]
        recent = [make_record({"T1": 1.0}) for _ in range(3)]
        slow = make_record({"T1": 1.5})
        _, regressions = check_regressions(old + recent + [slow], window=3)
        assert [r.node for r in regressions] == ["T1"]
