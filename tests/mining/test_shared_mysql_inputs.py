"""The MySQL mining inputs are built once per study wave and shared.

``mined.mysql`` and the three ``ablate.keywords.*`` nodes all mine the
parsed MySQL archive.  The decoded messages, their positional index and
their threads do not depend on the keywords, so one wave derives them
once for all four consumers -- and drops them when the wave ends.
"""

import gc
import weakref

import pytest

from repro.bugdb.enums import Application
from repro.mining import mysql as mining_mysql
from repro.mining import nodes as mining_nodes
from repro.mining.mysql import mine_mysql
from repro.pipeline import records as _records
from repro.pipeline.formats import format_for
from repro.studygraph.context import StudyContext
from repro.studygraph.registry import default_registry
from repro.studygraph.scheduler import run_study

#: Keywords outside the study set, so the override changes the mined set.
OVERRIDE_KEYWORDS = ("segfault", "abort")


class BuildCounter:
    """Counts index builds and thread groupings at every binding the
    study graph can reach, keeping a weak reference to each index."""

    def __init__(self, monkeypatch):
        self.index_builds = 0
        self.thread_groupings = 0
        self.index_refs = []
        build_index = mining_mysql.build_message_index
        group_threads = mining_mysql.group_threads

        def counting_build(messages):
            self.index_builds += 1
            index = build_index(messages)
            self.index_refs.append(weakref.ref(index))
            return index

        def counting_group(messages):
            self.thread_groupings += 1
            return group_threads(messages)

        for module in (mining_mysql, mining_nodes):
            monkeypatch.setattr(module, "build_message_index", counting_build)
            monkeypatch.setattr(module, "group_threads", counting_group)


@pytest.fixture(scope="module")
def cold_study_counts():
    """One cold, uncached, single-worker run of every experiment."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        counter = BuildCounter(monkeypatch)
        result = run_study(StudyContext.default(workers=1))
        executed = result.executed
        del result
    return counter, executed


class TestColdStudyBuildsOnce:
    def test_one_index_build_and_one_thread_grouping(self, cold_study_counts):
        counter, executed = cold_study_counts
        assert executed == 144
        assert counter.index_builds == 1
        assert counter.thread_groupings == 1

    def test_shared_inputs_do_not_outlive_the_run(self, cold_study_counts):
        counter, _ = cold_study_counts
        gc.collect()
        assert counter.index_refs
        assert all(ref() is None for ref in counter.index_refs)


class TestKeywordOverride:
    def test_override_matches_a_fresh_mine_over_decoded_records(self, monkeypatch):
        counter = BuildCounter(monkeypatch)
        registry = default_registry().with_overrides(
            {"ablate.keywords.crash": {"keywords": ",".join(OVERRIDE_KEYWORDS)}}
        )
        result = run_study(
            StudyContext.default(workers=1),
            nodes=["mined.mysql", "ablate.keywords.crash"],
            outputs=["parsed.mysql", "mined.mysql", "ablate.keywords.crash"],
            registry=registry,
        )
        # Both consumers shared one derivation despite different keywords.
        assert counter.index_builds == 1
        assert counter.thread_groupings == 1

        fmt = format_for(Application.MYSQL)
        messages = [
            fmt.record_from_dict(data)
            for data in result.outputs["parsed.mysql"]["records"]
        ]
        fresh = mine_mysql(messages, keywords=OVERRIDE_KEYWORDS)
        ablation = result.outputs["ablate.keywords.crash"]
        assert ablation["keywords"] == list(OVERRIDE_KEYWORDS)
        assert ablation["unique_bugs"] == len(fresh.items)
        assert ablation["recall"] == len(fresh.items) / 44

        study = mine_mysql(messages)
        assert len(study.items) != len(fresh.items)
        mined = result.outputs["mined.mysql"]
        assert {key: mined[key] for key in ("items", "trace")} == (
            _records.result_to_payload(study, fmt.item_to_dict)
        )
