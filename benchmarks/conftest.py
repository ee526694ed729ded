"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure from the paper (see
DESIGN.md's per-experiment index) and asserts the reproduced values, so
``pytest benchmarks/ --benchmark-only`` doubles as the reproduction
check: timings from pytest-benchmark, correctness from the assertions,
and the reproduced rows in each benchmark's ``extra_info``.
"""

import pytest

from repro.bugdb import debbugs, gnats, mbox
from repro.corpus import apache_corpus, full_study, gnome_corpus, mysql_corpus
from repro.corpus.render import (
    apache_raw_archive,
    gnome_raw_archive,
    mysql_raw_archive,
)
from repro.mining.gnome import GNOME_STUDY_COMPONENTS


@pytest.fixture(scope="session")
def study():
    return full_study()


@pytest.fixture(scope="session")
def apache():
    return apache_corpus()


@pytest.fixture(scope="session")
def gnome():
    return gnome_corpus()


@pytest.fixture(scope="session")
def mysql():
    return mysql_corpus()


@pytest.fixture(scope="session")
def apache_archive_reports(apache):
    """The full-scale (5220-report) Apache GNATS archive, parsed."""
    return gnats.parse_archive(apache_raw_archive(apache))


@pytest.fixture(scope="session")
def gnome_archive_reports(gnome):
    """The full-scale (~500-report) GNOME debbugs archive, parsed."""
    return debbugs.parse_archive(
        gnome_raw_archive(gnome, study_components=GNOME_STUDY_COMPONENTS)
    )


@pytest.fixture(scope="session")
def mysql_archive_messages(mysql):
    """The full-scale (~44,000-message) MySQL mbox archive, parsed."""
    return mbox.parse_archive(mysql_raw_archive(mysql))
