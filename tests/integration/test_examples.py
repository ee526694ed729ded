"""The example scripts must stay runnable (they are documentation)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "mine_and_classify.py",
    "recovery_model_sensitivity.py",
    "heisenbug_sweeps.py",
    "recovery_replay.py",
    "availability_simulation.py",
    "rejuvenation_schedule.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_cleanly(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_quickstart_prints_headline_numbers():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "72%-87%" in result.stdout
    assert "5%-14%" in result.stdout

def test_mine_and_classify_reproduces_tables():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "mine_and_classify.py")],
        capture_output=True,
        text=True,
        timeout=240,
    )
    for count in ("36", "39", "38"):
        assert count in result.stdout


def test_all_examples_exist():
    expected = {
        "quickstart.py",
        "mine_and_classify.py",
        "recovery_replay.py",
        "recovery_model_sensitivity.py",
        "availability_simulation.py",
        "heisenbug_sweeps.py",
        "rejuvenation_schedule.py",
        "lee_iyer_explained.py",
    }
    present = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert expected <= present


def test_lee_iyer_example_runs():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "lee_iyer_explained.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "0.29" in result.stdout
    assert "90%" in result.stdout
