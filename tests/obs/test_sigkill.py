"""A SIGKILLed trace or perfdb writer tears at most its last line."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.obs import read_trace
from repro.obs.perfdb import PerfDB

#: Children that append large lines forever, until killed.
_PERFDB_WRITER = """
import sys
from repro.obs.perfdb import NodePerf, PerfDB, PerfRecord
db = PerfDB(sys.argv[1])
nodes = {f"node.{n:04d}": NodePerf(0.001 * n, version="1") for n in range(300)}
while True:
    db.append(PerfRecord.new(nodes, source="study-run", sha="deadbeef"))
"""

_TRACE_WRITER = """
import sys
from repro.obs import JsonlSink
sink = JsonlSink(sys.argv[1])
index = 0
while True:
    sink.emit({"name": f"span{index}", "pad": "x" * 20000})
    index += 1
"""


def _kill_after_lines(script, path, lines):
    """Run ``script`` on ``path``; SIGKILL it once ``lines`` lines are whole."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    child = subprocess.Popen([sys.executable, "-c", script, str(path)], env=env)
    deadline = time.monotonic() + 120  # a hang guard, not a pacing sleep
    try:
        while not path.exists() or path.read_bytes().count(b"\n") < lines:
            assert child.poll() is None, "writer exited before the kill"
            assert time.monotonic() < deadline, "writer never wrote enough lines"
            time.sleep(0.001)
        os.kill(child.pid, signal.SIGKILL)
    finally:
        child.kill()
        child.wait()
    assert child.returncode == -signal.SIGKILL


#: Whole lines to wait for before the kill.
WANTED = 20


def test_killed_perfdb_writer_loses_at_most_one_line(tmp_path):
    path = tmp_path / "perf.jsonl"
    _kill_after_lines(_PERFDB_WRITER, path, WANTED)
    db = PerfDB(path)
    records = db.read()
    assert len(records) >= WANTED
    assert db.skipped_lines <= 1
    assert all(len(record.nodes) == 300 for record in records)


def test_killed_trace_writer_loses_at_most_one_line(tmp_path):
    path = tmp_path / "run.trace"
    _kill_after_lines(_TRACE_WRITER, path, WANTED)
    records, skipped = read_trace(path)
    assert len(records) >= WANTED
    assert skipped <= 1
    assert [record["name"] for record in records] == [
        f"span{index}" for index in range(len(records))
    ]
