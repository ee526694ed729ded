"""A SIGKILLed trace writer tears at most its last line."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.obs import read_trace

#: A child that appends large lines forever, until killed.
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


def test_killed_trace_writer_loses_at_most_one_line(tmp_path):
    path = tmp_path / "run.trace"
    _kill_after_lines(_TRACE_WRITER, path, WANTED)
    records, skipped = read_trace(path)
    assert len(records) >= WANTED
    assert skipped <= 1
    assert [record["name"] for record in records] == [
        f"span{index}" for index in range(len(records))
    ]
