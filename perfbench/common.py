"""Paths, child processes, the machine record and a run's outcome."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Sequence

from perfbench.stats import FailureCount, median

#: The checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for inputs, caches, journals and sockets (git-ignored).
WORK_ROOT = ROOT / ".perfbench-work"

#: Set-up is repeated this many times per run; its median is reported.
SETUP_REPEATS = 3

#: Seed of the paper-anchored work whose outputs are pinned.
PAPER_SEED = 20000625

#: A child Python that outlives this is killed and the run fails.
CHILD_TIMEOUT_S = 150.0


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for child Pythons: the program and this package importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


@dataclasses.dataclass
class ChildRun:
    """One finished child process, measured by the parent."""

    returncode: int
    wall_s: float
    cpu_s: float
    stdout: str


def run_child(argv: Sequence[str], stdout_path: Path) -> ChildRun:
    """Run ``python <argv>`` from the checkout root and wait for it.

    CPU time is the child's own, from ``wait4``; stdout
    goes through a file so a chatty child can never block on a pipe.
    """
    with open(stdout_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=out,
            stderr=subprocess.DEVNULL,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        stdout=stdout_path.read_text(encoding="utf-8", errors="replace"),
    )


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS high-water mark from its current RSS."""
    Path("/proc/self/clear_refs").write_text("5", encoding="ascii")


def peak_rss_mb(pid: int | str = "self") -> float:
    """A process's peak RSS (``VmHWM``) since it started or was last reset."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def source_digest() -> str:
    """SHA-256 over the program's source files: identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def machine_record(seed: int, workload: str, trace: bool) -> dict[str, Any]:
    """What a result must carry to be compared with another one."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "loadavg_at_start": list(os.getloadavg()),
    }


@dataclasses.dataclass
class Outcome:
    """Everything one workload run measured and checked.

    Attributes:
        setup_s: one sample per set-up.
        wall_s: one sample per pass of the workload's fixed work.
        cpu_s: CPU seconds per pass (the daemon's, for ``serve``).
        peak_rss_mb: peak RSS of the process doing one pass: this
            process during its first pass, from a high-water mark reset
            just before it and read just after it (reference checks
            run later), or the median over passes of each fresh
            daemon's peak for ``serve``.
        ops: attempted and failed operations over all passes.
        errors: failed output checks; any entry makes the run incorrect.
        lines: human-readable metric lines (name, value, unit, samples).
        layers: per-layer metric values (traced runs only).
        trace_report: the traced pass's :meth:`Tracer.report`, for a
            workload that combines several parts' wrappers.
        traced_s: wall time of the traced pass.
    """

    setup_s: list[float] = dataclasses.field(default_factory=list)
    wall_s: list[float] = dataclasses.field(default_factory=list)
    cpu_s: list[float] = dataclasses.field(default_factory=list)
    peak_rss_mb: float = 0.0
    ops: FailureCount = dataclasses.field(default_factory=FailureCount)
    errors: list[str] = dataclasses.field(default_factory=list)
    lines: list[str] = dataclasses.field(default_factory=list)
    layers: dict[str, float] = dataclasses.field(default_factory=dict)
    trace_report: dict[str, Any] = dataclasses.field(default_factory=dict)
    traced_s: float = 0.0

    def check(self, ok: bool, message: str) -> None:
        """Record ``message`` as a failed output check unless ``ok``."""
        if not ok:
            self.errors.append(message)

    def line(self, name: str, value: float, unit: str, samples: int, note: str = "") -> None:
        text = f"{name} = {value:.6g} {unit} (n={samples})"
        self.lines.append(text + (f"  {note}" if note else ""))

    def samples(self, name: str, values: Sequence[float], unit: str) -> None:
        """A median line listing every sample it was taken over."""
        listed = ", ".join(f"{value:.4f}" for value in values)
        self.lines.append(
            f"{name} = {median(values):.6g} {unit} (median of n={len(values)}: {listed})"
        )


def passes_until(seconds: float, started: float, done: int) -> bool:
    """True while another pass is due: always one, then until time is up."""
    return done == 0 or time.perf_counter() - started < seconds
