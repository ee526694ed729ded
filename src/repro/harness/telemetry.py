"""Campaign progress lines; the metrics live in :class:`repro.obs.MetricsRegistry`."""

from __future__ import annotations

import sys
import time
from typing import TextIO

__all__ = ["ProgressReporter"]


class ProgressReporter:
    """Periodic one-line progress output for long campaigns.

    Writes at most one line every ``interval`` seconds (plus a final
    line), so tight serial campaigns stay quiet and journal-heavy resumes
    do not flood the terminal.
    """

    def __init__(
        self,
        total: int,
        *,
        stream: TextIO | None = None,
        interval: float = 1.0,
        label: str = "campaign",
    ) -> None:
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.label = label
        self._started = time.monotonic()
        self._last_emit = self._started
        self._done = 0
        self._emitted_done: int | None = None

    @classmethod
    def if_interactive(
        cls,
        total: int,
        *,
        quiet: bool = False,
        stream: TextIO | None = None,
        interval: float = 1.0,
        label: str = "campaign",
    ) -> "ProgressReporter | None":
        """A reporter only when progress lines will reach a person.

        Returns None when ``quiet`` is set or the stream is not a TTY
        (redirected CI logs must not be flooded with progress lines).
        """
        target = stream if stream is not None else sys.stderr
        isatty = getattr(target, "isatty", None)
        if quiet or isatty is None or not isatty():
            return None
        return cls(total, stream=target, interval=interval, label=label)

    def update(self, done: int, *, resumed: int = 0, force: bool = False) -> None:
        """Report ``done`` completed units (emits only when due)."""
        self._done = done
        now = time.monotonic()
        if not force and now - self._last_emit < self.interval and done < self.total:
            return
        if done == self._emitted_done and done >= self.total:
            return
        self._last_emit = now
        self._emitted_done = done
        elapsed = now - self._started
        fraction = done / self.total if self.total else 1.0
        parts = [f"[{self.label}] {done}/{self.total} units ({fraction:.0%})"]
        if resumed:
            parts.append(f"{resumed} resumed")
        parts.append(f"{elapsed:.1f}s elapsed")
        print(" · ".join(parts), file=self.stream)

    def finish(self, *, resumed: int = 0) -> None:
        """Emit the final progress line."""
        self.update(self.total, resumed=resumed, force=True)
