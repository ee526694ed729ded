"""Thread-scheduler interleaving as an environmental input.

"A race condition is non-deterministic because of the different times a
clock interrupt is delivered to the thread scheduler" (Section 3).  The
scheduler models exactly that: the *interleaving* of an execution is a
deterministic function of the scheduler's seed, and retrying after an
environment change draws a fresh seed -- which is why races are
environment-dependent-transient.
"""

from __future__ import annotations

import random

from repro.rng import derive_seed, make_rng


class ThreadScheduler:
    """Deterministic interleaving source.

    The shared stream is derived from the seed on its first draw: most
    replays never consult the scheduler, and the stream is a pure
    function of the seed, so deriving it late changes no draw.

    Args:
        seed: the interleaving seed; runs with equal seeds interleave
            identically.
    """

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._shared: random.Random | None = None
        self._labelled_rngs: dict[str, random.Random] = {}
        self.context_switches = 0

    @property
    def seed(self) -> int:
        """The current interleaving seed."""
        return self._seed

    def reseed(self, seed: int) -> None:
        """Start a fresh interleaving (the environment changed)."""
        self._seed = seed
        self._shared = None
        self._labelled_rngs = {}
        self.context_switches = 0

    def _rng_for(self, label: str | None) -> random.Random:
        """The draw stream for ``label`` (None = the shared legacy stream).

        Labelled streams are derived from ``(seed, label)`` so consumers
        that name themselves never perturb each other's draws; they are
        dropped on :meth:`reseed` so every fresh interleaving re-derives.
        """
        if label is None:
            if self._shared is None:
                self._shared = make_rng(self._seed, "scheduler")
            return self._shared
        rng = self._labelled_rngs.get(label)
        if rng is None:
            rng = make_rng(derive_seed(self._seed, label), "scheduler")
            self._labelled_rngs[label] = rng
        return rng

    def pick(self, runnable: list[str]) -> str:
        """Pick the next thread to run from ``runnable``.

        Raises:
            ValueError: if ``runnable`` is empty.
        """
        if not runnable:
            raise ValueError("no runnable threads")
        self.context_switches += 1
        return runnable[self._rng_for(None).randrange(len(runnable))]

    def race_fires(self, window: float, label: str | None = None) -> bool:
        """Whether a racy window of width ``window`` is hit this run.

        Args:
            window: probability in [0, 1] that the bad interleaving
                occurs under a uniformly random schedule.
            label: optional stream label.  ``None`` draws from the shared
                scheduler stream (the single-defect legacy behaviour); a
                label draws from an independent stream derived from
                ``(seed, label)`` so multiple armed defects never consume
                each other's draws.

        Returns:
            True when this interleaving lands inside the window.  The
            answer is deterministic for a given seed and draw sequence.
        """
        if not 0.0 <= window <= 1.0:
            raise ValueError("window must be within [0, 1]")
        self.context_switches += 1
        return self._rng_for(label).random() < window

    def interleave(self, threads: dict[str, list[str]]) -> list[tuple[str, str]]:
        """Produce one full interleaving of per-thread operation lists.

        Args:
            threads: mapping thread name -> ordered operations.

        Returns:
            A list of (thread, operation) pairs covering every operation,
            in scheduler order.
        """
        remaining = {name: list(ops) for name, ops in threads.items() if ops}
        order: list[tuple[str, str]] = []
        while remaining:
            name = self.pick(sorted(remaining))
            ops = remaining[name]
            order.append((name, ops.pop(0)))
            if not ops:
                del remaining[name]
        return order
