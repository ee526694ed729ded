"""Base machinery shared by the mini applications.

A :class:`MiniApplication` owns mutable in-memory *state* (what a generic
recovery system checkpoints and restores) and a live
:class:`~repro.envmodel.perturb.ResourceFootprint` (what it currently
holds in the operating environment -- deliberately *not* part of a
checkpoint: a truly generic recovery system preserves application memory,
while the environment-side footprint changes only through the
environment, e.g. when recovery kills the application's processes).
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Any

from repro.apps.faults import FaultInjector
from repro.envmodel.environment import Environment
from repro.envmodel.perturb import ResourceFootprint
from repro.errors import ApplicationCrash


@dataclasses.dataclass(frozen=True)
class AppCheckpoint:
    """A checkpoint of an application's full in-memory state.

    The state is kept as a pickled image: taking one is a single
    encoding and each restore a single decoding into fresh objects, a
    fraction of a ``copy.deepcopy`` either way, with the same sharing
    between objects (an index's rows stay the table's rows).

    Attributes:
        image: the application state at checkpoint time, pickled.
        boot_hostname: the hostname the application started under (part
            of application memory -- e.g. cached display authentication).
    """

    image: bytes
    boot_hostname: str

    @property
    def state(self) -> dict[str, Any]:
        """A fresh deep copy of the checkpointed state."""
        return pickle.loads(self.image)


class MiniApplication:
    """Base class for the fault-injectable mini applications.

    Args:
        env: the operating environment the application runs in.
        name: application name for logs and errors.
    """

    def __init__(self, env: Environment, *, name: str):
        self.env = env
        self.name = name
        self.state: dict[str, Any] = {}
        self.footprint = ResourceFootprint()
        self.injector = FaultInjector()
        self.boot_hostname = env.hostname
        self.crashed = False
        self._init_state()

    def _init_state(self) -> None:
        """Initialise application-specific state (overridden by apps)."""

    # ------------------------------------------------------------------ #
    # checkpoint / restore (what generic recovery manipulates)
    # ------------------------------------------------------------------ #

    def snapshot(self) -> AppCheckpoint:
        """Capture all application memory."""
        return AppCheckpoint(
            image=pickle.dumps(self.state, pickle.HIGHEST_PROTOCOL),
            boot_hostname=self.boot_hostname,
        )

    def restore(self, checkpoint: AppCheckpoint) -> None:
        """Restore application memory from a checkpoint."""
        self.state = checkpoint.state
        self.boot_hostname = checkpoint.boot_hostname
        self.crashed = False

    def reset_fresh(self) -> None:
        """Discard all state and reinitialise (restart-from-scratch)."""
        self.state = {}
        self.boot_hostname = self.env.hostname
        self.crashed = False
        self._init_state()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run_op(self, op: str) -> Any:
        """Execute one workload operation.

        The injector decides first whether an armed defect fires for this
        operation under the current environment; if so the application
        crashes.  Otherwise the operation is performed normally.

        Raises:
            ApplicationCrash: when an injected defect fires.
        """
        self.injector.check(op, self.env, self)
        try:
            return self._do_op(op)
        except ApplicationCrash:
            self.crashed = True
            raise

    def _do_op(self, op: str) -> Any:
        """Perform an operation normally (overridden by apps; default no-op)."""
        return None

    # ------------------------------------------------------------------ #
    # environment interaction helpers
    # ------------------------------------------------------------------ #

    def open_descriptor(self, *, leaked: bool = False) -> None:
        """Acquire one file descriptor from the environment.

        Args:
            leaked: mark the descriptor as no longer used but never
                closed (reclaimable by an OS-resource garbage collector).
        """
        self.env.file_descriptors.acquire()
        self.footprint.descriptors += 1
        if leaked:
            self.footprint.leaked_descriptors += 1

    def close_descriptor(self) -> None:
        """Release one (non-leaked) descriptor."""
        if self.footprint.descriptors - self.footprint.leaked_descriptors <= 0:
            raise ValueError(f"{self.name}: no live descriptor to close")
        self.env.file_descriptors.release()
        self.footprint.descriptors -= 1

    def fork_child(self) -> None:
        """Fork a child process (one process-table slot)."""
        self.env.process_table.acquire()
        self.footprint.process_slots += 1

    def reap_child(self) -> None:
        """Reap one child, freeing its slot."""
        if self.footprint.process_slots <= 0:
            raise ValueError(f"{self.name}: no child to reap")
        self.env.process_table.release()
        self.footprint.process_slots -= 1

    def bind_port(self) -> None:
        """Bind one network port."""
        self.env.ports.acquire()
        self.footprint.ports += 1

    def release_port(self) -> None:
        """Release one bound port."""
        if self.footprint.ports <= 0:
            raise ValueError(f"{self.name}: no port to release")
        self.env.ports.release()
        self.footprint.ports -= 1
