"""The aggregate operating environment.

One :class:`Environment` instance bundles everything Section 3 names as
"outside the application": kernel resource tables, the disk, the DNS
server, the network, the thread scheduler, the entropy pool, the
machine's identity, and virtual time.  Mini applications hold a
reference to one and draw all their resources from it; recovery
techniques perturb it between retries.
"""

from __future__ import annotations

import dataclasses

from repro.envmodel.clock import SimulationClock
from repro.envmodel.dns import DnsServer
from repro.envmodel.events import EventQueue
from repro.envmodel.network import Network
from repro.envmodel.resources import BoundedResource, DiskVolume, EntropyPool
from repro.envmodel.scheduler import ThreadScheduler
from repro.rng import DEFAULT_SEED, derive_seed


@dataclasses.dataclass
class EnvironmentSpec:
    """Sizing for a fresh environment (a small 1999-era server box)."""

    file_descriptors: int = 256
    process_slots: int = 128
    network_ports: int = 64
    disk_capacity_bytes: int = 64 * 1024 * 1024
    max_file_bytes: int = 16 * 1024 * 1024
    disk_cache_bytes: int = 8 * 1024 * 1024
    entropy_bits: int = 2048


class Environment:
    """The operating environment of one machine.

    Args:
        seed: deterministic seed for timing-dependent components.
        spec: resource sizing.
    """

    def __init__(self, *, seed: int = DEFAULT_SEED, spec: EnvironmentSpec | None = None):
        self.seed = seed
        self.spec = spec or EnvironmentSpec()
        self.clock = SimulationClock()
        self.events = EventQueue(self.clock)
        self._scheduler: ThreadScheduler | None = None
        self._retry_count = 0

        self.hostname = "server.example.com"
        self.file_descriptors = BoundedResource("file_descriptors", self.spec.file_descriptors)
        self.process_table = BoundedResource("process_slots", self.spec.process_slots)
        self.ports = BoundedResource("network_ports", self.spec.network_ports)
        self.disk = DiskVolume(self.spec.disk_capacity_bytes, max_file_bytes=self.spec.max_file_bytes)
        self.disk_cache = DiskVolume(self.spec.disk_cache_bytes)
        self.entropy = EntropyPool(self.spec.entropy_bits)
        self.dns = DnsServer()
        self.network = Network()

    def change_hostname(self, new_hostname: str) -> None:
        """Change the machine's name while applications run (GNOME trigger)."""
        self.hostname = new_hostname

    @property
    def scheduler(self) -> ThreadScheduler:
        """The thread scheduler, seeded for the current retry.

        Built on first use: most replays never consult it, and seeding
        it costs a SHA-256 derivation.  A scheduler built at retry ``n``
        has the seed the eager one would have been reseeded to.
        """
        if self._scheduler is None:
            self._scheduler = ThreadScheduler(self._interleaving_seed())
        return self._scheduler

    def _interleaving_seed(self) -> int:
        return derive_seed(self.seed, f"interleaving:{self._retry_count}")

    def reseed_scheduler(self) -> None:
        """Draw a fresh thread interleaving (time has passed; interrupts differ)."""
        self._retry_count += 1
        if self._scheduler is not None:
            self._scheduler.reseed(self._interleaving_seed())

    def resource(self, name: str) -> BoundedResource:
        """Look up a countable resource by its name.

        Raises:
            KeyError: for unknown resource names.
        """
        resources = {
            "file_descriptors": self.file_descriptors,
            "process_slots": self.process_table,
            "network_ports": self.ports,
            "network_buffers": self.network.buffers,
        }
        return resources[name]
