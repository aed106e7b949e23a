"""RAM and flash-storage models."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.android.app import AppSpec


@dataclass
class MemoryModel:
    """Main-memory accounting.

    ``capacity_mb`` matches the emulator's RAM allocation (paper: 4096 MB);
    ``system_reserved_mb`` models the OS/zygote share unavailable to apps.
    """

    capacity_mb: float = 4096.0
    system_reserved_mb: float = 1024.0
    #: Footprint of every resident allocation.
    resident_mb: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.system_reserved_mb >= self.capacity_mb:
            raise ValueError("reserved memory must be below capacity")

    @property
    def used_mb(self) -> float:
        """RAM held by resident apps, summed exactly.

        A running float total drifts: releasing every app could leave a
        residue such as 1e-12 MB "used".
        """
        return math.fsum(self.resident_mb)

    @property
    def available_mb(self) -> float:
        """RAM left for new app allocations."""
        return self.capacity_mb - self.system_reserved_mb - self.used_mb

    def can_fit(self, app: AppSpec) -> bool:
        """Whether the app's footprint fits right now."""
        return app.ram_mb <= self.available_mb

    def allocate(self, app: AppSpec) -> None:
        """Charge the app's footprint against RAM."""
        if not self.can_fit(app):
            raise MemoryError(f"no RAM for {app.name} ({app.ram_mb} MB)")
        self.resident_mb.append(app.ram_mb)

    def release(self, app: AppSpec) -> None:
        """Return the app's footprint to the free pool."""
        if app.ram_mb not in self.resident_mb:
            raise ValueError(f"releasing more than allocated for {app.name}")
        self.resident_mb.remove(app.ram_mb)


@dataclass
class FlashModel:
    """Flash storage: cold starts stream the app image at a fixed bandwidth.

    ``read_mb_per_s`` models eMMC/UFS sequential read; ``init_overhead_s``
    is the per-launch process creation / linking cost.
    """

    read_mb_per_s: float = 250.0
    init_overhead_s: float = 0.35
    total_loaded_bytes: int = 0
    total_load_time_s: float = 0.0
    loads: int = 0

    def load(self, app: AppSpec) -> tuple[int, float]:
        """Perform a cold-start load; returns ``(bytes, seconds)``."""
        load_bytes = app.flash_load_bytes
        load_time = app.flash_load_mb / self.read_mb_per_s + self.init_overhead_s
        self.total_loaded_bytes += load_bytes
        self.total_load_time_s += load_time
        self.loads += 1
        return load_bytes, load_time
