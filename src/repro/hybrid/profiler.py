"""The density profiler: windowed per-region access statistics.

The adaptive hybrid's selector needs, per region and per epoch, exactly
the quantities the paging-vs-object cost crossover is written in
(:meth:`repro.compiler.cost_model.ChunkingCostModel.prefer_pages`):
how many accesses landed in the region, how many distinct objects and
distinct pages they touched, and how many were writes.  This module
collects them.

Everything is a pure fold over the access stream: recording costs no
simulated cycles (the profiler is the software analogue of the trace
layer's counters, not a mechanism the machine pays for), and folding a
window produces frozen :class:`RegionStats` snapshots in sorted region
order — so two replays of the same stream profile identically and every
downstream decision is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

from repro.errors import RuntimeConfigError
from repro.machine.costs import AccessKind


@dataclass(frozen=True)
class RegionStats:
    """One region's folded window: the selector's entire input."""

    region: int
    #: Accesses that landed in the region this window.
    accesses: int
    #: Distinct objects those accesses touched.
    distinct_objects: int
    #: Distinct (architected) pages those accesses touched.
    distinct_pages: int
    #: How many of the accesses were writes.
    writes: int


@dataclass
class _Window:
    """Mutable per-region accumulator for the current epoch."""

    accesses: int = 0
    writes: int = 0
    objects: Set[int] = field(default_factory=set)
    pages: Set[int] = field(default_factory=set)


class DensityProfiler:
    """Folds per-base access counters into windowed region stats."""

    def __init__(self, region_bytes: int, object_size: int, page_size: int) -> None:
        if region_bytes <= 0 or object_size <= 0 or page_size <= 0:
            raise RuntimeConfigError("profiler granularities must be positive")
        if region_bytes % object_size != 0:
            raise RuntimeConfigError(
                f"region_bytes {region_bytes} must be a multiple of "
                f"object_size {object_size}"
            )
        if region_bytes % page_size != 0:
            raise RuntimeConfigError(
                f"region_bytes {region_bytes} must be a multiple of "
                f"page_size {page_size}"
            )
        self.region_bytes = region_bytes
        self.object_size = object_size
        self.page_size = page_size
        self._windows: Dict[int, _Window] = {}
        #: Region-to-region transitions this window (scan-vs-random
        #: signal: sequential sweeps run long in one region, random
        #: probe mixes hop every few accesses).
        self.window_transitions = 0
        self.window_accesses = 0
        self._last_region: int = -1
        #: Lifetime totals (observability only; never fed to the selector).
        self.total_accesses = 0
        self.epochs_folded = 0

    def region_of(self, offset: int) -> int:
        return offset // self.region_bytes

    def record(self, offset: int, kind: AccessKind) -> None:
        """Fold one access at heap ``offset`` into the current window."""
        region = offset // self.region_bytes
        window = self._windows.get(region)
        if window is None:
            window = self._windows[region] = _Window()
        window.accesses += 1
        if kind is AccessKind.WRITE:
            window.writes += 1
        window.objects.add(offset // self.object_size)
        window.pages.add(offset // self.page_size)
        if self._last_region >= 0 and region != self._last_region:
            self.window_transitions += 1
        self._last_region = region
        self.window_accesses += 1
        self.total_accesses += 1

    def interleave_rate(self) -> float:
        """Fraction of this window's accesses that changed region.

        Near 0 for sweeps (long runs in one region), high for random
        mixes.  The adaptive runtime uses it to tell *cheap* page-tier
        over-commit (a sweep faults each page once per pass no matter
        the capacity) from *thrashing* over-commit (an interleaved mix
        faults on nearly every access).
        """
        if self.window_accesses <= 0:
            return 0.0
        return self.window_transitions / self.window_accesses

    def _freeze(self) -> Dict[int, RegionStats]:
        stats: Dict[int, RegionStats] = {}
        for region in sorted(self._windows):
            window = self._windows[region]
            stats[region] = RegionStats(
                region=region,
                accesses=window.accesses,
                distinct_objects=len(window.objects),
                distinct_pages=len(window.pages),
                writes=window.writes,
            )
        return stats

    def fold(self) -> Dict[int, RegionStats]:
        """Freeze and clear the current window, keyed by region, sorted."""
        stats = self._freeze()
        self._windows.clear()
        self.window_transitions = 0
        self.window_accesses = 0
        self._last_region = -1
        self.epochs_folded += 1
        return stats

    def peek(self) -> Dict[int, RegionStats]:
        """Like :meth:`fold` but leaves the window intact (diagnostics)."""
        return self._freeze()
