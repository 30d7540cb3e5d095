"""The scenario matrix: workloads × runtimes × fault/integrity configs.

A *cell* is one ``(workload, runtime, scenario)`` point; the engine
runs each cell once at the all-on baseline and once per applicable
component with that knob off.  Three scenarios cover the regimes the
mechanisms were built for:

* ``clean``   — healthy fabric, performance mechanisms only;
* ``faulty``  — seeded drops + jitter + a remote pause window, the
  retry/degrade and hybrid-fallback regime;
* ``corrupt`` — seeded bitflips/torn writes with the integrity ladder
  armed, the detection/repair regime.

Cell support is explicit: the ``chase`` workload is compiled IR (there
is no pattern replay for it), so it runs only under ``trackfm``; the
``webcache`` workload runs through the serving layer, whose shard
backends never attach integrity, so it has no ``corrupt`` scenario.
Quick mode (CI) keeps every workload and scenario but restricts
runtimes to ``(adaptive, hybrid, trackfm)`` — the composite models plus
the online selector — which still exercises all ten registered
components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.ablate.registry import COMPONENTS, Component
from repro.integrity.config import IntegrityConfig, parse_integrity_spec
from repro.net.faults import FaultPlan, parse_fault_spec
from repro.runtimes import RUNTIME_KINDS

#: Every workload on the scenario axis (the three new ones included).
WORKLOADS: Tuple[str, ...] = ("chase", "extsort", "graph", "hashmap", "stream", "webcache")

#: Workloads with a compiled-IR form (run under trackfm as IR cells).
IR_WORKLOADS: Tuple[str, ...] = ("chase", "hashmap", "stream")

RUNTIMES: Tuple[str, ...] = tuple(sorted(RUNTIME_KINDS))
QUICK_RUNTIMES: Tuple[str, ...] = ("adaptive", "hybrid", "trackfm")

SCENARIOS: Tuple[str, ...] = ("clean", "faulty", "corrupt")

#: Scenario fault/integrity specs (the CLI grammar, so the same cells
#: can be reproduced by hand with ``python -m repro.trace --faults``).
#: Two pause windows: hybrid cells split traffic across two links, so
#: each link sees roughly half the messages an IR cell's single link
#: does — the early window is what makes the object tier go dark
#: mid-run there (exercising the page-tier fallback), the late one
#: lands inside the long single-link IR runs.
FAULTY_SPEC = "seed=11,drop=0.02,jitter=300,pause=180:260;420:520"
CORRUPT_FAULT_SPEC = "seed=5,bitflip=0.04,torn=0.02"
CORRUPT_INTEGRITY_SPEC = "seed=1,refetch=3"


@dataclass(frozen=True)
class CellSpec:
    """One matrix point, before any knob is turned."""

    workload: str
    runtime: str
    scenario: str
    #: ``ir`` (compiled + interpreted), ``pattern`` (access replay), or
    #: ``serving`` (full cluster simulation).
    kind: str

    @property
    def cell_id(self) -> str:
        return f"{self.workload}/{self.runtime}/{self.scenario}"

    def fault_plan(self) -> Optional[FaultPlan]:
        if self.scenario == "faulty":
            return parse_fault_spec(FAULTY_SPEC)
        if self.scenario == "corrupt":
            return parse_fault_spec(CORRUPT_FAULT_SPEC)
        return None

    def integrity_config(self) -> Optional[IntegrityConfig]:
        if self.scenario == "corrupt":
            return parse_integrity_spec(CORRUPT_INTEGRITY_SPEC)
        return None


def cell_kind(workload: str, runtime: str) -> str:
    if workload == "webcache":
        return "serving"
    if runtime == "trackfm" and workload in IR_WORKLOADS:
        return "ir"
    return "pattern"


def supported(workload: str, runtime: str, scenario: str) -> bool:
    if workload == "chase" and runtime != "trackfm":
        return False  # IR-only workload, no pattern replay defined
    if workload == "webcache" and scenario == "corrupt":
        return False  # shard backends never attach integrity
    return True


def generate_matrix(quick: bool = False) -> Tuple[CellSpec, ...]:
    """All supported cells, in a fixed sorted order."""
    runtimes = QUICK_RUNTIMES if quick else RUNTIMES
    cells = []
    for workload in WORKLOADS:
        for runtime in runtimes:
            for scenario in SCENARIOS:
                if not supported(workload, runtime, scenario):
                    continue
                cells.append(
                    CellSpec(workload, runtime, scenario, cell_kind(workload, runtime))
                )
    return tuple(cells)


def applicable_components(spec: CellSpec) -> Tuple[Component, ...]:
    """Components whose leave-one-out run is meaningful in this cell."""
    return tuple(
        comp
        for comp in COMPONENTS
        if comp.applies(spec.kind, spec.workload, spec.runtime, spec.scenario)
    )
