"""Integrity configuration, crash-point plans, and the CLI spec parser.

Mirrors the fault-plan plumbing in :mod:`repro.net.faults`: a frozen
config object, a ``parse_*_spec`` grammar for the ``--integrity`` CLI
knob, and a process-wide default that the backend factories consult so
harness-built runtimes pick verification up without constructor
changes.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import RuntimeConfigError

__all__ = [
    "CrashPlan",
    "IntegrityConfig",
    "parse_integrity_spec",
    "default_integrity_config",
    "set_default_integrity_config",
    "installed_integrity_config",
]

#: Where a :class:`CrashPlan` pretends to die.
CRASH_KINDS = ("evacuator", "farnode")

#: Every key ``parse_integrity_spec`` accepts (enumerated in errors).
INTEGRITY_SPEC_KEYS = ("seed", "refetch", "verify", "crash")


@dataclass
class CrashPlan:
    """A deterministic crash point, clocked in evacuation-journal records.

    The crash fires exactly once, when the journal reaches
    ``at_record`` appended records (1-based).  ``kind`` picks the
    failure: an ``evacuator`` crash dies cleanly mid-sweep, a
    ``farnode`` crash additionally tears the in-flight object's remote
    copy (the node died while applying the write).
    """

    at_record: int
    kind: str = "evacuator"
    #: Set once the crash has been raised; never fires twice.
    fired: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.at_record < 1:
            raise RuntimeConfigError("crash at_record must be >= 1")
        if self.kind not in CRASH_KINDS:
            raise RuntimeConfigError(
                f"unknown crash kind {self.kind!r}; valid kinds: {', '.join(CRASH_KINDS)}"
            )


@dataclass(frozen=True)
class IntegrityConfig:
    """How a checker verifies, repairs, and (optionally) crashes.

    ``max_refetches`` bounds the repair loop per corrupted fetch —
    once exhausted the object is quarantined and
    :class:`~repro.errors.DataIntegrityError` raised.  ``verify_cycles``
    is charged per checksum verification (once per fetch, plus once per
    repair attempt).
    """

    enabled: bool = True
    seed: int = 0
    max_refetches: int = 2
    verify_cycles: float = 25.0
    crash_at_record: Optional[int] = None
    crash_kind: str = "evacuator"

    def __post_init__(self) -> None:
        if self.max_refetches < 0:
            raise RuntimeConfigError("max_refetches must be >= 0")
        if not 0 <= self.verify_cycles < math.inf:
            raise RuntimeConfigError(
                f"verify_cycles must be finite and >= 0, got {self.verify_cycles}"
            )
        if self.crash_at_record is not None and self.crash_at_record < 1:
            raise RuntimeConfigError("crash_at_record must be >= 1")
        if self.crash_kind not in CRASH_KINDS:
            raise RuntimeConfigError(
                f"unknown crash kind {self.crash_kind!r}; "
                f"valid kinds: {', '.join(CRASH_KINDS)}"
            )

    def crash_plan(self) -> Optional[CrashPlan]:
        """A fresh (unfired) crash plan, or None when no crash is set."""
        if self.crash_at_record is None:
            return None
        return CrashPlan(at_record=self.crash_at_record, kind=self.crash_kind)


def parse_integrity_spec(spec: str) -> Optional[IntegrityConfig]:
    """Parse the ``--integrity`` CLI knob into an :class:`IntegrityConfig`.

    Grammar::

        off | on | <key>=<value>[,<key>=<value>...]

    with keys ``seed=<int>``, ``refetch=<int>`` (repair budget),
    ``verify=<cycles>``, and ``crash=<record>[:<kind>]`` (deterministic
    crash injection).  ``off`` (or an empty spec) returns None.
    """
    spec = spec.strip().lower()
    if not spec or spec == "off":
        return None
    if spec == "on":
        return IntegrityConfig()
    kwargs: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise RuntimeConfigError(
                f"bad integrity spec part {part!r} (want key=value, 'on', or 'off')"
            )
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key == "refetch":
                kwargs["max_refetches"] = int(value)
            elif key == "verify":
                kwargs["verify_cycles"] = float(value)
            elif key == "crash":
                record, _, kind = value.partition(":")
                kwargs["crash_at_record"] = int(record)
                if kind:
                    kwargs["crash_kind"] = kind
            else:
                raise RuntimeConfigError(
                    f"unknown integrity spec key {key!r}; "
                    f"valid keys: {', '.join(INTEGRITY_SPEC_KEYS)}"
                )
        except ValueError as err:
            raise RuntimeConfigError(
                f"bad integrity spec value {part!r}: {err}"
            ) from err
    return IntegrityConfig(**kwargs)


# -- process-wide default config ----------------------------------------------

#: When set, ``make_tcp_backend``/``make_rdma_backend`` attach a fresh
#: :class:`~repro.integrity.IntegrityChecker` to every backend they
#: build — the hook behind the ``--integrity`` CLI knobs.
_DEFAULT_CONFIG: Optional[IntegrityConfig] = None


def default_integrity_config() -> Optional[IntegrityConfig]:
    return _DEFAULT_CONFIG


def set_default_integrity_config(config: Optional[IntegrityConfig]) -> None:
    global _DEFAULT_CONFIG
    _DEFAULT_CONFIG = config


@contextlib.contextmanager
def installed_integrity_config(config: Optional[IntegrityConfig]) -> Iterator[None]:
    """Temporarily install ``config`` as the process default."""
    previous = _DEFAULT_CONFIG
    set_default_integrity_config(config)
    try:
        yield
    finally:
        set_default_integrity_config(previous)
