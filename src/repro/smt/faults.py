"""Deterministic, seeded fault injection for the solving runtime.

The resilience guarantees of :mod:`repro.smt.dispatch` — worker-crash
recovery, exception containment, cache quarantine — are only guarantees if
they are exercised.  This module provides the hooks the runtime calls at its
failure points and a :class:`FaultPlan` describing which faults to inject:

* ``worker_crash``   — a worker process dies mid-query (``os._exit``);
* ``solver_exception`` — a solve raises an :class:`InjectedFault`;
* ``delay``          — an artificial stall before solving;
* ``corrupt_cache``  — a disk-cache write is garbled before it lands;
* ``flip_unsat``     — the solver *lies*: a satisfiable query is reported
  UNSAT, the false-VERIFIED failure mode proof certification exists to
  catch (with ``--certify`` the bogus verdict is rejected to UNKNOWN;
  without it the lie is invisible — that is the demonstrated trust gap).

Decisions are **deterministic**: whether a fault fires at a given site is a
pure function of ``(seed, site, key, salt)`` — a sha256-derived fraction
compared against the class's probability.  The same plan over the same
query batch injects the same faults in every run and in every process; no
RNG state is involved.  The ``salt`` is the query's requeue count, so a
query re-dispatched after its worker died draws a fresh decision — exactly
how transient real-world faults behave — while a plain re-run reproduces
the original fault sequence bit for bit.

Plans travel across process boundaries as compact spec strings
(``"seed=7,worker_crash=0.5"``), either explicitly (the dispatcher puts the
spec in each worker payload) or ambiently via the ``PUGPARA_FAULTS``
environment variable (used by the CI fault job and CLI smoke runs).
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Iterator

from ..errors import SolverError

__all__ = [
    "FAULTS_ENV", "FaultPlan", "InjectedFault", "active", "clear",
    "corrupt_bytes", "flips_unsat", "install", "injected", "maybe_crash",
    "maybe_delay", "maybe_raise",
]

#: Environment variable holding an ambient fault-plan spec.
FAULTS_ENV = "PUGPARA_FAULTS"

#: Exit status of a deliberately crashed worker (distinctive in core dumps
#: and CI logs; any abnormal exit breaks the pool identically).
CRASH_EXIT_STATUS = 17


class InjectedFault(SolverError):
    """An artificial solver failure injected by a :class:`FaultPlan`."""


@dataclass(frozen=True)
class FaultPlan:
    """Which faults to inject, with what probability, under which seed.

    Probabilities are per *site visit*: each hook call draws its own
    deterministic decision.  ``max_triggers`` caps how many times each fault
    class may fire per process — ``max_triggers=1`` yields the classic
    "fails once, then recovers" transient.
    """
    seed: int = 0
    worker_crash: float = 0.0
    solver_exception: float = 0.0
    delay: float = 0.0
    corrupt_cache: float = 0.0
    flip_unsat: float = 0.0
    delay_seconds: float = 0.005
    max_triggers: int | None = None

    # -- deterministic decisions --------------------------------------

    def chance(self, site: str, key: str, salt: int = 0) -> float:
        """A reproducible fraction in [0, 1) for this decision point."""
        digest = hashlib.sha256(
            f"{self.seed}|{site}|{key}|{salt}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def decide(self, site: str, key: str, salt: int,
               probability: float) -> bool:
        if probability <= 0.0:
            return False
        if not self.chance(site, key, salt) < probability:
            return False
        if self.max_triggers is not None:
            count = _trigger_counts.get(site, 0)
            if count >= self.max_triggers:
                return False
            _trigger_counts[site] = count + 1
        return True

    # -- spec-string serialization ------------------------------------

    def to_spec(self) -> str:
        """Compact ``k=v`` spec (inverse of :meth:`from_spec`)."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            parts.append(f"{f.name}={value}")
        return ",".join(parts)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a spec string; unknown or malformed fields are ignored
        (a bad ``PUGPARA_FAULTS`` must never take the runtime down)."""
        known = {f.name: f for f in fields(cls)}
        values: dict[str, object] = {}
        for part in spec.split(","):
            name, _, raw = part.partition("=")
            name = name.strip()
            if name not in known or not raw:
                continue
            try:
                if name in ("seed", "max_triggers"):
                    values[name] = int(raw)
                else:
                    values[name] = float(raw)
            except ValueError:
                continue
        return cls(**values)  # type: ignore[arg-type]


# ------------------------------------------------------- the active plan

_active: FaultPlan | None = None
_trigger_counts: dict[str, int] = {}


def install(plan: FaultPlan | None) -> None:
    """Make ``plan`` the process-wide active plan (None = faults off)."""
    global _active
    _active = plan
    _trigger_counts.clear()


def clear() -> None:
    install(None)


def active() -> FaultPlan | None:
    """The installed plan, else one parsed from ``PUGPARA_FAULTS``."""
    if _active is not None:
        return _active
    spec = os.environ.get(FAULTS_ENV)
    if spec:
        return FaultPlan.from_spec(spec)
    return None


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Run a block under ``plan``; restores the previous plan on exit."""
    previous = _active
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


# ----------------------------------------------------------------- hooks


def maybe_delay(plan: FaultPlan | None, site: str, key: str,
                salt: int = 0) -> None:
    if plan is not None and plan.decide(site + ".delay", key, salt,
                                        plan.delay):
        time.sleep(plan.delay_seconds)


def maybe_raise(plan: FaultPlan | None, site: str, key: str,
                salt: int = 0) -> None:
    if plan is not None and plan.decide(site + ".exception", key, salt,
                                        plan.solver_exception):
        raise InjectedFault(
            f"injected solver exception at {site} (key {key[:12]}...)")


def maybe_crash(plan: FaultPlan | None, key: str, salt: int = 0) -> None:
    """Kill the current process abruptly (worker processes only — the
    dispatcher never calls this in the parent)."""
    if plan is not None and plan.decide("worker.crash", key, salt,
                                        plan.worker_crash):
        os._exit(CRASH_EXIT_STATUS)


def flips_unsat(plan: FaultPlan | None, key: str, salt: int = 0) -> bool:
    """Whether this solve should lie and report a satisfiable query as
    UNSAT.  The flipped answer carries no derivation of the empty clause,
    so a certified run rejects it; an uncertified run reports a false
    VERIFIED — the gap the certification tests demonstrate."""
    return plan is not None and plan.decide("solver.flip_unsat", key, salt,
                                            plan.flip_unsat)


def corrupt_bytes(plan: FaultPlan | None, key: str, data: bytes) -> bytes:
    """Garble a disk-cache payload: truncate mid-JSON and flip a byte, the
    torn-write shape a power loss produces."""
    if plan is None or not plan.decide("cache.corrupt", key, 0,
                                       plan.corrupt_cache):
        return data
    cut = max(1, len(data) * 2 // 3)
    torn = bytearray(data[:cut])
    torn[len(torn) // 2] ^= 0xFF
    return bytes(torn)
