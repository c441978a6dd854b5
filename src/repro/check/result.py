"""Verdict types shared by all checkers, and the stats every check reports.

Mirrors the paper's reporting: a confirmed counterexample (``BUG``), a proof
(``VERIFIED`` — for equivalence, "the kernels are equivalent for any number
of threads"), budget exhaustion (``TIMEOUT``, the paper's ``T.O``), or an
inconclusive analysis (``UNKNOWN`` — e.g. a candidate counterexample that
concrete replay could not confirm, keeping the paper's no-false-alarms
guarantee).

``CheckOutcome.stats`` says where a check's time went.  Every solved query
reports one record of additive numbers (``QueryResult.stats``), each under
the group of the layer that counted it: ``solver`` (the ``Solver.check``
counters and phase times, ``queries``, ``cache_hits``, ``budget_time`` and
``budget_conflicts``), ``certify`` (proof checking) and ``resilience``
(contained solver errors and worker-pool restarts).  The checkers count
their front-end work the same way under ``encode``.  :func:`add_counters` sums every record into
the outcome, and the server sums each response's ``encode`` group into
``/v1/stats`` with it.  The few values that are not sums are assigned once
where they are known: ``encode.first_verdict_s``, ``incomplete`` and the
CLI's ``cache`` and ``encode.interned`` snapshots.  Everything is a JSON
value as it stands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = ["Verdict", "Counterexample", "CheckOutcome", "add_counters",
           "format_solver_stats", "outcome_to_json"]


def add_counters(into: dict[str, Any], record: dict[str, Any]) -> None:
    """Add every number of ``record`` into ``into`` at the same path
    (groups are nested dicts; an empty group adds nothing)."""
    for key, value in record.items():
        if isinstance(value, dict):
            if value:
                add_counters(into.setdefault(key, {}), value)
        else:
            into[key] = into.get(key, 0) + value


class Verdict(Enum):
    VERIFIED = "verified"
    BUG = "bug"
    TIMEOUT = "timeout"
    UNKNOWN = "unknown"
    UNSUPPORTED = "unsupported"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class Counterexample:
    """A concrete witness of a property violation.

    All values are concrete Python ints (arrays as index->value dicts), so a
    counterexample can be replayed by the reference interpreter — every BUG
    verdict the library reports has survived that replay.
    """
    bdim: tuple[int, int, int]
    gdim: tuple[int, int]
    scalars: dict[str, int] = field(default_factory=dict)
    arrays: dict[str, dict[int, int]] = field(default_factory=dict)
    detail: str = ""

    def describe(self) -> str:
        parts = [f"bdim={self.bdim}", f"gdim={self.gdim}"]
        parts += [f"{k}={v}" for k, v in sorted(self.scalars.items())]
        for name, content in sorted(self.arrays.items()):
            cells = ", ".join(f"[{i}]={v}" for i, v in sorted(content.items())[:8])
            parts.append(f"{name}: {cells}")
        if self.detail:
            parts.append(self.detail)
        return "; ".join(parts)


@dataclass
class CheckOutcome:
    """The result of one verification query."""
    verdict: Verdict
    counterexample: Counterexample | None = None
    reason: str = ""
    elapsed: float = 0.0
    solver_time: float = 0.0
    vcs_checked: int = 0
    complete: bool = True  # False when frames were skipped (Section IV-D)
    stats: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        out = f"{self.verdict.value} ({self.elapsed:.2f}s, {self.vcs_checked} VCs)"
        if not self.complete:
            out += " [frames unverified]"
        if self.reason:
            out += f": {self.reason}"
        if self.counterexample is not None:
            out += f"\n  counterexample: {self.counterexample.describe()}"
        return out


def format_solver_stats(outcome: "CheckOutcome") -> str:
    """Human-readable rendering of the accumulated solver statistics."""
    agg = outcome.stats.get("solver")
    if not agg:
        return "solver stats: (no queries recorded)"
    lines = ["solver stats:"]
    lines.append(f"  queries      {agg.get('queries', 0)}"
                 f"  (cache hits: {agg.get('cache_hits', 0)})")
    if agg.get("budget_time") or agg.get("budget_conflicts"):
        lines.append(f"  budgets hit  time: {agg.get('budget_time', 0)}, "
                     f"conflicts: {agg.get('budget_conflicts', 0)}")
    for key in ("conflicts", "decisions", "propagations", "restarts",
                "learned", "clauses", "sat_vars"):
        if key in agg:
            lines.append(f"  {key:<12} {int(agg[key])}")
    if agg.get("learned"):
        lines.append("  glue         "
                     f"<=2: {int(agg.get('glue2', 0))}, "
                     f"3-6: {int(agg.get('glue_low', 0))}, "
                     f">6: {int(agg.get('glue_high', 0))}")
    if (agg.get("deleted") or agg.get("vivified") or agg.get("subsumed")
            or agg.get("compactions")):
        lines.append("  inprocessing "
                     f"deleted: {int(agg.get('deleted', 0))}, "
                     f"vivified: {int(agg.get('vivified', 0))} "
                     f"(-{int(agg.get('vivify_lits', 0))} lits), "
                     f"subsumed: {int(agg.get('subsumed', 0))}, "
                     f"compactions: {int(agg.get('compactions', 0))}")
    for key in ("simplify_time", "array_time", "blast_time", "sat_time",
                "time"):
        if key in agg:
            lines.append(f"  {key:<12} {agg[key]:.3f}s")
    enc = outcome.stats.get("encode")
    if enc:
        lines.append("encode:")
        if "symexec_time" in enc:
            lines.append(f"  symexec      {enc['symexec_time']:.3f}s")
        if enc.get("template_hits") or enc.get("template_misses"):
            lines.append(f"  templates    hits: {enc.get('template_hits', 0)}"
                         f", misses: {enc.get('template_misses', 0)}")
        if enc.get("queries_built"):
            lines.append(f"  vcs built    {enc['queries_built']}")
        if "first_verdict_s" in enc:
            lines.append(f"  1st verdict  {enc['first_verdict_s']:.3f}s")
        interned = enc.get("interned")
        if interned:
            lines.append(f"  interning    {interned.get('live', 0)} live "
                         f"nodes  (hits: {interned.get('hits', 0)}, "
                         f"misses: {interned.get('misses', 0)})")
    res = outcome.stats.get("resilience")
    if res:
        lines.append("resilience:")
        if res.get("errors"):
            lines.append(f"  errors       {res['errors']} (contained as "
                         "UNKNOWN)")
        if res.get("worker_restarts"):
            lines.append(f"  pool         {res['worker_restarts']} worker "
                         "restart(s)"
                         + (", degraded to serial"
                            if res.get("degraded") else ""))
    cert = outcome.stats.get("certify")
    if cert:
        lines.append("certify:")
        lines.append(f"  proofs       {cert.get('checked', 0)} checked"
                     f"  (trivial: {cert.get('trivial', 0)},"
                     f" cached: {cert.get('cached', 0)},"
                     f" rejected: {cert.get('rejected', 0)})")
        if cert.get("steps") or cert.get("verified"):
            lines.append(f"  derivations  {int(cert.get('steps', 0))} "
                         f"logged, {int(cert.get('verified', 0))} "
                         "re-derived by the checker")
        if "time" in cert:
            lines.append(f"  check time   {cert['time']:.3f}s")
    health = outcome.stats.get("cache")
    if health:
        lines.append("cache health:")
        lines.append(f"  quarantined  {health.get('quarantined', 0)} "
                     "corrupt disk entr(y/ies) set aside")
    return "\n".join(lines)


def outcome_to_json(outcome: "CheckOutcome") -> dict[str, Any]:
    """A machine-readable projection of a :class:`CheckOutcome`.

    This is the one JSON shape shared by ``pugpara ... --stats-json``, the
    ``repro.serve`` response body, and the bench harness — solver,
    resilience, and certify stat blocks ride along under ``stats``
    without anyone scraping the human ``--stats`` rendering.
    """
    cex = None
    if outcome.counterexample is not None:
        c = outcome.counterexample
        cex = {
            "bdim": list(c.bdim),
            "gdim": list(c.gdim),
            "scalars": dict(c.scalars),
            "arrays": {name: {str(i): v for i, v in content.items()}
                       for name, content in c.arrays.items()},
            "detail": c.detail,
        }
    return {
        "verdict": outcome.verdict.value,
        "reason": outcome.reason,
        "elapsed": outcome.elapsed,
        "solver_time": outcome.solver_time,
        "vcs_checked": outcome.vcs_checked,
        "complete": outcome.complete,
        "counterexample": cex,
        "stats": outcome.stats,
    }

