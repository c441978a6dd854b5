"""Verdict types shared by all checkers.

Mirrors the paper's reporting: a confirmed counterexample (``BUG``), a proof
(``VERIFIED`` — for equivalence, "the kernels are equivalent for any number
of threads"), budget exhaustion (``TIMEOUT``, the paper's ``T.O``), or an
inconclusive analysis (``UNKNOWN`` — e.g. a candidate counterexample that
concrete replay could not confirm, keeping the paper's no-false-alarms
guarantee).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator

__all__ = ["Verdict", "Counterexample", "CheckOutcome", "stopwatch",
           "SOLVER_STAT_KEYS", "format_solver_stats", "jsonable_stats",
           "outcome_to_json", "record_encode_stats"]

#: The per-query ``Solver.stats`` counters the checkers accumulate into
#: ``CheckOutcome.stats["solver"]`` (printed by the CLI's ``--stats``).
SOLVER_STAT_KEYS = (
    "conflicts", "decisions", "propagations", "restarts", "learned",
    "clauses", "sat_vars",
    # CDCL inprocessing counters (glue distribution of learned clauses,
    # clause-DB maintenance, vivification, on-the-fly subsumption).
    "deleted", "glue2", "glue_low", "glue_high",
    "vivified", "vivify_lits", "subsumed", "compactions",
    "simplify_time", "array_time", "blast_time", "sat_time", "time",
)


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

    def merge_solver_stats(self, query_stats: dict[str, Any]) -> None:
        """Accumulate one query's ``Solver.stats`` (or a cached result's
        stats) into ``stats["solver"]``."""
        agg = self.stats.setdefault("solver", {})
        agg["queries"] = agg.get("queries", 0) + 1
        if query_stats.get("cache_hit"):
            agg["cache_hits"] = agg.get("cache_hits", 0) + 1
        axis = query_stats.get("budget_axis")
        if axis in ("time", "conflicts"):
            # Which budget axis actually expired on an UNKNOWN — lets
            # --stats attribute escalations to the binding limit.
            agg["budget_" + axis] = agg.get("budget_" + axis, 0) + 1
        for key in SOLVER_STAT_KEYS:
            value = query_stats.get(key)
            if isinstance(value, (int, float)):
                agg[key] = agg.get(key, 0) + value
        self._merge_resilience(query_stats.get("resilience"))
        self._merge_certify(query_stats)

    def _merge_resilience(self, res: dict[str, Any] | None) -> None:
        """Fold one query's dispatch-level resilience record (retry
        attempts, contained errors, pool events) into
        ``stats["resilience"]``."""
        if not isinstance(res, dict):
            return
        agg = self.stats.setdefault("resilience", {})
        attempts = res.get("attempts") or []
        agg["attempts"] = agg.get("attempts", 0) + len(attempts)
        if len(attempts) > 1:
            agg["retried"] = agg.get("retried", 0) + 1
        for a in attempts:
            axis = a.get("budget_axis")
            if axis in ("time", "conflicts"):
                agg["budget_" + axis] = agg.get("budget_" + axis, 0) + 1
        if res.get("recovered"):
            agg["recovered"] = agg.get("recovered", 0) + 1
        errors = sum(1 for a in attempts if a.get("error"))
        if errors:
            agg["errors"] = agg.get("errors", 0) + errors
        pool = res.get("pool")
        if isinstance(pool, dict):
            agg["worker_restarts"] = (agg.get("worker_restarts", 0)
                                      + int(pool.get("worker_restarts", 0)))
            if pool.get("degraded"):
                agg["degraded"] = True

    def _merge_certify(self, query_stats: dict[str, Any]) -> None:
        """Fold one query's proof-certification record into
        ``stats["certify"]`` (checked/rejected counts, checker spend)."""
        cert = query_stats.get("certify")
        if isinstance(cert, dict):
            agg = self.stats.setdefault("certify", {})
            for key in ("checked", "rejected", "trivial", "steps",
                        "verified"):
                value = cert.get(key)
                if isinstance(value, (int, float)):
                    agg[key] = agg.get(key, 0) + value
            if isinstance(cert.get("time"), (int, float)):
                agg["time"] = agg.get("time", 0.0) + cert["time"]
        elif query_stats.get("certified"):
            # A cache hit whose stored UNSAT entry carries the certified
            # mark: the proof was checked when the entry was written.
            agg = self.stats.setdefault("certify", {})
            agg["cached"] = agg.get("cached", 0) + 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        out = f"{self.verdict.value} ({self.elapsed:.2f}s, {self.vcs_checked} VCs)"
        if not self.complete:
            out += " [frames unverified]"
        if self.reason:
            out += f": {self.reason}"
        if self.counterexample is not None:
            out += f"\n  counterexample: {self.counterexample.describe()}"
        return out


def record_encode_stats(outcome: "CheckOutcome", *,
                        symexec_time: float | None = None,
                        template: str | None = None,
                        queries_built: int | None = None,
                        mode: str | None = None,
                        first_verdict_s: float | None = None) -> None:
    """Populate ``stats["encode"]`` — the front-end's side of the ledger.

    ``--stats`` and the serve response body have always shown where
    *solving* time went; this block finally makes the encode/solve split
    observable: symbolic-execution time, whether the VC template cache
    answered (``template`` is ``"hit"``, ``"miss"``, or ``"off"``),
    dispatch mode (``"stream"``/``"batch"``) with the time to the first
    verdict, and the interned-DAG health counters.
    """
    from ..smt.terms import intern_stats
    enc = outcome.stats.setdefault("encode", {})
    if symexec_time is not None:
        enc["symexec_time"] = enc.get("symexec_time", 0.0) + symexec_time
    if template is not None:
        enc["template"] = template
        if template == "hit":
            enc["template_hits"] = enc.get("template_hits", 0) + 1
        elif template == "miss":
            enc["template_misses"] = enc.get("template_misses", 0) + 1
    if queries_built is not None:
        enc["queries_built"] = enc.get("queries_built", 0) + queries_built
    if mode is not None:
        enc["mode"] = mode
    if first_verdict_s is not None:
        enc["first_verdict_s"] = first_verdict_s
    enc["interned"] = intern_stats()


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
            tpl = enc.get("template")
            lines.append(f"  symexec      {enc['symexec_time']:.3f}s"
                         + (f"  (template: {tpl})" if tpl else ""))
        if enc.get("template_hits") or enc.get("template_misses"):
            lines.append(f"  templates    hits: {enc.get('template_hits', 0)}"
                         f", misses: {enc.get('template_misses', 0)}")
        if enc.get("queries_built"):
            lines.append(f"  vcs built    {enc['queries_built']}")
        if "first_verdict_s" in enc:
            lines.append(f"  1st verdict  {enc['first_verdict_s']:.3f}s"
                         + (f"  ({enc['mode']})" if enc.get("mode")
                            else ""))
        interned = enc.get("interned")
        if interned:
            lines.append(f"  interning    {interned.get('live', 0)} live "
                         f"nodes  (hits: {interned.get('hits', 0)}, "
                         f"misses: {interned.get('misses', 0)})")
    res = outcome.stats.get("resilience")
    if res:
        lines.append("resilience:")
        lines.append(f"  attempts     {res.get('attempts', 0)}"
                     f"  (retried queries: {res.get('retried', 0)},"
                     f" recovered: {res.get('recovered', 0)})")
        if res.get("budget_time") or res.get("budget_conflicts"):
            lines.append("  escalations  by wall-clock: "
                         f"{res.get('budget_time', 0)}, by conflicts: "
                         f"{res.get('budget_conflicts', 0)}")
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
        if isinstance(cert.get("time"), (int, float)):
            lines.append(f"  check time   {cert['time']:.3f}s")
    health = outcome.stats.get("cache")
    if health:
        lines.append("cache health:")
        lines.append(f"  quarantined  {health.get('quarantined', 0)} "
                     "corrupt disk entr(y/ies) set aside"
                     f"  (migrated: {health.get('migrated', 0)})")
    return "\n".join(lines)


def jsonable_stats(value: Any) -> Any:
    """Recursively project a stats structure onto JSON-safe types.

    Dispatch stats occasionally carry non-JSON payloads (enum verdicts,
    tuples, exception reprs); machine-readable consumers (``--stats-json``,
    the serve protocol, the bench harness) need a lossless-enough JSON view
    — unknown scalars are stringified rather than dropped.
    """
    if isinstance(value, dict):
        return {str(k): jsonable_stats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable_stats(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return str(value)


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
        "stats": jsonable_stats(outcome.stats),
    }


@contextmanager
def stopwatch(outcome_setter) -> Iterator[None]:
    """Measure a block's wall time into ``outcome_setter(seconds)``."""
    start = time.monotonic()
    try:
        yield
    finally:
        outcome_setter(time.monotonic() - start)
