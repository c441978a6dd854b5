"""One refutation loop for every checker.

Every check proves its verification conditions (VCs) the same way
(Sections III-IV): it asks the solver for a model of each VC's negation.
UNSAT proves the VC.  UNKNOWN is budget exhaustion, the paper's ``T.O``.
A model is only a *candidate*: it becomes a launch, and the check reports
BUG only after that launch replays on the concrete interpreter (the
paper's "Formal Status": no false alarms).

:class:`Refutation` holds what the five checkers share: the check's start
time and budget, the accounting of every solved VC on the
:class:`~repro.check.result.CheckOutcome`, :meth:`~Refutation.prove`,
:meth:`~Refutation.refute` with its launch-bounded first round and replay,
and the one mapping to a verdict.  A checker builds its VCs and a
``confirm(tag, model) -> (Counterexample, ReplayResult)`` function, and
runs its body inside ``with Refutation(...) as check:``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..errors import AlignmentError, EncodingError
from ..smt import (
    And, CheckResult, Model, Not, Query, SolveConfig, Term, dispatch,
)
from .replay import ReplayResult
from .result import CheckOutcome, Counterexample, Verdict, record_encode_stats

__all__ = ["VC", "Refutation", "launch_bounds"]

_BUDGET = "budget exhausted (the paper's T.O)"


@dataclass
class VC:
    """One verification condition: the terms of its negation (the check's
    assumptions are added by :meth:`Refutation.refute`) and the checker's
    ``tag`` for turning a model of them into a counterexample."""
    terms: list[Term]
    tag: Any = None


def launch_bounds(geometry) -> list[Term]:
    """Every ``bdim``/``gdim`` axis at most 4: 4^5 = 1024 threads, well
    within the replay budget."""
    small = min(4, geometry.bdim["x"].sort.mask)
    return [v.ule(small) for v in (*geometry.bdim.values(),
                                   *geometry.gdim.values())]


class _Stop(Exception):
    """The check has its verdict (BUG or TIMEOUT) before its last VC."""


class Refutation:
    """The state of one check, and the loop that refutes its VCs.

    ``assumptions`` are added to every query; ``bounds`` (empty: none)
    make the first, launch-bounded round of :meth:`refute`.  The checker
    appends to ``incomplete`` each obligation it skipped.  Used as a
    context manager, the check ends with its verdict in ``outcome``: a
    body that finishes maps to VERIFIED, or UNKNOWN when a candidate did
    not replay or an obligation was skipped; an
    :class:`~repro.errors.EncodingError` or
    :class:`~repro.errors.AlignmentError` maps to UNSUPPORTED.
    """

    def __init__(self, timeout: float | None, solve: SolveConfig | None,
                 *, simplify: bool = True) -> None:
        self.start = time.monotonic()
        self.deadline = self.start + timeout if timeout else None
        self.solve = solve if solve is not None else SolveConfig.from_env()
        self.simplify = simplify
        self.outcome = CheckOutcome(verdict=Verdict.UNKNOWN)
        self.assumptions: list[Term] = []
        self.bounds: list[Term] = []
        self.incomplete: list[str] = []
        self.unconfirmed: list[str] = []
        self._latency: dict = {}

    # ------------------------------------------------------------ budget

    def budget(self) -> float | None:
        """Seconds left before the deadline (at least 0.01), or None."""
        if self.deadline is None:
            return None
        return max(self.deadline - time.monotonic(), 0.01)

    def stop_if_expired(self) -> None:
        """End the check as TIMEOUT once its deadline has passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            self._stop(Verdict.TIMEOUT, _BUDGET)

    def _stop(self, verdict: Verdict, reason: str = "") -> None:
        self.outcome.verdict = verdict
        self.outcome.reason = reason
        raise _Stop()

    # ----------------------------------------------------------- solving

    def _query(self, terms: list[Term]) -> Query:
        return Query(terms, timeout=self.budget(), do_simplify=self.simplify)

    def _account(self, response):
        """Count a solved VC as it lands, so a check that ends early
        reports the work it did."""
        self.outcome.vcs_checked += 1
        self.outcome.solver_time += response.solver_time
        self.outcome.merge_solver_stats(response.stats)
        return response

    def _stream(self, term_lists: Iterable[list[Term]]):
        """Solve lazily, in order; the first stream that yields records
        the time to the check's first verdict."""
        latency = None if "first_verdict_s" in self._latency \
            else self._latency
        return dispatch.solve_stream(
            (self._query(terms) for terms in term_lists),
            config=self.solve, latency=latency)

    def prove(self, premises: list[Term], obligations: list[Term]) -> bool:
        """``assumptions, premises |= /\\ obligations`` (one query)?"""
        response = dispatch.solve_query(
            self._query([*self.assumptions, *premises,
                         Not(And(*obligations))]), self.solve)
        return self._account(response).verdict is CheckResult.UNSAT

    def _results(self, vcs: list[VC]):
        """Each VC's deciding result, in generation order, counted on the
        outcome as its VC is reached.

        With ``bounds``, a VC's bounded query comes first and its
        unbounded query is sent only when the bounded one is not SAT: a
        small model replays fast, and the unbounded query keeps the proof
        complete.  The bounded stream runs ahead up to its first SAT; the
        unbounded queries of the VCs before it follow as one stream.
        """
        first = zip(vcs, self._stream(
            [*self.assumptions, *vc.terms, *self.bounds] for vc in vcs))
        if not self.bounds:
            for vc, response in first:
                yield vc, self._account(response)
            return
        while True:
            open_vcs, hit = [], None
            for vc, response in first:
                if response.verdict is CheckResult.SAT:
                    hit = vc, response
                    break
                open_vcs.append((vc, response))
            if open_vcs:
                full = self._stream([*self.assumptions, *vc.terms]
                                    for vc, _ in open_vcs)
                for (vc, bounded), response in zip(open_vcs, full):
                    self._account(bounded)
                    yield vc, self._account(response)
            if hit is None:
                return
            yield hit[0], self._account(hit[1])

    def refute(self, vcs: Iterable[VC],
               confirm: Callable[[Any, Model],
                                 tuple[Counterexample, ReplayResult]]
               ) -> None:
        """Refute each VC's negation, in order.

        A model goes through ``confirm(tag, model)``, which returns the
        counterexample it describes and its replay.  A replayed one ends
        the check as BUG (no later VC is solved); one that does not
        replay is recorded and the check goes on.  An UNKNOWN ends it as
        TIMEOUT.
        """
        for vc, response in self._results(list(vcs)):
            if response.verdict is CheckResult.UNSAT:
                continue
            if response.verdict is CheckResult.UNKNOWN:
                self._stop(Verdict.TIMEOUT, _BUDGET)
            cex, replay = confirm(vc.tag, response.model())
            if replay.confirmed:
                cex.detail = f"{cex.detail}; {replay.reason}"
                self.outcome.counterexample = cex
                self._stop(Verdict.BUG)
            self.unconfirmed.append(f"{cex.detail}: candidate did not "
                                    f"replay ({replay.reason})")

    # ----------------------------------------------------------- verdict

    def __enter__(self) -> "Refutation":
        return self

    def __exit__(self, kind, exc, tb) -> bool:
        out = self.outcome
        handled = True
        if kind is None:
            self._finish()
        elif issubclass(kind, (AlignmentError, EncodingError)):
            out.verdict, out.reason = Verdict.UNSUPPORTED, str(exc)
        elif not issubclass(kind, _Stop):
            handled = False
        if "first_verdict_s" in self._latency:
            record_encode_stats(
                out, first_verdict_s=self._latency["first_verdict_s"])
        out.elapsed = time.monotonic() - self.start
        return handled

    def _finish(self) -> None:
        """Every VC was refuted or recorded: map what was left open."""
        out = self.outcome
        out.complete = not self.incomplete
        if self.incomplete:
            out.stats["incomplete"] = list(self.incomplete)
        if self.unconfirmed:
            out.verdict = Verdict.UNKNOWN
            out.reason = "; ".join(self.unconfirmed[:3])
        elif self.incomplete:
            # No bug found, but the skipped obligations may hide one: an
            # under-approximate run never claims VERIFIED.
            skipped = list(dict.fromkeys(self.incomplete))
            out.verdict = Verdict.UNKNOWN
            out.reason = ("no bug found; obligations skipped: "
                          + "; ".join(skipped[:3]))
        else:
            out.verdict = Verdict.VERIFIED
