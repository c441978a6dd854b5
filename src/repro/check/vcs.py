"""One refutation loop for every checker.

Every check proves its verification conditions (VCs) the same way
(Sections III-IV): it asks the solver for a model of each VC's negation.
UNSAT proves the VC.  UNKNOWN is budget exhaustion, the paper's ``T.O``,
unless the solver raised: a solver error ends the check UNKNOWN.
A VC that holds costs one query.  A model is only a *candidate*: it
becomes a launch, and the check reports BUG only after that launch replays
on the concrete interpreter (the paper's "Formal Status": no false alarms).

:class:`Refutation` holds what the five checkers share: the check's start
time and budget, the accounting of every solved VC on the
:class:`~repro.check.result.CheckOutcome`, :meth:`~Refutation.prove`,
:meth:`~Refutation.refute` with its launch-bounded re-solve and replay,
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
from .result import CheckOutcome, Counterexample, Verdict, add_counters

__all__ = ["VC", "Refutation", "launch_bounds"]

_BUDGET = "budget exhausted (the paper's T.O)"


@dataclass
class VC:
    """One verification condition: the terms of its negation (the check's
    assumptions are added by :meth:`Refutation.refute`) and the checker's
    ``tag`` for turning a model of them into a counterexample."""
    terms: list[Term]
    tag: Any = None


def launch_bounds(geometry, pins: dict | None) -> list[Term]:
    """Every ``bdim``/``gdim`` axis that ``pins`` (the ``concretize``
    mapping) leaves free at most 4: 4^5 = 1024 threads, well within the
    replay budget."""
    pins = pins or {}
    free = [*list(geometry.bdim.values())[len(pins.get("bdim") or ()):],
            *list(geometry.gdim.values())[len(pins.get("gdim") or ()):]]
    return [v.ule(min(4, v.sort.mask)) for v in free]


class _Stop(Exception):
    """The check has its verdict (BUG or TIMEOUT) before its last VC."""


class Refutation:
    """The state of one check, and the loop that refutes its VCs.

    ``assumptions`` are added to every query; ``bounds`` (empty: none)
    bound the launch of a model, after the unbounded query or, with
    ``bounded_first`` (bug hunting), before it.  A bounded query lists
    the bounds first: each ``v <= 4`` is a level-0 unit as soon as it
    is blasted, so the high bits of every free launch axis are constants
    before the assumptions' geometry products are built.  The checker
    appends to ``incomplete`` each obligation it skipped.  Used as a
    context manager, the check ends with its verdict in ``outcome``: a
    body that finishes maps to VERIFIED, or UNKNOWN when a candidate did
    not replay or an obligation was skipped; an
    :class:`~repro.errors.EncodingError` or
    :class:`~repro.errors.AlignmentError` maps to UNSUPPORTED.
    """

    def __init__(self, timeout: float | None,
                 solve: SolveConfig | None) -> None:
        self.start = time.monotonic()
        self.deadline = self.start + timeout if timeout else None
        self.solve = solve if solve is not None else SolveConfig.from_env()
        self.outcome = CheckOutcome(verdict=Verdict.UNKNOWN)
        self.assumptions: list[Term] = []
        self.bounds: list[Term] = []
        self.bounded_first = False
        self.incomplete: list[str] = []
        self.unconfirmed: list[str] = []
        self._latency: dict = {}
        self._streams: list = []

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
        return Query(terms, timeout=self.budget())

    def _account(self, response, vcs: int = 1):
        """Add a solved query's stats to the outcome as it lands, so a
        check that ends early reports the work it did; ``vcs`` is 0 for a
        second query of a VC already counted."""
        self.outcome.vcs_checked += vcs
        self.outcome.solver_time += response.solver_time
        add_counters(self.outcome.stats, response.stats)
        return response

    def _stream(self, term_lists: Iterable[list[Term]]):
        """Solve lazily, in order; the first stream that yields records
        the time to the check's first verdict.  The check closes the
        stream (and its worker pool) when it ends."""
        latency = None if "first_verdict_s" in self._latency \
            else self._latency
        stream = dispatch.solve_stream(
            (self._query(terms) for terms in term_lists),
            config=self.solve, latency=latency)
        self._streams.append(stream)
        return stream

    def prove(self, premises: list[Term], obligations: list[Term]) -> bool:
        """``assumptions, premises |= /\\ obligations`` (one query)?"""
        response = dispatch.solve_query(
            self._query([*self.assumptions, *premises,
                         Not(And(*obligations))]), self.solve)
        return self._account(response).verdict is CheckResult.UNSAT

    def _terms(self, bounds: list[Term], vc: VC) -> list[Term]:
        """A VC's query, launch bounds (if any) first."""
        return [*bounds, *self.assumptions, *vc.terms]

    def _results(self, vcs: list[VC]):
        """Each VC's deciding result, in generation order, counted on the
        outcome as its VC is reached.

        Each VC's unbounded query streams first and decides it, except
        that a model whose launch is outside ``bounds`` is re-solved once
        with them: a small model replays fast, and the large one stands
        when the bounded query is not SAT.  With ``bounded_first`` (bug
        hunting, where the bounds make models cheap to find) the bounded
        query streams first, and the unbounded one is sent only when it
        is not SAT, which keeps the proof complete.

        A bounded query is ``[*bounds, *assumptions, *vc.terms]``: the
        bounds' level-0 units fold the products of free launch axes
        (``gdim.x * bdim.x`` in the assumptions) to a few rows before
        the blaster builds them.  An unbounded one keeps
        ``[*assumptions, *vc.terms]``.
        """
        hunt = self.bounded_first and bool(self.bounds)
        first, then = (self.bounds, []) if hunt else ([], self.bounds)
        for vc, response in zip(vcs, self._stream(
                self._terms(first, vc) for vc in vcs)):
            self._account(response)
            sat = response.verdict is CheckResult.SAT
            # The launch is read as extract_launch reads it: an unbound
            # dim evaluates to 0 here and replays as 1; both are inside.
            if (not sat) if hunt else sat and not all(
                    response.model().eval(b) for b in self.bounds):
                again = self._account(dispatch.solve_query(
                    self._query(self._terms(then, vc)), self.solve), vcs=0)
                if hunt or again.verdict is CheckResult.SAT:
                    response = again
            yield vc, response

    def refute(self, vcs: Iterable[VC],
               confirm: Callable[[Any, Model],
                                 tuple[Counterexample, ReplayResult]]
               ) -> None:
        """Refute each VC's negation, in order.

        A model goes through ``confirm(tag, model)``, which returns the
        counterexample it describes and its replay.  A replayed one ends
        the check as BUG (no later VC is solved); one that does not
        replay is recorded and the check goes on.  An UNKNOWN ends it as
        TIMEOUT, or as UNKNOWN when the solver raised instead.
        """
        for vc, response in self._results(list(vcs)):
            if response.verdict is CheckResult.UNSAT:
                continue
            if response.error is not None:
                self._stop(Verdict.UNKNOWN,
                           f"solver error: {response.error}")
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
        for stream in self._streams:
            stream.close()
        out = self.outcome
        handled = True
        if kind is None:
            self._finish()
        elif issubclass(kind, (AlignmentError, EncodingError)):
            out.verdict, out.reason = Verdict.UNSUPPORTED, str(exc)
        elif not issubclass(kind, _Stop):
            handled = False
        if "first_verdict_s" in self._latency:
            out.stats.setdefault("encode", {})["first_verdict_s"] = \
                self._latency["first_verdict_s"]
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
