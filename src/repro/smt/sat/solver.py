"""CDCL SAT solver on a flat clause arena, with lightweight inprocessing.

Literal encoding: variable ``v`` (0-based) has positive literal ``2*v`` and
negative literal ``2*v + 1``; ``lit ^ 1`` negates.  Assignment convention:
``assigns[v]`` stores the sign bit of the literal of ``v`` that is *true*
(``0`` when ``v`` is true, ``1`` when ``v`` is false, ``2`` when unassigned),
so literal ``lit`` is true iff ``assigns[lit >> 1] == (lit & 1)``.

Clause storage is a single flat Python list (the **arena**): a clause at
offset ``c`` occupies ``[size, lbd, lit_0, ..., lit_{size-1}]``, with
``lbd == 0`` marking an original (never reducible) clause, ``lbd >= 1`` a
learned clause's glue, and ``lbd == -1`` a tombstone awaiting compaction.
Watcher lists are flat paired lists ``[offset, blocker, offset, blocker,
...]`` per literal, and reasons are arena offsets (``-1`` = decision/unit).
Compared to per-clause list objects this keeps the propagation loop on
int reads from a handful of long lists — no small-object churn, no
attribute chasing — which is the difference between interpreting pointers
and streaming cache lines, as close as pure Python gets to it.

The solver maintains three inprocessing mechanisms on top of CDCL:

* **LBD (glue) tracking** — every learned clause records the number of
  distinct decision levels among its literals; clause-DB reduction is
  glue-aware (binaries and ``lbd <= 3`` clauses are immortal, the rest are
  ranked by glue then recency and the worst half dropped).
* **Periodic vivification** — at level 0, every few thousand conflicts, a
  budgeted batch of learned clauses is re-derived by assuming the negation
  of their literals one at a time and propagating; conflicts and implied
  literals shorten or delete the clause.
* **On-the-fly subsumption** — a freshly learned clause that is a subset
  of a recent learned clause replaces it.

Deleted clauses become tombstones; once tombstones exceed a third of the
arena it is compacted in place (offsets in watches/reasons remapped).
All inprocessing is always on, budgeted, runs only at decision level 0,
and derives only clauses implied by the database.

Each instance answers one query: :meth:`SATSolver.solve` decides the
clauses loaded into it.  Time and conflict budgets return ``UNKNOWN`` and
record which axis was binding in ``stats["budget_axis"]``; the checkers
report that as the paper's ``T.O``.

The branching heuristics are fixed: VSIDS with activity decay
``_VAR_DECAY``, Luby restarts scaled by ``_RESTART_BASE`` conflicts, and
phase saving that starts every fresh variable at polarity
``_DEFAULT_PHASE`` (decide False first, as MiniSat does).
"""

from __future__ import annotations

import time
from enum import Enum
from heapq import heapify, heappush, heappop
from typing import Iterable, Iterator, Sequence

from .luby import luby
from .proof import ProofLog
from ...errors import SolverError

__all__ = ["SATSolver", "SATResult", "STAT_COUNTER_KEYS"]

#: Monotone per-solve counters in ``SATSolver.stats`` — the keys the facade
#: copies into query stats, and that :mod:`repro.check.result` aggregates
#: into ``stats["solver"]``.
STAT_COUNTER_KEYS = (
    "conflicts", "decisions", "propagations", "restarts", "learned",
    "deleted", "glue2", "glue_low", "glue_high",
    "vivified", "vivify_lits", "subsumed", "compactions",
)

#: VSIDS activity decay: activities are *divided* by this per conflict.
_VAR_DECAY = 0.95

#: Conflicts in the first restart; restart ``i`` gets ``luby(i)`` times it.
_RESTART_BASE = 100

#: Initial saved polarity of fresh variables (``1`` decides False first).
_DEFAULT_PHASE = 1


class SATResult(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


_UNASSIGNED = 2

#: ``arena[off + 1]`` value marking a tombstoned clause.
_DEAD = -1

#: Learned clauses at or below this glue are never reduced.
_GLUE_KEEP = 3

#: Conflicts between vivification rounds, and its per-round budgets.
_VIVIFY_PERIOD = 4000
_VIVIFY_CLAUSES = 64
_VIVIFY_PROPS = 30_000

#: How many recent learned clauses an on-the-fly subsumption check scans.
_SUBSUME_WINDOW = 2


class _ClauseView:
    """Read-only view of the live *original* clauses (``sat.clauses``).

    Supports ``len`` (used by the stats plumbing) and iteration (used by
    tests); the underlying storage is the arena.
    """

    __slots__ = ("_sat",)

    def __init__(self, sat: "SATSolver") -> None:
        self._sat = sat

    def __len__(self) -> int:
        return self._sat.n_orig

    def __iter__(self) -> Iterator[list[int]]:
        arena = self._sat.arena
        off = 0
        end = len(arena)
        while off < end:
            size = arena[off]
            if arena[off + 1] == 0:
                yield arena[off + 2: off + 2 + size]
            off += size + 2


class SATSolver:
    """A conflict-driven clause-learning solver.

    Usage::

        s = SATSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([2 * a, 2 * b])          # a | b
        s.add_clause([2 * a + 1, 2 * b + 1])  # !a | !b
        assert s.solve() is SATResult.SAT
    """

    def __init__(self) -> None:
        self.num_vars = 0
        # Per-variable state.
        self.assigns: list[int] = []
        self.levels: list[int] = []
        self.reasons: list[int] = []  # arena offsets; -1 = decision/unit
        self.activity: list[float] = []
        self.phase: list[int] = []  # saved sign bit for the next decision
        # Per-literal flat watcher lists: [offset, blocker, offset, ...].
        self.watches: list[list[int]] = []
        # Clause arena: [size, lbd, lits...] back to back.
        self.arena: list[int] = []
        self.learnt_offs: list[int] = []
        self.n_orig = 0
        self._wasted = 0  # arena slots held by tombstones
        # Trail.
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        # Heuristic state (VSIDS with a lazy heap).
        self.var_inc = 1.0
        self.var_decay = 1.0 / _VAR_DECAY
        self.order_heap: list[tuple[float, int]] = []
        self.ok = True
        self._pending_prop = False
        self._next_vivify = _VIVIFY_PERIOD
        self._vivify_cursor = 0
        #: DRAT-style proof log (None until :meth:`attach_proof`).  When
        #: ``_proof_adopt`` is set the axioms were logged upstream (e.g. by
        #: the preprocessor's owner) and the clause loaders must not log
        #: them again; derived additions and deletions always log.
        self.proof: ProofLog | None = None
        self._proof_adopt = False
        self.stats: dict[str, object] = {k: 0 for k in STAT_COUNTER_KEYS}

    def attach_proof(self, log: ProofLog, adopt: bool = False) -> None:
        """Log this solver's DRAT-style proof into ``log`` — the one way to
        certify: every clause received is recorded as an axiom, every
        learned/vivified clause as an addition, every reduction/subsumption
        kill as a deletion, and logging never changes the search.  With
        ``adopt`` the caller has already recorded the input clauses as
        axioms (the preprocess path), so the loaders skip axiom logging;
        derived clause additions and deletions are recorded either way.
        Call before adding clauses."""
        self.proof = log
        self._proof_adopt = adopt

    # ------------------------------------------------------------------ setup

    @property
    def clauses(self) -> _ClauseView:
        """Live original clauses (a sized, iterable arena view)."""
        return _ClauseView(self)

    def new_var(self) -> int:
        v = self.num_vars
        self.num_vars += 1
        self.assigns.append(_UNASSIGNED)
        self.levels.append(0)
        self.reasons.append(-1)
        self.activity.append(0.0)
        self.phase.append(_DEFAULT_PHASE)
        self.watches.append([])
        self.watches.append([])
        # A heap-valid append: see new_vars.
        self.order_heap.append((0.0, v))
        return v

    def new_vars(self, n: int) -> int:
        """Allocate ``n`` fresh variables at once; returns the first index.
        Equivalent to ``n`` :meth:`new_var` calls, minus the per-call
        bookkeeping — the bulk loaders use this."""
        if n <= 0:
            return self.num_vars
        first = self.num_vars
        self.num_vars += n
        self.assigns += [_UNASSIGNED] * n
        self.levels += [0] * n
        self.reasons += [-1] * n
        self.activity += [0.0] * n
        self.phase += [_DEFAULT_PHASE] * n
        self.watches += [[] for _ in range(2 * n)]
        # Appending preserves the heap invariant without a heapify: every
        # existing key is ``(-activity, var)`` with activity >= 0 and var <
        # first, so the new ``(0.0, v)`` entries (increasing v) compare >=
        # any possible parent.
        self.order_heap += [(0.0, v) for v in range(first, first + n)]
        return first

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause at decision level 0.  Returns ``False`` when the
        instance became trivially unsatisfiable."""
        if not self.ok:
            return False
        if self.trail_lim:
            raise SolverError("clauses may only be added at decision level 0")
        if self.proof is not None and not self._proof_adopt:
            lits = list(lits)
            self.proof.axioms.append(tuple(lits))
        assigns = self.assigns
        nv2 = 2 * self.num_vars
        out: list[int] = []
        for lit in lits:
            if not 0 <= lit < nv2:
                raise SolverError(
                    f"literal {lit} references an undeclared variable")
            v = assigns[lit >> 1]
            if v < 2:
                if v == (lit & 1):
                    return True  # already satisfied at level 0
                continue  # already false at level 0: drop the literal
            out.append(lit)
        ok = self._add_clause_clean(out)
        if self._pending_prop:
            return self._flush_units() and ok
        return ok

    def add_clauses(self, clause_iter: Iterable[Iterable[int]]) -> bool:
        """Bulk clause loading (the preprocess path).

        Semantically a loop of :meth:`add_clause` minus the per-literal
        range validation — callers feed machine-generated clauses whose
        literals come from this solver's own variable counter.  Unit
        propagation is deferred to the end of the batch (one propagation
        pass instead of one per derived unit); assignments are still
        visible immediately, so in-batch stripping stays sound.
        """
        if self.trail_lim:
            raise SolverError("clauses may only be added at decision level 0")
        assigns = self.assigns
        arena = self.arena
        watches = self.watches
        clean = self._add_clause_clean
        plog = self.proof if self.proof is not None and \
            not self._proof_adopt else None
        for lits in clause_iter:
            if not self.ok:
                return False
            if plog is not None:
                lits = list(lits)
                plog.axioms.append(tuple(lits))
            out: list[int] | None = []
            for lit in lits:
                v = assigns[lit >> 1]
                if v >= 2:
                    out.append(lit)
                elif v == (lit & 1):
                    out = None  # satisfied at level 0
                    break
            if out is None:
                continue
            n = len(out)
            if n < 2:
                clean(out)
                continue
            a = out[0]
            b = out[1]
            if n == 2:
                if a == b or a ^ 1 == b:
                    clean(out)  # duplicate-literal unit / tautology
                    continue
            else:
                s = set(out)
                fast = len(s) == n
                if fast:
                    for lit in out:
                        if lit ^ 1 in s:
                            fast = False
                            break
                if not fast:
                    clean(out)  # slow path: dedup / tautology
                    continue
            off = len(arena)
            arena.append(n)
            arena.append(0)
            arena += out
            w = watches[a ^ 1]
            w.append(off)
            w.append(b)
            w = watches[b ^ 1]
            w.append(off)
            w.append(a)
            self.n_orig += 1
        if self._pending_prop:
            self._flush_units()
        return self.ok

    def add_gate(self, clauses: list[list[int]],
                 inputs: Sequence[int]) -> bool:
        """Load the defining clauses of a freshly allocated gate.

        Every clause is the gate's output literal first, then signed
        inputs from ``inputs``, each variable at most once.  The checks
        :meth:`add_clause` makes per clause are made here once per gate:
        when the solver is ``ok`` at level 0 and the output and every
        input are declared, unassigned and on pairwise distinct
        variables, every clause is already in stored form and is
        appended to the arena with its two watcher writes.  Otherwise
        the clauses go through :meth:`add_clause` one by one.  Either
        way the arena, watches, trail, proof axioms and ``ok`` come out
        the same."""
        assigns = self.assigns
        nv2 = 2 * self.num_vars
        fast = self.ok and not self.trail_lim
        seen: set[int] = set()
        if fast:
            for lit in (clauses[0][0], *inputs):
                if not 0 <= lit < nv2 or assigns[lit >> 1] != _UNASSIGNED:
                    fast = False
                    break
                seen.add(lit >> 1)
        if not fast or len(seen) != len(inputs) + 1:
            for lits in clauses:
                self.add_clause(lits)
            return self.ok
        arena = self.arena
        watches = self.watches
        axioms = self.proof.axioms if self.proof is not None and \
            not self._proof_adopt else None
        for out in clauses:
            if axioms is not None:
                axioms.append(tuple(out))
            off = len(arena)
            a = out[0]
            b = out[1]
            arena.append(len(out))
            arena.append(0)
            arena += out
            w = watches[a ^ 1]
            w.append(off)
            w.append(b)
            w = watches[b ^ 1]
            w.append(off)
            w.append(a)
        self.n_orig += len(clauses)
        return True

    def _flush_units(self) -> bool:
        """Propagate units enqueued by the clause loaders; clears ``ok``
        on a level-0 conflict."""
        self._pending_prop = False
        if self._propagate() is not None:
            self.ok = False
            return False
        return True

    def _add_clause_clean(self, out: list[int]) -> bool:
        """Finish adding a clause whose level-0-assigned literals are
        already stripped: dedup, tautology check, store + watch.
        Derived units are enqueued but not propagated — callers flush via
        :meth:`_flush_units` (assignments are visible immediately either
        way)."""
        n = len(out)
        if n == 0:
            self.ok = False
            return False
        if n == 1:
            self._enqueue(out[0], -1)
            self._pending_prop = True
            return True
        if n == 2:
            a, b = out
            if a == b:
                return self._add_clause_clean([a])
            if a ^ b == 1:
                return True  # tautology
        else:
            seen = set(out)
            if len(seen) != n:
                dedup: list[int] = []
                drop = set()
                for lit in out:
                    if lit not in drop:
                        drop.add(lit)
                        dedup.append(lit)
                out = dedup
                n = len(out)
                if n == 1:
                    return self._add_clause_clean(out)
            for lit in out:
                if lit ^ 1 in seen:
                    return True  # tautology
        arena = self.arena
        off = len(arena)
        arena.append(n)
        arena.append(0)
        arena += out
        w0 = self.watches[out[0] ^ 1]
        w0.append(off)
        w0.append(out[1])
        w1 = self.watches[out[1] ^ 1]
        w1.append(off)
        w1.append(out[0])
        self.n_orig += 1
        return True

    def _add_learnt(self, lits: list[int], lbd: int) -> int:
        """Append a learned clause (size >= 2) to the arena and watch it."""
        arena = self.arena
        off = len(arena)
        arena.append(len(lits))
        arena.append(lbd if lbd > 0 else 1)
        arena += lits
        w0 = self.watches[lits[0] ^ 1]
        w0.append(off)
        w0.append(lits[1])
        w1 = self.watches[lits[1] ^ 1]
        w1.append(off)
        w1.append(lits[0])
        self.learnt_offs.append(off)
        return off

    # ------------------------------------------------------------- assignment

    def _value(self, lit: int) -> int:
        """0 = true, 1 = false, >= 2 = unassigned."""
        v = self.assigns[lit >> 1]
        return v if v >= 2 else v ^ (lit & 1)

    def root_value(self, lit: int) -> int:
        """0 / 1 when ``lit`` is forced at decision level 0, else 2.

        Root facts are permanent (never unwound by backtracking), so the
        bit-blaster may treat such literals as constants when building
        circuits."""
        var = lit >> 1
        v = self.assigns[var]
        if v >= 2 or self.levels[var] != 0:
            return 2
        return v ^ (lit & 1)

    def _enqueue(self, lit: int, reason: int) -> None:
        var = lit >> 1
        assert self.assigns[var] == _UNASSIGNED
        self.assigns[var] = lit & 1
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = reason
        self.trail.append(lit)

    # ------------------------------------------------------------ propagation

    def _propagate(self) -> int | None:
        """Two-watched-literal unit propagation over the arena; returns the
        offset of a conflicting clause or ``None``.

        Watcher entries are (offset, blocker) pairs; the blocker — the
        other watched literal at the time the watch was placed — lets most
        satisfied clauses be skipped without touching the arena at all.
        """
        assigns = self.assigns
        watches = self.watches
        arena = self.arena
        trail = self.trail
        levels = self.levels
        reasons = self.reasons
        level = len(self.trail_lim)
        props = 0
        qhead = self.qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            false_lit = lit ^ 1
            ws = watches[lit]
            if not ws:
                continue
            i = j = 0
            n = len(ws)
            while i < n:
                blocker = ws[i + 1]
                b = assigns[blocker >> 1]
                if b < 2 and b == (blocker & 1):
                    ws[j] = ws[i]
                    ws[j + 1] = blocker
                    i += 2
                    j += 2
                    continue
                off = ws[i]
                i += 2
                base = off + 2
                first = arena[base]
                if first == false_lit:
                    first = arena[base + 1]
                    arena[base] = first
                    arena[base + 1] = false_lit
                if first != blocker:
                    b = assigns[first >> 1]
                    if b < 2 and b == (first & 1):
                        ws[j] = off
                        ws[j + 1] = first
                        j += 2
                        continue
                found = False
                for k in range(base + 2, base + arena[off]):
                    lk = arena[k]
                    vk = assigns[lk >> 1]
                    if vk >= 2 or vk == (lk & 1):
                        arena[base + 1] = lk
                        arena[k] = false_lit
                        wl = watches[lk ^ 1]
                        wl.append(off)
                        wl.append(first)
                        found = True
                        break
                if found:
                    continue
                ws[j] = off
                ws[j + 1] = first
                j += 2
                if b < 2:
                    # ``first`` is false: the whole clause is falsified.
                    while i < n:
                        ws[j] = ws[i]
                        ws[j + 1] = ws[i + 1]
                        i += 2
                        j += 2
                    del ws[j:]
                    self.qhead = qhead
                    self.stats["propagations"] += props
                    return off
                # Unit clause: imply ``first`` (inlined _enqueue).
                var = first >> 1
                assigns[var] = first & 1
                levels[var] = level
                reasons[var] = off
                trail.append(first)
                props += 1
            del ws[j:]
        self.qhead = qhead
        self.stats["propagations"] += props
        return None

    # --------------------------------------------------------------- analysis

    def _bump_var(self, var: int) -> None:
        act = self.activity[var] + self.var_inc
        self.activity[var] = act
        if act > 1e100:
            self.activity = [a * 1e-100 for a in self.activity]
            self.var_inc *= 1e-100
            self.order_heap = [(-self.activity[v], v)
                               for _, v in self.order_heap]
            heapify(self.order_heap)
        heappush(self.order_heap, (-self.activity[var], var))

    def _analyze(self, confl: int) -> tuple[list[int], int, int]:
        """First-UIP conflict analysis.

        Returns ``(learned, backtrack_level, lbd)`` where ``learned[0]`` is
        the asserting literal and (for clauses of size > 1) ``learned[1]``
        has the highest level among the remaining literals, as the watch
        scheme requires.  ``lbd`` is the glue — the number of distinct
        decision levels among the learned literals.
        """
        arena = self.arena
        levels = self.levels
        learned: list[int] = [0]
        seen = bytearray(self.num_vars)
        counter = 0
        lit = -1
        index = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        off = confl
        while True:
            assert off >= 0, "missing reason during conflict analysis"
            base = off + 2
            for k in range(base if lit == -1 else base + 1,
                           base + arena[off]):
                q = arena[k]
                var = q >> 1
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    self._bump_var(var)
                    if levels[var] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[self.trail[index] >> 1]:
                index -= 1
            lit = self.trail[index]
            index -= 1
            var = lit >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                learned[0] = lit ^ 1
                break
            off = self.reasons[var]
        # Local clause minimization: a literal is redundant when its reason's
        # other literals are all already in the learned clause (seen) or at
        # level 0.
        minimized = [learned[0]]
        for q in learned[1:]:
            roff = self.reasons[q >> 1]
            if roff < 0:
                minimized.append(q)
                continue
            qv = q >> 1
            for k in range(roff + 2, roff + 2 + arena[roff]):
                r = arena[k]
                rv = r >> 1
                if rv != qv and not seen[rv] and levels[rv] > 0:
                    minimized.append(q)
                    break
        learned = minimized
        if len(learned) == 1:
            return learned, 0, 1
        max_i = 1
        for i in range(2, len(learned)):
            if levels[learned[i] >> 1] > levels[learned[max_i] >> 1]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        lbd = len({levels[q >> 1] for q in learned})
        return learned, levels[learned[1] >> 1], lbd

    def _backtrack(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        bound = self.trail_lim[level]
        for lit in reversed(self.trail[bound:]):
            var = lit >> 1
            self.phase[var] = lit & 1
            self.assigns[var] = _UNASSIGNED
            self.reasons[var] = -1
            heappush(self.order_heap, (-self.activity[var], var))
        del self.trail[bound:]
        del self.trail_lim[level:]
        self.qhead = len(self.trail)

    # ---------------------------------------------------------------- descent

    def _pick_branch_var(self) -> int | None:
        heap = self.order_heap
        activity = self.activity
        assigns = self.assigns
        while heap:
            act, var = heappop(heap)
            if assigns[var] == _UNASSIGNED and -act == activity[var]:
                return var
        for var in range(self.num_vars):  # heap exhausted by stale entries
            if assigns[var] == _UNASSIGNED:
                heappush(heap, (-activity[var], var))
                return var
        return None

    # --------------------------------------------------- clause-DB management

    def _locked(self, off: int) -> bool:
        """Is the clause at ``off`` the reason of its implied literal?
        (The implied literal of a reason clause is always at position 0.)"""
        return self.reasons[self.arena[off + 2] >> 1] == off

    def _kill_clause(self, off: int) -> None:
        """Tombstone a clause and eagerly drop its two watcher entries."""
        arena = self.arena
        size = arena[off]
        base = off + 2
        if self.proof is not None:
            self.proof.delete(tuple(arena[base: base + size]))
        for wl in (self.watches[arena[base] ^ 1],
                   self.watches[arena[base + 1] ^ 1]):
            for i in range(0, len(wl), 2):
                if wl[i] == off:
                    wl[i] = wl[-2]
                    wl[i + 1] = wl[-1]
                    del wl[-2:]
                    break
        arena[off + 1] = _DEAD
        self._wasted += size + 2

    def _reduce_db(self) -> None:
        """Glue-aware learned-clause reduction (called at level 0).

        Binary clauses, clauses with ``lbd <= _GLUE_KEEP`` and reasons of
        current (root) assignments are immortal; the remaining learned
        clauses are ranked by glue, ties broken towards keeping recent
        clauses, and the worse half is tombstoned.
        """
        arena = self.arena
        live: list[int] = []
        candidates: list[tuple[int, int, int]] = []  # (lbd, -recency, off)
        for recency, off in enumerate(self.learnt_offs):
            lbd = arena[off + 1]
            if lbd == _DEAD:
                continue
            live.append(off)
            if arena[off] > 2 and lbd > _GLUE_KEEP and not self._locked(off):
                candidates.append((lbd, -recency, off))
        candidates.sort()
        doomed = candidates[len(candidates) // 2:]
        for _, _, off in doomed:
            self._kill_clause(off)
        self.learnt_offs = [off for off in live
                            if arena[off + 1] != _DEAD]
        self.stats["deleted"] += len(doomed)
        if self._wasted * 3 > len(arena):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the arena without tombstones, remapping every offset
        held by watcher lists, reasons and the learned-clause index.
        Runs only at decision level 0."""
        arena = self.arena
        new_arena: list[int] = []
        remap: dict[int, int] = {}
        off = 0
        end = len(arena)
        while off < end:
            size = arena[off]
            lbd = arena[off + 1]
            if lbd != _DEAD:
                remap[off] = len(new_arena)
                new_arena += arena[off: off + 2 + size]
            off += size + 2
        self.arena = new_arena
        self._wasted = 0
        for lit in range(2 * self.num_vars):
            wl = self.watches[lit]
            for i in range(0, len(wl), 2):
                wl[i] = remap[wl[i]]
        reasons = self.reasons
        for var in range(self.num_vars):
            r = reasons[var]
            if r >= 0:
                # Root-level reasons may refer to since-killed clauses;
                # they are never dereferenced (analysis skips level 0).
                reasons[var] = remap.get(r, -1)
        # Tombstoned clauses may still be listed (subsumption and
        # vivification kill in place); they simply drop out here.
        self.learnt_offs = [remap[o] for o in self.learnt_offs
                            if o in remap]
        self.stats["compactions"] += 1

    def _subsume_on_the_fly(self, lits: list[int], new_off: int) -> None:
        """Let a fresh learned clause subsume recent learned clauses.

        Scans a short window of the most recently learned clauses; any
        strict superset of the new clause is tombstoned.  Bounded work per
        conflict, but catches the common pattern of successive conflicts
        re-deriving tighter cores of the same clause.
        """
        arena = self.arena
        lset = set(lits)
        n = len(lits)
        for off in self.learnt_offs[-1 - _SUBSUME_WINDOW:-1]:
            lbd = arena[off + 1]
            if lbd == _DEAD or off == new_off:
                continue
            size = arena[off]
            if size <= n or self._locked(off):
                continue
            base = off + 2
            if lset.issubset(arena[base: base + size]):
                self._kill_clause(off)
                self.stats["subsumed"] += 1

    # ----------------------------------------------------------- vivification

    def _vivify_round(self, deadline: float | None) -> str:
        """One budgeted vivification pass over learned clauses at level 0.

        For each selected clause the negations of its literals are assumed
        one at a time with propagation in between; implied/falsified
        literals shorten the clause, a conflict or implied literal replaces
        it by the derived prefix.  Returns ``"ok"`` or ``"deadline"`` (the
        deadline is polled between clauses); may set ``self.ok = False``
        when a clause reduces to the empty clause (the instance is UNSAT at
        level 0).
        """
        arena = self.arena
        offs = [o for o in self.learnt_offs
                if arena[o + 1] != _DEAD and arena[o] >= 3
                and not self._locked(o)]
        if not offs:
            return "ok"
        start = self._vivify_cursor % len(offs)
        props_before = self.stats["propagations"]
        examined = 0
        for idx in range(start, start + len(offs)):
            if examined >= _VIVIFY_CLAUSES or \
                    self.stats["propagations"] - props_before > _VIVIFY_PROPS:
                break
            if deadline is not None and time.monotonic() > deadline:
                self._backtrack(0)
                return "deadline"
            off = offs[idx % len(offs)]
            examined += 1
            if arena[off + 1] == _DEAD or self._locked(off):
                continue
            if not self._vivify_clause(off):
                self._backtrack(0)
                return "ok"  # instance went UNSAT at level 0
        self._vivify_cursor = (start + examined) % max(1, len(offs))
        self._backtrack(0)
        return "ok"

    def _vivify_clause(self, off: int) -> bool:
        """Vivify one clause; returns ``False`` when the instance became
        UNSAT (``self.ok`` cleared)."""
        arena = self.arena
        size = arena[off]
        lits = arena[off + 2: off + 2 + size]
        kept: list[int] = []
        outcome: tuple | None = None
        for li in lits:
            v = self._value(li)
            if v == 0:
                if not self.trail_lim:
                    outcome = ("delete",)  # satisfied at root
                else:
                    outcome = ("replace", kept + [li])  # implied disjunction
                break
            if v == 1:
                continue  # falsified under the assumed prefix: resolve away
            kept.append(li)
            self.trail_lim.append(len(self.trail))
            self._enqueue(li ^ 1, -1)
            if self._propagate() is not None:
                outcome = ("replace", kept)  # prefix already contradictory
                break
        self._backtrack(0)
        if outcome is None:
            if len(kept) == size:
                return True  # nothing learned
            outcome = ("replace", kept)
        if outcome[0] == "delete":
            self._kill_clause(off)
            self.stats["vivified"] += 1
            return True
        new_lits = outcome[1]
        if len(new_lits) >= size:
            return True
        old_lbd = arena[off + 1]
        if self.proof is not None:
            # The shortened clause may have been derived *through* the old
            # clause, so its addition must precede the old clause's deletion.
            self.proof.add(tuple(new_lits))
        self._kill_clause(off)
        self.stats["vivified"] += 1
        self.stats["vivify_lits"] += size - len(new_lits)
        if not new_lits:
            self.ok = False
            return False
        if len(new_lits) == 1:
            self._enqueue(new_lits[0], -1)
            if self._propagate() is not None:
                self.ok = False
                return False
            return True
        self._add_learnt(new_lits, min(old_lbd, len(new_lits)))
        self.stats["learned"] += 1
        return True

    # ------------------------------------------------------------------ solve

    def solve(self, deadline: float | None = None,
              conflict_budget: int | None = None) -> SATResult:
        """Decide satisfiability.

        ``deadline`` is an absolute :func:`time.monotonic` timestamp;
        ``conflict_budget`` caps the conflicts of *this call*.  Exceeding
        either yields :data:`SATResult.UNKNOWN` and records the binding axis
        in ``stats["budget_axis"]`` (``"time"`` or ``"conflicts"``).
        """
        self.stats.pop("budget_axis", None)
        self._backtrack(0)
        if not self.ok:
            return SATResult.UNSAT
        self._pending_prop = False  # the root pass below drains the queue
        if self._propagate() is not None:
            self.ok = False
            return SATResult.UNSAT
        restart_num = 0
        start_conflicts = self.stats["conflicts"]
        max_learnts = max(2000, self.n_orig)
        while True:
            restart_num += 1
            res = self._search(_RESTART_BASE * luby(restart_num), deadline)
            if res is not None:
                if res is not SATResult.SAT:
                    self._backtrack(0)
                if res is SATResult.UNKNOWN:
                    self.stats["budget_axis"] = "time"
                return res
            self.stats["restarts"] += 1
            self._backtrack(0)
            if conflict_budget is not None and \
                    self.stats["conflicts"] - start_conflicts > conflict_budget:
                self.stats["budget_axis"] = "conflicts"
                return SATResult.UNKNOWN
            if self.stats["conflicts"] >= self._next_vivify:
                self._next_vivify = self.stats["conflicts"] + _VIVIFY_PERIOD
                if self._vivify_round(deadline) == "deadline":
                    self.stats["budget_axis"] = "time"
                    return SATResult.UNKNOWN
                if not self.ok:
                    return SATResult.UNSAT
            if len(self.learnt_offs) > max_learnts:
                self._reduce_db()
                max_learnts = int(max_learnts * 1.3)

    def _search(self, budget: int,
                deadline: float | None) -> SATResult | None:
        """CDCL until SAT/UNSAT, ``budget`` conflicts (``None`` = restart)
        or the deadline (``UNKNOWN``)."""
        conflicts = 0
        stats = self.stats
        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats["conflicts"] += 1
                conflicts += 1
                if not self.trail_lim:
                    self.ok = False
                    return SATResult.UNSAT
                learned, bt_level, lbd = self._analyze(conflict)
                self._backtrack(bt_level)
                if self.proof is not None:
                    self.proof.add(tuple(learned))
                if len(learned) == 1:
                    self._enqueue(learned[0], -1)
                else:
                    off = self._add_learnt(learned, lbd)
                    stats["learned"] += 1
                    if lbd <= 2:
                        stats["glue2"] += 1
                    elif lbd <= 6:
                        stats["glue_low"] += 1
                    else:
                        stats["glue_high"] += 1
                    self._subsume_on_the_fly(learned, off)
                    self._enqueue(learned[0], off)
                self.var_inc *= self.var_decay
                if conflicts >= budget:
                    return None
                if conflicts & 127 == 0 and deadline is not None and \
                        time.monotonic() > deadline:
                    return SATResult.UNKNOWN
                continue
            if stats["decisions"] & 255 == 0 and deadline is not None and \
                    time.monotonic() > deadline:
                return SATResult.UNKNOWN
            var = self._pick_branch_var()
            if var is None:
                return SATResult.SAT
            stats["decisions"] += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue((var << 1) | self.phase[var], -1)

    # ------------------------------------------------------------------ model

    def model_value(self, var: int) -> bool:
        """Value of ``var`` in the satisfying assignment (valid after SAT;
        unconstrained variables complete to ``False``)."""
        val = self.assigns[var]
        return val == 0
