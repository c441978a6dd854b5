"""Span tracing installed from the benchmark, around the calls into each layer.

The program has no spans of its own yet, so :meth:`Tracer.install` wraps the public
functions of each layer where their callers look them up: a checker that did
``from ..smt.arrays import eliminate_arrays`` calls the name bound in its own
module, so that binding is the one replaced.  Methods are wrapped on their
class.

A span's *self time* is its duration minus the time of the spans it directly
contains, so the self times of all spans add up to the traced wall time.
Counters are recorded by the same wrappers, at the layer boundary.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from functools import wraps

#: (module, attribute, span) for every module-level binding that is wrapped.
#: The same function appears once per module that imports it by name.
FUNCTION_SPANS = [
    # lang: the benchmark itself parses and type-checks every cell's sources
    ("repro.lang", "parse_kernel", "lang"),
    ("repro.lang", "check_kernel", "lang"),
    # encode: the serialized (non-parameterized) encoder
    ("repro.check.equivalence", "encode_kernel", "encode"),
    # param: CA extraction, read resolution, witness QE, monotone frames
    ("repro.param.equivalence", "extract_model", "param"),
    ("repro.check.races", "extract_model", "param"),
    ("repro.param.equivalence", "resolve_value", "param.resolve"),
    ("repro.param.resolve", "resolve_value", "param.resolve"),
    ("repro.param.equivalence", "solve_addr_match", "param.witness"),
    ("repro.param.resolve", "solve_addr_match", "param.witness"),
    ("repro.param.monotone", "build_monotone_frame", "param.monotone"),
    # smt.term: term rewriting at the solver call site
    ("repro.smt.solver", "simplify_all", "smt.term"),
    ("repro.smt.solver", "eliminate_arrays", "smt.term"),
    # smt.dispatch: the batch entry points, at every caller's binding
    ("repro.smt.dispatch", "solve_all", "smt.dispatch"),
    ("repro.smt.dispatch", "solve_query", "smt.dispatch"),
    ("repro.param.equivalence", "solve_all", "smt.dispatch"),
    ("repro.param.equivalence", "solve_query", "smt.dispatch"),
    ("repro.check.equivalence", "solve_query", "smt.dispatch"),
    ("repro.check.races", "solve_all", "smt.dispatch"),
    # check: the entry points the benchmark calls, and counterexample replay
    ("repro.check.races", "check_races", "check"),
    ("repro.param.equivalence", "check_equivalence_param", "check"),
    ("repro.check.equivalence", "check_equivalence_nonparam", "check"),
    ("repro.param.equivalence", "replay_equivalence", "check.replay"),
    ("repro.check.equivalence", "replay_equivalence", "check.replay"),
    ("repro.check.races", "_replay_race", "check.replay"),
]

#: Generator functions: each ``next()`` is one span.
GENERATOR_SPANS = [
    ("repro.smt.dispatch", "solve_stream", "smt.dispatch"),
    ("repro.check.races", "solve_stream", "smt.dispatch"),
]

#: (module, class, method, span) for wrapped methods.
METHOD_SPANS = [
    ("repro.encode.templates", "TemplateStore", "lookup", "encode"),
    ("repro.encode.templates", "TemplateStore", "store", "encode"),
    ("repro.smt.bitblast", "BitBlaster", "assert_term", "smt.blast"),
    ("repro.smt.sat.solver", "SATSolver", "solve", "smt.sat"),
    ("repro.smt.preprocess", "Preprocessor", "run", "smt.sat"),
    ("repro.smt.qcache", "QueryCache", "lookup", "smt.qcache"),
    ("repro.smt.qcache", "QueryCache", "store", "smt.qcache"),
]

_SAT_COUNTERS = ("conflicts", "propagations", "decisions")


class Tracer:
    """A span stack with per-name self-time totals and counters."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []   # [start, child_time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------ spans

    def _enter(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, name: str) -> None:
        start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def span_fn(self, fn, name: str, on_result=None):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def span_gen(self, fn, name: str):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def stepped():
                while True:
                    tracer._enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(name)
                    yield item
            return stepped()
        return wrapper

    # ---------------------------------------------------------- counters

    def _count_queries(self, result) -> None:
        self.counts["smt.dispatch.queries"] += len(result)

    def _count_lookup(self, result) -> None:
        self.counts["smt.qcache.lookups"] += 1
        if result is not None:
            self.counts["smt.qcache.hits"] += 1

    def _count_template(self, result) -> None:
        self.counts["encode.template_lookups"] += 1
        if result is not None:
            self.counts["encode.template_hits"] += 1

    def _blast_wrapper(self, fn):
        """``assert_term`` plus the clauses and variables it added."""
        span = self.span_fn(fn, "smt.blast")
        tracer = self

        @wraps(fn)
        def wrapper(blaster, *args, **kwargs):
            sink = blaster.gb.sat
            clauses, nvars = len(sink.clauses), sink.num_vars
            result = span(blaster, *args, **kwargs)
            tracer.counts["smt.blast.clauses"] += len(sink.clauses) - clauses
            tracer.counts["smt.blast.sat_vars"] += sink.num_vars - nvars
            return result
        return wrapper

    def _sat_wrapper(self, fn):
        """``SATSolver.solve`` plus the search work it did."""
        span = self.span_fn(fn, "smt.sat")
        tracer = self

        @wraps(fn)
        def wrapper(sat, *args, **kwargs):
            before = [sat.stats.get(k, 0) for k in _SAT_COUNTERS]
            result = span(sat, *args, **kwargs)
            for key, old in zip(_SAT_COUNTERS, before):
                tracer.counts["smt.sat." + key] += sat.stats.get(key, 0) - old
            return result
        return wrapper

    # ------------------------------------------------------ installation

    def install(self) -> None:
        """Wrap every layer boundary listed above, for the rest of this
        process's life (each traced check runs in its own process)."""
        for mod_name, attr, name in FUNCTION_SPANS:
            mod = importlib.import_module(mod_name)
            hook = None
            if name == "smt.dispatch" and attr == "solve_all":
                hook = self._count_queries
            setattr(mod, attr, self.span_fn(getattr(mod, attr), name, hook))
        for mod_name, attr, name in GENERATOR_SPANS:
            mod = importlib.import_module(mod_name)
            setattr(mod, attr, self.span_gen(getattr(mod, attr), name))
        for mod_name, cls_name, meth, name in METHOD_SPANS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            fn = getattr(cls, meth)
            if name == "smt.blast":
                wrapped = self._blast_wrapper(fn)
            elif name == "smt.sat" and meth == "solve":
                wrapped = self._sat_wrapper(fn)
            elif name == "smt.qcache" and meth == "lookup":
                wrapped = self.span_fn(fn, name, self._count_lookup)
            elif name == "encode" and meth == "lookup":
                wrapped = self.span_fn(fn, name, self._count_template)
            else:
                wrapped = self.span_fn(fn, name)
            setattr(cls, meth, wrapped)
