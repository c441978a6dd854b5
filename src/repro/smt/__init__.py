"""A from-scratch SMT solver for QF_ABV (bit-vectors + arrays).

This package substitutes for Z3, which the paper used but which is not
available offline here.  The public API intentionally mirrors the small slice
of z3py that PUGpara scripted against: term constructors, a ``Solver`` with
``add``/``check``/``model``, and timeouts that surface as ``UNKNOWN``.

Layers (bottom-up):

- :mod:`repro.smt.sat` — CDCL SAT core;
- :mod:`repro.smt.cnf` / :mod:`repro.smt.bitblast` — Tseitin gates and
  bit-vector circuits;
- :mod:`repro.smt.arrays` — QF_ABV -> QF_BV (write-chain expansion +
  Ackermann);
- :mod:`repro.smt.terms` / :mod:`repro.smt.simplify` / :mod:`repro.smt.poly`
  — hash-consed terms and algebraic normalization;
- :mod:`repro.smt.preprocess` — SatELite-style CNF preprocessing;
- :mod:`repro.smt.solver` — the one-shot facade tying it together;
- :mod:`repro.smt.dispatch` — the resilient parallel runtime that sends
  each query through its own one-shot ``Solver``.
"""

from .sorts import ARRAY, BOOL, BV, ArraySort, BitVecSort, Sort
from .terms import (
    TRUE, FALSE, And, ArrayVar, BoolConst, BoolVar, BVAdd, BVAnd, BVAshr,
    BVConst, BVLshr, BVMul, BVNeg, BVNot, BVOr, BVShl, BVSub, BVUDiv, BVURem,
    BVVar, BVXor, Concat, Distinct, Eq, Extract, Iff, Implies, Ite, Kind, Ne,
    Not, Or, Select, SGe, SGt, SignExt, SLe, SLt, Store, Term, UGe, UGt, ULe,
    ULt, Var, Xor, ZeroExt, collect, fresh_name, fresh_scope, fresh_scoped,
    fresh_var, iter_dag, term_size,
)
from .terms import intern_stats
from .simplify import simplify, simplify_all
from .substitute import evaluate, substitute
from .printer import script_smtlib, to_smtlib, to_str
from .model import Model
from .sat.proof import CheckedProof, ProofLog, check_proof
from .solver import CheckResult, Solver, check_valid, is_satisfiable
from .preprocess import Preprocessor, preprocess
from .qcache import QueryCache, canonical_key, canonicalize
from .dispatch import (
    Query, QueryResult, SolveConfig, default_cache, resolve_cache,
    solve_all, solve_query, solve_stream,
)
from .resilience import ESCALATIONS, RetryPolicy
from .faults import FaultPlan, InjectedFault

__all__ = [
    # sorts
    "ARRAY", "BOOL", "BV", "ArraySort", "BitVecSort", "Sort",
    # terms
    "TRUE", "FALSE", "And", "ArrayVar", "BoolConst", "BoolVar", "BVAdd",
    "BVAnd", "BVAshr", "BVConst", "BVLshr", "BVMul", "BVNeg", "BVNot", "BVOr",
    "BVShl", "BVSub", "BVUDiv", "BVURem", "BVVar", "BVXor", "Concat",
    "Distinct", "Eq", "Extract", "Iff", "Implies", "Ite", "Kind", "Ne", "Not",
    "Or", "Select", "SGe", "SGt", "SignExt", "SLe", "SLt", "Store", "Term",
    "UGe", "UGt", "ULe", "ULt", "Var", "Xor", "ZeroExt", "collect",
    "fresh_name", "fresh_scope", "fresh_scoped", "fresh_var", "intern_stats",
    "iter_dag", "term_size",
    # transforms
    "simplify", "simplify_all", "substitute", "evaluate",
    # printing
    "script_smtlib", "to_smtlib", "to_str",
    # solving
    "CheckResult", "Model", "Solver", "check_valid", "is_satisfiable",
    # proof certification
    "CheckedProof", "ProofLog", "check_proof",
    # preprocessing
    "Preprocessor", "preprocess",
    # caching + dispatch
    "QueryCache", "canonical_key", "canonicalize",
    "Query", "QueryResult", "SolveConfig", "default_cache",
    "resolve_cache", "solve_all", "solve_query", "solve_stream",
    # resilience
    "ESCALATIONS", "RetryPolicy",
    "FaultPlan", "InjectedFault",
]
