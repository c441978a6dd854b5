"""A self-contained CDCL SAT solver (conflict-driven clause learning).

This package replaces the SAT core inside Z3 for our purposes: the bit-vector
layer (:mod:`repro.smt.bitblast`) reduces QF_BV queries to CNF, which this
solver decides.  Features: two-watched-literal propagation, first-UIP conflict
analysis with clause minimization, VSIDS variable activity, phase saving, Luby
restarts, activity-based learned-clause deletion, and time / conflict
budgets (the paper's ``T.O`` rows come from these budgets).
"""

from .solver import STAT_COUNTER_KEYS, SATResult, SATSolver
from .proof import CheckedProof, ProofLog, check_proof
from .luby import luby
from .dimacs import load_into, parse_dimacs, to_dimacs

__all__ = ["STAT_COUNTER_KEYS", "SATSolver", "SATResult",
           "CheckedProof", "ProofLog", "check_proof",
           "luby", "load_into", "parse_dimacs", "to_dimacs"]
