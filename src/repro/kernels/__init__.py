"""The paper's kernel suite (CUDA SDK 2.0 samples transcribed into the DSL)
plus the bug-injection engine for Table III's "buggy versions"."""

from .suite import KERNELS, PAIRS, KernelEntry, PairEntry, load, load_pair
from .mutations import (
    Mutant, address_mutants, all_mutants, barrier_mutants, guard_mutants,
)

__all__ = [
    "KERNELS", "PAIRS", "KernelEntry", "PairEntry", "load", "load_pair",
    "Mutant", "address_mutants", "all_mutants", "barrier_mutants",
    "guard_mutants",
]
