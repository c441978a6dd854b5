"""Registry of the paper's kernel suite.

Each entry names a kernel (or an unoptimized/optimized pair) and its
source.  The configuration assumptions under which a pair is equivalent —
the "valid configurations" of Section IV-B (square blocks for transpose,
power-of-two block size for the reduction) — are built in
:mod:`repro.check.configs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..lang import Kernel, KernelInfo, check_kernel, parse_kernel
from . import bitonic, matmul, reduction, scalar_product, scan, transpose

__all__ = ["KernelEntry", "PairEntry", "KERNELS", "PAIRS", "load", "load_pair"]


@dataclass(frozen=True)
class KernelEntry:
    """A single kernel and its DSL source."""
    name: str
    source: str


@dataclass(frozen=True)
class PairEntry:
    """An unoptimized/optimized kernel pair for equivalence checking."""
    name: str
    source: KernelEntry
    target: KernelEntry


KERNELS: dict[str, KernelEntry] = {entry.name: entry for entry in (
    KernelEntry("naiveTranspose", transpose.NAIVE),
    KernelEntry("optimizedTranspose", transpose.OPTIMIZED),
    KernelEntry("naiveReduce", reduction.NAIVE),
    KernelEntry("optimizedReduce", reduction.OPTIMIZED),
    KernelEntry("scanNaive", scan.NAIVE),
    KernelEntry("scanRacy", scan.RACY),
    KernelEntry("scalarProd", scalar_product.KERNEL),
    KernelEntry("naiveMatMul", matmul.NAIVE),
    KernelEntry("tiledMatMul", matmul.TILED),
    KernelEntry("bitonicSort", bitonic.KERNEL),
)}

PAIRS: dict[str, PairEntry] = {
    name: PairEntry(name, KERNELS[source], KERNELS[target])
    for name, source, target in (
        ("Transpose", "naiveTranspose", "optimizedTranspose"),
        ("Reduction", "naiveReduce", "optimizedReduce"),
        ("MatMul", "naiveMatMul", "tiledMatMul"),
    )
}


@lru_cache(maxsize=None)
def load(name: str) -> tuple[Kernel, KernelInfo]:
    """Parse and type-check a registered kernel by name."""
    entry = KERNELS[name]
    kernel = parse_kernel(entry.source)
    return kernel, check_kernel(kernel)


def load_pair(name: str) -> tuple[tuple[Kernel, KernelInfo],
                                  tuple[Kernel, KernelInfo]]:
    """Parse and type-check a registered equivalence pair by name."""
    pair = PAIRS[name]
    return load(pair.source.name), load(pair.target.name)
