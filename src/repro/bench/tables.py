"""Generators for the paper's tables.

* :func:`table1` — the qualitative tool-comparison matrix (Section II-A);
* :func:`table2` — equivalence checking of the *bug-free* SDK kernel pairs:
  non-parameterized at n = 4/8/16/32 (with +C. concretization at the larger
  n, as the paper's parenthesized entries) versus parameterized with and
  without concretization, across bit widths;
* :func:`table3` — the same comparison on *buggy versions* (injected
  address/guard mutations, the paper's described bug classes).

Every cell calls the real checkers; the cell budget defaults to 20 s
(``PUGPARA_BENCH_TIMEOUT=300`` reproduces the paper's 5-minute limit).
Rows are configurable so the quick benchmark profile and the full
reproduction share one code path.
"""

from __future__ import annotations

import math
from functools import partial

from ..check.configs import reduction_assumptions, transpose_assumptions
from ..check.equivalence import check_equivalence_nonparam
from ..kernels import address_mutants, load_pair
from ..lang import LaunchConfig, check_kernel
from ..param.equivalence import ParamOptions, check_equivalence_param
from .harness import Cell, TableAccumulator, bench_timeout, run_cell

__all__ = ["table1", "table2_cell", "table2", "table3_cell", "table3",
           "TRANSPOSE_WIDTHS", "REDUCTION_WIDTHS", "NONPARAM_NS"]

TRANSPOSE_WIDTHS = (8, 16, 32)
REDUCTION_WIDTHS = (8, 12)
NONPARAM_NS = (4, 8, 16, 32)


# ---------------------------------------------------------------- Table I


def table1() -> str:
    """The qualitative comparison matrix (verbatim content of Table I)."""
    headers = ["Comparison", "PUGpara (this repo)", "GKLEE", "GRace"]
    rows = [
        ["Methodology", "Symbolic Analysis",
         "Concolic Exec. in virtual machine", "Dyn. Check (+ Static)"],
        ["Level of Analysis", "Source Code", "LLVM Bytecode",
         "Source Instrument."],
        ["Bugs Targeted", "Race, Func. Corrct., Equiv. Check",
         "Corrct. & Perf. Bugs", "Race, Bank Conflict"],
        ["Program Inputs", "Fully Symbolic", "Symbolic + Concrete",
         "No Symbolic"],
        ["Parameterized?", "Yes (Race and Equiv. Check)", "No", "No"],
    ]
    from .harness import format_table
    return format_table("Table I — comparison of GPU program verifiers",
                        headers, rows)


# ---------------------------------------------------------------- Table II


def _transpose_geometry(n: int) -> tuple[tuple[int, int, int],
                                         tuple[int, int], int, int]:
    """The paper's n-thread transpose configuration: a sqrt(n) x sqrt(n)
    block when n is a perfect square, else the closest non-square block
    (those are the '*' rows — the pair is then NOT equivalent)."""
    root = int(math.isqrt(n))
    if root * root == n:
        bdim = (root, root, 1)
    else:
        # e.g. n=8 -> 4x2, n=32 -> 8x4
        a = 1 << ((n.bit_length() // 2))
        bdim = (a, n // a, 1)
    gdim = (2, 2)
    width_elems = bdim[0] * gdim[0]
    height_elems = bdim[1] * gdim[1]
    return bdim, gdim, width_elems, height_elems


def table2_cell(pair: str, width: int, mode: str,
                n: int | None = None,
                timeout: float | None = None) -> Cell:
    """One Table II cell.

    ``mode``: ``"nonparam"`` / ``"nonparam+C"`` (pin input array cells) /
    ``"param"`` / ``"param+C"`` (pin the geometry and scalars).
    """
    budget = timeout if timeout is not None else bench_timeout()
    (_, src), (_, tgt) = load_pair(pair)

    if pair == "Transpose":
        builder = transpose_assumptions
        if n is not None:
            bdim, gdim, w_elems, h_elems = _transpose_geometry(n)
            scalars = {"width": w_elems, "height": h_elems}
        conc_geometry = {"bdim": (2, 2, 1), "gdim": (2, 2),
                         "scalars": {"width": 4, "height": 4}}
    else:
        builder = reduction_assumptions
        if n is not None:
            bdim, gdim, scalars = (n, 1, 1), (1, 1), {}
        conc_geometry = {"bdim": (8, 1, 1), "gdim": (1, 1)}

    if mode.startswith("nonparam"):
        assert n is not None
        extent = None
        if mode.endswith("+C"):
            extent = bdim[0] * bdim[1] * gdim[0] * gdim[1]
        return run_cell(lambda: check_equivalence_nonparam(
            src, tgt, LaunchConfig(bdim=bdim, gdim=gdim, width=width),
            scalar_values=scalars or None,
            concretize_extent=extent, timeout=budget))

    concretize = conc_geometry if mode.endswith("+C") else None
    return run_cell(lambda: check_equivalence_param(
        src, tgt, width, assumption_builder=builder, concretize=concretize,
        options=ParamOptions(timeout=budget)))


def table2(widths_transpose=TRANSPOSE_WIDTHS, widths_reduction=REDUCTION_WIDTHS,
           ns=NONPARAM_NS, timeout: float | None = None) -> str:
    """Regenerate Table II (bug-free equivalence checking)."""
    headers = ["Kernel", *(f"np n={n}" for n in ns),
               *(f"np n={n} +C" for n in ns if n >= 16),
               "param -C", "param +C"]
    acc = TableAccumulator(
        title="Table II — equivalence checking, bug-free kernels "
              "(times in s; * = not equivalent; T.O = budget exhausted)",
        headers=headers)
    jobs = [("Transpose", w) for w in widths_transpose]
    jobs += [("Reduction", w) for w in widths_reduction]
    for pair, width in jobs:
        row = f"{pair} ({width}b)"
        for n in ns:
            acc.put(row, f"np n={n}",
                    table2_cell(pair, width, "nonparam", n, timeout))
        for n in ns:
            if n >= 16:
                acc.put(row, f"np n={n} +C",
                        table2_cell(pair, width, "nonparam+C", n, timeout))
        acc.put(row, "param -C", table2_cell(pair, width, "param",
                                             timeout=timeout))
        acc.put(row, "param +C", table2_cell(pair, width, "param+C",
                                             timeout=timeout))
    return acc.render()


# --------------------------------------------------------------- Table III


def _buggy_target(pair: str, index: int = 0):
    (_, src), (tgt_kernel, _) = load_pair(pair)
    mutants = list(address_mutants(tgt_kernel))
    mutant = mutants[index % len(mutants)]
    return src, check_kernel(mutant.kernel), mutant


def table3_cell(pair: str, width: int, mode: str, n: int | None = None,
                mutant_index: int = 0,
                timeout: float | None = None) -> Cell:
    """One Table III cell: equivalence checking against a buggy version."""
    budget = timeout if timeout is not None else bench_timeout()
    src, buggy, _ = _buggy_target(pair, mutant_index)
    if pair == "Transpose":
        builder = transpose_assumptions
        if n is not None:
            bdim, gdim, w_elems, h_elems = _transpose_geometry(n)
            scalars = {"width": w_elems, "height": h_elems}
    else:
        builder = reduction_assumptions
        if n is not None:
            bdim, gdim, scalars = (n, 1, 1), (1, 1), {}

    if mode == "nonparam":
        assert n is not None
        return run_cell(lambda: check_equivalence_nonparam(
            src, buggy, LaunchConfig(bdim=bdim, gdim=gdim, width=width),
            scalar_values=scalars or None, timeout=budget))
    # parameterized fast bug hunting (Section IV-D)
    return run_cell(lambda: check_equivalence_param(
        src, buggy, width, assumption_builder=builder,
        options=ParamOptions(timeout=budget, bughunt=True)))


def table3(widths_transpose=(16, 32), widths_reduction=(8, 16, 32),
           ns=(4, 8, 16), timeout: float | None = None) -> str:
    """Regenerate Table III (buggy versions)."""
    headers = ["Kernel", *(f"np n={n}" for n in ns), "param"]
    acc = TableAccumulator(
        title="Table III — equivalence checking, buggy versions "
              "(* = bug found; T.O = budget exhausted)",
        headers=headers)
    jobs = [("Transpose", w) for w in widths_transpose]
    jobs += [("Reduction", w) for w in widths_reduction]
    for pair, width in jobs:
        row = f"{pair} ({width}b)"
        for n in ns:
            acc.put(row, f"np n={n}",
                    table3_cell(pair, width, "nonparam", n, timeout=timeout))
        acc.put(row, "param",
                table3_cell(pair, width, "param", timeout=timeout))
    return acc.render()
