"""Ablation benchmarks for the design choices DESIGN.md calls out.

* **simplifier** — the polynomial normalizer + read-over-write layer
  discharges most matched-write VCs before bit-blasting; turning it off
  shows how much of the parameterized method's speed comes from term-level
  reasoning (the paper's Section IV-C "reduces substantially the size of
  the constraints").
* **fast bug hunting** — Section IV-D's frame-skipping mode against the
  full checker on a buggy kernel.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import bench_timeout
from repro.check.configs import transpose_assumptions
from repro.check.result import Verdict
from repro.kernels import address_mutants, load_pair
from repro.lang import check_kernel
from repro.param.equivalence import ParamOptions, check_equivalence_param

CONC = {"bdim": (2, 2, 1), "gdim": (2, 2),
        "scalars": {"width": 4, "height": 4}}


def _clean_pair():
    (_, src), (_, tgt) = load_pair("Transpose")
    return src, tgt


def _buggy_pair():
    (_, src), (tgt_kernel, _) = load_pair("Transpose")
    mutant = list(address_mutants(tgt_kernel))[0]
    return src, check_kernel(mutant.kernel)


@pytest.mark.parametrize("simplify", [True, False],
                         ids=["simplify-on", "simplify-off"])
def test_ablation_simplifier(benchmark, simplify):
    """Term-level simplification on/off, verified transpose +C."""
    src, tgt = _clean_pair()
    out = benchmark.pedantic(
        lambda: check_equivalence_param(
            src, tgt, 8, assumption_builder=transpose_assumptions,
            concretize=CONC,
            options=ParamOptions(timeout=bench_timeout(),
                                 simplify=simplify)),
        rounds=1, iterations=1)
    assert out.verdict in (Verdict.VERIFIED, Verdict.TIMEOUT)


@pytest.mark.parametrize("bughunt", [True, False],
                         ids=["bughunt", "full-frames"])
def test_ablation_bughunt(benchmark, bughunt):
    """Section IV-D's fast bug hunting vs. the full checker on an injected
    address bug (both must find it; bughunt should be faster)."""
    src, buggy = _buggy_pair()
    out = benchmark.pedantic(
        lambda: check_equivalence_param(
            src, buggy, 8, assumption_builder=transpose_assumptions,
            options=ParamOptions(timeout=bench_timeout(), bughunt=bughunt)),
        rounds=1, iterations=1)
    assert out.verdict in (Verdict.BUG, Verdict.TIMEOUT)

