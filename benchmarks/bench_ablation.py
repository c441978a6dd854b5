"""Ablation benchmark for a design choice DESIGN.md calls out: Section
IV-D's fast bug hunting (frame skipping) against the full checker on a
buggy kernel.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import bench_timeout
from repro.check.configs import transpose_assumptions
from repro.check.result import Verdict
from repro.kernels import address_mutants, load_pair
from repro.lang import check_kernel
from repro.param.equivalence import ParamOptions, check_equivalence_param


def _buggy_pair():
    (_, src), (tgt_kernel, _) = load_pair("Transpose")
    mutant = list(address_mutants(tgt_kernel))[0]
    return src, check_kernel(mutant.kernel)


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

