"""Behavioral tests for functional-correctness checking."""

import time

import pytest

from repro.check.configs import transpose_assumptions
from repro.check.functional import (
    check_functional, check_functional_nonparam, check_functional_param,
)
from repro.check.result import Verdict
from repro.kernels import address_mutants, load
from repro.lang import LaunchConfig, check_kernel, parse_kernel
from repro.smt import SolveConfig, dispatch

TRANSPOSE_CONC = {"bdim": (2, 2, 1), "gdim": (2, 2),
                  "scalars": {"width": 4, "height": 4}}


class TestNonParam:
    def test_transpose_postcond_verified(self):
        _, info = load("naiveTranspose")
        out = check_functional_nonparam(
            info, LaunchConfig(bdim=(2, 2, 1), width=8),
            scalar_values={"width": 2, "height": 2}, timeout=120)
        assert out.verdict is Verdict.VERIFIED

    @pytest.mark.parametrize("name", ["naiveReduce", "optimizedReduce"])
    def test_reduction_sum_spec(self, name):
        _, info = load(name)
        out = check_functional_nonparam(
            info, LaunchConfig(bdim=(4, 1, 1), width=8), timeout=120)
        assert out.verdict is Verdict.VERIFIED

    def test_scan_recursive_spec(self):
        _, info = load("scanNaive")
        out = check_functional_nonparam(
            info, LaunchConfig(bdim=(4, 1, 1), width=8), timeout=120)
        assert out.verdict is Verdict.VERIFIED

    def test_scalarprod_non_pow2_block_bug(self):
        """The paper's ACCN configuration bug: a non-power-of-two block
        breaks the tree reduction, caught with a replayed counterexample."""
        _, info = load("scalarProd")
        out = check_functional_nonparam(
            info, LaunchConfig(bdim=(6, 1, 1), width=8), timeout=120)
        assert out.verdict is Verdict.BUG

    def test_mutant_breaks_postcond(self):
        k, _ = load("naiveTranspose")
        mutant = list(address_mutants(k))[0]
        info = check_kernel(mutant.kernel)
        out = check_functional_nonparam(
            info, LaunchConfig(bdim=(2, 2, 1), width=8),
            scalar_values={"width": 2, "height": 2}, timeout=120)
        assert out.verdict is Verdict.BUG
        assert out.counterexample is not None

    def test_assert_statement_is_not_postcond(self):
        info = check_kernel(parse_kernel(
            "void f(int *o, int n) { o[tid.x] = n; }"))
        out = check_functional_nonparam(
            info, LaunchConfig(bdim=(2, 1, 1), width=8), timeout=60)
        assert out.verdict is Verdict.VERIFIED  # nothing to check


    def test_every_query_gets_the_time_left(self, monkeypatch):
        """Each obligation's query is given what is left of the check's
        budget when it is sent, never the full starting budget: k
        obligations cannot spend k x timeout in the solver."""
        info = check_kernel(parse_kernel("""
            void f(int *o) {
                o[tid.x] = tid.x;
                postcond(o[0] == 0);
                postcond(o[1] == 1);
                postcond(o[2] == 2);
                postcond(o[3] == 3);
                postcond(o[0] + o[1] == 1);
                postcond(o[2] + o[3] == 5);
            }"""))
        sent = []
        real = dispatch.solve_all

        def slow(queries, **kw):
            sent.extend((q.timeout, time.monotonic()) for q in queries)
            time.sleep(0.2)
            return real(queries, **kw)
        monkeypatch.setattr(dispatch, "solve_all", slow)
        start = time.monotonic()
        out = check_functional_nonparam(
            info, LaunchConfig(bdim=(4, 1, 1), width=8), timeout=30,
            solve=SolveConfig(cache=False))
        assert out.verdict is Verdict.VERIFIED and out.vcs_checked == 6
        assert len(sent) == 6
        for budget, at in sent:
            assert budget <= 30 - (at - start) + 0.05, (budget, at - start)
        assert sent[-1][0] < sent[0][0] - 0.15   # a later chunk got less


class TestParam:
    def test_naive_transpose_complete_proof(self):
        _, info = load("naiveTranspose")
        out = check_functional_param(
            info, 8, assumption_builder=transpose_assumptions,
            concretize=TRANSPOSE_CONC, timeout=120)
        assert out.verdict is Verdict.VERIFIED
        assert out.complete

    def test_optimized_transpose_chains_through_tile(self):
        _, info = load("optimizedTranspose")
        out = check_functional_param(
            info, 8, assumption_builder=transpose_assumptions,
            concretize=TRANSPOSE_CONC, timeout=120)
        assert out.verdict is Verdict.VERIFIED
        assert out.complete

    def test_mutant_found(self):
        k, _ = load("naiveTranspose")
        mutant = list(address_mutants(k))[1]
        info = check_kernel(mutant.kernel)
        out = check_functional_param(
            info, 8, assumption_builder=transpose_assumptions,
            concretize=TRANSPOSE_CONC, timeout=120)
        assert out.verdict is Verdict.BUG

    def test_loops_unsupported(self):
        _, info = load("naiveReduce")
        out = check_functional_param(info, 8, timeout=30)
        assert out.verdict is Verdict.UNSUPPORTED
        assert "loop" in out.reason or "spec" in out.reason

    def test_unified_entry_point(self):
        _, info = load("naiveTranspose")
        out = check_functional(
            info, method="param", width=8,
            assumption_builder=transpose_assumptions,
            concretize=TRANSPOSE_CONC, timeout=120)
        assert out.verdict is Verdict.VERIFIED
        with pytest.raises(ValueError):
            check_functional(info, method="nonparam")
        with pytest.raises(ValueError):
            check_functional(info, method="bogus")
