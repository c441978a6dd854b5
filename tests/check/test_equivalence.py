"""Behavioral tests for the non-parameterized equivalence checker and the
unified entry point."""

import pytest

from repro.check.equivalence import check_equivalence, check_equivalence_nonparam
from repro.check.result import Verdict
from repro.kernels import address_mutants, load_pair
from repro.lang import LaunchConfig, check_kernel
from repro.smt import SolveConfig


class TestNonParam:
    def test_transpose_n4_verified(self):
        (_, si), (_, ti) = load_pair("Transpose")
        out = check_equivalence_nonparam(
            si, ti, LaunchConfig(bdim=(2, 2, 1), width=8),
            scalar_values={"width": 2, "height": 2}, timeout=120)
        assert out.verdict is Verdict.VERIFIED

    def test_transpose_multi_block(self):
        """Both kernels write every output cell once, in different thread
        orders: the switch normal form of the serialized output maps makes
        them one term, so the query never reaches CDCL."""
        (_, si), (_, ti) = load_pair("Transpose")
        for side, width in ((2, 8), (4, 16)):
            out = check_equivalence_nonparam(
                si, ti, LaunchConfig(bdim=(side, side, 1), gdim=(2, 2),
                                     width=width),
                scalar_values={"width": 2 * side, "height": 2 * side},
                timeout=120)
            assert out.verdict is Verdict.VERIFIED, (side, width)
            assert out.stats["solver"]["conflicts"] == 0, (side, width)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_reduction_verified(self, n):
        (_, si), (_, ti) = load_pair("Reduction")
        out = check_equivalence_nonparam(
            si, ti, LaunchConfig(bdim=(n, 1, 1), width=8), timeout=120)
        assert out.verdict is Verdict.VERIFIED, n

    def test_nonsquare_transpose_bug(self):
        """The paper's '*' rows at a concrete non-square n."""
        (_, si), (_, ti) = load_pair("Transpose")
        out = check_equivalence_nonparam(
            si, ti, LaunchConfig(bdim=(4, 2, 1), gdim=(1, 1), width=8),
            scalar_values={"width": 4, "height": 2}, timeout=180)
        assert out.verdict is Verdict.BUG

    def test_mutant_found(self):
        (_, si), (tk, _) = load_pair("Transpose")
        mutant = list(address_mutants(tk))[0]
        info = check_kernel(mutant.kernel)
        out = check_equivalence_nonparam(
            si, info, LaunchConfig(bdim=(2, 2, 1), width=8),
            scalar_values={"width": 2, "height": 2}, timeout=120)
        assert out.verdict is Verdict.BUG
        assert out.counterexample is not None

    def test_concretized_inputs_still_catch_mutants(self):
        """+C. weakens the check to fixed inputs but the address bug still
        shows (the paper's workaround for T.O at large widths)."""
        (_, si), (tk, _) = load_pair("Transpose")
        mutant = list(address_mutants(tk))[0]
        info = check_kernel(mutant.kernel)
        out = check_equivalence_nonparam(
            si, info, LaunchConfig(bdim=(2, 2, 1), width=8),
            scalar_values={"width": 2, "height": 2},
            concretize_extent=4, timeout=120)
        assert out.verdict is Verdict.BUG

    def test_matmul_needs_concrete_scalars(self):
        (_, si), (_, ti) = load_pair("MatMul")
        out = check_equivalence_nonparam(
            si, ti, LaunchConfig(bdim=(2, 2, 1), width=8), timeout=60)
        assert out.verdict is Verdict.UNSUPPORTED  # symbolic loop bound wA

    def test_matmul_with_concrete_scalars(self):
        (_, si), (_, ti) = load_pair("MatMul")
        out = check_equivalence_nonparam(
            si, ti, LaunchConfig(bdim=(2, 2, 1), width=8),
            scalar_values={"wA": 2, "wB": 2}, timeout=180)
        assert out.verdict is Verdict.VERIFIED


class TestUnifiedEntry:
    def test_param_dispatch(self):
        from repro.check.configs import transpose_assumptions
        (_, si), (_, ti) = load_pair("Transpose")
        out = check_equivalence(
            si, ti, method="param", width=8,
            assumption_builder=transpose_assumptions,
            concretize={"bdim": (2, 2, 1), "gdim": (2, 2),
                        "scalars": {"width": 4, "height": 4}},
            timeout=120)
        assert out.verdict is Verdict.VERIFIED

    def test_param_overrides_leave_callers_options_alone(self):
        from dataclasses import replace
        from repro.check.configs import transpose_assumptions
        from repro.param.equivalence import ParamOptions
        (_, si), (_, ti) = load_pair("Transpose")
        opts = ParamOptions(allow_reorder=True)
        before = replace(opts)
        out = check_equivalence(
            si, ti, method="param", width=8,
            assumption_builder=transpose_assumptions,
            concretize={"bdim": (2, 2, 1), "gdim": (2, 2),
                        "scalars": {"width": 4, "height": 4}},
            options=opts, timeout=120,
            solve=SolveConfig(jobs=1, cache=False, certify=True))
        assert out.verdict is Verdict.VERIFIED
        assert out.stats["certify"]["rejected"] == 0
        assert opts == before

    def test_nonparam_dispatch(self):
        (_, si), (_, ti) = load_pair("Reduction")
        out = check_equivalence(
            si, ti, method="nonparam",
            config=LaunchConfig(bdim=(4, 1, 1), width=8), timeout=120)
        assert out.verdict is Verdict.VERIFIED

    def test_nonparam_requires_config(self):
        (_, si), (_, ti) = load_pair("Reduction")
        with pytest.raises(ValueError):
            check_equivalence(si, ti, method="nonparam")

    def test_unknown_method(self):
        (_, si), (_, ti) = load_pair("Reduction")
        with pytest.raises(ValueError):
            check_equivalence(si, ti, method="magic")
