"""Behavioral tests of the parameterized equivalence checker — the paper's
headline results, at test-suite scale (8-bit, concretized where the paper
concretizes)."""

from functools import partial

import pytest

from repro.check.configs import reduction_assumptions, transpose_assumptions
from repro.check.replay import replay_equivalence
from repro.check.result import Verdict
from repro.kernels import address_mutants, guard_mutants, load, load_pair
from repro.lang import check_kernel, parse_kernel
from repro.param.equivalence import ParamOptions, check_equivalence_param
from repro.smt import SolveConfig

TRANSPOSE_CONC = {"bdim": (2, 2, 1), "gdim": (2, 2),
                  "scalars": {"width": 4, "height": 4}}


def transpose_pair():
    (sk, si), (tk, ti) = load_pair("Transpose")
    return si, ti, tk


def reduction_pair():
    (sk, si), (tk, ti) = load_pair("Reduction")
    return si, ti, tk


def _uncached(**fields) -> SolveConfig:
    """The environment's solve settings with the query cache off."""
    return SolveConfig.from_env(cache=False, **fields)


class TestBugFreeVerification:
    def test_transpose_concretized(self):
        si, ti, _ = transpose_pair()
        out = check_equivalence_param(
            si, ti, 8, assumption_builder=transpose_assumptions,
            concretize=TRANSPOSE_CONC, options=ParamOptions(timeout=120))
        assert out.verdict is Verdict.VERIFIED
        assert out.complete, out.stats.get("incomplete")

    def test_reduction_fully_parameterized(self):
        """The headline result: reduction equivalence for ANY power-of-two
        block size, fully symbolic inputs — the paper's param -C 0.2s row."""
        si, ti, _ = reduction_pair()
        out = check_equivalence_param(
            si, ti, 8, assumption_builder=reduction_assumptions,
            options=ParamOptions(timeout=180))
        assert out.verdict is Verdict.VERIFIED
        assert out.complete

    def test_self_equivalence(self):
        si, _, _ = transpose_pair()
        out = check_equivalence_param(
            si, si, 8, assumption_builder=transpose_assumptions,
            concretize=TRANSPOSE_CONC, options=ParamOptions(timeout=120))
        assert out.verdict is Verdict.VERIFIED

    def test_bughunt_mode_flags_incompleteness(self):
        si, ti, _ = transpose_pair()
        out = check_equivalence_param(
            si, ti, 8, assumption_builder=transpose_assumptions,
            concretize=TRANSPOSE_CONC,
            options=ParamOptions(timeout=120, bughunt=True))
        # Frames skipped and no bug found: inconclusive, never VERIFIED.
        assert out.verdict is Verdict.UNKNOWN
        assert out.complete is False


class TestConfigurationBugs:
    def test_nonsquare_block_reveals_bug(self):
        """The paper's '*' rows: the transpose pair is NOT equivalent when
        the block is not square."""
        si, ti, _ = transpose_pair()
        out = check_equivalence_param(
            si, ti, 8,
            assumption_builder=partial(transpose_assumptions, square=False),
            concretize={"bdim": (4, 2, 1), "gdim": (2, 4),
                        "scalars": {"width": 8, "height": 8}},
            options=ParamOptions(timeout=180))
        assert out.verdict is Verdict.BUG
        assert out.counterexample is not None
        # the counterexample is replay-confirmed and genuinely non-square
        assert out.counterexample.bdim[0] != out.counterexample.bdim[1]


class TestInjectedBugs:
    def test_address_mutants_found_fast(self):
        """Table III's param column: injected address bugs found in well
        under a second each, parametrically."""
        si, ti, tk = transpose_pair()
        for mutant in address_mutants(tk):
            info = check_kernel(mutant.kernel)
            out = check_equivalence_param(
                si, info, 8, assumption_builder=transpose_assumptions,
                options=ParamOptions(timeout=60, bughunt=True))
            assert out.verdict is Verdict.BUG, mutant.label
            assert out.elapsed < 10, mutant.label

    def test_reduction_address_mutants(self):
        si, ti, tk = reduction_pair()
        found = 0
        for mutant in address_mutants(tk):
            info = check_kernel(mutant.kernel)
            out = check_equivalence_param(
                si, info, 8, assumption_builder=reduction_assumptions,
                options=ParamOptions(timeout=60, bughunt=True))
            assert out.verdict in (Verdict.BUG, Verdict.UNKNOWN,
                                   Verdict.TIMEOUT, Verdict.UNSUPPORTED), \
                mutant.label
            if out.verdict is Verdict.BUG:
                found += 1
        assert found >= 2

    def test_guard_mutants_under_partial_tiles(self):
        from repro.smt import Eq
        si, ti, tk = transpose_pair()

        def partial_cover(geo, inputs):
            return [geo.square_block(), Eq(geo.bdim["z"], 1),
                    geo.extent_fits(inputs["width"], inputs["height"])]

        conc = {"bdim": (2, 2, 1), "gdim": (2, 2),
                "scalars": {"width": 3, "height": 4}}
        verdicts = {}
        for mutant in guard_mutants(tk):
            info = check_kernel(mutant.kernel)
            out = check_equivalence_param(
                si, info, 8, assumption_builder=partial_cover,
                concretize=conc, options=ParamOptions(timeout=60))
            verdicts[mutant.label] = out.verdict
        assert any(v is Verdict.BUG for v in verdicts.values()), verdicts


class TestAlignmentFailures:
    def test_loop_vs_straightline_unsupported(self):
        si, _, _ = transpose_pair()
        ri, _, _ = reduction_pair()[0], None, None
        out = check_equivalence_param(
            si, reduction_pair()[0], 8, options=ParamOptions(timeout=30))
        assert out.verdict is Verdict.UNSUPPORTED

    def test_matmul_accumulator_unsupported(self):
        (sk, si), (tk, ti) = load_pair("MatMul")
        out = check_equivalence_param(si, ti, 8,
                                      options=ParamOptions(timeout=30))
        assert out.verdict is Verdict.UNSUPPORTED
        assert "carried" in out.reason or "symbolic" in out.reason


class TestFullySymbolicTranspose:
    """Table II's param -C rows for Transpose, which the paper reports as
    T.O: the word-level mixed-radix rules decide them."""

    @pytest.mark.parametrize("width", [8, 16])
    def test_square_verifies_with_every_proof_checked(self, width):
        si, ti, _ = transpose_pair()
        out = check_equivalence_param(
            si, ti, width, assumption_builder=transpose_assumptions,
            options=ParamOptions(timeout=60, solve=_uncached(certify=True)))
        assert out.verdict is Verdict.VERIFIED, out.reason
        assert out.complete
        cert = out.stats["certify"]
        assert out.vcs_checked > 0
        assert cert["checked"] == out.vcs_checked
        assert cert["rejected"] == 0

    def test_nonsquare_is_a_replayed_bug_with_its_counts(self):
        si, ti, _ = transpose_pair()
        out = check_equivalence_param(
            si, ti, 8,
            assumption_builder=partial(transpose_assumptions, square=False),
            options=ParamOptions(timeout=60))
        assert out.verdict is Verdict.BUG
        cex = out.counterexample
        assert cex.bdim[0] != cex.bdim[1]
        assert replay_equivalence(si, ti, cex, 8).confirmed
        # The VCs solved before the bug count, as on the VERIFIED path.
        assert out.vcs_checked > 0 and out.solver_time > 0


class TestFullySymbolicReduction:
    """Table II's param -C rows for Reduction: the quotient identity and
    the udiv bound fold the coverage VC ``tid == 2*(k*(tid udiv 2k))``
    before bit-blasting, so the cell stays cheap at 32 bits (3,413
    conflicts without them)."""

    @pytest.mark.parametrize("width", [16, 32])
    def test_verifies_with_every_proof_checked(self, width):
        si, ti, _ = reduction_pair()
        out = check_equivalence_param(
            si, ti, width, assumption_builder=reduction_assumptions,
            options=ParamOptions(timeout=60, solve=_uncached(certify=True)))
        assert out.verdict is Verdict.VERIFIED, out.reason
        assert out.complete
        cert = out.stats["certify"]
        assert cert["checked"] == out.vcs_checked > 0
        assert cert["rejected"] == 0
        assert out.stats["solver"]["conflicts"] <= 100


class TestDefinedThreadRelations:
    """Reduction param -C: each sdata VC asserts ``s.tid == 2*(k*t.tid)``,
    and eliminating ``s.tid`` through that definition makes both sides of
    its data equality one term before bit-blasting."""

    def test_reduction_param_verifies_with_few_conflicts(self):
        si, ti, _ = reduction_pair()
        out = check_equivalence_param(
            si, ti, 8, assumption_builder=reduction_assumptions,
            options=ParamOptions(timeout=120, solve=_uncached()))
        assert out.verdict is Verdict.VERIFIED
        assert out.complete
        assert out.stats["solver"]["conflicts"] < 120

    def test_bughunt_mutants_keep_their_verdicts(self):
        si, ti, tk = reduction_pair()
        infos = {m.label: check_kernel(m.kernel) for m in address_mutants(tk)}

        def hunt(label):
            return check_equivalence_param(
                si, infos[label], 8, assumption_builder=reduction_assumptions,
                options=ParamOptions(timeout=60, bughunt=True,
                                     solve=_uncached()))

        assert hunt("addr4").verdict is Verdict.UNKNOWN
        bug = hunt("addr5")
        assert bug.verdict is Verdict.BUG
        assert replay_equivalence(si, infos["addr5"], bug.counterexample,
                                  8).confirmed


class TestBudget:
    def test_budget_exhaustion_times_out_with_its_counts(self):
        """The fully symbolic check of a guard mutant (line 19's ``<``
        made ``<=``) outlasts a small budget: the paper's T.O, still
        reporting the VCs it spent the budget on."""
        si, _, tk = transpose_pair()
        mutant = next(m for m in guard_mutants(tk) if m.label == "guard-cmp2")
        assert mutant.description.startswith("line 19")
        out = check_equivalence_param(
            si, check_kernel(mutant.kernel), 8,
            assumption_builder=transpose_assumptions,
            options=ParamOptions(timeout=1, solve=_uncached()))
        assert out.verdict is Verdict.TIMEOUT
        assert out.vcs_checked > 0 and out.solver_time > 0
