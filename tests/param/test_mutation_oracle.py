"""The mutation corpus as a standing soundness oracle.

Every address mutant of the Transpose and Reduction targets is checked
against its source kernel by the parameterized checker, in bughunt and in
full mode, and against the reference interpreter (``lang/interp.py``, via
``check/replay.py``) at one launch the checked configuration family covers.
A mutant the interpreter shows diverging must never come back VERIFIED, and
every BUG the checker reports must replay.

The race checker gets the same oracle over every suite kernel and each of
its barrier-deletion mutants: a kernel the interpreter shows racing at the
family's launch must never come back VERIFIED, and every BUG must replay.
"""

import pytest

from repro.check.configs import reduction_assumptions, transpose_assumptions
from repro.check.races import check_races
from repro.check.replay import replay_equivalence, replay_race
from repro.check.result import Counterexample, Verdict
from repro.kernels import (
    KERNELS, address_mutants, barrier_mutants, load, load_pair,
)
from repro.lang import check_kernel
from repro.param.equivalence import ParamOptions, check_equivalence_param

_TRANSPOSE_LAUNCH = Counterexample(bdim=(2, 2, 1), gdim=(2, 2),
                                   scalars={"width": 4, "height": 4})

#: family -> (pair, assumption builder, concretization, interpreter launch).
#: The launch lies inside the family the checker is asked about, so a
#: divergence there refutes any VERIFIED.  ``Transpose-symbolic`` is the
#: paper's param -C: geometry and sizes stay free.
FAMILIES = {
    "Transpose": ("Transpose", transpose_assumptions,
                  {"bdim": (2, 2, 1), "gdim": (2, 2),
                   "scalars": {"width": 4, "height": 4}},
                  _TRANSPOSE_LAUNCH),
    "Transpose-symbolic": ("Transpose", transpose_assumptions, None,
                           _TRANSPOSE_LAUNCH),
    "Reduction": ("Reduction", reduction_assumptions, None,
                  Counterexample(bdim=(8, 1, 1), gdim=(1, 1))),
}


@pytest.mark.parametrize("bughunt", [True, False], ids=["bughunt", "full"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_no_diverging_mutant_verifies(family, bughunt):
    pair, builder, concretize, launch = FAMILIES[family]
    (_, src), (target, _) = load_pair(pair)
    diverging = 0
    for mutant in address_mutants(target):
        info = check_kernel(mutant.kernel)
        out = check_equivalence_param(
            src, info, 8, assumption_builder=builder, concretize=concretize,
            options=ParamOptions(timeout=60, bughunt=bughunt))
        if replay_equivalence(src, info, launch, 8).confirmed:
            diverging += 1
            assert out.verdict is not Verdict.VERIFIED, mutant.label
        if out.verdict is Verdict.BUG:
            replay = replay_equivalence(src, info, out.counterexample, 8)
            assert replay.confirmed, (mutant.label, replay.reason)
        if out.verdict is Verdict.VERIFIED:
            assert out.complete, mutant.label
    assert diverging > 0  # the oracle is not vacuous



# ------------------------------------------------------------ race oracle

_TRANSPOSE_RACES = (transpose_assumptions, FAMILIES["Transpose"][2])
_ONE_BLOCK_RACES = (reduction_assumptions, {"bdim": (8, 1, 1),
                                            "gdim": (1, 1)})
_MATMUL_RACES = (None, {"bdim": (2, 2, 1), "gdim": (1, 1),
                        "scalars": {"wA": 2, "wB": 2}})

#: kernel -> (assumption builder, concretization).  The concretization
#: pins the whole launch, so the interpreter runs inside the family.
RACE_FAMILIES = {
    "naiveTranspose": _TRANSPOSE_RACES,
    "optimizedTranspose": _TRANSPOSE_RACES,
    "naiveReduce": _ONE_BLOCK_RACES,
    "optimizedReduce": _ONE_BLOCK_RACES,
    "scanNaive": _ONE_BLOCK_RACES,
    "scanRacy": _ONE_BLOCK_RACES,
    "scalarProd": _ONE_BLOCK_RACES,
    "bitonicSort": _ONE_BLOCK_RACES,
    "naiveMatMul": _MATMUL_RACES,
    "tiledMatMul": _MATMUL_RACES,
}


def _race_launch(concretize: dict) -> Counterexample:
    return Counterexample(bdim=concretize["bdim"], gdim=concretize["gdim"],
                          scalars=dict(concretize.get("scalars", {})))


def test_race_families_cover_the_suite():
    assert set(RACE_FAMILIES) == set(KERNELS)


@pytest.mark.parametrize("name", sorted(RACE_FAMILIES))
def test_no_racing_kernel_or_barrier_mutant_verifies(name):
    builder, concretize = RACE_FAMILIES[name]
    kernel, info = load(name)
    launch = _race_launch(concretize)
    for label, checked in [("kernel", info), *(
            (m.label, check_kernel(m.kernel))
            for m in barrier_mutants(kernel))]:
        out = check_races(checked, 8, assumption_builder=builder,
                          concretize=concretize, timeout=60)
        if replay_race(checked, launch, 8).confirmed:
            assert out.verdict is not Verdict.VERIFIED, label
        if out.verdict is Verdict.BUG:
            replay = replay_race(checked, out.counterexample, 8)
            assert replay.confirmed, (label, replay.reason)


def test_race_oracle_is_not_vacuous():
    racing = sum(
        replay_race(check_kernel(m.kernel),
                    _race_launch(RACE_FAMILIES[name][1]), 8).confirmed
        for name in sorted(RACE_FAMILIES)
        for m in barrier_mutants(load(name)[0]))
    assert racing > 0
