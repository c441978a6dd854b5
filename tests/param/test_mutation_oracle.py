"""The mutation corpus as a standing soundness oracle.

Every address mutant of the Transpose and Reduction targets is checked
against its source kernel by the parameterized checker, in bughunt and in
full mode, and against the reference interpreter (``lang/interp.py``, via
``check/replay.py``) at one launch the checked configuration family covers.
A mutant the interpreter shows diverging must never come back VERIFIED, and
every BUG the checker reports must replay.
"""

import pytest

from repro.check.configs import reduction_assumptions, transpose_assumptions
from repro.check.replay import replay_equivalence
from repro.check.result import Counterexample, Verdict
from repro.kernels import address_mutants, load_pair
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

