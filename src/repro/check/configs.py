"""Canonical "valid configuration" assumption builders for the kernel suite.

Section IV-B: optimized kernels are designed under implicit configuration
assumptions — the transpose tile needs a square block, the tree reductions
need power-of-two block sizes — and PUGpara "helps reveal hidden
assumptions": dropping one of these from the builder turns the equivalence
check into the paper's ``*`` rows (a real, replayable counterexample).

Each builder has signature ``(geometry, scalar_inputs) -> list[Term]`` as
expected by the checkers.

Builders return plain assertions appended *after* the kernel's encoding,
never anything that changes the encoding itself — that contract is what
lets the VC template cache (:mod:`repro.encode.templates`) run symexec
once per (kernel, check, width) and specialize the result for every
assumption suite and concretization cell of a configuration sweep.
"""

from __future__ import annotations

from ..smt import Eq, Term
from ..param.geometry import Geometry

__all__ = ["SUITE_PAIRS", "transpose_assumptions", "reduction_assumptions",
           "suite_assumptions"]


def transpose_assumptions(geometry: Geometry,
                          inputs: dict[str, Term],
                          square: bool = True) -> list[Term]:
    """Valid configurations of the Transpose pair: the grid covers a
    ``width x height`` matrix without address wraparound, blocks are 2-D
    (``bdim.z = 1``) and — unless ``square=False`` (the paper's ``*`` rows) —
    square."""
    out = [
        geometry.covering(inputs["width"], "x"),
        geometry.covering(inputs["height"], "y"),
        geometry.extent_fits(inputs["width"], inputs["height"]),
        Eq(geometry.bdim["z"], 1),
    ]
    if square:
        out.append(geometry.square_block())
    return out


def reduction_assumptions(geometry: Geometry,
                          inputs: dict[str, Term],
                          pow2: bool = True) -> list[Term]:
    """Valid configurations of the Reduction pair: one 1-D block whose size
    is a power of two (the tree reduction's implicit assumption), small
    enough that the strided index ``2*k*tid`` cannot wrap the machine word
    (``bdim^2 <= 2^width`` — at 8 bits that allows blocks up to 16; without
    it the kernel genuinely races through address wraparound)."""
    from ..smt import BVConst, ULe
    # bdim^2 <= 2^width, expressed as the equivalent constant bound
    # bdim <= 2^(width/2): for power-of-two block sizes the two are
    # identical, and the constant compare keeps every reduction VC free of
    # double-width symbolic multiplication.
    bound = 1 << (geometry.width // 2)
    out = [geometry.one_dimensional(), geometry.single_block(),
           ULe(geometry.bdim["x"], BVConst(bound, geometry.width))]
    if pow2:
        out.append(geometry.pow2_bdim())
    return out


#: The suite pairs with a registered assumption builder, by name.
SUITE_PAIRS = {"Reduction": reduction_assumptions,
               "Transpose": transpose_assumptions}


def suite_assumptions(pair_name: str):
    """The assumption builder registered for a suite pair (by name); an
    unknown name raises ``KeyError``, never drops the assumptions."""
    return SUITE_PAIRS[pair_name]
