"""Symbolic thread geometry for the parameterized encoding.

In the parameterized method only *one* thread is modeled (Section IV): the
block and grid dimensions are free bit-vector variables, and each
instantiation of a conditional assignment gets a *fresh* symbolic thread —
fresh ``tid``/``bid`` variables constrained to be valid coordinates.  This
module owns those variables and the standard "valid configuration"
assumptions of Section IV-B (square blocks, covering grids, power-of-two
block sizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..smt import (
    And, BVConst, BVMul, BVVar, Eq, Ne, Term, TRUE, ULt, UGe, fresh_name,
)
from ..smt.terms import BVAnd, BVSub

__all__ = ["Geometry", "ThreadInstance", "pow2"]

_AXES3 = ("x", "y", "z")
_AXES2 = ("x", "y")


def pow2(t: Term) -> Term:
    """``t`` is a power of two: ``t != 0 and t & (t - 1) == 0``."""
    one = BVConst(1, t.sort.width)
    return And(Ne(t, 0), Eq(BVAnd(t, BVSub(t, one)), 0))


@dataclass(frozen=True)
class Geometry:
    """The symbolic launch geometry: ``bdim``/``gdim`` as free variables.

    ``width`` is the machine word width (the paper's 8/12/16/32-bit runs).
    All kernels of one equivalence query share one geometry.
    """

    width: int
    bdim: dict[str, Term] = field(default_factory=dict)
    gdim: dict[str, Term] = field(default_factory=dict)

    @classmethod
    def create(cls, width: int) -> "Geometry":
        bdim = {a: BVVar(f"bdim.{a}", width) for a in _AXES3}
        gdim = {a: BVVar(f"gdim.{a}", width) for a in _AXES2}
        return cls(width=width, bdim=bdim, gdim=gdim)

    def base_assumptions(self) -> list[Term]:
        """Dimensions are positive (CUDA guarantees >= 1)."""
        out = [UGe(v, 1) for v in self.bdim.values()]
        out += [UGe(v, 1) for v in self.gdim.values()]
        return out

    # -- the "valid configuration" vocabulary -------------------------------

    def square_block(self) -> Term:
        return Eq(self.bdim["x"], self.bdim["y"])

    def pow2_bdim(self) -> Term:
        return pow2(self.bdim["x"])

    def covering(self, scalar: Term, axis: str) -> Term:
        """``scalar == gdim.axis * bdim.axis`` without wraparound — the grid
        exactly covers the extent named by ``scalar`` (e.g. width/height for
        transpose).  The product is computed at double width so that a
        configuration whose geometry overflows the machine word does not
        masquerade as covering."""
        from ..smt import ZeroExt
        w = self.width
        return Eq(ZeroExt(scalar, w),
                  BVMul(ZeroExt(self.gdim[axis], w),
                        ZeroExt(self.bdim[axis], w)))

    def extent_fits(self, a: Term, b: Term) -> Term:
        """``a * b <= 2**width`` (no wraparound): the flattened index space
        ``[0, a*b)`` is injective in machine words.  Required for the
        row-major address maps of the 2-D kernels to be collision-free —
        without it, distinct logical cells alias and the kernels race."""
        from ..smt import ULe, ZeroExt, BVConst
        w = self.width
        prod = BVMul(ZeroExt(a, w), ZeroExt(b, w))
        return ULe(prod, BVConst(1 << w, 2 * w))

    def one_dimensional(self) -> Term:
        """Restrict to 1-D launches: bdim.y = bdim.z = gdim.y = 1."""
        return And(Eq(self.bdim["y"], 1), Eq(self.bdim["z"], 1),
                   Eq(self.gdim["y"], 1))

    def single_block(self) -> Term:
        return And(Eq(self.gdim["x"], 1), Eq(self.gdim["y"], 1))

    def concretize(self, pins: dict | None,
                   inputs: dict[str, Term]) -> list[Term]:
        """The paper's ``+C.`` flag: pin the geometry and scalar inputs to
        concrete values.  ``pins`` is the checkers' ``concretize`` mapping
        (optional ``"bdim"``, ``"gdim"`` tuples and a ``"scalars"`` dict of
        input name to value); ``inputs`` maps scalar names to variables."""
        if not pins:
            return []
        out = [Eq(self.bdim[a], v)
               for a, v in zip(_AXES3, pins.get("bdim") or ())]
        out += [Eq(self.gdim[a], v)
                for a, v in zip(_AXES2, pins.get("gdim") or ())]
        out += [Eq(inputs[name], v)
                for name, v in (pins.get("scalars") or {}).items()]
        return out


@dataclass(frozen=True)
class ThreadInstance:
    """One fresh symbolic thread: its coordinate variables plus validity.

    ``shared_bid`` instantiation reuses a given block id (reads/writes of
    ``__shared__`` arrays can only match within one block).
    """

    tid: dict[str, Term]
    bid: dict[str, Term]
    geometry: Geometry
    borrowed_bid: bool = False

    @classmethod
    def fresh(cls, geometry: Geometry, hint: str,
              bid: dict[str, Term] | None = None) -> "ThreadInstance":
        name = fresh_name(hint)
        tid = {a: BVVar(f"{name}.tid.{a}", geometry.width) for a in _AXES3}
        borrowed = bid is not None
        if bid is None:
            bid = {a: BVVar(f"{name}.bid.{a}", geometry.width) for a in _AXES2}
        return cls(tid=tid, bid=bid, geometry=geometry, borrowed_bid=borrowed)

    def validity(self) -> Term:
        """``tid.* < bdim.*`` and ``bid.* < gdim.*`` (the always-true
        coordinate constraints from Section II)."""
        geo = self.geometry
        parts = [ULt(self.tid[a], geo.bdim[a]) for a in _AXES3]
        parts += [ULt(self.bid[a], geo.gdim[a]) for a in _AXES2]
        return And(*parts)

    def axis_vars(self) -> list[Term]:
        return [*self.tid.values(), *self.bid.values()]

    def unknown_vars(self) -> list[Term]:
        """The coordinates a witness solver may assign: a borrowed block id
        belongs to the reader and is *not* solvable."""
        if self.borrowed_bid:
            return list(self.tid.values())
        return self.axis_vars()

    def renaming(self, other: "ThreadInstance") -> dict[Term, Term]:
        """Substitution mapping this thread's coordinates to ``other``'s."""
        out: dict[Term, Term] = {}
        for a in _AXES3:
            out[self.tid[a]] = other.tid[a]
        for a in _AXES2:
            out[self.bid[a]] = other.bid[a]
        return out
