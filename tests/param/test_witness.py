"""Unit tests for witness derivation (the constructive quantifier
elimination replacing Section IV-D's monotone argument)."""

from repro.param.geometry import Geometry, ThreadInstance
from repro.param.witness import solve_addr_match
from repro.smt import (
    And, BVAdd, BVConst, BVMul, BVVar, CheckResult, Eq, Not, Solver,
    substitute,
)


def setup():
    geo = Geometry.create(8)
    th = ThreadInstance.fresh(geo, "tw")
    return geo, th


def prove(premises, obligations):
    s = Solver()
    s.add(*premises, Not(And(*obligations)))
    return s.check() is CheckResult.UNSAT


class TestLinearShapes:
    def test_coefficient_one(self):
        geo, th = setup()
        a = BVVar("tw.a", 8)
        wit = solve_addr_match((BVAdd(th.tid["x"], BVConst(3, 8)),), (a,),
                               th, geo)
        assert wit is not None
        # witness: tid.x = a - 3; check the equation obligation is provable
        assert prove([], wit.obligations)

    def test_constant_stride(self):
        geo, th = setup()
        a = BVVar("tw.b", 8)
        wit = solve_addr_match((BVMul(BVConst(4, 8), th.tid["x"]),), (a,),
                               th, geo)
        assert wit is not None
        # obligations include divisibility: only provable given 4 | a
        assert not prove([], wit.obligations)
        assert prove([Eq(a, BVConst(8, 8))], wit.obligations)

    def test_symbolic_stride(self):
        geo, th = setup()
        k = BVVar("tw.k", 8)
        a = BVVar("tw.c", 8)
        wit = solve_addr_match((BVMul(k, th.tid["x"]),), (a,), th, geo)
        assert wit is not None
        # provable when a is a known multiple of a nonzero k
        assert prove([Eq(a, BVMul(k, BVConst(3, 8))),
                      Eq(k, BVConst(2, 8))], wit.obligations)

    def test_componentwise(self):
        geo, th = setup()
        a = BVVar("tw.d1", 8)
        b = BVVar("tw.d2", 8)
        wit = solve_addr_match((th.tid["y"], th.tid["x"]), (a, b), th, geo)
        assert wit is not None
        assert wit.substitution[th.tid["y"]] is a
        assert wit.substitution[th.tid["x"]] is b

    def test_unsupported_quadratic(self):
        geo, th = setup()
        a = BVVar("tw.e", 8)
        t = th.tid["x"]
        assert solve_addr_match((BVMul(t, t),), (a,), th, geo) is None


class TestMixedRadix:
    def test_global_index(self):
        geo, th = setup()
        a = BVVar("tw.f", 8)
        gidx = BVAdd(BVMul(th.bid["x"], geo.bdim["x"]), th.tid["x"])
        wit = solve_addr_match((gidx,), (a,), th, geo)
        assert wit is not None
        # tid.x = a % bdim.x, bid.x = a / bdim.x; re-check holds always
        assert prove([], wit.obligations)
        # the witness's tid is automatically valid (urem < bdim for bdim>=1)
        tid_valid = substitute(th.validity(), wit.substitution)
        # under base assumptions and bid-validity premise of the cell
        from repro.smt import ULt, BVMul as Mul, ZeroExt
        premises = geo.base_assumptions() + [
            ULt(ZeroExt(a, 8), Mul(ZeroExt(geo.bdim["x"], 8),
                                   ZeroExt(geo.gdim["x"], 8)))]
        assert prove(premises, [tid_valid])

    def test_row_major_2d(self):
        """The transpose shape: u + height*v with u,v themselves global
        indices — the full two-level mixed radix."""
        geo, th = setup()
        height = BVVar("tw.h", 8)
        a = BVVar("tw.g", 8)
        u = BVAdd(BVMul(th.bid["y"], geo.bdim["y"]), th.tid["y"])
        v = BVAdd(BVMul(th.bid["x"], geo.bdim["x"]), th.tid["x"])
        addr = BVAdd(u, BVMul(height, v))
        wit = solve_addr_match((addr,), (a,), th, geo)
        assert wit is not None
        assert set(wit.substitution) >= {th.tid["x"], th.tid["y"],
                                         th.bid["x"], th.bid["y"]}
        # The quotient identity folds these obligations in the simplifier
        # (without it they ran past 20k conflicts); the conflict budget
        # turns a regression into a failure instead of a runaway test.
        s = Solver(conflict_budget=5_000)
        s.add(Not(And(*wit.obligations)))
        assert s.check() is CheckResult.UNSAT

    def test_cross_axis_pairing(self):
        """The optimized transpose writes with bid.y*bdim.y + tid.x."""
        geo, th = setup()
        a = BVVar("tw.i", 8)
        swapped = BVAdd(BVMul(th.bid["y"], geo.bdim["y"]), th.tid["x"])
        wit = solve_addr_match((swapped,), (a,), th, geo)
        assert wit is not None
        assert prove([], wit.obligations)

    def test_borrowed_bid_not_solved(self):
        geo, reader = setup()
        th = ThreadInstance.fresh(geo, "twb", bid=reader.bid)
        a = BVVar("tw.j", 8)
        # address mentions the (borrowed) bid: it is a constant of the
        # equation, not an unknown
        addr = BVAdd(BVMul(th.bid["x"], geo.bdim["x"]), th.tid["x"])
        wit = solve_addr_match((addr,), (a,), th, geo)
        assert wit is not None
        assert th.bid["x"] not in wit.substitution or \
            wit.substitution[th.bid["x"]] is th.bid["x"]
        assert th.tid["x"] in wit.substitution


class TestDefaults:
    def test_unused_axes_zeroed(self):
        geo, th = setup()
        a = BVVar("tw.k2", 8)
        wit = solve_addr_match((th.tid["x"],), (a,), th, geo)
        assert wit is not None
        assert wit.substitution[th.tid["z"]].value == 0
        assert wit.substitution[th.bid["y"]].value == 0
