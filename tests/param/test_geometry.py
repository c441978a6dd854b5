"""Unit tests for the symbolic geometry and thread instances."""

from repro.param.geometry import Geometry, ThreadInstance, pow2
from repro.smt import CheckResult, Eq, Solver, evaluate, is_satisfiable, Not


def test_geometry_vars_exist():
    g = Geometry.create(8)
    assert g.bdim["x"].width == 8
    assert set(g.gdim) == {"x", "y"}


def test_base_assumptions_positive_dims():
    g = Geometry.create(8)
    s = Solver()
    s.add(*g.base_assumptions(), Eq(g.bdim["x"], 0))
    assert s.check() is CheckResult.UNSAT


def test_pow2_predicate():
    g = Geometry.create(8)
    for v, expect in [(1, True), (2, True), (64, True), (0, False),
                      (3, False), (6, False)]:
        assert evaluate(pow2(g.bdim["x"]), {g.bdim["x"]: v}) is expect


def test_square_block_and_concretize():
    g = Geometry.create(8)
    s = Solver()
    s.add(g.square_block(),
          *g.concretize({"bdim": (4, 2, 1), "gdim": (1, 1)}, {}))
    assert s.check() is CheckResult.UNSAT  # 4 != 2


def test_covering_is_overflow_safe():
    g = Geometry.create(8)
    width = g.bdim["x"]  # reuse any var as the scalar for the test
    from repro.smt import BVVar
    w = BVVar("cov.w", 8)
    # gdim.x = bdim.x = 16: true product 256 wraps to 0 in 8 bits; the
    # covering constraint must NOT accept w = 0.
    s = Solver()
    s.add(g.covering(w, "x"), Eq(g.gdim["x"], 16), Eq(g.bdim["x"], 16),
          Eq(w, 0))
    assert s.check() is CheckResult.UNSAT


def test_extent_fits():
    g = Geometry.create(8)
    from repro.smt import BVVar
    a, b = BVVar("ef.a", 8), BVVar("ef.b", 8)
    s = Solver()
    s.add(g.extent_fits(a, b), Eq(a, 32), Eq(b, 32))  # 1024 > 256
    assert s.check() is CheckResult.UNSAT
    s2 = Solver()
    s2.add(g.extent_fits(a, b), Eq(a, 16), Eq(b, 16))  # exactly 256: ok
    assert s2.check() is CheckResult.SAT


class TestThreadInstance:
    def test_fresh_instances_distinct(self):
        g = Geometry.create(8)
        t1 = ThreadInstance.fresh(g, "a")
        t2 = ThreadInstance.fresh(g, "a")
        assert t1.tid["x"] is not t2.tid["x"]
        assert t1.bid["x"] is not t2.bid["x"]

    def test_borrowed_bid(self):
        g = Geometry.create(8)
        t1 = ThreadInstance.fresh(g, "a")
        t2 = ThreadInstance.fresh(g, "b", bid=t1.bid)
        assert t2.bid["x"] is t1.bid["x"]
        assert t2.borrowed_bid
        assert t1.bid["x"] not in t2.unknown_vars()
        assert t2.tid["x"] in t2.unknown_vars()

    def test_validity_bounds_coordinates(self):
        g = Geometry.create(8)
        t = ThreadInstance.fresh(g, "v")
        s = Solver()
        s.add(t.validity(), Eq(g.bdim["x"], 4), Eq(t.tid["x"], 4))
        assert s.check() is CheckResult.UNSAT

    def test_renaming(self):
        g = Geometry.create(8)
        t1 = ThreadInstance.fresh(g, "a")
        t2 = ThreadInstance.fresh(g, "b")
        sub = t1.renaming(t2)
        assert sub[t1.tid["x"]] is t2.tid["x"]
        assert sub[t1.bid["y"]] is t2.bid["y"]
        assert len(sub) == 5
