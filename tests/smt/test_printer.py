"""Unit tests for the infix printer."""

from repro.smt import ArrayVar, BVAdd, BVVar, Ite, Select, Store, ULt, to_str

x = BVVar("prx", 8)
y = BVVar("pry", 8)


def test_to_str_renders_infix():
    s = to_str(BVAdd(x, y))
    assert "prx" in s and "pry" in s and "+" in s


def test_to_str_select_store():
    a = ArrayVar("pra", 8, 8)
    assert "[" in to_str(Select(a, x))
    assert ":=" in to_str(Store(a, x, y))


def test_to_str_depth_cutoff():
    t = x
    for _ in range(40):
        t = BVAdd(t, y) if t.args else BVAdd(x, y)
        t = Ite(ULt(x, y), t, y)
    assert "..." in to_str(t, max_depth=4)

