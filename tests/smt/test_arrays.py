"""Unit tests for array elimination (write-chain expansion + Ackermann)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.smt import (
    And, ArrayVar, BVAdd, BVConst, BVMul, BVVar, Eq, Implies, Ite, Kind, Ne,
    Select, Store, ZeroExt, collect, iter_dag,
)
from repro.smt.arrays import eliminate_arrays
from repro.smt.simplify import index_difference
from repro.smt.sorts import ArraySort

a = ArrayVar("aa", 8, 8)
b = ArrayVar("ab", 8, 8)
i = BVVar("ai", 8)
j = BVVar("aj", 8)
v = BVVar("av", 8)


def _has_arrays(terms):
    return any(isinstance(t.sort, ArraySort) or t.kind in (Kind.SELECT, Kind.STORE)
               for root in terms for t in iter_dag(root))


def test_output_is_array_free():
    f = Eq(Select(Store(a, i, v), j), BVConst(0, 8))
    out, info = eliminate_arrays([f])
    assert not _has_arrays(out)
    assert a in info.reads


def test_plain_select_becomes_fresh_var():
    f = Eq(Select(a, i), BVConst(1, 8))
    out, info = eliminate_arrays([f])
    assert len(info.reads[a]) == 1
    idx, var = info.reads[a][0]
    assert idx is i and var.is_var()


def test_same_canonical_index_shares_variable():
    # a[i + j] and a[j + i] are the same read
    f = And(Eq(Select(a, i + j), BVConst(1, 8)),
            Eq(Select(a, j + i), BVConst(1, 8)))
    out, info = eliminate_arrays([f])
    assert len(info.reads[a]) == 1


def test_congruence_constraints_emitted():
    f = Ne(Select(a, i), Select(a, j))
    out, info = eliminate_arrays([f])
    assert len(info.reads[a]) == 2
    # one congruence implication: i = j -> r_i = r_j
    assert len(out) == 2
    impl = out[1]
    assert impl.kind == Kind.IMPLIES


def test_provably_distinct_indices_skip_congruence():
    f = Ne(Select(a, i), Select(a, i + 1))
    out, info = eliminate_arrays([f])
    assert len(info.reads[a]) == 2
    assert len(out) == 1  # no congruence needed


def test_write_chain_expands_to_ite():
    f = Eq(Select(Store(Store(a, i, BVConst(1, 8)), j, BVConst(2, 8)), v),
           BVConst(0, 8))
    out, _ = eliminate_arrays([f])
    # the expansion contains an ite on index equality
    ites = collect(lambda t: t.kind == Kind.ITE, *out)
    assert ites


def test_arrays_kept_separate():
    f = Eq(Select(a, i), Select(b, i))
    out, info = eliminate_arrays([f])
    assert set(info.reads) == {a, b}


def test_extensionality_rejected():
    with pytest.raises(SolverError):
        eliminate_arrays([Eq(a, b)])


def test_select_through_ite_of_arrays():
    p = Eq(i, BVConst(0, 8))
    f = Eq(Select(Ite(p, Store(a, i, v), a), j), BVConst(3, 8))
    out, info = eliminate_arrays([f])
    assert not _has_arrays(out)


def _pairwise_constraints(info):
    """The constraints of the pairwise loop that index classes replace:
    every pair of reads whose index difference is not a constant."""
    out = []
    for pairs in info.reads.values():
        for j, (idx_j, var_j) in enumerate(pairs):
            for idx_k, var_k in pairs[j + 1:]:
                if index_difference(idx_j, idx_k) is None:
                    out.append(Implies(Eq(idx_j, idx_k), Eq(var_j, var_k)))
    return out


def _indices(width):
    hx, hy = BVVar(f"hx{width}", width), BVVar(f"hy{width}", width)
    atoms = [hx, hy, ZeroExt(BVVar(f"hn{width}", width // 2), width // 2)]
    c = st.integers(0, (1 << width) - 1).map(lambda k: BVConst(k, width))
    atom = st.sampled_from(atoms)
    return st.one_of(
        c,
        st.builds(BVAdd, atom, c),
        st.builds(lambda t, k: BVAdd(BVMul(BVConst(2, width), t), k), atom, c),
        st.builds(lambda t, u, k: BVAdd(BVMul(t, u), k), atom, atom, c))


_a16 = ArrayVar("ha16", 16, 8)


@settings(max_examples=150, deadline=None)
@given(st.lists(_indices(8), min_size=1, max_size=8),
       st.lists(_indices(16), max_size=8))
def test_index_classes_emit_the_pairwise_constraints(narrow, wide):
    """Bucketing reads by the non-constant part of their index polynomial
    emits exactly the pairwise loop's constraints, in its order."""
    reads = [Select(a, k) for k in narrow] + [Select(_a16, k) for k in wide]
    query = [Eq(r, BVConst(n, 8)) for n, r in enumerate(reads)]
    out, info = eliminate_arrays(query)
    assert out[len(query):] == _pairwise_constraints(info)
