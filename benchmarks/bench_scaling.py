"""Scaling benchmarks: the blow-up narratives behind the paper's tables.

* **non-parameterized encoding growth** — formula size (distinct DAG nodes
  and CNF clauses) of the serialized transpose as n grows: the store/ite
  chains mention every thread, which is exactly why the n-columns of
  Tables II/III explode while the parameterized encoding stays flat;
* **branch-heavy kernels** — the bitonic-sort remark ("will cause blow-up
  when the thread number is greater than 8" for GKLEE-style concrete-thread
  analyses): encoding cost vs. n for the most branch-heavy kernel in the
  suite.
"""

from __future__ import annotations

import pytest

from repro.encode.nonparam import encode_kernel
from repro.kernels import load
from repro.lang import LaunchConfig
from repro.smt import ArrayVar, BVConst, BVVar, Select, term_size
from repro.smt.arrays import eliminate_arrays
from repro.smt.simplify import QueryMemo, simplify


def _encode_size(name: str, config: LaunchConfig,
                 scalar_values: dict[str, int]) -> dict[str, int]:
    _, info = load(name)
    width = config.width
    inputs = {p: BVConst(scalar_values[p], width) if p in scalar_values
              else BVVar(f"sc.{p}", width) for p in info.scalar_params}
    arrays = {a: ArrayVar(f"sc.{a}", width, width)
              for a in info.global_arrays}
    model = encode_kernel(info, config, inputs, arrays)
    cell = BVVar("sc.cell", width)
    outputs = [Select(arr, cell) for arr in model.final_globals.values()]
    raw = term_size(*outputs)
    # The outputs are bit-vector terms, not assertions: simplify them one
    # by one, sharing the caches.
    memo = QueryMemo()
    cache: dict = {}
    flat, _ = eliminate_arrays([simplify(t, cache, memo=memo)
                                for t in outputs], memo.polys)
    cache = {}
    flat = [simplify(t, cache, memo=memo) for t in flat]
    reduced = term_size(*flat) if flat else 0
    return {"raw_nodes": raw, "reduced_nodes": reduced}


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_nonparam_transpose_growth(benchmark, n):
    sizes = benchmark.pedantic(
        lambda: _encode_size(
            "naiveTranspose",
            LaunchConfig(bdim=(n, n, 1), width=8),
            {"width": n, "height": n}),
        rounds=1, iterations=1)
    # The serialized encoding must mention every thread: growth is at least
    # linear in the thread count n*n.
    assert sizes["raw_nodes"] >= n * n


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_bitonic_encoding_growth(benchmark, n):
    """Branch-heavy scaling (log^2 n rounds, data-dependent swaps)."""
    sizes = benchmark.pedantic(
        lambda: _encode_size("bitonicSort",
                             LaunchConfig(bdim=(n, 1, 1), width=8), {}),
        rounds=1, iterations=1)
    assert sizes["raw_nodes"] > 0


def test_param_model_size_is_n_independent(benchmark):
    """The parameterized model of the same kernel has constant size — the
    whole point of Section IV."""
    from repro.param.ca import extract_model
    from repro.param.geometry import Geometry

    def build():
        _, info = load("naiveTranspose")
        geo = Geometry.create(8)
        inputs = {p: BVVar(f"sp.{p}", 8) for p in info.scalar_params}
        model = extract_model(info, geo, inputs, hint="sp")
        (ca,) = model.segments[0].cas
        return term_size(ca.guard, ca.value, *ca.address)

    size = benchmark.pedantic(build, rounds=1, iterations=1)
    # one symbolic thread: a few dozen nodes, regardless of any n
    assert size < 100
