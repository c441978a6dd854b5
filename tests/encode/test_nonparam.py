"""Tests for the non-parameterized (Section III) encoder, including the
differential test pinning the symbolic encoding to the reference
interpreter on random inputs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EncodingError
from repro.encode.nonparam import concretize_inputs, encode_kernel
from repro.kernels import load
from repro.lang import LaunchConfig, check_kernel, parse_kernel, run_kernel
from repro.smt import (
    ArrayVar, BVConst, BVVar, CheckResult, Eq, Ne, Select, Solver, evaluate,
)


def encode(src_or_name, config, scalar_names=("n",)):
    from repro.kernels import KERNELS
    if src_or_name in KERNELS:
        _, info = load(src_or_name)
    else:
        info = check_kernel(parse_kernel(src_or_name))
    inputs = {p: BVVar(f"tn.{p}", config.width) for p in info.scalar_params}
    arrays = {a: ArrayVar(f"tn.{a}", config.width, config.width)
              for a in info.global_arrays}
    return info, encode_kernel(info, config, inputs, arrays), inputs, arrays


SIMPLE = """
void f(int *o) {
  o[tid.x] = tid.x + bid.x * bdim.x;
}
"""


class TestBasics:
    def test_final_globals_present(self):
        cfg = LaunchConfig(bdim=(4, 1, 1), width=8)
        _, model, _, arrays = encode(SIMPLE, cfg)
        assert set(model.final_globals) == {"o"}

    def test_concrete_cells_fold(self):
        cfg = LaunchConfig(bdim=(4, 1, 1), width=8)
        _, model, _, _ = encode(SIMPLE, cfg)
        from repro.smt import simplify
        for i in range(4):
            cell = simplify(Select(model.final_globals["o"], BVConst(i, 8)))
            assert cell.value == i

    def test_rounds_counted(self):
        src = "void f(int *o) { __syncthreads(); o[tid.x] = 1; }"
        cfg = LaunchConfig(bdim=(2, 1, 1), width=8)
        _, model, _, _ = encode(src, cfg)
        assert model.rounds == 2

    def test_missing_scalar_raises(self):
        info = check_kernel(parse_kernel("void f(int n) { }"))
        with pytest.raises(EncodingError):
            encode_kernel(info, LaunchConfig(width=8), {}, {})

    def test_symbolic_loop_bound_rejected(self):
        src = "void f(int *o, int n) { for (int i = 0; i < n; i++) { o[i] = 1; } }"
        with pytest.raises(EncodingError, match="symbolic"):
            encode(src, LaunchConfig(bdim=(1, 1, 1), width=8))

    def test_loop_over_bdim_unrolls(self):
        src = """void f(int *o) {
            int s = 0;
            for (int i = 0; i < bdim.x; i++) { s += i; }
            o[tid.x] = s;
        }"""
        cfg = LaunchConfig(bdim=(4, 1, 1), width=8)
        _, model, _, _ = encode(src, cfg)
        from repro.smt import simplify
        cell = simplify(Select(model.final_globals["o"], BVConst(0, 8)))
        assert cell.value == 0 + 1 + 2 + 3

    def test_assert_collected(self):
        src = "void f(int n) { assert(n < 10); }"
        _, model, _, _ = encode(src, LaunchConfig(bdim=(2, 1, 1), width=8))
        assert len(model.asserts) == 2  # one per thread

    def test_assume_collected(self):
        src = "void f(int n) { assume(n < 10); }"
        _, model, _, _ = encode(src, LaunchConfig(bdim=(2, 1, 1), width=8))
        assert len(model.assumes) == 2

    def test_concretize_inputs_constraints(self):
        cfg = LaunchConfig(bdim=(2, 1, 1), width=8)
        _, model, _, _ = encode(SIMPLE, cfg)
        cons = concretize_inputs(model, extent=3)
        assert len(cons) == 3


class TestSymbolicBranching:
    def test_branch_on_symbolic_scalar(self):
        src = """void f(int *o, int n) {
            if (n < 10) { o[tid.x] = 1; } else { o[tid.x] = 2; }
        }"""
        cfg = LaunchConfig(bdim=(1, 1, 1), width=8)
        _, model, inputs, _ = encode(src, cfg)
        solver = Solver()
        solver.add(Eq(inputs["n"], 3),
                   Eq(Select(model.final_globals["o"], BVConst(0, 8)), 2))
        assert solver.check() is CheckResult.UNSAT  # n=3 -> o[0]=1

    def test_shared_memory_roundtrip(self):
        src = """void f(int *o, int n) {
            __shared__ int s[bdim.x];
            s[tid.x] = n + tid.x;
            __syncthreads();
            o[tid.x] = s[bdim.x - 1 - tid.x];
        }"""
        cfg = LaunchConfig(bdim=(2, 1, 1), width=8)
        _, model, inputs, _ = encode(src, cfg)
        solver = Solver()
        # o[0] must equal n + 1 for every n
        from repro.smt import Ne, BVAdd
        solver.add(Ne(Select(model.final_globals["o"], BVConst(0, 8)),
                      BVAdd(inputs["n"], BVConst(1, 8))))
        assert solver.check() is CheckResult.UNSAT


class TestSuiteKernels:
    @pytest.mark.parametrize("name,cfg,inputs", [
        ("naiveTranspose", LaunchConfig(bdim=(2, 2, 1), width=8),
         {"width": 2, "height": 2}),
        ("naiveReduce", LaunchConfig(bdim=(4, 1, 1), width=8), {}),
        ("scanNaive", LaunchConfig(bdim=(4, 1, 1), width=8), {}),
        ("bitonicSort", LaunchConfig(bdim=(4, 1, 1), width=8), {}),
    ])
    def test_encodes(self, name, cfg, inputs):
        _, model, _, _ = encode(name, cfg)
        assert model.final_globals


def _interp_outputs(info, cfg, scalar_vals, array_vals):
    result = run_kernel(info, cfg, {**scalar_vals, **array_vals},
                        check_races=False)
    return result.globals


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_encoder_agrees_with_interpreter(data):
    """Differential test: for random small configs and inputs, pinning the
    encoder's inputs must force the encoder's outputs to the interpreter's:
    the interpreter's outputs are consistent with the pinned inputs (SAT),
    and a drawn output cell can take no other value (UNSAT)."""
    name = data.draw(st.sampled_from(
        ["naiveTranspose", "optimizedTranspose", "naiveReduce",
         "optimizedReduce", "scanNaive", "bitonicSort"]))
    n = data.draw(st.sampled_from([2, 4]))
    if name.endswith("Transpose"):
        cfg = LaunchConfig(bdim=(n, n, 1), width=8)
        scalar_vals = {"width": n, "height": n}
        extent = n * n
    else:
        cfg = LaunchConfig(bdim=(n, 1, 1), width=8)
        scalar_vals = {}
        extent = n
    info, model, inputs, arrays = encode(name, cfg)
    array_vals = {}
    for a in info.global_arrays:
        array_vals[a] = {i: data.draw(st.integers(0, 255))
                         for i in range(extent)}
    expected = _interp_outputs(info, cfg, scalar_vals, array_vals)

    def expect(a, i):
        return BVConst(expected[a].get(i, array_vals[a].get(i, 0)), 8)

    pins = [Eq(var, BVConst(scalar_vals[p], 8)) for p, var in inputs.items()]
    for a, var in arrays.items():
        pins += [Eq(Select(var, BVConst(i, 8)), BVConst(v, 8))
                 for i, v in array_vals[a].items()]
    # outputs pinned to the interpreter's results must be SAT...
    solver = Solver(validate_models=True)
    solver.add(*pins)
    for a, final in model.final_globals.items():
        for i in range(extent):
            solver.add(Eq(Select(final, BVConst(i, 8)), expect(a, i)))
    assert solver.check() is CheckResult.SAT
    # ...and no other value of a drawn output cell is possible.
    a = data.draw(st.sampled_from(sorted(model.final_globals)))
    i = data.draw(st.integers(0, extent - 1))
    solver = Solver()
    solver.add(*pins)
    solver.add(Ne(Select(model.final_globals[a], BVConst(i, 8)),
                  expect(a, i)))
    assert solver.check() is CheckResult.UNSAT
