"""Differential test: the compiled interpreter against the tree walker it
replaced (``tree_walker.py``).

Both run every suite kernel and every address, guard and barrier mutant of
it, plus small kernels that reach every operator and fault, over 1-D and
2-D blocks, single- and multi-block grids, widths 8 and 32, both shared
fills of counterexample replay, and with race checking on and off.  A run
must give an equal :class:`ExecResult` (memory, scalars, races in order,
assertion failures, rounds) or raise the same exception with the same
text; on the kernels with postconditions, ``check_postconditions`` must
return the same violations.
"""

import dataclasses

import pytest

from repro.check.replay import _pattern_fill
from repro.kernels import (
    KERNELS, address_mutants, barrier_mutants, guard_mutants, load,
)
from repro.lang import LaunchConfig, check_kernel, parse_kernel
from repro.lang import interp

from . import tree_walker

CONFIGS = (
    LaunchConfig(bdim=(8, 1, 1), gdim=(1, 1), width=8),
    LaunchConfig(bdim=(4, 1, 1), gdim=(2, 1), width=32),
    LaunchConfig(bdim=(2, 2, 1), gdim=(2, 2), width=32),
    LaunchConfig(bdim=(4, 2, 1), gdim=(1, 2), width=8),
)

#: Free postcondition variables of the suite, enumerated over a small range.
BOUNDS = {"i": range(6), "j": range(6)}

#: Kernels that reach what the suite does not: every operator, compound
#: assignment, short-circuiting over a fault, folded and thread-dependent
#: branches, 3-D thread ids, and each fault the interpreter raises.
EXTRA = {
    "operators": """void f(int *o, int *a, int n) {
        int x = a[tid.x] + n;
        int y = a[tid.x + 1];
        o[tid.x * 24 + 0] = x + y;  o[tid.x * 24 + 1] = x - y;
        o[tid.x * 24 + 2] = x * y;  o[tid.x * 24 + 3] = x / y;
        o[tid.x * 24 + 4] = x % y;  o[tid.x * 24 + 5] = x << y;
        o[tid.x * 24 + 6] = x >> y; o[tid.x * 24 + 7] = x & y;
        o[tid.x * 24 + 8] = x | y;  o[tid.x * 24 + 9] = x ^ y;
        o[tid.x * 24 + 10] = x == y; o[tid.x * 24 + 11] = x != y;
        o[tid.x * 24 + 12] = x < y;  o[tid.x * 24 + 13] = x <= y;
        o[tid.x * 24 + 14] = x > y;  o[tid.x * 24 + 15] = x >= y;
        o[tid.x * 24 + 16] = -x;     o[tid.x * 24 + 17] = ~x;
        o[tid.x * 24 + 18] = !x;     o[tid.x * 24 + 19] = x < y ? x : y;
        o[tid.x * 24 + 20] = min(x, y) + max(x, 3);
        o[tid.x * 24 + 21] = (x && y) + (x || y) * 2;
        o[tid.x * 24 + 22] = 7 / 0 + 7 % 0 + (1 << 40) + (n >> 33)
            + (x << 8) + (x << 32) + (x >> 8) + (x >> 32);
        o[tid.x * 24 + 23] = bdim.x * gdim.y - 3 + (2 - tid.x);
    }""",
    "compound": """void f(int *o, int n) {
        __shared__ int s[bdim.x][2];
        s[tid.x][0] = tid.x;
        s[tid.x][0] += n; s[tid.x][0] -= 1; s[tid.x][0] *= 3;
        s[tid.x][0] /= 2; s[tid.x][0] %= 5; s[tid.x][0] <<= 2;
        s[tid.x][0] >>= 1; s[tid.x][0] &= 6; s[tid.x][0] |= 8;
        s[tid.x][0] ^= n;
        s[tid.x][1] >>= 1;
        int k = n;
        k += tid.x; k++;
        __syncthreads();
        o[tid.x] = s[(tid.x + 1) % bdim.x][0] + k;
        o[tid.x + 8] = s[tid.x][1];
    }""",
    "short_circuit": """void f(int *o, int n) {
        int u;
        if (n > 100 && u > 0) { o[0] = 1; }
        if (n < 100 || u > 0) { o[1] = 2; }
        if (0 && u) { o[2] = 3; }
        if (1 || u) { o[3] = 4; }
        o[4 + tid.x] = n > 100 ? u : n;
        if (n > 100) { o[9] = bid.z + gdim.z; }
    }""",
    "barrier_loops": """void f(int *o, int *a, int n) {
        __shared__ int s[bdim.x * bdim.y * bdim.z];
        int me = (tid.z * bdim.y + tid.y) * bdim.x + tid.x;
        s[me] = a[me];
        __syncthreads();
        for (int k = 1; k < bdim.x * bdim.y * bdim.z; k = k * 2) {
            if (me % (2 * k) == 0) { s[me] += s[me + k]; }
            __syncthreads();
        }
        if (n > 0) { __syncthreads(); } else { o[63] = 1; }
        if (1) { __syncthreads(); }
        { __syncthreads(); }
        assert(s[me] < 200);
        if (me == 0) { o[bid.y * gdim.x + bid.x] = s[0]; }
    }""",
    "uninitialized_read": "void f(int *o) { int x; o[tid.x] = x; }",
    "blockIdx_z": "void f(int *o) { o[tid.x] = bid.z; }",
    "gridDim_z": "void f(int *o) { o[tid.x] = gdim.z; }",
    "assume": "void f(int *o, int n) { assume(n != 4); o[tid.x] = n; }",
    "out_of_bounds": """void f(int *o) {
        __shared__ int s[bdim.x];
        s[tid.x] = 1;
        o[tid.x] = s[tid.x + 1];
    }""",
    "index_order": """void f(int *o) {
        __shared__ int s[4][4];
        int u;
        int v;
        o[tid.x] = s[u][v];
    }""",
    "bounds_order": """void f(int *o) {
        __shared__ int s[2][3];
        o[tid.x] = s[tid.x + 5][tid.x + 7];
    }""",
    "dims_from_scalar": """void f(int *o, int n) {
        __shared__ int s[n];
        s[tid.x] = 1;
    }""",
    "uninitialized_shared": """void f(int *o) {
        __shared__ int s[bdim.x + 3][2];
        o[tid.x] = s[tid.x + 1][1] + s[tid.x][0];
    }""",
    "spec_loop": """void f(int *o, int *a) {
        o[tid.x] = a[tid.x] * 2;
        int i;
        postcond(i < bdim.x ==> o[i] == a[i] * 2);
        spec {
            int s = 0;
            for (int k = 0; k < bdim.x; k++) { s = s + o[k]; }
            assert(s > 1000);
            o[60] = s;
            postcond(o[60] == s && s < 1000);
        }
    }""",
}


def _variants(name):
    """The suite kernel and each of its mutants, type-checked."""
    kernel, info = load(name)
    infos = [(name, info)]
    for mutants in (address_mutants, guard_mutants, barrier_mutants):
        for m in mutants(kernel):
            infos.append((f"{name}/{m.label}", check_kernel(m.kernel)))
    return infos


def _inputs(info, config):
    inputs = {name: config.bdim[0] * config.gdim[0]
              for name in info.scalar_params}
    for seed, name in enumerate(info.global_arrays):
        inputs[name] = {i: (37 * i + 11 * seed + 5) % 251
                        for i in range(64) if i % 7 != 3}
    return inputs


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the fault itself is the outcome
        return type(exc).__name__, str(exc)


def _compare(label, info):
    """Run both interpreters on every launch, fill and race setting."""
    checked = 0
    for config in CONFIGS:
        inputs = _inputs(info, config)
        for fill in (None, _pattern_fill):
            for races in (True, False):
                old = _outcome(tree_walker.run_kernel, info, config, inputs,
                               check_races=races, shared_fill=fill)
                new = _outcome(interp.run_kernel, info, config, inputs,
                               check_races=races, shared_fill=fill)
                where = f"{label} {config} fill={fill} races={races}"
                assert new == old, where
                checked += 1
                if races or isinstance(old, tuple):
                    continue
                if info.spec is None and not info.postconds:
                    continue
                assert _outcome(interp.check_postconditions, info, new,
                                bounds=BOUNDS) == _outcome(
                    tree_walker.check_postconditions, info, old,
                    bounds=BOUNDS), where
                assert new == old, where  # spec code may write memory
    return checked


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_suite_kernel_and_mutants(name):
    variants = _variants(name)
    assert sum(_compare(label, info) for label, info in variants) == \
        len(variants) * len(CONFIGS) * 4


@pytest.mark.parametrize("name", sorted(EXTRA))
def test_extra_kernel(name):
    assert _compare(name, check_kernel(parse_kernel(EXTRA[name]))) == \
        len(CONFIGS) * 4


def test_loop_limit_fault():
    info = check_kernel(parse_kernel(
        "void f(int *o) { for (int k = 0; k < 1; k = k) { o[0] = k; } }"))
    config = CONFIGS[0]
    old = _outcome(tree_walker.run_kernel, info, config, {}, loop_limit=5)
    assert old[0] == "InterpError"
    assert _outcome(interp.run_kernel, info, config, {}, loop_limit=5) == old


def test_barrier_divergence_fault():
    # The type checker rejects a divergent barrier; swap one into a kernel.
    info = dataclasses.replace(
        check_kernel(parse_kernel("void f(int *o, int n) { }")),
        kernel=parse_kernel("""void f(int *o, int n) {
            o[tid.x] = n;
            if (tid.x < n) { __syncthreads(); o[tid.x] = 1; }
        }"""))
    for config in CONFIGS:
        for n in (0, 3, 64):
            old = _outcome(tree_walker.run_kernel, info, config,
                           {"n": n, "o": {}})
            assert _outcome(interp.run_kernel, info, config,
                            {"n": n, "o": {}}) == old
