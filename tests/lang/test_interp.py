"""Unit tests for the concrete reference interpreter: canonical scheduling,
barrier semantics, race detection, and postcondition checking."""

import dataclasses

import pytest

from repro.errors import InterpError
from repro.lang import (
    LaunchConfig, RaceReport, check_kernel, check_postconditions, parse_kernel,
    run_kernel,
)
from repro.lang.ast import Barrier, Block, Postcond, Spec
from repro.lang.interp import _Compiler


def run(src, cfg=None, inputs=None, **kw):
    kernel = parse_kernel(src)
    info = check_kernel(kernel)
    result = run_kernel(kernel, cfg or LaunchConfig(bdim=(4, 1, 1)),
                        inputs or {}, **kw)
    return info, result


class TestBasics:
    def test_each_thread_writes_its_cell(self):
        _, r = run("void f(int *o) { o[tid.x] = tid.x + 1; }")
        assert r.globals["o"] == {0: 1, 1: 2, 2: 3, 3: 4}

    def test_scalar_param_available(self):
        _, r = run("void f(int *o, int n) { o[tid.x] = n; }",
                   inputs={"n": 9})
        assert r.globals["o"][2] == 9

    def test_missing_scalar_raises(self):
        with pytest.raises(InterpError, match="missing scalar"):
            run("void f(int n) { }")

    def test_arithmetic_is_modular(self):
        _, r = run("void f(int *o) { o[0] = 250 + 10; }",
                   cfg=LaunchConfig(bdim=(1, 1, 1), width=8))
        assert r.globals["o"][0] == 4

    def test_division_conventions_match_smt(self):
        _, r = run("void f(int *o, int z) { o[0] = 7 / z; o[1] = 7 % z; }",
                   cfg=LaunchConfig(bdim=(1, 1, 1), width=8), inputs={"z": 0})
        assert r.globals["o"] == {0: 255, 1: 7}

    def test_uninitialized_read_raises(self):
        with pytest.raises(InterpError, match="uninitialized"):
            run("void f(int *o) { int x; o[0] = x; }")

    def test_loop_limit_guards_nontermination(self):
        with pytest.raises(InterpError, match="iterations"):
            run("void f(int *o) { for (int k = 0; k < 1; k = k) { } }",
                loop_limit=10)

    @pytest.mark.parametrize("builtin, axis", [("bid.z", "blockIdx"),
                                               ("gdim.z", "gridDim")])
    def test_z_axis_of_the_grid_raises_when_executed(self, builtin, axis):
        with pytest.raises(InterpError,
                           match=f"^{axis} has no z axis in this model$"):
            run(f"void f(int *o) {{ o[tid.x] = {builtin}; }}")

    def test_z_axis_of_the_grid_in_untaken_branch_is_fine(self):
        _, r = run("""void f(int *o, int n) {
            if (n > 5) { o[0] = bid.z + gdim.z; }
            o[tid.x + 1] = n > 5 ? bid.z : gdim.x;
        }""", inputs={"n": 1})
        assert r.globals["o"] == {1: 1, 2: 1, 3: 1, 4: 1}

    def test_builtin_geometry(self):
        cfg = LaunchConfig(bdim=(2, 3, 1), gdim=(2, 2))
        _, r = run("""void f(int *o) {
            int gid = (bid.y * gdim.x + bid.x) * bdim.x * bdim.y
                      + tid.y * bdim.x + tid.x;
            o[gid] = 1;
        }""", cfg=cfg)
        assert len(r.globals["o"]) == cfg.num_blocks * cfg.threads_per_block


class TestSharedMemoryAndBarriers:
    def test_shared_roundtrip_across_barrier(self):
        src = """void f(int *o) {
            __shared__ int s[bdim.x];
            s[tid.x] = tid.x * 10;
            __syncthreads();
            o[tid.x] = s[bdim.x - 1 - tid.x];
        }"""
        _, r = run(src)
        assert r.globals["o"] == {0: 30, 1: 20, 2: 10, 3: 0}

    def test_shared_is_per_block(self):
        src = """void f(int *o) {
            __shared__ int s[bdim.x];
            s[tid.x] = bid.x;
            __syncthreads();
            o[bid.x * bdim.x + tid.x] = s[tid.x];
        }"""
        _, r = run(src, cfg=LaunchConfig(bdim=(2, 1, 1), gdim=(2, 1)))
        assert r.globals["o"] == {0: 0, 1: 0, 2: 1, 3: 1}

    def test_barrier_divergence_detected(self):
        src = """void f(int *o, int n) {
            if (n > 0) { }
            for (int k = 0; k < tid.x; k++) { o[k] = k; }
        }"""
        # the loop has no barrier: fine.  Now a diverging barrier:
        bad = """void f(int *o) {
            for (int k = 0; k < tid.x; k++) { o[k] = k; }
        }"""
        run(bad)  # no barrier -> no divergence
        # A truly divergent barrier cannot pass the typechecker, so build the
        # situation dynamically: threads finish at different rounds.
        div = """void f(int *o, int n) {
            if (n < 2) { __syncthreads(); }
            o[tid.x] = 1;
        }"""
        # uniform condition: all threads take the same path -> fine
        run(div, inputs={"n": 1})
        run(div, inputs={"n": 5})

    def test_barrier_divergence_raises(self):
        # The type checker rejects a barrier under a thread-dependent branch,
        # so swap the divergent body into a checked uniform kernel.
        info, _ = run("void f(int *o, int n) { }", inputs={"n": 0})
        info = dataclasses.replace(info, kernel=parse_kernel(
            "void f(int *o, int n) { if (tid.x < n) { __syncthreads(); } }"))
        with pytest.raises(InterpError, match=r"^barrier divergence in block "
                                              r"\(0, 0\): some threads"):
            run_kernel(info, LaunchConfig(bdim=(4, 1, 1)), {"n": 2})
        run_kernel(info, LaunchConfig(bdim=(4, 1, 1)), {"n": 4})

    def test_out_of_bounds_shared_access(self):
        src = """void f(int *o) {
            __shared__ int s[bdim.x];
            s[tid.x + 1] = 0;
        }"""
        with pytest.raises(InterpError, match="out of bounds"):
            run(src)

    def test_rounds_counted(self):
        src = """void f(int *o) {
            __syncthreads();
            __syncthreads();
            o[tid.x] = 0;
        }"""
        _, r = run(src)
        assert r.rounds == 3  # two barriers -> three intervals


class TestRaceDetection:
    def test_write_write_race(self):
        _, r = run("void f(int *o) { o[0] = tid.x; }")
        assert any(x.kind == "write-write" for x in r.races)

    def test_read_write_race(self):
        src = """void f(int *o) {
            __shared__ int s[bdim.x];
            s[tid.x] = s[(tid.x + 1) % bdim.x];
        }"""
        _, r = run(src)
        assert any(x.kind == "read-write" for x in r.races)

    def test_barrier_separates_accesses(self):
        src = """void f(int *o) {
            __shared__ int s[bdim.x];
            s[tid.x] = tid.x;
            __syncthreads();
            o[tid.x] = s[(tid.x + 1) % bdim.x];
        }"""
        _, r = run(src)
        assert r.races == []

    def test_same_thread_rmw_is_not_a_race(self):
        src = """void f(int *o) {
            __shared__ int s[bdim.x];
            s[tid.x] = 1;
            s[tid.x] += 2;
            __syncthreads();
            o[tid.x] = s[tid.x];
        }"""
        _, r = run(src)
        assert r.races == []
        assert r.globals["o"][1] == 3

    def test_compound_assignment_records_read_and_write(self):
        _, r = run("void f(int *o) { o[0] += 1; }",
                   cfg=LaunchConfig(bdim=(2, 1, 1)))
        assert r.globals["o"] == {0: 2}
        assert r.races == [
            RaceReport(array="o", index=0, kind="write-write", block=(0, 0),
                       threads=((0, 0, 0), (1, 0, 0))),
            RaceReport(array="o", index=0, kind="read-write", block=(0, 0),
                       threads=((1, 0, 0), (0, 0, 0))),
        ]

    def test_cross_block_global_write_write(self):
        _, r = run("void f(int *o) { o[0] = bid.x; }",
                   cfg=LaunchConfig(bdim=(1, 1, 1), gdim=(2, 1)))
        assert r.races == [RaceReport(
            array="o", index=0, kind="write-write", block=(1, 0),
            threads=((0, 0, 0), (0, 0, 0)))]

    def test_cross_block_global_read_after_write(self):
        _, r = run("""void f(int *o, int *a) {
            if (bid.x == 0) { o[0] = 1; } else { a[tid.x] = o[0]; }
        }""", cfg=LaunchConfig(bdim=(2, 1, 1), gdim=(2, 1)))
        # Block 0's threads both write o[0] (an intra-block race); each
        # reader of block 1 then conflicts with the last writer, thread 1.
        assert r.races == [
            RaceReport(array="o", index=0, kind="write-write", block=(0, 0),
                       threads=((0, 0, 0), (1, 0, 0))),
            RaceReport(array="o", index=0, kind="read-write", block=(1, 0),
                       threads=((1, 0, 0), (0, 0, 0))),
            RaceReport(array="o", index=0, kind="read-write", block=(1, 0),
                       threads=((1, 0, 0), (1, 0, 0))),
        ]

    def test_cross_block_global_write_after_read(self):
        _, r = run("""void f(int *o, int *a) {
            if (bid.x == 0) { a[0] = o[0]; } else { o[0] = 1; }
        }""", cfg=LaunchConfig(bdim=(1, 1, 1), gdim=(2, 1)))
        assert r.races == [RaceReport(
            array="o", index=0, kind="read-write", block=(1, 0),
            threads=((0, 0, 0), (0, 0, 0)))]

    def test_races_can_be_disabled(self):
        _, r = run("void f(int *o) { o[0] = tid.x; }", check_races=False)
        assert r.races == []


class TestAssertionsAndSpecs:
    def test_assert_failure_recorded(self):
        _, r = run("void f(int *o) { assert(tid.x < 2); }")
        assert len(r.assertion_failures) == 2  # threads 2 and 3

    def test_assume_violation_raises(self):
        with pytest.raises(InterpError, match="assumption"):
            run("void f(int n) { assume(n == 1); }", inputs={"n": 2})

    def test_inline_postcond_with_free_vars(self):
        src = """void f(int *o, int n) {
            o[tid.x] = tid.x * 2;
            int i;
            postcond(i < n ==> o[i] == i * 2);
        }"""
        info, r = run(src, inputs={"n": 4})
        assert check_postconditions(info, r, bounds={"i": range(4)}) == []

    def test_inline_postcond_violation_reported(self):
        src = """void f(int *o, int n) {
            o[tid.x] = tid.x;
            int i;
            postcond(i < n ==> o[i] == i + 1);
        }"""
        info, r = run(src, inputs={"n": 4})
        violations = check_postconditions(info, r, bounds={"i": range(4)})
        assert violations and "postcondition fails" in violations[0]

    def test_spec_block_with_loop(self):
        src = """void f(int *o, int *a) {
            o[tid.x] = a[tid.x];
            spec {
                int s = 0;
                int i;
                for (i = 0; i < bdim.x; i++) { s = s + o[i]; }
                postcond(s == a[0] + a[1] + a[2] + a[3]);
            }
        }"""
        info, r = run(src, inputs={"a": [1, 2, 3, 4]})
        assert check_postconditions(info, r) == []

    def test_postconditions_compile_no_body_statement(self, monkeypatch):
        """The body already ran: only the postconditions and the spec
        code are compiled."""
        info, r = run("""void f(int *o) {
            if (tid.x < 4) { o[tid.x] = tid.x; }
            int i;
            postcond(i < 4 ==> o[i] == i);
            spec {
                int s = 0;
                for (i = 0; i < 4; i++) { s = s + o[i]; }
                postcond(s == 6);
            }
        }""")
        compiled = []
        real = _Compiler.stmt

        def recording(self, stmt):
            compiled.append(stmt)
            return real(self, stmt)
        monkeypatch.setattr(_Compiler, "stmt", recording)
        assert check_postconditions(info, r, bounds={"i": range(4)}) == []
        body = info.kernel.body
        code = [body, *(s for s in body.stmts
                        if not isinstance(s, (Postcond, Spec)))]
        assert compiled and info.spec.body.stmts[0] in compiled
        assert not any(c is s for c in compiled for s in code)

    def test_barrier_in_spec_code_raises(self):
        # The type checker rejects this, so build the KernelInfo directly.
        info, r = run("void f(int *o) { o[tid.x] = 1; }")
        info = dataclasses.replace(
            info, spec=Spec(body=Block(stmts=(Barrier(),))))
        with pytest.raises(InterpError, match="^barrier in spec code$"):
            check_postconditions(info, r)

    def test_free_vars_default_to_full_range(self):
        src = """void f(int *o) {
            o[tid.x] = 1;
            int i;
            postcond(i < bdim.x ==> o[i] == 1);
        }"""
        info, r = run(src, cfg=LaunchConfig(bdim=(4, 1, 1), width=4))
        # width 4 -> free var enumerates 0..15 without explicit bounds
        assert check_postconditions(info, r) == []
