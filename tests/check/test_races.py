"""Behavioral tests for the parameterized race checker."""

import pytest

from repro.check.configs import reduction_assumptions, transpose_assumptions
from repro.check.races import check_races
from repro.check.result import Verdict
from repro.kernels import load
from repro.lang import check_kernel, parse_kernel

TRANSPOSE_CONC = {"bdim": (2, 2, 1), "gdim": (2, 2),
                  "scalars": {"width": 4, "height": 4}}
REDUCE_CONC = {"bdim": (8, 1, 1), "gdim": (1, 1)}


class TestRaceFreeKernels:
    @pytest.mark.parametrize("name,builder,conc", [
        ("naiveTranspose", transpose_assumptions, TRANSPOSE_CONC),
        ("optimizedTranspose", transpose_assumptions, TRANSPOSE_CONC),
        ("naiveReduce", reduction_assumptions, REDUCE_CONC),
        ("optimizedReduce", reduction_assumptions, REDUCE_CONC),
    ])
    def test_verified(self, name, builder, conc):
        _, info = load(name)
        out = check_races(info, 8, assumption_builder=builder,
                          concretize=conc, timeout=120)
        assert out.verdict is Verdict.VERIFIED, (name, out.reason)

    @pytest.mark.parametrize("name,builder,conc", [
        ("naiveTranspose", transpose_assumptions, TRANSPOSE_CONC),
        ("optimizedReduce", reduction_assumptions, None),
    ])
    def test_verifying_sends_each_vc_once(self, name, builder, conc):
        _, info = load(name)
        out = check_races(info, 8, assumption_builder=builder,
                          concretize=conc, timeout=120)
        assert out.verdict is Verdict.VERIFIED, (name, out.reason)
        assert out.stats["solver"]["queries"] == \
            out.stats["encode"]["queries_built"] == out.vcs_checked

    def test_scan_unsupported_due_to_loop_carried_scalars(self):
        # the ping-pong parity scalars (pout/pin) are loop-carried, which
        # the parameterized extraction rejects — an honest UNSUPPORTED,
        # not a false verdict (the interpreter covers scan dynamically)
        _, info = load("scanNaive")
        out = check_races(info, 8, assumption_builder=reduction_assumptions,
                          concretize=REDUCE_CONC, timeout=60)
        assert out.verdict is Verdict.UNSUPPORTED
        assert "carried" in out.reason

    def test_reduction_fully_parameterized(self):
        """Race freedom of the reduction loop for ANY pow2 block size."""
        _, info = load("optimizedReduce")
        out = check_races(info, 8, assumption_builder=reduction_assumptions,
                          timeout=180)
        assert out.verdict is Verdict.VERIFIED


def one_d(geo, inputs):
    return [geo.one_dimensional(), geo.single_block()]


class TestRacyKernels:
    def test_hillis_steele_race_found(self):
        _, info = load("scanRacy")
        out = check_races(info, 8, assumption_builder=reduction_assumptions,
                          concretize=REDUCE_CONC, timeout=120)
        assert out.verdict is Verdict.BUG
        assert "race" in out.counterexample.detail

    def test_write_write_race(self):
        info = check_kernel(parse_kernel(
            "void f(int *o) { o[0] = tid.x; }"))
        out = check_races(info, 8, timeout=60)
        assert out.verdict is Verdict.BUG
        assert "write-write" in out.counterexample.detail

    def test_read_write_race(self):
        info = check_kernel(parse_kernel("""
            void f(int *o) {
                __shared__ int s[bdim.x];
                s[tid.x] = s[(tid.x + 1) % bdim.x];
                __syncthreads();
                o[tid.x] = s[tid.x];
            }"""))
        out = check_races(info, 8, assumption_builder=one_d, timeout=60)
        assert out.verdict is Verdict.BUG
        assert "read-write" in out.counterexample.detail

    def test_single_thread_cannot_race_itself(self):
        # restricted to 1-D launches: distinct threads have distinct tid.x,
        # so the read-modify-write of one thread cannot conflict
        info = check_kernel(parse_kernel("""
            void f(int *o) {
                o[tid.x] = 1;
                o[tid.x] += 1;
            }"""))
        out = check_races(info, 8, assumption_builder=one_d, timeout=60)
        assert out.verdict is Verdict.VERIFIED

    def test_2d_block_does_race_on_tidx_only_address(self):
        # ...but WITHOUT the 1-D restriction the same kernel races: threads
        # sharing tid.x but differing in tid.y hit the same cell.
        info = check_kernel(parse_kernel("""
            void f(int *o) {
                o[tid.x] = 1;
                o[tid.x] += 1;
            }"""))
        out = check_races(info, 8, timeout=60)
        assert out.verdict is Verdict.BUG

    def test_distinct_blocks_do_not_alias_shared(self):
        from repro.smt import Eq

        def one_d_grid(geo, inputs):
            # 1-D blocks, 1-D grid, no address wraparound
            return [geo.one_dimensional(), geo.extent_fits(
                geo.bdim["x"], geo.gdim["x"])]

        info = check_kernel(parse_kernel("""
            void f(int *o) {
                __shared__ int s[bdim.x];
                s[tid.x] = bid.x;
                __syncthreads();
                o[bid.x * bdim.x + tid.x] = s[tid.x];
            }"""))
        out = check_races(info, 8, assumption_builder=one_d_grid, timeout=60)
        assert out.verdict is Verdict.VERIFIED

    def test_global_race_across_blocks(self):
        def blocks(geo, inputs):
            from repro.smt import UGe
            return [geo.one_dimensional(), UGe(geo.gdim["x"], 2)]

        info = check_kernel(parse_kernel(
            "void f(int *o) { o[tid.x] = bid.x; }"))
        # two blocks write the same o[tid.x]
        out = check_races(info, 8, assumption_builder=blocks, timeout=60)
        assert out.verdict is Verdict.BUG
