"""Unit tests for counterexample replay (the no-false-alarms guard)."""

from repro.check.replay import (
    MAX_REPLAY_THREADS, replay_equivalence, replay_postcondition,
    replay_race, extract_launch,
)
from repro.check.result import Counterexample
from repro.kernels import address_mutants, load, load_pair
from repro.lang import check_kernel, parse_kernel


def _transpose_cex(**kw):
    defaults = dict(bdim=(2, 2, 1), gdim=(2, 2),
                    scalars={"width": 4, "height": 4},
                    arrays={"idata": {i: (i * 7 + 1) % 100
                                      for i in range(16)}})
    defaults.update(kw)
    return Counterexample(**defaults)


class TestEquivalenceReplay:
    def test_equivalent_pair_not_confirmed(self):
        (_, si), (_, ti) = load_pair("Transpose")
        res = replay_equivalence(si, ti, _transpose_cex(), 8)
        assert not res.confirmed

    def test_mutant_confirmed(self):
        (_, si), (tk, ti) = load_pair("Transpose")
        mutant = list(address_mutants(tk))[0]
        info = check_kernel(mutant.kernel)
        res = replay_equivalence(si, info, _transpose_cex(), 8)
        assert res.confirmed

    def test_uninit_shared_divergence_found_by_fill_probe(self):
        """A mutant whose divergence flows through uninitialized shared
        memory: only the nonzero shared fill exposes it when inputs are 0."""
        (_, si), (tk, ti) = load_pair("Transpose")
        mutant = list(address_mutants(tk))[0]
        info = check_kernel(mutant.kernel)
        cex = _transpose_cex(arrays={"idata": {i: 0 for i in range(16)}})
        res = replay_equivalence(si, info, cex, 8)
        assert res.confirmed

    def test_nonsquare_race_confirmed(self):
        (_, si), (_, ti) = load_pair("Transpose")
        cex = Counterexample(bdim=(4, 2, 1), gdim=(2, 4),
                             scalars={"width": 8, "height": 8},
                             arrays={"idata": {}})
        res = replay_equivalence(si, ti, cex, 8)
        assert res.confirmed

    def test_oversized_counterexample_skipped(self):
        (_, si), (_, ti) = load_pair("Transpose")
        cex = _transpose_cex(bdim=(200, 200, 1), gdim=(10, 10))
        res = replay_equivalence(si, ti, cex, 16)
        assert not res.confirmed
        assert "large" in res.reason


class TestPostconditionReplay:
    def test_correct_kernel_not_confirmed(self):
        _, info = load("naiveTranspose")
        res = replay_postcondition(info, _transpose_cex(), 8,
                                   free_bindings={"i": 1, "j": 2})
        assert not res.confirmed

    def test_mutant_postcond_confirmed(self):
        k, _ = load("naiveTranspose")
        mutant = list(address_mutants(k))[0]
        info = check_kernel(mutant.kernel)
        res = replay_postcondition(info, _transpose_cex(), 8)
        assert res.confirmed


class TestExtractLaunch:
    def test_zero_dims_clamped_to_one(self):
        from repro.param.geometry import Geometry
        from repro.smt import Model
        geo = Geometry.create(8)
        model = Model({})  # nothing pinned: all dims default 0
        cex = extract_launch(model, geo, {}, {})
        assert cex.bdim == (1, 1, 1)
        assert cex.gdim == (1, 1)

    def test_partially_pinned_model(self):
        """A model that pins only some launch dims (the formula mentioned
        only those): pinned dims survive, the rest complete to 1."""
        from repro.param.geometry import Geometry
        from repro.smt import BVVar, Model
        geo = Geometry.create(8)
        n = BVVar("in.n", 8)
        model = Model({geo.bdim["x"]: 4, geo.gdim["y"]: 2, n: 9})
        cex = extract_launch(model, geo, {"n": n}, {})
        assert cex.bdim == (4, 1, 1)
        assert cex.gdim == (1, 2)
        assert cex.scalars == {"n": 9}


class TestOversizeBoundary:
    """The `_too_big` guard, exercised at its exact boundary through both
    public replayers."""

    def _cex(self, bdim, gdim):
        return Counterexample(bdim=bdim, gdim=gdim, scalars={}, arrays={})

    def test_exact_limit_is_replayed(self):
        info = check_kernel(parse_kernel(
            "void f(int *o) { o[tid.x] = 1; }"))
        # 128*128 = 16384 == MAX_REPLAY_THREADS: still replayable
        cex = self._cex((128, 1, 1), (128, 1))
        assert 128 * 128 == MAX_REPLAY_THREADS
        res = replay_postcondition(info, cex, 16)
        assert "large" not in res.reason

    def test_one_past_limit_rejected_postcondition(self):
        info = check_kernel(parse_kernel(
            "void f(int *o) { o[tid.x] = 1; }"))
        res = replay_postcondition(info, self._cex((128, 1, 1), (129, 1)),
                                   16)
        assert not res.confirmed
        assert "large" in res.reason

    def test_one_past_limit_rejected_equivalence(self):
        (_, si), (_, ti) = load_pair("Transpose")
        res = replay_equivalence(si, ti, self._cex((128, 1, 1), (129, 1)),
                                 16)
        assert not res.confirmed
        assert "large" in res.reason


class TestReplayFaults:
    def test_faulting_replay_is_not_confirmed(self):
        """An interpreter fault during replay (here an out-of-bounds shared
        access) is an unconfirmed candidate, not a crash and not a BUG."""
        info = check_kernel(parse_kernel("""
            void f(int *o) {
                __shared__ int s[2];
                s[tid.x + 10] = 1;
                o[tid.x] = s[tid.x];
            }"""))
        cex = Counterexample(bdim=(2, 1, 1), gdim=(1, 1))
        res = replay_postcondition(info, cex, 8)
        assert not res.confirmed
        assert "replay faulted" in res.reason

    def test_unknown_outcome_replay_not_confirmed(self):
        """Replaying a candidate that satisfies the postcondition (an
        UNKNOWN-style unconfirmed outcome) reports the honest reason."""
        info = check_kernel(parse_kernel("""
            void f(int *o) {
                o[tid.x] = 1;
                postcond(o[0] == 1);
            }"""))
        assert info.postconds  # the guard below is actually re-checked
        cex = Counterexample(bdim=(2, 1, 1), gdim=(1, 1))
        res = replay_postcondition(info, cex, 8)
        assert not res.confirmed
        assert "holds" in res.reason


class TestRaceReplay:
    """``replay_race`` confirms only a race the interpreter observes, and
    says why a candidate was not confirmed."""

    RACY = "void f(int *o) { o[0] = tid.x; }"

    def test_observed_race_confirmed(self):
        info = check_kernel(parse_kernel(self.RACY))
        res = replay_race(info, Counterexample(bdim=(2, 1, 1), gdim=(1, 1)),
                          8)
        assert res.confirmed
        assert "write-write race on o[0]" in res.reason

    def test_too_large_to_replay(self):
        info = check_kernel(parse_kernel(self.RACY))
        cex = Counterexample(bdim=(128, 1, 1), gdim=(129, 1))
        res = replay_race(info, cex, 16)
        assert not res.confirmed
        assert "too large" in res.reason

    def test_no_race_observed(self):
        info = check_kernel(parse_kernel(
            "void f(int *o) { o[tid.x] = tid.x; }"))
        res = replay_race(info, Counterexample(bdim=(4, 1, 1), gdim=(1, 1)),
                          8)
        assert not res.confirmed
        assert "no race observed" in res.reason

    def test_replay_faulted(self):
        info = check_kernel(parse_kernel("""
            void f(int *o) {
                __shared__ int s[2];
                s[tid.x + 10] = 1;
            }"""))
        res = replay_race(info, Counterexample(bdim=(2, 1, 1), gdim=(1, 1)),
                          8)
        assert not res.confirmed
        assert "replay faulted" in res.reason
