"""Checkers through the dispatch layer: parallel runs match serial runs,
warm caches short-circuit repeated checks, and stats reach the outcome."""

import pytest

from repro.check.configs import reduction_assumptions, transpose_assumptions
from repro.check.equivalence import check_equivalence
from repro.check.races import check_races
from repro.check.result import Verdict, format_solver_stats
from repro.cli import main
from repro.kernels import KERNELS, load
from repro.lang import LaunchConfig
from repro.smt import SolveConfig
from repro.smt.qcache import QueryCache

TRANSPOSE_CONC = {"bdim": (2, 2, 1), "gdim": (2, 2),
                  "scalars": {"width": 4, "height": 4}}
REDUCE_CONC = {"bdim": (8, 1, 1), "gdim": (1, 1)}


def _uncached(**fields) -> SolveConfig:
    """The environment's solve settings with the query cache off."""
    return SolveConfig.from_env(cache=False, **fields)


class TestParallelMatchesSerial:
    def test_races_verified(self):
        _, info = load("optimizedTranspose")
        serial = check_races(info, 8, assumption_builder=transpose_assumptions,
                             concretize=TRANSPOSE_CONC, timeout=120,
                             solve=_uncached(jobs=1))
        parallel = check_races(info, 8,
                               assumption_builder=transpose_assumptions,
                               concretize=TRANSPOSE_CONC, timeout=120,
                               solve=_uncached(jobs=2))
        assert serial.verdict is parallel.verdict is Verdict.VERIFIED
        assert serial.vcs_checked == parallel.vcs_checked

    def test_races_bug_found(self):
        _, info = load("scanRacy")
        serial = check_races(info, 8, assumption_builder=reduction_assumptions,
                             concretize=REDUCE_CONC, timeout=120,
                             solve=_uncached(jobs=1))
        parallel = check_races(info, 8,
                               assumption_builder=reduction_assumptions,
                               concretize=REDUCE_CONC, timeout=120,
                               solve=_uncached(jobs=2))
        assert serial.verdict is parallel.verdict is Verdict.BUG
        assert serial.counterexample.detail == parallel.counterexample.detail

    def test_param_equivalence(self):
        _, src = load("naiveReduce")
        _, tgt = load("optimizedReduce")
        kwargs = dict(method="param", width=8,
                      assumption_builder=reduction_assumptions,
                      concretize=REDUCE_CONC, timeout=180)
        serial = check_equivalence(src, tgt, solve=_uncached(jobs=1),
                                   **kwargs)
        parallel = check_equivalence(src, tgt, solve=_uncached(jobs=2),
                                     **kwargs)
        assert serial.verdict is parallel.verdict is Verdict.VERIFIED


class TestSolveConfigResolvedOnce:
    @pytest.mark.parametrize("stream", ["1", "0"])
    def test_race_check_reads_the_environment_once(self, monkeypatch,
                                                     stream):
        monkeypatch.setenv("PUGPARA_STREAM", stream)
        real = SolveConfig.from_env.__func__
        calls = []

        def counting(cls, **fields):
            calls.append(fields)
            return real(cls, **fields)
        monkeypatch.setattr(SolveConfig, "from_env", classmethod(counting))
        _, info = load("optimizedTranspose")
        out = check_races(info, 8, assumption_builder=transpose_assumptions,
                          concretize=TRANSPOSE_CONC, timeout=120)
        assert out.verdict is Verdict.VERIFIED
        assert out.vcs_checked >= 2
        assert calls == [{}]


class TestWarmCache:
    def test_second_race_check_hits_cache(self):
        cache = QueryCache()
        _, info = load("optimizedTranspose")

        def run():
            return check_races(info, 8,
                               assumption_builder=transpose_assumptions,
                               concretize=TRANSPOSE_CONC, timeout=120,
                               solve=SolveConfig.from_env(cache=cache))

        cold = run()
        warm = run()
        assert cold.verdict is warm.verdict is Verdict.VERIFIED
        solver = warm.stats.get("solver", {})
        assert solver.get("cache_hits", 0) > 0
        # Every VC of the warm run came from the cache.
        assert solver["cache_hits"] == warm.vcs_checked
        assert warm.solver_time <= cold.solver_time

    def test_nonparam_equivalence_warm(self):
        cache = QueryCache()
        _, src = load("naiveTranspose")
        _, tgt = load("optimizedTranspose")
        config = LaunchConfig(bdim=(2, 2, 1), gdim=(1, 1), width=8)

        def run():
            return check_equivalence(
                src, tgt, method="nonparam", config=config,
                scalar_values={"width": 2, "height": 2}, timeout=120,
                solve=SolveConfig.from_env(cache=cache))

        cold = run()
        warm = run()
        assert cold.verdict is warm.verdict is Verdict.VERIFIED
        assert warm.stats["solver"].get("cache_hits", 0) > 0


class TestOutcomeStats:
    def test_races_outcome_carries_solver_stats(self):
        _, info = load("optimizedTranspose")
        out = check_races(info, 8, assumption_builder=transpose_assumptions,
                          concretize=TRANSPOSE_CONC, timeout=120,
                          solve=_uncached())
        solver = out.stats.get("solver", {})
        assert solver.get("queries", 0) == out.vcs_checked > 0
        assert solver.get("time", 0.0) > 0.0
        assert "decisions" in solver
        rendered = format_solver_stats(out)
        assert "queries" in rendered

    def test_param_outcome_carries_solver_stats(self):
        _, src = load("naiveReduce")
        _, tgt = load("optimizedReduce")
        out = check_equivalence(src, tgt, method="param", width=8,
                                assumption_builder=reduction_assumptions,
                                concretize=REDUCE_CONC, timeout=180,
                                solve=_uncached())
        assert out.verdict is Verdict.VERIFIED
        assert out.stats.get("solver", {}).get("queries", 0) > 0


class TestCLI:
    @pytest.fixture()
    def kernel_files(self, tmp_path):
        paths = {}
        for name in ("naiveTranspose", "optimizedTranspose"):
            p = tmp_path / f"{name}.cu"
            p.write_text(KERNELS[name].source)
            paths[name] = str(p)
        return paths

    def test_stats_flag_prints_solver_block(self, kernel_files, capsys):
        rc = main(["races", kernel_files["optimizedTranspose"],
                   "--width", "8", "--pair", "Transpose",
                   "--cbdim", "2,2,1", "--cgdim", "2,2",
                   "--set", "width=4", "--set", "height=4",
                   "--timeout", "120", "--stats", "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "solver stats" in out
        assert "queries" in out

    def test_jobs_and_cache_dir_flags(self, kernel_files, tmp_path, capsys):
        argv = ["equiv", kernel_files["naiveTranspose"],
                kernel_files["optimizedTranspose"],
                "--method", "nonparam", "--width", "8",
                "--bdim", "2,2,1", "--gdim", "1,1",
                "--set", "width=2", "--set", "height=2",
                "--timeout", "120", "--jobs", "2",
                "--cache-dir", str(tmp_path / "qc")]
        assert main(argv) == 0
        assert "verified" in capsys.readouterr().out
        # The on-disk layer now holds the query; a fresh run hits it.
        assert main(argv) == 0
        assert "verified" in capsys.readouterr().out
        # entries live under two-hex-digit shard directories
        assert any((tmp_path / "qc").glob("*/*.json"))
