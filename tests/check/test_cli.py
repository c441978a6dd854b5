"""End-to-end tests of the ``pugpara`` command-line interface."""

import pytest

from repro.cli import main
from repro.kernels import KERNELS


@pytest.fixture()
def kernel_files(tmp_path):
    paths = {}
    for name in ("naiveTranspose", "optimizedTranspose", "naiveReduce",
                 "scanRacy"):
        p = tmp_path / f"{name}.cu"
        p.write_text(KERNELS[name].source)
        paths[name] = str(p)
    return paths


def test_suite_listing(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert "naiveTranspose" in out
    assert "Transpose" in out


def test_suite_marks_the_pairs_with_assumptions(capsys):
    """``--pair`` accepts the pairs marked ``*``: MatMul has no
    assumption builder, so it is listed but not checkable as a pair."""
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    heading, pairs = out.split("equivalence pairs", 1)[1].split("\n", 1)
    assert "--pair" in heading
    assert pairs.split("\n")[:3] == ["  MatMul", "  Reduction *",
                                      "  Transpose *"]


def test_equiv_param_verified(kernel_files, capsys):
    rc = main(["equiv", kernel_files["naiveTranspose"],
               kernel_files["optimizedTranspose"],
               "--method", "param", "--width", "8", "--pair", "Transpose",
               "--cbdim", "2,2,1", "--cgdim", "2,2",
               "--set", "width=4", "--set", "height=4",
               "--timeout", "120"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verified" in out


def test_equiv_nonparam(kernel_files, capsys):
    rc = main(["equiv", kernel_files["naiveTranspose"],
               kernel_files["optimizedTranspose"],
               "--method", "nonparam", "--width", "8",
               "--bdim", "2,2,1", "--gdim", "1,1",
               "--set", "width=2", "--set", "height=2",
               "--timeout", "120"])
    assert rc == 0
    assert "verified" in capsys.readouterr().out


def test_func_nonparam_spec(kernel_files, capsys):
    rc = main(["func", kernel_files["naiveReduce"], "--method", "nonparam",
               "--width", "8", "--bdim", "4,1,1", "--timeout", "120"])
    assert rc == 0


def test_races_finds_bug(kernel_files, capsys):
    rc = main(["races", kernel_files["scanRacy"], "--width", "8",
               "--pair", "Reduction",
               "--cbdim", "8,1,1", "--cgdim", "1,1", "--timeout", "120"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "bug" in out


def test_stats_json_to_stdout(tmp_path, capsys):
    import json
    p = tmp_path / "simple.cu"
    p.write_text("void f(int *o) { o[tid.x] = 1; }")
    rc = main(["races", str(p), "--width", "8",
               "--cbdim", "4,1,1", "--cgdim", "1,1",
               "--timeout", "120", "--stats-json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out[out.index("{"):])
    assert payload["verdict"] == "verified"
    assert payload["stats"]["solver"]["queries"] >= 1


def test_stats_json_to_file(tmp_path, capsys):
    import json
    p = tmp_path / "simple.cu"
    p.write_text("void f(int *o) { o[tid.x] = 1; }")
    dest = tmp_path / "outcome.json"
    rc = main(["races", str(p), "--width", "8",
               "--cbdim", "4,1,1", "--cgdim", "1,1",
               "--timeout", "120", "--stats-json", str(dest)])
    assert rc == 0
    payload = json.loads(dest.read_text())
    assert payload["verdict"] == "verified"
    assert "elapsed" in payload and "complete" in payload


def test_run_prints_outputs(kernel_files, tmp_path, capsys):
    p = tmp_path / "simple.cu"
    p.write_text("void f(int *o, int n) { o[tid.x] = n + tid.x; }")
    rc = main(["run", str(p), "--bdim", "4,1,1", "--set", "n=10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[0]=10" in out and "[3]=13" in out


def test_run_reports_races(tmp_path, capsys):
    p = tmp_path / "racy.cu"
    p.write_text("void f(int *o) { o[0] = tid.x; }")
    rc = main(["run", str(p), "--bdim", "4,1,1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "RACE" in out


class TestExitCodeContract:
    """0 verified / 1 refuted / 2 usage / 3 inconclusive / 4 internal
    error — the contract scripts and CI key off."""

    def test_unknown_exit_code_on_timeout(self, kernel_files, capsys):
        # The non-square Transpose differs, so its query reaches the SAT
        # loop, which polls the deadline; the square launch verifies in
        # the simplifier before any deadline poll.
        from repro.cli import EXIT_UNKNOWN
        rc = main(["equiv", kernel_files["naiveTranspose"],
                   kernel_files["optimizedTranspose"],
                   "--method", "nonparam", "--width", "16",
                   "--bdim", "4,2,1", "--gdim", "2,2",
                   "--set", "width=8", "--set", "height=4",
                   "--timeout", "0.0001", "--no-cache"])
        out = capsys.readouterr().out
        assert rc == EXIT_UNKNOWN
        assert "timeout" in out

    def test_internal_error_exit_code(self, capsys):
        from repro.cli import EXIT_INTERNAL
        rc = main(["races", "/nonexistent/kernel.cu"])
        err = capsys.readouterr().err
        assert rc == EXIT_INTERNAL
        assert "internal error" in err

    def test_usage_error_is_exit_2(self):
        import pytest
        with pytest.raises(SystemExit) as exc:
            main(["races"])  # missing kernel argument
        assert exc.value.code == 2

    @pytest.mark.parametrize("source,error", [
        ("void f(int *o) { o[tid.x] = ; }", "ParseError"),
        ("void f(int *o) { o[tid.x] = q; }", "TypeCheckError"),
    ])
    def test_bad_kernel_is_usage_error(self, tmp_path, capsys, source,
                                       error):
        """A kernel that does not parse or type-check is the caller's
        fault, as the server's 422 says, not an internal error."""
        from repro.cli import EXIT_USAGE
        p = tmp_path / "bad.cu"
        p.write_text(source)
        rc = main(["races", str(p), "--no-cache"])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith(f"pugpara: usage error: {error}: ")

    @pytest.mark.parametrize("argv", [
        ["races", "K", "--cbdim", "0,1"], ["races", "K", "--bdim", "1,1,1,1"],
        ["races", "K", "--gdim", "two"], ["races", "K", "--set", "n=abc"],
        ["races", "K", "--set", "=4"], ["run", "K", "--array", "a=1,x"],
        ["races", "K", "--width", "8", "--pair", "Transpse"],
        ["races", "K", "--bdim=--"],
    ])
    def test_bad_flag_values_are_usage_errors(self, kernel_files, capsys,
                                              argv):
        """Malformed dims and scalars, and an unknown pair, answer exit
        2, as the server's 422 does, not ``internal error`` or a
        verdict."""
        kernel = kernel_files["optimizedTranspose"]
        with pytest.raises(SystemExit) as exc:
            main([kernel if a == "K" else a for a in argv])
        assert exc.value.code == 2
        assert "internal error" not in capsys.readouterr().err

    def test_cli_does_not_import_the_server(self):
        """The CLI reaches the checkers without loading asyncio, the
        quota ledger or the session pool."""
        import os
        import subprocess
        import sys
        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); import repro.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith(('repro.serve', 'asyncio'))))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             timeout=60).stdout
        assert out.strip() == "[]"

    def test_portfolio_flag_is_usage_error(self, kernel_files):
        with pytest.raises(SystemExit) as exc:
            main(["races", kernel_files["optimizedTranspose"],
                  "--portfolio=2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [["--jobs", "0"], ["--jobs", "-3"]])
    def test_bad_solve_setting_is_usage_error(self, kernel_files, flags,
                                              capsys):
        with pytest.raises(SystemExit) as exc:
            main(["races", kernel_files["optimizedTranspose"], *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert "must be" in err

    def test_bughunt_with_skipped_frames_exits_3(self, tmp_path, capsys):
        """Reduction ``addr2`` hides in a frame bughunt skips: no bug is
        found, so the run is inconclusive, not verified."""
        from repro.cli import EXIT_UNKNOWN
        from repro.kernels import address_mutants
        from repro.lang import parse_kernel, pretty_kernel
        target = parse_kernel(KERNELS["optimizedReduce"].source)
        mutant = next(m for m in address_mutants(target)
                      if m.label == "addr2")
        src = tmp_path / "naiveReduce.cu"
        src.write_text(KERNELS["naiveReduce"].source)
        tgt = tmp_path / "addr2.cu"
        tgt.write_text(pretty_kernel(mutant.kernel))
        rc = main(["equiv", str(src), str(tgt), "--method", "param",
                   "--bughunt", "--width", "8", "--pair", "Reduction",
                   "--timeout", "60", "--no-cache"])
        out = capsys.readouterr().out
        assert rc == EXIT_UNKNOWN
        assert "unknown" in out and "[frames unverified]" in out

    def test_help_documents_exit_codes(self, capsys):
        import pytest
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "internal error" in out


class TestResilienceFlags:
    def test_escalation_flag_is_usage_error(self, tmp_path, capsys):
        """``--timeout`` is a check's only budget: there is no retry
        count, budget cap or escalation schedule to set, on either front
        door."""
        p = tmp_path / "ok.cu"
        p.write_text("void f(int *o) { o[tid.x] = 1; }")
        races = ["races", str(p), "--width", "8"]
        serve = ["serve", "--", "--stdio"]
        for argv, flag in ((races + ["--escalation", "luby"], "--escalation"),
                           (races + ["--retries", "2"], "--retries"),
                           (races + ["--max-budget", "60"], "--max-budget"),
                           (serve + ["--escalation", "luby"], "--escalation"),
                           (serve + ["--retries", "2"], "--retries")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in \
                capsys.readouterr().err

    def test_replay_opt_out_flag_is_usage_error(self, tmp_path, capsys):
        """Replay confirmation has no switch: every BUG is replayed."""
        p = tmp_path / "racy.cu"
        p.write_text("void f(int *o) { o[0] = tid.x; }")
        for prefix in ("", "no-"):
            with pytest.raises(SystemExit) as exc:
                main(["races", str(p), "--width", "8", "--timeout", "60",
                      f"--{prefix}validate-cex", "--no-cache"])
            assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_stats_include_resilience_section(self, tmp_path, capsys):
        """A solver exception ends the check inconclusive (exit 3) with
        the error as its reason, and --stats counts it in the resilience
        block."""
        from repro.cli import EXIT_UNKNOWN
        from repro.smt import FaultPlan, faults
        p = tmp_path / "ok.cu"
        p.write_text("void f(int *o) { o[tid.x] = 1; }")
        with faults.injected(FaultPlan(seed=4, solver_exception=1.0)):
            rc = main(["races", str(p), "--width", "8", "--timeout", "60",
                       "--cbdim", "4,1,1", "--cgdim", "1,1",
                       "--no-cache", "--stats"])
        out = capsys.readouterr().out
        assert rc == EXIT_UNKNOWN
        assert out.startswith("unknown (")
        assert "solver error: InjectedFault" in out
        assert "resilience:\n  errors       1 (contained as UNKNOWN)" in out
