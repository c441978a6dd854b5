"""The CLI and the server build one :class:`CheckRequest` and run it through
one ``run_check``: the same check must answer the same over both."""

import json
from dataclasses import asdict

import pytest

from repro.check.request import CheckRequest, run_check
from repro.check.result import Verdict
from repro.cli import main
from repro.kernels import KERNELS, address_mutants, load
from repro.lang import pretty_kernel
from repro.serve.protocol import parse_request, verdict_exit_code
from repro.serve.session import execute_check
from repro.smt import SolveConfig

TRANSPOSE_C = {"pair": "Transpose", "cbdim": [2, 2, 1], "cgdim": [2, 2],
               "scalars": {"width": 4, "height": 4}}


def _transpose_mutant() -> str:
    kernel, _ = load("naiveTranspose")
    return pretty_kernel(list(address_mutants(kernel))[1].kernel)


#: (kernel sources, request fields, expected verdict): races param, equiv
#: param with a pair, equiv nonparam, func param and func nonparam.
CASES = {
    "races-param": (
        [KERNELS["scanRacy"].source],
        {"command": "races", "pair": "Reduction", "cbdim": [8, 1, 1],
         "cgdim": [1, 1]}, "bug"),
    "equiv-param-pair": (
        [KERNELS["naiveTranspose"].source,
         KERNELS["optimizedTranspose"].source],
        {"command": "equiv", "method": "param", **TRANSPOSE_C}, "verified"),
    "equiv-nonparam": (
        [KERNELS["naiveTranspose"].source,
         KERNELS["optimizedTranspose"].source],
        {"command": "equiv", "method": "nonparam", "bdim": [2, 2, 1],
         "gdim": [1, 1], "scalars": {"width": 2, "height": 2}}, "verified"),
    "func-param": (
        [_transpose_mutant()],
        {"command": "func", "method": "param", **TRANSPOSE_C}, "bug"),
    "func-nonparam": (
        [KERNELS["scalarProd"].source],
        {"command": "func", "method": "nonparam", "bdim": [6, 1, 1]}, "bug"),
}


def _cli_argv(fields: dict, paths: list[str], dest: str) -> list[str]:
    argv = [fields["command"], *paths, "--width", "8", "--timeout", "120",
            "--no-cache", "--stats-json", dest]
    if "method" in fields:
        argv += ["--method", fields["method"]]
    if "pair" in fields:
        argv += ["--pair", fields["pair"]]
    for flag in ("bdim", "gdim", "cbdim", "cgdim"):
        if flag in fields:
            argv += [f"--{flag}", ",".join(map(str, fields[flag]))]
    for name, value in fields.get("scalars", {}).items():
        argv += ["--set", f"{name}={value}"]
    return argv


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_and_server_agree(case, tmp_path, capsys):
    sources, fields, expected = CASES[case]
    paths = []
    for i, text in enumerate(sources):
        path = tmp_path / f"k{i}.cu"
        path.write_text(text)
        paths.append(str(path))
    dest = tmp_path / "outcome.json"
    rc = main(_cli_argv(fields, paths, str(dest)))
    capsys.readouterr()
    cli = json.loads(dest.read_text())

    payload = {**fields, "source": sources[0], "width": 8, "timeout": 120}
    if len(sources) > 1:
        payload["target"] = sources[1]
    served = execute_check(asdict(parse_request(payload)),
                           SolveConfig(cache=False))

    assert served["status"] == "ok"
    assert cli["verdict"] == served["verdict"] == expected
    assert rc == verdict_exit_code(served["verdict"])
    # JSON round trip: the in-process body still holds tuples.
    assert cli["counterexample"] == json.loads(
        json.dumps(served["counterexample"]))
    assert (cli["counterexample"] is None) == (expected != "bug")
    assert cli["vcs_checked"] == served["vcs_checked"] > 0


def test_run_check_applies_the_request_certify_setting():
    req = CheckRequest(command="races",
                       source="void f(int *o) { o[tid.x] = 1; }",
                       cbdim=(4, 1, 1), cgdim=(1, 1), certify=True)
    out = run_check(req, SolveConfig(cache=False))
    assert out.verdict is Verdict.VERIFIED
    assert out.stats["certify"]["rejected"] == 0

