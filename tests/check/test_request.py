"""The CLI and the server build one :class:`CheckRequest` and run it through
one ``run_check``: the same check must answer the same over both."""

import json
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.request import CheckRequest, run_check
from repro.check.result import CheckOutcome, Verdict
from repro.cli import main
from repro.kernels import KERNELS, address_mutants, load
from repro.lang import pretty_kernel
from repro.serve.protocol import (
    ProtocolError, parse_request, verdict_exit_code,
)
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



# ------------------------------------------------ one validator per field

_SRC = "void f(int *o) { o[tid.x] = 1; }"

#: JSON scalars, near and far from every field's valid range.
_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70), st.integers(),
    st.floats(), st.floats(-1, 4000), st.text(max_size=4))

_FIELD_VALUES = st.one_of(
    st.tuples(st.sampled_from(["width", "timeout"]),
              st.one_of(_JSON, st.lists(_JSON, max_size=2))),
    st.tuples(st.sampled_from(["bdim", "gdim", "cbdim", "cgdim"]),
              st.one_of(st.lists(st.one_of(_JSON, st.integers(0, 5)),
                                 max_size=4),
                        st.text(alphabet="0123456789,- x", max_size=8))),
    st.tuples(st.just("scalars"),
              st.dictionaries(st.one_of(st.sampled_from(["n", "width"]),
                                        st.text(max_size=3)),
                              _JSON, max_size=3)),
)


def _cli_spelling(field: str, value) -> list[str]:
    """The flags that carry a JSON field value on the command line: a dim
    list is comma-joined (a string is the dim list's own text), a scalar
    is ``--set NAME=VALUE``, and every other value is its JSON text."""
    if field == "scalars":
        return [f"--set={name}={json.dumps(v)}" for name, v in value.items()]
    if field in ("width", "timeout"):
        return [f"--{field}={json.dumps(value)}"]
    text = value if isinstance(value, str) else \
        ",".join(json.dumps(v) for v in value)
    return [f"--{field}={text}"]


@pytest.fixture(scope="module")
def kernel_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("request") / "k.cu"
    path.write_text(_SRC)
    return str(path)


def _cli_request(monkeypatch, kernel_path: str, flags: list[str]):
    """The request the CLI builds from ``flags``, or None when it rejects
    them as a usage error (exit 2)."""
    import repro.cli as cli
    built = []

    def record(req, solve):
        built.append(req)
        return CheckOutcome(verdict=Verdict.VERIFIED)
    monkeypatch.setattr(cli, "run_check", record)
    try:
        main(["races", kernel_path, "--no-certify", *flags])
    except SystemExit as exc:
        assert exc.code == 2
        return None
    (req,) = built
    return req


def _server_request(field: str, value):
    """The request the server builds, or None when it answers 422."""
    try:
        return parse_request({"command": "races", "source": _SRC,
                              field: value})
    except ProtocolError:
        return None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_FIELD_VALUES)
def test_cli_and_server_validate_fields_alike(monkeypatch, kernel_path,
                                              capsys, field_value):
    field, value = field_value
    served = _server_request(field, value)
    cli = _cli_request(monkeypatch, kernel_path,
                       _cli_spelling(field, value))
    capsys.readouterr()
    assert cli == served, (field, value)


@pytest.mark.parametrize("field,value", [
    ("width", 0), ("width", 65), ("width", True), ("width", 8.0),
    ("timeout", 0), ("timeout", -1), ("timeout", True),
    ("timeout", float("nan")),
    pytest.param("timeout", 10 ** 400, id="timeout-beyond-float"),
    ("cbdim", [True, 2]), ("cgdim", [2, False]), ("bdim", [0]),
    ("scalars", {"n": True}), ("scalars", {"a=b": 1}), ("scalars", {"": 1}),
])
def test_bad_values_are_rejected_on_both_sides(monkeypatch, kernel_path,
                                               capsys, field, value):
    assert _server_request(field, value) is None
    assert _cli_request(monkeypatch, kernel_path,
                        _cli_spelling(field, value)) is None
    assert "internal error" not in capsys.readouterr().err
