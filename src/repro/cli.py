"""Command-line interface: ``pugpara <command> ...``.

Commands mirror the library's checkers:

* ``pugpara equiv SRC.cu TGT.cu --method param --width 8 [--pair Transpose]``
* ``pugpara func KERNEL.cu --method nonparam --bdim 4,1,1``
* ``pugpara races KERNEL.cu --width 8``
* ``pugpara run KERNEL.cu --bdim 4,1,1 --set n=3 --array data=1,2,3,4``
* ``pugpara suite`` — list the bundled kernel suite.
* ``pugpara serve --port 0 --workers 2`` — the long-lived verification
  server (forwards to ``python -m repro.serve``).
* ``pugpara client URL [REQUEST.json]`` — send one JSON check request to
  a running server; exits with the server-reported exit code.

``equiv``, ``func`` and ``races`` read their kernel files and flags into a
:class:`~repro.check.request.CheckRequest` and run it through
:func:`~repro.check.request.run_check`, the path the server's requests
take too.  Every BUG is replay-confirmed on the concrete interpreter.

Exit codes (the contract CI and scripts key off):

* ``0`` — property verified (or a concrete run finished clean);
* ``1`` — property refuted: a replay-confirmed counterexample was found;
* ``2`` — usage error: a bad flag, or a kernel that does not parse or
  type-check;
* ``3`` — inconclusive: budget exhausted (the paper's T.O), an unconfirmed
  candidate counterexample, or an unsupported kernel — degradation, not
  failure;
* ``4`` — internal error: the checker itself failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .check.request import (
    USAGE_ERRORS, CheckRequest, parse_dims, parse_scalar, parse_timeout,
    parse_width, run_check,
)
from .check.result import Verdict, format_solver_stats, outcome_to_json
from .lang import LaunchConfig, check_kernel, parse_kernel, run_kernel
from .smt import QueryCache, RetryPolicy, SolveConfig, resolve_cache
from .smt.resilience import ESCALATIONS

__all__ = ["main", "EXIT_VERIFIED", "EXIT_REFUTED", "EXIT_USAGE",
           "EXIT_UNKNOWN", "EXIT_INTERNAL"]

#: The exit-code contract (also documented in ``--help`` and README).
EXIT_VERIFIED = 0   # property holds / clean concrete run
EXIT_REFUTED = 1    # replay-confirmed counterexample
EXIT_USAGE = 2      # bad flag, or a kernel that fails to parse/type-check
EXIT_UNKNOWN = 3    # T.O / unconfirmed candidate / unsupported kernel
EXIT_INTERNAL = 4   # the checker itself failed

_EXIT_EPILOG = """\
exit codes:
  0  property verified (or concrete run finished without races/assertions)
  1  property refuted: replay-confirmed counterexample (or concrete run hit
     a race/assertion failure)
  2  usage error (bad flag; kernel does not parse or type-check)
  3  inconclusive: budget exhausted (T.O), unconfirmed candidate
     counterexample, skipped obligations (--bughunt found no bug), or
     unsupported kernel
  4  internal error

front-end environment knobs (defaults in parentheses):
  PUGPARA_TEMPLATES     cross-config VC template cache (1); 0 re-runs
                        symbolic execution for every cell
  PUGPARA_TEMPLATE_DIR  sharded on-disk template store directory (unset:
                        in-memory only; repro.serve sets its own)
"""


def _arg(parse, convert=str, *args):
    """An argparse ``type``: ``convert`` the text, then ``parse`` it with
    the validator the server uses for the same field."""
    def typed(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = text   # the validator says what is wrong with it
        try:
            return parse(value, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r} {exc}") from None
    return typed


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _scalar(text: str) -> tuple[str, int]:
    """An argparse ``type`` for ``NAME=VAL``."""
    name, sep, value = text.partition("=")
    try:
        return parse_scalar(name, int(value, 0) if sep else None)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not NAME=INT") from None


def _array(text: str) -> tuple[str, dict[int, int]]:
    """An argparse ``type`` for ``NAME=v0,v1,...``."""
    name, _, values = text.partition("=")
    try:
        if name:
            return name, {i: int(v, 0)
                          for i, v in enumerate(values.split(","))}
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not NAME=INT,INT,...")


def _request(args, solve: SolveConfig) -> CheckRequest:
    """The check command's request: its kernel files read, its flags
    copied, ``certify`` as ``solve`` resolved it."""
    equiv = args.command == "equiv"
    return CheckRequest(
        command=args.command,
        source=_read(args.source if equiv else args.kernel),
        target=_read(args.target) if equiv else None,
        method=getattr(args, "method", "param"), width=args.width,
        timeout=args.timeout, pair=args.pair, bdim=args.bdim,
        gdim=args.gdim, cbdim=args.cbdim, cgdim=args.cgdim,
        scalars=dict(args.set),
        bughunt=getattr(args, "bughunt", False), certify=solve.certify)


def _solve_config(args) -> SolveConfig:
    """The one :class:`SolveConfig` of a check command: the environment's
    settings with the flags on top.  A bad flag value (``--jobs 0``,
    ``--retries -1``) raises ``ValueError``."""
    fields: dict = {"policy": RetryPolicy(
        retries=args.retries if args.retries is not None else 0,
        escalation=args.escalation or "geometric",
        max_timeout=args.max_budget)}
    if args.jobs is not None:
        fields["jobs"] = args.jobs
    if args.certify is not None:
        fields["certify"] = args.certify
    if args.no_cache:
        fields["cache"] = False
    elif args.cache_dir:
        fields["cache"] = QueryCache(disk_dir=args.cache_dir)
    return SolveConfig.from_env(**fields)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pugpara",
        description="Parameterized verification of GPU kernel programs "
                    "(PUGpara reproduction)",
        epilog=_EXIT_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--width", type=_arg(parse_width, int), default=8,
                       help="machine word width in bits, 1..64 (default 8)")
        p.add_argument("--timeout", type=_arg(parse_timeout, float),
                       default=60.0,
                       help="wall budget in seconds, in (0, 3600] "
                            "(default 60)")
        p.add_argument("--bdim", type=_arg(parse_dims, str, 3),
                       help="concrete block dims, e.g. 4,4,1")
        p.add_argument("--gdim", type=_arg(parse_dims, str, 2),
                       help="concrete grid dims, e.g. 2,2")
        p.add_argument("--cbdim", type=_arg(parse_dims, str, 3),
                       help="+C: pin bdim for the param method")
        p.add_argument("--cgdim", type=_arg(parse_dims, str, 2),
                       help="+C: pin gdim for the param method")
        p.add_argument("--set", action="append", default=[], type=_scalar,
                       metavar="NAME=VAL", help="pin a scalar input")
        p.add_argument("--pair", help="use the named suite pair's "
                                      "configuration assumptions")
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="solve independent VCs on N worker processes "
                            "(default: $PUGPARA_JOBS or 1)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the canonical query cache")
        p.add_argument("--cache-dir", metavar="DIR",
                       help="persist the query cache on disk under DIR "
                            "(e.g. .pugpara_cache)")
        p.add_argument("--certify",
                       action=argparse.BooleanOptionalAction, default=None,
                       help="require a checked DRAT proof for every UNSAT "
                            "(VERIFIED) verdict; a failed check degrades "
                            "the query to inconclusive, never a trusted "
                            "answer (default: PUGPARA_CERTIFY, off)")
        p.add_argument("--stats", action="store_true",
                       help="print accumulated solver statistics "
                            "(conflicts, decisions, phase times, cache hits)")
        p.add_argument("--stats-json", nargs="?", const="-", default=None,
                       metavar="FILE",
                       help="emit the outcome (verdict, counterexample, "
                            "stats) as JSON to FILE, or to stdout when "
                            "FILE is omitted — the same shape the serve "
                            "API returns")
        p.add_argument("--retries", type=int, default=None, metavar="N",
                       help="retry UNKNOWN solver verdicts up to N times "
                            "under escalated budgets "
                            "(default 0)")
        p.add_argument("--escalation", choices=ESCALATIONS, default=None,
                       help="budget escalation schedule for retries: "
                            "geometric doubles the budget each attempt, "
                            "luby follows the Luby restart sequence")
        p.add_argument("--max-budget", type=float, default=None,
                       metavar="SECONDS",
                       help="cap on the escalated per-query timeout")

    p_eq = sub.add_parser("equiv", help="check kernel equivalence")
    p_eq.add_argument("source")
    p_eq.add_argument("target")
    p_eq.add_argument("--method", choices=("param", "nonparam"),
                      default="param")
    p_eq.add_argument("--bughunt", action="store_true",
                      help="fast bug hunting: skip frame conditions")
    common(p_eq)

    p_fn = sub.add_parser("func", help="check postconditions")
    p_fn.add_argument("kernel")
    p_fn.add_argument("--method", choices=("param", "nonparam"),
                      default="param")
    common(p_fn)

    p_rc = sub.add_parser("races", help="parameterized race check")
    p_rc.add_argument("kernel")
    common(p_rc)

    p_run = sub.add_parser("run", help="execute a kernel concretely")
    p_run.add_argument("kernel")
    p_run.add_argument("--array", action="append", default=[], type=_array,
                       metavar="NAME=v0,v1,...")
    common(p_run)

    sub.add_parser("suite", help="list the bundled kernel suite")

    p_srv = sub.add_parser(
        "serve", help="run the long-lived verification server")
    p_srv.add_argument("serve_args", nargs=argparse.REMAINDER,
                       help="arguments forwarded to python -m repro.serve")

    p_cl = sub.add_parser(
        "client", help="send one check request to a running server")
    p_cl.add_argument("url", help="server base URL, e.g. "
                                  "http://127.0.0.1:8735")
    p_cl.add_argument("request", nargs="?", default=None,
                      help="path to a JSON request object "
                           "(default: read from stdin)")

    args = parser.parse_args(argv)
    solve = None
    if args.command in ("equiv", "func", "races"):
        try:
            solve = _solve_config(args)
        except ValueError as exc:
            parser.error(str(exc))  # exit 2, like any usage error
    try:
        return _dispatch(args, solve)
    except USAGE_ERRORS as exc:
        # A kernel that does not parse or type-check, as the server's 422.
        print(f"pugpara: usage error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # An internal failure must be distinguishable from a refutation
        # (1) and from honest degradation (3).
        print(f"pugpara: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


def _client(args) -> int:
    """POST one JSON request to a running server, print the response,
    and exit with the server-reported exit code."""
    import urllib.error
    import urllib.request

    if args.request:
        with open(args.request, encoding="utf-8") as fh:
            payload = fh.read()
    else:
        payload = sys.stdin.read()
    try:
        json.loads(payload)
    except ValueError as exc:
        print(f"pugpara client: request is not valid JSON: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    url = args.url.rstrip("/") + "/v1/check"
    req = urllib.request.Request(
        url, data=payload.encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=3900) as resp:
            raw = resp.read()
    except urllib.error.HTTPError as exc:
        raw = exc.read()  # 4xx/5xx responses still carry a JSON body
    except urllib.error.URLError as exc:
        print(f"pugpara client: cannot reach {url}: {exc.reason}",
              file=sys.stderr)
        return EXIT_INTERNAL
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        print(f"pugpara client: unparseable response: {raw[:200]!r}",
              file=sys.stderr)
        return EXIT_INTERNAL
    print(json.dumps(body, indent=2, sort_keys=True))
    exit_code = body.get("exit_code")
    return exit_code if isinstance(exit_code, int) else EXIT_INTERNAL


def _attach_cache_health(outcome, cache) -> None:
    """Fold the effective query cache's health counters into the outcome
    stats (``--stats`` / ``--stats-json``): quarantined corrupt disk
    entries."""
    resolved = resolve_cache(cache)
    if resolved is None:
        return
    quarantined = resolved.stats.get("quarantined", 0)
    if quarantined:
        outcome.stats["cache"] = {"quarantined": quarantined}


def _dispatch(args, solve: SolveConfig | None) -> int:
    if args.command == "serve":
        from .serve import main as serve_main
        serve_args = list(args.serve_args)
        if serve_args and serve_args[0] == "--":
            serve_args = serve_args[1:]
        return serve_main(serve_args)

    if args.command == "client":
        return _client(args)

    if args.command == "suite":
        from .kernels import KERNELS, PAIRS
        print("kernels:")
        for name in sorted(KERNELS):
            print(f"  {name}")
        print("equivalence pairs:")
        for name in sorted(PAIRS):
            print(f"  {name}")
        return EXIT_VERIFIED

    if args.command == "run":
        info = check_kernel(parse_kernel(_read(args.kernel)))
        inputs: dict[str, object] = {}
        inputs.update(args.set)
        inputs.update(args.array)
        config = LaunchConfig(bdim=args.bdim or (1, 1, 1),
                              gdim=args.gdim or (1, 1), width=args.width)
        result = run_kernel(info, config, inputs)
        for name in info.global_arrays:
            cells = result.globals.get(name, {})
            rendered = ", ".join(f"[{i}]={v}"
                                 for i, v in sorted(cells.items()))
            print(f"{name}: {rendered}")
        for race in result.races:
            print(f"RACE: {race}")
        for failure in result.assertion_failures:
            print(f"ASSERT: {failure}")
        return (EXIT_VERIFIED
                if not (result.races or result.assertion_failures)
                else EXIT_REFUTED)

    # equiv / func / races: one request through the shared check path
    outcome = run_check(_request(args, solve), solve)
    if args.stats or args.stats_json:
        _attach_cache_health(outcome, solve.cache)
    print(outcome)
    if args.stats:
        print(format_solver_stats(outcome))
    dest = args.stats_json
    if dest:
        blob = json.dumps(outcome_to_json(outcome), indent=2, sort_keys=True)
        if dest == "-":
            print(blob)
        else:
            with open(dest, "w", encoding="utf-8") as fh:
                fh.write(blob + "\n")
    if outcome.verdict is Verdict.VERIFIED:
        return EXIT_VERIFIED
    if outcome.verdict is Verdict.BUG:
        return EXIT_REFUTED
    # TIMEOUT / UNKNOWN / UNSUPPORTED: inconclusive, not wrong.
    return EXIT_UNKNOWN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
