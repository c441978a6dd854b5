"""Session and server-core tests, run in-process: request execution,
in-flight dedup (single solve, translated counterexamples), usage
errors, and the no-orphan guarantee of the warm pool."""

import asyncio
import multiprocessing
import time

import pytest

from repro.kernels import KERNELS
from repro.serve.app import Server
from repro.serve.session import Session, execute_check
from repro.smt import SolveConfig
from repro.smt.qcache import QueryCache

SRC = KERNELS["optimizedTranspose"].source

RACES = {"command": "races", "source": SRC, "width": 8,
         "pair": "Transpose", "cbdim": [2, 2, 1], "cgdim": [2, 2],
         "scalars": {"width": 4, "height": 4}, "timeout": 120}


def _run(coro):
    return asyncio.run(coro)


def _assert_no_orphans(timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        children = multiprocessing.active_children()
        if not children:
            return
        time.sleep(0.05)
    raise AssertionError(f"orphaned worker processes: {children}")


class TestExecuteCheck:
    def test_verified_body_shape(self):
        from repro.serve.protocol import parse_request
        from dataclasses import asdict
        body = execute_check(asdict(parse_request(RACES)))
        assert body["status"] == "ok"
        assert body["verdict"] == "verified"
        assert body["counterexample"] is None
        assert body["stats"]["solver"]["queries"] > 0

    def test_unparseable_kernel_is_usage(self):
        body = execute_check({"command": "races",
                              "source": "__global__ void ((("})
        assert body["status"] == "usage"
        assert "error" in body


class TestServerCore:
    def test_verified_and_warm_cache(self, tmp_path):
        async def scenario():
            session = Session(workers=0, cache_dir=str(tmp_path / "qc"))
            server = Server(session)
            try:
                s1, b1 = await server.handle(RACES)
                s2, b2 = await server.handle(RACES)
            finally:
                session.close()
            return s1, b1, s2, b2

        s1, b1, s2, b2 = _run(scenario())
        assert s1 == s2 == 200
        assert b1["verdict"] == b2["verdict"] == "verified"
        assert b1["exit_code"] == 0
        assert b1["key"] == b2["key"]
        assert b2["stats"]["solver"]["cache_hits"] > 0
        # entries landed in the sharded store
        assert any((tmp_path / "qc").glob("*/*.json"))

    def test_usage_path(self):
        async def scenario():
            session = Session(workers=0)
            server = Server(session)
            try:
                return await server.handle({"command": "nope"})
            finally:
                session.close()

        status, body = _run(scenario())
        assert status == 422 and body["exit_code"] == 2

    def test_conflict_quota_is_a_usage_error(self, capsys):
        from repro.serve.app import main
        with pytest.raises(SystemExit) as exc:
            main(["--quota-conflicts", "1000"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --quota-conflicts" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--quota-seconds", "--quota-window",
                                      "--max-inflight"])
    def test_quota_flags_are_usage_errors(self, flag, capsys):
        from repro.serve.app import main
        with pytest.raises(SystemExit) as exc:
            main(["--stdio", flag, "10"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("validate", False),
                                             ("tenant", "default"),
                                             ("pair", "Transpse")])
    def test_bad_field_answers_422(self, field, value):
        async def scenario():
            session = Session(workers=0)
            server = Server(session)
            try:
                return await server.handle({**RACES, field: value})
            finally:
                session.close()

        status, body = _run(scenario())
        assert status == 422 and body["exit_code"] == 2
        assert field in body["error"]
        assert "verdict" not in body


class TestSolveConfigReachesChecks:
    """The server's checks run under the session's solve settings."""

    def test_session_checks_receive_the_solve_config(self, monkeypatch):
        import repro.check.request as request_mod
        from repro.check.result import CheckOutcome, Verdict
        seen = []

        def fake_check_races(info, width, **kwargs):
            seen.append(kwargs["solve"])
            return CheckOutcome(verdict=Verdict.VERIFIED)
        monkeypatch.setattr(request_mod, "check_races", fake_check_races)
        solve = SolveConfig(jobs=3, cache=False)

        async def scenario():
            session = Session(workers=0, solve=solve)
            try:
                return await Server(session).handle(dict(RACES))
            finally:
                session.close()

        status, _ = _run(scenario())
        assert status == 200
        assert seen == [solve]


class _StubSession:
    """A Session stand-in with a gate, so dedup timing is deterministic."""
    workers = 0
    cache_dir = None

    def __init__(self, body):
        self.body = body
        self.calls = 0
        self.gate = asyncio.Event()

    async def run(self, req):
        self.calls += 1
        await self.gate.wait()
        return dict(self.body)

    def close(self):
        pass


class TestInflightDedup:
    def test_identical_requests_solve_once(self):
        canned = {"status": "ok", "verdict": "verified",
                  "counterexample": None, "stats": {}}

        async def scenario():
            session = _StubSession(canned)
            server = Server(session)
            t1 = asyncio.ensure_future(server.handle(dict(RACES)))
            t2 = asyncio.ensure_future(server.handle(dict(RACES)))
            await asyncio.sleep(0.05)  # both reach dedup
            session.gate.set()
            return await asyncio.gather(t1, t2), session.calls, server

        (r1, r2), calls, server = _run(scenario())
        assert calls == 1  # one solve, two answers
        bodies = sorted((r1[1], r2[1]), key=lambda b: "deduped" in b)
        assert "deduped" not in bodies[0]
        assert bodies[1]["deduped"] is True
        assert bodies[0]["verdict"] == bodies[1]["verdict"] == "verified"
        assert server.stats["deduped"] == 1

    def test_follower_counterexample_is_renamed(self):
        # The leader's counterexample speaks the leader's identifiers;
        # an alpha-equivalent follower must hear its own.
        leader_payload = {"command": "races", "source": SRC,
                          "timeout": 30}
        renamed = SRC.replace("odata", "zz_out")
        follower_payload = {"command": "races", "source": renamed,
                            "timeout": 30}
        canned = {"status": "ok", "verdict": "bug",
                  "counterexample": {"scalars": {"width": 4},
                                     "arrays": {"odata": {"0": 7}},
                                     "detail": "conflicting write"},
                  "stats": {}}

        async def scenario():
            session = _StubSession(canned)
            server = Server(session)
            t1 = asyncio.ensure_future(server.handle(leader_payload))
            await asyncio.sleep(0.05)  # the leader claims the key
            t2 = asyncio.ensure_future(server.handle(follower_payload))
            await asyncio.sleep(0.05)
            session.gate.set()
            return await asyncio.gather(t1, t2), session.calls

        (r1, r2), calls = _run(scenario())
        assert calls == 1
        lead_body, follow_body = r1[1], r2[1]
        assert follow_body["deduped"] is True
        assert lead_body["counterexample"]["arrays"] == {"odata": {"0": 7}}
        assert follow_body["counterexample"]["arrays"] == \
            {"zz_out": {"0": 7}}
        assert follow_body["counterexample"]["scalars"] == {"width": 4}

    def test_distinct_requests_solve_separately(self):
        canned = {"status": "ok", "verdict": "verified",
                  "counterexample": None, "stats": {}}

        async def scenario():
            session = _StubSession(canned)
            server = Server(session)
            other = dict(RACES, width=16)
            t1 = asyncio.ensure_future(server.handle(dict(RACES)))
            t2 = asyncio.ensure_future(server.handle(other))
            await asyncio.sleep(0.05)
            session.gate.set()
            await asyncio.gather(t1, t2)
            return session.calls, server.stats["deduped"]

        calls, deduped = _run(scenario())
        assert calls == 2 and deduped == 0


@pytest.mark.slow
class TestWarmPool:
    def test_pooled_check_and_no_orphans(self, tmp_path):
        async def scenario():
            session = Session(workers=2, cache_dir=str(tmp_path / "qc"))
            server = Server(session)
            try:
                s1, b1 = await server.handle(RACES)
                s2, b2 = await server.handle(RACES)
            finally:
                session.close()
            return (s1, b1), (s2, b2)

        (s1, b1), (s2, b2) = _run(scenario())
        assert s1 == s2 == 200
        assert b1["verdict"] == b2["verdict"] == "verified"
        # the second request hit the shared disk cache from a warm worker
        assert b2["stats"]["solver"]["cache_hits"] > 0
        _assert_no_orphans()
