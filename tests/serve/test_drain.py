"""Graceful shutdown: in-flight checks finish, late arrivals answer 503.

The drain contract — once ``closing`` is set (SIGTERM/EOF), no new
request is validated (it answers 503 with a ``draining`` body), while
requests already past validation run to completion and
the server only tears down once the last one settles or the deadline
expires.  These tests drive the :class:`~repro.serve.app.Server` object
directly with a stub session, so they are deterministic and fast; the
subprocess e2e suite covers the real-signal path.
"""

import asyncio

from repro.serve.app import Server


class StubSession:
    """A session whose checks block until the test releases them."""

    workers = 0
    cache_dir = None

    def __init__(self):
        self.release = asyncio.Event()
        self.started = asyncio.Event()

    async def run(self, req):
        self.started.set()
        await self.release.wait()
        return {"status": "ok", "verdict": "verified"}

    def close(self):
        pass


PAYLOAD = {"command": "races", "source": "__global__ void k(int* a) {}"}


def _run(coro):
    return asyncio.run(coro)


def _server(session=None):
    return Server(session or StubSession())


class TestDrain:
    def test_late_arrival_answers_503_draining(self):
        async def scenario():
            server = _server()
            server.closing.set()
            status, body = await server.handle(dict(PAYLOAD))
            return server, status, body
        server, status, body = _run(scenario())
        assert status == 503
        assert body["status"] == "draining"
        assert body["exit_code"] == 3
        assert server.stats["drain_rejected"] == 1

    def test_inflight_check_finishes_during_drain(self):
        async def scenario():
            session = StubSession()
            server = _server(session)
            inflight = asyncio.ensure_future(server.handle(dict(PAYLOAD)))
            await session.started.wait()
            assert server.active == 1
            server.closing.set()  # the SIGTERM moment
            # A new request is turned away while the old one still runs.
            status, body = await server.handle(dict(PAYLOAD))
            assert status == 503 and body["status"] == "draining"
            # Releasing the in-flight check lets the drain settle...
            session.release.set()
            await asyncio.wait_for(server.drained(), timeout=5)
            assert server.active == 0
            # ...and its caller still gets the real verdict, not a 503.
            return await inflight
        status, body = _run(scenario())
        assert status == 200 and body["verdict"] == "verified"

    def test_drained_resolves_immediately_when_idle(self):
        async def scenario():
            await asyncio.wait_for(_server().drained(), timeout=1)
        _run(scenario())

    def test_usage_errors_do_not_leak_active_count(self):
        async def scenario():
            server = _server()
            status, _ = await server.handle("not a dict")
            assert status == 422
            assert server.active == 0
            await asyncio.wait_for(server.drained(), timeout=1)
        _run(scenario())

    def test_snapshot_reports_draining_state(self):
        async def scenario():
            server = _server()
            assert server.snapshot()["draining"] is False
            server.closing.set()
            return server.snapshot()
        snap = _run(scenario())
        assert snap["draining"] is True
        assert snap["drain_rejected"] == 0
        assert "rejected" not in snap  # no admission control
