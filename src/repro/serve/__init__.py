"""Long-lived verification serving: warm workers, one shared sharded
query cache, alpha-invariant in-flight dedup.  Entry point:
``python -m repro.serve`` (see :mod:`.app`)."""

from .protocol import (
    CheckRequest, ProtocolError, canonical_request_key, parse_request,
    translate_counterexample, verdict_exit_code, verdict_http_status,
)
from .session import Session, execute_check
from .app import Server, main

__all__ = [
    "CheckRequest", "ProtocolError", "canonical_request_key",
    "parse_request", "translate_counterexample", "verdict_exit_code",
    "verdict_http_status",
    "Session", "execute_check",
    "Server", "main",
]
