"""Wire protocol of the verification server.

One request shape serves both transports (HTTP ``POST /v1/check`` and
JSONL over stdio / a unix socket): a JSON object naming a command
(``races`` / ``equiv`` / ``func`` / ``run`` is *not* served — the server
only answers verification questions), carrying kernel source text inline,
and optionally pinning the same knobs the CLI exposes.  A valid object
becomes the :class:`~repro.check.request.CheckRequest` the CLI builds too.
Validation errors raise :class:`ProtocolError` and surface as HTTP 422 / a
JSONL ``error`` object — the request never reaches a worker.

Two requests are *the same check* when they are alpha-equivalent: same
token stream after renaming every non-reserved identifier by first
encounter, same command, same knobs.  :func:`canonical_request_key`
computes that key (the in-flight dedup and response cache key) plus the
per-kernel first-encounter name lists that let
:func:`translate_counterexample` rebind a leader's counterexample to a
follower's own identifier spelling.  Reserved names — builtins the
semantics key off (``tid``/``bid``/``bdim``/``gdim``, the dimension
selectors) and any scalar the request pins by name — keep their spelling;
when a suite ``pair`` is named, renaming is skipped entirely because the
pair's assumption builder references scalars by name (conservative: two
spellings then never share a verdict, they are just solved twice).

The verdict mapping is the CLI's exit-code contract projected onto HTTP:

=============  =========  ====
verdict        HTTP       exit
=============  =========  ====
verified       200        0
bug            200        1
timeout        408        3
unknown        503        3
unsupported    503        3
(usage)        422        2
(overload)     429        3
(internal)     500        4
=============  =========  ====
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..check.request import (
    CheckRequest, parse_dims, parse_scalar, parse_timeout, parse_width,
)
from ..cli import (
    EXIT_INTERNAL, EXIT_REFUTED, EXIT_UNKNOWN, EXIT_USAGE, EXIT_VERIFIED,
)
from ..lang.lexer import tokenize

__all__ = [
    "ProtocolError", "CheckRequest", "parse_request",
    "canonical_request_key", "translate_counterexample",
    "verdict_http_status", "verdict_exit_code",
    "HTTP_USAGE", "HTTP_OVERLOAD", "HTTP_INTERNAL",
]

#: Request-level statuses with no verdict behind them.
HTTP_USAGE = 422
HTTP_OVERLOAD = 429
HTTP_INTERNAL = 500

_COMMANDS = ("races", "equiv", "func")
_METHODS = ("param", "nonparam")

#: Identifiers whose spelling is semantic — never alpha-renamed.  The
#: thread/block builtins and the dimension selector fields; scalar names
#: pinned by a request are added per-request.
RESERVED_NAMES = frozenset({"tid", "bid", "bdim", "gdim", "x", "y", "z"})


class ProtocolError(ValueError):
    """A malformed request — the server answers 422, nothing is solved."""


def _require_str(payload: dict, name: str) -> str:
    value = payload.get(name)
    if not isinstance(value, str) or not value.strip():
        raise ProtocolError(f"field {name!r} must be a non-empty string")
    return value


def _field(name: str, parse, *args):
    """``parse(*args)``, its ``ValueError`` reported against ``name``."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise ProtocolError(f"field {name!r} {exc}") from None


def _opt_dims(payload: dict, name: str, length: int) -> tuple | None:
    value = payload.get(name)
    return None if value is None else \
        _field(name, parse_dims, value, length)


def parse_request(payload: Any) -> CheckRequest:
    """Validate a decoded JSON object into a :class:`CheckRequest`.

    Every violation raises :class:`ProtocolError` with a message naming
    the offending field — the HTTP layer forwards it verbatim as the 422
    body so a client can fix the request without reading server logs.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    unknown = set(payload) - {
        "command", "source", "target", "method", "width", "timeout",
        "pair", "bdim", "gdim", "cbdim", "cgdim", "scalars", "bughunt",
        "certify", "tenant"}
    if unknown:
        raise ProtocolError(
            f"unknown fields: {', '.join(sorted(unknown))}")
    command = payload.get("command")
    if command not in _COMMANDS:
        raise ProtocolError(
            f"field 'command' must be one of {', '.join(_COMMANDS)}")
    source = _require_str(payload, "source")
    target = None
    if command == "equiv":
        target = _require_str(payload, "target")
    elif payload.get("target") is not None:
        raise ProtocolError("field 'target' is only valid for 'equiv'")
    method = payload.get("method", "param")
    if method not in _METHODS:
        raise ProtocolError(
            f"field 'method' must be one of {', '.join(_METHODS)}")
    if command == "races" and method != "param":
        raise ProtocolError("'races' only supports the param method")
    width = _field("width", parse_width, payload.get("width", 8))
    timeout = _field("timeout", parse_timeout, payload.get("timeout", 60.0))
    pair = payload.get("pair")
    if pair is not None and (not isinstance(pair, str) or not pair):
        raise ProtocolError("field 'pair' must be a non-empty string")
    scalars_raw = payload.get("scalars", {})
    if not isinstance(scalars_raw, dict):
        raise ProtocolError("field 'scalars' must be an object")
    scalars = dict(_field("scalars", parse_scalar, name, value)
                   for name, value in scalars_raw.items())
    bughunt = payload.get("bughunt", False)
    certify = payload.get("certify", False)
    if not isinstance(bughunt, bool) or not isinstance(certify, bool):
        raise ProtocolError("'bughunt' and 'certify' must be booleans")
    if bughunt and command != "equiv":
        raise ProtocolError("field 'bughunt' is only valid for 'equiv'")
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("field 'tenant' must be a non-empty string")
    req = CheckRequest(
        command=command, source=source, target=target, method=method,
        width=width, timeout=timeout, pair=pair,
        bdim=_opt_dims(payload, "bdim", 3),
        gdim=_opt_dims(payload, "gdim", 2),
        cbdim=_opt_dims(payload, "cbdim", 3),
        cgdim=_opt_dims(payload, "cgdim", 2),
        scalars=scalars, bughunt=bughunt, certify=certify, tenant=tenant)
    if method == "nonparam" and req.bdim is None:
        raise ProtocolError("the nonparam method requires 'bdim'")
    return req


# --------------------------------------------------- alpha-invariant key


def _alpha_tokens(source: str,
                  reserved: frozenset[str]) -> tuple[list[str], list[str]]:
    """The source's token spellings with non-reserved identifiers renamed
    by first encounter, plus the encounter-ordered original names.

    A lexically invalid kernel falls back to the raw text (it will fail
    identically for every spelling of itself, which is all dedup needs).
    """
    try:
        tokens = tokenize(source)
    except Exception:
        return [source], []
    ordinals: dict[str, int] = {}
    names: list[str] = []
    out: list[str] = []
    for tok in tokens:
        if tok.kind == "ident" and tok.text not in reserved:
            if tok.text not in ordinals:
                ordinals[tok.text] = len(names)
                names.append(tok.text)
            out.append(f"\x00{ordinals[tok.text]}")
        else:
            out.append(f"{tok.kind}:{tok.text}")
    return out, names


def canonical_request_key(req: CheckRequest) -> tuple[str, list[list[str]]]:
    """The request's dedup key and per-kernel first-encounter name lists.

    The key folds the alpha-renamed token streams together with every
    verdict-relevant knob (tenant excluded — quota identity must not
    split the cache).  The name lists translate a leader's
    counterexample back into a follower's identifiers
    (:func:`translate_counterexample`).
    """
    if req.pair is not None:
        # Assumption builders reference scalars by name: renaming could
        # alias two kernels whose verdicts differ under the pair's
        # assumptions.  Degrade to textual identity — never false-shares.
        reserved = None
        sources = [s for s in (req.source, req.target) if s is not None]
        streams = [[s] for s in sources]
        names: list[list[str]] = [[] for _ in sources]
    else:
        reserved = RESERVED_NAMES | frozenset(req.scalars)
        streams, names = [], []
        for source in (req.source, req.target):
            if source is None:
                continue
            stream, encountered = _alpha_tokens(source, reserved)
            streams.append(stream)
            names.append(encountered)
    material = json.dumps({
        "command": req.command, "method": req.method, "width": req.width,
        "timeout": req.timeout, "pair": req.pair,
        "bdim": req.bdim, "gdim": req.gdim,
        "cbdim": req.cbdim, "cgdim": req.cgdim,
        "scalars": sorted(req.scalars.items()),
        "bughunt": req.bughunt,
        # Certified and uncertified runs of the same check must not share
        # a response: only the former carries a proof-checked guarantee.
        "certify": req.certify,
        "streams": streams,
    }, sort_keys=True, separators=(",", ":"))
    key = hashlib.sha256(material.encode("utf-8")).hexdigest()
    return key, names


def translate_counterexample(cex: dict | None, leader_names: list[list[str]],
                             follower_names: list[list[str]]) -> dict | None:
    """Rebind a leader's counterexample to a follower's identifiers.

    Alpha-equivalent kernels agree on every first-encounter ordinal, so a
    name in the leader's counterexample maps to the follower's name at
    the same ordinal.  Names outside the lists (reserved builtins, pinned
    scalars) pass through unchanged — their spelling is shared by
    construction.
    """
    if cex is None:
        return None
    mapping: dict[str, str] = {}
    for lead, follow in zip(leader_names, follower_names):
        for ordinal, name in enumerate(lead):
            if ordinal < len(follow):
                mapping[name] = follow[ordinal]
    if not mapping:
        return cex

    def rename(name: str) -> str:
        return mapping.get(name, name)

    out = dict(cex)
    if isinstance(cex.get("scalars"), dict):
        out["scalars"] = {rename(k): v for k, v in cex["scalars"].items()}
    if isinstance(cex.get("arrays"), dict):
        out["arrays"] = {rename(k): v for k, v in cex["arrays"].items()}
    return out


# ----------------------------------------------------- verdict mappings


def verdict_http_status(verdict: str) -> int:
    """HTTP status for a solved request's verdict string."""
    if verdict in ("verified", "bug"):
        return 200       # the question was answered, either way
    if verdict == "timeout":
        return 408       # budget exhausted — the paper's T.O
    return 503           # unknown / unsupported: degradation, retryable


def verdict_exit_code(verdict: str) -> int:
    """The CLI exit-code contract, for the bundled client."""
    if verdict == "verified":
        return EXIT_VERIFIED
    if verdict == "bug":
        return EXIT_REFUTED
    return EXIT_UNKNOWN


#: Exit codes re-exported for client symmetry.
EXIT_CODES = {
    "verified": EXIT_VERIFIED, "bug": EXIT_REFUTED,
    "usage": EXIT_USAGE, "inconclusive": EXIT_UNKNOWN,
    "internal": EXIT_INTERNAL,
}
