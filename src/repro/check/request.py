"""One check request, from every front end to the checkers.

The CLI reads its kernel files and flags into a :class:`CheckRequest`; the
server validates a JSON body into the same type, each field through the
same ``parse_*`` function, so both reject the same values.  Both then call
:func:`run_check`, the one mapping from a request to the method-specific
checker, so a check answers the same over either surface.  Every BUG it
returns is replay-confirmed on the concrete interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..errors import ParseError, SortError, TypeCheckError
from ..lang import LaunchConfig, check_kernel, parse_kernel
from ..smt import SolveConfig
from .configs import SUITE_PAIRS, suite_assumptions
from .equivalence import ParamOptions, check_equivalence
from .functional import check_functional
from .races import check_races
from .result import CheckOutcome

__all__ = ["CheckRequest", "USAGE_ERRORS", "parse_dims", "parse_pair",
           "parse_scalar", "parse_timeout", "parse_width", "run_check"]

#: A kernel that fails to parse or type-check: the caller's fault (CLI
#: exit 2, HTTP 422), not the checker's.
USAGE_ERRORS = (ParseError, SortError, TypeCheckError)


@dataclass
class CheckRequest:
    """One verification request."""
    command: str                       # races | equiv | func
    source: str                        # kernel source text
    target: str | None = None          # second kernel (equiv only)
    method: str = "param"              # equiv/func: param | nonparam
    width: int = 8
    timeout: float = 60.0
    pair: str | None = None            # suite assumption pair
    bdim: tuple[int, int, int] | None = None   # nonparam launch
    gdim: tuple[int, int] | None = None
    cbdim: tuple[int, int, int] | None = None  # param concretization
    cgdim: tuple[int, int] | None = None
    scalars: dict[str, int] = field(default_factory=dict)
    bughunt: bool = False
    certify: bool = False              # DRAT-check every UNSAT verdict


def _is_int(value) -> bool:
    """An integer, not a bool (``isinstance(True, int)`` holds)."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_width(value) -> int:
    """A machine word width in bits: an integer in 1..64."""
    if not _is_int(value) or not 1 <= value <= 64:
        raise ValueError("must be an integer in 1..64")
    return value


def parse_pair(value) -> str:
    """A suite pair name with registered assumptions."""
    if not isinstance(value, str) or value not in SUITE_PAIRS:
        raise ValueError(f"must be one of {', '.join(SUITE_PAIRS)}")
    return value


def parse_timeout(value) -> float:
    """A check's wall budget in seconds: a number in (0, 3600]."""
    if not (_is_int(value) or isinstance(value, float)) \
            or not 0 < value <= 3600:
        raise ValueError("must be a number in (0, 3600]")
    return float(value)


def parse_scalar(name, value) -> tuple[str, int]:
    """A pinned scalar input: an identifier and an integer."""
    if not isinstance(name, str) or not name.isidentifier():
        raise ValueError(f"name {name!r} is not an identifier")
    if not _is_int(value):
        raise ValueError(f"{name!r} must be an integer")
    return name, value


def parse_dims(value, length: int) -> tuple[int, ...]:
    """A dim list (``"4,4"`` or ``[4, 4]``) padded with 1s to ``length``
    axes; raises ``ValueError`` naming what is wrong with it."""
    if isinstance(value, str):
        try:
            value = [int(x) for x in value.split(",")]
        except ValueError:
            raise ValueError("is not a dim list") from None
    if not isinstance(value, (list, tuple)) or not value or \
            not all(_is_int(v) and v >= 1 for v in value):
        raise ValueError("must be a list of positive integers")
    if len(value) > length:
        raise ValueError(f"has more than {length} dims")
    return (*value, *(1,) * (length - len(value)))


def _concretize(req: CheckRequest) -> dict | None:
    out: dict = {}
    if req.cbdim:
        out["bdim"] = req.cbdim
    if req.cgdim:
        out["gdim"] = req.cgdim
    if req.scalars:
        out["scalars"] = dict(req.scalars)
    return out or None


def run_check(req: CheckRequest, solve: SolveConfig) -> CheckOutcome:
    """Run ``req`` under ``solve`` with the request's ``certify`` setting.

    A kernel that does not parse or type-check raises one of
    :data:`USAGE_ERRORS`."""
    solve = replace(solve, certify=req.certify)
    src = check_kernel(parse_kernel(req.source))
    builder = suite_assumptions(req.pair) if req.pair else None
    if req.command == "races":
        return check_races(src, req.width, assumption_builder=builder,
                           concretize=_concretize(req), timeout=req.timeout,
                           solve=solve)
    tgt = check_kernel(parse_kernel(req.target)) if req.command == "equiv" \
        else None
    if req.method == "nonparam":
        config = LaunchConfig(bdim=req.bdim or (1, 1, 1),
                              gdim=req.gdim or (1, 1), width=req.width)
        common = dict(method="nonparam", config=config,
                      scalar_values=dict(req.scalars) or None,
                      timeout=req.timeout, solve=solve)
        if tgt is not None:
            return check_equivalence(src, tgt, **common)
        return check_functional(src, **common)
    common = dict(method="param", width=req.width,
                  assumption_builder=builder, concretize=_concretize(req))
    if tgt is not None:
        return check_equivalence(
            src, tgt, **common,
            options=ParamOptions(timeout=req.timeout, bughunt=req.bughunt,
                                 solve=solve))
    return check_functional(src, **common, timeout=req.timeout, solve=solve)
