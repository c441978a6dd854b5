"""The benchmark's inputs: every cell of the paper workloads and every request
family of the serve workload, each with a hand-written expected verdict.

Expected answers come from the paper and from the kernels' semantics, not
from running the checker:

* the Transpose pair is equivalent on square blocks and *not* equivalent on
  non-square ones (the paper's ``*`` rows: n = 8 gives a 4x2 block);
* the Reduction pair is equivalent for power-of-two blocks whose strided
  index ``2*k*tid`` cannot wrap the word; at 8 bits a block of 32 or more
  threads wraps, so those serialized cells are genuine bugs;
* every single-site address mutant of either target kernel is a bug (the
  standalone ``perfbench/oracle.py`` confirms each one diverges from its
  source kernel on the reference interpreter);
* the reduction kernels and ``scalarProd`` are race-free under their
  valid-configuration assumptions; the in-place Hillis-Steele ``scanRacy``
  races.

A cell whose checker gives up (T.O, UNKNOWN, or VERIFIED with skipped
frames) is *undecided*; only a verdict that contradicts the expected answer,
an error, or a BUG without a replay-confirmed counterexample is *failed*.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

VERIFIED = "verified"
BUG = "bug"

#: Transpose 8b param -C exhausts any practical budget (the paper's T.O);
#: it runs under this fixed budget so an attempt to solve it can show.
HARD_CELL_BUDGET_S = 2.0
#: Budget of every other cell: far above its solve time, so a T.O there
#: means the program regressed, not that the clock ran out.
CELL_BUDGET_S = 60.0

#: The +C geometries of ``repro.bench.tables.table2_cell``, which keeps them
#: local to the function.
TRANSPOSE_CONC = {"bdim": (2, 2, 1), "gdim": (2, 2),
                  "scalars": {"width": 4, "height": 4}}
REDUCE_CONC = {"bdim": (8, 1, 1), "gdim": (1, 1)}


@dataclass(frozen=True)
class Cell:
    """One verification question with its known answer.

    ``kind`` is ``races``, ``equiv-param`` or ``equiv-nonparam``;
    ``sources`` holds one kernel (races) or the source/target pair.
    ``row``/``col`` place the cell in the paper's tables (the mutants of
    one Table III entry share it).
    """
    id: str
    kind: str
    sources: tuple[str, ...]
    width: int
    expect: str
    pair: str | None = None          # assumption builder of the suite pair
    square: bool = True              # Transpose builder's square-block flag
    concretize: dict | None = None   # param +C
    bdim: tuple[int, int, int] | None = None   # nonparam launch
    gdim: tuple[int, int] | None = None
    scalars: dict | None = None
    concretize_extent: int | None = None       # nonparam +C
    bughunt: bool = False
    budget: float = CELL_BUDGET_S
    table: str = ""
    row: str = ""
    col: str = ""


def judge(expect: str, verdict: str, complete: bool,
          confirmed) -> tuple[str, str]:
    """``correct``, ``undecided`` or ``failed``, with a reason."""
    if verdict == "bug":
        if expect != BUG:
            return "failed", "bug reported on a correct configuration"
        if not confirmed():
            return "failed", "counterexample does not replay"
        return "correct", ""
    if verdict == "verified":
        if not complete:
            return "undecided", "verified with frames skipped"
        if expect != VERIFIED:
            return "failed", "verified a known bug"
        return "correct", ""
    if verdict in ("timeout", "unknown"):
        return "undecided", verdict
    return "failed", verdict


def _kernel_sources():
    from repro.kernels import KERNELS
    return {name: entry.source for name, entry in KERNELS.items()}


def _mutant_sources(target: str) -> list[tuple[str, str]]:
    """``(label, source text)`` of every address mutant of a kernel."""
    from repro.kernels import KERNELS, address_mutants
    from repro.lang import parse_kernel
    from repro.lang.pretty import pretty_kernel
    kernel = parse_kernel(KERNELS[target].source)
    return [(m.label, pretty_kernel(m.kernel))
            for m in address_mutants(kernel)]


PAIR_KERNELS = {"Transpose": ("naiveTranspose", "optimizedTranspose"),
                "Reduction": ("naiveReduce", "optimizedReduce")}
#: The Table III rows the mutants are checked at (pair, bit width).
TABLE3_WIDTHS = (("Transpose", 8), ("Transpose", 16), ("Reduction", 8),
                 ("Reduction", 16))


def transpose_geometry(n: int) -> tuple[tuple[int, int, int], tuple[int, int],
                                        dict[str, int]]:
    """The paper's n-thread Transpose launch as the table generators in
    ``repro.bench.tables`` build it: a square block when n is a perfect
    square, else the nearest 2:1 block (the ``*`` rows)."""
    from repro.bench.tables import _transpose_geometry
    bdim, gdim, width, height = _transpose_geometry(n)
    return bdim, gdim, {"width": width, "height": height}


# ------------------------------------------------------------ paper-param


def paper_param_cells() -> list[Cell]:
    src = _kernel_sources()
    tr = (src["naiveTranspose"], src["optimizedTranspose"])
    rd = (src["naiveReduce"], src["optimizedReduce"])
    cells: list[Cell] = []

    # Table II, parameterized columns.
    for w in (8, 16, 32):
        cells.append(Cell(f"II/Transpose/{w}b/param+C", "equiv-param", tr, w,
                          VERIFIED, pair="Transpose",
                          concretize=TRANSPOSE_CONC, table="II",
                          row=f"Transpose ({w}b)", col="param +C"))
    for w in (8, 12, 16):
        for conc, col in ((None, "param -C"), (REDUCE_CONC, "param +C")):
            cells.append(Cell(f"II/Reduction/{w}b/{col.replace(' ', '')}",
                              "equiv-param", rd, w, VERIFIED,
                              pair="Reduction", concretize=conc, table="II",
                              row=f"Reduction ({w}b)", col=col))
    # The '*' configuration: a non-square block breaks the pair.
    for w in (8, 16):
        cells.append(Cell(f"II/Transpose/{w}b/param+C-nonsquare",
                          "equiv-param", tr, w, BUG, pair="Transpose",
                          square=False,
                          concretize={"bdim": (4, 2, 1), "gdim": (2, 4),
                                      "scalars": {"width": 8, "height": 8}},
                          table="II", row=f"Transpose ({w}b)",
                          col="param +C 4x2"))
    # The cell nobody solves yet: fully symbolic nonlinear addressing.
    cells.append(Cell("II/Transpose/8b/param-C", "equiv-param", tr, 8,
                      VERIFIED, pair="Transpose", budget=HARD_CELL_BUDGET_S,
                      table="II", row="Transpose (8b)", col="param -C"))

    # Table III, parameterized fast bug hunting on every address mutant.
    for pair, w in TABLE3_WIDTHS:
        source, target = PAIR_KERNELS[pair]
        for label, mutant in _mutant_sources(target):
            cells.append(Cell(f"III/{pair}/{w}b/param/{label}",
                              "equiv-param", (src[source], mutant), w, BUG,
                              pair=pair, bughunt=True, table="III",
                              row=f"{pair} ({w}b)", col="param"))

    # Parameterized race checking (Table I's "Yes").
    for name in ("naiveReduce", "optimizedReduce"):
        for w in (8, 12, 16):
            cells.append(Cell(f"races/{name}/{w}b/param-C", "races",
                              (src[name],), w, VERIFIED, pair="Reduction",
                              table="races", row=f"{name} ({w}b)",
                              col="param -C"))
    for name, expect in (("scanRacy", BUG), ("scalarProd", VERIFIED)):
        for w in (8, 16):
            for conc, col in ((None, "param -C"), (REDUCE_CONC, "param +C")):
                cells.append(Cell(f"races/{name}/{w}b/{col.replace(' ', '')}",
                                  "races", (src[name],), w, expect,
                                  pair="Reduction", concretize=conc,
                                  table="races", row=f"{name} ({w}b)",
                                  col=col))
    return cells


# --------------------------------------------------------- paper-nonparam


def paper_nonparam_cells() -> list[Cell]:
    src = _kernel_sources()
    tr = (src["naiveTranspose"], src["optimizedTranspose"])
    rd = (src["naiveReduce"], src["optimizedReduce"])
    cells: list[Cell] = []

    # Table II, serialized columns: n = 8 is the non-square '*' row.
    for w in (8, 16):
        for n in (4, 8, 16):
            bdim, gdim, scalars = transpose_geometry(n)
            expect = VERIFIED if bdim[0] == bdim[1] else BUG
            for conc in (False, True):
                col = f"np n={n}" + (" +C" if conc else "")
                extent = bdim[0] * bdim[1] * gdim[0] * gdim[1]
                cells.append(Cell(
                    f"II/Transpose/{w}b/{col.replace(' ', '')}",
                    "equiv-nonparam", tr, w, expect, bdim=bdim, gdim=gdim,
                    scalars=scalars,
                    concretize_extent=extent if conc else None,
                    table="II", row=f"Transpose ({w}b)", col=col))
    # The n-ladder: the serialized encoding grows with n.  At 8 bits a
    # block of 32+ threads wraps 2*k*tid, a genuine divergence.
    for w in (8, 16):
        for n in (4, 8, 16, 32, 64, 128):
            expect = VERIFIED if n * n <= (1 << w) else BUG
            cells.append(Cell(f"II/Reduction/{w}b/npn={n}", "equiv-nonparam",
                              rd, w, expect, bdim=(n, 1, 1), gdim=(1, 1),
                              table="II", row=f"Reduction ({w}b)",
                              col=f"np n={n}"))

    # Table III, serialized columns, every address mutant.
    for pair, w in TABLE3_WIDTHS:
        source, target = PAIR_KERNELS[pair]
        for label, mutant in _mutant_sources(target):
            for n in (4, 8, 16):
                if pair == "Transpose":
                    bdim, gdim, scalars = transpose_geometry(n)
                else:
                    bdim, gdim, scalars = (n, 1, 1), (1, 1), None
                cells.append(Cell(
                    f"III/{pair}/{w}b/npn={n}/{label}", "equiv-nonparam",
                    (src[source], mutant), w, BUG, bdim=bdim, gdim=gdim,
                    scalars=scalars, table="III", row=f"{pair} ({w}b)",
                    col=f"np n={n}"))
    return cells


# ------------------------------------------------------------ serve-mixed


_KEEP = frozenset({"tid", "bid", "bdim", "gdim", "x", "y", "z",
                   "__syncthreads"})


def alpha_rename(source: str, scalars: frozenset[str]) -> str:
    """Rename every kernel-chosen identifier (arrays, locals, the kernel
    name) by suffixing ``_r``; builtins and scalar parameters keep their
    spelling because assumption builders and pinned values name them."""
    from repro.lang.lexer import tokenize
    names = {t.text for t in tokenize(source) if t.kind == "ident"}
    names -= _KEEP | scalars
    if not names:
        return source
    pattern = re.compile(r"\b(" + "|".join(
        sorted(map(re.escape, names), key=len, reverse=True)) + r")\b")
    return pattern.sub(lambda m: m.group(1) + "_r", source)


@dataclass(frozen=True)
class Request:
    """One serve request with its known answer.  ``role`` says which cache
    path the request is meant to take (for the per-request rows)."""
    id: str
    role: str
    payload: dict
    expect: str


def _race_req(source: str, width: int, pair: str, conc: dict | None) -> dict:
    body = {"command": "races", "source": source, "width": width,
            "pair": pair, "timeout": CELL_BUDGET_S}
    if conc:
        body["cbdim"] = list(conc["bdim"])
        body["cgdim"] = list(conc["gdim"])
        if conc.get("scalars"):
            body["scalars"] = dict(conc["scalars"])
    return body


def _equiv_req(source: str, target: str, width: int, pair: str,
               conc: dict | None, bughunt: bool = False) -> dict:
    body = _race_req(source, width, pair, conc)
    body.update(command="equiv", target=target)
    if bughunt:
        body["bughunt"] = True
    return body


def _np_req(source: str, target: str, width: int, n: int) -> dict:
    bdim, gdim, scalars = transpose_geometry(n)
    return {"command": "equiv", "method": "nonparam", "source": source,
            "target": target, "width": width, "bdim": list(bdim),
            "gdim": list(gdim), "scalars": scalars,
            "timeout": CELL_BUDGET_S}


def _renamed(body: dict) -> dict:
    scalars = frozenset(body.get("scalars") or ()) | {"width", "height"}
    out = dict(body)
    out["source"] = alpha_rename(body["source"], scalars)
    if "target" in body:
        out["target"] = alpha_rename(body["target"], scalars)
    return out


def serve_families() -> list[list[Request]]:
    """Request families.  Within a family the order is fixed: the first
    submission misses every cache and writes query shards and templates;
    neighbours (another concretization or width) may hit the template
    store but miss the query cache; exact and alpha-renamed resubmissions
    read what the first submission wrote."""
    src = _kernel_sources()
    tr = (src["naiveTranspose"], src["optimizedTranspose"])
    rd = (src["naiveReduce"], src["optimizedReduce"])
    families: list[list[Request]] = []

    def family(fid: str, expect: str, first: dict,
               neighbours: list[tuple[str, dict, str]]) -> None:
        reqs = [Request(f"{fid}/first", "first", first, expect)]
        for role, body, exp in neighbours:
            reqs.append(Request(f"{fid}/{role}", role, body, exp))
        reqs.append(Request(f"{fid}/exact", "exact", dict(first), expect))
        reqs.append(Request(f"{fid}/renamed", "renamed", _renamed(first),
                            expect))
        families.append(reqs)

    # Race families: concretization neighbours share the VC template.
    for name in ("optimizedReduce", "naiveReduce", "scalarProd"):
        for w in (8, 16):
            family(f"races/{name}/{w}b", VERIFIED,
                   _race_req(src[name], w, "Reduction", None),
                   [("conc", _race_req(src[name], w, "Reduction",
                                       REDUCE_CONC), VERIFIED),
                    ("conc4", _race_req(src[name], w, "Reduction",
                                        {"bdim": (4, 1, 1),
                                         "gdim": (1, 1)}), VERIFIED)])
    for name in ("naiveTranspose", "optimizedTranspose"):
        family(f"races/{name}/8b", VERIFIED,
               _race_req(src[name], 8, "Transpose", TRANSPOSE_CONC),
               [("conc", _race_req(src[name], 8, "Transpose",
                                   {"bdim": (4, 4, 1), "gdim": (2, 2),
                                    "scalars": {"width": 8, "height": 8}}),
                 VERIFIED),
                ("width", _race_req(src[name], 16, "Transpose",
                                    TRANSPOSE_CONC), VERIFIED)])
    for w in (8, 16):
        family(f"races/scanRacy/{w}b", BUG,
               _race_req(src["scanRacy"], w, "Reduction", REDUCE_CONC),
               [("conc", _race_req(src["scanRacy"], w, "Reduction",
                                   {"bdim": (4, 1, 1), "gdim": (1, 1)}), BUG),
                ("param", _race_req(src["scanRacy"], w, "Reduction", None),
                 BUG)])

    # Equivalence families: the param front end runs on every request.
    family("equiv/Transpose/8b/param+C", VERIFIED,
           _equiv_req(*tr, 8, "Transpose", TRANSPOSE_CONC),
           [("width", _equiv_req(*tr, 16, "Transpose", TRANSPOSE_CONC),
             VERIFIED)])
    for w in (8, 12, 16):
        family(f"equiv/Reduction/{w}b/param-C", VERIFIED,
               _equiv_req(*rd, w, "Reduction", None),
               [("conc", _equiv_req(*rd, w, "Reduction", REDUCE_CONC),
                 VERIFIED)])
    # Bug hunting on the mutants it decides (addr2/addr4 of the reduction
    # come back with frames skipped, which a server reports as verified).
    for pair, labels in (("Transpose", ("addr0", "addr1", "addr2", "addr3")),
                         ("Reduction", ("addr0", "addr1", "addr3", "addr5"))):
        source, target = PAIR_KERNELS[pair]
        mutants = dict(_mutant_sources(target))
        for label in labels:
            family(f"equiv/{pair}/8b/bughunt-{label}", BUG,
                   _equiv_req(src[source], mutants[label], 8, pair, None,
                              bughunt=True),
                   [("width", _equiv_req(src[source], mutants[label], 16,
                                         pair, None, bughunt=True), BUG)])
    for w in (8, 16):
        family(f"equiv/Transpose/{w}b/np", VERIFIED, _np_req(*tr, w, 4),
               [("n8", _np_req(*tr, w, 8), BUG)])
    return families


def request_sources(body: dict) -> tuple[str, ...]:
    return tuple(s for s in (body.get("source"), body.get("target")) if s)

