"""Figure 1 — "Calculating CAs over multiple threads".

The figure shows how the value of an output cell ``odata[k]`` is an
exclusive case split over the (at most one, by race freedom) thread whose
conditional assignment hits the cell, with the old value as the final
alternative.  This benchmark regenerates that diagram from the *real* CA
objects extracted from the naive transpose kernel, and verifies the
exclusivity claim ("at most one thread satisfies p") with the SMT solver.
"""

from __future__ import annotations

from repro.bench.harness import bench_timeout
from repro.kernels import load
from repro.param.ca import extract_model
from repro.param.geometry import Geometry, ThreadInstance
from repro.param.resolve import instantiate
from repro.check.configs import transpose_assumptions
from repro.smt import (
    And, BVVar, CheckResult, Eq, Ne, Or, Solver, to_str,
)


def render_figure1() -> str:
    _, info = load("naiveTranspose")
    geo = Geometry.create(8)
    inputs = {p: BVVar(f"f1.{p}", 8) for p in info.scalar_params}
    model = extract_model(info, geo, inputs, hint="f1")
    (ca,) = model.segments[0].cas
    k = BVVar("k", 8)
    s1 = ThreadInstance.fresh(geo, "s1")
    s2 = ThreadInstance.fresh(geo, "s2")
    i1 = instantiate(ca, model, s1)
    i2 = instantiate(ca, model, s2)
    p1 = And(s1.validity(), i1.guard, Eq(i1.address[0], k))
    lines = [
        "Figure 1 — calculating odata[k] over multiple threads "
        "(from the real naiveTranspose CA):",
        "",
        f"  CA:  {to_str(ca.guard, 8)} ?",
        f"       odata[{to_str(ca.address[0], 8)}] := {to_str(ca.value, 8)}",
        "",
        "  odata[k] =   p(s1) (+) p(s2) (+) ... (+) p(sn) (+) else",
        "               |                                    |",
        f"               value(s1) = {to_str(i1.value, 6)}",
        "               ...                                  old odata[k]",
        "",
        f"  where p(si) =  {to_str(p1, 6)}",
    ]
    return "\n".join(lines)


def exclusivity_holds() -> bool:
    """SMT check of the figure's (+)-exclusivity: two distinct valid threads
    cannot both satisfy p for the same cell (race freedom of the CA)."""
    _, info = load("naiveTranspose")
    geo = Geometry.create(8)
    inputs = {p: BVVar(f"f1.{p}", 8) for p in info.scalar_params}
    model = extract_model(info, geo, inputs, hint="f1x")
    (ca,) = model.segments[0].cas
    k = BVVar("f1.k", 8)
    s1 = ThreadInstance.fresh(geo, "x1")
    s2 = ThreadInstance.fresh(geo, "x2")
    i1 = instantiate(ca, model, s1)
    i2 = instantiate(ca, model, s2)
    distinct = Or(*[Ne(a, b) for a, b in
                    zip(s1.axis_vars(), s2.axis_vars())])
    solver = Solver(timeout=bench_timeout())
    # Pin the geometry (the paper's +C mode) — the fully symbolic variant of
    # this nonlinear query is exactly what times out in Table II's -C rows.
    solver.add(*geo.base_assumptions(),
               *transpose_assumptions(geo, inputs),
               *geo.concretize({"bdim": (2, 2, 1), "gdim": (2, 2),
                                "scalars": {"width": 4, "height": 4}},
                               inputs),
               s1.validity(), s2.validity(), distinct,
               i1.guard, i2.guard,
               Eq(i1.address[0], k), Eq(i2.address[0], k))
    return solver.check() is CheckResult.UNSAT


def test_figure1(benchmark):
    ok = benchmark.pedantic(exclusivity_holds, rounds=1, iterations=1)
    assert ok, "two distinct threads hit the same output cell"
    print()
    print(render_figure1())
