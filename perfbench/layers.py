"""The per-layer metrics, named after the program's modules.

Times are seconds of self time per pass, counts are per pass, shares are
ratios.  Every workload reports every name; a layer a workload does not reach
(or cannot see, such as the serve worker's parse time) reads 0.
"""

from __future__ import annotations

from collections import defaultdict

LAYER_UNITS = {
    "lang.self_s": "s",
    "encode.self_s": "s",
    "encode.template_hit_share": "ratio",
    "param.self_s": "s",
    "param.resolve_s": "s",
    "param.witness_s": "s",
    "param.monotone_s": "s",
    "smt.term.self_s": "s",
    "smt.blast.self_s": "s",
    "smt.blast.clauses": "count",
    "smt.blast.sat_vars": "count",
    "smt.sat.self_s": "s",
    "smt.sat.conflicts": "count",
    "smt.sat.propagations": "count",
    "smt.sat.decisions": "count",
    "smt.dispatch.self_s": "s",
    "smt.dispatch.queries": "count",
    "smt.qcache.self_s": "s",
    "smt.qcache.hit_share": "ratio",
    "check.self_s": "s",
    "check.replay_s": "s",
    "serve.overhead_s": "s",
    "unattributed_share": "ratio",
}

#: Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = ("smt.blast.clauses", "smt.blast.sat_vars",
                "smt.sat.conflicts", "smt.sat.propagations",
                "smt.sat.decisions", "smt.dispatch.queries")


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_values(rows: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass of the paper workloads, from
    the span totals each cell's row carries.  Counts leave out cells that
    ran out of budget: how far those got depends on the clock."""
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for row in rows:
        for name, value in row.get("self_s", {}).items():
            self_s[name] += value
        if row["verdict"] not in ("timeout", "unknown"):
            for name, value in row.get("counts", {}).items():
                counts[name] += value
    wall_s = sum(row["wall_s"] for row in rows)
    param = ("param", "param.resolve", "param.witness", "param.monotone")
    out = {name: 0.0 for name in LAYER_UNITS}
    out.update({
        "lang.self_s": self_s.get("lang", 0.0),
        "encode.self_s": self_s.get("encode", 0.0),
        "encode.template_hit_share": share(
            counts.get("encode.template_hits", 0),
            counts.get("encode.template_lookups", 0)),
        "param.self_s": sum(self_s.get(n, 0.0) for n in param),
        "param.resolve_s": self_s.get("param.resolve", 0.0),
        "param.witness_s": self_s.get("param.witness", 0.0),
        "param.monotone_s": self_s.get("param.monotone", 0.0),
        "smt.term.self_s": self_s.get("smt.term", 0.0),
        "smt.blast.self_s": self_s.get("smt.blast", 0.0),
        "smt.sat.self_s": self_s.get("smt.sat", 0.0),
        "smt.dispatch.self_s": self_s.get("smt.dispatch", 0.0),
        "smt.qcache.self_s": self_s.get("smt.qcache", 0.0),
        "smt.qcache.hit_share": share(counts.get("smt.qcache.hits", 0),
                                      counts.get("smt.qcache.lookups", 0)),
        "check.self_s": self_s.get("check", 0.0),
        "check.replay_s": self_s.get("check.replay", 0.0),
        "unattributed_share": share(wall_s - sum(self_s.values()), wall_s),
    })
    for name in EXACT_COUNTS:
        out[name] = counts.get(name, 0)
    return out
