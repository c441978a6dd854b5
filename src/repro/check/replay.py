"""Counterexample replay: validating candidate bugs on the interpreter.

The paper's "Formal Status" paragraph promises *no false alarms*: every
reported bug is real.  Our parameterized encoder upholds that guarantee
mechanically — any satisfying assignment the SMT solver produces for a
violated verification condition is converted into a concrete launch
configuration plus inputs, both kernels are executed by the reference
interpreter, and the bug is reported only if the outputs actually differ
(or the postcondition fails, or the race detector sees the race).
Candidates that fail replay are recorded as unconfirmed instead of being
reported (:class:`repro.check.vcs.Refutation`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang import LaunchConfig, check_postconditions, run_kernel
from ..lang.typecheck import KernelInfo
from ..smt import Model, Term
from .result import Counterexample

__all__ = ["extract_launch", "concrete_launch", "replay_equivalence",
           "replay_postcondition", "replay_race", "ReplayResult",
           "MAX_REPLAY_THREADS"]

MAX_REPLAY_THREADS = 1 << 14


def _dim(model: Model, var: Term, lo: int = 1) -> int:
    value = model[var]
    assert isinstance(value, int)
    return max(value, lo)


def extract_launch(model: Model, geometry, inputs: dict[str, Term],
                   arrays: dict[str, Term]) -> Counterexample:
    """Build a concrete launch from an SMT model.

    Unconstrained dimensions complete to 1 (a model only pins what the
    formula mentions; 0-sized blocks are not launchable).
    """
    bdim = tuple(_dim(model, geometry.bdim[a]) for a in ("x", "y", "z"))
    gdim = tuple(_dim(model, geometry.gdim[a]) for a in ("x", "y"))
    scalars = {}
    for name, var in inputs.items():
        value = model[var]
        assert isinstance(value, int)
        scalars[name] = value
    return Counterexample(bdim=bdim, gdim=gdim, scalars=scalars,
                          arrays=_contents(model, arrays))


def concrete_launch(model: Model, config: LaunchConfig,
                    inputs: dict[str, Term], arrays: dict[str, Term],
                    pinned: dict[str, int]) -> Counterexample:
    """The counterexample of a serialized (fixed-launch) query: the launch
    of ``config``, the ``pinned`` scalars, and the model's other inputs."""
    scalars = {name: pinned[name] if name in pinned else int(model[var])  # type: ignore[arg-type]
               for name, var in inputs.items()}
    return Counterexample(bdim=config.bdim, gdim=config.gdim,
                          scalars=scalars, arrays=_contents(model, arrays))


def _contents(model: Model, arrays: dict[str, Term]
              ) -> dict[str, dict[int, int]]:
    contents: dict[str, dict[int, int]] = {}
    for name, var in arrays.items():
        value = model[var]
        assert isinstance(value, dict)
        contents[name] = {k: v for k, v in value.items() if isinstance(k, int)}
    return contents


@dataclass
class ReplayResult:
    confirmed: bool
    reason: str


def _too_big(cex: Counterexample) -> bool:
    bx, by, bz = cex.bdim
    gx, gy = cex.gdim
    return bx * by * bz * gx * gy > MAX_REPLAY_THREADS


def _distinct_fill(cex: Counterexample, infos: list[KernelInfo],
                   width: int) -> dict[str, dict[int, int]]:
    """Fill input-array cells the model left unconstrained with distinct
    values, so addressing differences become visible.  Cells the model *did*
    pin keep their values (the VC's premises stay satisfied)."""
    mask = (1 << width) - 1
    bx, by, bz = cex.bdim
    gx, gy = cex.gdim
    extent = min(bx * by * bz * gx * gy * 4, 1 << min(width, 12))
    read_only = set()
    for info in infos:
        read_only |= set(info.global_arrays)
    filled: dict[str, dict[int, int]] = {}
    for seed, name in enumerate(sorted(read_only)):
        base = dict(cex.arrays.get(name, {}))
        for i in range(extent):
            base.setdefault(i, (37 * i + 11 * seed + 1) & mask or 1)
        filled[name] = base
    return filled


def _pattern_fill(name: str, flat: int) -> int:
    return (0xA5 + 73 * flat) & 0xFFFFFFFF


def _run_pair(src: KernelInfo, tgt: KernelInfo, config: LaunchConfig,
              inputs: dict[str, object],
              shared_fill=None) -> ReplayResult | None:
    """One concrete comparison; None when the kernels agree and are
    race-free."""
    src_fault = tgt_fault = None
    r1 = r2 = None
    try:
        r1 = run_kernel(src, config, inputs, check_races=True,
                        shared_fill=shared_fill)
    except Exception as exc:
        src_fault = exc
    try:
        r2 = run_kernel(tgt, config, inputs, check_races=True,
                        shared_fill=shared_fill)
    except Exception as exc:
        tgt_fault = exc
    # A fault (out-of-bounds access, barrier divergence...) on one side only
    # is itself an observable divergence on this configuration.
    if tgt_fault is not None and src_fault is None:
        return ReplayResult(True, f"target kernel faults: {tgt_fault}")
    if src_fault is not None and tgt_fault is None:
        return ReplayResult(True, f"source kernel faults: {src_fault}")
    if src_fault is not None or tgt_fault is not None:
        return ReplayResult(False, f"both kernels fault: {src_fault}")
    assert r1 is not None and r2 is not None
    # A data race in either kernel makes it nondeterministic under this
    # configuration — the determinism assumption underlying the equivalence
    # claim is broken, which is a real (and the paper's reported) bug class.
    if r2.races and not r1.races:
        return ReplayResult(True, f"target kernel races: {r2.races[0]}")
    if r1.races and not r2.races:
        return ReplayResult(True, f"source kernel races: {r1.races[0]}")
    out1 = {name: r1.globals[name] for name in src.global_arrays}
    out2 = {name: r2.globals.get(name, {}) for name in src.global_arrays}
    for name in out1:
        cells = set(out1[name]) | set(out2[name])
        for cell in sorted(cells):
            if out1[name].get(cell, 0) != out2[name].get(cell, 0):
                return ReplayResult(
                    True,
                    f"{name}[{cell}] = {out1[name].get(cell, 0)} (source) vs "
                    f"{out2[name].get(cell, 0)} (target)")
    return None


def replay_equivalence(src: KernelInfo, tgt: KernelInfo,
                       cex: Counterexample, width: int) -> ReplayResult:
    """Run both kernels concretely; confirmed iff an output array differs or
    exactly one kernel races.

    Tries the model's exact inputs first, then a distinct-fill variant:
    write-set counterexamples constrain *where* kernels write, not input
    values, so unconstrained input cells are given pairwise-distinct values
    to expose addressing differences.  Both runs use only inputs consistent
    with the model, so a confirmation is always a genuine divergence.
    """
    if _too_big(cex):
        return ReplayResult(False, "counterexample too large to replay")
    config = LaunchConfig(bdim=cex.bdim, gdim=cex.gdim, width=width)
    base_inputs: dict[str, object] = {**cex.scalars, **cex.arrays}
    filled = _distinct_fill(cex, [src, tgt], width)
    attempts: list[dict[str, object]] = [base_inputs]
    if filled:
        attempts.append({**base_inputs, **filled})
    for inputs in attempts:
        # Probe uninitialized shared memory with two fills: a divergence that
        # flows through an uninitialized tile only shows when the fills make
        # the stale cells distinguishable (real shared memory is arbitrary).
        for fill in (None, _pattern_fill):
            result = _run_pair(src, tgt, config, inputs, shared_fill=fill)
            if result is not None:
                return result
    return ReplayResult(False, "kernels agree on this input")


def replay_postcondition(info: KernelInfo, cex: Counterexample, width: int,
                         free_bindings: dict[str, int] | None = None
                         ) -> ReplayResult:
    """Run the kernel concretely and re-check its postconditions."""
    if _too_big(cex):
        return ReplayResult(False, "counterexample too large to replay")
    config = LaunchConfig(bdim=cex.bdim, gdim=cex.gdim, width=width)
    inputs: dict[str, object] = {**cex.scalars, **cex.arrays}
    try:
        result = run_kernel(info, config, inputs, check_races=False)
        bounds = None
        if free_bindings is not None:
            bounds = {name: range(v, v + 1)
                      for name, v in free_bindings.items()}
        violations = check_postconditions(info, result, bounds=bounds)
    except Exception as exc:
        return ReplayResult(False, f"replay faulted: {exc}")
    if violations:
        return ReplayResult(True, violations[0])
    return ReplayResult(False, "postcondition holds on this input")


def replay_race(info: KernelInfo, cex: Counterexample,
                width: int) -> ReplayResult:
    """Run the kernel concretely with the interpreter's race detector on;
    confirmed iff it observes a race."""
    if _too_big(cex):
        return ReplayResult(False, "counterexample too large to replay")
    config = LaunchConfig(bdim=cex.bdim, gdim=cex.gdim, width=width)
    inputs: dict[str, object] = {**cex.scalars, **cex.arrays}
    try:
        result = run_kernel(info, config, inputs, check_races=True)
    except Exception as exc:
        return ReplayResult(False, f"replay faulted: {exc}")
    if result.races:
        return ReplayResult(True, f"replay observed a {result.races[0]}")
    return ReplayResult(False, "no race observed on this input")
