"""Equivalence checking — the user-facing driver for both encodings.

``check_equivalence(..., method="param")`` runs the paper's contribution
(Section IV, one symbolic thread, any ``n``); ``method="nonparam"`` runs the
Section III baseline at a concrete geometry (the columns the paper compares
against).  Both share input variables between the two kernels ("suppose the
two kernels take the same inputs…then they produce the same outputs").
"""

from __future__ import annotations

import time
from dataclasses import replace

from ..encode.nonparam import concretize_inputs, encode_kernel
from ..errors import EncodingError
from ..lang.interp import LaunchConfig
from ..lang.typecheck import KernelInfo
from ..param.equivalence import ParamOptions, check_equivalence_param
from ..smt import (
    ArrayVar, BVConst, BVVar, Ne, Or, Select, SolveConfig, fresh_scoped,
    fresh_var,
)
# Bound here for perfbench's span tracing, which wraps this name.
from ..smt import solve_query  # noqa: F401
from ..smt.sorts import BV
from .replay import concrete_launch, replay_equivalence
from .result import CheckOutcome, record_encode_stats
from .vcs import VC, Refutation

__all__ = ["check_equivalence", "check_equivalence_nonparam", "ParamOptions"]


@fresh_scoped
def check_equivalence_nonparam(src_info: KernelInfo, tgt_info: KernelInfo,
                               config: LaunchConfig, *,
                               scalar_values: dict[str, int] | None = None,
                               concretize_extent: int | None = None,
                               timeout: float | None = None,
                               solve: SolveConfig | None = None
                               ) -> CheckOutcome:
    """Section III baseline: serialize all threads of ``config`` and ask the
    solver for an input on which the outputs differ.

    ``scalar_values`` pins scalar parameters (width/height...; usually
    implied by the geometry); ``concretize_extent`` is the paper's ``+C.``
    flag — pin that many input-array cells to concrete values.  ``solve``
    (default: :meth:`~repro.smt.dispatch.SolveConfig.from_env`) says how
    the query is solved.
    """
    with Refutation(timeout, solve) as check:
        width = config.width
        scalar_names = sorted(set(src_info.scalar_params) |
                              set(tgt_info.scalar_params))
        # Pinned scalars become constants *inside* the encoding, so loops
        # bounded by them unroll (matmul's wA) and formulas shrink.
        pinned = scalar_values or {}
        inputs = {n: (BVConst(pinned[n], width) if n in pinned
                      else BVVar(f"np.in.{n}", width)) for n in scalar_names}
        array_names = sorted(set(src_info.global_arrays) |
                             set(tgt_info.global_arrays))
        arrays = {n: ArrayVar(f"np.arr.{n}", width, width)
                  for n in array_names}

        enc_start = time.monotonic()
        m1 = encode_kernel(src_info, config, inputs, arrays)
        m2 = encode_kernel(tgt_info, config, inputs, arrays)
        record_encode_stats(check.outcome, queries_built=1,
                            symexec_time=time.monotonic() - enc_start)

        check.assumptions = m1.assumes + m2.assumes
        if concretize_extent:
            check.assumptions += concretize_inputs(m1, concretize_extent)
        cell = fresh_var("np.cell", BV(width))
        differs = [Ne(Select(m1.final_globals[name], cell),
                      Select(m2.final_globals[name], cell))
                   for name in sorted(set(src_info.global_arrays) &
                                      set(tgt_info.global_arrays))]
        if not differs:
            raise EncodingError("the kernels share no global output arrays")

        def confirm(_, model):
            cex = concrete_launch(model, config, inputs, arrays, pinned)
            cex.detail = f"outputs differ at cell {model[cell]}"
            return cex, replay_equivalence(src_info, tgt_info, cex, width)

        check.refute([VC([Or(*differs)])], confirm)
    return check.outcome


def check_equivalence(src_info: KernelInfo, tgt_info: KernelInfo, *,
                      method: str = "param",
                      width: int = 32,
                      config: LaunchConfig | None = None,
                      assumption_builder=None,
                      concretize: dict | None = None,
                      concretize_extent: int | None = None,
                      scalar_values: dict[str, int] | None = None,
                      timeout: float | None = None,
                      options: ParamOptions | None = None,
                      solve: SolveConfig | None = None) -> CheckOutcome:
    """Unified entry point.

    ``method="param"`` — the paper's parameterized checker: needs ``width``
    and optionally ``assumption_builder``/``concretize``.  The keyword
    overrides go into a copy of ``options``; the caller's object is left
    as it was.

    ``method="nonparam"`` — the Section III baseline: needs a concrete
    ``config`` (geometry fixes the thread count ``n``).
    """
    if method == "param":
        overrides = {k: v for k, v in (
            ("timeout", timeout), ("solve", solve)) if v is not None}
        opts = replace(options or ParamOptions(), **overrides)
        return check_equivalence_param(
            src_info, tgt_info, width,
            assumption_builder=assumption_builder,
            concretize=concretize, options=opts)
    if method == "nonparam":
        if config is None:
            raise ValueError("nonparam method requires a concrete config")
        return check_equivalence_nonparam(
            src_info, tgt_info, config,
            scalar_values=scalar_values,
            concretize_extent=concretize_extent,
            timeout=timeout, solve=solve)
    raise ValueError(f"unknown method {method!r}")
