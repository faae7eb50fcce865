"""Probes shared by the workloads: the forward-pass wrapper and plan metrics."""

from __future__ import annotations

import numpy as np

import common


def wrap_forward(recorder) -> dict:
    """Span every ``apply_channels`` call, where roll-out and hybrid call it.

    Returns a dict whose ``"model"`` entry holds the last model seen, so
    :func:`compile_metrics` can look up its cached plan.
    """
    import repro.core.hybrid as hybrid
    import repro.core.rollout as rollout

    seen = {"model": None}

    def forward_attrs(args, kwargs):
        seen["model"] = args[0]
        return {"batch": int(np.asarray(args[1]).shape[0])}

    recorder.wrap(rollout, "apply_channels", "core.rollout.forward", attrs_of=forward_attrs)
    recorder.wrap(hybrid, "apply_channels", "core.rollout.forward", attrs_of=forward_attrs)
    return seen


def compile_metrics(result, model, forward_ms: float) -> None:
    """Plan-cache hit share and the batch-1 plan's shape, flops and arena."""
    from repro import compile as rcompile

    st = rcompile.stats()
    result.add("compile.hit_frac",
               st["hits"] / max(st["hits"] + st["traces"] + st["fallbacks"], 1), "frac")
    x = np.zeros((1, common.MODEL.in_channels, common.GRID, common.GRID))
    plan = rcompile.plan_cache().plan_for(model, x) if model is not None else None
    if plan is None:
        result.notes.append("compile: no batch-1 plan cached; plan metrics read 0")
        return
    desc = plan.describe()
    result.add("compile.plan_steps", desc["n_steps"], "count")
    result.add("compile.est_mflops", desc["est_flops"] / 1e6, "MFLOP")
    result.add("compile.arena_kib", desc["arena_bytes"] / 1024.0, "KiB")
    # Computed, not counted: estimated plan flops over the measured
    # median batch-1 forward (which includes normalizer encode/decode).
    result.add("compile.gflops",
               desc["est_flops"] / (forward_ms / 1e3) / 1e9 if forward_ms else 0.0, "GFLOP/s")
