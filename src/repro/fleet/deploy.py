"""Rolling, manifest-gated deployment with canary probation + rollback.

``rolling_deploy`` replaces the fleet's checkpoint one replica at a
time, guarded at three points:

1. **manifest gate** — before *any* replica is touched, the new
   checkpoint's lineage manifest must verify
   (:func:`repro.utils.artifacts.verify_manifest`): checksum matches
   the weights on disk, and — when ``require_manifest`` — a missing
   sidecar is a hard rejection.  A rogue checkpoint never reaches a
   replica.
2. **canary probation** — the first replica is restarted on the new
   checkpoint and probed with caller-supplied deterministic requests;
   the probe verdict folds response status, output finiteness, and the
   replica's trust-score EWMA from ``/healthz`` (the same signal the
   gateway's health lattice routes on).  A canary scoring below
   ``canary_threshold`` triggers **auto-rollback** to the previous
   checkpoint and aborts the deploy.
3. **per-replica readiness** — each subsequent replica must announce
   and answer ``/healthz`` before the roll moves on, so at most one
   replica is out of service at any moment.

The function is pure orchestration over :class:`Coordinator` — the
chaos scenario ``bad_deploy`` drives it end-to-end against live child
processes, and the unit tests drive it with a fake coordinator.
"""

from __future__ import annotations

import numpy as np

from ..serve import wire
from ..utils.artifacts import CheckpointError, verify_manifest
from .gateway import http_get_json, http_transport

__all__ = ["DeployError", "rolling_deploy", "probe_replica"]


class DeployError(RuntimeError):
    """A deploy was rejected (gate) or aborted (canary rollback)."""


def _finite(payload: dict) -> bool:
    velocity = payload.get("velocity")
    if velocity is None:
        return False
    try:
        return bool(np.all(np.isfinite(np.asarray(velocity, dtype=np.float64))))
    except (TypeError, ValueError):
        return False


def probe_replica(url: str, probes, canary_threshold: float = 0.5,
                  transport=http_transport, get_json=http_get_json) -> dict:
    """Send deterministic probe requests at one replica; fold a verdict.

    Healthy means: every probe answers 200 with finite snapshots, the
    replica reports ``status: ok``, and — when trust scoring is active —
    its trust EWMA clears ``canary_threshold``.
    """
    results = []
    for body in probes:
        data = wire.dumps(body)
        try:
            status, _, raw = transport(url + "/predict", data, {})
            payload = wire.loads(raw) if raw else {}
        except (OSError, ValueError) as exc:
            results.append({"ok": False, "error": str(exc)})
            continue
        results.append({
            "ok": status == 200 and _finite(payload),
            "status": int(status),
        })
    try:
        healthz = get_json(url + "/healthz")
    except (OSError, ValueError) as exc:
        return {"healthy": False, "probes": results, "error": str(exc)}
    trust = healthz.get("trust") or {}
    ewma = trust.get("ewma")
    healthy = (
        all(r["ok"] for r in results)
        and healthz.get("status") == "ok"
        and (ewma is None or float(ewma) >= canary_threshold)
    )
    return {"healthy": healthy, "probes": results, "trust_ewma": ewma,
            "status": healthz.get("status")}


def rolling_deploy(coordinator, checkpoint: str, probes=(),
                   require_manifest: bool = True,
                   canary_threshold: float = 0.5,
                   transport=http_transport, get_json=http_get_json,
                   on_event=None) -> dict:
    """Roll ``checkpoint`` across the fleet; gate, canary, auto-rollback.

    Returns a report dict with ``ok``, the ``stage`` reached, and the
    per-replica actions taken.  Never leaves the fleet mixed: either
    every replica runs the new checkpoint, or every replica is back on
    its previous one.
    """
    checkpoint = str(checkpoint)

    def emit(event: str, **extra) -> None:
        if on_event is not None:
            on_event({"event": event, **extra})

    # Stage 1: the manifest gate — refuse before touching any replica.
    try:
        manifest = verify_manifest(checkpoint, required=require_manifest)
    except (CheckpointError, FileNotFoundError, ValueError) as exc:
        emit("manifest-rejected", checkpoint=checkpoint, error=str(exc))
        return {"ok": False, "stage": "manifest-gate", "checkpoint": checkpoint,
                "error": str(exc), "updated": [], "rolled_back": []}
    emit("manifest-ok", checkpoint=checkpoint,
         lineage=(manifest or {}).get("config_hash"))

    order = coordinator.replica_ids()
    old_specs = {rid: coordinator.spec_of(rid) for rid in order}
    updated: list[str] = []

    def rollback(reason: str, stage: str, detail: dict) -> dict:
        rolled = []
        for rid in reversed(updated):
            coordinator.restart_replica(rid, old_specs[rid])
            rolled.append(rid)
            emit("rollback", replica=rid,
                 checkpoint=old_specs[rid].checkpoint)
        return {"ok": False, "stage": stage, "checkpoint": checkpoint,
                "error": reason, "updated": [], "rolled_back": rolled,
                **detail}

    for i, rid in enumerate(order):
        is_canary = i == 0
        new_spec = old_specs[rid].with_checkpoint(checkpoint)
        try:
            coordinator.restart_replica(rid, new_spec)
        except (RuntimeError, TimeoutError) as exc:
            return rollback(f"replica {rid} failed to start: {exc}",
                            "canary" if is_canary else "roll", {})
        updated.append(rid)
        emit("replica-updated", replica=rid, canary=is_canary)
        url = coordinator.urls().get(rid)
        if url is None:
            return rollback(f"replica {rid} has no address after restart",
                            "canary" if is_canary else "roll", {})
        verdict = probe_replica(
            url, probes if is_canary else (),
            canary_threshold=canary_threshold,
            transport=transport, get_json=get_json,
        )
        if not verdict["healthy"]:
            emit("canary-failed" if is_canary else "replica-unhealthy",
                 replica=rid, verdict=verdict)
            return rollback(
                f"{'canary' if is_canary else 'replica'} {rid} unhealthy "
                f"on {checkpoint}",
                "canary" if is_canary else "roll",
                {"verdict": verdict},
            )
        if is_canary:
            emit("canary-passed", replica=rid, verdict=verdict)

    emit("deploy-complete", checkpoint=checkpoint, updated=list(updated))
    return {"ok": True, "stage": "complete", "checkpoint": checkpoint,
            "updated": updated, "rolled_back": [],
            "lineage": (manifest or {}).get("config_hash")}
