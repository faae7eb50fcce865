"""``repro fleet`` — run, inspect, and deploy the replica fleet.

Actions::

    repro fleet up      --model tiny=model.npz --replicas 3   # foreground
    repro fleet status  --gateway http://127.0.0.1:8790
    repro fleet deploy  --gateway ... --checkpoint new.npz

``up`` owns the child processes: it starts the coordinator (spawn +
supervise N replicas) and the gateway (route + health-poll) in this
process and blocks until SIGINT/SIGTERM, then drains the fleet.
``status`` and ``deploy`` are thin clients of a running gateway —
deploys go through the gateway's ``/fleet/deploy`` admin endpoint
because only the ``up`` process holds the coordinator.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["add_fleet_arguments", "run_fleet"]


def add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("action", choices=["up", "status", "deploy"],
                        help="up: run coordinator+gateway in the foreground; "
                             "status: query a running gateway; "
                             "deploy: roll a new checkpoint through it")
    parser.add_argument("--model", default=None, metavar="NAME=PATH",
                        help="checkpoint to serve (up)")
    parser.add_argument("--replicas", type=int, default=2, metavar="N",
                        help="replica count (up; default 2)")
    parser.add_argument("--host", default="127.0.0.1", help="gateway bind host")
    parser.add_argument("--port", type=int, default=8790,
                        help="gateway port (0 picks a free one)")
    parser.add_argument("--workdir", default="fleet-state", metavar="DIR",
                        help="announce/heartbeat/journal/log directory (up)")
    parser.add_argument("--serve-workers", type=int, default=1,
                        help="worker threads per replica (up)")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="per-replica bounded queue (up)")
    parser.add_argument("--default-mode", choices=["hybrid", "fno"],
                        default="fno", help="rollout mode replicas default to")
    parser.add_argument("--require-manifest", action="store_true",
                        help="up: replicas refuse unmanifested checkpoints; "
                             "deploy: reject candidates without a verifiable "
                             "lineage manifest (the deploy gate)")
    parser.add_argument("--trust", nargs="?", const="default",
                        metavar="POLICY_JSON",
                        help="enable per-request trust scoring on replicas "
                             "(feeds the gateway health lattice and canary)")
    parser.add_argument("--gateway", default="http://127.0.0.1:8790",
                        metavar="URL", help="gateway base URL (status/deploy)")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="new checkpoint to roll out (deploy)")
    parser.add_argument("--canary-threshold", type=float, default=0.5,
                        help="minimum canary trust EWMA before the roll "
                             "continues (deploy)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every gateway request (up)")


def _cmd_up(args) -> int:
    import signal
    import threading
    from pathlib import Path

    from .coordinator import Coordinator
    from .gateway import Gateway
    from .replica import ReplicaSpec

    if not args.model:
        print("error: fleet up requires --model NAME=PATH", file=sys.stderr)
        return 2
    name, _, path = args.model.partition("=")
    if not path:
        name, path = "default", name
    spec = ReplicaSpec(
        checkpoint=path, model_name=name, workers=args.serve_workers,
        queue_depth=args.queue_depth, default_mode=args.default_mode,
        require_manifest=args.require_manifest, trust=args.trust,
    )
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    def on_event(event: dict) -> None:
        print(f"fleet: {json.dumps(event, sort_keys=True)}", flush=True)

    coordinator = Coordinator(spec, args.replicas, workdir, on_event=on_event)
    coordinator.start()

    def deploy_fn(request: dict) -> dict:
        from .deploy import rolling_deploy

        checkpoint = request.get("checkpoint")
        if not checkpoint:
            raise ValueError("deploy request must name a checkpoint")
        return rolling_deploy(
            coordinator, checkpoint, probes=request.get("probes", ()),
            require_manifest=bool(request.get("require_manifest", True)),
            canary_threshold=float(request.get("canary_threshold", 0.5)),
            on_event=on_event,
        )

    gateway = Gateway(
        coordinator, host=args.host, port=args.port,
        journal_path=workdir / "requests.jsonl", verbose=args.verbose,
        deploy_fn=deploy_fn,
    )
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, lambda *_: stop.set())
        except ValueError:  # repro: ignore[RPR005] -- not the main thread (embedded use): no signal hook
            pass
    gateway.start()
    print(f"repro-fleet gateway on {gateway.base_url()} "
          f"({args.replicas} replicas of {name}={path})", flush=True)
    try:
        stop.wait()
    finally:
        print("fleet: draining", flush=True)
        gateway.stop()
        coordinator.stop()
    return 0


def _cmd_status(args) -> int:
    from .gateway import http_get_json

    try:
        status = http_get_json(args.gateway.rstrip("/") + "/fleet/status",
                               timeout=10.0)
    except (OSError, ValueError) as exc:
        print(f"error: cannot reach gateway {args.gateway}: {exc}",
              file=sys.stderr)
        return 1
    print(json.dumps(status, indent=2, sort_keys=True))
    admitted = status.get("admitted", [])
    total = len(status.get("replicas", {}))
    print(f"fleet: {len(admitted)}/{total} replicas admitted", file=sys.stderr)
    return 0 if admitted else 1


def _cmd_deploy(args) -> int:
    import urllib.error
    import urllib.request

    from ..serve import wire

    if not args.checkpoint:
        print("error: fleet deploy requires --checkpoint", file=sys.stderr)
        return 2
    body = wire.dumps({
        "checkpoint": args.checkpoint,
        "require_manifest": bool(args.require_manifest),
        "canary_threshold": args.canary_threshold,
    })
    req = urllib.request.Request(
        args.gateway.rstrip("/") + "/fleet/deploy", data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=600.0) as resp:
            report = wire.loads(resp.read())
    except urllib.error.HTTPError as exc:
        report = wire.loads(exc.read() or b"{}")
    except (OSError, ValueError) as exc:
        print(f"error: cannot reach gateway {args.gateway}: {exc}",
              file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    if report.get("ok"):
        print(f"deploy: complete ({len(report.get('updated', []))} replicas "
              f"on {args.checkpoint})", file=sys.stderr)
        return 0
    print(f"deploy: rejected at {report.get('stage')}: "
          f"{report.get('error')}", file=sys.stderr)
    return 1


def run_fleet(args) -> int:
    if args.action == "up":
        return _cmd_up(args)
    if args.action == "status":
        return _cmd_status(args)
    return _cmd_deploy(args)
