"""The repository benchmark: one command, three workloads, checked outputs.

Usage::

    python3 perfbench/run.py --workload serve_hybrid_trust --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each workload in a fresh process

Workloads (all serve or train ``ChannelFNOConfig(n_in=5, n_out=5,
modes=8, width=16, n_layers=3, projection_channels=32, gelu)`` on a 64²
grid at Re 800):

* ``fleet_fno_json`` — ``repro fleet up`` with 2 replicas, JSON
  ``fno×2`` requests through the gateway in an open loop;
* ``serve_hybrid_trust`` — in-process ``InferenceService`` with hybrid
  mode and report-only trust, two closed-loop clients;
* ``pipeline_lbm`` — ``repro.jobs.Pipeline``: entropic LBM data →
  training → hybrid roll-out.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
benchmark's span wrappers and prints the per-layer metrics and a
self-time table.  Every run checks its outputs, appends one record to
``perfbench/ledger.jsonl`` and prints as its last line the JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402  (also puts the checkout's src on the path)

def _module(workload: str):
    if workload == "fleet_fno_json":
        import wl_fleet as mod
    elif workload == "serve_hybrid_trust":
        import wl_serve as mod
    else:
        import wl_pipeline as mod
    return mod


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    result = common.Result(workload, seed, trace)
    recorder = None
    if trace:
        from repro.obs import hooks

        import spans

        recorder = spans.Recorder()
        hooks.enable_profiling()  # solver-step and tensor-op counters
    try:
        _module(workload).run(seed, seconds, recorder, result)
    finally:
        if trace:
            hooks.disable_profiling()
    names = common.PER_LAYER if trace else common.END_TO_END
    for name, unit in names.items():
        if name not in result.metrics:
            # The layer is not on this workload's path: measured as zero.
            result.add(name, 0.0, unit)
    if recorder is not None:
        path = common.OUT_DIR / f"spans-{workload}-{seed}.jsonl"
        recorder.dump(path)
        result.notes.append(f"spans written to {path.relative_to(common.ROOT)}")
    result.add("error_frac", result.failed / max(result.attempted, 1), "frac",
               samples=result.attempted)
    # Load comes from at most one thread or connection per core; a host
    # with fewer cores cannot run the workload as defined.
    connections = _module(workload).CONNECTIONS
    applicable = (os.cpu_count() or 1) >= connections
    if not applicable:
        result.notes.append(f"not applicable: {os.cpu_count()} cores < "
                            f"{connections} connections")
    config = common.config_hash({"model": common.MODEL.to_dict(),
                                 "workload": workload, "seconds": seconds})
    common.append_ledger(common.ledger_record(result, config, applicable))
    result.print_table()
    print(result.result_line(names), flush=True)
    return 0 if result.correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process; non-zero if any failed."""
    worst = 0
    for workload in common.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            timeout=600,
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*common.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", choices=common.WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--probe-arg", action="append", default=[], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        _module(args.probe).probe(*args.probe_arg)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    code = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"run took {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
