"""``pipeline_lbm``: the offline path through ``repro.jobs.Pipeline``.

Data from the entropic lattice Boltzmann solver (as in the paper) →
training at the representative model shape → hybrid roll-out, each run
journaled with checksum manifests — the code behind ``repro run``.  It
is the only workload with eager autograd forward and backward passes,
optimizer weight updates, LBM streaming and collision and journaled
checkpoint writes.  Pipelines run back to back for ``--seconds``, each
in a fresh process as ``repro run`` runs it (so each pays the same cold
start) and each with its own seed, so no two share data.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import common
import layers
from common import Result

from repro.jobs import Pipeline, PipelineConfig

NAME = "pipeline_lbm"
CONNECTIONS = 1


class BenchPipelineConfig(PipelineConfig):
    """``PipelineConfig`` at the representative model shape.

    ``PipelineConfig`` has no projection-width field (its model uses the
    library default of 128), so the benchmark pins 32 here.
    """

    def model_config(self):
        return common.MODEL


def pipeline_config(seed: int) -> BenchPipelineConfig:
    # Sized so one pipeline takes ~6 s on a 2-core host and a run holds
    # 3-4 of them: 3 LBM trajectories (2 train, 1 test) of 16 snapshots
    # give 4 training pairs, trained for 4 epochs of single-pair Adam
    # steps (one journaled checkpoint per epoch), then a 2-cycle hybrid
    # roll-out.
    return BenchPipelineConfig(
        grid=common.GRID, reynolds=common.REYNOLDS, samples=3, warmup=0.02,
        duration=0.3, interval=common.INTERVAL, solver="lbm", ic="band",
        samples_per_shard=2, n_in=common.MODEL.n_in, n_out=common.MODEL.n_out,
        modes=common.MODEL.modes1, width=common.MODEL.width,
        layers=common.MODEL.n_layers, epochs=4, batch_size=1, lr=5e-3,
        scheduler_step=100, rollout_mode="hybrid", cycles=2, seed=seed,
    )


def _capture(owner, attr: str, sink: list) -> None:
    """Keep every return value of ``owner.attr`` (for this process's life)."""
    original = owner.__dict__[attr]

    def capturing(self, *args, **kwargs):
        value = original(self, *args, **kwargs)
        sink.append(value)
        return value

    setattr(owner, attr, capturing)


def probe(workdir: str, seed: str, trace: str) -> None:
    """One pipeline in a fresh process, as ``repro run`` runs it.

    Prints ``ready`` once the pipeline could start its first stage (the
    set-up time), then, after the run, one JSON line with the final
    losses, roll-out provenance and peak RSS (and, traced, the counters
    the parent cannot read from spans).
    """
    from repro.core import HybridFNOPDE, Trainer

    workdir = Path(workdir)
    recorder = hooks = None
    if trace == "1":
        from repro.obs import hooks as obs_hooks

        import spans

        recorder = spans.Recorder()
        obs_hooks.enable_profiling()  # solver-step and tensor-op counters
        hooks = _install(recorder)
    pipeline = Pipeline(workdir, pipeline_config(int(seed)))
    print("ready", flush=True)
    histories: list = []  # Trainer.fit: final train and test loss
    records: list = []    # HybridFNOPDE.run: roll-out provenance
    _capture(Trainer, "fit", histories)
    _capture(HybridFNOPDE, "run", records)
    if recorder is None:
        pipeline.run()
    else:
        with recorder.span("pipeline.run", request=workdir.name):
            for stage in ("data", "train", "rollout"):
                with recorder.span(f"jobs.{stage}"):
                    pipeline.run(stages=[stage], resume=True)
    (history,), (record,) = histories, records
    out = {
        "train_loss": history.train_loss[-1],
        "test_loss": history.val_loss[-1],
        "fno_windows": record.source.count("fno"),
        "fallback_windows": record.source.count("pde-fallback"),
        "peak_rss_mb": common.peak_rss_mb(),
    }
    if recorder is not None:
        from repro import obs

        recorder.dump(workdir / "spans.jsonl")
        out["ns_steps"] = obs.metrics_registry().counter(
            "solver_steps_total", labels={"solver": "FDNSSolver2D"}).value
        plan = Result(NAME, int(seed), True)
        layers.compile_metrics(plan, hooks["model"], common.median(
            [s.duration * 1e3 for s in recorder.named("core.rollout.forward")]))
        out["compile"] = plan.metrics
    print(json.dumps(out), flush=True)


def run_pipeline(workdir: Path, seed: int, trace: bool) -> tuple[float, float, dict | None]:
    """Run one pipeline process; returns (set-up s, total s, its JSON line)."""
    shutil.rmtree(workdir, ignore_errors=True)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--probe", NAME,
         "--probe-arg", str(workdir), "--probe-arg", str(seed),
         "--probe-arg", str(int(trace))], stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline().strip()
        setup = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        code = proc.wait(timeout=150)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    total = time.perf_counter() - start
    if code != 0 or ready != "ready" or not lines:
        return setup, total, None
    return setup, total, json.loads(lines[-1])


def run(seed: int, seconds: float, recorder, result: Result) -> None:
    runs = []  # (workdir, set-up s, total s, payload)
    t0 = time.perf_counter()
    while True:
        workdir = common.OUT_DIR / f"pipeline-{seed}-{len(runs)}"
        setup, total, payload = run_pipeline(workdir, seed * 1000 + len(runs),
                                             recorder is not None)
        runs.append((workdir, setup, total, payload))
        if payload is None:
            break
        if time.perf_counter() - t0 + common.median([r[2] for r in runs]) > seconds:
            break
    elapsed = time.perf_counter() - t0
    result.phase(f"{len(runs)} pipelines", t0)

    result.attempted = len(runs)
    for workdir, _, total, payload in runs:
        check(workdir, payload, result)
        result.notes[-1] += f", {total:.2f} s"
    done = [r for r in runs if r[3] is not None]
    result.add("setup_s", common.median([r[1] for r in runs]), "s", samples=len(runs))
    totals_ms = [r[2] * 1e3 for r in runs]
    result.add("latency_p50_ms", common.median(totals_ms), "ms", samples=len(runs))
    result.add("throughput_per_s", len(done) / elapsed, "1/s", samples=len(done))
    result.add("peak_rss_mb", max(r[3]["peak_rss_mb"] for r in done) if done else 0.0, "MB")
    result.add("pipeline_s", common.median(totals_ms) / 1e3, "s", samples=len(runs))
    fno = sum(r[3]["fno_windows"] for r in done)
    fallback = sum(r[3]["fallback_windows"] for r in done)
    result.add("core.hybrid.fallback_frac", fallback / max(fno + fallback, 1), "frac")
    if recorder is not None and done:
        layer_metrics(recorder, done, result)
    for workdir, *_ in runs:
        shutil.rmtree(workdir, ignore_errors=True)


def check(workdir: Path, payload: dict | None, result: Result) -> None:
    """Losses and roll-out energy inside the recorded bands; lineage intact."""
    from repro.jobs.manifest import verify_chain
    from repro.utils.artifacts import CheckpointError

    name = workdir.name
    if payload is None:
        result.fail(f"{name}: pipeline process failed")
        result.notes.append(f"{name}: failed")
        return
    pipeline = Pipeline(workdir)
    done = pipeline.journal.completed_steps()
    if sorted(done) != ["data", "rollout", "train"]:
        result.fail(f"{name}: journal shows stages {sorted(done)} done")
    try:
        verify_chain(pipeline.model_path)
    except CheckpointError as exc:
        result.fail(f"{name}: verify_chain(model.npz) failed: {exc}")
    bands = json.loads((common.BENCH_DIR / "reference.json").read_text())[NAME]
    ke = np.load(pipeline.rollout_path)["kinetic_energy"]
    values = {
        "train_loss": payload["train_loss"],
        "test_loss": payload["test_loss"],
        "ke_ratio": float(ke[-1] / ke[0]),
    }
    for key, value in values.items():
        lo, hi = bands[key]
        if not (np.isfinite(value) and lo <= value <= hi):
            result.fail(f"{name}: {key} {value:.4g} outside [{lo}, {hi}]")
    result.notes.append(f"{name}: " + ", ".join(f"{k} {v:.4f}" for k, v in values.items()))


# -- traced run --------------------------------------------------------------

def _install(recorder) -> dict:
    import repro.data.generation as generation
    from repro import obs
    from repro.core import Trainer
    from repro.lbm import LBMSolver2D
    from repro.ns.base import NSSolverBase
    from repro.optim import Adam
    from repro.tensor import Tensor

    ops = obs.metrics_registry().counter("tensor_ops_total")

    def epoch_attrs(args, kwargs):
        return {"samples": len(args[1].x), "ops0": ops.value}

    def epoch_after(record):
        record.attrs["ops"] = ops.value - record.attrs.pop("ops0")

    def lbm_attrs(args, kwargs):
        n_steps = args[1] if len(args) > 1 else kwargs.get("n_steps", 1)
        return {"nodes": args[0].n ** 2 * int(n_steps)}

    recorder.wrap(generation, "generate_sample", "data.sample")
    recorder.wrap(LBMSolver2D, "step", "lbm.step", attrs_of=lbm_attrs)
    recorder.wrap(Trainer, "train_epoch", "core.training.epoch", attrs_of=epoch_attrs,
                  after=epoch_after)
    recorder.wrap(Trainer, "save_checkpoint", "jobs.checkpoint")
    recorder.wrap(Tensor, "backward", "tensor.backward")
    recorder.wrap(Adam, "step", "optim.step")
    recorder.wrap(NSSolverBase, "advance", "ns.advance")
    return layers.wrap_forward(recorder)


LAYER_OF = {
    "pipeline.run": "jobs",
    "jobs.data": "jobs", "jobs.train": "jobs", "jobs.rollout": "jobs",
    "jobs.checkpoint": "jobs.checkpoint",
    "data.sample": "data",
    "lbm.step": "lbm",
    "core.training.epoch": "core.training",
    "tensor.backward": "tensor",
    "optim.step": "optim",
    "core.rollout.forward": "core.rollout",
    "ns.advance": "ns",
}


def layer_metrics(recorder, runs, result: Result) -> None:
    """Per-layer numbers from the spans the pipeline processes wrote."""
    import spans

    for k, (workdir, _, _, _) in enumerate(runs):
        recorder.load(workdir / "spans.jsonl", id_offset=(k + 1) * 10**7)
    report = spans.layer_report(recorder.spans, "pipeline.run", LAYER_OF.get)
    spans.print_layer_report(report, NAME)
    med = lambda name, scale: common.median(
        [s.duration * scale for s in recorder.named(name)])
    for stage in ("data", "train", "rollout"):
        result.add(f"jobs.{stage}_s", med(f"jobs.{stage}", 1.0), "s")
    result.add("jobs.checkpoint_ms", med("jobs.checkpoint", 1e3), "ms")
    result.add("jobs.bytes_written", common.median(
        [sum(f.stat().st_size for f in workdir.rglob("*")
             if f.is_file() and f.name != "spans.jsonl") for workdir, *_ in runs]), "B")
    result.add("data.sample_s", med("data.sample", 1.0), "s")
    steps = recorder.named("lbm.step")
    result.add("lbm.mlups", sum(s.attrs["nodes"] for s in steps)
               / sum(s.duration for s in steps) / 1e6, "MLUP/s")
    epochs = recorder.named("core.training.epoch")
    result.add("core.training.samples_per_s", sum(s.attrs["samples"] for s in epochs)
               / sum(s.duration for s in epochs), "1/s")
    result.add("core.training.epoch_s", med("core.training.epoch", 1.0), "s")
    result.add("tensor.backward_ms", med("tensor.backward", 1e3), "ms")
    result.add("optim.step_ms", med("optim.step", 1e3), "ms")
    result.add("tensor.ops_per_batch", sum(s.attrs["ops"] for s in epochs)
               / len(recorder.named("optim.step")), "count")
    result.add("core.rollout.forward_ms", med("core.rollout.forward", 1e3), "ms")
    result.add("core.rollout.forward_calls", len(recorder.named("core.rollout.forward")),
               "count")
    result.add("ns.advance_ms", med("ns.advance", 1e3), "ms")
    result.add("ns.steps", common.median([r[3]["ns_steps"] for r in runs]), "count")
    for name, entry in runs[-1][3]["compile"].items():
        result.add(name, entry["value"], entry["unit"])
    result.add("obs.trace_overhead_frac", len(recorder.spans) * spans.span_cost_s()
               / sum(r[2] for r in runs), "frac")
