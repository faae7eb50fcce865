"""``serve_hybrid_trust``: in-process ``InferenceService``, closed loop.

Library defaults (hybrid mode, fd solver, deterministic kernels,
report-only ``TrustPolicy()``, float64 registry) with 2 thread workers
and ``BatchPolicy(max_batch=8)``; two client threads call
``predict(..., cycles=4)`` back to back.  No HTTP is involved, so the
wire layer is bypassed; the work goes to the PDE windows, the compiled
forward, trust, and queueing and batching.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time

import numpy as np

import common
import layers
from common import Result
from loadgen import closed_loop

NAME = "serve_hybrid_trust"
CONNECTIONS = 2  # closed-loop client threads
CYCLES = 4
SETUPS = 5
REF_PROCS = 2  # reference processes, one per core
MAX_RATE = 15.0  # window budget per second; the closed loop stops at --seconds


def _service(ckpt):
    from repro.serve import BatchPolicy, InferenceService, ModelRegistry

    registry = ModelRegistry()
    registry.register("bench", ckpt)
    return InferenceService(registry, policy=BatchPolicy(max_batch=8), n_workers=2)


def probe(kind: str, *args: str) -> None:
    """Entry point of the benchmark's child processes for this workload."""
    if kind == "setup":
        _setup_probe(*args)
    elif kind == "reference":
        _reference_shard(*args)
    else:
        raise SystemExit(f"error: unknown probe {kind!r}")


def _setup_probe(ckpt: str, window_path: str) -> None:
    """Set-up probe run in a fresh process: load, start, serve one request."""
    window = np.load(window_path)
    service = _service(ckpt).start()
    try:
        service.predict("bench", window, cycles=CYCLES)
        print("ready", flush=True)
    finally:
        service.stop()


def measure_setup(ckpt, windows) -> list[float]:
    """Wall time from process start until the first request was answered."""
    times = []
    for k, window in enumerate(windows):
        path = common.OUT_DIR / f"serve-probe-{k}.npy"
        np.save(path, window)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(common.BENCH_DIR / "run.py"), "--probe", NAME,
             "--probe-arg", "setup", "--probe-arg", str(ckpt), "--probe-arg", str(path)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"serve set-up probe failed (exit {code})")
        path.unlink()
    return times


# -- reference: every response against a single-request computation --------

_REF = {}


def _ref_init(ckpt: str) -> None:
    from repro.serve import ModelRegistry
    from repro.trust import TrustPolicy

    registry = ModelRegistry()
    registry.register("bench", ckpt)
    _REF["entry"] = registry.get("bench")
    _REF["trust"] = TrustPolicy()


def summary(response: dict) -> dict:
    """What the check needs of a response, without holding its arrays."""
    velocity = np.ascontiguousarray(response["velocity"])
    return {
        "digest": hashlib.sha256(velocity.tobytes()).hexdigest(),
        "shape": velocity.shape,
        "finite": bool(np.all(np.isfinite(velocity))),
        "source": list(response["source"]),
        "score": (response.get("trust") or {}).get("score"),
    }


def _ref_one(window: np.ndarray) -> dict:
    from repro.serve.service import run_batch_inference

    entry = _REF["entry"]
    record = run_batch_inference(
        entry.model, entry.config, entry.normalizer, window[None], mode="hybrid",
        cycles=CYCLES, reynolds=[common.REYNOLDS], sample_interval=common.INTERVAL,
        solver_kind="fd", deterministic=True, trust=_REF["trust"],
    )[0]
    return summary({**record, "trust": record["trust_bundle"]["trust"]})


def _reference_shard(ckpt: str, seed: str, count: str, indices: str,
                     out_path: str) -> None:
    """Compute single-request references for some windows; write them as JSON."""
    _ref_init(ckpt)
    windows = common.WindowSet(int(seed), int(count))
    refs = [_ref_one(windows[int(i)]) for i in indices.split(",") if i]
    with open(out_path, "w") as fh:
        json.dump(refs, fh)


def references(indices, windows, ckpt, seed: int) -> list[dict]:
    """Single-request references, computed in two child processes.

    The children run single-threaded BLAS: two multi-threaded ones on
    two cores oversubscribe and take twice as long.  They are plain
    subprocesses that are always waited for, so no helper process (such
    as a multiprocessing resource tracker) outlives the run.
    """
    shards = [list(indices[k::REF_PROCS]) for k in range(REF_PROCS)]
    paths = [common.OUT_DIR / f"serve-ref-{seed}-{k}.json" for k in range(REF_PROCS)]
    procs = []
    try:
        with common.child_env(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                              MKL_NUM_THREADS="1"):
            for shard, path in zip(shards, paths):
                procs.append(subprocess.Popen(
                    [sys.executable, str(common.BENCH_DIR / "run.py"), "--probe", NAME,
                     "--probe-arg", "reference", "--probe-arg", str(ckpt),
                     "--probe-arg", str(seed), "--probe-arg", str(len(windows)),
                     "--probe-arg", ",".join(map(str, shard)),
                     "--probe-arg", str(path)],
                    stdout=subprocess.DEVNULL,
                ))
        for proc in procs:
            if proc.wait(timeout=150) != 0:
                raise RuntimeError(f"reference process failed (exit {proc.returncode})")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    by_index = {}
    for shard, path in zip(shards, paths):
        with open(path) as fh:
            refs = json.load(fh)
        path.unlink()
        for i, ref in zip(shard, refs):
            by_index[i] = {**ref, "shape": tuple(ref["shape"])}
    return [by_index[i] for i in indices]


def check(samples, windows, ckpt, seed: int, result: Result) -> None:
    """Every response must equal, bit for bit, a single-request computation.

    Serving runs batch-invariant kernels by default, so neither the batch
    a request landed in nor the worker thread that ran it may change a
    bit of its trajectory, provenance or trust score.
    """
    answered = [s for s in samples if s.error is None]
    for s in samples:
        if s.error is not None:
            result.fail(f"request {s.index}: {s.error}")
    expected_shape = (common.MODEL.n_in + 2 * CYCLES * common.MODEL.n_out, 2,
                      common.GRID, common.GRID)
    refs = references([s.index for s in answered], windows, ckpt, seed)
    for s, ref in zip(answered, refs):
        got = s.payload
        if got["shape"] != expected_shape or not got["finite"]:
            result.fail(f"request {s.index}: velocity shape {got['shape']}, "
                        f"finite={got['finite']}")
        elif got != ref:
            result.fail(f"request {s.index}: differs from its single-request reference")


def fallback_frac(samples) -> float:
    """PDE-fallback windows over FNO windows attempted, from provenance."""
    fallback = attempted = 0
    for s in samples:
        if s.error is None:
            sources = s.payload["source"]
            fallback += sources.count("pde-fallback")
            attempted += sources.count("pde-fallback") + sources.count("fno")
    return fallback / attempted if attempted else 0.0


def _window_key(window) -> bytes:
    return np.ascontiguousarray(window[0, 0, 0, :8]).tobytes()


def run(seed: int, seconds: float, recorder, result: Result) -> None:
    ckpt = common.serving_checkpoint()
    budget = int(MAX_RATE * seconds) + 16
    windows = common.WindowSet(seed, budget + SETUPS + 1)
    setup_windows = [windows[budget + k] for k in range(SETUPS)]
    warm_window = windows[budget + SETUPS]
    t = time.perf_counter()
    result.add("setup_s", common.median(measure_setup(ckpt, setup_windows)), "s",
               samples=SETUPS)
    result.phase("setup probes", t)

    if recorder is not None:
        layer_hooks = _install(recorder)
    service = _service(ckpt).start()
    try:
        service.predict("bench", warm_window, cycles=CYCLES)

        def call(i):
            window = windows[i]
            if recorder is None:
                return service.predict("bench", window, cycles=CYCLES)
            with recorder.span("serve.request", request=f"r{i}"):
                return service.predict("bench", window, cycles=CYCLES)

        t = time.perf_counter()
        samples, elapsed = closed_loop(call, budget, CONNECTIONS, seconds, keep=summary)
        result.phase("closed loop", t)
        stats = service.stats_snapshot()
    finally:
        service.stop()
        if recorder is not None:
            recorder.unwrap_all()
    if len(samples) >= budget:
        raise RuntimeError(f"closed loop used up its {budget} windows; raise MAX_RATE")
    result.attempted = len(samples)
    t = time.perf_counter()
    check(samples, windows, ckpt, seed, result)
    result.phase("reference check", t)

    ok = [s.latency * 1e3 for s in samples if s.error is None]
    result.add("latency_p50_ms", common.median(ok), "ms", samples=len(ok))
    result.add("throughput_per_s", len(ok) / elapsed, "1/s", samples=len(ok))
    result.add("peak_rss_mb", common.peak_rss_mb(), "MB")
    result.add_tail(ok)
    result.add("repeated_input_share", windows.repeated_share, "frac")
    result.add("core.hybrid.fallback_frac", fallback_frac(samples), "frac")
    if recorder is not None:
        layer_metrics(recorder, samples, windows, stats, elapsed, result, layer_hooks)


# -- traced run --------------------------------------------------------------

def _install(recorder) -> dict:
    import repro.serve.service as service_mod
    from repro.ns.base import NSSolverBase
    from repro.serve.registry import ModelRegistry

    def batch_attrs(args, kwargs):
        return {"keys": [_window_key(w) for w in args[3]]}

    recorder.wrap(service_mod, "run_batch_inference", "serve.batch", attrs_of=batch_attrs)
    recorder.wrap(service_mod, "assess_prediction", "trust.assess")
    recorder.wrap(NSSolverBase, "advance", "ns.advance")
    recorder.wrap(ModelRegistry, "get", "serve.registry.get")
    return layers.wrap_forward(recorder)


LAYER_OF = {
    "serve.request": "serve.service",
    "serve.queue_wait": "serve.queue_wait",
    "serve.batch": "serve.batch",
    "core.rollout.forward": "core.rollout",
    "ns.advance": "ns",
    "trust.assess": "trust",
    "serve.registry.get": "serve.registry",
}


def layer_metrics(recorder, samples, windows, stats, elapsed, result, hooks) -> None:
    from repro import obs

    import spans

    requests = {_window_key(windows[s.index]): f"r{s.index}" for s in samples}
    roots = {r.request: r for r in recorder.named("serve.request")}
    extra = {}
    for batch in recorder.named("serve.batch"):
        for key in batch.attrs.pop("keys"):
            root = roots.get(requests.get(key))
            if root is not None:
                extra.setdefault(root.id, []).append(batch)
                recorder.add("serve.queue_wait", root.start, batch.start,
                             parent=root.id, request=root.request)
    report = spans.layer_report(recorder.spans, "serve.request", LAYER_OF.get, extra)
    spans.print_layer_report(report, NAME)
    covered = sum(report["layers"].get(k, {}).get("self_s", 0.0)
                  for k in ("core.rollout", "ns", "trust", "serve.queue_wait"))
    share = covered / report["request_s"] if report["request_s"] else 0.0
    result.notes.append(f"core.rollout + ns + trust + queue wait self time cover "
                        f"{100 * share:.1f}% of traced request time (target >= 90%)")

    forwards = recorder.named("core.rollout.forward")
    ms = lambda spans_: common.median([s.duration * 1e3 for s in spans_]) if spans_ else 0.0
    result.add("serve.queue_wait_ms", stats["queue_wait_s"]["p50"] * 1e3, "ms")
    result.add("serve.batch_exec_ms", stats["batch_exec_s"]["p50"] * 1e3, "ms")
    hist = {int(k): v for k, v in stats["batch_histogram"].items()}
    result.add("serve.batch_size_mean",
               sum(k * v for k, v in hist.items()) / max(sum(hist.values()), 1), "count")
    result.add("serve.rejected", stats["requests"]["rejected"], "count")
    result.add("serve.errors", stats["requests"]["errors"], "count")
    gets = recorder.named("serve.registry.get")
    result.add("serve.registry.load_ms", max(s.duration for s in gets) * 1e3, "ms")
    reg = stats["registry"]
    result.add("serve.registry.hit_frac", reg["hits"] / max(reg["hits"] + reg["misses"], 1),
               "frac")
    result.add("core.rollout.forward_ms", ms(forwards), "ms")
    result.add("core.rollout.forward_calls", len(forwards), "count")
    layers.compile_metrics(result, hooks["model"],
                           ms([s for s in forwards if s.attrs["batch"] == 1]))
    result.add("ns.advance_ms", ms(recorder.named("ns.advance")), "ms")
    steps = obs.metrics_registry().counter("solver_steps_total",
                                           labels={"solver": "FDNSSolver2D"}).value
    result.add("ns.steps", steps / max(len(samples) + 1, 1), "count")
    result.add("trust.assess_ms", ms(recorder.named("trust.assess")), "ms")
    trust = stats["trust"]
    result.add("trust.flagged_frac", trust["flagged"] / max(trust["reports"], 1), "frac")
    result.add("obs.trace_overhead_frac",
               len(recorder.spans) * spans.span_cost_s() / elapsed, "frac")
