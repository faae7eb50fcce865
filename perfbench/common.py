"""Shared pieces of the repository benchmark.

Everything a workload needs besides its own load loop lives here: the
representative model shape, the one-off trained serving checkpoint and
window pool (cached per config hash under ``perfbench/_cache``, never
timed), the percentile helper, peak-RSS probes, the run ledger and the
result line the benchmark prints last.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE_DIR = BENCH_DIR / "_cache"
OUT_DIR = BENCH_DIR / "_out"
LEDGER_PATH = BENCH_DIR / "ledger.jsonl"


def require_source() -> None:
    """Put the checkout's ``src`` on the import path, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


require_source()

import numpy as np  # noqa: E402

from repro.core import ChannelFNOConfig  # noqa: E402

# The representative shape: 64² grid, width 16, GELU, Re 800.  Every
# workload serves or trains exactly this model.
MODEL = ChannelFNOConfig(
    n_in=5, n_out=5, n_fields=2, modes1=8, modes2=8, width=16, n_layers=3,
    projection_channels=32, activation="gelu",
)
GRID = 64
REYNOLDS = 800.0
INTERVAL = 0.02  # snapshot spacing in t_c (the serving default)

# Trajectory pool the serving windows are cut from: spectral solver,
# band-limited initial vorticity.  Pool trajectories and the training
# set use disjoint seeds, so served windows are never training inputs.
POOL_TRAJECTORIES = 24
POOL_SNAPSHOTS = 41
POOL_SEED = 7001
TRAIN_TRAJECTORIES = 8
TRAIN_SEED = 9001
TRAIN_EPOCHS = 8

def config_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _datagen(n_samples: int, snapshots: int, seed: int):
    from repro.data import DataGenConfig

    return DataGenConfig(
        n=GRID, reynolds=REYNOLDS, n_samples=n_samples, warmup=0.2,
        duration=(snapshots - 1) * INTERVAL, sample_interval=INTERVAL,
        solver="spectral", ic="band", seed=seed,
    )


def _serving_spec() -> dict:
    return {
        "model": MODEL.to_dict(),
        "data": _datagen(TRAIN_TRAJECTORIES, 31, TRAIN_SEED).to_dict(),
        "epochs": TRAIN_EPOCHS,
    }


def serving_checkpoint() -> Path:
    """The trained serving checkpoint, trained on first use per config hash.

    A random-initialised model sends about half of the hybrid cycles to
    the PDE fallback, which changes the cost per request; a briefly
    trained one keeps the served path on the FNO.
    """
    spec = _serving_spec()
    path = CACHE_DIR / f"serve_model_{config_hash(spec)}.npz"
    if path.is_file():
        return path
    from repro.core import Trainer, TrainingConfig, build_fno2d_channels, save_model
    from repro.data import (
        FieldNormalizer,
        generate_dataset,
        make_channel_pairs,
        stack_fields,
    )

    samples = generate_dataset(_datagen(TRAIN_TRAJECTORIES, 31, TRAIN_SEED))
    X, Y = make_channel_pairs(stack_fields(samples, "velocity"), MODEL.n_in, MODEL.n_out)
    normalizer = FieldNormalizer(n_fields=MODEL.n_fields).fit(X)
    model = build_fno2d_channels(MODEL, rng=np.random.default_rng(TRAIN_SEED))
    trainer = Trainer(model, TrainingConfig(epochs=TRAIN_EPOCHS, batch_size=8,
                                            scheduler_step=4, seed=TRAIN_SEED))
    trainer.fit(normalizer.encode(X), normalizer.encode(Y))
    save_model(path, model, MODEL, normalizer,
               manifest={"seed": TRAIN_SEED,
                         "extra": {"train_loss": trainer.history.train_loss}})
    return path


def window_pool() -> Path:
    """The ``(trajectories, snapshots, 2, n, n)`` velocity pool file, generated once."""
    cfg = _datagen(POOL_TRAJECTORIES, POOL_SNAPSHOTS, POOL_SEED)
    path = CACHE_DIR / f"window_pool_{config_hash(cfg.to_dict())}.npy"
    if not path.is_file():
        from repro.data import generate_dataset, stack_fields

        pool = stack_fields(generate_dataset(cfg), "velocity")
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp.npy")
        np.save(tmp, pool)
        os.replace(tmp, path)
    return path


class WindowSet:
    """Seeded, distinct ``(n_in, 2, n, n)`` windows read from the pool on demand.

    Windows are read from the file when indexed, not memory-mapped or
    held, so a run's peak RSS counts the program's memory rather than
    the benchmark's inputs.
    """

    def __init__(self, seed: int, count: int):
        self.path = window_pool()
        with open(self.path, "rb") as fh:
            fmt = np.lib.format
            read_header = (fmt.read_array_header_1_0 if fmt.read_magic(fh) == (1, 0)
                           else fmt.read_array_header_2_0)
            shape, _, dtype = read_header(fh)
            self._offset = fh.tell()
        self._dtype = np.dtype(dtype)
        n_traj, self._n_snap = shape[:2]
        self._snap_shape = tuple(shape[2:])
        self._per_traj = self._n_snap - MODEL.n_in + 1
        if count > n_traj * self._per_traj:
            raise ValueError(f"pool holds {n_traj * self._per_traj} windows, "
                             f"asked for {count}")
        rng = np.random.default_rng(seed)
        self.picks = rng.choice(n_traj * self._per_traj, size=count, replace=False)
        digests = {hashlib.sha256(self[i].tobytes()).hexdigest() for i in range(count)}
        # Positions are drawn without replacement and checked by content,
        # so the repeated-input share is 0: a prediction cache is
        # predicted to gain nothing on these workloads.
        self.repeated_share = 1.0 - len(digests) / count

    def __len__(self) -> int:
        return len(self.picks)

    def __getitem__(self, i: int) -> np.ndarray:
        pick = int(self.picks[i])
        traj, first = divmod(pick, self._per_traj)
        snap_items = int(np.prod(self._snap_shape))
        start = (traj * self._n_snap + first) * snap_items * self._dtype.itemsize
        with open(self.path, "rb") as fh:
            fh.seek(self._offset + start)
            data = np.fromfile(fh, dtype=self._dtype, count=MODEL.n_in * snap_items)
        return data.reshape((MODEL.n_in,) + self._snap_shape)


@contextmanager
def child_env(**values):
    """Set environment variables for child processes started in the block."""
    saved = {key: os.environ.get(key) for key in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

MIN_TAIL = 10


def tail_percentile(n: int, min_tail: int = MIN_TAIL) -> float:
    """The highest percentile that still has ``min_tail`` samples beyond it."""
    if n < min_tail:
        return 0.0
    return 100.0 * (n - min_tail) / n


def percentile(values, q: float, min_tail: int = MIN_TAIL) -> float:
    """``q``-th percentile of ``values``; refuses a tail too thin to read.

    Raises ``ValueError`` when fewer than ``min_tail`` samples lie beyond
    the ``q``-th percentile, so a p90 needs at least 100 samples.
    """
    values = np.sort(np.asarray(values, dtype=float))
    if q > tail_percentile(len(values), min_tail) + 1e-9:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has fewer than {min_tail} beyond it"
        )
    return float(np.percentile(values, q))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process)."""
    status = Path(f"/proc/{pid or 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{status}: no VmHWM line")


# ---------------------------------------------------------------------------
# results, ledger
# ---------------------------------------------------------------------------

class Result:
    """Metrics of one run plus its attempted and failed operation counts."""

    def __init__(self, workload: str, seed: int, traced: bool):
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.metrics: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.phases: list[tuple[str, float]] = []

    def phase(self, name: str, since: float) -> None:
        """Note how long a phase of the run took (printed, not a metric)."""
        self.phases.append((name, time.perf_counter() - since))

    def add(self, name: str, value, unit: str, samples: int | None = None) -> None:
        entry = {"value": float(value), "unit": unit}
        if samples is not None:
            entry["samples"] = int(samples)
        self.metrics[name] = entry

    def add_tail(self, latencies_ms) -> None:
        """p90 when the sample holds it, else the highest percentile it holds."""
        n = len(latencies_ms)
        if n >= 100:
            self.add("latency_p90_ms", percentile(latencies_ms, 90), "ms", samples=n)
        elif n >= MIN_TAIL:
            q = int(tail_percentile(n))
            self.add(f"latency_p{q}_ms", percentile(latencies_ms, q), "ms", samples=n)
            self.notes.append(f"latency_p90_ms unavailable: {n} samples < 100")

    def fail(self, problem: str) -> None:
        """Record one failed or incorrect operation."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def print_table(self, stream=sys.stdout) -> None:
        title = "traced" if self.traced else "end-to-end"
        print(f"== {self.workload} seed {self.seed} ({title}) ==", file=stream)
        for name, entry in self.metrics.items():
            samples = f"  (n={entry['samples']})" if "samples" in entry else ""
            print(f"  {name:34s} {entry['value']:14.6g} {entry['unit']}{samples}",
                  file=stream)
        if self.phases:
            print("  phases: " + ", ".join(f"{n} {t:.1f} s" for n, t in self.phases),
                  file=stream)
        for note in self.notes:
            print(f"  note: {note}", file=stream)
        for problem in self.problems:
            print(f"  FAILED: {problem}", file=stream)
        print(f"  attempted {self.attempted}, failed {self.failed}", file=stream)

    def result_line(self, names) -> str:
        """The JSON line printed last: exactly the declared metrics."""
        metrics = {}
        for name in names:
            entry = self.metrics[name]
            metrics[name] = {"value": entry["value"], "unit": entry["unit"]}
        return json.dumps({"correct": self.correct, "attempted": int(self.attempted),
                           "failed": int(self.failed), "metrics": metrics})


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def ledger_record(result: Result, config: str, applicable: bool = True) -> dict:
    import scipy

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload": result.workload,
        "seed": result.seed,
        "traced": result.traced,
        "config_hash": config,
        "verdict": ("not applicable" if not applicable
                    else "pass" if result.correct else "fail"),
        "metrics": {name: {"value": e["value"], "unit": e["unit"]}
                    for name, e in result.metrics.items()},
    }


def append_ledger(record: dict, path: Path = LEDGER_PATH) -> None:
    """Append one JSON line; earlier records are never rewritten."""
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line.encode())
        os.fsync(fd)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# the metric catalog (BENCHMARK.json lists the same names)
# ---------------------------------------------------------------------------

WORKLOADS = ("fleet_fno_json", "serve_hybrid_trust", "pipeline_lbm")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fleet.route_overhead_ms": "ms",
    "fleet.retries": "count",
    "fleet.ejections": "count",
    "fleet.replica_share_max": "frac",
    "serve.httpd.request_bytes": "B",
    "serve.httpd.response_bytes": "B",
    "serve.httpd.self_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.batch_exec_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.rejected": "count",
    "serve.errors": "count",
    "serve.registry.load_ms": "ms",
    "serve.registry.hit_frac": "frac",
    "core.rollout.forward_ms": "ms",
    "core.rollout.forward_calls": "count",
    "core.hybrid.fallback_frac": "frac",
    "compile.hit_frac": "frac",
    "compile.plan_steps": "count",
    "compile.est_mflops": "MFLOP",
    "compile.arena_kib": "KiB",
    "compile.gflops": "GFLOP/s",
    "ns.advance_ms": "ms",
    "ns.steps": "count",
    "trust.assess_ms": "ms",
    "trust.flagged_frac": "frac",
    "jobs.data_s": "s",
    "jobs.train_s": "s",
    "jobs.rollout_s": "s",
    "jobs.checkpoint_ms": "ms",
    "jobs.bytes_written": "B",
    "data.sample_s": "s",
    "lbm.mlups": "MLUP/s",
    "core.training.samples_per_s": "1/s",
    "core.training.epoch_s": "s",
    "tensor.backward_ms": "ms",
    "optim.step_ms": "ms",
    "tensor.ops_per_batch": "count",
    "obs.trace_overhead_frac": "frac",
    "bench.gen_late_ms": "ms",
    "bench.client_decode_ms": "ms",
}
