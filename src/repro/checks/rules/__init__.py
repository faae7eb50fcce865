"""The per-file rules.  Importing this package registers every one.

The whole-program rules RPR101–RPR105 live beside the engine
(:mod:`repro.checks.dtypeflow`, :mod:`~repro.checks.races`,
:mod:`~repro.checks.seeds`) and are listed in :mod:`repro.checks.registry`.

| id     | name               | hazard                                           |
|--------|--------------------|--------------------------------------------------|
| RPR001 | dtype-promotion    | np.fft / float64 / complex128 on the f32 path    |
| RPR002 | thread-safety      | lock-free shared-state writes in repro.serve     |
| RPR003 | reproducibility    | unseeded RNGs, legacy global np.random state     |
| RPR004 | api-contracts      | broken Module registration, mutable defaults     |
| RPR005 | numerics-hygiene   | silent except/NaN handling, dropped dealias flag |
| RPR006 | obs-hygiene        | wall-clock durations, spans entered without with |
| RPR007 | resilience-hygiene | unbounded while-True retries, swallow-and-continue |
| RPR008 | artifact-integrity | raw np.savez / open-"wb" writes bypassing manifests |
| RPR009 | compile-alloc-hygiene | fresh allocations / Tensor tape in plan-executed hot paths |
| RPR010 | parallel-hygiene   | raw multiprocessing/SharedMemory bypassing repro.parallel |
| RPR011 | trust-fidelity     | trust diagnostics fed cast/decimated predictions |
"""

from . import api, artifacts, compile, dtype, faults, numerics, obs, parallel, rng, threads, trust  # noqa: F401

__all__ = [
    "api", "artifacts", "compile", "dtype", "faults", "numerics", "obs",
    "parallel", "rng", "threads", "trust",
]
