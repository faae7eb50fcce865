"""Shared utilities: RNG fan-out and crash-safe, manifested I/O.

Timing lives in :mod:`repro.obs` (``Timer``, ``timed``, ``LatencyStats``)
and process fan-out in :mod:`repro.parallel`.
"""

from .artifacts import (
    CheckpointError,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_npz,
    guarded_npz_load,
    load_manifest,
    manifest_path,
    sha256_file,
    stable_hash,
    verify_manifest,
    write_manifest,
)
from .rng import as_generator, spawn_rngs

__all__ = [
    "spawn_rngs", "as_generator",
    "CheckpointError", "atomic_write_npz", "atomic_write_bytes",
    "atomic_write_json", "guarded_npz_load",
    "sha256_file", "stable_hash", "manifest_path",
    "write_manifest", "load_manifest", "verify_manifest",
]
