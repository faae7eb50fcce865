"""Spectral divergence-free projection as a serving post-processor.

The paper identifies leaving the divergence-free manifold as *the*
pure-FNO failure mode; :class:`repro.nn.spectral.SolenoidalProjection2d`
already offers the Leray projection as a differentiable layer for models
trained with it.  This module applies the identical numpy-level kernel
(:func:`repro.tensor.fft_ops.solenoidal_apply_2d`, also used by the
compiled plans — bit-identical arithmetic) to *finished predictions*, so
any deployed model can be served with a guaranteed-solenoidal output
without retraining.

Trade-off (documented in DESIGN.md §13): projection removes the
compressible component of the error but silently discards the
divergence diagnostic's signal — a projected prediction always reports
``rms_divergence ≈ 0``.  The serving path therefore diagnoses *before*
projecting, and the trust report keeps the pre-projection divergence.
"""

from __future__ import annotations

import numpy as np

from ..tensor.fft_ops import projection_multipliers, solenoidal_apply_2d

__all__ = ["project_velocity"]


def project_velocity(u: np.ndarray, length: float = 2.0 * np.pi) -> np.ndarray:
    """Leray-project velocity snapshots ``(..., 2, n, n)`` at native dtype.

    Accepts a single snapshot ``(2, n, n)`` or any stack of them; the
    result has the same shape and dtype (the underlying kernel casts
    back with ``copy=False``).
    """
    arr = np.asarray(u)
    if arr.ndim < 3 or arr.shape[-3] != 2:
        raise ValueError(f"expected velocity (..., 2, n, n), got {arr.shape}")
    lead = arr.shape[:-3]
    n1, n2 = arr.shape[-2:]
    batched = arr.reshape(1, -1, n1, n2)
    kx, ky, inv_k2 = projection_multipliers(n1, n2, length, arr.dtype)
    projected = solenoidal_apply_2d(batched, kx, ky, inv_k2)
    return projected.reshape(*lead, 2, n1, n2)
