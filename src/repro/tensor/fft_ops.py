"""Fused spectral-convolution primitives with analytic FFT adjoints.

The Fourier layer of an FNO is
``x -> irfft( W * truncate( rfft(x) ) )`` with complex weights ``W`` acting
on the retained low-frequency modes.  Rather than tracing complex
arithmetic through the generic autograd engine, the whole layer is a
single fused op whose backward pass uses the exact adjoints of NumPy's
real FFTs, derived as follows (real inner products throughout).

Let ``n`` be the length of the last transformed axis and ``m = n//2 + 1``
the half-spectrum size.  NumPy's ``irfft`` reconstructs
``x_r = (1/n) * sum_k w_k * Re(a_k e^{2πikr/n})`` where ``w_k = 2`` for
interior bins ``0 < k < n/2`` (their conjugates are implied) and
``w_k = 1`` for the edge bins ``k = 0`` and, for even ``n``, ``k = n/2``.
Hence, with ``N`` the product of all transformed axis lengths:

* ``adjoint(irfftn)(g)  = rfftn(g) * w / N``
* ``adjoint(rfftn)(G)   = N * irfftn(G / w)``

where ``w`` broadcasts along the last (half-spectrum) axis.  Complex
cotangents are stored with the convention ``G = dL/dRe + i dL/dIm``, under
which the adjoint of the linear mode-mixing ``Y = X W`` is
``G_X = G_Y conj(W)`` and ``G_W = sum_b G_Y conj(X)``.

Both identities are validated by adjoint dot-tests and finite differences
in ``tests/test_fft_ops.py``.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from contextlib import contextmanager
from typing import Callable

import numpy as np

# scipy's pocketfft preserves single precision (numpy's promotes float32
# input to complex128), which matters for float32 serving throughput.
from scipy import fft as _fft

from .recording import primitive
from .tensor import Tensor

_SCIPY_FFT = _fft  # the obs hooks swap ``_fft`` for a counting proxy

__all__ = [
    "half_spectrum_weights",
    "irfftn_adjoint",
    "rfftn_adjoint",
    "spectral_conv1d",
    "spectral_conv2d",
    "spectral_conv3d",
    "solenoidal_projection_2d",
    "mode_blocks",
    "mode_blocks_2d",
    "mode_blocks_3d",
    "batch_invariant_kernels",
    "batch_invariant_enabled",
    "fft_workers",
    "set_fft_workers",
]


# ---------------------------------------------------------------------------
# scipy.fft worker configuration
# ---------------------------------------------------------------------------

def _parse_fft_workers(raw: str | None) -> int | None:
    """``REPRO_FFT_WORKERS`` value -> worker count (None = scipy default)."""
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_FFT_WORKERS must be an integer, got {raw!r}") from None
    return value if value > 0 else None


# Passed as ``workers=`` to every pocketfft call below — by the eager ops,
# their adjoints, and compiled plans, so the two execution paths always
# run the same FFT configuration.
_FFT_WORKERS: int | None = _parse_fft_workers(os.environ.get("REPRO_FFT_WORKERS"))


def fft_workers() -> int | None:
    """Current scipy.fft worker count (None means scipy's default)."""
    return _FFT_WORKERS


def set_fft_workers(workers: int | None) -> None:
    """Override the worker count (None restores scipy's default).

    Process-wide; compiled plans pick the new value up on their next
    execution because their transforms read this module's state at call
    time.
    """
    global _FFT_WORKERS
    _FFT_WORKERS = None if workers is None else max(1, int(workers))


class _BatchInvariantState(threading.local):
    enabled = False


_BATCH_INVARIANT = _BatchInvariantState()


def batch_invariant_enabled() -> bool:
    """Whether the current thread runs spectral kernels batch-invariantly."""
    return _BATCH_INVARIANT.enabled


@contextmanager
def batch_invariant_kernels(enabled: bool = True):
    """Force bitwise batch-size-invariant spectral convolutions (thread-local).

    The mode-mixing einsum normally runs with ``optimize=True``, which
    dispatches to BLAS whose partial-sum blocking depends on the batch
    extent — sample ``i`` of a batch-``B`` forward can differ from the
    same sample run at batch 1 in the last ulp.  Inside this context the
    einsum uses NumPy's fixed-order C kernel instead, so a forward pass
    is bit-for-bit identical for every batch size.  The serving path
    (:mod:`repro.serve`) relies on this to make micro-batched responses
    indistinguishable from unbatched ones; training keeps the fast path.
    """
    previous = _BATCH_INVARIANT.enabled
    _BATCH_INVARIANT.enabled = bool(enabled)
    try:
        yield
    finally:
        _BATCH_INVARIANT.enabled = previous


def _mode_einsum(subscripts: str, *operands) -> np.ndarray:
    """Forward mode-mixing contraction honouring the batch-invariant flag."""
    return np.einsum(subscripts, *operands, optimize=not _BATCH_INVARIANT.enabled)


def half_spectrum_weights(n: int, dtype=np.float64) -> np.ndarray:
    """Hermitian multiplicity weights for a length-``n`` real FFT.

    Returns an array of length ``n//2 + 1`` holding 2 for bins whose
    conjugate mirror is implied by the half-spectrum storage and 1 for the
    self-conjugate edge bins (DC and, for even ``n``, Nyquist).
    """
    m = n // 2 + 1
    w = np.full(m, 2.0, dtype=dtype)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return w


def _broadcast_last(w: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a 1-D weight vector to broadcast along the last axis."""
    return w.reshape((1,) * (ndim - 1) + (w.size,))


def irfftn_adjoint(g: np.ndarray, axes: tuple[int, ...], s: tuple[int, ...]) -> np.ndarray:
    """Adjoint of ``numpy.fft.irfftn(·, s=s, axes=axes)`` applied to real ``g``.

    ``axes`` must be the trailing axes in increasing order with the real
    (half-spectrum) axis last.  Returns the complex cotangent over the
    half-spectrum.
    """
    n_last = s[-1]
    n_total = float(np.prod(s))
    G = _fft.rfftn(g, s=s, axes=axes, workers=_FFT_WORKERS)
    w = _broadcast_last(half_spectrum_weights(n_last, dtype=g.dtype), G.ndim)
    return G * (w / n_total)


def rfftn_adjoint(G: np.ndarray, axes: tuple[int, ...], s: tuple[int, ...]) -> np.ndarray:
    """Adjoint of ``numpy.fft.rfftn(·, axes=axes)`` applied to complex ``G``.

    ``s`` is the spatial (real-domain) shape along ``axes``.  Returns the
    real cotangent.
    """
    n_last = s[-1]
    n_total = float(np.prod(s))
    w = _broadcast_last(half_spectrum_weights(n_last, dtype=G.real.dtype), G.ndim)
    return n_total * _fft.irfftn(G / w, s=s, axes=axes, workers=_FFT_WORKERS)


def mode_blocks(spatial, modes) -> list[tuple[slice, ...]]:
    """Corner index blocks retained by an N-d spectral convolution.

    Every axis but the last keeps its ``modes`` lowest non-negative and
    negative frequencies; the last (half-spectrum) axis keeps
    ``[0, modes[-1])``.  Blocks enumerate the corners with the first axis
    varying fastest: in 2-D, block 0 holds the non-negative ``k1`` rows
    and block 1 the negative ones.  The 1-D layer has a single block.
    """
    corners = []
    for axis, (n, m) in enumerate(zip(spatial[:-1], modes[:-1]), start=1):
        if 2 * m > n:
            raise ValueError(f"modes{axis}={m} too large for axis length {n} (need 2*modes{axis} <= {n})")
        corners.append((slice(0, m), slice(n - m, n)))
    last = slice(0, modes[-1])
    return [(*reversed(corner), last) for corner in itertools.product(*reversed(corners))]


def mode_blocks_2d(n1: int, modes1: int, modes2: int) -> list[tuple[slice, slice]]:
    """:func:`mode_blocks` of a 2-D layer (2 blocks)."""
    return mode_blocks((n1, None), (modes1, modes2))


def mode_blocks_3d(n1: int, n2: int, modes1: int, modes2: int, modes3: int) -> list[tuple[slice, slice, slice]]:
    """:func:`mode_blocks` of a 3-D layer (4 blocks)."""
    return mode_blocks((n1, n2, None), (modes1, modes2, modes3))


def _complex_dtype(dtype) -> type:
    return np.complex64 if dtype == np.float32 else np.complex128


def _subscripts(ndim: int) -> tuple[str, str, str]:
    """Einsum subscripts: forward mix, weight cotangent, input cotangent."""
    k = "xyz"[:ndim]
    return f"bi{k},io{k}->bo{k}", f"bo{k},bi{k}->io{k}", f"bo{k},io{k}->bi{k}"


def _scipy_transforms(axes, s):
    """``(rfftn, irfftn)`` through the scipy wrappers (resolved per call,
    so the obs FFT-counting hooks see them)."""
    def rfftn(a: np.ndarray) -> np.ndarray:
        return _fft.rfftn(a, axes=axes, workers=_FFT_WORKERS)

    def irfftn(a: np.ndarray) -> np.ndarray:
        return _fft.irfftn(a, s=s, axes=axes, workers=_FFT_WORKERS)

    return rfftn, irfftn


def _mode_contraction(subscripts: str, x_shape, w_shape, ctype) -> Callable:
    """A call-time replayer for :func:`_mode_einsum` at fixed shapes.

    ``np.einsum(..., optimize=True)`` re-runs the contraction-path search
    on every call before dispatching to its batched-matmul lowering.  The
    path is a pure function of (subscripts, shapes), and a plan executes
    one fixed shape forever, so we resolve it once at build time and call
    the lowering directly.  Guarded twice: the replay is probed for
    bitwise equality against eager at build time, and any surprise
    (numpy internals moved, multi-step path) falls back to
    :func:`_mode_einsum` itself.  The batch-invariant flag is still
    consulted per call — under it, eager uses ``optimize=False`` and so
    do we.
    """
    eager = functools.partial(_mode_einsum, subscripts)
    try:
        from numpy._core.einsumfunc import bmm_einsum as _bmm
    except (ImportError, AttributeError):
        return eager
    dummies = (np.zeros(x_shape, ctype), np.zeros(w_shape, ctype))
    try:
        _, contractions = np.einsum_path(
            subscripts, *dummies, optimize=True, einsum_call=True
        )
    except TypeError:
        return eager
    if len(contractions) != 1:
        return eager
    inds, lowered, _ = contractions[0]
    swapped = tuple(inds) == (1, 0)

    rng = np.random.default_rng(12345)
    pX, pW = (
        (rng.standard_normal(s) + 1j * rng.standard_normal(s)).astype(ctype)
        for s in (x_shape, w_shape)
    )
    want = np.einsum(subscripts, pX, pW, optimize=True)
    got = _bmm(lowered, pW, pX) if swapped else _bmm(lowered, pX, pW)
    if not (np.array_equal(want, got) and want.dtype == got.dtype):
        return eager

    def contract(X: np.ndarray, W: np.ndarray) -> np.ndarray:
        if _BATCH_INVARIANT.enabled:
            return np.einsum(subscripts, X, W, optimize=False)
        return _bmm(lowered, W, X) if swapped else _bmm(lowered, X, W)

    return contract


def _fft_transforms(x_shape, y_shape, axes, s, rtype, ctype):
    """Fixed-shape ``(rfftn, irfftn)`` callables for compiled spectral steps.

    The scipy wrappers re-derive shape/axis/normalisation bookkeeping on
    every call — roughly two thirds of the wall time of a serving-scale
    transform.  A plan executes one fixed shape forever, so the
    bookkeeping is resolved once here and the pocketfft C entry points
    are called directly.  Guarded like :func:`_mode_contraction`: both
    directions are probed for bitwise equality against the wrappers at
    build time, any surprise (scipy internals moved, signature change,
    mismatch) falls back to the wrappers, and the wrappers are also used
    whenever ``_fft`` has been swapped out — the obs profiling hooks
    count FFT calls by replacing that attribute, and compiled plans must
    stay visible to them.
    """
    wrap_fwd, wrap_inv = _scipy_transforms(axes, s)
    try:
        from scipy.fft._pocketfft import pypocketfft as pfft
    except ImportError:
        return wrap_fwd, wrap_inv
    pos_axes = tuple(ax % len(x_shape) for ax in axes)
    lastsize = int(s[-1])
    # inorm encodes the wrappers' default norm=None: 0 (unscaled) forward,
    # 2 (1/N) inverse.  Verified bitwise by the probe below.
    rng = np.random.default_rng(20240)
    px = rng.standard_normal(x_shape).astype(rtype)
    pY = (rng.standard_normal(y_shape)
          + 1j * rng.standard_normal(y_shape)).astype(ctype)
    try:
        want_X, got_X = wrap_fwd(px), pfft.r2c(px, pos_axes, True, 0, None, 1)
        want_y, got_y = wrap_inv(pY), pfft.c2r(pY, pos_axes, lastsize, False, 2, None, 1)
    except (TypeError, ValueError):
        return wrap_fwd, wrap_inv
    if not (np.array_equal(want_X, got_X) and want_X.dtype == got_X.dtype
            and np.array_equal(want_y, got_y) and want_y.dtype == got_y.dtype):
        return wrap_fwd, wrap_inv

    def rfftn(a: np.ndarray) -> np.ndarray:
        if _fft is not _SCIPY_FFT:
            return wrap_fwd(a)
        return pfft.r2c(a, pos_axes, True, 0, None, _FFT_WORKERS or 1)

    def irfftn(a: np.ndarray) -> np.ndarray:
        if _fft is not _SCIPY_FFT:
            return wrap_inv(a)
        return pfft.c2r(a, pos_axes, lastsize, False, 2, None, _FFT_WORKERS or 1)

    return rfftn, irfftn


def _spectral_forward(x, wr, wi, modes, transforms=None, contract=None, scratch=None):
    """The N-d Fourier layer ``irfftn(W · truncate(rfftn(x)))``.

    ``wr``/``wi`` carry one weight slab per retained corner block (the
    1-D layer's single block has no block axis).  Eager passes nothing
    and runs the scipy wrappers, :func:`_mode_einsum` and a fresh zeroed
    mode buffer; a compiled plan passes its build-time probed
    ``transforms``/``contract`` and a pinned zeroed ``scratch`` whose
    non-retained modes stay zero for the plan's lifetime (the block
    slices are disjoint and rewritten every call).  Returns ``(y, X, W)``
    — the spectrum and complex weights feed the eager backward.
    """
    ndim = len(modes)
    batch, _, *spatial = x.shape
    axes = tuple(range(-ndim, 0))
    blocks = mode_blocks(spatial, modes)
    W = (wr + 1j * wi).reshape((len(blocks), *wr.shape[-(2 + ndim):]))
    rfftn, irfftn = transforms or _scipy_transforms(axes, tuple(spatial))
    contract = contract or functools.partial(_mode_einsum, _subscripts(ndim)[0])
    if scratch is None:
        half = (*spatial[:-1], spatial[-1] // 2 + 1)
        scratch = np.zeros((batch, W.shape[2], *half), dtype=_complex_dtype(x.dtype))
    X = rfftn(x)
    for b, blk in enumerate(blocks):
        idx = (slice(None), slice(None), *blk)
        scratch[idx] = contract(X[idx], W[b])
    return irfftn(scratch).astype(x.dtype, copy=False), X, W


def _spectral_fwd(x, wr, wi, *modes, transforms=None, contract=None, scratch=None):
    return _spectral_forward(x, wr, wi, modes, transforms, contract, scratch)[0]


def _fft_flops(batch: int, channels: int, spatial) -> int:
    n = int(np.prod(spatial, dtype=np.int64))
    return int(5 * batch * channels * n * max(1.0, math.log2(max(n, 2))))


def _spectral_flops(args, shape) -> int:
    (batch, cin, *spatial), modes = np.shape(args[0]), args[3:]
    mix = 8 * batch * cin * shape[1] * 2 ** (len(modes) - 1) * int(np.prod(modes))
    return 2 * _fft_flops(batch, cin + shape[1], spatial) + mix


def _spectral_plan(b, args, getters, shape, dtype):
    """Build-time setup: probed transforms/contraction and the zeroed scratch."""
    x_shape, modes = np.shape(args[0]), tuple(args[3:])
    batch, cin, *spatial = x_shape
    ctype = _complex_dtype(dtype)
    y_shape = (batch, shape[1], *spatial[:-1], spatial[-1] // 2 + 1)
    axes = tuple(range(-len(modes), 0))
    contract = _mode_contraction(
        _subscripts(len(modes))[0], (batch, cin, *modes), (cin, shape[1], *modes), ctype
    )
    return None, {
        "transforms": b.constant(_fft_transforms(x_shape, y_shape, axes, tuple(spatial), dtype, ctype)),
        "contract": b.constant(contract),
        "scratch": b.scratch(y_shape, ctype, init=lambda buf: buf.fill(0.0)),
    }


_spectral = primitive(_spectral_fwd, n_in=3, kind="spectral",
                      flops=_spectral_flops, plan=_spectral_plan)


def _spectral_conv(x: Tensor, wr: Tensor, wi: Tensor, modes: tuple[int, ...]) -> Tensor:
    """Eager N-d spectral convolution: :func:`_spectral_forward` + adjoint."""
    _, cin, *spatial = x.data.shape
    m_half = spatial[-1] // 2 + 1
    if modes[-1] > m_half:
        raise ValueError(f"modes={modes[-1]} exceeds half-spectrum size {m_half}")
    blocks = mode_blocks(spatial, modes)
    lead = (cin,) if len(modes) == 1 else (len(blocks), cin)
    if wr.data.shape[:len(lead)] != lead:
        raise ValueError(
            f"weight shape {wr.data.shape} incompatible with input {x.data.shape} "
            f"and modes {modes}"
        )
    y, X, W = _spectral_forward(x.data, wr.data, wi.data, modes)
    axes, s = tuple(range(-len(modes), 0)), tuple(spatial)
    _, weight_subs, input_subs = _subscripts(len(modes))

    def backward(g: np.ndarray) -> None:
        GY = irfftn_adjoint(g, axes=axes, s=s)
        if wr.requires_grad or wi.requires_grad:
            gW = np.empty_like(W)
            for b, blk in enumerate(blocks):
                idx = (slice(None), slice(None), *blk)
                gW[b] = np.einsum(weight_subs, GY[idx], np.conj(X[idx]), optimize=True)
            gW = gW.reshape(wr.data.shape)
            if wr.requires_grad:
                wr._accumulate(gW.real)
            if wi.requires_grad:
                wi._accumulate(gW.imag)
        if x.requires_grad:
            GX = np.zeros(X.shape, dtype=X.dtype)
            for b, blk in enumerate(blocks):
                idx = (slice(None), slice(None), *blk)
                GX[idx] = np.einsum(input_subs, GY[idx], np.conj(W[b]), optimize=True)
            x._accumulate(rfftn_adjoint(GX, axes=axes, s=s))

    return Tensor.from_op(y, (x, wr, wi), backward)


@_spectral
def spectral_conv1d(x: Tensor, wr: Tensor, wi: Tensor, modes: int) -> Tensor:
    """Differentiable 1-D Fourier-layer convolution.

    ``x`` has shape ``(batch, in_channels, n)``; weights have shape
    ``(in_channels, out_channels, modes)`` (real and imaginary parts) and
    act on the lowest ``modes`` bins of the half spectrum.
    """
    return _spectral_conv(x, wr, wi, (modes,))


@_spectral
def spectral_conv2d(x: Tensor, wr: Tensor, wi: Tensor, modes1: int, modes2: int) -> Tensor:
    """Differentiable 2-D Fourier-layer convolution.

    Parameters
    ----------
    x:
        Input of shape ``(batch, in_channels, n1, n2)`` (real).
    wr, wi:
        Real and imaginary parts of the complex mode weights, each of
        shape ``(2, in_channels, out_channels, modes1, modes2)`` — one
        slab per retained corner block.
    modes1, modes2:
        Number of retained Fourier modes per spatial axis (``modes2``
        counts bins of the half spectrum).

    Returns
    -------
    Tensor of shape ``(batch, out_channels, n1, n2)``.
    """
    return _spectral_conv(x, wr, wi, (modes1, modes2))


@_spectral
def spectral_conv3d(
    x: Tensor, wr: Tensor, wi: Tensor, modes1: int, modes2: int, modes3: int
) -> Tensor:
    """Differentiable 3-D Fourier-layer convolution.

    Parameters
    ----------
    x:
        Input of shape ``(batch, in_channels, n1, n2, n3)`` (real); for the
        space–time FNO the axes are ``(x, y, t)``.
    wr, wi:
        Real/imaginary weight parts of shape
        ``(4, in_channels, out_channels, modes1, modes2, modes3)``.
    """
    return _spectral_conv(x, wr, wi, (modes1, modes2, modes3))


def _projection_multipliers(n1: int, n2: int, length: float, dtype):
    """``(kx, ky, inv_k2)`` for the 2-D Leray projection, Nyquist-zeroed.

    Zeroing the Nyquist lines keeps the projection exactly idempotent
    through the real-transform round-trip (the anisotropic ``k kᵀ``
    factor is not symmetric under Nyquist sign aliasing).
    """
    k1 = 2.0 * np.pi / length * np.fft.fftfreq(n1, d=1.0 / n1)
    k2_half = 2.0 * np.pi / length * np.fft.rfftfreq(n2, d=1.0 / n2)
    kx = np.broadcast_to(k1[:, None], (n1, k2_half.size)).astype(dtype).copy()
    ky = np.broadcast_to(k2_half[None, :], (n1, k2_half.size)).astype(dtype).copy()
    ksq = kx * kx + ky * ky
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_k2 = np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
    if n1 % 2 == 0:
        kx[n1 // 2, :] = 0.0
        ky[n1 // 2, :] = 0.0
    if n2 % 2 == 0:
        kx[:, -1] = 0.0
        ky[:, -1] = 0.0
    return kx, ky, inv_k2


# Multipliers are deterministic in (shape, length, dtype); cache them so
# neither the eager op nor a compiled plan rebuilds wavenumber grids per
# call.  Races at worst duplicate the computation of an identical value.
_PROJ_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def projection_multipliers(n1: int, n2: int, length: float, dtype):
    """Cached :func:`_projection_multipliers` (arrays are shared; do not mutate)."""
    key = (n1, n2, float(length), np.dtype(dtype).str)
    cached = _PROJ_CACHE.get(key)
    if cached is None:
        cached = _PROJ_CACHE[key] = _projection_multipliers(n1, n2, length, dtype)
    return cached


def solenoidal_apply_2d(
    arr: np.ndarray, kx: np.ndarray, ky: np.ndarray, inv_k2: np.ndarray
) -> np.ndarray:
    """Leray-project ``(B, 2S, n1, n2)`` velocity pairs (plain ndarray path).

    The forward of :func:`solenoidal_projection_2d` (which also applies
    it to the cotangent, the operator being self-adjoint), of its
    compiled plan step, and of the trust layer's projection check.
    """
    B, C, n1, n2 = arr.shape
    axes, s = (-2, -1), (n1, n2)
    spec = _fft.rfftn(arr.reshape(B, C // 2, 2, n1, n2), axes=axes, workers=_FFT_WORKERS)
    k_dot_u = kx * spec[:, :, 0] + ky * spec[:, :, 1]
    spec[:, :, 0] -= kx * k_dot_u * inv_k2
    spec[:, :, 1] -= ky * k_dot_u * inv_k2
    # Zero the Nyquist lines entirely (see _projection_multipliers).
    if n1 % 2 == 0:
        spec[:, :, :, n1 // 2, :] = 0.0
    if n2 % 2 == 0:
        spec[:, :, :, :, -1] = 0.0
    out = _fft.irfftn(spec, s=s, axes=axes, workers=_FFT_WORKERS)
    return out.reshape(B, C, n1, n2).astype(arr.dtype, copy=False)


def _solenoidal_fwd(x, length=2.0 * np.pi):
    return solenoidal_apply_2d(x, *projection_multipliers(*x.shape[2:], length, x.dtype))


@primitive(_solenoidal_fwd, kind="spectral",
           flops=lambda args, shape: 2 * _fft_flops(shape[0], shape[1], shape[2:]))
def solenoidal_projection_2d(x: Tensor, length: float = 2.0 * np.pi) -> Tensor:
    """Differentiable Leray projection of velocity pairs.

    ``x`` has shape ``(B, 2·S, n1, n2)`` with the channel axis holding
    ``S`` snapshots of ``(u_x, u_y)`` pairs; each pair is projected onto
    its divergence-free part (spectrally, Nyquist lines zeroed).

    The projection multiplier ``P(k) = I − k kᵀ/|k|²`` is Hermitian and
    commutes with the half-spectrum weights, so the operator is
    self-adjoint over the real inner product: the backward pass applies
    the very same projection to the cotangent (verified by gradcheck in
    the test suite).
    """
    if x.data.shape[1] % 2 != 0:
        raise ValueError("channel axis must hold (u_x, u_y) pairs")

    def backward(g: np.ndarray) -> None:
        x._accumulate(_solenoidal_fwd(g, length))

    return Tensor.from_op(solenoidal_projection_2d.fwd(x.data, length), (x,), backward)
