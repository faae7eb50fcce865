"""Op-level trace recording for the inference compiler.

:mod:`repro.compile` builds frozen execution plans by running a model's
``forward`` once under a recording context and capturing the linear
sequence of tensor primitives it executes.  This module owns the hook
and the op registry: every differentiable primitive in
:mod:`repro.tensor.ops` and every fused spectral op in
:mod:`repro.tensor.fft_ops` is declared with :func:`primitive`, which
registers the op's one array-level forward (``fwd``) with the metadata a
compiled plan needs, and wraps the eager function so the wrapped
function *is* the public op — ``from repro.tensor import gelu`` and the
installed ``Tensor`` dunders both resolve to it.  The eager op runs
``fwd`` on ``.data`` and attaches its backward; a compiled plan runs the
same ``fwd`` on arena buffers, so the two paths cannot drift apart.

Design constraints:

* **Zero overhead when idle.**  The wrapper costs one thread-local
  attribute read per op call when no recorder is active; nothing else.
* **Thread-local recording.**  A serve worker tracing a plan must never
  observe ops executed by its siblings, so the active recorder lives in
  ``threading.local`` state.
* **Provenance safety.**  Tensors produced by *unwrapped* paths (e.g.
  ``Tensor.astype``) would silently be captured as constants by the plan
  builder, freezing one call's value into every future execution.  While
  any recorder is active, :meth:`Tensor.from_op` is patched to tag every
  op-produced tensor; the plan builder refuses to treat a tagged tensor
  of unknown provenance as a constant and falls back to eager execution
  instead.
"""

from __future__ import annotations

import functools
import inspect
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .tensor import Tensor

__all__ = [
    "TraceRecord", "Recorder", "Primitive", "PRIMITIVES", "primitive",
    "weak_pair", "recording_active",
]


@dataclass
class TraceRecord:
    """One primitive executed during a recorded forward pass.

    ``args`` is the op's full positional argument list (keywords bound
    to their positions, defaults applied), so a plan reads every
    argument by position.
    """

    op: str
    args: tuple
    kwargs: dict
    out: Tensor


@dataclass(frozen=True)
class Primitive:
    """A traced op: its array-level forward plus its plan metadata.

    * ``fwd(*inputs, *statics, out=None)`` is the op's only forward.  The
      first ``n_in`` positional arguments of the public op are array
      operands (a list for ``concatenate``/``stack``); the rest pass
      through unchanged.  ``fwd is None`` marks an op the compiler
      rejects (``einsum``).
    * ``kind`` is the plan step's output: ``"arena"`` (``fwd`` writes a
      preallocated ``out=`` buffer), ``"view"`` (a view of operand 0),
      or a fresh per-call array (``"transient"``, or ``"spectral"`` for
      the fused Fourier ops).
    * ``flops`` is a per-output-element count, or ``flops(args, shape)``.
    * ``weak`` names the operand pair under weak-scalar adoption
      (:func:`weak_pair`).
    * ``plan(builder, args, getters, shape, dtype) -> (init, kwargs)`` is
      an optional build-time hook for setup that is not arithmetic: an
      ``init`` filling the constant part of a pinned output buffer once,
      and extra per-call keyword getters for ``fwd``.
    """

    name: str
    fwd: Callable[..., np.ndarray] | None
    n_in: int = 1
    kind: str = "arena"
    flops: int | Callable[[list, tuple], int] = 0
    weak: tuple[int, int] | None = None
    plan: Callable | None = None


PRIMITIVES: dict[str, Primitive] = {}


def _weak_scalar(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def weak_pair(a, b):
    """Weak-scalar adoption for a binary op's operands (NEP-50).

    A bare Python scalar paired with a tensor becomes a 0-d array of the
    tensor's dtype: ``x32 * 0.5`` stays float32 instead of the literal
    widening the whole pipeline to float64.  Eager ops and compiled
    plans both resolve operands through this one rule.
    """
    if isinstance(a, Tensor) and _weak_scalar(b):
        return a, np.asarray(b, dtype=a.data.dtype)
    if isinstance(b, Tensor) and _weak_scalar(a):
        return np.asarray(a, dtype=b.data.dtype), b
    return a, b


class _ActiveState(threading.local):
    recorder: "Recorder | None" = None


_ACTIVE = _ActiveState()

# Identities of tensors produced by Tensor.from_op while any recorder was
# live, shared across threads (see module docstring).  Guarded by _LOCK.
_FROM_OP_IDS: set[int] = set()
_LOCK = threading.Lock()
_RECORDER_COUNT = 0
_ORIG_FROM_OP: Callable | None = None


def _tagging_from_op(data, parents, backward):
    out = _ORIG_FROM_OP(data, parents, backward)
    with _LOCK:
        _FROM_OP_IDS.add(id(out))
    return out


def _install_from_op_tag() -> None:
    global _RECORDER_COUNT, _ORIG_FROM_OP
    with _LOCK:
        if _RECORDER_COUNT == 0:
            _ORIG_FROM_OP = Tensor.from_op
            Tensor.from_op = staticmethod(_tagging_from_op)
        _RECORDER_COUNT += 1


def _remove_from_op_tag() -> None:
    global _RECORDER_COUNT
    with _LOCK:
        _RECORDER_COUNT -= 1
        if _RECORDER_COUNT == 0:
            Tensor.from_op = staticmethod(_ORIG_FROM_OP)
            _FROM_OP_IDS.clear()


@dataclass
class Recorder:
    """Collects :class:`TraceRecord` entries for one forward pass.

    Use as a context manager; at most one recorder per thread may be
    active at a time (nested tracing is a programming error).
    """

    records: list[TraceRecord] = field(default_factory=list)

    def __enter__(self) -> "Recorder":
        if _ACTIVE.recorder is not None:
            raise RuntimeError("a trace recorder is already active on this thread")
        _install_from_op_tag()
        _ACTIVE.recorder = self
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.recorder = None
        _remove_from_op_tag()

    def saw_from_op(self, tensor: Tensor) -> bool:
        """Whether ``tensor`` was produced by an op while recording was live.

        The plan builder uses this to distinguish genuine constants
        (weights, cached grids — safe to freeze into a plan) from
        intermediates whose producing op escaped the trace (unsafe).
        """
        with _LOCK:
            return id(tensor) in _FROM_OP_IDS


def recording_active() -> bool:
    """Whether the current thread is inside a :class:`Recorder` context."""
    return _ACTIVE.recorder is not None


def primitive(fwd: Callable[..., np.ndarray] | None, **meta) -> Callable:
    """Declare the decorated eager function a traced primitive.

    Registers :class:`Primitive` ``(fn.__name__, fwd, **meta)`` and wraps
    ``fn`` so an active recorder captures each call.  The wrapper is
    transparent — same signature, same return value — and exposes
    ``fwd`` as ``wrapper.fwd`` for the eager body to call.  Composite
    ops whose output *is* an internal op's output (e.g. ``ops.var``) must
    not be declared, or the same tensor would be recorded twice.
    """

    def declare(fn: Callable[..., Any]) -> Callable[..., Any]:
        name = fn.__name__
        PRIMITIVES[name] = Primitive(name, fwd, **meta)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder = _ACTIVE.recorder
            out = fn(*args, **kwargs)
            if recorder is not None and isinstance(out, Tensor):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                recorder.records.append(TraceRecord(name, bound.args, bound.kwargs, out))
            return out

        wrapper.fwd = fwd  # type: ignore[attr-defined]
        wrapper.__wrapped_op__ = name  # type: ignore[attr-defined]
        return wrapper

    return declare
