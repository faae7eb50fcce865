"""Differentiable primitives for :class:`repro.tensor.Tensor`.

Every function here takes tensors (or array-likes) and returns a Tensor
wired into the tape.  Each is declared with
:func:`~repro.tensor.recording.primitive` next to its one array-level
forward ``fwd(*arrays, out=None)`` and its plan metadata (FLOPs, output
kind): the eager op runs ``fwd`` on ``.data`` and attaches its backward,
and a compiled plan (:mod:`repro.compile`) runs the same ``fwd`` into
arena buffers.  Gradient formulas are standard; all of them are checked
against central finite differences in the test suite.

The module also installs the arithmetic dunders (``+``, ``*``, ``@``,
slicing, …) on :class:`Tensor` at import time.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import special as _sp_special

from .recording import primitive, weak_pair
from .tensor import Tensor, unbroadcast

__all__ = [
    "add", "sub", "mul", "div", "neg", "pow_", "matmul", "einsum", "channel_linear",
    "exp", "log", "sqrt", "tanh", "sigmoid", "relu", "gelu", "abs_",
    "sin", "cos", "clip",
    "reshape", "transpose", "moveaxis", "getitem", "pad", "concatenate",
    "stack", "sum_", "mean", "var", "maximum", "minimum", "where",
    "broadcast_to", "square", "dot", "roll",
]

_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _t(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _t2(a, b) -> tuple[Tensor, Tensor]:
    """Coerce a binary-op operand pair to tensors (see :func:`weak_pair`)."""
    a, b = weak_pair(a, b)
    return _t(a), _t(b)


def _numel(shape) -> int:
    return int(np.prod(shape, dtype=np.int64))


# ---------------------------------------------------------------------------
# arithmetic and elementwise functions
# ---------------------------------------------------------------------------

def _defop(name: str, fwd, *grads, **meta):
    """Declare primitive ``name`` from its forward and per-operand gradients.

    The op's leading ``len(grads)`` arguments are tensor operands (a pair
    goes through weak-scalar adoption); further arguments are statics
    passed on to ``fwd`` and to every gradient.  ``grads[i](g, out,
    *inputs, *statics)`` is operand ``i``'s cotangent before it is summed
    back over broadcast axes.
    """
    n_in = len(grads)

    def op(*args) -> Tensor:
        tensors = _t2(*args[:2]) if n_in == 2 else (_t(args[0]),)
        statics = args[n_in:]
        inputs = [t.data for t in tensors]
        out_data = fwd(*inputs, *statics)

        def backward(g: np.ndarray) -> None:
            for t, grad in zip(tensors, grads):
                if t.requires_grad:
                    t._accumulate(unbroadcast(grad(g, out_data, *inputs, *statics), t.data.shape))

        return Tensor.from_op(out_data, tensors, backward)

    op.__name__ = op.__qualname__ = name
    return primitive(fwd, n_in=n_in, weak=(0, 1) if n_in == 2 else None, **meta)(op)


def _normal_cdf(x, out=None):
    """``0.5 (1 + erf(x / sqrt(2)))``, built in place in ``out``."""
    # In place: at serving batch sizes these arrays fall out of cache,
    # so every avoided temporary is a real memory-traffic saving.
    cdf = np.divide(x, _SQRT_2, out=out)
    _sp_special.erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _matmul_grad_a(g, y, a, b):
    if b.ndim == 1:
        return np.asarray(np.multiply.outer(g, b) if a.ndim > 1 else g * b)
    return g @ np.swapaxes(b, -1, -2)


def _matmul_grad_b(g, y, a, b):
    if a.ndim == 1:
        return np.asarray(np.multiply.outer(a, g) if b.ndim > 1 else a * g)
    return np.swapaxes(a, -1, -2) @ g


add = _defop("add", np.add, lambda g, y, a, b: g, lambda g, y, a, b: g, flops=1)
sub = _defop("sub", np.subtract, lambda g, y, a, b: g, lambda g, y, a, b: -g, flops=1)
mul = _defop("mul", np.multiply, lambda g, y, a, b: g * b, lambda g, y, a, b: g * a, flops=1)
div = _defop("div", np.divide, lambda g, y, a, b: g / b,
             lambda g, y, a, b: -g * a / (b * b), flops=1)
maximum = _defop("maximum", np.maximum, lambda g, y, a, b: g * (a >= b),
                 lambda g, y, a, b: g * ~(a >= b), flops=1)
minimum = _defop("minimum", np.minimum, lambda g, y, a, b: g * (a <= b),
                 lambda g, y, a, b: g * ~(a <= b), flops=1)
matmul = _defop("matmul", np.matmul, _matmul_grad_a, _matmul_grad_b, kind="transient",
                flops=lambda args, shape: 2 * np.shape(args[0])[-1] * _numel(shape))
# Inner product of two flattened tensors.
dot = _defop("dot", lambda a, b: np.asarray(np.vdot(a, b)), lambda g, y, a, b: g * b,
             lambda g, y, a, b: g * a, kind="transient")
neg = _defop("neg", np.negative, lambda g, y, x: -g, flops=1)
# Elementwise power with a *scalar* exponent.
pow_ = _defop("pow_", lambda x, e, out=None: np.power(x, float(e), out=out),
              lambda g, y, x, e: g * float(e) * x ** (float(e) - 1.0), flops=8)
square = _defop("square", lambda x, out=None: np.multiply(x, x, out=out),
                lambda g, y, x: 2.0 * g * x, flops=1)
exp = _defop("exp", np.exp, lambda g, y, x: g * y, flops=8)
log = _defop("log", np.log, lambda g, y, x: g / x, flops=8)
sqrt = _defop("sqrt", np.sqrt, lambda g, y, x: g * 0.5 / y, flops=4)
tanh = _defop("tanh", np.tanh, lambda g, y, x: g * (1.0 - y * y), flops=8)
sigmoid = _defop("sigmoid", _sp_special.expit, lambda g, y, x: g * y * (1.0 - y), flops=8)
relu = _defop("relu", lambda x, out=None: np.maximum(x, 0.0, out=out),
              lambda g, y, x: g * (x > 0), flops=1)
abs_ = _defop("abs_", np.absolute, lambda g, y, x: g * np.sign(x), flops=1)
sin = _defop("sin", np.sin, lambda g, y, x: g * np.cos(x), flops=8)
cos = _defop("cos", np.cos, lambda g, y, x: -g * np.sin(x), flops=8)
clip = _defop("clip", np.clip, lambda g, y, x, lo, hi: g * ((x >= lo) & (x <= hi)), flops=2)


def _gelu(x, out=None, cdf=None):
    """``x * cdf``, with ``cdf = _normal_cdf(x)`` built in ``out`` unless given."""
    if cdf is None:
        cdf = out = _normal_cdf(x, out=out)
    return np.multiply(cdf, x, out=out)


@primitive(_gelu, flops=12)
def gelu(a) -> Tensor:
    """Exact Gaussian error linear unit: ``0.5 x (1 + erf(x/sqrt(2)))``."""
    a = _t(a)
    x = a.data
    cdf = _normal_cdf(x)  # kept for the backward

    def backward(g: np.ndarray) -> None:
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        a._accumulate(g * (cdf + x * pdf))

    return Tensor.from_op(gelu.fwd(x, cdf=cdf), (a,), backward)


def _indices(term: str) -> str:
    """Named indices of a subscript term, with any ``...`` ellipsis removed."""
    return term.replace("...", "")


def _parse_einsum(subscripts: str, n_ops: int) -> tuple[list[str], str]:
    if "->" not in subscripts:
        raise ValueError("einsum requires an explicit output, e.g. 'ij,jk->ik'")
    lhs, out = subscripts.replace(" ", "").split("->")
    terms = lhs.split(",")
    if len(terms) != n_ops:
        raise ValueError(f"einsum got {n_ops} operands for {len(terms)} subscript terms")
    for term in terms:
        named = _indices(term)
        if len(set(named)) != len(named):
            raise ValueError("einsum with repeated indices inside one operand is not differentiable here")
        if "..." in term and "..." not in out:
            raise ValueError("einsum ellipsis must also appear in the output term")
    return terms, out


# Deliberately not compilable (``fwd`` None): its gradient-era parsing and
# optimize=True contraction paths make an equivalence claim untestable in
# general, so models built on it (DeepONet) are served eagerly.
@primitive(None)
def einsum(subscripts: str, *operands) -> Tensor:
    """Differentiable einsum for one or two operands.

    Requires an explicit ``->`` output and no repeated index within a
    single operand (no traces).  The gradient with respect to operand A is
    ``einsum(out_subs [, other_subs] -> A_subs, g [, other])`` — valid as
    long as every index of A appears in the output or the other operand,
    which is checked.
    """
    tensors = [_t(op) for op in operands]
    terms, out_subs = _parse_einsum(subscripts, len(tensors))
    out_data = np.einsum(subscripts, *[t.data for t in tensors])

    if len(tensors) == 1:
        (a,) = tensors
        (ta,) = terms
        if "..." in ta:
            raise NotImplementedError("ellipsis is not supported for single-operand einsum gradients")
        missing = set(ta) - set(out_subs)
        size_map = dict(zip(ta, a.data.shape))

        def backward(g: np.ndarray) -> None:
            if not a.requires_grad:
                return
            kept = [c for c in ta if c in out_subs]
            ga = np.einsum(f"{out_subs}->{''.join(kept)}", g, optimize=True)
            if missing:
                # Indices summed away: broadcast the cotangent back.
                ga = np.broadcast_to(
                    _expand_missing(ga, ta, kept, size_map),
                    [size_map[c] for c in ta],
                )
            a._accumulate(np.ascontiguousarray(ga))

        return Tensor.from_op(out_data, (a,), backward)

    a, b = tensors
    ta, tb = terms
    for term, other in ((ta, tb), (tb, ta)):
        uncovered = set(_indices(term)) - set(_indices(out_subs)) - set(_indices(other))
        if uncovered:
            raise ValueError(f"einsum indices {uncovered} of one operand appear nowhere else; gradient undefined")

    def _operand_grad(g: np.ndarray, other: np.ndarray, other_term: str, self_term: str) -> np.ndarray:
        if "..." in self_term or "..." not in out_subs:
            return np.einsum(f"{out_subs},{other_term}->{self_term}", g, other, optimize=True)
        # The output carries broadcast (ellipsis) axes that this operand
        # does not have: route them to the front, then sum them away.
        res = np.einsum(f"{out_subs},{other_term}->...{self_term}", g, other, optimize=True)
        extra = res.ndim - len(_indices(self_term))
        return res.sum(axis=tuple(range(extra))) if extra else res

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_operand_grad(g, b.data, tb, ta))
        if b.requires_grad:
            b._accumulate(_operand_grad(g, a.data, ta, tb))

    return Tensor.from_op(out_data, (a, b), backward)


def _channel_linear(x, weight, bias=None, out=None):
    batch, cin, *grid = x.shape
    cout = weight.shape[1]
    flat_out = None if out is None else out.reshape(batch, cout, -1)
    flat_out = np.matmul(weight.T, x.reshape(batch, cin, -1), out=flat_out)
    if bias is not None:
        flat_out += bias[:, None]
    return flat_out.reshape(batch, cout, *grid)


@primitive(_channel_linear, n_in=3,
           flops=lambda args, shape: 2 * np.shape(args[0])[1] * _numel(shape))
def channel_linear(x, weight, bias=None) -> Tensor:
    """Pointwise channel mix ``y[b,o,...] = sum_i x[b,i,...] w[i,o] (+ bias[o])``.

    Equivalent to ``einsum("bi...,io->bo...", x, w)`` but routed through
    ``np.matmul`` on a ``(B, C, N)`` view, with the bias folded in place
    instead of a separate broadcast add.  GEMM's cache blocking keeps this
    linear in batch size where ``c_einsum``'s channel-strided walk goes
    memory-bound, and because the batch axis stays a pure stack dimension
    the per-sample bits are identical for every batch size — safe under
    deterministic (batch-invariant) serving.
    """
    x, weight = _t(x), _t(weight)
    bias = _t(bias) if bias is not None else None
    if x.data.ndim < 2 or weight.data.ndim != 2:
        raise ValueError("channel_linear expects x (B, C_in, *grid) and weight (C_in, C_out)")
    if x.data.shape[1] != weight.data.shape[0]:
        raise ValueError(
            f"channel_linear got {x.data.shape[1]} input channels for weight {weight.data.shape}"
        )
    batch = x.data.shape[0]
    out_channels = weight.data.shape[1]
    if bias is not None and bias.data.shape != (out_channels,):
        raise ValueError(f"channel_linear bias must have shape ({out_channels},)")
    flat = x.data.reshape(batch, x.data.shape[1], -1)
    out_data = channel_linear.fwd(x.data, weight.data, None if bias is None else bias.data)

    def backward(g: np.ndarray) -> None:
        g_flat = g.reshape(batch, out_channels, -1)
        if x.requires_grad:
            x._accumulate(np.matmul(weight.data, g_flat).reshape(x.data.shape))
        if weight.requires_grad:
            weight._accumulate(np.einsum("bin,bon->io", flat, g_flat, optimize=True))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g_flat.sum(axis=(0, 2)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor.from_op(out_data, parents, backward)


def _expand_missing(g: np.ndarray, term: str, kept: list[str], size_map: dict[str, int]) -> np.ndarray:
    """Insert singleton axes for indices of ``term`` that were summed away."""
    shape = []
    src_axis = 0
    for c in term:
        if c in kept:
            shape.append(g.shape[src_axis])
            src_axis += 1
        else:
            shape.append(1)
    return g.reshape(shape)


def _where(cond, a, b):
    return np.where(np.asarray(cond, dtype=bool), a, b)


@primitive(_where, n_in=3, kind="transient", flops=1, weak=(1, 2))
def where(cond, a, b) -> Tensor:
    cond = np.asarray(cond.data if isinstance(cond, Tensor) else cond, dtype=bool)
    a, b = _t2(a, b)
    out_data = where.fwd(cond, a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(g * cond, a.data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(g * ~cond, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

@primitive(np.reshape, kind="view")
def reshape(a, shape) -> Tensor:
    a = _t(a)
    in_shape = a.data.shape

    def backward(g: np.ndarray) -> None:
        a._accumulate(g.reshape(in_shape))

    return Tensor.from_op(reshape.fwd(a.data, shape), (a,), backward)


@primitive(np.transpose, kind="view")
def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    a = _t(a)
    out_data = transpose.fwd(a.data, axes)
    inv = np.argsort(tuple(reversed(range(a.data.ndim))) if axes is None else tuple(axes))

    def backward(g: np.ndarray) -> None:
        a._accumulate(g.transpose(inv))

    return Tensor.from_op(out_data, (a,), backward)


@primitive(np.moveaxis, kind="view")
def moveaxis(a, source, destination) -> Tensor:
    a = _t(a)

    def backward(g: np.ndarray) -> None:
        a._accumulate(np.moveaxis(g, destination, source))

    return Tensor.from_op(moveaxis.fwd(a.data, source, destination), (a,), backward)


def _getitem(x, index, out=None):
    if out is None:
        return np.ascontiguousarray(x[index])
    np.copyto(out, x[index])
    return out


@primitive(_getitem)
def getitem(a, index) -> Tensor:
    a = _t(a)

    def backward(g: np.ndarray) -> None:
        ga = np.zeros_like(a.data)
        np.add.at(ga, index, g)
        a._accumulate(ga)

    return Tensor.from_op(getitem.fwd(a.data, index), (a,), backward)


def _pad_layout(pad_width, shape) -> tuple[np.ndarray, tuple[slice, ...]]:
    """Per-axis ``(before, after)`` widths and the unpadded region's index."""
    pad_width = np.asarray(pad_width)
    if pad_width.ndim == 1:
        pad_width = np.broadcast_to(pad_width, (len(shape), 2))
    return pad_width, tuple(
        slice(int(before), int(before) + dim)
        for (before, _after), dim in zip(pad_width, shape)
    )


def _pad(x, pad_width, constant_value=0.0, out=None):
    """Constant pad.  A given ``out`` already holds the margin (a plan
    fills its pinned buffer once, see ``_pad_plan``); only the interior
    is written."""
    pad_width, interior = _pad_layout(pad_width, x.shape)
    if out is None:
        shape = [dim + int(before) + int(after) for dim, (before, after) in zip(x.shape, pad_width)]
        out = np.full(shape, constant_value, dtype=x.dtype)
    np.copyto(out[interior], x)
    return out


def _pad_plan(b, args, getters, shape, dtype):
    # Pinned: the margin is written once when the buffer materialises.
    constant_value = args[2]
    return (lambda buf: buf.fill(constant_value)), {}


@primitive(_pad, plan=_pad_plan)
def pad(a, pad_width, constant_value: float = 0.0) -> Tensor:
    """Constant-pad; ``pad_width`` follows :func:`numpy.pad` conventions."""
    a = _t(a)
    _, interior = _pad_layout(pad_width, a.data.shape)
    out_data = pad.fwd(a.data, pad_width, constant_value)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g[interior])

    return Tensor.from_op(out_data, (a,), backward)


def _concatenate(arrays, axis=0, out=None):
    """``np.concatenate``.  With ``out``, an int entry stands for a region
    of that extent along ``axis`` which ``out`` already holds (a plan
    writes constant pieces once, see ``_concatenate_plan``)."""
    if out is None:
        return np.concatenate(arrays, axis=axis)
    index = [slice(None)] * out.ndim
    start = 0
    for arr in arrays:
        size = arr if isinstance(arr, int) else arr.shape[axis]
        if not isinstance(arr, int):
            index[axis] = slice(start, start + size)
            np.copyto(out[tuple(index)], arr)
        start += size
    return out


def _concatenate_plan(b, args, getters, shape, dtype):
    tensors, axis = args
    pinned = [b.is_constant(t) for t in tensors]
    if not any(pinned):
        return None, {}
    sizes = [np.shape(t)[axis] for t in tensors]
    consts = [t.data if p else n for t, p, n in zip(tensors, pinned, sizes)]
    gets = [n if p else b.getter(t) for t, p, n in zip(tensors, pinned, sizes)]
    getters[0] = lambda values: [g if isinstance(g, int) else g(values) for g in gets]
    return (lambda buf: _concatenate(consts, axis, out=buf)), {}


@primitive(_concatenate, plan=_concatenate_plan)
def concatenate(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [_t(t) for t in tensors]
    out_data = concatenate.fwd([t.data for t in tensors], axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(int(start), int(stop))
                t._accumulate(g[tuple(idx)])

    return Tensor.from_op(out_data, tuple(tensors), backward)


@primitive(np.stack)
def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [_t(t) for t in tensors]
    out_data = stack.fwd([t.data for t in tensors], axis)

    def backward(g: np.ndarray) -> None:
        pieces = np.moveaxis(g, axis, 0)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor.from_op(out_data, tuple(tensors), backward)


@primitive(np.roll, kind="transient")
def roll(a, shift, axis) -> Tensor:
    """Periodic roll along ``axis`` (differentiable; adjoint rolls back)."""
    a = _t(a)

    def backward(g: np.ndarray) -> None:
        a._accumulate(np.roll(g, np.negative(shift), axis=axis))

    return Tensor.from_op(roll.fwd(a.data, shift, axis), (a,), backward)


def _broadcast_to(x, shape):
    return np.broadcast_to(x, shape).copy()


@primitive(_broadcast_to, kind="transient")
def broadcast_to(a, shape) -> Tensor:
    a = _t(a)
    in_shape = a.data.shape

    def backward(g: np.ndarray) -> None:
        a._accumulate(unbroadcast(g, in_shape))

    return Tensor.from_op(broadcast_to.fwd(a.data, shape), (a,), backward)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _restore_reduced(g: np.ndarray, in_shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, in_shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = tuple(ax % len(in_shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, in_shape)


def _sum(x, axis=None, keepdims=False):
    return np.asarray(x.sum(axis=axis, keepdims=keepdims))


@primitive(_sum, kind="transient")
def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _t(a)
    in_shape = a.data.shape

    def backward(g: np.ndarray) -> None:
        a._accumulate(_restore_reduced(g, in_shape, axis, keepdims))

    return Tensor.from_op(sum_.fwd(a.data, axis, keepdims), (a,), backward)


def _mean(x, axis=None, keepdims=False):
    return np.asarray(x.mean(axis=axis, keepdims=keepdims))


@primitive(_mean, kind="transient")
def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _t(a)
    in_shape = a.data.shape
    out_data = mean.fwd(a.data, axis, keepdims)
    count = a.data.size if axis is None else np.prod(
        [in_shape[ax % len(in_shape)] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def backward(g: np.ndarray) -> None:
        a._accumulate(_restore_reduced(g, in_shape, axis, keepdims) / count)

    return Tensor.from_op(out_data, (a,), backward)


def var(a, axis=None, keepdims: bool = False) -> Tensor:
    """Biased (population) variance, differentiable."""
    a = _t(a)
    mu = mean(a, axis=axis, keepdims=True)
    centered = sub(a, mu)
    return mean(square(centered), axis=axis, keepdims=keepdims)


# ---------------------------------------------------------------------------
# dunder installation
# ---------------------------------------------------------------------------

def _varargs(values: tuple):
    """numpy's ``f(a, b, c)`` / ``f((a, b, c))`` calling convention."""
    return values[0] if len(values) == 1 and isinstance(values[0], (tuple, list)) else values


# ``var`` is deliberately not a primitive: it is a composite whose output
# Tensor *is* its internal ``mean``'s output.  The dunders use
# late-binding lambdas, so they dispatch to the traced wrappers.
def _install_operators() -> None:
    Tensor.__add__ = lambda self, other: add(self, other)
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = lambda self, other: sub(self, other)
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = lambda self, other: mul(self, other)
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = lambda self, other: div(self, other)
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = lambda self: neg(self)
    Tensor.__pow__ = lambda self, exponent: pow_(self, exponent)
    Tensor.__matmul__ = lambda self, other: matmul(self, other)
    Tensor.__getitem__ = lambda self, index: getitem(self, index)
    Tensor.reshape = lambda self, *shape: reshape(self, _varargs(shape))
    Tensor.transpose = lambda self, *axes: transpose(self, _varargs(axes) or None)
    Tensor.sum = lambda self, axis=None, keepdims=False: sum_(self, axis, keepdims)
    Tensor.mean = lambda self, axis=None, keepdims=False: mean(self, axis, keepdims)


_install_operators()
