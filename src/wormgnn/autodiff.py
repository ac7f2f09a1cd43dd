"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

The op set is exactly what the models in this package need: matmul,
``linear`` (x @ w + b as one graph node, bit-equal to matmul then add, with
an optional fused ReLU), ``edge_block`` (the edge MLP's pair layer, second
layer and head as one node), ``batch_norm`` and ``lstm_cell`` (one node
each, below), elementwise add/sub/mul, scalar scale, ReLU, axis softmax with
an optional temperature divisor, natural log, concatenation and sum/mean
reductions.  A fused ReLU rectifies its node's own output buffer in place,
so an activated layer keeps one array in the graph, not two; its values
and gradients are bit-equal to the composed ops.  A few shape-plumbing
primitives (reshape, swapaxes, index_select, split) exist because batched
model forwards cannot be expressed without them; ``swapaxes`` returns a
view, and ``split`` cuts a tensor into contiguous views along one axis,
whose backward writes every slice's gradient into one buffer.

``batch_norm`` normalizes over the leading axes in one node in both modes
and returns the batch statistics that ``BatchNorm`` keeps running averages
of; besides its output it keeps only the centered input.  ``lstm_cell`` is
the gated recurrent cell as one node with a hand-written backward over the
four gates; its two outputs, the next hidden and cell states, are views of
the node's output.  Both replay the rounding of the composed ops they
replace, so values and gradients are bit-equal to them.  No model calls
``sigmoid``, ``tanh`` or ``power``: they stay as parts of that composed
reference, which the tests check both nodes against, and the benchmark's
tracer (``wormbench/tracing.py``) counts them by name.

Two two-way heads are one node each.  ``softmax_gate`` maps ``(..., 2)``
logits to the second component of their temperature softmax (the inferred
edge weight) through the logit difference, overflow-free; values and
gradients are bit-equal to softmax then split, without softmax's slow
reductions over a length-2 axis.  ``softmax_nll`` is the masked mean
negative log-likelihood of logits, ``logsumexp(z) - z[target]``: it takes
logits, not probabilities, and stays finite when logits saturate.

``edge_block`` scores every ordered pair of node embeddings with its first
layer factored per node (NRI, Kipf et al. 2018): [x_i, x_j] W = x_i W_top +
x_j W_bot.  Its two (…, N * N, h) activations live inside the node, not as
graph tensors, and its backward writes each gradient into the buffer of the
activation it replaces: a dynamic-edge training step peaks near three
pair-sized arrays where the composed ops held nearly six.

The backward of add, sub, mul, matmul, linear, edge_block, batch_norm and
lstm_cell computes no gradient for an operand that does not require one
(inputs, masks, targets).  ReLU, fused or not, is ``max(a, 0)``: +0.0 for
either signed zero, and a NaN input stays NaN, so a NaN pre-activation
reaches the loss instead of being zeroed.

Inside ``with no_grad():`` ops compute the same values but build no graph:
outputs record no parents and no backward closure, so forward-only passes
(validation, evaluation, edge dumps) keep nothing alive.  ``backward``
stores ``.grad`` on leaves only.

A computation graph and its tensors belong to one thread; distinct graphs
(e.g. per cross-validation cell) may run concurrently without shared state.
The ``no_grad`` flag is per thread too.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "BatchNorm",
    "tensor",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "linear",
    "edge_block",
    "relu",
    "softmax",
    "softmax_gate",
    "softmax_nll",
    "log",
    "sigmoid",
    "tanh",
    "power",
    "concat",
    "tensor_sum",
    "tensor_mean",
    "reshape",
    "swapaxes",
    "index_select",
    "split",
    "batch_norm",
    "lstm_cell",
    "no_grad",
    "backward",
    "grad_check",
    "uniform_init",
]


def _as_array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


class Tensor:
    """Dense float64 array participating in a computation graph.

    Leaves are created directly; every op returns a new Tensor holding a
    reference to its parents and a backward closure (none under
    ``no_grad``).  After ``backward()`` on a scalar root, ``grad`` is
    populated on every reachable leaf with ``requires_grad``; intermediate
    tensors keep ``grad`` None.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_consumed")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_array(values)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def sum(self, axis=None, keepdims: bool = False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def tensor(values, requires_grad: bool = False) -> Tensor:
    return Tensor(values, requires_grad=requires_grad)


class _GradMode(threading.local):
    enabled = True  # the class attribute is every new thread's default


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Build no graph in this thread while inside; the previous mode is
    restored on exit, also after an exception."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    # ops mostly hand over float64 ndarrays; full reductions give numpy scalars
    out.data = data if type(data) is np.ndarray and data.dtype == np.float64 else _as_array(data)
    out.grad = None
    out._consumed = False
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape == b.data.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# elementwise and scalar ops
# ---------------------------------------------------------------------------

# The backward closures of the two-operand ops return None for an operand
# that does not require a gradient (an input, mask or target), so no kernel
# runs for it; ``backward`` skips None.

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _make(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)

    def bwd(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _make(a.data * b.data, (a, b), bwd)


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)

    def bwd(g):
        return (g * factor,)

    return _make(a.data * factor, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    # Subgradient at 0 is 0.  max(a, 0) maps -0.0 to +0.0 and keeps NaN;
    # out > 0 exactly where a > 0.
    out = np.maximum(a.data, 0.0)

    def bwd(g):
        return (g * (out > 0),)

    return _make(out, (a,), bwd)


def log(a: Tensor) -> Tensor:
    def bwd(g):
        return (g / a.data,)

    return _make(np.log(a.data), (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _make(out, (a,), bwd)


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)
    out = a.data**exponent

    def bwd(g):
        return (g * exponent * a.data ** (exponent - 1.0),)

    return _make(out, (a,), bwd)


# ---------------------------------------------------------------------------
# matmul, softmax, concat, reductions, shape plumbing
# ---------------------------------------------------------------------------

def _matmul_data(op: str, a: Tensor, b: Tensor) -> np.ndarray:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"{op}: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}")
    try:
        return np.matmul(a.data, b.data)
    except ValueError:
        raise ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


def _matmul_grads(g: np.ndarray, a: Tensor, b: Tensor):
    ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape) if a.requires_grad else None
    gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape) if b.requires_grad else None
    return ga, gb


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = _matmul_data("matmul", a, b)
    return _make(out, (a, b), lambda g: _matmul_grads(g, a, b))


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """``x @ w + b`` as one node; values and gradients are bit-equal to
    ``add(matmul(x, w), b)``, and with ``relu`` to ``relu`` of that.  ``b``
    must broadcast to the product's shape."""
    out = _matmul_data("linear", x, w)
    try:
        out += b.data
    except ValueError:
        raise ValueError(f"linear: bias {b.shape} does not broadcast to {out.shape}") from None
    if relu:
        np.maximum(out, 0.0, out=out)

    def bwd(g):
        if relu:
            g = g * (out > 0)
        return _matmul_grads(g, x, w) + ((_unbroadcast(g, b.shape) if b.requires_grad else None),)

    return _make(out, (x, w, b), bwd)


def edge_block(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
               w_head: Tensor, b_head: Tensor) -> Tensor:
    """The pair MLP and its head for node embeddings ``x`` (…, N, d) as one
    node: logits (…, N * N, k), pair (i, j) at i * N + j.

    The first layer acts on [x_i, x_j] through the (2d, h) weight ``w1``:
    ``a1 = relu(x_i w1[:d] + x_j w1[d:] + b1)``, then ``a2 = relu(a1 w2 +
    b2)`` and ``a2 w_head + b_head``.  Values and gradients are bit-equal to
    ``split``, ``matmul``, ``add``, ``add``, ``relu``, ``linear(relu=True)``
    and ``linear``.  Backward overwrites ``a1`` and ``a2`` with their
    gradients, so a graph through this node is differentiated once.
    """
    if not (x.ndim >= 2 and w1.ndim == w2.ndim == w_head.ndim == 2
            and w1.shape[0] == 2 * x.shape[-1] and w2.shape[0] == w1.shape[1]
            and w_head.shape[0] == w2.shape[1]
            and [b1.shape, b2.shape, b_head.shape] == [w.shape[1:] for w in (w1, w2, w_head)]):
        shapes = ", ".join(str(t.shape) for t in (x, w1, b1, w2, b2, w_head, b_head))
        raise ValueError(f"edge_block: shapes {shapes} do not chain as "
                         "(…, N, d), (2d, h), (h,), (h, h2), (h2,), (h2, k), (k,)")
    lead, n, d = x.shape[:-2], x.shape[-2], x.shape[-1]
    w_src, w_dst = w1.data[:d], w1.data[d:]
    width = w1.shape[1]
    a1 = np.matmul(x.data, w_src).reshape(lead + (n, 1, width)) \
        + np.matmul(x.data, w_dst).reshape(lead + (1, n, width))
    a1 += b1.data
    np.maximum(a1, 0.0, out=a1)
    a1 = a1.reshape(lead + (n * n, width))
    a2 = np.matmul(a1, w2.data)
    a2 += b2.data
    np.maximum(a2, 0.0, out=a2)
    out = np.matmul(a2, w_head.data)
    out += b_head.data
    pair_grad = x.requires_grad or w1.requires_grad or b1.requires_grad

    def bwd(g):
        nonlocal a1, a2
        if a2 is None:
            raise RuntimeError("edge_block: backward already ran; rebuild the graph")
        g_x = g_w1 = g_b1 = g_w2 = g_b2 = g_wh = g_bh = None
        if w_head.requires_grad:
            g_wh = _unbroadcast(np.matmul(np.swapaxes(a2, -1, -2), g), w_head.shape)
        if b_head.requires_grad:
            g_bh = _unbroadcast(g, b_head.shape)
        g2, a2 = a2, None  # each activation's buffer takes its gradient
        if pair_grad or w2.requires_grad or b2.requires_grad:
            mask = g2 > 0
            g2 = np.matmul(g, np.swapaxes(w_head.data, -1, -2), out=g2)
            g2 *= mask
            if w2.requires_grad:
                g_w2 = _unbroadcast(np.matmul(np.swapaxes(a1, -1, -2), g2), w2.shape)
            if b2.requires_grad:
                g_b2 = _unbroadcast(g2, b2.shape)
        g1, a1 = a1, None
        if pair_grad:
            mask = np.greater(g1, 0.0, out=mask if mask.shape == g1.shape else None)
            g1 = np.matmul(g2, np.swapaxes(w2.data, -1, -2), out=g1)
            g2 = None
            g1 *= mask
            mask = None
            g1 = g1.reshape(lead + (n, n, width))
            if b1.requires_grad:
                g_b1 = _unbroadcast(g1, b1.shape)
            g_src = _unbroadcast(g1, lead + (n, 1, width)).reshape(lead + (n, width))
            g_dst = _unbroadcast(g1, lead + (1, n, width)).reshape(lead + (n, width))
            g1 = None
            if x.requires_grad:
                g_x = (np.matmul(g_src, np.swapaxes(w_src, -1, -2))
                       + np.matmul(g_dst, np.swapaxes(w_dst, -1, -2)))
            if w1.requires_grad:
                x_t = np.swapaxes(x.data, -1, -2)
                g_w1 = np.empty(w1.shape)
                g_w1[:d] = _unbroadcast(np.matmul(x_t, g_src), w_src.shape)
                g_w1[d:] = _unbroadcast(np.matmul(x_t, g_dst), w_dst.shape)
        return g_x, g_w1, g_b1, g_w2, g_b2, g_wh, g_bh

    return _make(out, (x, w1, b1, w2, b2, w_head, b_head), bwd)


def softmax(a: Tensor, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Softmax along ``axis``; logits are divided by ``temperature`` first."""
    temperature = float(temperature)
    if temperature <= 0.0:
        raise ValueError(f"softmax: temperature must be > 0, got {temperature}")
    z = a.data / temperature
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner) / temperature,)

    return _make(out, (a,), bwd)


def softmax_gate(a: Tensor, temperature: float = 1.0) -> Tensor:
    """Second component of ``softmax(a, axis=-1, temperature)`` for ``(..., 2)``
    logits, shape ``(..., 1)``, as one node.

    It is the sigmoid of ``d = l1 / T - l0 / T`` in the overflow-free form
    ``1 / (1 + exp(-|d|))`` or ``exp(-|d|) / (1 + exp(-|d|))``; values and
    gradients, ``(-g w (1 - w) / T, g w (1 - w) / T)``, are bit-equal to
    softmax then the second split piece.
    """
    temperature = float(temperature)
    if temperature <= 0.0:
        raise ValueError(f"softmax_gate: temperature must be > 0, got {temperature}")
    if a.ndim < 1 or a.shape[-1] != 2:
        raise ValueError(f"softmax_gate: expected (..., 2) logits, got shape {a.shape}")
    d = a.data[..., 1:] / temperature - a.data[..., :1] / temperature
    ahead = d >= 0
    e = np.exp(-np.abs(d))  # the smaller softmax numerator, over the larger one's 1
    out = np.where(ahead, 1.0, e) / (1.0 + e)

    def bwd(g):
        # softmax's rounding order: the first component (1 - w) is computed
        # directly, not as one minus the second, and `+ 0.0` gives the signed
        # zero of softmax's sum over (0 * (1 - w), g * w)
        inner = g * out + 0.0
        first = np.where(ahead, e, 1.0) / (1.0 + e)
        grad = np.empty(a.shape)
        grad[..., :1] = first * (0.0 - inner) / temperature
        grad[..., 1:] = out * (g - inner) / temperature
        return (grad,)

    return _make(out, (a,), bwd)


def softmax_nll(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean of ``logsumexp(z) - z[target]`` over the rows of ``(..., k)``
    logits (every axis but the last) whose integer target in ``[0, k)`` is not
    negative, as one node; a negative target masks its row.

    Logits are read relative to their row maximum, so saturated logits give a
    finite loss and gradient.  A valid row's gradient is ``softmax(z)`` minus
    its target's one-hot row, over the count of valid rows; a masked row's is
    exactly 0, and with no valid row the loss is exactly 0 too.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(f"softmax_nll: targets {targets.shape} do not match logits {logits.shape}")
    z, k = logits.data, logits.shape[-1]
    valid = targets >= 0
    count = max(int(valid.sum()), 1)
    at = np.where(valid, targets, 0)[..., None]  # each row's target column; 0 when masked
    # one column at a time: numpy reduces a short last axis slowly, row by row
    top = z[..., 0]
    for j in range(1, k):
        top = np.maximum(top, z[..., j])
    shifted = z - top[..., None]
    e = np.exp(shifted)
    total = e[..., 0].copy()
    for j in range(1, k):
        total += e[..., j]
    rows = np.log(total) - np.take_along_axis(shifted, at, axis=-1)[..., 0]
    out = np.where(valid, rows, 0.0).sum() * (1.0 / count)

    def bwd(g):
        grad = e / total[..., None]
        np.put_along_axis(grad, at, np.take_along_axis(grad, at, axis=-1) - 1.0, axis=-1)
        grad *= g * (1.0 / count)
        grad[~valid] = 0.0
        return (grad,)

    return _make(out, (logits,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    shapes = [t.shape for t in tensors]
    ref = list(shapes[0])
    for s in shapes[1:]:
        trimmed_a, trimmed_b = list(s), list(ref)
        trimmed_a[axis] = trimmed_b[axis] = 0
        if trimmed_a != trimmed_b:
            raise ValueError(f"concat: shapes {shapes} differ off axis {axis}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(out, tuple(tensors), bwd)


def _normalize_axes(axis, ndim: int):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axis, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def bwd(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(out, (a,), bwd)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axis, a.ndim)
    if axes is None:
        count = a.data.size
    else:
        count = int(np.prod([a.shape[ax] for ax in axes]))
    out = a.data.mean(axis=axes, keepdims=keepdims)

    def bwd(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape).copy() / count,)

    return _make(out, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ValueError(f"reshape: cannot view {a.shape} as {shape}") from None

    def bwd(g):
        return (g.reshape(a.shape),)

    return _make(out, (a,), bwd)


def swapaxes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    """``a`` with two axes exchanged, as a view."""
    return _make(np.swapaxes(a.data, axis1, axis2), (a,),
                 lambda g: (np.swapaxes(g, axis1, axis2),))


def index_select(a: Tensor, axis: int, indices) -> Tensor:
    indices = np.asarray(indices, dtype=np.intp)
    axis = axis % a.ndim
    out = np.take(a.data, indices, axis=axis)

    def bwd(g):
        acc = np.zeros_like(a.data)
        # np.add.at accumulates for repeated indices
        np.add.at(acc, (slice(None),) * axis + (indices,), g)
        return (acc,)

    return _make(out, (a,), bwd)


def split(a: Tensor, sizes, axis: int = 0) -> tuple[Tensor, ...]:
    """Contiguous pieces of ``a`` along ``axis`` with the given sizes, as views.

    The pieces hang off one private node; their backward writes each slice's
    gradient into that node's single zero buffer (pieces without a gradient
    leave zeros), which then flows to ``a`` as one gradient.
    """
    axis = axis % a.ndim
    sizes = [int(size) for size in sizes]
    if min(sizes, default=0) < 1 or sum(sizes) != a.shape[axis]:
        raise ValueError(f"split: sizes {sizes} do not partition axis {axis} of {a.shape}")
    whole = _make(a.data, (a,), lambda g: (g,))
    buffer: list[np.ndarray] = []

    def piece(index):
        def bwd(g):
            # reverse topological order runs every piece before `whole`, so the
            # buffer is complete when `whole` passes it on; only the first
            # piece to run hands it to the engine
            first = not buffer
            if first:
                buffer.append(np.zeros_like(a.data))
            buffer[0][index] = g
            return (buffer[0] if first else None,)

        return _make(a.data[index], (whole,), bwd)

    bounds = np.cumsum([0] + sizes)
    lead = (slice(None),) * axis
    return tuple(piece(lead + (slice(lo, hi),)) for lo, hi in zip(bounds[:-1], bounds[1:]))


# ---------------------------------------------------------------------------
# parameters, initialization, batch norm, gated recurrent cell
# ---------------------------------------------------------------------------

class Parameter:
    """Named learnable tensor; ``requires_grad`` is always true."""

    __slots__ = ("name", "tensor")

    def __init__(self, name: str, values):
        self.name = name
        self.tensor = Tensor(values, requires_grad=True)

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @data.setter
    def data(self, values) -> None:
        self.tensor.data = _as_array(values)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


def uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    """Weights uniform in +-1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


BATCHNORM_MOMENTUM = 0.1
BATCHNORM_EPS = 1e-5


class BatchNorm:
    """Per-feature standardization with learned scale/shift and running stats.

    ``features`` is a width or a shape: the trailing axes of that shape are
    the features (one statistic per entry), all leading axes form the batch.
    Running statistics follow an exponential moving average with momentum
    BATCHNORM_MOMENTUM.  In inference mode the layer is a fixed affine map.
    """

    def __init__(self, features, name: str):
        self.features = (features,) if isinstance(features, int) else tuple(features)
        self.gamma = Parameter(f"{name}.gamma", np.ones(self.features))
        self.beta = Parameter(f"{name}.beta", np.zeros(self.features))
        self.running_mean = np.zeros(self.features)
        self.running_var = np.ones(self.features)
        self.name = name

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def buffers(self) -> dict[str, np.ndarray]:
        return {f"{self.name}.running_mean": self.running_mean, f"{self.name}.running_var": self.running_var}

    def load_buffers(self, values: dict[str, np.ndarray]) -> None:
        self.running_mean = np.asarray(values[f"{self.name}.running_mean"], dtype=np.float64)
        self.running_var = np.asarray(values[f"{self.name}.running_var"], dtype=np.float64)

    def forward(self, x: Tensor, training: bool) -> Tensor:
        batch_ndim = x.ndim - len(self.features)
        if batch_ndim < 0 or x.shape[batch_ndim:] != self.features:
            raise ValueError(
                f"batchnorm {self.name}: expected {self.features} features, got shape {x.shape}"
            )
        if not training:
            return batch_norm(x, self.gamma.tensor, self.beta.tensor,
                              (self.running_mean, self.running_var))[0]
        out, mean, var = batch_norm(x, self.gamma.tensor, self.beta.tensor)
        m = BATCHNORM_MOMENTUM
        self.running_mean = (1.0 - m) * self.running_mean + m * mean
        self.running_var = (1.0 - m) * self.running_var + m * var
        return out


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, stats=None):
    """Batch normalization of ``x`` (…, *F) over its leading axes, with scale
    ``gamma`` and shift ``beta`` of the feature shape F, as one node.

    With ``stats`` None it normalizes with the batch's own statistics,
    ``(x - mean) * (var + eps) ** -0.5 * gamma + beta``; with ``stats`` a
    (mean, var) pair of running statistics it is the affine map ``(x - mean)
    * (1 / sqrt(var + eps)) * gamma + beta``.  Returns (output, mean, var).
    Values and gradients are bit-equal to the composed ops (two means,
    ``sub``, ``mul``, ``add``, ``power``, ``mul``, then the affine ``mul`` and
    ``add``); the node keeps the centered input and recomputes the rest.
    """
    features = gamma.shape
    batch_ndim = x.ndim - len(features)
    if batch_ndim < 0 or x.shape[batch_ndim:] != features or beta.shape != features:
        raise ValueError(f"batch_norm: x {x.shape} does not end in the feature shape of "
                         f"gamma {gamma.shape} and beta {beta.shape}")
    axes = tuple(range(batch_ndim))
    count = math.prod(x.shape[:batch_ndim])
    if stats is None:
        mean = x.data.mean(axis=axes)
        centered = x.data - mean
        out = centered * centered  # the squares' buffer becomes the output's
        var = out.mean(axis=axes)
        inv = (var + BATCHNORM_EPS) ** -0.5
    else:
        mean, var = stats
        centered = x.data - mean
        out = np.empty(x.shape)
        inv = 1.0 / np.sqrt(var + BATCHNORM_EPS)
    np.multiply(centered, inv, out=out)
    out *= gamma.data
    out += beta.data

    def bwd(g):
        g_x = g_gamma = g_beta = None
        scratch = None  # one x-sized buffer for the terms no caller keeps
        if x.requires_grad:
            scratch = g * gamma.data  # the normalized input's gradient
            g_x = scratch * inv
            if stats is None:  # through the batch statistics, summed in the composed ops' order
                g_inv = _unbroadcast(np.multiply(scratch, centered, out=scratch), features)
                g_var = (g_inv * -0.5) * (var + BATCHNORM_EPS) ** -1.5
                t = np.multiply(g_var / count, centered, out=scratch)
                g_x += t
                g_x += t
                g_x += _unbroadcast(np.negative(g_x, out=scratch), features) / count
        if beta.requires_grad:
            g_beta = _unbroadcast(g, features)
        if gamma.requires_grad:
            normed = np.multiply(centered, inv, out=scratch)
            g_gamma = _unbroadcast(np.multiply(g, normed, out=normed), features)
        return g_x, g_gamma, g_beta

    return _make(out, (x, gamma, beta), bwd), mean, var


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor):
    """One gated-cell update as one node: input, forget and output gates plus
    a tanh candidate.

    ``x`` is (batch, in_dim); ``h`` and ``c`` are (batch, H); ``w_x`` is
    (in_dim, 4H), ``w_h`` (H, 4H), ``b`` (4H,).  Returns (h_next, c_next), two
    views of the node's output.  Values and gradients are bit-equal to the
    composed ops: ``z = x w_x + h w_h + b`` split in four, ``sigmoid`` gates
    i, f, o, a ``tanh`` candidate, ``c_next = f c + i cand`` and ``h_next =
    o tanh(c_next)``.
    """
    hidden = h.shape[-1]
    if w_x.shape[-1] != 4 * hidden or w_h.shape[-1] != 4 * hidden:
        raise ValueError(
            f"lstm_cell: projection widths {w_x.shape} / {w_h.shape} do not match hidden {hidden}"
        )
    z = _matmul_data("lstm_cell", x, w_x) + _matmul_data("lstm_cell", h, w_h)
    z += b.data
    gates = 1.0 / (1.0 + np.exp(-z[..., :3 * hidden]))
    gate_i, gate_f, gate_o = gates[..., :hidden], gates[..., hidden:2 * hidden], gates[..., 2 * hidden:]
    candidate = np.tanh(z[..., 3 * hidden:])
    c_next = gate_f * c.data
    c_next += gate_i * candidate
    both = np.empty((2,) + c_next.shape)  # h_next, c_next
    both[1] = c_next
    tanh_c = np.tanh(c_next)
    np.multiply(gate_o, tanh_c, out=both[0])
    received = [None, None]  # the gradients reaching h_next and c_next in this backward

    def bwd(_):
        g_h, g_c = received
        received[:] = [None, None]
        g_cn = g_c  # c_next's gradient: the caller's plus the one through h_next
        if g_h is not None:
            through_h = (g_h * gate_o) * (1.0 - tanh_c * tanh_c)
            g_cn = through_h if g_c is None else through_h + g_c
        g_z = np.empty(z.shape)
        np.multiply(g_cn, candidate, out=g_z[..., :hidden])
        np.multiply(g_cn, c.data, out=g_z[..., hidden:2 * hidden])
        live = 2 * hidden  # the gates a gradient reached
        if g_h is not None:
            live = 3 * hidden
            np.multiply(g_h, tanh_c, out=g_z[..., 2 * hidden:live])
        else:  # zeros for the output gate, as the composed ops' split leaves them
            g_z[..., 2 * hidden:3 * hidden] = 0.0
        g_gates, live_gates = g_z[..., :live], gates[..., :live]
        g_gates *= live_gates
        g_gates *= 1.0 - live_gates
        g_cand = np.multiply(g_cn, gate_i, out=g_z[..., 3 * hidden:])
        g_cand *= 1.0 - candidate * candidate
        g_x, g_wx = _matmul_grads(g_z, x, w_x)
        g_hid, g_wh = _matmul_grads(g_z, h, w_h)
        g_b = _unbroadcast(g_z, b.shape) if b.requires_grad else None
        g_cell = _unbroadcast(g_cn * gate_f, c.shape) if c.requires_grad else None
        return g_x, g_hid, g_cell, g_wx, g_wh, g_b

    cell = _make(both, (x, h, c, w_x, w_h, b), bwd)

    def output(i):
        def out_bwd(g):
            first = received[0] is None and received[1] is None
            received[i] = g
            return (g if first else None,)  # any array: the cell's backward reads `received`

        return _make(both[i], (cell,), out_bwd)

    return output(0), output(1)


# ---------------------------------------------------------------------------
# backward pass and gradient verification
# ---------------------------------------------------------------------------

def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: Tensor) -> None:
    """Populate gradients of ``root`` w.r.t. every requires_grad leaf.

    The root must be scalar.  Each graph node is visited exactly once, in
    reverse topological order, and an intermediate node's gradient is
    dropped once its backward closure has consumed it; only leaves keep
    ``.grad``.  A second backward on the same root is an error (rebuild the
    graph instead of silently accumulating).
    """
    if root.data.shape != ():
        raise ValueError(f"backward: root must be scalar, got shape {root.data.shape}")
    if root._consumed:
        raise RuntimeError("backward: this graph was already differentiated; rebuild it first")
    root._consumed = True
    if not root.requires_grad:
        return

    order = _topo_order(root)
    grads: dict[int, np.ndarray] = {id(root): np.ones(())}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward_fn is None:  # a leaf
            node.grad = g if node.grad is None else node.grad + g
            continue
        parent_grads = node._backward_fn(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


def grad_check(function, x: Tensor, step: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``function`` must map ``x`` to a scalar Tensor.  The relative error per
    entry is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    if step <= 0:
        raise ValueError(f"grad_check: step must be > 0, got {step}")
    x.requires_grad = True
    x.grad = None
    out = function(x)
    if out.data.shape != ():
        raise ValueError(f"grad_check: function output must be scalar, got shape {out.data.shape}")
    backward(out)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad

    numeric = np.zeros_like(x.data)
    flat = x.data.flat
    num_flat = numeric.flat
    for i in range(x.data.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = function(x).item()
        flat[i] = orig - step
        f_minus = function(x).item()
        flat[i] = orig
        num_flat[i] = (f_plus - f_minus) / (2.0 * step)

    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))
