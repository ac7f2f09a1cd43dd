"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

The op set is what the models in this package need: matmul and ``linear``;
the fused nodes ``edge_matrix``, ``edge_message``, ``batch_norm``,
``neuron_mlp`` (node_mlp's classifier body), ``node_decoder`` (both
per-node predictors' decoder), ``lstm_cell`` and ``softmax_nll``, whose
docstrings give their arithmetic, what they keep and the composed ops they
are bit-equal to; elementwise add/sub/mul, scalar scale, ReLU,
concatenation and sum/mean reductions; and the shape plumbing batched
forwards need (reshape, ``split``).

No model calls ``softmax``, ``log``, ``sigmoid``, ``tanh``, ``power`` or
``index_select``.  Each stays for two reasons: the composed references the
fused nodes are tested against use it (the gate's softmax, the gated cell's
sigmoid and tanh, batch norm's power, the unfactored pair layer's
index_select, the NLL's log), and the benchmark's tracer
(``wormbench/tracing.py``) counts each by name in its ``OPS``.

The backward of add, sub, mul, matmul, linear, node_decoder and lstm_cell
computes no gradient for an operand that does not require one (inputs,
masks, targets).
The backward of edge_matrix, edge_message and neuron_mlp skips only a
constant input; they and batch_norm always differentiate their weights,
which a model always trains.  ReLU, fused or not, is ``max(a, 0)``: +0.0
for either signed zero, and a NaN input stays NaN, so a NaN pre-activation
reaches the loss.

``backward`` walks the graph once in reverse topological order, keeping
each node's pending gradient on the node itself (``Tensor._pending``) until
its backward runs, and stores ``.grad`` on leaves only.  Under
``no_grad()`` ops build no graph, so forward-only passes (validation,
evaluation, edge dumps) keep nothing alive.  A graph, its tensors and the
``no_grad`` flag belong to one thread, so distinct graphs (one per sweep
cell) run concurrently.
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
    "node_decoder",
    "edge_matrix",
    "edge_message",
    "relu",
    "softmax",
    "softmax_nll",
    "log",
    "sigmoid",
    "tanh",
    "power",
    "concat",
    "tensor_sum",
    "tensor_mean",
    "reshape",
    "index_select",
    "split",
    "batch_norm",
    "neuron_mlp",
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

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_consumed", "_pending")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_array(values)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None
        self._consumed = False
        self._pending: np.ndarray | None = None  # the gradient ``backward`` has summed so far

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
    out.grad = out._pending = None
    out._consumed = False
    if _grad_mode.enabled:
        for parent in parents:
            if parent.requires_grad:
                out.requires_grad, out._parents, out._backward_fn = True, parents, backward_fn
                return out
    out.requires_grad, out._parents, out._backward_fn = False, (), None
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


def _broadcast_error(op: str, a: Tensor, b: Tensor) -> ValueError:
    return ValueError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


# ---------------------------------------------------------------------------
# elementwise and scalar ops
# ---------------------------------------------------------------------------

# The backward closures of the two-operand ops return None for an operand
# that does not require a gradient (an input, mask or target), so no kernel
# runs for it; ``backward`` skips None.

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise _broadcast_error("add", a, b) from None

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError:
        raise _broadcast_error("sub", a, b) from None

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise _broadcast_error("mul", a, b) from None

    def bwd(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), bwd)


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
    try:
        return np.matmul(a.data, b.data)
    except ValueError:
        raise ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


def _matmul_grads(g: np.ndarray, a: Tensor, b: Tensor):
    ga = _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape) if a.requires_grad else None
    gb = _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape) if b.requires_grad else None
    return ga, gb


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = _matmul_data("matmul", a, b)
    return _make(out, (a, b), lambda g: _matmul_grads(g, a, b))


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """``x @ w + b`` as one node; values and gradients are bit-equal to
    ``add(matmul(x, w), b)``, and with ``relu`` to ``relu`` of that.  ``b``
    must broadcast to the product's shape.  With ``relu`` the node rectifies
    its own output buffer in place, so an activated layer keeps one array in
    the graph, not two."""
    out = _matmul_data("linear", x, w)
    try:
        out += b.data
    except ValueError:
        raise ValueError(f"linear: bias {b.shape} does not broadcast to {out.shape}") from None
    if relu:
        np.maximum(out, 0.0, out=out)
    return _make(out, (x, w, b), lambda g: _linear_grads(g, x, w, b, out if relu else None))


def _linear_grads(g: np.ndarray, x: Tensor, w: Tensor, b: Tensor, out: np.ndarray | None):
    """``linear``'s backward for its output gradient ``g``: through the ReLU
    mask ``out > 0`` of the rectified output ``out`` (None without ReLU), then
    the product's and the bias's gradients."""
    if out is not None:
        g = g * (out > 0)
    return _matmul_grads(g, x, w) + ((_unbroadcast(g, b.shape) if b.requires_grad else None),)


def node_decoder(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, w3: Tensor, b3: Tensor) -> Tensor:
    """``relu(relu(x w1 + b1) w2 + b2) w3 + b3`` as one node, the decoder of
    both per-node predictors: features ``x`` (…, M, d) with 2-D weights shared
    by the lead axes (the GNN's), or ``x`` (…, N, d) with each neuron's own,
    w1 (N, d, h) and b1 (N, 1, h) to b3 (N, 1, k) (node_mlp's).

    Values and gradients are bit-equal to ``linear(relu=True)`` twice, then
    ``linear`` (per neuron through the neuron-major view (N, M, ·) of each
    input (…, N, ·), and back), and ``x`` gets a gradient only when it
    requires one.  The node keeps only its operands and output: backward
    recomputes the hidden activations, as a checkpoint (Chen et al. 2016),
    and runs ``linear``'s backward (``_linear_grads``) layer by layer,
    dropping each array once used (freed all at once, they go back to the
    system, and the next step faults them in again).
    """
    weights = (w1, b1, w2, b2, w3, b3)
    n, one = (w1.shape[:1], (1,)) if w1.ndim == 3 else ((), ())
    h, h2, k = (w.shape[-1:] for w in (w1, w2, w3))
    if x.ndim < 2 or x.shape[-2:-1] != (n or x.shape[-2:-1]) or [t.shape for t in weights] != [
            n + x.shape[-1:] + h, n + one + h, n + h + h2, n + one + h2, n + h2 + k, n + one + k]:
        raise ValueError(f"node_decoder: shapes {', '.join(str(t.shape) for t in (x,) + weights)} do not chain "
                         "as (…, M, d), (d, h), (h,), (h, h2), (h2,), (h2, k) and (k,), or per neuron N")

    def neuron_major(a):
        """An (…, N, ·) array as the (N, M, ·) view the per-neuron layers read."""
        return a.reshape((math.prod(a.shape[:-2]),) + a.shape[-2:]).swapaxes(0, 1) if n else a

    x_in = neuron_major(x.data)  # backward differentiates at the values x has now

    def hidden():
        """The two hidden activations, as ``linear(relu=True)`` computes them."""
        a1 = _dense_relu(x_in, w1.data, b1.data, np.empty(x_in.shape[:-1] + h))
        return a1, _dense_relu(a1, w2.data, b2.data, np.empty(x_in.shape[:-1] + h2))

    out = np.matmul(hidden()[1], w3.data)
    out += b3.data
    if n:
        out = out.swapaxes(0, 1).reshape(x.shape[:-1] + k)  # a view with one lead axis, else a copy

    def bwd(g):
        g, grads = neuron_major(g), ()
        inputs = [Tensor(x_in, x.requires_grad)] + [Tensor(a, requires_grad=True) for a in hidden()]
        for w, b in ((w3, b3), (w2, b2), (w1, b1)):
            a = inputs.pop()
            g, g_w, g_b = _linear_grads(g, a, w, b, None)
            if inputs:  # the layer below's ReLU mask, as its _linear_grads would apply it
                g *= a.data > 0
            grads = (g_w, g_b) + grads
        return (g if g is None or not n else g.swapaxes(0, 1).reshape(x.shape),) + grads

    return _make(out, (x,) + weights, bwd)


EDGE_CHUNK_ENTRIES = 2**16  # activation entries per chunk of the edge nodes below


class _LeadSum:
    """``_unbroadcast(term, shape)`` of a per-frame term (*lead, *tail) fed
    in chunks of whole slices of its first lead axis, in order, so that the
    whole term is never held; bit-equal to summing it whole.

    numpy sums a first axis one slice at a time, starting from +0.0.  The
    running sum sits in row 0 of the buffer, ahead of a chunk's slices, so
    each chunk's ``sum(axis=0)`` continues that order, and ``_unbroadcast``
    then sums the other axes as it would have.  Two terms are kept whole, as
    they are small: a lone frame (no lead axis), which ``_unbroadcast`` leaves
    unsummed, and one whose slices hold one entry each, which numpy sums
    pairwise, not in order.
    """

    def __init__(self, lead: tuple[int, ...], tail: tuple[int, ...], slices: int):
        per = math.prod(lead[1:])
        self.lead, self.tail = lead, tail
        self.whole = not lead or per * math.prod(tail) == 1
        rows = (lead[0] if lead else 1) if self.whole else slices
        self.rows = np.zeros((rows + 1, per) + tail)
        self.stop = 1  # the end of the latest chunk's rows

    def chunk(self, slices: int) -> np.ndarray:
        """The buffer for the next ``slices`` slices, as (frames, *tail)."""
        start = self.stop if self.whole else 1
        self.stop = start + slices
        return self.rows[start:self.stop].reshape((-1,) + self.tail)

    def fold(self) -> None:
        """Add the latest chunk, once it is written, to the running sum.  One
        or two slices are added in place: the running sum is never -0.0, so
        the sum's leading +0.0 changes nothing, and no temporary is made.  The
        one vectorized sum is faster over more slices."""
        if self.whole:
            return
        if self.stop <= 3:
            for row in self.rows[1:self.stop]:
                self.rows[0] += row
        else:
            self.rows[0] = self.rows[:self.stop].sum(axis=0)

    def total(self, shape: tuple[int, ...], tail: tuple[int, ...] | None = None) -> np.ndarray:
        """The sum, with each slice read as ``tail`` (default: as fed)."""
        summed, lead = (self.rows[1:], self.lead) if self.whole else (self.rows[0], self.lead[1:])
        return _unbroadcast(summed.reshape(lead + (tail or self.tail)), shape)


def _chunked(lead: tuple[int, ...], chunk: int, *terms):
    """A walk over the frames of ``lead`` (flattened) in chunks of about
    ``chunk`` frames of whole first-axis slices, yielding (first, stop,
    buffers), and the list of its sums.  Each term is (tail, summed) and gets
    a C-ordered (frames, *tail) buffer: with ``summed`` a ``_LeadSum``'s, which
    folds it in after the loop body ran (the sum, else None, is in the list);
    else one ``np.empty`` chunk reused by every chunk, which the body writes
    before it reads."""
    per, frames = max(math.prod(lead[1:]), 1), math.prod(lead)
    slices = max(1, min(chunk // per, lead[0] if lead else 1))
    sums = [_LeadSum(lead, tail, slices) if summed else None for tail, summed in terms]
    plain = [None if summed else np.empty((slices * per,) + tail) for tail, summed in terms]

    def walk():
        for first in range(0, frames, slices * per):
            stop = min(first + slices * per, frames)
            yield first, stop, [buffer[:stop - first] if part is None else part.chunk((stop - first) // per)
                                for part, buffer in zip(sums, plain)]
            for part in sums:
                if part is not None:
                    part.fold()

    return walk(), sums


def _dense_relu(a: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``relu(a w + b)`` into ``out``, in ``linear(relu=True)``'s rounding."""
    np.matmul(a, w, out=out)
    out += b
    return np.maximum(out, 0.0, out=out)


def _add_row(out: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``out += b`` for a C-ordered ``out`` whose trailing axes hold ``b`` a
    whole number of times, given ``row``, that many copies of ``b`` end to
    end: numpy's inner loop then runs over ``row``, not over ``b``'s few
    entries, and each entry gets the same one add."""
    rows = out.reshape(-1, row.size)  # a view, as ``out`` is C-ordered
    rows += row
    return out


def _rows_relu(a: np.ndarray, w: np.ndarray, row: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``_dense_relu`` into a C-ordered ``out``, its bias tiled to ``row``
    (``_add_row``)."""
    np.matmul(a, w, out=out)
    return np.maximum(_add_row(out, row), 0.0, out=out)


def edge_matrix(feats: Tensor, enc_w1: Tensor, enc_b1: Tensor, enc_w2: Tensor, enc_b2: Tensor, w1: Tensor,
                b1: Tensor, w2: Tensor, b2: Tensor, w_head: Tensor, b_head: Tensor, temperature: float,
                self_weight: float, fixed: bool = False) -> Tensor:
    """The (…, N, N) edge matrix of node features ``feats`` (…, N, c) as one
    node, or with ``fixed`` one (1, N, N) matrix for every frame.

    The encoder embeds each node, ``x = relu(relu(feats enc_w1 + enc_b1)
    enc_w2 + enc_b2)`` (…, N, d), averaged over the lead axes with ``fixed``.
    The pair MLP scores every ordered pair (i, j) with its first layer acting
    on [x_i, x_j] through the (2d, h) weight ``w1``, factored per node (NRI,
    Kipf et al. 2018): ``a1 = relu(x_i w1[:d] + x_j w1[d:] + b1)``, then
    ``a2 = relu(a1 w2 + b2)`` and two logits ``z = a2 w_head + b_head``.  Edge (i, j) is the second component of their
    temperature softmax, the sigmoid of ``z1 / T - z0 / T`` in an
    overflow-free form (``_gate``); each self edge is ``w * 0.0 +
    self_weight``, so a NaN weight stays NaN.  Values and gradients are
    bit-equal to ``linear(relu=True)`` twice (with ``fixed``, then
    ``tensor_mean`` and ``reshape``), ``split``, ``matmul``, ``add``, ``add``,
    ``relu``, ``linear(relu=True)``, ``linear``, ``softmax``, ``split``, the
    off-diagonal mask and, for ``self_weight`` 1, the identity, up to the
    sign of a NaN.  The forward runs the frames (the lead axes, flattened) in
    chunks of about EDGE_CHUNK_ENTRIES activation entries through reused
    C-ordered buffers, in rows of N nodes' entries (``_edge_node``), writing
    each chunk's edges into the node's one (…, N, N) array; with ``fixed``
    a first such pass sums the embeddings, and the pairs are scored once.
    The node keeps only its operands and the edges, no (…, N, d) embedding
    or (…, N * N, h) activation.  Backward runs in chunks of whole slices of
    the first lead axis: it recomputes the chunk's embeddings, ``a1``, ``a2``
    and edges (gradient checkpointing, Chen et al. 2016), overwrites each
    activation with its gradient, writes the features' per-frame gradients
    into their output and adds each weight's and bias's per-frame terms to a
    ``_LeadSum``.  Every backward through the node, not only the first, gets
    the composed ops' gradients.
    """
    return _edge_node("edge_matrix", feats, False, (enc_w1, enc_b1, enc_w2, enc_b2, w1, b1, w2, b2, w_head,
                                                    b_head), float(temperature), float(self_weight), fixed)


def edge_message(feats: Tensor, enc_w1: Tensor, enc_b1: Tensor, enc_w2: Tensor, enc_b2: Tensor, w1: Tensor,
                 b1: Tensor, w2: Tensor, b2: Tensor, w_head: Tensor, b_head: Tensor, temperature: float,
                 self_weight: float) -> Tensor:
    """``matmul(edge_matrix(feats, …), feats)`` (…, N, c) as one node; values
    and gradients are bit-equal to those two nodes.  Both passes run
    ``edge_matrix``'s frame chunks, and no pass holds a (…, N, N) or
    (…, N, d) array: backward recomputes each chunk's embeddings and edges,
    then forms ``Aᵀ g`` and ``g featsᵀ``, the edges' gradient.  The node lists
    ``feats`` twice among its parents, as the messages and then as the
    encoder's input, so ``backward`` adds their two gradients in the order
    the two composed nodes hand them back."""
    return _edge_node("edge_message", feats, True, (enc_w1, enc_b1, enc_w2, enc_b2, w1, b1, w2, b2, w_head,
                                                    b_head), float(temperature), float(self_weight), False)


def _edge_node(op: str, feats: Tensor, message: bool, weights, temperature: float, self_weight: float,
               fixed: bool) -> Tensor:
    """``edge_message`` for ``message``, else ``edge_matrix``.

    Both passes lay a chunk of F frames out in rows of N nodes' entries, so
    numpy's inner loops run N times longer than a layer's width: the pair
    layer copies each source's ``x_i w1[:d]`` across its row of pairs, then
    adds the destinations' ``x_j w1[d:]`` as one (N h) row over the (F, N,
    N h) pairs, and each bias is tiled once per call into one row of N
    copies, added over (F N, N h), (F N, N h2) and (F N, N 2) rows of the
    pairs and (F, N e) and (F, N d) rows of the encoder.  Each entry gets
    the composed ops' one add, with the same operands in the same order.
    The matmuls stay batched per frame (one 2-D gemm over the chunk let
    OpenBLAS thread it, and ran slower at these sizes), and a bias row
    holds N copies, not N², which would add to the node's peak memory."""
    enc_w1, enc_b1, enc_w2, enc_b2, w1, b1, w2, b2, w_head, b_head = weights
    layers = weights[::2]
    if not (feats.ndim >= 2 and all(w.ndim == 2 for w in layers)
            and [w.shape[0] for w in layers] == [feats.shape[-1], enc_w1.shape[1], 2 * enc_w2.shape[1],
                                                 w1.shape[1], w2.shape[1]]
            and w_head.shape[1] == 2 and [b.shape for b in weights[1::2]] == [w.shape[1:] for w in layers]):
        shapes = ", ".join(str(t.shape) for t in (feats,) + tuple(weights))
        raise ValueError(f"{op}: shapes {shapes} do not chain as (…, N, c), (c, e), (e,), (e, d), (d,), "
                         "(2d, h), (h,), (h, h2), (h2,), (h2, 2), (2,)")
    if temperature <= 0.0:
        raise ValueError(f"{op}: temperature must be > 0, got {temperature}")
    lead, n, c = feats.shape[:-2], feats.shape[-2], feats.shape[-1]
    frames = math.prod(lead)
    # the arrays as they are now: backward differentiates at these values
    enc_w1_data, enc_b1_data, enc_w2_data, enc_b2_data, w1_data, b1_data, w2_data, b2_data, w_head_data, \
        b_head_data = (t.data for t in weights)
    e, d = enc_w1.shape[1], enc_w2.shape[1]
    w_src, w_dst = w1_data[:d], w1_data[d:]
    width, width2 = w1.shape[1], w2.shape[1]
    x_frames = feats.data.reshape(frames, n, c)
    enc_chunk = max(1, EDGE_CHUNK_ENTRIES // (n * max(e, d)))
    # each bias tiled once per node to one row of its layer's (…, N, ·) or
    # (…, N, N, ·) activations: (N e), (N d), (N h), (N h2) and (N 2) entries
    enc_b1_row, enc_b2_row, b1_row, b2_row, head_row = (np.tile(b, n) for b in (
        enc_b1_data, enc_b2_data, b1_data, b2_data, b_head_data))

    def encode(first, stop, e1, e2):
        """Frames [first, stop) embedded into ``e2`` (F, N, d), via ``e1`` (F, N, e)."""
        return _rows_relu(_rows_relu(x_frames[first:stop], enc_w1_data, enc_b1_row, e1), enc_w2_data,
                          enc_b2_row, e2)

    hidden = None  # with ``fixed``, the one frame of mean embeddings (1, N, d)
    if fixed:
        walk, (total, _) = _chunked((frames,), enc_chunk, ((n, d), True), ((n, e), False))
        for first, stop, (e2, e1) in walk:
            encode(first, stop, e1, e2)
        hidden = (total.total((n, d)) / frames).reshape(1, n, d)
    pair_lead, pairs = ((1,), 1) if fixed else (lead, frames)

    def embeddings(first, stop, e1=None, e2=None):
        return hidden[first:stop] if fixed else encode(first, stop, e1, e2)

    def logits(x, a1, a2, out):
        """The logits of embeddings ``x`` (F, N, d) into ``out`` (F, N * N, 2),
        the pair layer ``a1 = relu(x_i w1[:d] + x_j w1[d:] + b1)`` into ``a1``
        (F, N * N, h) and ``a2 = relu(a1 w2 + b2)`` into ``a2`` (F, N * N, h2),
        each C-ordered.  Source i's term is copied across its row of pairs,
        and the destinations' terms, as one (N h) row, are added to each."""
        np.copyto(a1.reshape(-1, n, n, width), np.matmul(x, w_src).reshape(-1, n, 1, width))
        rows = a1.reshape(-1, n, n * width)
        rows += np.matmul(x, w_dst).reshape(-1, 1, n * width)
        np.maximum(_add_row(a1, b1_row), 0.0, out=a1)
        np.matmul(_rows_relu(a1, w2_data, b2_row, a2), w_head_data, out=out)
        return _add_row(out, head_row)

    chunk = max(1, EDGE_CHUNK_ENTRIES // (n * n * max(width, width2)))
    per_frame = () if fixed else (((n, e), False), ((n, d), False))  # the embeddings' buffers
    walk, _ = _chunked((pairs,), chunk, ((n * n, width), False), ((n * n, width2), False),
                       ((n * n, 2), False), *per_frame)
    out = np.empty(x_frames.shape if message else (pairs, n, n))
    for first, stop, (a1, a2, z, *enc) in walk:
        edges = _self_edges(_gate(logits(embeddings(first, stop, *enc), a1, a2, z), temperature)[2], n,
                            self_weight)
        if message:
            np.matmul(edges, x_frames[first:stop], out=out[first:stop])
        else:
            out[first:stop] = edges
    out = out.reshape(pair_lead + out.shape[1:])

    def bwd(g):
        g_msg = np.empty(x_frames.shape) if message and feats.requires_grad else None
        g_enc = np.empty(x_frames.shape) if feats.requires_grad else None
        # the activations' and logits' buffers take their gradients and sum the biases'
        enc_terms = (((n, e), True), ((n, d), True), (enc_w1.shape, True), (enc_w2.shape, True))

        def encoder_grads(first, stop, g_x, e1, e2, fc1_chunk, fc2_chunk):
            """The encoder's backward on frames [first, stop) from the embeddings'
            gradient ``g_x``; ``e1`` and ``e2`` take their layers' gradients."""
            g2 = np.multiply(g_x, e2 > 0, out=e2)
            np.matmul(np.swapaxes(e1, -1, -2), g2, out=fc2_chunk)
            mask = e1 > 0
            g1 = np.matmul(g2, np.swapaxes(enc_w2_data, -1, -2), out=e1)
            g1 *= mask
            np.matmul(np.swapaxes(x_frames[first:stop], -1, -2), g1, out=fc1_chunk)
            if g_enc is not None:
                np.matmul(g1, np.swapaxes(enc_w1_data, -1, -2), out=g_enc[first:stop])

        def pair_grads():
            """The pair pass's backward: the gradients of w1 … b_head, the
            encoder's sums when each frame has its own embeddings, and the
            embeddings' gradient of the last chunk (with ``fixed``, of the one
            frame); the pass's buffers go with the call."""
            g_frames = g.reshape((pairs,) + g.shape[len(pair_lead):])
            walk, (layer1, layer2, head_bias, head, fc2, from_src, from_dst, _, *enc_sums) = _chunked(
                pair_lead, chunk, ((n * n, width), True), ((n * n, width2), True), ((n * n, 2), True),
                (w_head.shape, True), (w2.shape, True), *[(w_src.shape, True)] * 2, ((n, d), False),
                *(() if fixed else enc_terms))
            off_diagonal = 1.0 - np.eye(n)
            for first, stop, (a1, a2, g_z, head_chunk, fc2_chunk, src_chunk, dst_chunk, g_x, *enc) in walk:
                g_chunk = g_frames[first:stop]
                x = embeddings(first, stop, *enc[:2])
                ahead, gate_e, w = _gate(logits(x, a1, a2, g_z), temperature)
                # the edges' gradient, through the mask and the gate
                g_edges = np.matmul(g_chunk, np.swapaxes(x_frames[first:stop], -1, -2)) if message else g_chunk
                _gate_grad((g_edges * off_diagonal).reshape(w.shape), ahead, gate_e, w, temperature, g_z)
                if g_msg is not None:
                    np.matmul(np.swapaxes(_self_edges(w, n, self_weight), -1, -2), g_chunk,
                              out=g_msg[first:stop])
                np.matmul(np.swapaxes(a2, -1, -2), g_z, out=head_chunk)
                mask = a2 > 0
                g2 = np.matmul(g_z, np.swapaxes(w_head_data, -1, -2), out=a2)
                g2 *= mask
                np.matmul(np.swapaxes(a1, -1, -2), g2, out=fc2_chunk)
                mask = np.greater(a1, 0.0, out=mask if mask.shape == a1.shape else None)
                g1 = np.matmul(g2, np.swapaxes(w2_data, -1, -2), out=a1)
                g1 *= mask
                g1 = g1.reshape(-1, n, n, width)
                g_src = _unbroadcast(g1, (stop - first, n, 1, width)).reshape(-1, n, width)
                g_dst = _unbroadcast(g1, (stop - first, 1, n, width)).reshape(-1, n, width)
                np.add(np.matmul(g_src, np.swapaxes(w_src, -1, -2)),
                       np.matmul(g_dst, np.swapaxes(w_dst, -1, -2)), out=g_x)
                x_t = np.swapaxes(x, -1, -2)  # before the encoder's backward overwrites the embeddings
                np.matmul(x_t, g_src, out=src_chunk)
                np.matmul(x_t, g_dst, out=dst_chunk)
                if enc:
                    encoder_grads(first, stop, g_x, *enc)
            return ([np.concatenate((from_src.total(w_src.shape), from_dst.total(w_dst.shape))),
                     layer1.total(b1.shape, (n, n, width)), fc2.total(w2.shape), layer2.total(b2.shape),
                     head.total(w_head.shape), head_bias.total(b_head.shape)], enc_sums, g_x)

        pair, enc_sums, g_x = pair_grads()
        if fixed:  # the mean's gradient, each frame's share, through every frame
            g_x = g_x.reshape(n, d) / frames
            walk, enc_sums = _chunked(lead, enc_chunk, *enc_terms)
            for first, stop, enc in walk:
                encode(first, stop, *enc[:2])
                encoder_grads(first, stop, g_x, *enc)
        enc_layer1, enc_layer2, enc_fc1, enc_fc2 = enc_sums
        grads = (None if g_msg is None else g_msg.reshape(feats.shape),
                 None if g_enc is None else g_enc.reshape(feats.shape), enc_fc1.total(enc_w1.shape),
                 enc_layer1.total(enc_b1.shape), enc_fc2.total(enc_w2.shape), enc_layer2.total(enc_b2.shape),
                 *pair)
        return grads if message else grads[1:]

    return _make(out, (feats,) * (1 + message) + tuple(weights), bwd)


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


def _gate(logits: np.ndarray, temperature: float):
    """The edge weights of ``(..., 2)`` logits, ``(..., 1)``: the second
    component of their temperature softmax, the sigmoid of ``d = l1 / T - l0
    / T`` as ``1 / (1 + exp(-|d|))`` or ``exp(-|d|) / (1 + exp(-|d|))``,
    overflow-free and bit-equal to softmax; with the comparison and the
    smaller softmax numerator they come from."""
    d = logits[..., 1:] / temperature - logits[..., :1] / temperature
    ahead = d >= 0
    e = np.exp(-np.abs(d))  # the smaller softmax numerator, over the larger one's 1
    return ahead, e, np.where(ahead, 1.0, e) / (1.0 + e)


def _self_edges(w: np.ndarray, n: int, self_weight: float) -> np.ndarray:
    """The gate weights ``w`` (…, N * N, 1) of N nodes' ordered pairs as the
    (…, N, N) edge matrix, each self edge set to ``w * 0.0 + self_weight`` in
    place (a NaN weight stays NaN)."""
    diagonal = w.reshape(w.shape[:-2] + (n * n,))[..., :: n + 1]
    diagonal *= 0.0
    diagonal += self_weight
    return w.reshape(w.shape[:-2] + (n, n))


def _gate_grad(g: np.ndarray, ahead: np.ndarray, e: np.ndarray, w: np.ndarray, temperature: float,
               out: np.ndarray) -> np.ndarray:
    """The gradient of the logits behind ``_gate``'s weights ``w`` (…, 1) for
    the weights' gradient ``g``, written into ``out`` (…, 2)."""
    # softmax's rounding order: the first component (1 - w) is computed
    # directly, not as one minus the second, and `+ 0.0` gives the signed
    # zero of softmax's sum over (0 * (1 - w), g * w)
    inner = g * w + 0.0
    first = np.where(ahead, e, 1.0) / (1.0 + e)
    out[..., :1] = first * (0.0 - inner) / temperature
    out[..., 1:] = w * (g - inner) / temperature
    return out


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
    # each row's target column (0 when masked), gathered from the rows as one
    # flat (rows, k) view: numpy builds along-axis index grids in Python
    at = np.where(valid, targets, 0).reshape(-1)
    flat_rows = np.arange(at.size)
    # one column at a time: numpy reduces a short last axis slowly, row by row
    top = z[..., 0]
    for j in range(1, k):
        top = np.maximum(top, z[..., j])
    shifted = z - top[..., None]
    e = np.exp(shifted)
    total = e[..., 0].copy()
    for j in range(1, k):
        total += e[..., j]
    rows = np.log(total) - shifted.reshape(-1, k)[flat_rows, at].reshape(total.shape)
    out = np.where(valid, rows, 0.0).sum() * (1.0 / count)

    def bwd(g):
        grad = (e / total[..., None]).reshape(-1, k)
        grad[flat_rows, at] -= 1.0
        grad *= g * (1.0 / count)
        grad[~valid.reshape(-1)] = 0.0
        return (grad.reshape(logits.shape),)

    return _make(out, (logits,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    ndim = tensors[0].ndim
    if not -ndim <= axis < ndim:
        raise ValueError(f"concat: axis {axis} is out of range for {ndim}-D tensors")
    axis %= ndim
    shapes = [t.shape for t in tensors]
    ref = list(shapes[0])
    for s in shapes[1:]:
        trimmed_a, trimmed_b = list(s), list(ref)
        trimmed_a[axis] = trimmed_b[axis] = 0
        if trimmed_a != trimmed_b:
            raise ValueError(f"concat: shapes {shapes} differ off axis {axis}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * axis
    bounds = np.cumsum([0] + [t.shape[axis] for t in tensors])
    pieces = [lead + (slice(lo, hi),) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def bwd(g):
        return tuple(g[piece] for piece in pieces)

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
        return (np.broadcast_to(g, a.shape) / count,)  # the division makes a new array

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
    buffer: list[np.ndarray] = []

    def pass_on(g):
        buffer.clear()  # a later backward through these pieces starts a fresh buffer
        return (g,)

    whole = _make(a.data, (a,), pass_on)

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
        return self.apply(batch_norm, training, x)

    def apply(self, node, training: bool, *operands) -> Tensor:
        """The output of ``node(*operands, gamma, beta, stats)``, ``batch_norm``
        or ``neuron_mlp``: in training it normalizes with the batch's mean and
        var, which then move the running averages, else with the running ones."""
        out, mean, var = node(*operands, self.gamma.tensor, self.beta.tensor,
                              None if training else (self.running_mean, self.running_var))
        if training:
            m = BATCHNORM_MOMENTUM
            self.running_mean = (1.0 - m) * self.running_mean + m * mean
            self.running_var = (1.0 - m) * self.running_var + m * var
        return out


def _normalize(x: np.ndarray, gamma, beta, axes: tuple, stats, out: np.ndarray, centered: np.ndarray):
    """``batch_norm``'s forward arithmetic over ``axes`` of ``x``, into ``out``
    and, for ``x - mean``, ``centered`` (which may be ``x``): (mean, var, inv)."""
    mean = x.mean(axis=axes) if stats is None else stats[0]
    np.subtract(x, mean, out=centered)
    if stats is None:  # the squares go into the output's buffer
        var = np.multiply(centered, centered, out=out).mean(axis=axes)
        inv = (var + BATCHNORM_EPS) ** -0.5
    else:
        var, inv = stats[1], 1.0 / np.sqrt(stats[1] + BATCHNORM_EPS)
    np.multiply(centered, inv, out=out)
    out *= gamma
    out += beta
    return mean, var, inv


def _normalize_grads(g: np.ndarray, gamma, centered, var, inv, training: bool, total, scratch, g_x):
    """``batch_norm``'s backward arithmetic: the gradients of (x, gamma, beta),
    with x's written into ``g_x`` and the terms no caller keeps into
    ``scratch``; ``total`` sums a term over the batch axes."""
    count = g.size // max(gamma.size, 1)
    np.multiply(g, gamma, out=scratch)  # the normalized input's gradient
    np.multiply(scratch, inv, out=g_x)
    if training:  # through the batch statistics, summed in the composed ops' order
        g_inv = total(np.multiply(scratch, centered, out=scratch))
        g_var = (g_inv * -0.5) * (var + BATCHNORM_EPS) ** -1.5
        t = np.multiply(g_var / count, centered, out=scratch)
        g_x += t
        g_x += t
        g_x += total(np.negative(g_x, out=scratch)) / count
    normed = np.multiply(centered, inv, out=scratch)
    return g_x, total(np.multiply(g, normed, out=normed)), total(g)


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
    out, centered = np.empty_like(x.data), np.empty_like(x.data)
    mean, var, inv = _normalize(x.data, gamma.data, beta.data, tuple(range(batch_ndim)), stats, out, centered)

    def bwd(g):
        return _normalize_grads(g, gamma.data, centered, var, inv, stats is None,
                                lambda term: _unbroadcast(term, features), np.empty_like(g), np.empty_like(g))

    return _make(out, (x, gamma, beta), bwd), mean, var


NEURON_PASS_ROWS = 512  # rows per pass of neuron_mlp, summed over its neurons


def neuron_mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, gamma: Tensor, beta: Tensor,
               stats=None):
    """Each neuron's own ``relu(relu(x_i w1[i] + b1[i]) w2[i] + b2[i])`` for
    node features ``x`` (…, N, d), then a batch norm per neuron and feature
    with ``gamma`` and ``beta`` (N, h2), as one node: node_mlp's classifier
    body.  Returns (output, mean, var): the C-ordered (…, N, h2) output and
    ``batch_norm``'s statistics.

    Values and gradients are bit-equal to ``linear(relu=True)`` twice per
    neuron, as ``node_decoder`` composes it, then ``batch_norm`` with
    features (N, h2); only where two NaNs meet may the one kept differ
    (numpy's vector loops and their scalar tails keep different ones).
    Both passes walk the neurons in groups of k through reused (k, M, h)
    buffers, M the rows of the lead axes, and run the composed ops'
    arithmetic, ``batch_norm``'s included, on arrays laid out as theirs.  A
    pass costs some fifty numpy calls however few its rows, so it takes about
    NEURON_PASS_ROWS rows (one neuron at least); a node that records no graph
    keeps nothing, and over no more rows than that takes every neuron in one
    pass, as the composed ops.  The node keeps only its operands, output and
    statistics, and its backward recomputes each group's activations, as
    ``edge_matrix``.
    """
    weights = (w1, b1, w2, b2, gamma, beta)
    n, d, h = w1.shape if w1.ndim == 3 else (0, 0, 0)
    h2 = w2.shape[-1]
    if not (x.ndim >= 2 and x.shape[-2:] == (n, d) and [t.shape for t in weights]
            == [(n, d, h), (n, 1, h), (n, h, h2), (n, 1, h2), (n, h2), (n, h2)]):
        raise ValueError(f"neuron_mlp: shapes {', '.join(str(t.shape) for t in (x,) + weights)} do not chain "
                         "as (…, N, d), (N, d, h), (N, 1, h), (N, h, h2), (N, 1, h2) and (N, h2) twice")
    lead, rows, axes = x.shape[:-2], math.prod(x.shape[:-2]), tuple(range(x.ndim - 2))
    recording = _grad_mode.enabled and any(t.requires_grad for t in (x,) + weights)
    per = n if rows <= NEURON_PASS_ROWS and not recording else max(1, min(n, NEURON_PASS_ROWS // max(rows, 1)))
    groups = [slice(i, min(i + per, n)) for i in range(0, n, per)]
    # the arrays as they are now (backward differentiates at these values),
    # neuron-major (N, M, ·) views as the composed layers'
    x_n = x.data.reshape(rows, n, d).swapaxes(0, 1)
    w1_data, b1_data, w2_data, b2_data, gamma_data, beta_data = (t.data for t in weights)
    out = np.empty(lead + (n, h2))

    def buffers(count):
        return [np.empty(per * rows * max(h, h2)) for _ in range(count)]

    def taken(buffer, s, width):
        """The (k, M, width) start of a flat buffer for group ``s``."""
        return buffer[:(s.stop - s.start) * rows * width].reshape(-1, rows, width)

    def features(a):
        """A group's (k, M, h2) array as (…, k, h2), as batch_norm sees it."""
        return a.swapaxes(0, 1).reshape(lead + a.shape[::2])

    def layers(s, a1, a2):
        """Group s's two activations, into ``a1`` (k, M, h) and ``a2`` (k, M, h2)."""
        return _dense_relu(_dense_relu(x_n[s], w1_data[s], b1_data[s], a1), w2_data[s], b2_data[s], a2)

    moments = np.empty((3, n, h2))  # each neuron's mean, var and inv
    a1, a2, normed = buffers(3)
    for s in groups:
        act = features(layers(s, taken(a1, s, h), taken(a2, s, h2)))
        moments[:, s] = _normalize(act, gamma_data[s], beta_data[s], axes, stats and (stats[0][s], stats[1][s]),
                                   features(taken(normed, s, h2)), act)
        out[..., s, :] = features(taken(normed, s, h2))
    mean, var, inv = moments

    def bwd(g):
        g_rows = g.reshape(rows, n, h2)
        row_major = abs(g_rows.strides[1]) < abs(g_rows.strides[0])
        g_x = np.empty((rows, n, d)) if x.requires_grad else None
        grads = [np.empty(t.shape) for t in weights]
        g_w1, g_b1, g_w2, g_b2 = grads[:4]
        a1, a2, *g_sized = buffers(4)

        def like_g(buffer, k):
            """A (…, k, h2) buffer laid out as g, as batch_norm's empty_like(g)."""
            return (buffer[:k * rows * h2].reshape(lead + (k, h2)) if row_major
                    else features(buffer[:k * rows * h2].reshape(k, rows, h2)))

        for s in groups:
            k = s.stop - s.start
            act = layers(s, taken(a1, s, h), taken(a2, s, h2))
            mask = act > 0
            # numpy sums one neuron's one-wide slice of a gradient stored row
            # after row pairwise, and the whole gradient row by row: so such
            # a slice is summed beside a copy of itself
            wide = h2 == k == 1 and n > 1 and rows > 1 and row_major

            def total(term):
                return (_unbroadcast(np.concatenate((term, term), -1), (k, 2))[:, :1] if wide
                        else _unbroadcast(term, (k, h2)))
            centered = np.subtract(features(act), mean[s], out=features(act))
            g_norm, grads[4][s], grads[5][s] = _normalize_grads(
                g[..., s, :], gamma_data[s], centered, var[s], inv[s], stats is None, total,
                *(like_g(b, k) for b in g_sized))
            g_s = g_norm.reshape(rows, k, h2).swapaxes(0, 1)  # a view when g is row-major
            g_out = np.multiply(g_s, mask, out=taken(a2, s, h2))
            np.matmul(np.swapaxes(taken(a1, s, h), -1, -2), g_out, out=g_w2[s])
            g_b2[s] = _unbroadcast(g_out, (k, 1, h2))
            mask = taken(a1, s, h) > 0
            g1 = np.matmul(g_out, np.swapaxes(w2_data[s], -1, -2), out=taken(a1, s, h))
            g1 *= mask
            np.matmul(np.swapaxes(x_n[s], -1, -2), g1, out=g_w1[s])
            g_b1[s] = _unbroadcast(g1, (k, 1, h))
            if g_x is not None:
                np.matmul(g1, np.swapaxes(w1_data[s], -1, -2), out=g_x.swapaxes(0, 1)[s])
        return (None if g_x is None else g_x.reshape(x.shape),) + tuple(grads)

    return _make(out, (x,) + weights, bwd), *((mean, var) if stats is None else stats)


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
    reverse topological order.  The gradients reaching a node are summed, in
    the order its consumers run, in its ``_pending`` slot, which is cleared
    once its backward closure has consumed it; however the walk ends, also
    by an exception, every node's slot is cleared.  Only leaves keep
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
    root._pending = np.ones(())
    try:
        for node in reversed(order):
            g = node._pending
            if g is None:
                continue
            node._pending = None
            if node._backward_fn is None:  # a leaf
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward_fn(g)):
                if pg is None or not parent.requires_grad:
                    continue
                prev = parent._pending
                parent._pending = pg if prev is None else prev + pg
    finally:  # a backward that raised leaves no gradient pending
        for node in order:
            node._pending = None


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
