"""Gradient engine tests: every op against central finite differences."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wormgnn import autodiff as ad
from wormgnn.models import TwoLayerMlp

from model_stubs import (along_axis_softmax_nll, composed_edge_matrix, composed_edge_message,
                         composed_neuron_mlp, composed_node_decoder, copied_tensor_mean, dict_backward, swapaxes)

GRAD_TOL = 1e-4
STEP = 1e-6


def scalarize(op):
    """Wrap an op into a scalar function by contracting with fixed weights."""

    def build(x):
        out = op(x)
        weights = ad.Tensor(np.cos(np.arange(out.data.size)).reshape(out.shape))
        return ad.mul(out, weights).sum()

    return build


def test_relu_values():
    out = ad.relu(ad.tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_matches_masked_select_on_signed_zeros_and_propagates_nan():
    a = np.array([-0.0, 0.0, -1.5, 2.0, -0.0, 1e-300, -1e-300] * 5)
    assert ad.relu(ad.tensor(a)).data.tobytes() == np.where(a > 0, a, 0.0).tobytes()
    out = ad.relu(ad.tensor([np.nan, -np.nan, 1.0]))
    assert np.isnan(out.data[:2]).all() and out.data[2] == 1.0


def test_softmax_symmetry():
    out = ad.softmax(ad.tensor([0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [0.5, 0.5])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 5))
    out = ad.matmul(ad.tensor(np.eye(3)), ad.tensor(x))
    assert np.allclose(out.data, x)


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ValueError, match=r"matmul.*\(2, 3\).*\(4, 5\)"):
        ad.matmul(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((4, 5))))


def test_softmax_temperature_rejected():
    with pytest.raises(ValueError, match="temperature"):
        ad.softmax(ad.tensor([1.0, 2.0]), axis=0, temperature=0.0)


def test_backward_square():
    x = ad.tensor(3.0, requires_grad=True)
    y = ad.mul(x, x)
    y.backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_relu_subgradient():
    x = ad.tensor([-1.0, 2.0], requires_grad=True)
    ad.relu(x).sum().backward()
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_backward_requires_scalar_root():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.relu(x))


def test_double_backward_rejected():
    x = ad.tensor(2.0, requires_grad=True)
    y = ad.mul(x, x)
    y.backward()
    with pytest.raises(RuntimeError, match="already"):
        y.backward()


def test_shared_subexpression_sums_contributions():
    # y = s + s with s shared must match the hand-unrolled duplicate graph.
    x = ad.tensor([1.5, -0.5, 2.0], requires_grad=True)
    s = ad.mul(x, x)
    ad.add(s, s).sum().backward()
    shared_grad = x.grad.copy()

    x2 = ad.tensor([1.5, -0.5, 2.0], requires_grad=True)
    ad.add(ad.mul(x2, x2), ad.mul(x2, x2)).sum().backward()
    assert np.allclose(shared_grad, x2.grad)


OPS = {
    "add": lambda x: ad.add(x, ad.Tensor(np.linspace(-1, 1, x.data.size).reshape(x.shape))),
    "sub": lambda x: ad.sub(ad.Tensor(np.linspace(0, 2, x.data.size).reshape(x.shape)), x),
    "mul": lambda x: ad.mul(x, ad.Tensor(np.linspace(0.5, 1.5, x.data.size).reshape(x.shape))),
    "scale": lambda x: ad.scale(x, -2.5),
    "matmul": lambda x: ad.matmul(x, ad.Tensor(np.linspace(-1, 1, 12).reshape(4, 3))),
    # x as each operand of linear in turn: input, weight, and a bias broadcast over a leading axis
    "linear_x": lambda x: ad.linear(x, ad.Tensor(np.linspace(-1, 1, 12).reshape(4, 3)),
                                    ad.Tensor(np.linspace(0.5, -0.5, 3))),
    "linear_w": lambda x: ad.linear(ad.Tensor(np.sin(np.arange(30.0)).reshape(2, 5, 3)), x,
                                    ad.Tensor(np.linspace(0.5, -0.5, 4))),
    "linear_b": lambda x: ad.linear(ad.Tensor(np.sin(np.arange(30.0)).reshape(2, 3, 5)),
                                    ad.Tensor(np.cos(np.arange(20.0)).reshape(5, 4)), x),
    # the fused ReLU: x as each operand, pre-activations of both signs
    "linear_relu_x": lambda x: ad.linear(x, ad.Tensor(np.linspace(-1, 1, 12).reshape(4, 3)),
                                         ad.Tensor(np.linspace(0.5, -0.5, 3)), relu=True),
    "linear_relu_w": lambda x: ad.linear(ad.Tensor(np.sin(np.arange(30.0)).reshape(2, 5, 3)), x,
                                         ad.Tensor(np.linspace(0.5, -0.5, 4)), relu=True),
    "linear_relu_b": lambda x: ad.linear(ad.Tensor(np.sin(np.arange(30.0)).reshape(2, 3, 5)),
                                         ad.Tensor(np.cos(np.arange(20.0)).reshape(5, 4)), x,
                                         relu=True),
    # x as each operand of edge_matrix and edge_message in turn (the features,
    # the encoder's weights, then the edge MLP's and its head's), sized so
    # that it has 12 entries; b_head is the sum of x's rows.  The edge matrix
    # also at a cold temperature, without self edges, and fixed: its
    # embeddings averaged over the frames.  Dimensions and temperatures keep
    # the gates off saturation, where a gradient of 1e-9 is below what a
    # central difference resolves
    "edge_matrix_feats": lambda x: edge_node_with(ad.edge_matrix, "feats", x),
    "edge_matrix_enc_w1": lambda x: edge_node_with(ad.edge_matrix, "enc_w1", x, c=4, d=3),
    "edge_matrix_enc_b1": lambda x: edge_node_with(ad.edge_matrix, "enc_b1", x, e=12),
    "edge_matrix_enc_w2": lambda x: edge_node_with(ad.edge_matrix, "enc_w2", x, d=4),
    "edge_matrix_enc_b2": lambda x: edge_node_with(ad.edge_matrix, "enc_b2", x, d=12),
    "edge_matrix_w1": lambda x: edge_node_with(ad.edge_matrix, "w1", x),
    "edge_matrix_b1": lambda x: edge_node_with(ad.edge_matrix, "b1", x, h=12),
    "edge_matrix_w2": lambda x: edge_node_with(ad.edge_matrix, "w2", x),
    "edge_matrix_b2": lambda x: edge_node_with(ad.edge_matrix, "b2", x, h2=12),
    "edge_matrix_w_head": lambda x: edge_node_with(ad.edge_matrix, "w_head", x, temperature=1.0, h2=6),
    "edge_matrix_b_head": lambda x: edge_node_with(ad.edge_matrix, "b_head", x),
    "edge_message_feats": lambda x: edge_node_with(ad.edge_message, "feats", x),
    "edge_message_enc_w1": lambda x: edge_node_with(ad.edge_message, "enc_w1", x, c=4, d=3),
    "edge_message_enc_b1": lambda x: edge_node_with(ad.edge_message, "enc_b1", x, e=12),
    "edge_message_enc_w2": lambda x: edge_node_with(ad.edge_message, "enc_w2", x, d=4),
    "edge_message_enc_b2": lambda x: edge_node_with(ad.edge_message, "enc_b2", x, d=12),
    "edge_message_w1": lambda x: edge_node_with(ad.edge_message, "w1", x),
    "edge_message_b1": lambda x: edge_node_with(ad.edge_message, "b1", x, h=12),
    "edge_message_w2": lambda x: edge_node_with(ad.edge_message, "w2", x),
    "edge_message_b2": lambda x: edge_node_with(ad.edge_message, "b2", x, h2=12),
    "edge_message_w_head": lambda x: edge_node_with(ad.edge_message, "w_head", x, temperature=1.0, h2=6),
    "edge_message_b_head": lambda x: edge_node_with(ad.edge_message, "b_head", x),
    "edge_matrix_cold": lambda x: edge_node_with(ad.edge_matrix, "feats", x, temperature=0.3),
    "edge_matrix_no_self_edges": lambda x: edge_node_with(ad.edge_matrix, "w1", x, self_weight=0.0),
    "edge_matrix_fixed_feats": lambda x: edge_node_with(fixed_edge_matrix, "feats", x),
    "edge_matrix_fixed_enc_w1": lambda x: edge_node_with(fixed_edge_matrix, "enc_w1", x, c=4, d=3),
    "edge_matrix_fixed_enc_b1": lambda x: edge_node_with(fixed_edge_matrix, "enc_b1", x, e=12),
    "edge_matrix_fixed_enc_w2": lambda x: edge_node_with(fixed_edge_matrix, "enc_w2", x, d=4),
    "edge_matrix_fixed_enc_b2": lambda x: edge_node_with(fixed_edge_matrix, "enc_b2", x, d=12),
    # x as the input (training and inference), as input of a (2, 2) feature
    # shape, and as gamma and beta of 12 features over a fixed batch
    "batch_norm_x": lambda x: ad.batch_norm(x, *bn_affine((4,)))[0],
    "batch_norm_x_eval": lambda x: ad.batch_norm(x, *bn_affine((4,)),
                                                 (np.linspace(-1, 1, 4), np.linspace(0.5, 2, 4)))[0],
    "batch_norm_features": lambda x: ad.batch_norm(ad.reshape(x, (3, 2, 2)), *bn_affine((2, 2)))[0],
    "batch_norm_gamma": lambda x: ad.batch_norm(BN_BATCH, ad.reshape(x, (12,)), bn_affine((12,))[1])[0],
    "batch_norm_beta": lambda x: ad.batch_norm(BN_BATCH, bn_affine((12,))[0], ad.reshape(x, (12,)))[0],
    # x as each operand of neuron_mlp in turn, sized so that it has 12
    # entries; the input with its batch norm in training (over six rows) and
    # in inference.  Training batch norm cancels a bias's shift up to the
    # ReLU's kinks, leaving near-zero gradients no central difference
    # resolves, so the biases run in inference
    "neuron_mlp_x": lambda x: neuron_mlp_with("x", x, lead=(6,), n=2, d=1),
    "neuron_mlp_x_eval": lambda x: neuron_mlp_with("x", x, "eval", lead=(2,), n=3),
    "neuron_mlp_w1": lambda x: neuron_mlp_with("w1", x),
    "neuron_mlp_b1": lambda x: neuron_mlp_with("b1", x, "eval", h=4),
    "neuron_mlp_w2": lambda x: neuron_mlp_with("w2", x, h2=2),
    "neuron_mlp_b2": lambda x: neuron_mlp_with("b2", x, "eval"),
    "neuron_mlp_gamma": lambda x: neuron_mlp_with("gamma", x),
    "neuron_mlp_beta": lambda x: neuron_mlp_with("beta", x),
    # x as each operand of node_decoder in turn, sized so that it has 12 entries
    "node_decoder_x": lambda x: node_decoder_with("x", x),
    "node_decoder_w1": lambda x: node_decoder_with("w1", x, d=3, h=4),
    "node_decoder_b1": lambda x: node_decoder_with("b1", x, h=12),
    "node_decoder_w2": lambda x: node_decoder_with("w2", x, h=3, h2=4),
    "node_decoder_b2": lambda x: node_decoder_with("b2", x, h2=12),
    "node_decoder_w3": lambda x: node_decoder_with("w3", x, h2=3, k=4),
    "node_decoder_b3": lambda x: node_decoder_with("b3", x, k=12),
    # and per neuron: x over two rows of three neurons, and each weight of
    # two neurons
    "node_decoder_per_neuron_x": lambda x: node_decoder_with("x", x, lead=(2,), n=3),
    "node_decoder_per_neuron_w1": lambda x: node_decoder_with("w1", x, n=2, d=2, h=3),
    "node_decoder_per_neuron_b1": lambda x: node_decoder_with("b1", x, n=2, h=6),
    "node_decoder_per_neuron_w2": lambda x: node_decoder_with("w2", x, n=2, h=2, h2=3),
    "node_decoder_per_neuron_b2": lambda x: node_decoder_with("b2", x, n=2, h2=6),
    "node_decoder_per_neuron_w3": lambda x: node_decoder_with("w3", x, n=2, h2=3, k=2),
    "node_decoder_per_neuron_b3": lambda x: node_decoder_with("b3", x, n=2, k=6),
    # x as each operand of lstm_cell in turn; both outputs reach the root
    "lstm_cell_x": lambda x: lstm_cell_with("x", x),
    "lstm_cell_h": lambda x: lstm_cell_with("h", x),
    "lstm_cell_c": lambda x: lstm_cell_with("c", x),
    "lstm_cell_w_x": lambda x: lstm_cell_with("w_x", x),
    "lstm_cell_w_h": lambda x: lstm_cell_with("w_h", x),
    "lstm_cell_b": lambda x: lstm_cell_with("b", x),
    "relu": lambda x: ad.relu(x),
    "softmax": lambda x: ad.softmax(x, axis=-1, temperature=0.7),
    "log": lambda x: ad.log(ad.add(ad.mul(x, x), ad.Tensor(np.full(x.shape, 0.5)))),
    "sigmoid": lambda x: ad.sigmoid(x),
    "tanh": lambda x: ad.tanh(x),
    "power": lambda x: ad.power(ad.add(ad.mul(x, x), ad.Tensor(np.ones(x.shape))), -0.5),
    "concat": lambda x: ad.concat([x, ad.mul(x, x)], axis=1),
    "sum_axis": lambda x: ad.tensor_sum(x, axis=0, keepdims=True),
    "mean_axis": lambda x: ad.tensor_mean(x, axis=1),
    "reshape": lambda x: ad.reshape(x, (4, 3)),
    "index_select": lambda x: ad.index_select(x, 1, [0, 2, 2, 1]),
    "split": lambda x: ad.split(x, [1, 3], axis=1)[1],
    "split_two_outputs": lambda x: split_two_outputs(x),
    # rows 0 and 2 target classes 2 and 0; row 1 is masked
    "softmax_nll": lambda x: ad.softmax_nll(x, np.array([2, -1, 0])),
}


EDGE_OPERANDS = ("feats", "enc_w1", "enc_b1", "enc_w2", "enc_b2", "w1", "b1", "w2", "b2", "w_head", "b_head")


def edge_shapes(lead=(2,), n=3, c=2, e=3, d=2, h=3, h2=4):
    """Operand shapes of edge_matrix and edge_message, in argument order: the
    features (…, N, c), the encoder's layers to e and d, the pair layer from
    [x_i, x_j] to h, the second layer to h2 and the head."""
    return [lead + (n, c), (c, e), (e,), (e, d), (d,), (2 * d, h), (h,), (h, h2), (h2,), (h2, 2), (2,)]


def fixed_edge_matrix(*operands):
    return ad.edge_matrix(*operands, fixed=True)


def composed_fixed_edge_matrix(*operands):
    return composed_edge_matrix(*operands, fixed=True)


def edge_constant(i, shape):
    """Fixed values of both signs for edge operand ``i``: cosines, whose
    default embeddings are about half positive (sines of the same phases
    embed every node at 0, which leaves the pair layer's weight check
    vacuous)."""
    return ad.Tensor(np.cos(np.arange(np.prod(shape)) + i).reshape(shape) + 0.1)


def edge_node_with(op, operand, x, temperature=0.7, self_weight=1.0, **dims):
    """edge_matrix or edge_message, with self edges by default, with ``x``,
    reshaped, as ``operand`` (as ``b_head``, its rows summed) and fixed values
    of both signs for the others."""
    args = [(ad.reshape(x, (-1, 2)).sum(axis=0) if name == "b_head" else ad.reshape(x, shape))
            if name == operand else edge_constant(i, shape)
            for i, (name, shape) in enumerate(zip(EDGE_OPERANDS, edge_shapes(**dims)))]
    return op(*args, temperature, self_weight)


BN_BATCH = ad.Tensor(np.sin(np.arange(60.0)).reshape(5, 12))


def bn_affine(features):
    """Fixed gamma and beta of both signs for a feature shape."""
    size = int(np.prod(features))
    return (ad.Tensor(np.linspace(-1.5, 1.5, size).reshape(features)),
            ad.Tensor(np.cos(np.arange(size)).reshape(features)))


NEURON_MLP_OPERANDS = ("x", "w1", "b1", "w2", "b2", "gamma", "beta")


def neuron_mlp_shapes(lead=(5,), n=3, d=2, h=2, h2=4):
    """Operand shapes of neuron_mlp with batch norm, in argument order."""
    return [lead + (n, d), (n, d, h), (n, 1, h), (n, h, h2), (n, 1, h2), (n, h2), (n, h2)]


def neuron_mlp_with(operand, x, mode="train", **dims):
    """neuron_mlp's output with ``x``, reshaped, as ``operand`` and fixed
    values of both signs for the others; its batch norm in training or in
    inference (``eval``, fixed running statistics)."""
    shapes = neuron_mlp_shapes(**dims)
    args = [ad.reshape(x, shape) if name == operand
            else ad.Tensor(np.sin(np.arange(np.prod(shape)) + i).reshape(shape) + 0.1)
            for i, (name, shape) in enumerate(zip(NEURON_MLP_OPERANDS, shapes))]
    stats = None
    if mode == "eval":
        stats = (np.linspace(-1, 1, np.prod(shapes[-1])).reshape(shapes[-1]),
                 np.linspace(0.5, 2, np.prod(shapes[-1])).reshape(shapes[-1]))
    return ad.neuron_mlp(*args, stats=stats)[0]


NODE_DECODER_OPERANDS = ("x", "w1", "b1", "w2", "b2", "w3", "b3")


def node_decoder_shapes(lead=(2, 3), d=2, h=3, h2=4, k=2, n=None):
    """Operand shapes of node_decoder, in argument order: features ``lead`` +
    (d,) and shared weights, or with ``n`` features ``lead`` + (n, d) and
    each of n neurons' own weights."""
    if n is None:
        return [lead + (d,), (d, h), (h,), (h, h2), (h2,), (h2, k), (k,)]
    return [lead + (n, d), (n, d, h), (n, 1, h), (n, h, h2), (n, 1, h2), (n, h2, k), (n, 1, k)]


def node_decoder_with(operand, x, lead=(2, 3), **dims):
    """``node_decoder`` with ``x`` reshaped as ``operand`` and fixed values of
    both signs, shifted off the ReLU's kinks, for the others."""
    operands = [ad.reshape(x, shape) if name == operand
                else ad.Tensor(np.sin(np.arange(math.prod(shape)) + i).reshape(shape) + 0.1)
                for i, (name, shape) in enumerate(zip(NODE_DECODER_OPERANDS, node_decoder_shapes(lead, **dims)))]
    return ad.node_decoder(*operands)


LSTM_OPERANDS = ("x", "h", "c", "w_x", "w_h", "b")


def lstm_cell_with(operand, x):
    """Both lstm_cell outputs side by side at hidden 3, with the 12 entries of
    ``x`` as ``operand`` (the first row of w_h) and fixed values of both signs
    for the others."""
    batch, in_dim = (4, 4) if operand in ("h", "c") else (3, 1 if operand == "w_x" else 4)
    shapes = {"x": (batch, in_dim), "h": (batch, 3), "c": (batch, 3), "w_x": (in_dim, 12),
              "w_h": (3, 12), "b": (12,)}
    args = {name: ad.Tensor(0.5 * np.sin(np.arange(np.prod(shape)) + i).reshape(shape))
            for i, (name, shape) in enumerate(shapes.items())}
    if operand == "w_h":
        args["w_h"] = ad.concat([ad.reshape(x, (1, 12)), ad.Tensor(args["w_h"].data[1:])], axis=0)
    else:
        args[operand] = ad.reshape(x, shapes[operand])
    return ad.concat(list(ad.lstm_cell(*args.values())), axis=1)


def split_two_outputs(x):
    # two pieces of one split, and x itself, all reach the root
    left, right = ad.split(x, [2, 2], axis=-1)
    return ad.concat([ad.mul(left, right), x], axis=1)


@pytest.mark.parametrize("name", sorted(OPS))
def test_grad_check_each_op(name):
    op = OPS[name]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = ad.tensor(rng.normal(size=(3, 4)) + 0.1)
        err = ad.grad_check(scalarize(op), x, step=STEP)
        assert err < GRAD_TOL, f"{name} seed {seed}: {err}"


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(1, 6), st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1),
)
def test_linear_is_bit_equal_to_matmul_then_add(lead, in_dim, out_dim, bias_per_row, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=tuple(lead) + (in_dim,))
    w0 = rng.normal(size=(in_dim, out_dim))
    b0 = rng.normal(size=(lead[-1], out_dim) if bias_per_row else (out_dim,))
    upstream = ad.Tensor(rng.normal(size=tuple(lead) + (out_dim,)))

    def run(op):
        x, w, b = (ad.tensor(v, requires_grad=True) for v in (x0, w0, b0))
        out = op(x, w, b)
        ad.mul(out, upstream).sum().backward()
        return [t.tobytes() for t in (out.data, x.grad, w.grad, b.grad)]

    fused = run(ad.linear)
    assert fused == run(lambda x, w, b: ad.add(ad.matmul(x, w), b))


def signed_zero_heavy(rng, shape):
    """Normal draws with about half the entries +0.0 or -0.0."""
    values = rng.normal(size=shape)
    zero = rng.random(shape) < 0.5
    values[zero] = np.copysign(0.0, values[zero])
    return values


FUSED_RELU = {
    # operand shapes for (rows, cols, width), the fused op, the composed ops
    "linear": (lambda r, c, w: [(r, c, w), (w, 3), (3,)],
               lambda x, w, b: ad.linear(x, w, b, relu=True),
               lambda x, w, b: ad.relu(ad.linear(x, w, b))),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FUSED_RELU)), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 5), st.booleans(), st.integers(0, 2**32 - 1))
def test_fused_relu_is_bit_equal_to_composed_ops(op, rows, cols, width, with_nan, seed):
    # values and every operand's gradient, byte for byte, with signed zeros
    # in every operand and optionally a NaN in the first one
    shapes, fused, composed = FUSED_RELU[op]
    rng = np.random.default_rng(seed)
    values = [signed_zero_heavy(rng, shape) for shape in shapes(rows, cols, width)]
    if with_nan:
        values[0].flat[rng.integers(values[0].size)] = np.nan
    out = fused(*map(ad.tensor, values)).data
    upstream = ad.Tensor(rng.normal(size=out.shape))

    def run(fn):
        leaves = [ad.tensor(v, requires_grad=True) for v in values]
        result = fn(*leaves)
        ad.mul(result, upstream).sum().backward()
        return [result.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves]

    assert run(fused) == run(composed)
    assert np.isnan(out).any() == with_nan  # a NaN pre-activation is not zeroed
    assert not np.signbit(out[~np.isnan(out)]).any()  # -0.0 comes out as +0.0


# the composed ops round p near 1 at about 1e-16 absolute, which log(p) keeps,
# so the bound is relative plus a small absolute floor
NLL_REL, NLL_ABS = 1e-12, 1e-14


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(2, 7), st.floats(0.1, 20.0),
       st.integers(0, 2**32 - 1))
def test_softmax_nll_matches_softmax_then_log(rows, cols, k, spread, seed):
    # value and gradient against -mean(log(softmax(z))[target]) over the
    # unmasked rows, with about a third of the rows masked
    rng = np.random.default_rng(seed)
    values = rng.uniform(-spread, spread, size=(rows, cols, k))
    targets = rng.integers(-1, k, size=(rows, cols))
    valid = targets >= 0
    onehot = np.zeros(values.shape)
    onehot[np.nonzero(valid) + (targets[valid],)] = 1.0
    count = max(int(valid.sum()), 1)

    def composed(z):
        picked = ad.mul(ad.log(ad.softmax(z, axis=-1)), ad.Tensor(onehot))
        return ad.scale(picked.sum(), -1.0 / count)

    def run(fn):
        logits = ad.tensor(values, requires_grad=True)
        loss = fn(logits)
        loss.backward()
        return loss.item(), logits.grad

    loss, grad = run(lambda z: ad.softmax_nll(z, targets))
    ref_loss, ref_grad = run(composed)
    assert abs(loss - ref_loss) <= NLL_REL * abs(ref_loss) + NLL_ABS
    assert np.abs(grad - ref_grad).max() <= NLL_REL * np.abs(ref_grad).max() + NLL_ABS
    assert np.array_equal(grad[~valid], np.zeros_like(grad[~valid]))  # masked rows: exact zeros


@st.composite
def nll_batches(draw):
    """(logits, targets) of k = 1..7 classes over lead shapes () to (3, 3);
    each target is -1 (masked) to k - 1, and about one batch in four has
    every row masked."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    k = draw(st.integers(1, 7))
    values = draw(hnp.arrays(np.float64, lead + (k,),
                             elements=st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)))
    targets = draw(hnp.arrays(np.intp, lead, elements=st.integers(-1, k - 1)))
    if draw(st.booleans()) and draw(st.booleans()):  # an all-masked batch
        targets = np.full(lead, -1, dtype=np.intp)
    return values, targets


@settings(max_examples=150, deadline=None)
@given(nll_batches())
@example((np.array([3.0, -1.0]), np.array(1)))
@example((np.zeros((2, 3, 4)), np.full((2, 3), -1)))
def test_softmax_nll_is_byte_equal_to_the_along_axis_gathers(batch):
    values, targets = batch
    logits = ad.tensor(values, requires_grad=True)
    loss = ad.softmax_nll(logits, targets)
    loss.backward()
    ref_loss, ref_grad = along_axis_softmax_nll(values, targets)
    assert loss.data.tobytes() == np.asarray(ref_loss).tobytes()
    assert logits.grad.shape == values.shape and logits.grad.tobytes() == ref_grad.tobytes()


def test_softmax_nll_shape_error_names_the_op():
    with pytest.raises(ValueError, match=r"softmax_nll: targets \(2,\) do not match logits \(3, 2\)"):
        ad.softmax_nll(ad.tensor(np.zeros((3, 2))), np.zeros(2, dtype=int))


@pytest.mark.parametrize("fixed", [False, True], ids=["per-frame", "fixed"])
def test_edge_matrix_keeps_its_activations_out_of_the_graph(fixed):
    # the graph holds the edges and the operands, no embedding or pair-sized
    # activation; backward recomputes the activations, so a second root's
    # backward through the same node gets the composed ops' gradients byte
    # for byte.  Fixed edges come from embeddings averaged over 40 x 8 frames
    rng = np.random.default_rng(3)
    lead = (40, 8) if fixed else (2,)
    values = [rng.normal(size=shape) for shape in edge_shapes(lead, n=4, c=3, e=5, d=3, h=5, h2=5)]

    def second_backward(fn):
        operands = [ad.tensor(v, requires_grad=True) for v in values]
        out = fn(*operands, 0.7, 1.0, fixed=fixed)
        first, second = out.sum(), ad.mul(out, out).sum()
        first.backward()
        for t in operands:
            t.zero_grad()
        second.backward()
        return out, operands, [t.grad.tobytes() for t in operands]

    out, operands, grads = second_backward(ad.edge_matrix)
    assert out.shape == ((1,) if fixed else lead) + (4, 4)
    assert {id(node) for node in ad._topo_order(out)} == {id(t) for t in operands + [out]}
    assert grads == second_backward(composed_edge_matrix)[2]


@pytest.mark.parametrize("fixed", [False, True], ids=["per-frame", "fixed"])
@pytest.mark.parametrize("budget", [1, 7 * 15 * 15 * 16, ad.EDGE_CHUNK_ENTRIES],
                         ids=["one-frame", "seven-frames", "default"])
def test_edge_matrix_chunked_forward_is_bit_equal_to_composed_ops(monkeypatch, budget, fixed):
    # 40 frames of 15 nodes at h = 16 run in chunks of 1, 7 (the last one 5)
    # and 18 frames (the last one 4), and fixed edges' encoder in chunks of 1,
    # 40 and 40: edges and every gradient, byte for byte
    monkeypatch.setattr(ad, "EDGE_CHUNK_ENTRIES", budget)
    rng = np.random.default_rng(5)
    values = [signed_zero_heavy(rng, shape) for shape in edge_shapes((5, 8), n=15, c=2, e=16, d=16, h=16, h2=16)]
    upstream = ad.Tensor(rng.normal(size=((1,) if fixed else (5, 8)) + (15, 15)))

    def run(fn):
        operands = [ad.tensor(v, requires_grad=True) for v in values]
        out = fn(*operands, 1.0, 1.0, fixed=fixed)
        ad.mul(out, upstream).sum().backward()
        return [out.data.tobytes()] + [t.grad.tobytes() for t in operands]

    assert run(ad.edge_matrix) == run(composed_edge_matrix)


def nan_in_one(rng, values):
    """``values`` with one entry of one array, drawn at random, set to NaN."""
    chosen = values[rng.integers(len(values))]
    chosen.flat[rng.integers(chosen.size)] = np.nan
    return values


# lead axes of the chunked-backward tests: none, one frame, a batch of frames
# (one-entry slices above 8 are summed pairwise by numpy), windows and three axes
CHUNK_LEADS = st.one_of(st.just(()), st.just((1,)), st.tuples(st.integers(2, 12)),
                        st.tuples(st.integers(1, 4), st.integers(1, 5)), st.just((2, 3, 4)))


def chunk_budget(frames, rows, widths):
    """An EDGE_CHUNK_ENTRIES budget that makes chunks of ``frames`` frames of
    ``rows`` activation rows (N nodes, or N * N pairs) each."""
    return frames * rows * max(widths)


def one_nan(results):
    """``leaf_grads`` results with every NaN read as ``np.nan``: the edge
    gate and the softmax it is checked against may keep NaNs of either sign.
    Results that hold no NaN stay as they are, byte for byte."""
    return [None if r is None else np.where(np.isnan(v := np.frombuffer(r)), np.nan, v).tobytes()
            for r in results]


def leaf_grads(fn, values, needs_grad, upstreams):
    """``fn``'s output and, for each upstream, the leaves' gradients of a new
    root ``sum(out * upstream)`` through the same output: bytes, or None."""
    leaves = [ad.tensor(v, requires_grad=grad) for v, grad in zip(values, needs_grad)]
    out = fn(*leaves)
    results = [out.data.tobytes()]
    for upstream in upstreams:
        for leaf in leaves:
            leaf.zero_grad()
        root = ad.mul(out, ad.Tensor(upstream)).sum()
        if root.requires_grad:
            root.backward()
        results += [None if t.grad is None else t.grad.tobytes() for t in leaves]
    return results


EDGE_DIMS = (st.integers(1, 4), st.integers(1, 3), st.sampled_from([1, 2, 5, 16]), st.sampled_from([1, 2, 5, 16]),
             st.sampled_from([1, 2, 5, 16]), st.sampled_from([1, 2, 5, 16]))  # n, c, e, d, h, h2


# where the pair layer's (F N, N h) and (F N, N 2) rows degenerate: one node,
# one-wide layers, one-frame chunks, a short last chunk and a lone frame, as
# (lead, n, c, e, d, h, h2, frames)
DEGENERATE_EDGE_CASES = [((12,), 1, 1, 1, 1, 1, 1, 7), ((5,), 1, 2, 3, 2, 1, 1, 1), ((11,), 4, 2, 1, 1, 1, 1, 7),
                         ((6,), 3, 1, 2, 2, 1, 2, 1), ((5, 3), 2, 2, 2, 2, 1, 5, 7), ((), 1, 1, 1, 1, 1, 1, 1)]


def degenerate_edge_examples(**args):
    """Each DEGENERATE_EDGE_CASES shape as a hypothesis example, with ``args``."""
    def add(test):
        for lead, n, c, e, d, h, h2, frames in DEGENERATE_EDGE_CASES:
            test = example(lead=lead, n=n, c=c, e=e, d=d, h=h, h2=h2, frames=frames, self_weight=1.0,
                           temperature=0.7, needs_grad=[True] * 11, with_nan=False, roots=2, seed=3, **args)(test)
        return test
    return add


@settings(max_examples=180, deadline=None)
@given(CHUNK_LEADS, *EDGE_DIMS, st.booleans(), st.sampled_from([1, 7, 18]), st.sampled_from([1.0, 0.0]),
       st.sampled_from([1.0, 0.7, 0.05]), st.sampled_from([1.0, 50.0]),
       st.lists(st.booleans(), min_size=11, max_size=11), st.booleans(), st.integers(1, 2),
       st.integers(0, 2**32 - 1))
@degenerate_edge_examples(fixed=True, head_scale=1.0)
@degenerate_edge_examples(fixed=False, head_scale=1.0)
def test_edge_matrix_is_bit_equal_to_composed_ops(lead, n, c, e, d, h, h2, fixed, frames, self_weight, temperature,
                                                  head_scale, needs_grad, with_nan, roots, seed):
    # the edges and every operand's gradient, byte for byte, in chunks of 1,
    # 7 and 18 frames (of the pairs, or of a fixed matrix's encoder), with
    # signed zeros in every operand, optionally a NaN in one, self edges on
    # and off, the edge head scaled x50 so that a cold temperature saturates
    # edges to exactly 0 or 1, and a second root through the same node; an
    # operand that requires no gradient gets none, and a NaN stays NaN on the
    # diagonal too (its sign may differ from the softmax's)
    rng = np.random.default_rng(seed)
    values = [signed_zero_heavy(rng, shape) for shape in edge_shapes(lead, n, c, e, d, h, h2)]
    values[-2:] = [head * head_scale for head in values[-2:]]
    if with_nan:
        nan_in_one(rng, values)
    out_lead = (1,) if fixed else lead
    upstreams = [signed_zero_heavy(rng, out_lead + (n, n)) for _ in range(roots)]
    budget = chunk_budget(frames, n, (e, d)) if fixed else chunk_budget(frames, n * n, (h, h2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "EDGE_CHUNK_ENTRIES", budget)
        fused = leaf_grads(lambda *operands: ad.edge_matrix(*operands, temperature, self_weight, fixed=fixed),
                           values, needs_grad, upstreams)
    assert one_nan(fused) == one_nan(leaf_grads(
        lambda *operands: composed_edge_matrix(*operands, temperature, self_weight, fixed=fixed), values,
        needs_grad, upstreams))
    assert [grad is not None for grad in fused[1:12]] == needs_grad
    diagonal = np.frombuffer(fused[0]).reshape(out_lead + (n, n))[..., range(n), range(n)]
    assert np.array_equal(diagonal, np.full(diagonal.shape, self_weight)) or with_nan


def test_edge_matrix_saturates_without_overflow():
    # softmax(z / T)[1] for logit differences far past exp's range: with a
    # zero head weight every pair's logits are the head's bias
    rng = np.random.default_rng(2)
    operands = [ad.tensor(rng.normal(size=shape), requires_grad=True) for shape in edge_shapes()]
    operands[9] = ad.tensor(np.zeros((4, 2)), requires_grad=True)
    for bias, weight in [([0.0, 1e6], 1.0), ([1e6, 0.0], 0.0), ([-3e305, 3e305], 1.0)]:
        operands[10] = ad.tensor(bias, requires_grad=True)
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # exp may underflow to 0
            out = ad.edge_matrix(*operands, 0.05, 1.0)
            out.sum().backward()
        assert np.array_equal(out.data, np.broadcast_to(weight + (1.0 - weight) * np.eye(3), (2, 3, 3)))
        assert np.array_equal(operands[10].grad, np.zeros(2))


@settings(max_examples=100, deadline=None)
@given(CHUNK_LEADS, *EDGE_DIMS, st.sampled_from([1, 7, 18]), st.sampled_from([1.0, 0.0]),
       st.sampled_from([1.0, 0.7, 0.05]), st.lists(st.booleans(), min_size=11, max_size=11), st.booleans(),
       st.integers(1, 2), st.integers(0, 2**32 - 1))
@degenerate_edge_examples()
def test_edge_message_is_bit_equal_to_edge_matrix_and_matmul(lead, n, c, e, d, h, h2, frames, self_weight,
                                                            temperature, needs_grad, with_nan, roots, seed):
    # the messages and every operand's gradient, byte for byte, in chunks of
    # 1, 7 and 18 frames, with signed zeros in every operand, optionally a NaN
    # in one, self edges on and off, and a second root through the same node;
    # an operand that requires no gradient gets none, and the features'
    # gradient sums the messages' and the encoder's in the composed ops' order
    rng = np.random.default_rng(seed)
    values = [signed_zero_heavy(rng, shape) for shape in edge_shapes(lead, n, c, e, d, h, h2)]
    if with_nan:
        nan_in_one(rng, values)
    upstreams = [signed_zero_heavy(rng, lead + (n, c)) for _ in range(roots)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "EDGE_CHUNK_ENTRIES", chunk_budget(frames, n * n, (h, h2)))
        fused = leaf_grads(lambda *operands: ad.edge_message(*operands, temperature, self_weight),
                           values, needs_grad, upstreams)
    assert one_nan(fused) == one_nan(leaf_grads(
        lambda *operands: composed_edge_message(*operands, temperature, self_weight), values, needs_grad, upstreams))
    assert [grad is not None for grad in fused[1:12]] == needs_grad


def test_edge_message_is_one_node_keeping_only_its_operands():
    # a dynamic classify step's edges and messages: the graph holds the
    # operands and the (…, N, 2) messages, no (…, N, N), (…, N, d) or
    # pair-sized array; the features are its parent twice, as the messages
    # and as the encoder's input
    rng = np.random.default_rng(9)
    operands = [ad.tensor(rng.normal(size=shape), requires_grad=True)
                for shape in edge_shapes((4, 5), n=15, c=2, e=16, d=16, h=16, h2=16)]
    out = ad.edge_message(*operands, 1.0, 1.0)
    assert out.shape == (4, 5, 15, 2)
    assert {id(node) for node in ad._topo_order(out)} == {id(t) for t in operands + [out]}
    assert out._parents == (operands[0],) + tuple(operands)
    for i, shape in [(0, (4, 5, 15, 3)), (1, (2, 15)), (9, (16, 3)), (10, (3,))]:
        wrong = operands[:i] + [ad.tensor(np.zeros(shape))] + operands[i + 1:]
        with pytest.raises(ValueError, match=r"edge_message: shapes .* do not chain"):
            ad.edge_message(*wrong, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"edge_message: temperature must be > 0, got 0.0"):
        ad.edge_message(*operands, 0.0, 1.0)


def test_edge_matrix_errors_name_the_op():
    good = [ad.tensor(np.zeros(shape)) for shape in edge_shapes()]
    wrong = [(2, 3, 3), (3, 3), (4,), (4, 2), (3,), (5, 3), (4,), (4, 4), (3,), (4, 3), (3,)]
    for i, shape in enumerate(wrong):
        operands = good[:i] + [ad.tensor(np.zeros(shape))] + good[i + 1:]
        for fixed in (False, True):
            with pytest.raises(ValueError, match=r"edge_matrix: shapes .* do not chain"):
                ad.edge_matrix(*operands, 1.0, 1.0, fixed=fixed)
    with pytest.raises(ValueError, match=r"edge_matrix: shapes \(2,\), \(2, 3\)"):
        ad.edge_matrix(ad.tensor(np.zeros(2)), *good[1:], 1.0, 1.0)
    for temperature in (0.0, -1.0):
        with pytest.raises(ValueError, match=rf"edge_matrix: temperature must be > 0, got {temperature}"):
            ad.edge_matrix(*good, temperature, 1.0)


def composed_batch_norm(x, gamma, beta, stats=None):
    """batch_norm from the composed ops: the reference it is bit-equal to."""
    features = gamma.shape
    axes = tuple(range(x.ndim - len(features)))
    if stats is None:
        mean = x.mean(axis=axes)
        centered = ad.sub(x, mean)
        var = ad.mul(centered, centered).mean(axis=axes)
        inv = ad.power(ad.add(var, ad.Tensor(np.full(features, ad.BATCHNORM_EPS))), -0.5)
        normed = ad.mul(centered, inv)
        stats = (mean.data, var.data)
    else:
        inv = ad.Tensor(1.0 / np.sqrt(stats[1] + ad.BATCHNORM_EPS))
        normed = ad.mul(ad.sub(x, ad.Tensor(stats[0])), inv)
    return (ad.add(ad.mul(normed, gamma), beta),) + tuple(stats)


@settings(max_examples=120, deadline=None)
@given(st.booleans(), st.sampled_from([(5,), (3, 4), (3,)]), st.lists(st.integers(1, 4), min_size=1, max_size=3),
       st.lists(st.booleans(), min_size=3, max_size=3), st.booleans(), st.integers(0, 2**32 - 1))
def test_batch_norm_is_bit_equal_to_composed_ops(training, features, batch, needs_grad, with_nan, seed):
    # output, statistics and every operand's gradient, byte for byte, in both
    # modes, with signed zeros in every operand and optionally a NaN input; an
    # operand that requires no gradient gets none
    rng = np.random.default_rng(seed)
    shape = tuple(batch) + features
    x = signed_zero_heavy(rng, shape)
    if with_nan:
        x.flat[rng.integers(x.size)] = np.nan
    gamma, beta = signed_zero_heavy(rng, features), signed_zero_heavy(rng, features)
    stats = None if training else (signed_zero_heavy(rng, features), rng.uniform(0.0, 2.0, features))
    upstream = ad.Tensor(signed_zero_heavy(rng, shape))

    def run(fn):
        operands = [ad.tensor(v, requires_grad=grad) for v, grad in zip((x, gamma, beta), needs_grad)]
        out, mean, var = fn(*operands, stats)
        if out.requires_grad:
            ad.mul(out, upstream).sum().backward()
        return ([out.data.tobytes(), mean.tobytes(), var.tobytes()]
                + [None if t.grad is None else t.grad.tobytes() for t in operands])

    fused = run(ad.batch_norm)
    assert fused == run(composed_batch_norm)
    assert [grad is not None for grad in fused[3:]] == needs_grad


def nan_blind(results):
    """Byte strings of float64 arrays (or None) with every NaN made the same
    NaN.  Where both operands of an elementwise op are NaN, numpy's vector
    loops and their scalar tails return different ones, so the sign of a NaN
    depends on where its entry falls in its array, which differs between a
    neuron's slice and the whole stack; every other entry keeps its bits."""
    def blind(raw):
        values = np.frombuffer(raw)
        return np.where(np.isnan(values), np.nan, values).tobytes()

    return [None if raw is None else blind(raw) for raw in results]


@settings(max_examples=150, deadline=None)
@given(CHUNK_LEADS, st.integers(1, 4), st.integers(1, 3), st.sampled_from([1, 2, 5, 16]),
       st.sampled_from([1, 2, 5, 16]), st.sampled_from(["train", "eval"]),
       st.lists(st.booleans(), min_size=7, max_size=7), st.booleans(), st.integers(1, 2),
       st.booleans(), st.integers(1, 4), st.integers(0, 2**32 - 1))
# one-wide batch norm over twelve rows: numpy sums a lone neuron's slice
# pairwise, and two or more neurons' row by row
@example((12,), 3, 2, 2, 1, "train", [True] * 7, False, 1, False, 1, 3)
@example((12,), 3, 2, 2, 1, "eval", [True] * 7, False, 1, False, 1, 3)
@example((12,), 3, 2, 2, 1, "train", [True] * 7, False, 1, False, 2, 3)
@example((12,), 3, 2, 2, 1, "train", [True] * 7, False, 1, True, 2, 6)
@example((12,), 3, 2, 2, 1, "eval", [True] * 7, False, 1, True, 1, 6)
def test_neuron_mlp_is_bit_equal_to_per_neuron_linears_then_batch_norm(lead, n, d, h, h2, mode, needs_grad,
                                                                       with_nan, roots, swapped, per, seed):
    # the output, the batch statistics and every operand's gradient, byte for
    # byte, against per-neuron linear layers twice and batch_norm, in passes
    # of 1 to 4 neurons: batch norm in training and in inference, one-wide
    # layers, signed zeros in every operand, optionally a NaN in one (NaNs
    # compared by position, see nan_blind), a second root through the same
    # node, and roots through swapaxes, which hand the node a neuron-major
    # gradient; an operand that requires no gradient gets none
    rng = np.random.default_rng(seed)
    shapes = neuron_mlp_shapes(lead, n, d, h, h2)
    values = [signed_zero_heavy(rng, shape) for shape in shapes]
    if with_nan:
        nan_in_one(rng, values)
    stats = (signed_zero_heavy(rng, (n, h2)), rng.uniform(0.0, 2.0, (n, h2))) if mode == "eval" else None
    swapped = swapped and bool(lead)
    upstreams = [signed_zero_heavy(rng, (n,) + lead[1:] + lead[:1] + (h2,) if swapped else lead + (n, h2))
                 for _ in range(roots)]

    def run(op):
        statistics = []

        def node(*operands):
            out, mean, var = op(*operands, stats=stats)
            statistics.extend([mean, var])
            return swapaxes(out, 0, -2) if swapped else out

        results = nan_blind(leaf_grads(node, values, needs_grad, upstreams))
        return results + [None if a is None else a.tobytes() for a in statistics]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "NEURON_PASS_ROWS", per * math.prod(lead))
        fused = run(ad.neuron_mlp)
    assert fused == run(composed_neuron_mlp)
    assert [grad is not None for grad in fused[1:len(values) + 1]] == needs_grad


def test_neuron_mlp_is_one_node_keeping_only_its_operands():
    # a node_mlp body over 40 windows x 8 frames of 15 neurons: the graph holds
    # the operands and the C-ordered (…, N, h) output, and the node keeps no
    # (M, h) activation of a neuron, only the (N, h) statistics
    rng = np.random.default_rng(3)
    operands = [ad.tensor(rng.normal(size=shape), requires_grad=True)
                for shape in neuron_mlp_shapes((40, 8), n=15, d=2, h=16, h2=16)]
    tracemalloc.start()
    try:
        out, mean, var = ad.neuron_mlp(*operands)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.shape == (40, 8, 15, 16) and out.data.flags.c_contiguous and mean.shape == var.shape == (15, 16)
    assert {id(node) for node in ad._topo_order(out)} == {id(t) for t in operands + [out]}
    assert held < 1.05 * out.data.nbytes
    for i, shape in [(0, (40, 8, 14, 2)), (2, (15, 16)), (3, (15, 16, 15)), (6, (16,))]:
        wrong = operands[:i] + [ad.tensor(np.zeros(shape))] + operands[i + 1:]
        with pytest.raises(ValueError, match=r"neuron_mlp: shapes .* do not chain"):
            ad.neuron_mlp(*wrong)


@pytest.mark.parametrize("rows, n, recording, passes", [(640, 15, True, 15), (80, 120, True, 20),
                                                      (10, 120, True, 3), (80, 120, False, 1), (640, 15, False, 15)])
def test_neuron_mlp_passes_take_about_neuron_pass_rows_rows(monkeypatch, rows, n, recording, passes):
    # NEURON_PASS_ROWS // rows neurons a pass (one at least); a node that
    # records no graph runs every neuron in one pass over no more rows
    calls = []
    dense_relu = ad._dense_relu
    monkeypatch.setattr(ad, "_dense_relu", lambda *args: calls.append(1) or dense_relu(*args))
    operands = [ad.tensor(np.ones(shape), requires_grad=recording)
                for shape in neuron_mlp_shapes((rows,), n=n, d=2, h=4, h2=4)]
    ad.neuron_mlp(*operands)
    assert ad.NEURON_PASS_ROWS == 512 and len(calls) == 2 * passes


# lead axes of x before its row axis: none, one, and two up to (3, 4)
DECODER_LEADS = st.one_of(st.just(()), st.tuples(st.integers(1, 3)), st.tuples(st.integers(1, 3), st.integers(1, 4)))


@settings(max_examples=150, deadline=None)
@given(DECODER_LEADS, st.integers(1, 4), *(st.integers(1, 7) for _ in range(4)),
       st.lists(st.booleans(), min_size=7, max_size=7), st.booleans(), st.integers(1, 2), st.integers(0, 2**32 - 1))
@example((), 1, 1, 1, 1, 1, [False] + [True] * 6, False, 1, 0)
@example((3, 4), 4, 7, 7, 7, 7, [True] * 7, True, 2, 1)
def test_node_decoder_is_bit_equal_to_three_linears(lead, rows, d, h, h2, k, needs_grad, with_nan, roots, seed):
    # the output and every operand's gradient, byte for byte, against
    # linear(relu=True) twice and linear: signed zeros in every operand,
    # optionally a NaN in one, and a second root through the same node, whose
    # backward recomputes the hidden layers again; an operand that requires
    # no gradient, x included, gets none
    rng = np.random.default_rng(seed)
    values = [signed_zero_heavy(rng, shape) for shape in node_decoder_shapes(lead + (rows,), d, h, h2, k)]
    if with_nan:
        nan_in_one(rng, values)
    upstreams = [signed_zero_heavy(rng, lead + (rows, k)) for _ in range(roots)]
    fused = leaf_grads(ad.node_decoder, values, needs_grad, upstreams)
    assert fused == leaf_grads(composed_node_decoder, values, needs_grad, upstreams)
    grads = fused[1:8] if any(needs_grad) else [None] * 7
    assert [grad is not None for grad in grads] == needs_grad


# lead axes of per-neuron features: none up to (2, 3), and twelve rows, over
# which numpy sums a one-wide gradient pairwise
NEURON_DECODER_LEADS = st.one_of(st.just(()), st.tuples(st.integers(1, 2)),
                                 st.tuples(st.integers(1, 2), st.integers(1, 3)), st.just((12,)))


@settings(max_examples=150, deadline=None)
@given(NEURON_DECODER_LEADS, st.integers(1, 5), *(st.integers(1, 7) for _ in range(4)),
       st.lists(st.booleans(), min_size=7, max_size=7), st.booleans(), st.integers(1, 2), st.booleans(),
       st.integers(0, 2**32 - 1))
@example((12,), 3, 1, 1, 1, 1, [True] * 7, False, 1, False, 0)
@example((12,), 1, 1, 1, 1, 1, [True] * 7, False, 2, True, 1)
@example((), 1, 1, 1, 1, 1, [False] + [True] * 6, False, 1, False, 0)
@example((2, 3), 5, 7, 7, 7, 7, [True] * 7, True, 2, True, 1)
def test_per_neuron_node_decoder_is_bit_equal_to_three_per_neuron_linears(lead, n, d, h, h2, k, needs_grad, with_nan,
                                                                         roots, swapped, seed):
    # the output and every operand's gradient, byte for byte, against three
    # per-neuron linear layers (reshape, swapaxes, linear, swapaxes,
    # reshape): one-wide layers (summed pairwise over twelve rows), signed
    # zeros in every operand, optionally a NaN in one, a second root through
    # the same node, and roots through swapaxes, which hand the node a
    # neuron-major gradient; an operand that requires no gradient, x
    # included, gets none
    rng = np.random.default_rng(seed)
    values = [signed_zero_heavy(rng, shape) for shape in node_decoder_shapes(lead, d, h, h2, k, n)]
    if with_nan:
        nan_in_one(rng, values)
    swapped = swapped and bool(lead)
    upstreams = [signed_zero_heavy(rng, (n,) + lead[1:] + lead[:1] + (k,) if swapped else lead + (n, k))
                 for _ in range(roots)]

    def run(op):
        return leaf_grads(lambda *operands: swapaxes(op(*operands), 0, -2) if swapped else op(*operands),
                          values, needs_grad, upstreams)

    fused = run(ad.node_decoder)
    assert fused == run(composed_node_decoder)
    grads = fused[1:8] if any(needs_grad) else [None] * 7
    assert [grad is not None for grad in grads] == needs_grad


def test_node_decoder_is_one_node_keeping_only_its_operands():
    # a decoder over 40 windows x 10 nodes at hidden 64: the graph holds the
    # operands and the (…, N, 2) output, not the two (…, N, 64) activations
    rng = np.random.default_rng(4)
    operands = [ad.tensor(rng.normal(size=shape), requires_grad=True)
                for shape in node_decoder_shapes((40, 10), d=2, h=64, h2=64, k=2)]
    tracemalloc.start()
    try:
        out = ad.node_decoder(*operands)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.shape == (40, 10, 2)
    assert {id(node) for node in ad._topo_order(out)} == {id(t) for t in operands + [out]}
    assert held < 1.5 * out.data.nbytes  # one activation would be 32 times the output
    for i, shape in [(0, (40, 10, 3)), (0, (2,)), (2, (1, 64)), (3, (63, 64)), (5, (64, 2, 1)), (6, (3,))]:
        wrong = operands[:i] + [ad.tensor(np.zeros(shape))] + operands[i + 1:]
        with pytest.raises(ValueError, match=r"node_decoder: shapes .* do not chain"):
            ad.node_decoder(*wrong)


def test_per_neuron_node_decoder_is_one_node_keeping_only_its_operands():
    # node_mlp's decoder over 40 windows of 10 neurons at hidden 64: the
    # graph holds the operands and the (…, N, 2) output, not the two
    # (N, M, 64) activations
    rng = np.random.default_rng(5)
    operands = [ad.tensor(rng.normal(size=shape), requires_grad=True)
                for shape in node_decoder_shapes((40,), d=2, h=64, h2=64, k=2, n=10)]
    tracemalloc.start()
    try:
        out = ad.node_decoder(*operands)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.shape == (40, 10, 2)
    assert {id(node) for node in ad._topo_order(out)} == {id(t) for t in operands + [out]}
    assert held < 1.5 * out.data.nbytes  # one activation would be 32 times the output
    # a neuron count that x does not share, per-neuron biases without their
    # row axis, and shared weights beside per-neuron ones
    for i, shape in [(0, (40, 9, 2)), (2, (10, 64)), (4, (64,)), (5, (64, 2)), (6, (10, 2))]:
        wrong = operands[:i] + [ad.tensor(np.zeros(shape))] + operands[i + 1:]
        with pytest.raises(ValueError, match=r"node_decoder: shapes .* do not chain"):
            ad.node_decoder(*wrong)


def test_training_batch_norm_graph_owns_two_input_sized_arrays():
    # a training forward leaves the output and the centered input that its
    # backward needs; the composed ops kept five arrays the size of x
    rng = np.random.default_rng(2)
    bn = ad.BatchNorm((3, 4), name="bn")
    x = ad.tensor(rng.normal(size=(60, 5, 3, 4)), requires_grad=True)
    tracemalloc.start()
    try:
        out = bn.forward(x, training=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad and held < 2.5 * x.data.nbytes
    with pytest.raises(ValueError, match=r"batch_norm: x \(6, 5\) does not end in the feature shape"):
        ad.batch_norm(ad.tensor(np.ones((6, 5))), bn.gamma.tensor, bn.beta.tensor)


def composed_lstm_cell(x, h, c, w_x, w_h, b):
    """lstm_cell from the composed ops: the reference it is bit-equal to."""
    hidden = h.shape[-1]
    z = ad.add(ad.add(ad.matmul(x, w_x), ad.matmul(h, w_h)), b)
    z_i, z_f, z_o, z_c = ad.split(z, [hidden] * 4, axis=-1)
    c_next = ad.add(ad.mul(ad.sigmoid(z_f), c), ad.mul(ad.sigmoid(z_i), ad.tanh(z_c)))
    return ad.mul(ad.sigmoid(z_o), ad.tanh(c_next)), c_next


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from(["both", "h", "c", "none"]), st.lists(st.booleans(), min_size=6, max_size=6),
       st.integers(0, 2**32 - 1))
@example(1, 3, 2, 2, "c", [True] * 6, 0)  # no gradient reaches the output gate
@example(2, 3, 2, 2, "h", [True] * 6, 0)
def test_lstm_cell_is_bit_equal_to_composed_ops(steps, batch, in_dim, hidden, last, needs_grad, seed):
    # a chain of cells sharing weights, as a recurrent layer runs them: every
    # output and every gradient, byte for byte.  Each earlier h_next feeds the
    # loss and the next cell; the last cell's h_next and c_next feed the loss
    # both, one or neither.  An operand (the frames, h0, c0, w_x, w_h, b) that
    # requires no gradient gets none
    rng = np.random.default_rng(seed)
    frames = [signed_zero_heavy(rng, (batch, in_dim)) for _ in range(steps)]
    values = [signed_zero_heavy(rng, shape) for shape in
              [(batch, hidden), (batch, hidden), (in_dim, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,)]]
    upstream = [ad.Tensor(signed_zero_heavy(rng, (batch, hidden))) for _ in range(steps + 1)]

    def run(cell):
        xs = [ad.tensor(v, requires_grad=needs_grad[0]) for v in frames]
        leaves = [ad.tensor(v, requires_grad=grad) for v, grad in zip(values, needs_grad[1:])]
        h, c, w_x, w_h, b = leaves
        terms, outputs = [], []
        for t, x in enumerate(xs):
            h, c = cell(x, h, c, w_x, w_h, b)
            outputs += [h.data.tobytes(), c.data.tobytes()]
            if t < steps - 1 or last in ("both", "h"):
                terms.append(ad.mul(h, upstream[t]).sum())
        if last in ("both", "c"):
            terms.append(ad.mul(c, upstream[steps]).sum())
        if terms and any(term.requires_grad for term in terms):
            loss = terms[0]
            for term in terms[1:]:
                loss = ad.add(loss, term)
            loss.backward()
        return outputs + [None if t.grad is None else t.grad.tobytes() for t in xs + leaves]

    assert run(ad.lstm_cell) == run(composed_lstm_cell)


def test_lstm_cell_is_one_node_with_two_outputs():
    rng = np.random.default_rng(6)
    operands = [ad.tensor(rng.normal(size=shape), requires_grad=True)
                for shape in [(2, 3), (2, 4), (2, 4), (3, 16), (4, 16), (16,)]]
    h, c = ad.lstm_cell(*operands)
    assert h.shape == c.shape == (2, 4)
    assert h._parents == c._parents and len(ad._topo_order(ad.add(h, c))) == len(operands) + 4
    with pytest.raises(ValueError, match=r"lstm_cell: projection widths \(3, 12\)"):
        ad.lstm_cell(*operands[:3], ad.tensor(np.zeros((3, 12))), *operands[4:])


def test_linear_shape_errors_name_the_op():
    x, w = ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((3, 4)))
    with pytest.raises(ValueError, match=r"linear.*\(2, 3\).*\(4, 5\)"):
        ad.linear(x, ad.tensor(np.zeros((4, 5))), ad.tensor(np.zeros(5)))
    with pytest.raises(ValueError, match=r"linear: bias \(3, 2, 4\) does not broadcast to \(2, 4\)"):
        ad.linear(x, w, ad.tensor(np.zeros((3, 2, 4))))


BINARY_BACKWARD = {
    # op, operand shapes, the gradients of (a, b) for upstream g
    "add": (ad.add, ((3, 4), (4,)), lambda g, a, b: (g, g.sum(axis=0))),
    "sub": (ad.sub, ((3, 4), (4,)), lambda g, a, b: (g, (-g).sum(axis=0))),
    "mul": (ad.mul, ((3, 4), (4,)), lambda g, a, b: (g * b, (g * a).sum(axis=0))),
    "matmul": (ad.matmul, ((3, 4), (4, 2)), lambda g, a, b: (g @ b.T, a.T @ g)),
    "linear": (lambda a, b: ad.linear(a, b, ad.tensor(np.ones(2))), ((3, 4), (4, 2)),
               lambda g, a, b: (g @ b.T, a.T @ g)),
}

# the node and the shapes of an input a and a weight b, as above; every
# operand in argument order (the others fixed), and the composed ops
FUSED_BACKWARD = {
    # x and gamma of a training batch_norm
    "batch_norm": (lambda *t: ad.batch_norm(*t)[0], ((5, 3), (3,)), lambda a, b: [a, b, bn_affine((3,))[1]],
                   lambda *t: composed_batch_norm(*t)[0]),
    # feats and w1 of edge_matrix
    "edge_matrix": (lambda *t: ad.edge_matrix(*t, 0.7, 1.0), ((2, 3, 2), (4, 3)),
                    lambda a, b: edge_operands(("feats", "w1"), a, b), lambda *t: composed_edge_matrix(*t, 0.7, 1.0)),
    # feats (the messages and the encoder's input) and enc_w1 of edge_message
    "edge_message": (lambda *t: ad.edge_message(*t, 0.7, 1.0), ((2, 3, 2), (2, 3)),
                     lambda a, b: edge_operands(("feats", "enc_w1"), a, b),
                     lambda *t: composed_edge_message(*t, 0.7, 1.0)),
    # feats and enc_w1 of a fixed edge_matrix
    "fixed_edge_matrix": (lambda *t: fixed_edge_matrix(*t, 0.7, 1.0), ((2, 3, 2), (2, 3)),
                          lambda a, b: edge_operands(("feats", "enc_w1"), a, b),
                          lambda *t: composed_fixed_edge_matrix(*t, 0.7, 1.0)),
    # x and w1 of neuron_mlp with its batch norm in training
    "neuron_mlp": (lambda *t: ad.neuron_mlp(*t)[0], ((4, 3, 2), (3, 2, 2)),
                   lambda a, b: [a, b] + [ad.tensor(np.sin(np.arange(np.prod(shape)) + i).reshape(shape) + 0.1)
                                          for i, shape in enumerate(neuron_mlp_shapes()[2:])],
                   lambda *t: composed_neuron_mlp(*t)[0]),
}


def edge_operands(names, *leaves):
    """The edge operands with ``leaves`` as ``names`` and fixed values of both
    signs for the others."""
    given = dict(zip(names, leaves))
    return [given[name] if name in given else edge_constant(i, shape)
            for i, (name, shape) in enumerate(zip(EDGE_OPERANDS, edge_shapes()))]


@pytest.mark.parametrize("name", sorted({**BINARY_BACKWARD, **FUSED_BACKWARD}))
@pytest.mark.parametrize("constant", [0, 1])
def test_backward_skips_constant_operands(name, constant):
    # a two-operand op or linear computes no gradient for its constant
    # operand; a fused node computes every weight's, constant or not, the
    # composed ops' byte for byte, and none only for a constant input
    # (batch norm's input, always an activation in a model, gets one too)
    fused = name in FUSED_BACKWARD
    op, shapes, *reference = (FUSED_BACKWARD if fused else BINARY_BACKWARD)[name]
    rng = np.random.default_rng(5)
    values = [rng.normal(size=shape) for shape in shapes]
    operands = [ad.tensor(v, requires_grad=i != constant) for i, v in enumerate(values)]
    if fused:
        every_operand, composed = reference
        operands = every_operand(*operands)
    out = op(*operands)
    g = rng.normal(size=out.shape)
    grads = {}  # by parent, summed in the order backward sums them (edge_message lists feats twice)
    for parent, grad in zip(out._parents, out._backward_fn(g)):
        if grad is not None:
            grads[id(parent)] = grads[id(parent)] + grad if id(parent) in grads else grad
    if fused:
        leaves = [ad.tensor(t.data, requires_grad=True) for t in operands]
        ad.mul(composed(*leaves), ad.Tensor(g)).sum().backward()
        skipped = constant == 0 and name != "batch_norm"
        assert [id(t) in grads for t in operands] == [not skipped] + [True] * (len(operands) - 1)
        assert all(grads[id(t)].tobytes() == leaf.grad.tobytes() for t, leaf in zip(operands, leaves) if id(t) in grads)
        return
    assert id(operands[constant]) not in grads
    live = 1 - constant
    assert grads.pop(id(operands[live])).tobytes() == reference[0](g, *values)[live].tobytes()
    assert not grads  # linear's bias is a constant


@pytest.mark.parametrize("constant", range(6), ids=LSTM_OPERANDS)
def test_lstm_cell_backward_skips_constant_operands(constant):
    # the cell's backward, run by hand after its two outputs', computes no
    # gradient for the constant operand and the composed ops' for the others
    rng = np.random.default_rng(8)
    values = [rng.normal(size=shape) for shape in [(3, 2), (3, 4), (3, 4), (2, 16), (4, 16), (16,)]]
    h, c = ad.lstm_cell(*[ad.tensor(v, requires_grad=i != constant) for i, v in enumerate(values)])
    g_h, g_c = rng.normal(size=h.shape), rng.normal(size=c.shape)
    h._backward_fn(g_h)
    c._backward_fn(g_c)
    grads = h._parents[0]._backward_fn(None)
    leaves = [ad.tensor(v, requires_grad=True) for v in values]
    ref_h, ref_c = composed_lstm_cell(*leaves)
    ad.add(ad.mul(ref_h, ad.Tensor(g_h)).sum(), ad.mul(ref_c, ad.Tensor(g_c)).sum()).backward()
    assert grads[constant] is None
    assert all(grad.tobytes() == leaf.grad.tobytes()
               for i, (grad, leaf) in enumerate(zip(grads, leaves)) if i != constant)


def test_grad_check_lstm_cell():
    rng = np.random.default_rng(7)
    hidden = 3
    h0 = ad.Tensor(rng.normal(size=(2, hidden)))
    c0 = ad.Tensor(rng.normal(size=(2, hidden)))
    w_x = ad.Tensor(rng.normal(size=(4, 4 * hidden)) * 0.4)
    w_h = ad.Tensor(rng.normal(size=(hidden, 4 * hidden)) * 0.4)
    b = ad.Tensor(rng.normal(size=4 * hidden) * 0.1)

    def cell(x):
        h1, c1 = ad.lstm_cell(x, h0, c0, w_x, w_h, b)
        return ad.add(h1, c1).sum()

    x = ad.tensor(rng.normal(size=(2, 4)))
    assert ad.grad_check(cell, x, step=STEP) < GRAD_TOL


def test_grad_check_batchnorm_training():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = ad.tensor(rng.normal(size=(6, 3)))

        def run(t):
            bn = ad.BatchNorm(3, name="bn")
            bn.gamma.data = 1.0 + 0.1 * np.arange(3)
            bn.beta.data = 0.05 * np.arange(3)
            return ad.mul(bn.forward(t, training=True), ad.Tensor(np.cos(np.arange(18)).reshape(6, 3))).sum()

        assert ad.grad_check(run, x, step=STEP) < GRAD_TOL


def test_batchnorm_feature_shape_keeps_one_statistic_per_entry():
    # a (3, 2) feature shape normalizes each of the 6 entries over the batch
    # axes: values and running statistics byte-equal to one width-2 batch norm
    # per row of the feature shape, and the gradient passes grad_check
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 4, 3, 2))
    stacked = ad.BatchNorm((3, 2), name="bn")
    stacked.gamma.data = rng.normal(size=(3, 2))
    stacked.beta.data = rng.normal(size=(3, 2))
    out = stacked.forward(ad.tensor(x), training=True).data
    for i in range(3):
        single = ad.BatchNorm(2, name="bn")
        single.gamma.data, single.beta.data = stacked.gamma.data[i], stacked.beta.data[i]
        column = single.forward(ad.tensor(np.ascontiguousarray(x[:, :, i])), training=True).data
        assert column.tobytes() == np.ascontiguousarray(out[:, :, i]).tobytes()
        assert single.running_mean.tobytes() == stacked.running_mean[i].tobytes()
        assert single.running_var.tobytes() == stacked.running_var[i].tobytes()
    with pytest.raises(ValueError, match=r"batchnorm bn: expected \(3, 2\) features"):
        stacked.forward(ad.tensor(np.ones((5, 2, 3))), training=True)

    def run(t):
        bn = ad.BatchNorm((2, 3), name="bn")
        bn.gamma.data = 1.0 + 0.1 * np.arange(6.0).reshape(2, 3)
        return ad.mul(bn.forward(ad.reshape(t, (6, 2, 3)), training=True),
                      ad.Tensor(np.cos(np.arange(36.0)).reshape(6, 2, 3))).sum()

    assert ad.grad_check(run, ad.tensor(rng.normal(size=(6, 6))), step=STEP) < GRAD_TOL


def test_grad_check_constant_function():
    x = ad.tensor(np.ones((2, 2)))
    err = ad.grad_check(lambda t: ad.mul(t, ad.Tensor(np.zeros((2, 2)))).sum(), x)
    assert err == 0.0


def test_grad_check_linear_mse():
    # linear layer + MSE over 5 seeds
    for seed in range(5):
        rng = np.random.default_rng(seed)
        w = ad.Tensor(rng.normal(size=(4, 3)))
        b = ad.Tensor(rng.normal(size=3))
        target = ad.Tensor(rng.normal(size=(6, 3)))

        def model(x):
            pred = ad.add(ad.matmul(x, w), b)
            diff = ad.sub(pred, target)
            return ad.mul(diff, diff).mean()

        x = ad.tensor(rng.normal(size=(6, 4)))
        assert ad.grad_check(model, x, step=STEP) < GRAD_TOL


def test_grad_check_softmax_nll_composite():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        onehot = np.zeros((5, 3))
        onehot[np.arange(5), rng.integers(0, 3, size=5)] = 1.0
        target = ad.Tensor(onehot)

        def composite(logits):
            p = ad.softmax(logits, axis=1)
            picked = ad.mul(ad.log(p), target).sum(axis=1)
            return ad.scale(picked.mean(), -1.0)

        x = ad.tensor(rng.normal(size=(5, 3)))
        assert ad.grad_check(composite, x, step=STEP) < GRAD_TOL


def test_grad_check_mlp_nll():
    # 2-layer MLP + NLL against the finite-difference oracle, per input entries
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        w1 = ad.Tensor(rng.normal(size=(4, 6)) * 0.5)
        b1 = ad.Tensor(np.zeros(6))
        w2 = ad.Tensor(rng.normal(size=(6, 3)) * 0.5)
        b2 = ad.Tensor(np.zeros(3))
        onehot = np.zeros((4, 3))
        onehot[np.arange(4), rng.integers(0, 3, size=4)] = 1.0
        target = ad.Tensor(onehot)

        def net(x):
            h = ad.relu(ad.add(ad.matmul(x, w1), b1))
            logits = ad.add(ad.matmul(h, w2), b2)
            p = ad.softmax(logits, axis=1)
            return ad.scale(ad.mul(ad.log(p), target).sum(axis=1).mean(), -1.0)

        x = ad.tensor(rng.normal(size=(4, 4)) + 0.05)
        assert ad.grad_check(net, x, step=STEP) < GRAD_TOL


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=8),
    st.floats(min_value=1e-3, max_value=50),
)
def test_softmax_simplex_property(logits, temperature):
    out = ad.softmax(ad.tensor(logits), axis=0, temperature=temperature).data
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=8, unique=True),
    st.floats(min_value=1e-2, max_value=20),
)
# logits this close tie exactly at T=1 but not at T=1/16
@example([-5.133871380395047e-18, 0.0], 0.0625)
def test_softmax_temperature_preserves_argmax(logits, temperature):
    base = ad.softmax(ad.tensor(logits), axis=0).data
    tempered = ad.softmax(ad.tensor(logits), axis=0, temperature=temperature).data
    # rounding can turn a near tie into an exact one, so compare the sets of maxima
    assert set(np.flatnonzero(base == base.max())) & set(np.flatnonzero(tempered == tempered.max()))


def test_batchnorm_inference_is_affine():
    bn = ad.BatchNorm(4, name="bn")
    rng = np.random.default_rng(3)
    bn.running_mean = rng.normal(size=4)
    bn.running_var = rng.uniform(0.5, 2.0, size=4)
    bn.gamma.data = rng.normal(size=4)
    bn.beta.data = rng.normal(size=4)

    x = rng.normal(size=(5, 4))
    y = bn.forward(ad.tensor(x), training=False).data
    scale_vec = bn.gamma.data / np.sqrt(bn.running_var + ad.BATCHNORM_EPS)
    expected = (x - bn.running_mean) * scale_vec + bn.beta.data
    assert np.allclose(y, expected, atol=1e-12)

    # same affine map on a second batch: coefficients frozen
    x2 = rng.normal(size=(2, 4))
    y2 = bn.forward(ad.tensor(x2), training=False).data
    assert np.allclose(y2, (x2 - bn.running_mean) * scale_vec + bn.beta.data, atol=1e-12)


def test_batchnorm_running_stats_ema():
    bn = ad.BatchNorm(2, name="bn")
    x = np.array([[1.0, 10.0], [3.0, 14.0]])
    bn.forward(ad.tensor(x), training=True)
    assert np.allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * np.array([2.0, 12.0]))
    assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * np.array([1.0, 4.0]))


def test_index_select_accumulates_repeats():
    x = ad.tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    ad.index_select(x, 0, [0, 0, 1]).sum().backward()
    assert np.array_equal(x.grad, [[2.0, 2.0], [1.0, 1.0]])


def test_uniform_init_bounds():
    rng = np.random.default_rng(0)
    w = ad.uniform_init(rng, 16, (16, 8))
    assert np.all(np.abs(w) <= 1.0 / 4.0)


def test_split_pieces_are_views_and_sizes_checked():
    x = ad.tensor(np.arange(12.0).reshape(3, 4))
    top, bottom = ad.split(x, [1, 2], axis=0)
    assert np.array_equal(top.data, x.data[:1]) and np.array_equal(bottom.data, x.data[1:])
    assert np.shares_memory(top.data, x.data) and np.shares_memory(bottom.data, x.data)
    for sizes in ([2, 2], [3, 0], [4]):
        with pytest.raises(ValueError, match="split"):
            ad.split(x, sizes, axis=0)


def test_split_pieces_take_a_fresh_gradient_in_each_backward():
    # two backward passes through different pieces of one split: the second
    # once found the first's buffer, wrote into it and passed nothing on
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    a, b = ad.split(x, [1, 1])
    ad.backward(a.sum())
    assert np.array_equal(x.grad, [1.0, 0.0])
    x.grad = None
    ad.backward(ad.scale(b.sum(), 4.0))
    assert np.array_equal(x.grad, [0.0, 4.0])


# -- graph recording: no_grad and leaf-only gradients ------------------------------

def composite(x, w):
    """A forward touching most ops, split and the gated cell included."""
    hidden = 2
    z = ad.matmul(x, w)
    a, b = ad.split(z, [4 * hidden, 1], axis=-1)
    w_x = ad.split(w, [4 * hidden, 1], axis=-1)[0]
    h, c = ad.lstm_cell(x, ad.Tensor(np.zeros((3, hidden))), ad.Tensor(np.ones((3, hidden))),
                        w_x, ad.Tensor(np.eye(hidden, 4 * hidden)), ad.Tensor(np.zeros(4 * hidden)))
    return ad.add(ad.softmax(ad.concat([h, c, b], axis=-1), axis=-1).sum(), ad.relu(a).mean())


def test_no_grad_builds_no_graph_and_matches_grad_mode():
    rng = np.random.default_rng(3)
    x = ad.tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = ad.tensor(rng.normal(size=(4, 9)), requires_grad=True)
    with ad.no_grad():
        quiet = composite(x, w)
        pieces = ad.split(w, [8, 1], axis=-1)
    for out in (quiet,) + pieces:
        assert not out.requires_grad
        assert out._parents == () and out._backward_fn is None
    recorded = composite(x, w)
    assert recorded.requires_grad and recorded._parents
    assert quiet.data.tobytes() == recorded.data.tobytes()


def test_no_grad_nesting_and_exceptions_restore_the_mode():
    x = ad.tensor([1.0, 2.0], requires_grad=True)

    def records():
        return ad.mul(x, x).requires_grad

    with ad.no_grad():
        with ad.no_grad():
            assert not records()
        assert not records()
    assert records()
    with pytest.raises(KeyError):
        with ad.no_grad():
            raise KeyError("inside")
    assert records()


def test_no_grad_in_one_thread_leaves_other_threads_recording():
    entered, built = threading.Event(), threading.Event()
    seen = []

    def hold_no_grad():
        with ad.no_grad():
            entered.set()
            x = ad.tensor([3.0], requires_grad=True)
            seen.append(ad.mul(x, x).requires_grad)
            built.wait(timeout=10)

    worker = threading.Thread(target=hold_no_grad)
    worker.start()
    try:
        assert entered.wait(timeout=10)
        x = ad.tensor([1.0, 2.0], requires_grad=True)
        y = ad.mul(x, x).sum()  # built while the other thread sits in no_grad
    finally:
        built.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen == [False]
    assert y.requires_grad and y._parents
    y.backward()
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_keeps_grads_on_leaves_only():
    x = ad.tensor([1.5, -0.5, 2.0], requires_grad=True)
    w = ad.tensor([0.5, 1.0, -2.0], requires_grad=True)
    s = ad.mul(x, w)
    r = ad.relu(s)
    loss = ad.mul(r, r).sum()
    loss.backward()
    assert s.grad is None and r.grad is None and loss.grad is None
    # d/dx sum(relu(x w)^2) = 2 relu(x w) w, and symmetrically for w
    assert np.array_equal(x.grad, 2.0 * r.data * w.data)
    assert np.array_equal(w.grad, 2.0 * r.data * x.data)


# -- backward's walk: pending gradients kept on the tensors ----------------------------

# (op, first pick, second pick): each pick chooses an operand, or for split
# and lstm_cell also which outputs stay in use
GRAPH_STEPS = st.lists(st.tuples(st.sampled_from(["add", "sub", "mul", "scale", "relu", "matmul", "split",
                                                  "concat", "lstm_cell"]),
                                 st.integers(0, 2**16), st.integers(0, 2**16)), max_size=14)


def random_graph(steps, seed):
    """A scalar graph over (3, 4) and (3, 2) tensors, and its leaves: a fixed
    chain, a diamond and a leaf with four consumers, then ``steps`` on picked
    operands (constants among them), all summed against fixed weights."""
    rng = np.random.default_rng(seed)
    leaves = [ad.tensor(rng.normal(size=shape), requires_grad=True)
              for shape in [(3, 4)] * 3 + [(3, 2), (4, 4), (4, 8), (2, 8), (8,)]]
    x0, x1, x2, y0, w, w_x, w_h, b = leaves
    wide = [x0, x1, x2, ad.Tensor(rng.normal(size=(3, 4)))]
    narrow = [y0, ad.Tensor(rng.normal(size=(3, 2)))]
    top = ad.scale(ad.relu(ad.scale(x1, 2.0)), 0.5)  # a chain, then a diamond's top
    wide += [ad.add(x0, x0), ad.mul(x0, x2), ad.add(ad.relu(top), ad.mul(top, wide[3]))]
    for op, i, j in steps:
        pool = (wide if i % 2 else narrow) if op in ("add", "sub", "mul") else narrow if op == "concat" else wide
        a, other = pool[i // 2 % len(pool)], pool[j % len(pool)]
        if op in ("add", "sub", "mul"):
            pool.append(getattr(ad, op)(a, other))
        elif op == "scale":
            pool.append(ad.scale(a, 0.75))
        elif op == "relu":
            pool.append(ad.relu(a))
        elif op == "matmul":
            pool.append(ad.matmul(a, w))
        elif op == "concat":
            wide.append(ad.concat([other, a], axis=-1 if j % 2 else 1))
        else:  # split pieces or the gated cell's outputs: the first, the second or both stay in use
            pair = (ad.split(a, [2, 2], axis=-1) if op == "split"
                    else ad.lstm_cell(a, narrow[j % len(narrow)], narrow[i % len(narrow)], w_x, w_h, b))
            narrow.extend(pair[:1] if j % 3 == 0 else pair[1:] if j % 3 == 1 else pair)
    terms = [ad.mul(t, ad.Tensor(np.cos(np.arange(t.data.size) + k).reshape(t.shape))).sum()
             for k, t in enumerate(wide + narrow)]
    root = terms[0]
    for term in terms[1:]:
        root = ad.add(root, term)
    return root, leaves


@settings(max_examples=120, deadline=None)
@given(GRAPH_STEPS, st.integers(0, 2**16))
@example([("lstm_cell", 0, 0), ("lstm_cell", 2, 1), ("split", 4, 2), ("split", 6, 3), ("concat", 1, 5)], 0)
@example([("lstm_cell", 2, 2), ("mul", 1, 5), ("concat", 1, 4), ("matmul", 8, 0), ("matmul", 8, 0)], 1)
def test_backward_is_byte_equal_to_the_dict_keyed_walk(steps, seed):
    root, leaves = random_graph(steps, seed)
    ad.backward(root)
    assert all(node._pending is None for node in ad._topo_order(root))
    expected_root, expected_leaves = random_graph(steps, seed)
    dict_backward(expected_root)
    assert ([None if t.grad is None else t.grad.tobytes() for t in leaves]
            == [None if t.grad is None else t.grad.tobytes() for t in expected_leaves])
    assert leaves[0].grad is not None and leaves[1].grad is not None


def test_backward_that_raises_leaves_no_gradient_pending():
    x = ad.tensor([1.0, -2.0], requires_grad=True)
    pending_at_raise = []

    def fail(g):
        pending_at_raise.extend(node for node in ad._topo_order(root) if node._pending is not None)
        raise RuntimeError("backward failed")

    broken = ad._make(ad.mul(x, x).data.copy(), (ad.mul(x, x),), fail)
    root = ad.add(broken, ad.scale(x, 3.0)).sum()
    with pytest.raises(RuntimeError, match="backward failed"):
        ad.backward(root)
    assert pending_at_raise  # the other branch's gradient was on its way to x
    assert all(node._pending is None for node in ad._topo_order(root))
    assert x.grad is None
    ad.backward(ad.mul(x, x).sum())  # a later graph through the same leaf starts clean
    assert np.array_equal(x.grad, [2.0, -4.0])


@pytest.mark.parametrize("op, shapes, message", [
    (ad.add, ((2, 3), (4,)), "add: shapes (2, 3) and (4,) do not broadcast"),
    (ad.sub, ((2, 3), (3, 2)), "sub: shapes (2, 3) and (3, 2) do not broadcast"),
    (ad.mul, ((5,), (2, 4)), "mul: shapes (5,) and (2, 4) do not broadcast"),
    (ad.matmul, ((2, 3), (4, 5)), "matmul: incompatible shapes (2, 3) and (4, 5)"),
    (ad.matmul, ((2, 2, 3), (3, 3, 4)), "matmul: incompatible shapes (2, 2, 3) and (3, 3, 4)"),
    (ad.matmul, ((3,), (3, 2)), "matmul: operands must be at least 2-D, got (3,) and (3, 2)"),
    (lambda x, w: ad.linear(x, w, ad.tensor(np.zeros(5))), ((2, 3), (4, 5)),
     "linear: incompatible shapes (2, 3) and (4, 5)"),
    (lambda x, w: ad.linear(x, w, ad.tensor(np.zeros(3))), ((2,), (2, 3)),
     "linear: operands must be at least 2-D, got (2,) and (2, 3)"),
    (lambda x, w: ad.linear(x, w, ad.tensor(np.zeros(3))), ((2, 4), (4, 5)),
     "linear: bias (3,) does not broadcast to (2, 5)"),
], ids=["add", "sub", "mul", "matmul", "matmul_batch", "matmul_1d", "linear", "linear_1d", "linear_bias"])
@pytest.mark.parametrize("recording", [True, False], ids=["recording", "constants"])
def test_shape_errors_name_the_op_and_both_shapes(op, shapes, message, recording):
    operands = [ad.tensor(np.ones(shape), requires_grad=recording) for shape in shapes]
    with pytest.raises(ValueError) as caught:
        op(*operands)
    assert str(caught.value) == message


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("axis", [2, 5, -3, -7])
def test_concat_names_an_axis_out_of_range(count, axis):
    # one tensor or several: a ValueError naming the op, the axis and the
    # ndim, not numpy's AxisError or a bare IndexError from the shape check
    tensors = [ad.tensor(np.ones((2, 3)), requires_grad=True) for _ in range(count)]
    with pytest.raises(ValueError) as caught:
        ad.concat(tensors, axis=axis)
    assert str(caught.value) == f"concat: axis {axis} is out of range for 2-D tensors"


@pytest.mark.parametrize("axis", [-1, -2, -3])
def test_concat_takes_negative_axes_in_range(axis):
    # a negative axis counts from the end, in the values and in each piece's
    # gradient, as the same non-negative axis does
    rng = np.random.default_rng(9)
    values = [rng.normal(size=shape) for shape in [(2, 3, 4), (2, 3, 4)]]
    upstream = rng.normal(size=np.concatenate(values, axis=axis).shape)

    def run(at):
        leaves = [ad.tensor(v, requires_grad=True) for v in values]
        out = ad.concat(leaves, axis=at)
        ad.mul(out, ad.Tensor(upstream)).sum().backward()
        return [out.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves]

    assert run(axis) == run(axis % 3)
    assert run(axis)[0] == np.concatenate(values, axis=axis).tobytes()


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=2, max_size=3),
       st.sampled_from([None, 0, -1, (0, -1), (-1,)]), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_tensor_mean_backward_is_byte_equal_to_the_copying_form(shape, axis, keepdims, with_nan, seed):
    # dividing the broadcast gradient makes a new array, so the copy before
    # it changed no byte; the leaf's gradient is a writeable array of its own
    rng = np.random.default_rng(seed)
    values = [signed_zero_heavy(rng, tuple(shape))]
    if with_nan:
        nan_in_one(rng, values)
    out_shape = np.mean(values[0], axis=axis, keepdims=keepdims).shape
    upstreams = [signed_zero_heavy(rng, out_shape)]
    mean = leaf_grads(lambda a: ad.tensor_mean(a, axis=axis, keepdims=keepdims), values, [True], upstreams)
    assert mean == leaf_grads(lambda a: copied_tensor_mean(a, axis=axis, keepdims=keepdims), values, [True], upstreams)
    x = ad.tensor(values[0], requires_grad=True)
    ad.tensor_mean(x, axis=axis, keepdims=keepdims).sum().backward()
    assert x.grad.flags.writeable and x.grad.flags.owndata
