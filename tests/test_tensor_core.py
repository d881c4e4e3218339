import copy
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from ramdqn import tensor_core
from ramdqn.tensor_core import (
    LayerSpec,
    ShapeError,
    backward,
    forward,
    gradient_check,
    make_network,
)
from ramdqn.agents import ARCHITECTURES, build_architecture
from ramdqn.envs import ENV_REGISTRY, make_env


def ram_input():
    return LayerSpec(kind="input", stream="ram", shape=(128,))


def new_grads(net):
    """New arrays shaped as `net.params`, for `backward` to write the gradients into."""
    return tensor_core.param_views(net.params, np.empty_like(net.flat))


def conv_cols(x, k, stride, oh, ow, out=None):
    """The window matrix of x (B, C, H, W), gathered through the cached window index
    into `out` (B, oh*ow, C*k*k) or a new array."""
    if out is None:
        out = np.empty((len(x), oh * ow, x.shape[1] * k * k), x.dtype)
    return tensor_core._conv_cols(x, tensor_core._window_index(x.shape[1:], k, stride), out)


def col2im(dcols, x, k, stride, out=None):
    """The gradient w.r.t. x (B, C, H, W) from the gradient `dcols` w.r.t. its window
    matrix, summed into `out` or a new array."""
    b_, c, h, w = x.shape
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    out = np.empty_like(x) if out is None else out
    return tensor_core._col2im(dcols.reshape(b_, oh, ow, c, k, k), stride, out)


def test_make_network_empty_specs_rejected():
    with pytest.raises(ShapeError, match="no output layer"):
        make_network([], np.random.default_rng(0))


def test_make_network_rejects_two_terminals():
    specs = [ram_input(),
             LayerSpec(kind="dense", units=4, input_refs=(0,)),
             LayerSpec(kind="dense", units=4, input_refs=(0,))]
    with pytest.raises(ShapeError, match="one output layer"):
        make_network(specs, np.random.default_rng(0))


def test_make_network_names_offending_layer():
    specs = [ram_input(), LayerSpec(kind="dense", units=0, input_refs=(0,))]
    with pytest.raises(ShapeError, match="layer 1"):
        make_network(specs, np.random.default_rng(0))


def screen_input(shape=(1, 4, 4)):
    return LayerSpec(kind="input", stream="screen", shape=shape)


@pytest.mark.parametrize("specs, message", [
    ([ram_input(), LayerSpec(kind="lstm", input_refs=(0,))], "layer 1: unknown kind 'lstm'"),
    ([ram_input(), LayerSpec(kind="dense", units=4, activation="tanh", input_refs=(0,))],
     "layer 1: unknown activation 'tanh'"),
    ([ram_input(), LayerSpec(kind="dense", units=4, input_refs=(1,))],
     "layer 1: bad input ref 1"),
    ([ram_input(), LayerSpec(kind="dense", units=4, input_refs=(-1,))],
     "layer 1: bad input ref -1"),
    ([ram_input(), screen_input(), LayerSpec(kind="dense", units=4, input_refs=(0, 1))],
     "layer 2: dense takes exactly one input"),
    ([ram_input(), LayerSpec(kind="dropout", drop_p=0.5)],
     "layer 1: dropout takes exactly one input"),
    ([ram_input(), LayerSpec(kind="input", stream="screen", shape=(4,), input_refs=(0,))],
     "layer 1: input layer takes no refs"),
    ([LayerSpec(kind="input", stream="ram")], "layer 0: input layer needs stream and shape"),
    ([LayerSpec(kind="input", shape=(128,))], "layer 0: input layer needs stream and shape"),
    ([ram_input(), ram_input(), LayerSpec(kind="concat", input_refs=(0, 1))],
     "layer 1: duplicate input stream 'ram'"),
    ([ram_input(), LayerSpec(kind="conv2d", filters=2, kernel=1, input_refs=(0,))],
     "layer 1: conv2d needs a channels x H x W input"),
    ([screen_input(), LayerSpec(kind="conv2d", filters=0, kernel=2, input_refs=(0,))],
     "layer 1: bad conv2d hyperparameters"),
    ([screen_input(), LayerSpec(kind="conv2d", filters=2, kernel=2, stride=0,
                                input_refs=(0,))],
     "layer 1: bad conv2d hyperparameters"),
    ([ram_input(), LayerSpec(kind="dropout", drop_p=1.0, input_refs=(0,))],
     "layer 1: drop probability must be in [0,1)"),
    ([ram_input(), LayerSpec(kind="dense", units=4, input_refs=(0,)),
      LayerSpec(kind="concat")], "layer 2: concat needs at least one input"),
])
def test_make_network_refuses_a_bad_layer_naming_it(specs, message):
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        make_network(specs, np.random.default_rng(0))


def test_param_count_just_ram():
    net = build_architecture("just_ram", 4, rng=np.random.default_rng(0))
    # 2*(128*128+128) + 128*4+4
    assert net.flat.size == 33_540


def test_param_count_big_ram():
    net = build_architecture("big_ram", 18, rng=np.random.default_rng(0))
    # 4*16512 + 2322
    assert net.flat.size == 68_370


def test_param_count_input_only():
    net = make_network([ram_input()], np.random.default_rng(0))
    assert net.flat.size == 0


def layer_net(spec, *in_shapes, params=None):
    """The float64 network `inputs -> spec`: input i is stream f"x{i}" with
    per-sample shape in_shapes[i], and `params`, when given, replace the
    layer's initial weights."""
    specs = [LayerSpec(kind="input", stream=f"x{i}", shape=s) for i, s in enumerate(in_shapes)]
    specs.append(replace(spec, input_refs=tuple(range(len(in_shapes)))))
    net = make_network(specs, np.random.default_rng(0), dtype=np.float64)
    if params is not None:
        net.params[-1] = params
    return net


def dense(W, b, activation="none"):
    return layer_net(LayerSpec(kind="dense", units=len(W), activation=activation),
                     (W.shape[1],), params={"W": W, "b": b})


def conv(kernels, biases, in_shape, stride=1):
    return layer_net(LayerSpec(kind="conv2d", filters=len(kernels), kernel=kernels.shape[2],
                               stride=stride),
                     in_shape, params={"W": kernels, "b": biases})


def test_dense_identity():
    x = np.array([[1.0, -2.0, 3.0]])
    y = forward(dense(np.eye(3), np.zeros(3), "none"), {"x0": x})[-1]["out"]
    np.testing.assert_array_equal(y, x)


def test_dense_rectify():
    x = np.array([[-1.0, 2.0]])
    y = forward(dense(np.eye(2), np.zeros(2), "rectify"), {"x0": x})[-1]["out"]
    np.testing.assert_array_equal(y, [[0.0, 2.0]])


def test_dense_hand_arithmetic():
    W = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([1.0, 1.0])
    y = forward(dense(W, b, "none"), {"x0": np.array([[1.0, 1.0]])})[-1]["out"]
    np.testing.assert_array_equal(y, [[4.0, 8.0]])


def test_dense_shape_mismatch():
    with pytest.raises(ShapeError):
        forward(dense(np.eye(3), np.zeros(3)), {"x0": np.ones((1, 2))})


def test_conv_identity_kernel():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    k = np.ones((1, 1, 1, 1))
    y = forward(conv(k, np.zeros(1), (1, 4, 4), stride=1), {"x0": x})[-1]["out"]
    np.testing.assert_array_equal(y, x)


def test_conv_window_sums():
    x = np.ones((1, 1, 4, 4))
    k = np.ones((1, 1, 2, 2))
    y = forward(conv(k, np.zeros(1), (1, 4, 4), stride=2), {"x0": x})[-1]["out"]
    np.testing.assert_array_equal(y, np.full((1, 1, 2, 2), 4.0))


def test_conv_kernel_too_large():
    with pytest.raises(ShapeError):
        forward(conv(np.ones((1, 1, 5, 5)), np.zeros(1), (1, 3, 3)),
                {"x0": np.ones((1, 1, 3, 3))})


def naive_conv(x, w, b, stride):
    """Valid cross-correlation by its definition, one output cell at a time."""
    n_b, _, h, wd = x.shape
    f, _, k, _ = w.shape
    oh, ow = (h - k) // stride + 1, (wd - k) // stride + 1
    out = np.zeros((n_b, f, oh, ow))
    for n in range(n_b):
        for o in range(f):
            for i in range(oh):
                for j in range(ow):
                    window = x[n, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[n, o, i, j] = np.sum(window * w[o]) + b[o]
    return out


def naive_conv_grads(x, w, g, stride):
    """dW, db and dx of sum(g * conv(x)), accumulated cell by cell."""
    k = w.shape[2]
    dw, dx = np.zeros_like(w), np.zeros_like(x)
    for n, o, i, j in np.ndindex(*g.shape):
        rows = slice(i * stride, i * stride + k)
        cols = slice(j * stride, j * stride + k)
        dw[o] += g[n, o, i, j] * x[n, :, rows, cols]
        dx[n, :, rows, cols] += g[n, o, i, j] * w[o]
    return dw, g.sum(axis=(0, 2, 3)), dx


@st.composite
def conv_cases(draw):
    h = draw(st.integers(1, 9))
    wd = draw(st.integers(1, 9))
    k = draw(st.integers(1, min(h, wd)))
    return (draw(st.integers(1, 3)), draw(st.integers(1, 3)), h, wd,
            draw(st.integers(1, 3)), k, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1)))


# (batch, channels, H, W, filters, k, stride, seed)
@example((2, 3, 6, 5, 2, 1, 1, 0))   # k = 1
@example((1, 2, 5, 7, 3, 5, 1, 1))   # k = H
@example((2, 2, 9, 8, 2, 3, 4, 2))   # stride 4 does not divide H - k = 6
@example((3, 1, 8, 8, 2, 3, 2, 3))   # stride 2 does not divide H - k = 5
@settings(max_examples=40, deadline=None)
@given(conv_cases())
def test_conv_forward_and_backward_match_definition(case):
    n_b, c, h, wd, f, k, stride, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_b, c, h, wd))
    w = rng.standard_normal((f, c, k, k))
    b = rng.standard_normal(f)
    want = naive_conv(x, w, b, stride)
    got = forward(conv(w, b, (c, h, wd), stride=stride), {"x0": x})[-1]["out"]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    # The conv under test (layer 2) reads a 1x1 conv (layer 1), so its input
    # gradient is computed and shows in layer 1's gradients.
    specs = [LayerSpec(kind="input", stream="screen", shape=(2, h, wd)),
             LayerSpec(kind="conv2d", filters=c, kernel=1, input_refs=(0,)),
             LayerSpec(kind="conv2d", filters=f, kernel=k, stride=stride, input_refs=(1,))]
    net = make_network(specs, rng, dtype=np.float64)
    net.params[2] = {"W": w, "b": b}
    x0 = rng.standard_normal((n_b, 2, h, wd))
    g = rng.standard_normal((n_b,) + net.out_shapes[2])
    grads = backward(net, forward(net, {"screen": x0}), g, new_grads(net))

    x1 = naive_conv(x0, net.params[1]["W"], net.params[1]["b"], 1)
    dw2, db2, dx2 = naive_conv_grads(x1, w, g, stride)
    dw1, db1, _ = naive_conv_grads(x0, net.params[1]["W"], dx2, 1)
    for got, ref in ((grads[2]["W"], dw2), (grads[2]["b"], db2),
                     (grads[1]["W"], dw1), (grads[1]["b"], db1)):
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)


def reference_cols(x, k, stride):
    """The window matrix by strided windows: one row per output cell in
    (B, oh, ow) order, one column per input cell in (C, k, k) order."""
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(-1, x.shape[1] * k * k)


# (batch, channels, H, W, filters, k, stride, seed); filters unused
@example((1, 3, 6, 6, 1, 3, 2, 0))   # B = 1
@example((2, 3, 6, 5, 1, 1, 1, 0))   # k = 1
@example((1, 2, 5, 7, 1, 5, 1, 1))   # k = H
@example((2, 2, 9, 8, 1, 3, 4, 2))   # stride 4 does not divide H - k = 6
@example((3, 1, 8, 8, 1, 3, 2, 3))   # stride 2 does not divide H - k = 5
@settings(max_examples=60, deadline=None)
@given(conv_cases())
def test_window_matrix_matches_strided_windows_and_col2im_is_its_adjoint(case):
    n_b, c, h, wd, _, k, stride, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_b, c, h, wd))
    oh, ow = (h - k) // stride + 1, (wd - k) // stride + 1
    want = reference_cols(x, k, stride)
    # A conv layer's output, and so the next conv's input, is channels-last in memory.
    channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    for sample in (x, x.astype(np.float32), channels_last):
        got = conv_cols(sample, k, stride, oh, ow)
        assert got.shape == want.shape and got.dtype == sample.dtype
        np.testing.assert_array_equal(got, want.astype(sample.dtype))

    d = rng.standard_normal(want.shape)
    lhs = np.vdot(conv_cols(x, k, stride, oh, ow), d)
    rhs = np.vdot(x, col2im(d, x, k, stride))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    index = tensor_core._window_index((c, h, wd), k, stride)
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0, 0] = 0


def odd_floats(shape, dtype, rng):
    """Normal draws of `dtype` with -0.0, +-inf, NaNs and signalling NaNs among them."""
    x = rng.standard_normal(shape).astype(dtype).ravel()
    bits = x.view(np.uint32 if x.itemsize == 4 else np.uint64)
    x[::7], x[1::11], x[2::13], x[3::17] = -0.0, np.nan, np.inf, -np.inf
    bits[4::19] |= 1  # a nonzero payload, so that an all-ones exponent makes a NaN
    bits[4::19] |= bits.dtype.type(0xFF800000 if x.itemsize == 4 else 0xFFF0000000000000)
    return x.reshape(shape)


def as_bits(a):
    return a.view(np.uint32 if a.itemsize == 4 else np.uint64)


# (C, H, W), k, stride and the block gcd(k, stride, W) the gather moves
GATHER_CASES = [((4, 20, 20), 8, 4, 4), ((4, 16, 16), 4, 2, 2), ((4, 20, 16), 4, 2, 2),
                ((16, 7, 7), 2, 1, 1), ((2, 24, 16), 8, 8, 8), ((3, 9, 11), 4, 2, 1),
                ((2, 12, 10), 4, 4, 2)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,k,stride,block", GATHER_CASES)
def test_block_gather_matches_element_gather_bitwise(shape, k, stride, block, dtype):
    c, h, w = shape
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    index = tensor_core._window_index(shape, k, stride)
    assert index.shape == (oh * ow, c * k * k // block)
    # The element index: flat positions of each cell's (C, k, k) window.
    win = sliding_window_view(np.arange(c * h * w).reshape(shape), (k, k), axis=(1, 2))
    elements = win[:, ::stride, ::stride].transpose(1, 2, 0, 3, 4).reshape(oh * ow, -1)
    x = odd_floats((3, c, h, w), dtype, np.random.default_rng(h * w + k))
    want = x.reshape(3, -1).take(elements, 1).reshape(3 * oh * ow, -1)
    channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    padded_rows = np.full((3, c, h, w + 3), 7, dtype)
    padded_rows[..., :w] = x
    every_other = np.repeat(x, 2, axis=0)[::2]
    for sample in (x, channels_last, padded_rows[..., :w], every_other):
        got = conv_cols(sample, k, stride, oh, ow)
        assert got.dtype == dtype
        np.testing.assert_array_equal(as_bits(got), as_bits(want))
        out = np.full((3, oh * ow, c * k * k), 5, dtype)
        got = conv_cols(sample, k, stride, oh, ow, out)
        assert np.shares_memory(got, out)
        np.testing.assert_array_equal(as_bits(got), as_bits(want))


def offsets_col2im(dcols, x, k, stride):
    """`_col2im` by its offset loop alone: one strided slice-add per kernel offset."""
    b_, c, h, w = x.shape
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    d = dcols.reshape(b_, oh, ow, c, k, k)
    dx = np.zeros_like(x)
    for di in range(k):
        for dj in range(k):
            dx[:, :, di : di + stride * (oh - 1) + 1 : stride,
               dj : dj + stride * (ow - 1) + 1 : stride] += d[..., di, dj].transpose(0, 3, 1, 2)
    return dx


# (C, H, W), k, stride: fewer output cells than kernel offsets, with k < s, k = s and k > s
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,k,stride", [
    ((2, 7, 7), 3, 4), ((2, 10, 7), 3, 4), ((3, 8, 8), 4, 4), ((2, 12, 8), 4, 4),
    ((4, 4, 4), 4, 2), ((2, 6, 8), 4, 2), ((2, 20, 20), 8, 4), ((1, 4, 5), 3, 1)])
def test_col2im_cell_loop_matches_offset_loop_bitwise(shape, k, stride, dtype):
    c, h, w = shape
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    assert oh * ow < k * k
    rng = np.random.default_rng(h * w + k)
    x = np.zeros((3, c, h, w), dtype)
    d = odd_floats((3 * oh * ow, c * k * k), dtype, rng)
    out = np.full((3, h, w, c), 9, dtype).transpose(0, 3, 1, 2)  # channels-last, stale
    with np.errstate(invalid="ignore"):  # inf + -inf
        want = offsets_col2im(d, x, k, stride)
        gots = col2im(d, x, k, stride), col2im(d, x, k, stride, out)
    for got in gots:
        np.testing.assert_array_equal(as_bits(got), as_bits(want))


def with_identity_after_inputs(net):
    """The same network with a p=0 dropout between each input and its
    readers, so that backward computes the first layers' input gradients.
    Returns the twin and the twin's index of every original layer."""
    specs, params, pos, src = [], [], {}, {}
    for i, spec in enumerate(net.layers):
        specs.append(replace(spec, input_refs=tuple(src[r] for r in spec.input_refs)))
        params.append(net.params[i])
        pos[i] = src[i] = len(specs) - 1
        if spec.kind == "input":
            specs.append(LayerSpec(kind="dropout", input_refs=(pos[i],)))
            params.append(None)
            src[i] = len(specs) - 1
    twin = make_network(specs, np.random.default_rng(0), dtype=net.dtype)
    twin.params = params
    return twin, pos


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_backward_skipping_input_gradients_keeps_param_gradients(arch):
    rng = np.random.default_rng(7)
    net = build_architecture(arch, 5, screen_shape=(20, 20), rng=rng)
    twin, pos = with_identity_after_inputs(net)
    inputs = {"ram": rng.random((4, 128)), "screen": rng.random((4, 4, 20, 20))}
    inputs = {k: v for k, v in inputs.items() if k in net.input_streams}
    g = rng.standard_normal((4, 5))
    grads = backward(net, forward(net, inputs), g, new_grads(net))
    twin_grads = backward(twin, forward(twin, inputs), g, new_grads(twin))
    for i, layer_grads in enumerate(grads):
        if layer_grads is None:
            continue
        for key, value in layer_grads.items():
            np.testing.assert_array_equal(value, twin_grads[pos[i]][key])


def dropout(p, width):
    return layer_net(LayerSpec(kind="dropout", drop_p=p), (width,))


def test_dropout_p_zero_is_identity():
    x = np.arange(6.0).reshape(2, 3)
    for mode in ("train", "eval"):
        out = forward(dropout(0.0, 3), {"x0": x}, mode, np.random.default_rng(0))[-1]["out"]
        np.testing.assert_array_equal(out, x)


def test_dropout_eval_scales_by_keep_probability():
    out = forward(dropout(0.5, 2), {"x0": np.array([[2.0, 4.0]])}, "eval")[-1]["out"][0]
    np.testing.assert_array_equal(out, [1.0, 2.0])


def test_dropout_train_expectation_matches_eval():
    # Monte-Carlo oracle: mean over masks of the train output approaches the
    # eval output (x * (1-p)).
    rng = np.random.default_rng(42)
    x = np.full((1, 10_000), 2.0)
    rec = forward(dropout(0.5, 10_000), {"x0": x}, "train", rng)[-1]
    out, mask = rec["out"], rec["mask"]
    assert abs(out.mean() - 1.0) < 0.05
    np.testing.assert_array_equal(out, x * mask)


def concat(arrays):
    net = layer_net(LayerSpec(kind="concat"), *(a.shape[1:] for a in arrays))
    return forward(net, {f"x{i}": a for i, a in enumerate(arrays)})[-1]["out"]


def test_concat_single_input_identity():
    x = np.array([[1.0, 2.0]])
    np.testing.assert_array_equal(concat([x]), x)


def test_concat_definition():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0]])
    np.testing.assert_array_equal(concat([a, b]), [[1.0, 2.0, 3.0]])


@given(st.lists(st.lists(st.floats(-10, 10), min_size=1, max_size=5),
                min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_concat_length_additivity_and_order(pieces):
    arrays = [np.array([p]) for p in pieces]
    out = concat(arrays)
    assert out.shape[1] == sum(len(p) for p in pieces)
    flat = [v for p in pieces for v in p]
    np.testing.assert_array_equal(out[0], flat)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_rectify_idempotent(values):
    x = np.array(values)
    once = np.maximum(x, 0)
    np.testing.assert_array_equal(np.maximum(once, 0), once)


def test_forward_zero_params_zero_ram():
    net = build_architecture("just_ram", 4, rng=np.random.default_rng(0))
    for p in net.params:
        if p is not None:
            for v in p.values():
                v[...] = 0.0
    acts = forward(net, {"ram": np.zeros((1, 128), dtype=np.float32)})
    np.testing.assert_array_equal(acts[net.terminal]["out"], np.zeros((1, 4)))


def test_forward_output_dim_matches():
    net = build_architecture("big_ram", 6, rng=np.random.default_rng(0))
    acts = forward(net, {"ram": np.random.default_rng(1).random((3, 128))})
    assert acts[net.terminal]["out"].shape == (3, 6)


def test_forward_missing_stream():
    net = build_architecture("just_ram", 4, rng=np.random.default_rng(0))
    with pytest.raises(ShapeError, match="ram"):
        forward(net, {})


def test_forward_deterministic_with_seed():
    net = build_architecture("just_ram", 4, dropout_p=0.5,
                             rng=np.random.default_rng(0))
    x = {"ram": np.random.default_rng(1).random((2, 128))}
    a1 = forward(net, x, mode="train", rng=np.random.default_rng(9))
    a2 = forward(net, x, mode="train", rng=np.random.default_rng(9))
    for r1, r2 in zip(a1, a2):
        np.testing.assert_array_equal(r1["out"], r2["out"])


def test_backward_zero_output_gradient():
    net = build_architecture("just_ram", 4, rng=np.random.default_rng(0))
    x = {"ram": np.random.default_rng(1).random((2, 128))}
    acts = forward(net, x)
    grads = backward(net, acts, np.zeros((2, 4)), new_grads(net))
    for g in grads:
        if g is None:
            continue
        for v in g.values():
            np.testing.assert_array_equal(v, np.zeros_like(v))


def test_backward_single_dense_row_gradient():
    # Scalar loss = y_1: gradient of W row 1 is x, other rows zero.
    specs = [ram_input(), LayerSpec(kind="dense", units=3, input_refs=(0,))]
    net = make_network(specs, np.random.default_rng(0), dtype=np.float64)
    x = np.random.default_rng(2).random((1, 128))
    acts = forward(net, {"ram": x})
    gout = np.array([[0.0, 1.0, 0.0]])
    grads = backward(net, acts, gout, new_grads(net))
    np.testing.assert_allclose(grads[1]["W"][1], x[0])
    np.testing.assert_array_equal(grads[1]["W"][0], np.zeros(128))
    np.testing.assert_array_equal(grads[1]["W"][2], np.zeros(128))
    np.testing.assert_array_equal(grads[1]["b"], [0.0, 1.0, 0.0])


def test_backward_rejects_stale_activations():
    net = build_architecture("just_ram", 4, rng=np.random.default_rng(0))
    acts = forward(net, {"ram": np.random.default_rng(1).random((2, 128))})
    acts[1]["out"] = acts[1]["out"][:, :64]
    with pytest.raises(ShapeError, match="stale"):
        backward(net, acts, np.zeros((2, 4)), new_grads(net))


def mixed_batch(ram_rows=2, screen_rows=2):
    rng = np.random.default_rng(1)
    return {"ram": rng.random((ram_rows, 128)), "screen": rng.random((screen_rows, 4, 16, 16))}


@pytest.mark.parametrize("mode, rng, inputs, error, message", [
    ("train", None, mixed_batch(), ValueError, "train-mode dropout needs an rng"),
    ("test", None, mixed_batch(), ValueError, "unknown mode 'test'"),
    ("eval", None, mixed_batch(screen_rows=3), ShapeError, "input streams disagree on batch size"),
])
def test_forward_refuses_bad_calls(mode, rng, inputs, error, message):
    net = build_architecture("mixed_ram", 3, screen_shape=(16, 16), dropout_p=0.5,
                             rng=np.random.default_rng(0))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        forward(net, inputs, mode, rng)


@pytest.mark.parametrize("cut, gradient_shape, message", [
    (1, (2, 4), "activations do not match the network"),
    (0, (2, 5), "output gradient shape does not match network output"),
    (0, (4,), "output gradient shape does not match network output"),
])
def test_backward_refuses_records_or_a_gradient_that_do_not_fit(cut, gradient_shape, message):
    net = build_architecture("just_ram", 4, rng=np.random.default_rng(0))
    acts = forward(net, {"ram": np.random.default_rng(1).random((2, 128))})
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        backward(net, acts[:len(acts) - cut], np.zeros(gradient_shape), new_grads(net))


def test_gradient_check_exact_for_linear():
    specs = [LayerSpec(kind="input", stream="ram", shape=(1,)),
             LayerSpec(kind="dense", units=1, bias=False, input_refs=(0,))]
    net = make_network(specs, np.random.default_rng(0), dtype=np.float64)
    err = gradient_check(net, {"ram": np.array([[3.0]])}, probes=10,
                         rng=np.random.default_rng(1))
    assert err < 1e-9


def test_gradient_check_just_ram():
    rng = np.random.default_rng(5)
    net = build_architecture("just_ram", 4, rng=rng, dtype=np.float64)
    err = gradient_check(net, {"ram": rng.random((2, 128))}, probes=100, rng=rng)
    assert err < 1e-5


def test_gradient_check_reports_nan_backward(monkeypatch):
    real = tensor_core.backward

    def nan_backward(*args):
        return [None if g is None else {k: np.full_like(v, np.nan) for k, v in g.items()}
                for g in real(*args)]

    monkeypatch.setattr(tensor_core, "backward", nan_backward)
    rng = np.random.default_rng(5)
    net = build_architecture("just_ram", 4, rng=rng, dtype=np.float64)
    err = gradient_check(net, {"ram": rng.random((2, 128))}, probes=10, rng=rng)
    assert np.isnan(err)


def test_gradient_check_reports_nan_when_every_probe_sits_on_a_kink():
    # All-zero weights put every rectifier input at 0 for every parameter, so
    # every probe is skipped: nothing was compared, which must not read as 0.0.
    specs = [LayerSpec(kind="input", stream="ram", shape=(3,)),
             LayerSpec(kind="dense", units=2, activation="rectify", input_refs=(0,))]
    net = make_network(specs, np.random.default_rng(0), dtype=np.float64)
    net.flat[:] = 0.0
    err = gradient_check(net, {"ram": np.ones((2, 3))}, probes=50)
    assert np.isnan(err)


@pytest.mark.parametrize("probes", [0, -5, -1, 2.0, 1.5, True, np.int64(0)])
def test_gradient_check_refuses_a_probe_count_below_one(probes):
    # Checking no coordinate must not read as a perfect match of 0.0.
    specs = [LayerSpec(kind="input", stream="ram", shape=(1,)),
             LayerSpec(kind="dense", units=1, bias=False, input_refs=(0,))]
    net = make_network(specs, np.random.default_rng(0), dtype=np.float64)
    with pytest.raises(ValueError, match="probes must be a positive integer"):
        gradient_check(net, {"ram": np.array([[3.0]])}, probes=probes)


def test_gradient_check_big_mixed_ram_32bit():
    rng = np.random.default_rng(6)
    net = build_architecture("big_mixed_ram", 6, screen_shape=(32, 32),
                             rng=rng, dtype=np.float32)
    inputs = {"ram": rng.random((2, 128)).astype(np.float32),
              "screen": rng.random((2, 4, 32, 32)).astype(np.float32)}
    err = gradient_check(net, inputs, probes=100, rng=rng)
    assert err < 1e-3


def test_dropout_layer_blocks_gradient():
    # Units switched off by the mask must not update their parameters.
    specs = [ram_input(),
             LayerSpec(kind="dense", units=8, activation="rectify", input_refs=(0,)),
             LayerSpec(kind="dropout", drop_p=0.5, input_refs=(1,)),
             LayerSpec(kind="dense", units=2, input_refs=(2,))]
    net = make_network(specs, np.random.default_rng(0), dtype=np.float64)
    x = {"ram": np.abs(np.random.default_rng(3).random((1, 128))) + 0.1}
    acts = forward(net, x, mode="train", rng=np.random.default_rng(4))
    mask = acts[2]["mask"][0]
    grads = backward(net, acts, np.ones((1, 2)), new_grads(net))
    for unit in np.flatnonzero(mask == 0.0):
        np.testing.assert_array_equal(grads[1]["W"][unit], np.zeros(128))
        assert grads[1]["b"][unit] == 0.0


def views_alias(net):
    """True when every parameter of `net` is a view of its own vector."""
    return all(np.shares_memory(v, net.flat) for p in net.params for v in (p or {}).values())


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_parameters_are_views_of_one_vector(arch):
    net = build_architecture(arch, 5, screen_shape=(20, 20), rng=np.random.default_rng(3))
    assert views_alias(net)
    pieces = [p[k].ravel() for p in net.params if p for k in sorted(p)]
    np.testing.assert_array_equal(np.concatenate(pieces), net.flat)


def test_deep_copy_holds_one_copy_of_each_parameter_byte():
    net = build_architecture("nips", 3, screen_shape=(24, 24), rng=np.random.default_rng(0))
    tracemalloc.start()
    try:
        twin = copy.deepcopy(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The copy's own vector, plus a little for the dicts, specs and views.
    assert net.flat.nbytes <= peak < net.flat.nbytes + 64 * 1024
    assert views_alias(twin) and not np.shares_memory(twin.flat, net.flat)
    assert twin.flat.dtype == net.flat.dtype and twin.flat.tobytes() == net.flat.tobytes()
    twin.params[1]["W"][...] = np.nan
    assert np.isnan(twin.flat).any() and np.isfinite(net.flat).all()
    assert twin.layers == net.layers and twin.layers is not net.layers


def test_gradient_check_shadow_does_not_carry_the_float32_vector(monkeypatch):
    net = build_architecture("just_ram", 4, rng=np.random.default_rng(5))
    seen = []
    real = tensor_core.forward

    def recording_forward(graph, *args, **kwargs):
        seen.append(graph)
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(tensor_core, "forward", recording_forward)
    inputs = {"ram": np.random.default_rng(6).random((2, 128))}
    assert gradient_check(net, inputs, probes=5, rng=np.random.default_rng(7)) < 1e-5
    shadows = [g for g in seen if g is not net]
    assert shadows and all(g is shadows[0] for g in shadows)
    shadow = shadows[0]
    assert shadow.dtype == np.float64 and shadow.flat.dtype == np.float64
    assert views_alias(shadow) and not np.shares_memory(shadow.flat, net.flat)
    np.testing.assert_array_equal(shadow.flat, net.flat.astype(np.float64))


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_backward_writes_into_given_gradient_views(arch):
    rng = np.random.default_rng(8)
    net = build_architecture(arch, 5, screen_shape=(20, 20), rng=rng)
    inputs = {"ram": rng.random((3, 128)), "screen": rng.random((3, 4, 20, 20))}
    inputs = {k: v for k, v in inputs.items() if k in net.input_streams}
    g = rng.standard_normal((3, 5))
    acts = forward(net, inputs)
    fresh = backward(net, acts, g, new_grads(net))
    vector = np.full_like(net.flat, np.nan)
    views = tensor_core.param_views(net.params, vector)
    assert backward(net, acts, g, views) is views
    assert not np.isnan(vector).any()  # every parameter's gradient was written
    for got, want in zip(views, fresh):
        assert (got is None) == (want is None)
        for key in want or {}:
            assert got[key].tobytes() == want[key].tobytes()


@pytest.mark.parametrize("env_name", sorted(ENV_REGISTRY))
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_dense_product_in_either_operand_order_gives_the_same_bits(arch, env_name):
    # A train step's dense forwards compute (W @ x.T).T, which BLAS runs
    # faster than x @ W.T; the two must agree bit for bit on a sample-major x.
    env = make_env(env_name)
    net = build_architecture(arch, env.action_count, screen_shape=env.screen_shape,
                             rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    dense = [net.params[i]["W"] for i, spec in enumerate(net.layers) if spec.kind == "dense"]
    for w in dense:
        for rows in (1, 2, 17, 31, 32):
            x = rng.standard_normal((rows, w.shape[1])).astype(net.dtype)
            swapped = np.matmul(w, x.T, out=np.empty((len(w), rows), net.dtype))
            assert swapped.T.tobytes() == (x @ w.T).tobytes(), (w.shape, rows)


@pytest.mark.parametrize("env_name", sorted(ENV_REGISTRY))
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_one_row_dense_product_by_dot_gives_the_same_bits(arch, env_name):
    # An acting forward's dense layers compute np.dot(x, W.T) on their one row, which
    # dispatches faster than matmul; it must give x @ W.T's bits.
    env = make_env(env_name)
    net = build_architecture(arch, env.action_count, screen_shape=env.screen_shape,
                             rng=np.random.default_rng(0))
    rng = np.random.default_rng(2)
    dense = [net.params[i]["W"] for i, spec in enumerate(net.layers) if spec.kind == "dense"]
    for w in dense:
        for _ in range(20):
            x = rng.standard_normal((1, w.shape[1])).astype(net.dtype)
            out = np.dot(x, w.T, out=np.empty((1, len(w)), net.dtype))
            assert out.tobytes() == (x @ w.T).tobytes(), w.shape


def screen_batch(rows, shape=(4, 24, 24), seed=1):
    return {"screen": np.random.default_rng(seed).random((rows,) + shape).astype(np.float32)}


def test_a_deep_copy_gets_its_own_program():
    net = build_architecture("nips", 3, screen_shape=(24, 24), rng=np.random.default_rng(0))
    x = screen_batch(2)
    forward(net, x)  # the original's program is built
    twin = copy.deepcopy(net)
    want = forward(twin, x)[-1]["out"].copy()
    assert twin.program is not net.program
    net.flat += 1.0  # in place: the original's program sees it, the copy's must not
    assert forward(twin, x)[-1]["out"].tobytes() == want.tobytes()
    assert forward(net, x)[-1]["out"].tobytes() != want.tobytes()


def test_the_gradient_check_shadow_gets_its_own_program(monkeypatch):
    net = build_architecture("nips", 3, screen_shape=(24, 24), rng=np.random.default_rng(0))
    x = screen_batch(2)
    forward(net, x)
    seen, real = [], tensor_core.forward

    def recording_forward(graph, *args, **kwargs):
        seen.append(graph)
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(tensor_core, "forward", recording_forward)
    gradient_check(net, x, probes=3, rng=np.random.default_rng(7))
    shadow = next(g for g in seen if g is not net)
    assert shadow.program is not net.program
    for step in shadow.program.layers:
        assert np.shares_memory(step.W, shadow.flat) and not np.shares_memory(step.W, net.flat)
    want = real(shadow, x)[-1]["out"].copy()
    net.flat += 1.0
    assert real(shadow, x)[-1]["out"].tobytes() == want.tobytes()


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_forwards_without_a_workspace_share_no_array(arch):
    net = build_architecture(arch, 5, screen_shape=(20, 20), dropout_p=0.5,
                             rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    x = {"ram": rng.random((3, 128)).astype(np.float32),
         "screen": rng.random((3, 4, 20, 20)).astype(np.float32)}
    x = {k: v for k, v in x.items() if k in net.input_streams}
    for mode in ("eval", "train"):
        a1 = forward(net, x, mode, np.random.default_rng(9))
        a2 = forward(net, x, mode, np.random.default_rng(9))
        owned = [(spec.kind, key, value, r2[key]) for spec, r1, r2 in zip(net.layers, a1, a2)
                 for key, value in r1.items() if isinstance(value, np.ndarray)
                 and not any(np.shares_memory(value, v) for v in x.values())]  # not the caller's
        assert len(owned) > 3
        for kind, key, value, twin in owned:
            assert not np.shares_memory(value, twin), (kind, key)


def test_a_workspace_shared_across_dtypes_gives_each_forward_its_own_dtype():
    # The view cache left the dtype out of its key: after two float32 forwards at
    # batch 4, a float64 forward on the same workspace ran layers 1-3 in float32.
    nets = {dtype: build_architecture("just_ram", 4, rng=np.random.default_rng(2), dtype=dtype)
            for dtype in (np.float32, np.float64)}
    x = {"ram": np.random.default_rng(3).random((4, 128))}
    workspace = tensor_core.Workspace()
    for _ in range(2):
        forward(nets[np.float32], x, workspace=workspace)
    shared = forward(nets[np.float64], x, workspace=workspace)
    own = forward(nets[np.float64], x, workspace=tensor_core.Workspace())
    assert [rec["out"].dtype for rec in shared] == [np.float64] * len(shared)
    assert shared[-1]["out"].tobytes() == own[-1]["out"].tobytes()


def frame_inputs(net, rows, seed):
    rng = np.random.default_rng(seed)
    return {stream: rng.random((rows,) + net.out_shapes[i])
            for stream, i in net.input_streams.items()}


def assert_records_equal(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.keys() == b.keys(), i
        for key in a:
            if isinstance(a[key], np.ndarray):
                assert a[key].dtype == b[key].dtype and a[key].shape == b[key].shape, (i, key)
                assert a[key].tobytes() == b[key].tobytes(), (i, key)
            else:
                assert a[key] == b[key], (i, key)


def kept_and_fresh(net, workspace, rows, mode, seed):
    """Records and a following backward's gradients in `workspace`, and the same in new
    workspaces, on one batch of inputs and one dropout draw."""
    x, g = frame_inputs(net, rows, seed), np.random.default_rng(seed).random((rows, 5))
    out = []
    for ws in (workspace, tensor_core.Workspace()):
        acts = forward(net, x, mode, np.random.default_rng(seed), ws)
        out.append((acts, backward(net, acts, g, new_grads(net), ws)))
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_a_kept_workspace_gives_the_records_and_gradients_of_new_ones_bitwise(arch, dtype):
    # One frame per batch size and mode, kept; buffers grow under the batch-1 frame.
    net = build_architecture(arch, 5, screen_shape=(20, 20), dropout_p=0.25,
                             rng=np.random.default_rng(3), dtype=dtype)
    workspace = tensor_core.Workspace()
    for seed, (rows, mode) in enumerate([(1, "eval"), (5, "eval"), (32, "eval"), (3, "eval"),
                                         (32, "train"), (1, "eval")]):
        (acts, grads), (want_acts, want_grads) = kept_and_fresh(net, workspace, rows, mode, seed)
        assert_records_equal(acts, want_acts)
        assert acts[net.terminal]["out"].dtype == dtype
        for layer, want in zip(grads, want_grads):
            for key in want or {}:
                assert layer[key].tobytes() == want[key].tobytes(), (seed, key)
    # The backward at batch 32 grew buffers, and so dropped every frame made before it.
    assert {key[1:] for key in workspace.frames} == {(3, "eval"), (32, "train"), (1, "eval")}


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_a_batch_0_forward_returns_no_rows(arch):
    net = build_architecture(arch, 5, screen_shape=(20, 20), rng=np.random.default_rng(3))
    workspace = tensor_core.Workspace()
    for rows in (0, 2, 0):
        assert forward(net, frame_inputs(net, rows, 0), workspace=workspace)[-1]["out"].shape \
            == (rows, 5)


def test_a_workspace_shared_by_two_networks_keeps_a_frame_for_each():
    nets = [build_architecture("mixed_ram", 5, screen_shape=(20, 20), rng=np.random.default_rng(s))
            for s in (1, 2)]
    workspace = tensor_core.Workspace()
    for seed in range(3):
        for net in nets:
            (acts, grads), (want_acts, want_grads) = kept_and_fresh(net, workspace, 4, "eval",
                                                                    seed)
            assert_records_equal(acts, want_acts)
            assert grads[-1]["W"].tobytes() == want_grads[-1]["W"].tobytes()
    assert {key[0] for key in workspace.frames} == {net.program for net in nets}


def test_a_frame_built_before_a_buffer_grows_runs_on_the_grown_buffers():
    # A growth drops every frame, so a later call binds the new buffers; an old frame
    # would keep the old ones alive beside them.
    net = build_architecture("big_mixed_ram", 5, screen_shape=(20, 20),
                             rng=np.random.default_rng(3))
    workspace = tensor_core.Workspace()
    forward(net, frame_inputs(net, 3, 0), workspace=workspace)
    forward(net, frame_inputs(net, 8, 1), workspace=workspace)  # every buffer grows
    (acts, _), (want_acts, _) = kept_and_fresh(net, workspace, 3, "eval", 2)
    assert_records_equal(acts, want_acts)
    for rec in acts[2:]:
        assert any(np.shares_memory(rec["out"], buf) for buf in workspace.buffers.values())


def test_an_input_record_holds_this_calls_input():
    # backward reads the first dense layer's input from its record "x" for dW.
    net = build_architecture("just_ram", 5, rng=np.random.default_rng(3))
    workspace = tensor_core.Workspace()
    first = forward(net, frame_inputs(net, 2, 0), workspace=workspace)
    x = frame_inputs(net, 2, 1)
    second = forward(net, x, workspace=workspace)
    assert second is first  # the frame's records, refilled
    want = x["ram"].astype(np.float32)
    assert second[0]["out"].tobytes() == second[1]["x"].tobytes() == want.tobytes()


def test_a_warm_conv_gather_does_not_copy_its_window_index():
    # numpy's take copies an index that is not writeable on every call: 12.5 KiB
    # for nips conv1 on micro_catch's screen, with the cached read-only index.
    env = make_env("micro_catch")
    net = build_architecture("nips", env.action_count, screen_shape=env.screen_shape,
                             rng=np.random.default_rng(0))
    x, workspace = screen_batch(32, (4,) + env.screen_shape), tensor_core.Workspace()
    forward(net, x, workspace=workspace)
    conv1 = net.program.layers[0]
    cols = workspace.take(conv1.i, "x", (32, 49, 64), net.dtype)  # 7 x 7 cells of 4 x 4 x 4

    def traced_gather(index):
        tracemalloc.start()
        try:
            tensor_core._conv_cols(x["screen"], index, cols)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    read_only = tensor_core._window_index(conv1.in_shape, conv1.spec.kernel, conv1.spec.stride)
    assert conv1.index.flags.writeable and np.array_equal(conv1.index, read_only)
    assert traced_gather(conv1.index) < 1024
    assert traced_gather(read_only) > 8 * 1024


@pytest.mark.parametrize("env_name", ["micro_catch", "micro_diver"])
@pytest.mark.parametrize("dropout_p", [0.0, 0.25])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_a_bound_backward_gives_the_gradients_of_a_fresh_one_bitwise(arch, dropout_p, env_name):
    # One workspace and one set of gradient arrays, as in a training epoch: forwards at
    # a full batch, at 29 live rows and at 1 row, each backward run twice on its records.
    env = make_env(env_name)
    net = build_architecture(arch, env.action_count, screen_shape=env.screen_shape,
                             dropout_p=dropout_p, rng=np.random.default_rng(3))
    mode = "train" if dropout_p else "eval"
    workspace, grads = tensor_core.Workspace(), new_grads(net)
    for seed, rows in enumerate([32, 29, 1, 32, 29, 1]):
        x, rng = frame_inputs(net, rows, seed), np.random.default_rng(seed)
        g = rng.standard_normal((rows, net.output_dim)).astype(net.dtype)
        acts = forward(net, x, mode, np.random.default_rng(seed), workspace)
        for _ in range(2):
            got = backward(net, acts, g, grads, workspace)
        fresh = forward(net, x, mode, np.random.default_rng(seed))
        want = backward(net, fresh, g, new_grads(net))
        for layer, expected in zip(got, want):
            for key in expected or {}:
                assert layer[key].tobytes() == expected[key].tobytes(), (rows, key)


def test_a_second_backward_on_the_same_records_and_gradients_reuses_its_calls():
    net = build_architecture("big_mixed_ram", 5, screen_shape=(20, 20), dropout_p=0.25,
                             rng=np.random.default_rng(3))
    workspace, grads, g = tensor_core.Workspace(), new_grads(net), np.ones((4, 5))
    acts = forward(net, frame_inputs(net, 4, 0), "train", np.random.default_rng(0), workspace)
    backward(net, acts, g, grads, workspace)
    (frame,) = workspace.frames.values()
    bound, calls = frame.backward, frame.backward.calls
    assert bound.recs is acts and bound.grads is grads
    # The frame's records, refilled by a later forward, keep the same calls.
    assert forward(net, frame_inputs(net, 4, 1), "train", np.random.default_rng(1),
                   workspace) is acts
    backward(net, acts, 2 * g, grads, workspace)
    assert frame.backward is bound and bound.calls is calls
    # Other gradient arrays get calls of their own, kept in their place.
    other = new_grads(net)
    backward(net, acts, g, other, workspace)
    assert frame.backward is not bound and frame.backward.grads is other


def test_a_bound_backward_still_checks_each_call_before_it_runs():
    net = build_architecture("just_ram", 4, rng=np.random.default_rng(0))
    workspace, grads = tensor_core.Workspace(), new_grads(net)
    acts = forward(net, {"ram": np.random.default_rng(1).random((2, 128))}, workspace=workspace)
    g = np.random.default_rng(2).standard_normal((2, 4))
    want = [None if p is None else {k: v.copy() for k, v in p.items()}
            for p in backward(net, acts, g, grads, workspace)]
    (frame,) = workspace.frames.values()
    stale = list(acts)
    stale[1] = dict(acts[1], out=acts[1]["out"][:, :64])
    for records, gradient, message in [(acts[:-1], g, "activations do not match the network"),
                                       (stale, g, "layer 1: stale activations (shape drift)"),
                                       (acts, np.zeros((2, 5)), "output gradient shape does "
                                                                "not match network output")]:
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            backward(net, records, gradient, grads, workspace)
    # A plain copy of the records passes, and gets calls of its own that are not kept.
    copied = backward(net, list(acts), g, new_grads(net), workspace)
    assert frame.backward.recs is acts
    for layer, expected in zip(copied, want):
        for key in expected or {}:
            assert layer[key].tobytes() == expected[key].tobytes(), key


def test_a_layer_read_twice_gets_the_sum_of_both_gradients():
    specs = [ram_input(), LayerSpec(kind="dense", units=6, activation="rectify", input_refs=(0,)),
             LayerSpec(kind="concat", input_refs=(1, 1)),
             LayerSpec(kind="dense", units=3, input_refs=(2,))]
    net = make_network(specs, np.random.default_rng(0), dtype=np.float64)
    x = {"ram": np.random.default_rng(1).random((4, 128))}
    assert gradient_check(net, x, probes=40, rng=np.random.default_rng(2)) < 1e-8


def special_floats(dtype):
    """+-0, NaNs of either sign, quiet and signalling, +-inf, subnormals and extremes."""
    info = np.finfo(dtype)
    tiny, signalling = info.smallest_subnormal, np.array([np.inf, -np.inf], dtype)
    as_bits(signalling)[:] |= 1  # an all-ones exponent with a payload, quiet bit clear
    return np.concatenate([np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                                     3 * tiny, -3 * tiny, info.tiny / 2, -info.tiny / 2,
                                     info.tiny, -info.tiny, info.max, -info.max, 1.0, -1.0],
                                    dtype), signalling])


def fast_path_operands(dtype):
    """Arrays of float `dtype` shaped as layer outputs and their SIMD tails: the special
    values tiled, and normal draws with the special values scattered among them."""
    rng, special = np.random.default_rng(7), special_floats(dtype)
    for shape in [(1,), (7,), (1, 18), (33,), (32, 256), (49, 16), (1, 4)]:
        yield np.resize(special, shape)
        yield odd_floats(shape, dtype, rng)
        mixed = rng.standard_normal(shape).astype(dtype)
        mixed.ravel()[rng.integers(mixed.size, size=mixed.size // 2 + 1)] = \
            rng.choice(special, mixed.size // 2 + 1)
        yield mixed


# The bound calls run numpy's fast twins of three slow paths; each must give the same bits.
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_rectifier_against_a_zero_array_gives_the_bits_of_one_against_a_scalar_zero(dtype):
    for x in fast_path_operands(dtype):
        zeros, want = np.zeros_like(x), np.maximum(x, dtype(0))
        assert as_bits(np.maximum(x, zeros)).tobytes() == as_bits(want).tobytes()
        out = x.copy()
        np.maximum(out, zeros, out=out)
        assert as_bits(out).tobytes() == as_bits(want).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_copyto_gives_the_bits_of_np_positive(dtype):
    for x in fast_path_operands(dtype):
        for src in (x, x.T):  # contiguous, and a transposed view as a conv's output
            copied, positive = np.empty_like(src), np.empty_like(src)
            np.copyto(copied, src)
            np.positive(src, positive)
            assert as_bits(copied).tobytes() == as_bits(positive).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_bias_row_gives_the_bits_of_a_one_dimensional_bias(dtype):
    rng = np.random.default_rng(8)
    for x in fast_path_operands(dtype):
        x = x.reshape(-1, x.shape[-1])
        for b in (odd_floats(x.shape[-1:], dtype, rng), np.resize(special_floats(dtype)[::-1],
                                                                   x.shape[-1])):
            row, flat = np.empty_like(x), np.empty_like(x)
            with np.errstate(invalid="ignore", over="ignore"):
                np.add(x, b.reshape(1, -1), row)
                np.add(x, b, flat)
            assert as_bits(row).tobytes() == as_bits(flat).tobytes()


def slow_paths(calls):
    """The bound calls that take one of numpy's slow paths: np.positive, or a rectifier's
    np.maximum with an operand that is not an array of its output's shape.  The backward's
    np.greater keeps its scalar 0, which is faster at the batch-32 masks training builds."""
    return [call for call in calls if call.func is np.positive
            or call.func is np.maximum and not all(
                isinstance(a, np.ndarray) and a.shape == call.args[0].shape for a in call.args)]


@pytest.mark.parametrize("env_name", ["micro_catch", "micro_diver"])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_bound_forwards_and_backwards_take_no_slow_path(arch, env_name):
    env = make_env(env_name)
    net = build_architecture(arch, env.action_count, screen_shape=env.screen_shape,
                             dropout_p=0.25, rng=np.random.default_rng(3))
    for rows in (1, 32):
        for mode in ("eval", "train"):
            workspace = tensor_core.Workspace()
            acts = forward(net, frame_inputs(net, rows, 0), mode, np.random.default_rng(0),
                           workspace)
            backward(net, acts, np.ones((rows, net.output_dim)), new_grads(net), workspace)
            (frame,) = workspace.frames.values()
            rectifiers = [c for c in frame.calls + frame.backward.calls
                          if c.func in (np.maximum, np.greater)]
            assert len(rectifiers) == 2 * sum(s.activation == "rectify" for s in net.layers)
            assert slow_paths(frame.calls) == [] and slow_paths(frame.backward.calls) == []
