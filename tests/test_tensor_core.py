import copy
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
    param_count,
)
from ramdqn.agents import ARCHITECTURES, build_architecture


def ram_input():
    return LayerSpec(kind="input", stream="ram", shape=(128,))


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


def test_param_count_just_ram():
    net = build_architecture("just_ram", 4, rng=np.random.default_rng(0))
    # 2*(128*128+128) + 128*4+4
    assert param_count(net) == 33_540


def test_param_count_big_ram():
    net = build_architecture("big_ram", 18, rng=np.random.default_rng(0))
    # 4*16512 + 2322
    assert param_count(net) == 68_370


def test_param_count_input_only():
    net = make_network([ram_input()], np.random.default_rng(0))
    assert param_count(net) == 0


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
    grads = backward(net, forward(net, {"screen": x0}), g)

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
        got = tensor_core._conv_cols(sample, k, stride, oh, ow)
        assert got.shape == want.shape and got.dtype == sample.dtype
        np.testing.assert_array_equal(got, want.astype(sample.dtype))

    d = rng.standard_normal(want.shape)
    lhs = np.vdot(tensor_core._conv_cols(x, k, stride, oh, ow), d)
    rhs = np.vdot(x, tensor_core._col2im(d, x, k, stride))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    index = tensor_core._window_index((c, h, wd), k, stride)
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0, 0] = 0


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
    grads = backward(net, forward(net, inputs), g)
    twin_grads = backward(twin, forward(twin, inputs), g)
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
    grads = backward(net, acts, np.zeros((2, 4)))
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
    grads = backward(net, acts, gout)
    np.testing.assert_allclose(grads[1]["W"][1], x[0])
    np.testing.assert_array_equal(grads[1]["W"][0], np.zeros(128))
    np.testing.assert_array_equal(grads[1]["W"][2], np.zeros(128))
    np.testing.assert_array_equal(grads[1]["b"], [0.0, 1.0, 0.0])


def test_backward_rejects_stale_activations():
    net = build_architecture("just_ram", 4, rng=np.random.default_rng(0))
    acts = forward(net, {"ram": np.random.default_rng(1).random((2, 128))})
    acts[1]["out"] = acts[1]["out"][:, :64]
    with pytest.raises(ShapeError, match="stale"):
        backward(net, acts, np.zeros((2, 4)))


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
    err = gradient_check(net, {"ram": rng.random((2, 128))}, step=1e-5,
                         probes=100, rng=rng)
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


def test_gradient_check_big_mixed_ram_32bit():
    rng = np.random.default_rng(6)
    net = build_architecture("big_mixed_ram", 6, screen_shape=(32, 32),
                             rng=rng, dtype=np.float32)
    inputs = {"ram": rng.random((2, 128)).astype(np.float32),
              "screen": rng.random((2, 4, 32, 32)).astype(np.float32)}
    err = gradient_check(net, inputs, step=1e-5, probes=100, rng=rng)
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
    grads = backward(net, acts, np.ones((1, 2)))
    for unit in np.flatnonzero(mask == 0.0):
        np.testing.assert_array_equal(grads[1]["W"][unit], np.zeros(128))
        assert grads[1]["b"][unit] == 0.0


def views_alias(net):
    """True when every parameter of `net` is a view of its own vector."""
    return all(np.shares_memory(v, net.flat) for p in net.params for v in (p or {}).values())


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_parameters_are_views_of_one_vector(arch):
    net = build_architecture(arch, 5, screen_shape=(20, 20), rng=np.random.default_rng(3))
    assert views_alias(net) and net.flat.size == param_count(net)
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
    fresh = backward(net, acts, g)
    vector = np.full_like(net.flat, np.nan)
    views = tensor_core.param_views(net.params, vector)
    assert backward(net, acts, g, views) is views
    assert not np.isnan(vector).any()  # every parameter's gradient was written
    for got, want in zip(views, fresh):
        assert (got is None) == (want is None)
        for key in want or {}:
            assert got[key].tobytes() == want[key].tobytes()
