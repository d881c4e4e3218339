"""Minimal network engine: dense, conv2d, dropout, concat layers with exact
reverse-mode gradients.

Tensors are plain numpy arrays in row-major order with a leading batch
dimension.  Forward retains every layer output so backward can compute exact
gradients; a finite-difference checker (`gradient_check`) serves as the
independent oracle for the handwritten backward pass.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

Tensor = np.ndarray

KINDS = ("input", "dense", "conv2d", "dropout", "concat")
ACTIVATIONS = ("rectify", "none")


class ShapeError(ValueError):
    """Raised when layer shapes do not compose."""


@dataclass
class LayerSpec:
    """Declaration of a single layer.

    kind "input" layers carry a stream name ("ram" or "screen") and a
    per-sample shape; all other kinds reference upstream layers by index.
    """

    kind: str
    activation: str = "none"
    units: int = 0
    filters: int = 0
    kernel: int = 0
    stride: int = 1
    drop_p: float = 0.0
    input_refs: tuple = ()
    stream: str = ""
    shape: tuple = ()
    bias: bool = True


@dataclass
class NetworkGraph:
    """Ordered layer composition with parameters.

    `flat` is the one vector holding every parameter, layer by layer with
    keys sorted; params[i] is None for parameterless layers, otherwise a
    dict with "W" and (optionally) "b" views of it.  out_shapes holds the
    per-sample output shape of every layer; terminal is the index of the
    unique output layer.
    """

    layers: list
    params: list
    out_shapes: list
    terminal: int
    output_dim: int
    dtype: np.dtype
    flat: np.ndarray
    input_streams: dict = field(default_factory=dict)

    def __deepcopy__(self, memo):
        # Each parameter byte is copied once, into the copy's own vector.
        flat, params = _pack(self.params, self.dtype)
        rest = copy.deepcopy({"layers": self.layers, "out_shapes": self.out_shapes,
                              "input_streams": self.input_streams}, memo)
        return replace(self, flat=flat, params=params, **rest)


def _flat(shape):
    return int(np.prod(shape)) if shape else 1


def param_views(params, vector):
    """Per-layer dicts shaped as `params`, viewing consecutive pieces of
    `vector` layer by layer with keys sorted."""
    views, offset = [], 0
    for p in params:
        views.append(None if p is None else {})
        for key in sorted(p or {}):
            n = p[key].size
            views[-1][key] = vector[offset : offset + n].reshape(p[key].shape)
            offset += n
    return views


def _pack(params, dtype):
    """`params` copied into one new `dtype` vector, and per-layer views of it."""
    flat = np.concatenate([np.zeros(0, dtype)] + [p[k].ravel() for p in params if p
                                                 for k in sorted(p)], dtype=dtype)
    return flat, param_views(params, flat)


def _conv_extent(size, kernel, stride):
    return (size - kernel) // stride + 1


def make_network(specs, init_rng, dtype=np.float32):
    """Validate a layer DAG, allocate and initialize its parameters.

    Weights are drawn uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases start
    at zero.  Raises ShapeError naming the offending layer index.
    """
    specs = list(specs)
    if not specs:
        raise ShapeError("no output layer")
    dtype = np.dtype(dtype)

    out_shapes = []
    params = []
    referenced = set()
    streams = {}
    for i, spec in enumerate(specs):
        if spec.kind not in KINDS:
            raise ShapeError(f"layer {i}: unknown kind {spec.kind!r}")
        if spec.activation not in ACTIVATIONS:
            raise ShapeError(f"layer {i}: unknown activation {spec.activation!r}")
        for r in spec.input_refs:
            if not 0 <= r < i:
                raise ShapeError(f"layer {i}: bad input ref {r}")
            referenced.add(r)

        weights = None
        if spec.kind == "input":
            if spec.input_refs:
                raise ShapeError(f"layer {i}: input layer takes no refs")
            if not spec.stream or not spec.shape:
                raise ShapeError(f"layer {i}: input layer needs stream and shape")
            if spec.stream in streams:
                raise ShapeError(f"layer {i}: duplicate input stream {spec.stream!r}")
            streams[spec.stream] = i
            out_shapes.append(tuple(spec.shape))
        elif spec.kind == "dense":
            if len(spec.input_refs) != 1:
                raise ShapeError(f"layer {i}: dense takes exactly one input")
            if spec.units <= 0:
                raise ShapeError(f"layer {i}: dense needs positive units")
            weights = (spec.units, _flat(out_shapes[spec.input_refs[0]]))
            out_shapes.append((spec.units,))
        elif spec.kind == "conv2d":
            if len(spec.input_refs) != 1:
                raise ShapeError(f"layer {i}: conv2d takes exactly one input")
            in_shape = out_shapes[spec.input_refs[0]]
            if len(in_shape) != 3:
                raise ShapeError(f"layer {i}: conv2d needs a channels x H x W input")
            c, h, w = in_shape
            k, s = spec.kernel, spec.stride
            if spec.filters <= 0 or k <= 0 or s <= 0:
                raise ShapeError(f"layer {i}: bad conv2d hyperparameters")
            if k > h or k > w:
                raise ShapeError(f"layer {i}: kernel {k} larger than input {h}x{w}")
            oh, ow = _conv_extent(h, k, s), _conv_extent(w, k, s)
            if oh < 1 or ow < 1:
                raise ShapeError(f"layer {i}: empty conv2d output")
            weights = (spec.filters, c, k, k)
            out_shapes.append((spec.filters, oh, ow))
        elif spec.kind == "dropout":
            if len(spec.input_refs) != 1:
                raise ShapeError(f"layer {i}: dropout takes exactly one input")
            if not 0.0 <= spec.drop_p < 1.0:
                raise ShapeError(f"layer {i}: drop probability must be in [0,1)")
            out_shapes.append(out_shapes[spec.input_refs[0]])
        else:  # concat
            if not spec.input_refs:
                raise ShapeError(f"layer {i}: concat needs at least one input")
            out_shapes.append((sum(_flat(out_shapes[r]) for r in spec.input_refs),))
        params.append(None)
        if weights is not None:  # (fan-out, fan-in...)
            fan_in = _flat(weights[1:])
            w = init_rng.uniform(-1.0, 1.0, size=weights) / np.sqrt(fan_in)
            params[i] = {"W": w.astype(dtype)}
            if spec.bias:
                params[i]["b"] = np.zeros(weights[0], dtype=dtype)

    terminals = [i for i in range(len(specs)) if i not in referenced]
    if len(terminals) != 1:
        raise ShapeError(f"expected exactly one output layer, found {len(terminals)}")
    terminal = terminals[0]
    flat, params = _pack(params, dtype)
    return NetworkGraph(layers=specs, params=params, out_shapes=out_shapes, terminal=terminal,
                        output_dim=_flat(out_shapes[terminal]), dtype=dtype, flat=flat,
                        input_streams=streams)


def _activate(pre, activation):
    return np.maximum(pre, 0) if activation == "rectify" else pre


@lru_cache(maxsize=None)
def _window_index(shape, k, stride):
    """Read-only flat positions in a (C, H, W) sample of each output cell's (C, k, k) window."""
    win = sliding_window_view(np.arange(_flat(shape)).reshape(shape), (k, k), axis=(1, 2))
    index = win[:, ::stride, ::stride].transpose(1, 2, 0, 3, 4).reshape(-1, shape[0] * k * k)
    index.flags.writeable = False
    return index


def _conv_cols(x, k, stride, oh, ow):
    """Unrolled windows of x (B, C, H, W) (Chellapilla et al. 2006): a
    (B*oh*ow, C*k*k) matrix, one row per output cell in (B, oh, ow) order."""
    index = _window_index(x.shape[1:], k, stride)
    return x.reshape(len(x), -1).take(index, axis=1).reshape(len(x) * oh * ow, -1)


def _conv_forward(kernels, biases, x, stride):
    """Pre-activation (B, F, oh, ow) output and the window matrix behind it."""
    f, _, k, _ = kernels.shape
    b_, _, h, w = x.shape
    oh, ow = _conv_extent(h, k, stride), _conv_extent(w, k, stride)
    cols = _conv_cols(x, k, stride, oh, ow)
    out = cols @ kernels.reshape(f, -1).T
    if biases is not None:
        out += biases
    return out.reshape(b_, oh, ow, f).transpose(0, 3, 1, 2), cols


def _col2im(dcols, x, k, stride):
    """Adjoint of `_conv_cols`: the gradient w.r.t. x (B, C, H, W) from the
    gradient w.r.t. its window matrix, one strided slice-add per offset."""
    b_, c, h, w = x.shape
    oh, ow = _conv_extent(h, k, stride), _conv_extent(w, k, stride)
    d = dcols.reshape(b_, oh, ow, c, k, k)
    dx = np.zeros_like(x)
    for di in range(k):
        for dj in range(k):
            dx[:, :, di : di + stride * (oh - 1) + 1 : stride,
               dj : dj + stride * (ow - 1) + 1 : stride] += d[..., di, dj].transpose(0, 3, 1, 2)
    return dx


def forward(net, inputs, mode="eval", rng=None):
    """Run the graph on named batched inputs; returns all layer records.

    Each record keeps the layer output plus whatever backward needs
    (pre-activation, dropout mask, the input as a matrix).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    batch = None
    acts = []
    for i, spec in enumerate(net.layers):
        rec = {}
        if spec.kind == "input":
            if spec.stream not in inputs:
                raise ShapeError(f"missing input stream {spec.stream!r}")
            x = np.asarray(inputs[spec.stream], dtype=net.dtype)
            if x.shape[1:] != net.out_shapes[i]:
                raise ShapeError(
                    f"layer {i}: input {spec.stream!r} has per-sample shape "
                    f"{x.shape[1:]}, expected {net.out_shapes[i]}"
                )
            if batch is None:
                batch = x.shape[0]
            elif x.shape[0] != batch:
                raise ShapeError("input streams disagree on batch size")
            rec["out"] = x
        elif spec.kind in ("dense", "conv2d"):
            up = acts[spec.input_refs[0]]["out"]
            p = net.params[i]
            if spec.kind == "dense":
                rec["x"] = up.reshape(up.shape[0], -1)
                pre = rec["x"] @ p["W"].T
                if "b" in p:
                    pre += p["b"]
            else:  # rec["x"] is the window matrix, the input a dense layer would see
                pre, rec["x"] = _conv_forward(p["W"], p.get("b"), up, spec.stride)
            rec["pre"] = pre
            rec["out"] = _activate(pre, spec.activation)
        elif spec.kind == "dropout":
            x = acts[spec.input_refs[0]]["out"]
            if mode == "train" and spec.drop_p > 0.0:
                if rng is None:
                    raise ValueError("train-mode dropout needs an rng")
                mask = (rng.random(x.shape) >= spec.drop_p).astype(net.dtype)
                rec["mask"] = mask
                rec["out"] = x * mask
            else:
                scale = 1.0 if mode == "train" else 1.0 - spec.drop_p
                rec["scale"] = scale
                rec["out"] = x * net.dtype.type(scale) if scale != 1.0 else x
        else:  # concat
            rec["out"] = np.concatenate(
                [acts[r]["out"].reshape(batch, -1) for r in spec.input_refs], axis=1)
        acts.append(rec)
    return acts


def backward(net, acts, output_gradient, grads=None):
    """Exact reverse-mode gradients for every parameter, written into
    `grads` (per-layer dicts of arrays shaped as `net.params`, such as an
    optimizer's views of its gradient vector) or into new arrays; returns them.

    Requires the activation records produced by a matching `forward` call;
    shape drift between the two is rejected.
    """
    if len(acts) != len(net.layers):
        raise ShapeError("activations do not match the network")
    for i, rec in enumerate(acts):
        if rec["out"].shape[1:] != net.out_shapes[i]:
            raise ShapeError(f"layer {i}: stale activations (shape drift)")
    g_out = np.asarray(output_gradient, dtype=net.dtype)
    if g_out.shape != acts[net.terminal]["out"].shape:
        raise ShapeError("output gradient shape does not match network output")

    gouts = [None] * len(net.layers)
    gouts[net.terminal] = g_out
    if grads is None:  # every parameter layer feeds the output, so each is written
        grads = [None if p is None else {k: np.empty(v.shape, net.dtype) for k, v in p.items()}
                 for p in net.params]

    def _accumulate(ref, g):
        gouts[ref] = g if gouts[ref] is None else gouts[ref] + g

    for i in range(len(net.layers) - 1, -1, -1):
        g = gouts[i]
        if g is None:
            continue
        spec = net.layers[i]
        rec = acts[i]
        if spec.kind == "input":
            continue
        if spec.kind in ("dense", "conv2d"):
            p = net.params[i]
            ref = spec.input_refs[0]
            if spec.activation == "rectify":
                g = g * (rec["pre"] > 0)
            w = p["W"].reshape(len(p["W"]), -1)
            if spec.kind == "conv2d":  # a dense layer over the window matrix
                g = g.transpose(0, 2, 3, 1).reshape(-1, len(w))
            np.matmul(g.T, rec["x"], out=grads[i]["W"].reshape(len(w), -1))
            if "b" in p:
                g.sum(axis=0, out=grads[i]["b"])
            if net.layers[ref].kind != "input":  # an input's gradient is never read
                gx = g @ w
                up = acts[ref]["out"]
                if spec.kind == "conv2d":
                    gx = _col2im(gx, up, spec.kernel, spec.stride)
                _accumulate(ref, gx.reshape(up.shape))
        elif spec.kind == "dropout":
            if "mask" in rec:
                gx = g * rec["mask"]
            else:
                gx = g * net.dtype.type(rec["scale"]) if rec["scale"] != 1.0 else g
            _accumulate(spec.input_refs[0], gx)
        else:  # concat
            offset = 0
            for r in spec.input_refs:
                up_shape = acts[r]["out"].shape
                n = _flat(up_shape[1:])
                piece = g[:, offset : offset + n].reshape(up_shape)
                _accumulate(r, piece)
                offset += n
    return grads


def param_count(net):
    """Total scalar count across all weights and biases."""
    return int(net.flat.size)


def gradient_check(net, inputs, probe_direction=None, step=1e-5, probes=100, rng=None):
    """Compare backward gradients against central finite differences.

    The scalar under test is sum(probe . output) over the batch.  Samples
    `probes` random parameter coordinates and returns the worst relative
    error |bp - fd| / max(|bp|, |fd|, 1), or NaN as soon as a probed
    gradient or finite difference is not finite.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    if probe_direction is None:
        probe_direction = rng.standard_normal(net.output_dim)
    probe = np.asarray(probe_direction, dtype=np.float64)

    # The finite-difference oracle runs on a float64 shadow of the network so
    # that a 32-bit backward pass is measured against a clean reference
    # instead of 32-bit finite-difference roundoff.
    shadow_flat, shadow_params = _pack(net.params, np.float64)
    shadow = replace(net, dtype=np.dtype(np.float64), flat=shadow_flat, params=shadow_params)

    def scalar():
        out = forward(shadow, inputs, mode="eval")[shadow.terminal]["out"]
        return float(np.sum(out * probe[None, :]))

    acts = forward(net, inputs, mode="eval")
    batch = acts[net.terminal]["out"].shape[0]
    gout = np.tile(probe.astype(net.dtype), (batch, 1))
    grads = backward(net, acts, gout)

    coords = [(i, k, p[k].size) for i, p in enumerate(net.params) if p for k in sorted(p)]
    if not coords:
        return 0.0
    f_base = scalar()
    worst = 0.0
    checked = 0
    attempts = 0
    while checked < probes and attempts < 20 * probes:
        attempts += 1
        which = int(rng.integers(len(coords)))
        layer, key, size = coords[which]
        idx = int(rng.integers(size))
        arr = shadow.params[layer][key]
        flat = arr.reshape(-1)
        saved = flat[idx]
        flat[idx] = saved + step
        f_plus = scalar()
        flat[idx] = saved - step
        f_minus = scalar()
        flat[idx] = saved
        # Rectifier kinks inside the +-step window make central differences
        # meaningless; detect them from the one-sided slopes (function values
        # only, so the oracle stays independent of backward) and re-probe.
        d_fwd = (f_plus - f_base) / step
        d_bwd = (f_base - f_minus) / step
        if abs(d_fwd - d_bwd) > 1e-6 * max(abs(d_fwd), abs(d_bwd), 1e-3):
            continue
        fd = (f_plus - f_minus) / (2.0 * step)
        bp = float(grads[layer][key].reshape(-1)[idx])
        err = abs(bp - fd) / max(abs(bp), abs(fd), 1.0)
        if not np.isfinite(err):  # a NaN or inf on either side; max() would drop it
            return float("nan")
        worst = max(worst, err)
        checked += 1
    return worst
