"""Minimal network engine: dense, conv2d, dropout, concat layers with exact
reverse-mode gradients.

Tensors are plain numpy arrays in row-major order with a leading batch dimension.
Each network is resolved once into a `Program` of steps, and its forward, per workspace,
batch size and mode, once into a `_Frame` of bound numpy calls, as is its backward.  Forward
retains every layer output so backward can compute exact gradients; a finite-difference checker
(`gradient_check`) serves as the independent oracle for the handwritten backward.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .envs import check_count

KINDS = ("input", "dense", "conv2d", "dropout", "concat")
ACTIVATIONS = ("rectify", "none")
FD_STEP = 1e-5  # gradient_check's finite-difference step, on its float64 shadow


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
    _program: Program = field(default=None, init=False, repr=False, compare=False)

    @property
    def program(self):
        """The `Program`, built on first use; a `dataclasses.replace` copy has none yet."""
        if self._program is None:
            self._program = Program(self)
        return self._program

    def __deepcopy__(self, memo):
        # Each parameter byte is copied once, into the copy's own vector.
        flat, params = _pack(self.params, self.dtype)
        rest = copy.deepcopy({"layers": self.layers, "out_shapes": self.out_shapes,
                              "input_streams": self.input_streams}, memo)
        return replace(self, flat=flat, params=params, **rest)


def _flat(shape):
    return int(math.prod(shape))


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


def make_network(specs, init_rng, dtype=np.float32):
    """Validate a layer DAG, allocate and initialize its parameters.

    Weights are drawn uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases start
    at zero.  Raises ShapeError naming the offending layer index.
    """
    specs = list(specs)
    if not specs:
        raise ShapeError("no output layer")
    dtype = np.dtype(dtype)

    out_shapes, params, referenced, streams = [], [], set(), {}
    for i, spec in enumerate(specs):
        if spec.kind not in KINDS:
            raise ShapeError(f"layer {i}: unknown kind {spec.kind!r}")
        if spec.activation not in ACTIVATIONS:
            raise ShapeError(f"layer {i}: unknown activation {spec.activation!r}")
        for r in spec.input_refs:
            if not 0 <= r < i:
                raise ShapeError(f"layer {i}: bad input ref {r}")
            referenced.add(r)
        if spec.kind in ("dense", "conv2d", "dropout") and len(spec.input_refs) != 1:
            raise ShapeError(f"layer {i}: {spec.kind} takes exactly one input")
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
            if spec.units <= 0:
                raise ShapeError(f"layer {i}: dense needs positive units")
            weights = (spec.units, _flat(out_shapes[spec.input_refs[0]]))
            out_shapes.append((spec.units,))
        elif spec.kind == "conv2d":
            in_shape, k, s = out_shapes[spec.input_refs[0]], spec.kernel, spec.stride
            if len(in_shape) != 3:
                raise ShapeError(f"layer {i}: conv2d needs a channels x H x W input")
            if spec.filters <= 0 or k <= 0 or s <= 0:
                raise ShapeError(f"layer {i}: bad conv2d hyperparameters")
            c, h, w = in_shape
            if k > h or k > w:
                raise ShapeError(f"layer {i}: kernel {k} larger than input {h}x{w}")
            weights = (spec.filters, c, k, k)
            out_shapes.append((spec.filters, (h - k) // s + 1, (w - k) // s + 1))
        elif spec.kind == "dropout":
            if not 0.0 <= spec.drop_p < 1.0:
                raise ShapeError(f"layer {i}: drop probability must be in [0,1)")
            out_shapes.append(out_shapes[spec.input_refs[0]])
        else:  # concat
            if not spec.input_refs:
                raise ShapeError(f"layer {i}: concat needs at least one input")
            out_shapes.append((sum(_flat(out_shapes[r]) for r in spec.input_refs),))
        params.append(None)
        if weights is not None:  # (fan-out, fan-in...)
            w = init_rng.uniform(-1.0, 1.0, size=weights) / np.sqrt(_flat(weights[1:]))
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


class Workspace:
    """Arrays that one network's forwards and backwards write into, kept between
    calls: a flat buffer per layer and role, made on first use, whose head serves
    fewer rows; and the `_Frame` of each forward run in it, built on those buffers."""

    def __init__(self):
        self.buffers, self.frames = {}, {}

    def take(self, layer, role, shape, dtype):
        """A `shape` array of `dtype` on the buffer of `layer`'s `role`; stale contents."""
        size, buf = _flat(shape), self.buffers.get((layer, role))
        if buf is None or buf.size < size or buf.dtype != dtype:
            if buf is not None:  # frames, and their backwards, were bound to the old one
                self.frames.clear()
            buf = self.buffers[layer, role] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


class _Frame:
    """One network's forward at one batch size and mode, bound once in a workspace: the
    layer records, in its arrays, and the numpy calls that fill them, in order, each with
    its arguments and output array fixed.  Inputs are copied into the input records.
    `backward` is the `_Backward` last bound on the records."""

    def __init__(self, net, batch, train, ws):
        self.recs, self.calls, self.rng, self.backward = [None] * len(net.layers), [], None, None
        for i in net.input_streams.values():
            self.recs[i] = {"out": ws.take(i, "out", (batch,) + net.out_shapes[i], net.dtype)}
        for step in net.program.layers:
            self.recs[step.i] = step.bind(self, batch, ws, train)

    def call(self, fn, *args, **out):
        """Append `fn(*args, **out)`; returns the array it writes: `out`, or the last arg."""
        self.calls.append(partial(fn, *args, **out))
        return out.get("out", args[-1])

    def copy(self, dst, src):
        """Append `np.copyto(dst, src)`, which dispatches faster than any ufunc copy;
        returns `dst`."""
        self.call(np.copyto, dst, src)
        return dst

    def draw(self, shape, out):
        """Uniform floats from the running call's rng, for train-mode dropout."""
        if self.rng is None:
            raise ValueError("train-mode dropout needs an rng")
        self.rng.random(shape, out=out)


class _Backward:
    """One network's backward bound once, as a frame's forward, on forward records `recs`
    and the gradient arrays `grads` it writes: every layer's calls in reverse, from the
    output gradient copied into `grad`, and a sum where a layer's output has two uses."""

    call, copy = _Frame.call, _Frame.copy

    def __init__(self, net, recs, grads, ws):
        self.program, self.recs, self.grads, self.calls = net.program, recs, grads, []
        self.grad = ws.take(net.terminal, "grad", recs[net.terminal]["out"].shape, net.dtype)
        gouts = {net.terminal: self.grad}  # each layer's output gradient, once it has one
        for step in reversed(net.program.layers):
            if step.i in gouts:
                for ref, g in step.bind_backward(self, gouts[step.i], ws):
                    gouts[ref] = g if ref not in gouts else self.call(
                        np.add, gouts[ref], g, ws.take(ref, "sum", g.shape, net.dtype))


@lru_cache(maxsize=None)
def _window_index(shape, k, stride):
    """Read-only positions in a (C, H, W) sample of each output cell's (C, k, k) window, in
    blocks of b = gcd(k, stride, W) elements: each window row is k/b whole blocks."""
    b = math.gcd(k, stride, shape[2])
    win = sliding_window_view(np.arange(_flat(shape)).reshape(shape), (k, k), axis=(1, 2))
    index = win[:, ::stride, ::stride, :, ::b].transpose(1, 2, 0, 3, 4) // b
    index = index.reshape(-1, shape[0] * k * k // b)
    index.flags.writeable = False
    return index


def _conv_cols(x, index, out, call=lambda fn, *args: fn(*args)):
    """Unrolled windows of x (B, C, H, W) (Chellapilla et al. 2006), gathered through a
    `_window_index` into `out` (B, oh*ow, C*k*k): the (B*oh*ow, C*k*k) matrix, one row
    per output cell in (B, oh, ow) order.  `take` copies an index that is not writeable.
    The gather is made by `call(fn, *args)`, which runs it or, as `_Frame.call`, binds it."""
    n, cells, width = out.shape
    b = width // index.shape[1]
    # Along axis 1 of (B, C*H*W/b, b) rows, each taken item is a whole block.  The
    # indices are in range: "clip" only lets take write into `out` unbuffered.
    call(x.reshape(n, _flat(x.shape[1:]) // b, b).take, index, 1,
         out.reshape(n, cells, width // b, b), "clip")
    return out.reshape(n * cells, width)


def _col2im(d, stride, dx, call=lambda fn, *args: fn(*args)):
    """Adjoint of `_conv_cols`: the gradient w.r.t. x, summed into `dx` (B, C, H, W), from
    `d` (B, oh, ow, C, k, k), the gradient w.r.t. its window matrix; one slice-add per
    kernel offset or, when there are fewer, per output cell, each made by `call`."""
    _, oh, ow, _, k, _ = d.shape
    call(dx.fill, 0)
    if oh * ow < k * k:  # ascending offsets meet an entry's cells last to first
        for cell in range(oh * ow - 1, -1, -1):
            i, j = divmod(cell, ow)
            tile = dx[:, :, i * stride : i * stride + k, j * stride : j * stride + k]
            call(np.add, tile, d[:, i, j], tile)
        return dx
    for di in range(k):
        for dj in range(k):
            tile = dx[:, :, di : di + stride * (oh - 1) + 1 : stride,
                      dj : dj + stride * (ow - 1) + 1 : stride]
            call(np.add, tile, d[..., di, dj].transpose(0, 3, 1, 2), tile)
    return dx


class _Step:
    """One layer, resolved: `bind` appends its forward's calls to a frame and returns its
    record, in workspace arrays, and `bind_backward` appends its backward's calls, from
    its output's gradient `g`, and returns the (layer, gradient) pairs of its inputs."""

    def __init__(self, net, i):
        self.i, self.spec, self.dtype, self.shape = i, net.layers[i], net.dtype, net.out_shapes[i]
        self.refs = self.spec.input_refs
        self.ref, self.in_shape = self.refs[0], net.out_shapes[self.refs[0]]


class _Weighted(_Step):
    """A dense layer, y = act(x W.T + b) with x the input flattened per sample, or a conv2d:
    a dense layer over the rows of the window matrix, gathered through a writeable window
    index, whose output is channels-last in memory, the order col2im reads fast.  The
    record's "x" is that matrix."""

    def __init__(self, net, i):
        super().__init__(net, i)
        spec, p = self.spec, net.params[i]
        self.W = p["W"].reshape(len(p["W"]), -1)
        self.WT, self.rectify = self.W.T, spec.activation == "rectify"
        self.b = p["b"].reshape(1, -1) if "b" in p else None  # a row: no broadcast at batch 1
        self.grad_in = net.layers[self.ref].kind != "input"  # an input's is never read
        self.index = (_window_index(self.in_shape, spec.kernel, spec.stride).copy()
                      if spec.kind == "conv2d" else None)

    def bind(self, frame, batch, ws, train):
        i, x, units, call = self.i, frame.recs[self.ref]["out"], len(self.W), frame.call
        if not x.flags.c_contiguous:  # a conv's channels-last output: copied
            x = frame.copy(ws.take(i, "in", x.shape, self.dtype), x)
        if self.index is not None:  # cols @ W.T: the swapped order is ~1.6x slower here
            _, oh, ow = self.shape
            x = _conv_cols(x, self.index, ws.take(i, "x", (batch, oh * ow, self.W.shape[1]),
                                                  self.dtype), call)
            out = pre = call(np.matmul, x, self.WT, ws.take(i, "pre", (len(x), units), self.dtype))
        else:
            x = x.reshape(batch, self.W.shape[1]) if x.ndim > 2 else x
            out = ws.take(i, "out", (batch, units), self.dtype)  # sample-major, for the next
            if batch == 1:  # x @ W.T by np.dot, which dispatches faster than matmul
                pre = call(np.dot, x, self.WT, out)
            else:  # (W @ x.T).T: x @ W.T's bits, for a sample-major x, at BLAS's fast order
                pre = call(np.matmul, self.W, x.T,
                           ws.take(i, "pre.T", (units, batch), self.dtype)).T
        if self.b is not None:
            call(np.add, pre, self.b, out)
        elif pre is not out:
            frame.copy(out, pre)
        if self.rectify:  # against zeros, off np.maximum's slower scalar path; no positional out
            zeros = ws.take(i, "zeros", out.shape, self.dtype)
            zeros.fill(0)
            call(np.maximum, out, zeros, out=out)
        if self.index is not None:
            out = out.reshape((batch,) + self.shape[1:] + (units,)).transpose(0, 3, 1, 2)
        return {"out": out, "x": x}

    def bind_backward(self, bound, g, ws):
        i, y, grads, call = self.i, bound.recs[self.i]["out"], bound.grads[self.i], bound.call
        if self.index is not None:  # to the rows of the window matrix
            g, y = g.transpose(0, 2, 3, 1), y.transpose(0, 2, 3, 1)
        if self.rectify:  # y > 0 exactly where the pre-activation is
            mask = call(np.greater, y, 0, ws.take(i, "mask", y.shape, np.bool_))
            g = call(np.multiply, g, mask, ws.take(i, "g", y.shape, self.dtype))
        elif self.index is not None:  # channels-last: copied, as its reshape would be
            g = bound.copy(ws.take(i, "g", g.shape, self.dtype), g)
        g = g.reshape(-1, len(self.W))
        call(np.matmul, g.T, bound.recs[i]["x"], grads["W"].reshape(self.W.shape))
        if self.b is not None:  # g.sum(axis=0)
            call(np.add.reduce, g, 0, out=grads["b"])
        if not self.grad_in:
            return []
        gx = call(np.matmul, g, self.W, ws.take(i, "gx", (len(g), self.W.shape[1]), self.dtype))
        if self.index is None:
            return [(self.ref, gx.reshape((len(gx),) + self.in_shape))]
        (c, h, w), (_, oh, ow), k = self.in_shape, self.shape, self.spec.kernel
        n = len(gx) // (oh * ow)
        dx = ws.take(i, "dx", (n, h, w, c), self.dtype).transpose(0, 3, 1, 2)
        return [(self.ref, _col2im(gx.reshape(n, oh, ow, c, k, k), self.spec.stride, dx, call))]


class _Dropout(_Step):
    """Train mode with p > 0 keeps each unit with probability 1 - p, drawn from `rng`, and
    records the mask; otherwise the output is scaled by 1 (train) or 1 - p (eval)."""

    def bind(self, frame, batch, ws, train):
        i, x, p = self.i, frame.recs[self.ref]["out"], self.spec.drop_p
        shape = (batch,) + self.shape
        out, call = ws.take(i, "out", shape, self.dtype), frame.call
        if train and p > 0.0:
            draw = call(frame.draw, shape, ws.take(i, "draw", shape, np.float64))
            mask = call(np.greater_equal, draw, p, ws.take(i, "mask", shape, np.bool_))
            return {"out": call(np.multiply, x, mask, out), "mask": mask}
        scale = 1.0 if train else 1.0 - p
        return {"out": call(np.multiply, x, self.dtype.type(scale), out) if scale != 1.0 else x,
                "scale": scale}

    def bind_backward(self, bound, g, ws):
        rec = bound.recs[self.i]
        factor = rec["mask"] if "mask" in rec else self.dtype.type(rec["scale"])
        return [(self.ref, bound.call(np.multiply, g, factor,
                                      ws.take(self.i, "gx", g.shape, self.dtype)))]


class _Concat(_Step):
    """The inputs, each flattened per sample, side by side."""

    def bind(self, frame, batch, ws, train):
        out, start = ws.take(self.i, "out", (batch,) + self.shape, self.dtype), 0
        for r in self.refs:  # each input copied into its columns
            x = frame.recs[r]["out"]
            stop = start + _flat(x.shape[1:])
            frame.copy(out[:, start:stop].reshape(x.shape), x)
            start = stop
        return {"out": out}

    def bind_backward(self, bound, g, ws):
        pieces, start = [], 0
        for r in self.refs:
            shape = bound.recs[r]["out"].shape
            stop = start + _flat(shape[1:])
            pieces.append((r, g[:, start:stop].reshape(shape)))
            start = stop
        return pieces


_STEPS = {"dense": _Weighted, "conv2d": _Weighted, "dropout": _Dropout, "concat": _Concat}


class Program:
    """A network's non-input layers resolved once into steps, in order, each holding its
    weight views, input slots and conv geometry; `acting` is the kept batch-1 workspace."""

    def __init__(self, net):
        kinds = [spec.kind for spec in net.layers]
        self.layers = [_STEPS[kind](net, i) for i, kind in enumerate(kinds) if kind in _STEPS]
        self.acting = Workspace()


def forward(net, inputs, mode="eval", rng=None, workspace=None):
    """Run the network's program on named batched inputs; returns all layer records.

    Each record keeps the layer output plus whatever backward needs (dropout mask, the input
    as a matrix), in `workspace`'s arrays or a new workspace's: then two calls never alias.
    The records and calls are the workspace's `_Frame` for this network, batch size and
    mode, bound on its first use; each call copies the inputs in and refills the records.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    xs, batch = {}, None
    for stream, i in net.input_streams.items():
        if stream not in inputs:
            raise ShapeError(f"missing input stream {stream!r}")
        x = np.asarray(inputs[stream])
        if x.shape[1:] != net.out_shapes[i]:
            raise ShapeError(f"layer {i}: input {stream!r} has per-sample shape "
                             f"{x.shape[1:]}, expected {net.out_shapes[i]}")
        if batch is not None and len(x) != batch:
            raise ShapeError("input streams disagree on batch size")
        xs[i], batch = x, len(x)
    ws, key = Workspace() if workspace is None else workspace, (net.program, batch, mode)
    frame = ws.frames.get(key)
    if frame is None:
        frame = ws.frames[key] = _Frame(net, batch, mode == "train", ws)
    frame.rng = rng
    for i, x in xs.items():
        np.copyto(frame.recs[i]["out"], x, casting="unsafe")
    for call in frame.calls:
        call()
    return frame.recs


def backward(net, acts, output_gradient, grads, workspace=None):
    """Exact reverse-mode gradients for every parameter, written into `grads`
    (per-layer dicts of arrays shaped as `net.params`, such as an optimizer's
    views of its gradient vector); returns them.

    Requires the activation records produced by a matching `forward` call;
    shape drift between the two is rejected.  Its other arrays are `workspace`'s
    or, without one, a new workspace's.  The calls are a `_Backward` on `acts` and
    `grads`, bound once per frame in `workspace`, or for this call on other records.
    """
    if len(acts) != len(net.layers):
        raise ShapeError("activations do not match the network")
    for i, rec in enumerate(acts):
        if rec["out"].shape[1:] != net.out_shapes[i]:
            raise ShapeError(f"layer {i}: stale activations (shape drift)")
    if np.shape(output_gradient) != acts[net.terminal]["out"].shape:
        raise ShapeError("output gradient shape does not match network output")
    ws = Workspace() if workspace is None else workspace
    frames = [f for f in ws.frames.values() if f.recs is acts]  # the frame of `acts`, or none
    bound = frames[0].backward if frames else None
    if bound is None or bound.grads is not grads or bound.program is not net.program:
        bound = _Backward(net, acts, grads, ws)
        for frame in frames:
            frame.backward = bound
    np.copyto(bound.grad, output_gradient, casting="unsafe")
    for call in bound.calls:
        call()
    return grads


def gradient_check(net, inputs, probes=100, rng=None):
    """Compare backward gradients against central finite differences.

    The scalar under test is sum(probe . output) over the batch, `probe` a
    standard normal direction drawn from `rng`.  Samples `probes` random
    parameter coordinates and returns the worst relative error
    |bp - fd| / max(|bp|, |fd|, 1), or NaN as soon as a probed gradient or
    finite difference is not finite.  A coordinate whose +-FD_STEP window holds a
    rectifier kink is skipped and another drawn, up to 20 * probes draws; if
    fewer than `probes` coordinates could be checked, the result is NaN, so a
    check that compared too little never reads as a match.  A `probes` that
    `check_count` refuses raises ValueError.
    """
    check_count("probes", probes)
    rng = np.random.default_rng(0) if rng is None else rng
    probe = rng.standard_normal(net.output_dim)

    # The finite-difference oracle runs on a float64 shadow of the network so
    # that a 32-bit backward pass is measured against a clean reference
    # instead of 32-bit finite-difference roundoff.  The shadow builds its own
    # program, and keeps its arrays in its own workspace.
    shadow_flat, shadow_params = _pack(net.params, np.float64)
    shadow = replace(net, dtype=np.dtype(np.float64), flat=shadow_flat, params=shadow_params)
    shadow_ws = Workspace()

    def scalar():
        out = forward(shadow, inputs, "eval", None, shadow_ws)[shadow.terminal]["out"]
        return float(np.sum(out * probe[None, :]))

    acts = forward(net, inputs, mode="eval")
    gout = np.tile(probe.astype(net.dtype), (len(acts[net.terminal]["out"]), 1))
    grads = backward(net, acts, gout, param_views(net.params, np.empty_like(net.flat)))

    coords = [(i, k, p[k].size) for i, p in enumerate(net.params) if p for k in sorted(p)]
    if not coords:
        return 0.0
    f_base, worst, checked, attempts = scalar(), 0.0, 0, 0
    while checked < probes and attempts < 20 * probes:
        attempts += 1
        layer, key, size = coords[int(rng.integers(len(coords)))]
        idx = int(rng.integers(size))
        flat = shadow.params[layer][key].reshape(-1)
        saved = flat[idx]
        flat[idx] = saved + FD_STEP
        f_plus = scalar()
        flat[idx] = saved - FD_STEP
        f_minus = scalar()
        flat[idx] = saved
        # Rectifier kinks inside the +-FD_STEP window make central differences
        # meaningless; detect them from the one-sided slopes (function values
        # only, so the oracle stays independent of backward) and re-probe.
        d_fwd, d_bwd = (f_plus - f_base) / FD_STEP, (f_base - f_minus) / FD_STEP
        if abs(d_fwd - d_bwd) > 1e-6 * max(abs(d_fwd), abs(d_bwd), 1e-3):
            continue
        fd = (f_plus - f_minus) / (2.0 * FD_STEP)
        bp = float(grads[layer][key].reshape(-1)[idx])
        err = abs(bp - fd) / max(abs(bp), abs(fd), 1.0)
        if not np.isfinite(err):  # a NaN or inf on either side; max() would drop it
            return float("nan")
        worst = max(worst, err)
        checked += 1
    return worst if checked == probes else float("nan")
