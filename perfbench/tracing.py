"""Span tracing of ramdqn's layers from outside the package.

Each public entry point is replaced, for the life of one worker process, by
a wrapper that records a span: the entry point's name, the span that called
it, start and end times, and the batch rows for forward and backward.
Functions are wrapped in the module namespace their callers look them up in
(`harness` and `agents` import functions by name), methods on their class.
Spans stay in flat arrays in memory and are analysed, and written out, when
the run ends.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


def entry_points():
    """(span name, owner, attribute) of every wrapped entry point."""
    from ramdqn import agents, envs, harness, replay
    return [
        ("envs.frame_skip_step", harness, "frame_skip_step"),
        ("envs.step", envs.MicroGame, "step"),
        ("envs.reset", envs.MicroGame, "reset"),
        ("envs.scale_ram", harness, "scale_ram"),
        ("envs.phi_observe", envs.PhiBuffer, "observe"),
        ("envs.phi_stack", envs.PhiBuffer, "stack"),
        ("replay.push", replay.ReplayMemory, "push"),
        ("replay.sample", replay.ReplayMemory, "sample_minibatch"),
        ("agents.select_action", harness, "select_action"),
        ("agents.train_step", harness, "train_step"),
        ("agents.compute_targets", agents, "compute_targets"),
        ("tensor_core.forward", agents, "forward"),
        ("tensor_core.backward", agents, "backward"),
        ("optim.q_loss_grad", agents, "q_loss_grad"),
        ("optim.rmsprop_step", agents, "rmsprop_step"),
    ]


def _forward_rows(args, kwargs):
    inputs = args[1] if len(args) > 1 else kwargs["inputs"]
    return len(next(iter(inputs.values())))


def _backward_rows(args, kwargs):
    grad = args[2] if len(args) > 2 else kwargs["output_gradient"]
    return len(grad)


ROWS = {"tensor_core.forward": _forward_rows, "tensor_core.backward": _backward_rows}


class Tracer:
    """Records nested spans; wrappers are installed by `install`."""

    def __init__(self):
        self.names = []
        self.name = array("q")
        self.parent = array("q")
        self.rows = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []

    def install(self):
        for span_name, owner, attr in entry_points():
            fn = getattr(owner, attr)  # a renamed entry point fails here, loudly
            setattr(owner, attr, self._wrap(fn, span_name))

    def _wrap(self, fn, span_name):
        nid = len(self.names)
        self.names.append(span_name)
        rows_of = ROWS.get(span_name)
        name, parent, rows = self.name, self.parent, self.rows
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            rows.append(rows_of(args, kwargs) if rows_of else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def required_spans(net):
    """Entry points every workload on this network must call at least once."""
    required = {"envs.frame_skip_step", "envs.step", "envs.reset", "replay.push",
                "replay.sample", "agents.select_action", "agents.train_step",
                "agents.compute_targets", "tensor_core.forward",
                "tensor_core.backward", "optim.q_loss_grad", "optim.rmsprop_step"}
    if "ram" in net.input_streams:
        required.add("envs.scale_ram")
    if "screen" in net.input_streams:
        required |= {"envs.phi_observe", "envs.phi_stack"}
    return required


def macs_per_sample(net):
    """Multiply-accumulates of one sample's forward pass, from layer shapes.

    A conv layer costs filters * channels * k^2 * out_h * out_w, a dense
    layer units * fan_in; other kinds are counted as free.
    """
    total = 0
    for spec, p, shape in zip(net.layers, net.params, net.out_shapes):
        if spec.kind == "conv2d":
            f, c, k, _ = p["W"].shape
            total += f * c * k * k * shape[1] * shape[2]
        elif spec.kind == "dense":
            total += p["W"].size
    return total


def layer_metrics(spans, net):
    """Per-layer metrics and call counts from a run's spans.

    Returns (metrics, calls, missing): `missing` lists the required entry
    points that recorded no call.
    """
    names = [str(n) for n in spans["names"]]
    ids = {n: i for i, n in enumerate(names)}
    name, parent, rows = spans["name"], spans["parent"], spans["rows"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child

    def mask(n, under=None):
        m = name == ids[n]
        if under is not None:
            m &= parent_name == ids[under]
        return m

    def pct(m, q, scale):
        d = dur[m]
        return float(np.percentile(d, q)) * scale if d.size else 0.0

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    calls = {n: int(np.count_nonzero(name == i)) for i, n in enumerate(names)}
    train = mask("agents.train_step")
    fwd_act = mask("tensor_core.forward", "agents.select_action")
    fwd_online = mask("tensor_core.forward", "agents.train_step")
    fwd_target = mask("tensor_core.forward", "agents.compute_targets")
    bwd = mask("tensor_core.backward")
    calls["tensor_core.forward(act)"] = int(np.count_nonzero(fwd_act))

    # Self time of train_step plus that of its compute_targets child: the
    # per-transition np.stack of states and next states.
    stack_time = self_time.copy()
    targets = mask("agents.compute_targets")
    np.add.at(stack_time, parent[targets], self_time[targets])

    macs = macs_per_sample(net) * (int(rows[fwd_online].sum()) + int(rows[fwd_target].sum())
                                   + 2 * int(rows[bwd].sum()))
    kernel_s = dur[fwd_online | fwd_target | bwd].sum()
    n_train = int(np.count_nonzero(train))

    metrics = {
        "envs.frame_skip_step_us_p50": pct(mask("envs.frame_skip_step"), 50, 1e6),
        "envs.frames_per_action": ratio(calls["envs.step"], calls["envs.frame_skip_step"]),
        "envs.reset_us_p50": pct(mask("envs.reset"), 50, 1e6),
        "envs.phi_us_p50": pct(mask("envs.phi_observe") | mask("envs.phi_stack"), 50, 1e6),
        "envs.scale_ram_us_p50": pct(mask("envs.scale_ram"), 50, 1e6),
        "replay.push_us_p50": pct(mask("replay.push"), 50, 1e6),
        "replay.sample_us_p50": pct(mask("replay.sample"), 50, 1e6),
        "agents.train_step_ms_p50": pct(train, 50, 1e3),
        "agents.train_step_ms_p99": pct(train, 99, 1e3),
        "agents.select_action_us_p50": pct(mask("agents.select_action"), 50, 1e6),
        "agents.select_action_us_p99": pct(mask("agents.select_action"), 99, 1e6),
        "agents.greedy_share": ratio(np.count_nonzero(fwd_act), calls["agents.select_action"]),
        "agents.stack_ms_p50": float(np.percentile(stack_time[train], 50)) * 1e3 if n_train else 0.0,
        "tensor_core.forward_act_us_p50": pct(fwd_act, 50, 1e6),
        "tensor_core.forward_online_ms_p50": pct(fwd_online, 50, 1e3),
        "tensor_core.forward_target_ms_p50": pct(fwd_target, 50, 1e3),
        "tensor_core.backward_ms_p50": pct(bwd, 50, 1e3),
        "tensor_core.forward_calls_per_train_step": ratio(
            np.count_nonzero(fwd_online | fwd_target), n_train),
        "tensor_core.macs_per_train_step": ratio(macs, n_train),
        "tensor_core.gflops": ratio(2 * macs / 1e9, kernel_s),
        "tensor_core.train_step_share": ratio(kernel_s, dur[train].sum()),
        "optim.rmsprop_ms_p50": pct(mask("optim.rmsprop_step"), 50, 1e3),
        "optim.q_loss_grad_us_p50": pct(mask("optim.q_loss_grad"), 50, 1e6),
        "trace.coverage": ratio(child[train].sum(), dur[train].sum()),
    }
    missing = sorted(n for n in required_spans(net) if calls[n] == 0)
    if calls["tensor_core.forward(act)"] == 0:
        missing.append("tensor_core.forward(act)")
    return metrics, calls, missing
