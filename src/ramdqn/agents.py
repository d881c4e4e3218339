"""Architecture builders, epsilon-greedy policy, targets, and the train step."""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np

from .envs import RAM_SIZE
from .optim import q_loss_grad, rmsprop_step
from .tensor_core import LayerSpec, ShapeError, Workspace, backward, forward, make_network

# Each architecture as (ram, screen, head): the rectified dense widths of the
# RAM tower, of the screen tower after its convolutions, and of the head after
# the towers' concat.  None marks a stream the network does not read; an empty
# RAM tower feeds the scaled RAM straight to the concat.
ARCHITECTURES = {"just_ram": ((128, 128), None, ()), "big_ram": ((128,) * 4, None, ()),
                 "nips": (None, (256,), ()), "mixed_ram": ((), (256,), ()),
                 "big_mixed_ram": ((128, 128), (256,), (256,))}

# (filters, kernel, stride) per conv layer; the full-scale pair is inherited
# from the benchmark lineage, the micro pair keeps tiny screens viable.
CONV_FULL = ((16, 8, 4), (32, 4, 2))
CONV_MICRO = ((16, 4, 2), (32, 2, 1))


@dataclass(frozen=True)  # set once, so that what __post_init__ checked holds
class HyperParams:
    minibatch_size: int = 32
    replay_capacity: int = 100_000
    phi_length: int = 4
    learning_rate: float = 0.0002
    discount: float = 0.95
    epsilon_start: float = 1.0
    epsilon_decay_steps: int = 1_000_000
    epsilon_min: float = 0.1
    replay_start_size: int = 100
    frame_skip: int = 4
    dropout_p: float = 0.0
    steps_per_epoch: int = 12_500
    test_steps: int = 10_000
    test_epsilon: float = 0.05

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # Python ints and floats only (np.float64 is a float): the checkpoint
            # header stores every field as JSON, and numpy ufuncs refuse a Fraction.
            if type(f.default) is float and (type(value) is bool
                                             or not isinstance(value, (int, float))):
                raise ValueError(f"{f.name} must be a real number of type int or float, "
                                 f"got {value!r}")
            least = 0 if f.name == "replay_start_size" else 1
            if type(f.default) is int and (type(value) is not int or value < least):
                rule = "an integer >= 0" if least == 0 else "a positive integer"
                raise ValueError(f"{f.name} must be {rule}, got {value!r}")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must be in [0, 1)")
        if not 0.0 <= self.epsilon_min <= self.epsilon_start <= 1.0:
            raise ValueError("epsilons must satisfy 0 <= epsilon_min <= epsilon_start <= 1")
        if self.replay_capacity < max(self.minibatch_size, self.replay_start_size):
            raise ValueError("replay_capacity must be at least "
                             "max(minibatch_size, replay_start_size)")
        if not 0.0 < self.learning_rate <= sys.float_info.max:  # exact for an int past it
            raise ValueError(f"learning_rate must be positive and within float64's range, "
                             f"got {self.learning_rate!r}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")
        if not 0.0 <= self.test_epsilon <= 1.0:
            raise ValueError("test_epsilon must be in [0, 1]")


def epsilon_at(hyper, step):
    """Linear fade from epsilon_start to epsilon_min over epsilon_decay_steps,
    clamped thereafter."""
    if step >= hyper.epsilon_decay_steps:
        return hyper.epsilon_min
    frac = step / hyper.epsilon_decay_steps
    return hyper.epsilon_start + (hyper.epsilon_min - hyper.epsilon_start) * frac


def _conv_plan(screen_shape):
    """Full-scale conv hyperparameters when they fit, micro ones otherwise."""
    for plan in (CONV_FULL, CONV_MICRO):
        h, w = screen_shape
        for _, k, s in plan:
            if k > h or k > w:
                break
            h, w = (h - k) // s + 1, (w - k) // s + 1
        else:
            return plan
    raise ShapeError(f"screen {screen_shape} too small for any conv plan")


def input_shapes(screen_shape, phi_length):
    """The per-sample shape of each input stream: the RAM bytes, and a
    phi_length-frame stack of (H, W) screens."""
    return {"ram": (RAM_SIZE,), "screen": (phi_length,) + tuple(screen_shape)}


def build_architecture(name, output_dim, screen_shape=None, phi_length=4,
                       dropout_p=0.0, rng=None, dtype=np.float32):
    """Build one of the five network architectures from its ARCHITECTURES row.

    Dropout (when enabled) follows every hidden layer but never the output.
    screen_shape is the (H, W) of a single frame; screen networks receive a
    phi_length-channel stack.
    """
    if name not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {name!r}")
    ram, screen, head = ARCHITECTURES[name]
    if screen is not None and screen_shape is None:
        raise ValueError(f"{name} needs a screen_shape")
    if rng is None:
        rng = np.random.default_rng(0)

    specs = []

    def add(spec):
        specs.append(spec)
        return len(specs) - 1

    def hidden(ref, **layer):
        idx = add(LayerSpec(activation="rectify", input_refs=(ref,), **layer))
        if dropout_p > 0.0:
            idx = add(LayerSpec(kind="dropout", drop_p=dropout_p, input_refs=(idx,)))
        return idx

    def dense_tower(ref, widths):
        for units in widths:
            ref = hidden(ref, kind="dense", units=units)
        return ref

    shapes = input_shapes(screen_shape or (), phi_length)
    tails = {stream: add(LayerSpec(kind="input", stream=stream, shape=shapes[stream]))
             for stream, widths in (("ram", ram), ("screen", screen)) if widths is not None}
    if screen is not None:
        ref = tails["screen"]
        for filters, kernel, stride in _conv_plan(screen_shape):
            ref = hidden(ref, kind="conv2d", filters=filters, kernel=kernel, stride=stride)
        tails["screen"] = dense_tower(ref, screen)
    if ram is not None:
        tails["ram"] = dense_tower(tails["ram"], ram)
    ref = (add(LayerSpec(kind="concat", input_refs=(tails["screen"], tails["ram"])))
           if len(tails) == 2 else next(iter(tails.values())))
    add(LayerSpec(kind="dense", units=output_dim, input_refs=(dense_tower(ref, head),)))
    return make_network(specs, rng, dtype=dtype)


def select_action(net, greedy, epsilon, rng):
    """Epsilon-greedy: one of the network's `output_dim` actions uniformly
    with probability `epsilon`, else `greedy()`, which returns the greedy
    action and is called only then."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if rng.random() < epsilon:
        return int(rng.integers(net.output_dim))
    return greedy()


def greedy_action(net, inputs):
    """argmax_a Q(inputs, a) for the network's inputs of one observation
    (stream -> array); ties break to the lowest index."""
    batch = {k: v[None, ...] for k, v in inputs.items()}
    acts = forward(net, batch, "eval", None, net.program.acting)
    return int(acts[net.terminal]["out"][0].argmax())


def compute_targets(net, minibatch, discount, workspace=None):
    """Bellman targets y_i = r_i (+ discount * max_a Q(s'_i, a) if non-terminal).

    `minibatch` is a replay.Minibatch.  Uses the online network in eval mode,
    in `workspace`'s arrays or a new workspace's; terminal next states are never read.
    """
    if not len(minibatch):
        raise ValueError("minibatch must be nonempty")
    workspace = Workspace() if workspace is None else workspace
    targets = np.array(minibatch.reward, np.float64)
    live = (~minibatch.terminal).nonzero()[0]
    if live.size and discount > 0.0:
        batch = minibatch.next_state
        if live.size < len(targets):  # the live rows, in the workspace's first rows
            batch = {k: v.take(live, 0, workspace.take("live", k, v.shape, v.dtype)[: live.size],
                               "clip") for k, v in batch.items()}
        q_next = forward(net, batch, mode="eval", workspace=workspace)[net.terminal]["out"]
        targets[live] += discount * np.maximum.reduce(q_next, 1)  # q_next.max(axis=1)
    return targets


def train_step(net, memory, optimizer_state, hyper, sample_rng, dropout_rng=None, workspace=None):
    """One parameter update: sample, target, squared-loss gradient, rmsprop, in
    `workspace`'s arrays or a new workspace's.  The online forward runs in train
    mode: the network's dropout layers, if it has any, draw from `dropout_rng`."""
    workspace = Workspace() if workspace is None else workspace
    batch = memory.sample_minibatch(hyper.minibatch_size, sample_rng)
    targets = compute_targets(net, batch, hyper.discount, workspace)
    acts = forward(net, batch.state, mode="train", rng=dropout_rng, workspace=workspace)
    q = acts[net.terminal]["out"]
    loss, dq = q_loss_grad(q, batch.action, targets)
    backward(net, acts, dq, optimizer_state.grads, workspace)
    rmsprop_step(net, optimizer_state)
    return loss
