"""Architecture builders, epsilon-greedy policy, targets, and the train step."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optim import q_loss_grad, rmsprop_step
from .tensor_core import LayerSpec, ShapeError, backward, forward, make_network

ARCHITECTURES = ("just_ram", "big_ram", "nips", "mixed_ram", "big_mixed_ram")

# (filters, kernel, stride) per conv layer; the full-scale pair is inherited
# from the benchmark lineage, the micro pair keeps tiny screens viable.
CONV_FULL = ((16, 8, 4), (32, 4, 2))
CONV_MICRO = ((16, 4, 2), (32, 2, 1))


@dataclass
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
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must be in [0, 1)")
        if not 0.0 <= self.epsilon_min <= self.epsilon_start <= 1.0:
            raise ValueError("epsilons must satisfy 0 <= epsilon_min <= epsilon_start <= 1")
        for name in ("minibatch_size", "replay_capacity", "phi_length",
                     "epsilon_decay_steps", "frame_skip", "steps_per_epoch",
                     "test_steps"):
            value = getattr(self, name)
            if type(value) is not int or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if type(self.replay_start_size) is not int or self.replay_start_size < 0:
            raise ValueError(f"replay_start_size must be an integer >= 0, "
                             f"got {self.replay_start_size!r}")
        if self.replay_capacity < max(self.minibatch_size, self.replay_start_size):
            raise ValueError("replay_capacity must be at least "
                             "max(minibatch_size, replay_start_size)")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and positive, "
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


def architecture_streams(name):
    """Which input streams an architecture consumes: (needs_ram, needs_screen)."""
    if name in ("just_ram", "big_ram"):
        return True, False
    if name == "nips":
        return False, True
    if name in ("mixed_ram", "big_mixed_ram"):
        return True, True
    raise ValueError(f"unknown architecture {name!r}")


def _conv_plan(screen_shape):
    """Full-scale conv hyperparameters when they fit, micro ones otherwise."""
    for plan in (CONV_FULL, CONV_MICRO):
        h, w = screen_shape
        ok = True
        for _, k, s in plan:
            if k > h or k > w:
                ok = False
                break
            h, w = (h - k) // s + 1, (w - k) // s + 1
        if ok and h >= 1 and w >= 1:
            return plan
    raise ShapeError(f"screen {screen_shape} too small for any conv plan")


def build_architecture(name, output_dim, screen_shape=None, phi_length=4,
                       dropout_p=0.0, rng=None, dtype=np.float32):
    """Build one of the five network architectures.

    Dropout (when enabled) follows every hidden layer but never the output.
    screen_shape is the (H, W) of a single frame; screen networks receive a
    phi_length-channel stack.
    """
    needs_ram, needs_screen = architecture_streams(name)
    if needs_screen and screen_shape is None:
        raise ValueError(f"{name} needs a screen_shape")
    if rng is None:
        rng = np.random.default_rng(0)

    specs = []

    def add(spec):
        specs.append(spec)
        return len(specs) - 1

    def hidden(spec):
        idx = add(spec)
        if dropout_p > 0.0:
            idx = add(LayerSpec(kind="dropout", drop_p=dropout_p, input_refs=(idx,)))
        return idx

    ram_idx = screen_tail = None
    if needs_ram:
        ram_idx = add(LayerSpec(kind="input", stream="ram", shape=(128,)))
    if needs_screen:
        s_in = add(LayerSpec(kind="input", stream="screen",
                             shape=(phi_length,) + tuple(screen_shape)))
        prev = s_in
        for filters, kernel, stride in _conv_plan(screen_shape):
            prev = hidden(LayerSpec(kind="conv2d", activation="rectify",
                                    filters=filters, kernel=kernel, stride=stride,
                                    input_refs=(prev,)))
        screen_tail = prev

    def dense(units, ref):
        return hidden(LayerSpec(kind="dense", activation="rectify",
                                units=units, input_refs=(ref,)))

    def out(ref):
        add(LayerSpec(kind="dense", activation="none",
                      units=output_dim, input_refs=(ref,)))

    if name == "just_ram":
        out(dense(128, dense(128, ram_idx)))
    elif name == "big_ram":
        h = ram_idx
        for _ in range(4):
            h = dense(128, h)
        out(h)
    elif name == "nips":
        out(dense(256, screen_tail))
    elif name == "mixed_ram":
        h = dense(256, screen_tail)
        cat = add(LayerSpec(kind="concat", input_refs=(h, ram_idx)))
        out(cat)
    else:  # big_mixed_ram
        h1 = dense(256, screen_tail)
        h3 = dense(128, dense(128, ram_idx))
        cat = add(LayerSpec(kind="concat", input_refs=(h1, h3)))
        out(dense(256, cat))

    return make_network(specs, rng, dtype=dtype)


def select_action(net, observation_inputs, epsilon, rng):
    """Epsilon-greedy over Q(observation), one of the network's
    `output_dim` actions; argmax ties break to lowest index.
    `observation_inputs` is the network's inputs for one observation, or a
    function returning them, called only for a greedy action."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if rng.random() < epsilon:
        return int(rng.integers(net.output_dim))
    if callable(observation_inputs):
        observation_inputs = observation_inputs()
    batch = {k: v[None, ...] for k, v in observation_inputs.items()}
    acts = forward(net, batch, mode="eval")
    q = acts[net.terminal]["out"][0]
    return int(np.argmax(q))


def compute_targets(net, minibatch, discount):
    """Bellman targets y_i = r_i (+ discount * max_a Q(s'_i, a) if non-terminal).

    `minibatch` is a replay.Minibatch.  Uses the online network in eval mode;
    terminal next states are never read.
    """
    if not len(minibatch):
        raise ValueError("minibatch must be nonempty")
    targets = np.array(minibatch.reward, dtype=np.float64)
    live = np.flatnonzero(~minibatch.terminal)
    if live.size and discount > 0.0:
        batch = minibatch.next_state
        if live.size < len(targets):
            batch = {k: v[live] for k, v in batch.items()}
        acts = forward(net, batch, mode="eval")
        q_next = acts[net.terminal]["out"]
        targets[live] += discount * q_next.max(axis=1)
    return targets


def train_step(net, memory, optimizer_state, hyper, sample_rng, dropout_rng=None):
    """One parameter update: sample, target, squared-loss gradient, rmsprop."""
    batch = memory.sample_minibatch(hyper.minibatch_size, sample_rng)
    targets = compute_targets(net, batch, hyper.discount)
    mode = "train" if hyper.dropout_p > 0.0 else "eval"
    acts = forward(net, batch.state, mode=mode, rng=dropout_rng)
    q = acts[net.terminal]["out"]
    loss, dq = q_loss_grad(q, batch.action, targets)
    grads = backward(net, acts, dq, optimizer_state.grads)
    rmsprop_step(net, grads, optimizer_state)
    return loss
