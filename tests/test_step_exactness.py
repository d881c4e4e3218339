"""The train step's trimmed pieces, bit for bit against test-local copies of their
plainer forms: the Bellman targets, the squared-loss gradient and minibatch
sampling.  Each copy is the code the trimmed function replaced."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drawing import copying
from ramdqn.agents import build_architecture, compute_targets
from ramdqn.envs import scale_ram
from ramdqn.optim import q_loss_grad
from ramdqn.replay import STACKED_STREAM, Minibatch, ReplayMemory
from ramdqn.tensor_core import ShapeError, Workspace, forward


def plain_targets(net, minibatch, discount, workspace=None):
    workspace = Workspace() if workspace is None else workspace
    targets = np.array(minibatch.reward, dtype=np.float64)
    live = np.flatnonzero(~minibatch.terminal)
    if live.size and discount > 0.0:
        batch = minibatch.next_state
        if live.size < len(targets):
            batch = {k: v.take(live, 0, workspace.take("live", k, v.shape, v.dtype)[: live.size],
                               "clip") for k, v in batch.items()}
        acts = forward(net, batch, mode="eval", workspace=workspace)
        targets[live] += discount * acts[net.terminal]["out"].max(axis=1)
    return targets


def plain_loss_grad(q_values, actions, targets):
    q = np.asarray(q_values)
    actions = np.asarray(actions, dtype=np.intp)
    targets = np.asarray(targets, dtype=q.dtype)
    batch, n_actions = q.shape
    if actions.shape != (batch,) or targets.shape != (batch,):
        raise ShapeError("actions/targets must be one entry per batch row")
    if actions.view(np.uintp).max(initial=0) >= n_actions:
        raise IndexError("action index out of range")
    rows = np.arange(batch)
    diff = targets - q[rows, actions]
    total = np.add.reduce(diff * diff, axis=None)
    loss = float(total.dtype.type(float(total) / batch))
    grad = np.zeros(q.shape, q.dtype)
    grad[rows, actions] = -2.0 * diff / batch
    return loss, grad


def plain_sample(memory, n, rng):
    positions = rng.integers(0, len(memory), size=n)
    last = memory.pushes - 1
    return plain_gather(memory, last - (last - positions) % memory.capacity)


def plain_gather(memory, numbers):
    slots = len(memory.start)
    here, after = numbers % slots, (numbers + 1) % slots
    state, next_state = {}, {}
    for name, frames in memory.frames.items():
        if name == STACKED_STREAM:
            raw = frames[np.stack([*memory._walk(here), after], axis=1)]
            state[name], next_state[name] = scale_ram(raw[:, :-1]), scale_ram(raw[:, 1:])
        else:
            state[name], next_state[name] = scale_ram(frames[here]), scale_ram(frames[after])
    return Minibatch(state, memory.action[here].astype(np.intp), memory.reward[here],
                     next_state, memory.start[after])


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def assert_same_minibatch(a, b):
    for x, y in ((a.state, b.state), (a.next_state, b.next_state)):
        assert x.keys() == y.keys()
        for k in x:
            assert_same_bits(x[k], y[k])
    for name in ("action", "reward", "terminal"):
        assert_same_bits(getattr(a, name), getattr(b, name))


@lru_cache(maxsize=None)
def q_net(n_actions, dtype):
    """A just_ram network, and a workspace each for the trimmed and the plain targets, kept
    across examples so that frames built at one batch size serve the next."""
    net = build_architecture("just_ram", n_actions, rng=np.random.default_rng(n_actions),
                             dtype=dtype)
    return net, Workspace(), Workspace()


@settings(max_examples=120, deadline=None)
@given(rows=st.integers(1, 64), n_actions=st.integers(2, 6),
       dtype=st.sampled_from([np.float32, np.float64]),
       terminals=st.sampled_from(["none", "some", "all"]), discount=st.sampled_from([0.0, 0.95]),
       kept=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_compute_targets_matches_the_plain_targets(rows, n_actions, dtype, terminals, discount,
                                                   kept, seed):
    rng = np.random.default_rng(seed)
    net, ws, plain_ws = q_net(n_actions, dtype)
    terminal = {"none": np.zeros(rows, bool), "all": np.ones(rows, bool),
                "some": rng.random(rows) < 0.3}[terminals]
    ram = rng.random((2, rows, 128), dtype=np.float32)
    batch = Minibatch({"ram": ram[0]}, rng.integers(n_actions, size=rows),
                      rng.standard_normal(rows), {"ram": ram[1]}, terminal)
    targets = compute_targets(net, batch, discount, ws if kept else None)
    assert_same_bits(targets, plain_targets(net, batch, discount, plain_ws if kept else None))


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 64), n_actions=st.integers(2, 6),
       dtype=st.sampled_from([np.float32, np.float64]),
       form=st.sampled_from(["array", "fortran", "lists"]), seed=st.integers(0, 2**32 - 1))
def test_q_loss_grad_matches_the_plain_loss(rows, n_actions, dtype, form, seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((rows, n_actions)).astype(dtype)
    actions, targets = rng.integers(n_actions, size=rows), rng.standard_normal(rows)
    if form == "fortran":  # the flat index reads q in C order, whatever its layout
        q = np.asfortranarray(q)
    elif form == "lists":
        q, actions, targets = q.tolist(), actions.tolist(), targets.tolist()
    loss, grad = q_loss_grad(q, actions, targets)
    plain_loss, plain_grad = plain_loss_grad(q, actions, targets)
    assert type(loss) is float and np.float64(loss).tobytes() == np.float64(plain_loss).tobytes()
    assert_same_bits(grad, plain_grad)


@pytest.mark.parametrize("phi_length", [1, 4])
def test_sample_minibatch_matches_the_plain_sample_before_and_after_a_wrap(phi_length):
    def obs(tag):
        return {"ram": np.full(4, tag, np.uint8), "screen": np.full((3, 2), 100 + tag, np.uint8)}

    memory = ReplayMemory(7, obs(0), phi_length=phi_length)
    for tag in range(1, 24):  # a capacity-7 ring wraps at its 8th push
        memory.push(tag % 3, float(tag) / 3, tag % 5 == 0, copying(obs(tag)))
        for seed in range(4):
            n = min(len(memory), 1 + seed * 3)
            assert_same_minibatch(memory.sample_minibatch(n, np.random.default_rng(seed)),
                                  plain_sample(memory, n, np.random.default_rng(seed)))
        for number, item in zip(range(memory.pushes - len(memory), memory.pushes),
                                memory.contents()):
            assert_same_minibatch(item, plain_gather(memory, np.array([number])))
