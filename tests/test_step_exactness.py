"""The train step's trimmed pieces, bit for bit against test-local copies of their
plainer forms: the Bellman targets, the squared-loss gradient, minibatch sampling
and RMSprop.  Each copy is the code the trimmed function replaced."""

import copy
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drawing import copying
from ramdqn import agents
from ramdqn.agents import HyperParams, build_architecture, compute_targets
from ramdqn.envs import scale_ram
from ramdqn.harness import (ExperimentConfig, TrainingState, checkpoint_load, checkpoint_save,
                            restore_training_state, run_training_epoch)
from ramdqn.optim import (CHUNK, DECAY_RHO, STABILIZER_EPS, flush_subnormals, q_loss_grad,
                          rmsprop_state_for, rmsprop_step)
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


def plain_rmsprop(net, state):
    rho, eps, lr = DECAY_RHO, STABILIZER_EPS, state.learning_rate
    for lo in range(0, net.flat.size, CHUNK):
        g, a = state.gradient[lo : lo + CHUNK], state.accumulator[lo : lo + CHUNK]
        t = state.scratch[: len(g)]
        np.multiply(g, 1.0 - rho, out=t)
        t *= g
        a *= rho
        a += t
        np.add(a, eps, out=t)
        np.sqrt(t, out=t)
        g *= lr
        np.divide(g, t, out=t)
        net.flat[lo : lo + CHUNK] -= t


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


def nips_net():
    net = build_architecture("nips", 3, screen_shape=(16, 16), rng=np.random.default_rng(0))
    assert net.flat.size > 3 * CHUNK  # 299,059 parameters: five chunks
    return net


def test_bound_rmsprop_matches_the_chunk_loop_across_flushes_and_rebinds():
    net = nips_net()
    plain_net = copy.deepcopy(net)
    state, plain = rmsprop_state_for(net), rmsprop_state_for(plain_net)
    rng = np.random.default_rng(1)
    for step in range(7):
        if step == 2:  # stuck subnormal accumulators, flushed in place
            for s in (state, plain):
                s.accumulator[::7] = np.float32(1e-40)
                flush_subnormals(s)
        if step == 4:  # another learning rate
            state.learning_rate = plain.learning_rate = 0.001
        if step == 5:  # another parameter vector of the same layout
            old, net = net, copy.deepcopy(net)
            before = old.flat.copy()
        g = (rng.standard_normal(net.flat.size) * 1e-3).astype(net.dtype)
        g[rng.random(g.size) < 0.3] = 0  # entries without a gradient, whose accumulators decay
        np.copyto(state.gradient, g)
        np.copyto(plain.gradient, g)
        rmsprop_step(net, state)
        plain_rmsprop(plain_net, plain)
        for a, b in ((net.flat, plain_net.flat), (state.accumulator, plain.accumulator),
                     (state.gradient, plain.gradient)):
            assert_same_bits(a, b)
    assert_same_bits(old.flat, before)  # the vector stepped before is left alone


def test_bound_rmsprop_carries_on_after_a_restore(tmp_path, monkeypatch):
    hyper = HyperParams(replay_capacity=64, replay_start_size=40, frame_skip=1)
    state = TrainingState(ExperimentConfig("micro_catch", "nips", hyper, seed=3))
    run_training_epoch(state, 2)  # steps this state's arrays
    flush_subnormals(state.opt_state)
    path = tmp_path / "resume.ckpt"
    checkpoint_save(state, path, include_replay=True)
    restored = restore_training_state(checkpoint_load(path))
    for s in (state, restored):
        run_training_epoch(s, 2)
    monkeypatch.setattr(agents, "rmsprop_step", plain_rmsprop)
    plain = restore_training_state(checkpoint_load(path))
    run_training_epoch(plain, 2)
    for s in (state, restored):
        assert_same_bits(s.net.flat, plain.net.flat)
        assert_same_bits(s.opt_state.accumulator, plain.opt_state.accumulator)
