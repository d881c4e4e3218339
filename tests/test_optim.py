from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramdqn.agents import build_architecture
from ramdqn.optim import (CHUNK, DECAY_RHO, STABILIZER_EPS, q_loss_grad, rmsprop_state_for,
                          rmsprop_step)
from ramdqn.tensor_core import ShapeError


def tiny_net():
    return build_architecture("just_ram", 2, rng=np.random.default_rng(0),
                              dtype=np.float64)


def test_zero_gradient_leaves_params_and_decays_acc():
    net = tiny_net()
    state = rmsprop_state_for(net)  # its gradient starts as zeros
    state.mean_square[1]["W"][...] = 1.0
    before = {i: {k: v.copy() for k, v in p.items()}
              for i, p in enumerate(net.params) if p is not None}
    rmsprop_step(net, state)
    for i, p in enumerate(net.params):
        if p is None:
            continue
        for k, v in p.items():
            np.testing.assert_array_equal(v, before[i][k])
    np.testing.assert_allclose(state.mean_square[1]["W"], 0.95)


def test_fresh_state_step_magnitude():
    # acc=0, rho=0.95, lr=0.0002, g=1 -> step 0.0002/sqrt(0.05+1e-6)
    net = tiny_net()
    state = rmsprop_state_for(net, learning_rate=0.0002)
    before = net.params[1]["W"].copy()
    state.grads[1]["W"][...] = 1.0
    rmsprop_step(net, state)
    step = before - net.params[1]["W"]
    expected = 0.0002 / np.sqrt(0.05 + 1e-6)
    np.testing.assert_allclose(step, expected, rtol=1e-12)
    assert abs(expected - 8.94e-4) < 1e-6


def test_rmsprop_deterministic():
    results = []
    for _ in range(2):
        net = tiny_net()
        state = rmsprop_state_for(net)
        state.grads[1]["W"][...] = 0.3
        state.grads[2]["b"][...] = -1.5
        rmsprop_step(net, state)
        results.append(net.params[1]["W"].copy())
    np.testing.assert_array_equal(results[0], results[1])


def test_rmsprop_opposes_gradient_sign():
    net = tiny_net()
    state = rmsprop_state_for(net)
    rng = np.random.default_rng(3)
    grad = rng.standard_normal(state.grads[1]["W"].shape)
    state.grads[1]["W"][...] = grad
    before = net.params[1]["W"].copy()
    rmsprop_step(net, state)
    delta = net.params[1]["W"] - before
    moved = grad != 0
    assert np.all(np.sign(delta[moved]) == -np.sign(grad[moved]))


def test_rmsprop_shape_mismatch():
    # A state built for another network does not fit this one's parameters.
    net = tiny_net()
    other = build_architecture("just_ram", 5, rng=np.random.default_rng(0), dtype=np.float64)
    with pytest.raises(ShapeError):
        rmsprop_step(net, rmsprop_state_for(other))


def test_rmsprop_matches_reference_expression_bitwise():
    # The in-place update against the plain expression, on 32-bit nips
    # parameters, with one layer receiving no gradient (zeros).
    rng = np.random.default_rng(4)
    net = build_architecture("nips", 3, screen_shape=(16, 16), rng=rng)
    state = rmsprop_state_for(net, learning_rate=0.001)
    ref_params = [None if p is None else {k: v.copy() for k, v in p.items()}
                  for p in net.params]
    ref_acc = [None if a is None else {k: v.copy() for k, v in a.items()}
               for a in state.mean_square]
    rho, eps, lr = DECAY_RHO, STABILIZER_EPS, state.learning_rate
    for _ in range(5):
        grads = [None if p is None else
                 {k: (0.1 * rng.standard_normal(v.shape)).astype(v.dtype) for k, v in p.items()}
                 for p in net.params]
        grads[-1] = None
        for views, g in zip(state.grads, grads):
            for key, view in (views or {}).items():
                view[...] = 0 if g is None else g[key]
        rmsprop_step(net, state)
        for p, g, acc in zip(ref_params, grads, ref_acc):
            if p is None:
                continue
            for key, val in p.items():
                a = acc[key]
                a *= rho
                if g is None:
                    continue
                gk = g[key]
                a += (1.0 - rho) * gk * gk
                val -= lr * gk / np.sqrt(a + eps)
    for got, want in zip(net.params + state.mean_square, ref_params + ref_acc):
        if want is None:
            continue
        for key in want:
            assert got[key].dtype == np.float32
            np.testing.assert_array_equal(got[key], want[key])


def one_pass_rmsprop(flat, acc, grad, lr):
    """The update as nine passes over the whole vectors, through one scratch
    vector made per step."""
    g, a, t = grad, acc, np.empty_like(grad)
    np.multiply(g, 1.0 - DECAY_RHO, out=t)
    t *= g
    a *= DECAY_RHO
    a += t
    np.add(a, STABILIZER_EPS, out=t)
    np.sqrt(t, out=t)
    g *= lr
    np.divide(g, t, out=t)
    flat -= t


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_chunked_rmsprop_matches_one_pass_bitwise(n):
    rng = np.random.default_rng(n)
    net = SimpleNamespace(flat=rng.standard_normal(n).astype(np.float32))
    net.params = [{"W": net.flat}]
    state = rmsprop_state_for(net, learning_rate=0.001)
    state.accumulator[...] = rng.random(n) * 1e-3
    state.accumulator[::97] = 1e-40  # subnormal, as small gradients leave them
    ref = [v.copy() for v in (net.flat, state.accumulator)]
    for _ in range(3):
        state.gradient[...] = 0.01 * rng.standard_normal(n)
        grad = state.gradient.copy()
        rmsprop_step(net, state)
        one_pass_rmsprop(*ref, grad, state.learning_rate)
        assert net.flat.tobytes() == ref[0].tobytes()
        assert state.accumulator.tobytes() == ref[1].tobytes()
        assert state.gradient.tobytes() == grad.tobytes()


def test_q_loss_perfect_fit():
    q = np.array([[1.0, 5.0], [2.0, -3.0]])
    loss, grad = q_loss_grad(q, [1, 0], [5.0, 2.0])
    assert loss == 0.0
    np.testing.assert_array_equal(grad, np.zeros_like(q))


def test_q_loss_hand_differentiation():
    loss, grad = q_loss_grad(np.array([[0.0, 0.0]]), [0], [2.0])
    assert loss == 4.0
    np.testing.assert_array_equal(grad, [[-4.0, 0.0]])


def test_q_loss_nonchosen_entries_zero():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((8, 5))
    actions = rng.integers(0, 5, size=8)
    _, grad = q_loss_grad(q, actions, rng.standard_normal(8))
    mask = np.ones_like(q, dtype=bool)
    mask[np.arange(8), actions] = False
    np.testing.assert_array_equal(grad[mask], 0.0)


def test_q_loss_index_out_of_range():
    with pytest.raises(IndexError):
        q_loss_grad(np.zeros((1, 3)), [3], [0.0])


def test_q_loss_nonnegative_and_zero_iff_fit():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((6, 4))
    actions = rng.integers(0, 4, size=6)
    targets = rng.standard_normal(6)
    loss, _ = q_loss_grad(q, actions, targets)
    assert loss > 0.0


def test_q_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((4, 3))
    actions = rng.integers(0, 3, size=4)
    targets = rng.standard_normal(4)
    _, grad = q_loss_grad(q, actions, targets)
    h = 1e-6
    for i in range(4):
        for j in range(3):
            qp, qm = q.copy(), q.copy()
            qp[i, j] += h
            qm[i, j] -= h
            lp, _ = q_loss_grad(qp, actions, targets)
            lm, _ = q_loss_grad(qm, actions, targets)
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grad[i, j]) <= 1e-8 * max(1.0, abs(fd))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([np.float32, np.float64]), st.integers(1, 64), st.integers(1, 8),
       st.integers(0, 2**32 - 1))
def test_q_loss_equals_np_mean_bitwise(dtype, batch, n_actions, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4)
    q = (scale * rng.standard_normal((batch, n_actions))).astype(dtype)
    actions = rng.integers(0, n_actions, size=batch)
    targets = scale * rng.standard_normal(batch)
    loss, _ = q_loss_grad(q, actions, targets)
    diff = targets.astype(dtype) - q[np.arange(batch), actions]
    want = float(np.mean(diff * diff))
    assert np.float64(loss).tobytes() == np.float64(want).tobytes()
    for bad in (-1, -n_actions, n_actions, n_actions + 7, np.iinfo(np.intp).min):
        wrong = actions.copy()
        wrong[rng.integers(batch)] = bad
        with pytest.raises(IndexError):
            q_loss_grad(q, wrong, targets)
