"""RMSprop updates and the Q-learning squared-loss gradient."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor_core import ShapeError, param_views

DECAY_RHO = 0.95  # RMSprop's mean-square decay
STABILIZER_EPS = 1e-6  # added to the mean square under the square root
CHUNK = 65_536  # parameters per RMSprop pass: a chunk's slices stay in cache


@dataclass(eq=False)
class RmsPropState:
    """RMSprop's learning rate and two vectors laid out as the network's
    parameter vector: the mean-square accumulators and the gradient the
    next step applies.  `mean_square` and `grads` are per-layer views of
    them, shaped as the network's `params`; `backward` writes its gradients
    into `grads`.  `scratch` holds the working chunk of a step."""

    accumulator: np.ndarray
    gradient: np.ndarray
    mean_square: list = field(repr=False)
    grads: list = field(repr=False)
    learning_rate: float = 0.0002
    scratch: np.ndarray = field(default=None, repr=False)


def rmsprop_state_for(net, learning_rate=0.0002):
    """Zeroed accumulators and gradient mirroring a network's parameters."""
    acc, grad = np.zeros_like(net.flat), np.zeros_like(net.flat)
    return RmsPropState(acc, grad, param_views(net.params, acc), param_views(net.params, grad),
                        learning_rate, np.empty(min(CHUNK, acc.size), acc.dtype))


def rmsprop_step(net, state):
    """One in-place pass over the whole parameter vector, CHUNK entries at
    a time, with the gradient that `backward` wrote through `state.grads`:
    acc <- rho*acc + (1-rho)*g^2; p <- p - lr*g/sqrt(acc+eps).
    The step leaves the gradient scaled by lr.
    """
    rho, eps, lr = DECAY_RHO, STABILIZER_EPS, state.learning_rate
    if net.flat.shape != state.accumulator.shape:
        raise ShapeError("optimizer state does not match parameter layout")
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


def q_loss_grad(q_values, actions, targets):
    """Mean squared error on the chosen-action Q entries.

    loss = mean_i (target_i - q[i, a_i])^2; the gradient w.r.t. q is
    -2(target_i - q[i, a_i]) / batch at the chosen entries, zero elsewhere.
    """
    q = np.asarray(q_values)
    actions = np.asarray(actions, dtype=np.intp)
    targets = np.asarray(targets, dtype=q.dtype)
    batch, n_actions = q.shape
    if actions.shape != (batch,) or targets.shape != (batch,):
        raise ShapeError("actions/targets must be one entry per batch row")
    if actions.view(np.uintp).max(initial=0) >= n_actions:  # a negative one wraps to a huge one
        raise IndexError("action index out of range")
    rows = np.arange(batch)
    diff = targets - q[rows, actions]
    total = np.add.reduce(diff * diff, axis=None)
    # np.mean's arithmetic: the sum in q's dtype, over the count in float64, rounded back
    loss = float(total.dtype.type(float(total) / batch))
    grad = np.zeros(q.shape, q.dtype)
    grad[rows, actions] = -2.0 * diff / batch
    return loss, grad
