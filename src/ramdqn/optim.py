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
    The step leaves the gradient scaled by lr."""
    rho, eps, lr = DECAY_RHO, STABILIZER_EPS, state.learning_rate
    flat, acc, grad = net.flat, state.accumulator, state.gradient
    if flat.shape != acc.shape:
        raise ShapeError("optimizer state does not match parameter layout")
    for lo in range(0, flat.size, CHUNK):
        p, a, g = flat[lo : lo + CHUNK], acc[lo : lo + CHUNK], grad[lo : lo + CHUNK]
        t = state.scratch[: len(g)]
        np.multiply(g, 1.0 - rho, t)
        np.multiply(t, g, t)
        np.multiply(a, rho, a)
        np.add(a, t, a)
        np.add(a, eps, t)
        np.sqrt(t, t)
        np.multiply(g, lr, g)
        np.divide(g, t, t)
        np.subtract(p, t, p)


def flush_subnormals(state):
    """Zero the accumulators below the smallest normal (2^-126 in float32), where decay sticks
    and passes run slowly; parameters keep their bits, as acc + eps rounds to eps for them."""
    acc = state.accumulator
    acc[acc < np.finfo(acc.dtype).tiny] = 0


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
    if np.maximum.reduce(actions.view(np.uintp), initial=0) >= n_actions:  # negatives wrap high
        raise IndexError("action index out of range")
    flat = np.arange(0, batch * n_actions, n_actions) + actions  # the chosen entries of q.flat
    diff = targets - q.take(flat)
    total = np.add.reduce(diff * diff, axis=None)
    # np.mean's arithmetic: the sum in q's dtype, over the count in float64, rounded back
    loss = float(total.dtype.type(float(total) / batch))
    grad = np.zeros(q.shape, q.dtype)
    grad.put(flat, -2.0 * diff / batch)
    return loss, grad
