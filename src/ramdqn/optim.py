"""RMSprop updates and the Q-learning squared-loss gradient."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor_core import ShapeError, param_views

DECAY_RHO = 0.95  # RMSprop's mean-square decay
STABILIZER_EPS = 1e-6  # added to the mean square under the square root


@dataclass(eq=False)
class RmsPropState:
    """RMSprop's learning rate and two vectors laid out as the network's
    parameter vector: the mean-square accumulators and the gradient the
    next step applies.  `mean_square` and `grads` are per-layer views of
    them, shaped as the network's `params`; `backward` writes its gradients
    into `grads`."""

    accumulator: np.ndarray
    gradient: np.ndarray
    mean_square: list = field(repr=False)
    grads: list = field(repr=False)
    learning_rate: float = 0.0002


def rmsprop_state_for(net, learning_rate=0.0002):
    """Zeroed accumulators and gradient mirroring a network's parameters."""
    acc, grad = np.zeros_like(net.flat), np.zeros_like(net.flat)
    return RmsPropState(acc, grad, param_views(net.params, acc), param_views(net.params, grad),
                        learning_rate)


def rmsprop_step(net, grads, state):
    """One in-place pass over the whole parameter vector:
    acc <- rho*acc + (1-rho)*g^2; p <- p - lr*g/sqrt(acc+eps).

    `grads` is per-layer, as `backward` returns it.  The state's own `grads`
    are used where they lie; others are copied into them first, a None
    entry (no gradient reached that layer) as zeros, so that its
    accumulators only decay.  The step leaves the gradient scaled by lr.

    Its one scratch vector is made per step: freed, its memory serves the
    next large allocation, where a kept one would add to the peak RSS.
    """
    rho, eps, lr = DECAY_RHO, STABILIZER_EPS, state.learning_rate
    if net.flat.shape != state.accumulator.shape or len(grads) != len(state.grads):
        raise ShapeError("optimizer state does not match parameter layout")
    if grads is not state.grads:
        for views, g in zip(state.grads, grads):
            for key, view in (views or {}).items():
                gk = None if g is None else g.get(key)
                if gk is not None and gk.shape != view.shape:
                    raise ShapeError(f"gradient shape {gk.shape} != param shape {view.shape}")
                view[...] = 0 if gk is None else gk
    g, a, t = state.gradient, state.accumulator, np.empty_like(state.gradient)
    np.multiply(g, 1.0 - rho, out=t)
    t *= g
    a *= rho
    a += t
    np.add(a, eps, out=t)
    np.sqrt(t, out=t)
    g *= lr
    np.divide(g, t, out=t)
    net.flat -= t


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
