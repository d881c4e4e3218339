"""RMSprop updates and the Q-learning squared-loss gradient."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor_core import ShapeError


@dataclass
class RmsPropState:
    """Per-parameter mean-square accumulators plus the update constants.

    `scratch` holds one work array per parameter, made on the first step, so
    that an update allocates no full-size temporaries."""

    mean_square: list
    decay_rho: float = 0.95
    stabilizer_eps: float = 1e-6
    learning_rate: float = 0.0002
    scratch: list = field(default=None, repr=False, compare=False)


def rmsprop_state_for(net, learning_rate=0.0002, decay_rho=0.95, stabilizer_eps=1e-6):
    """Fresh zeroed accumulators mirroring a network's parameter layout."""
    acc = []
    for p in net.params:
        if p is None:
            acc.append(None)
        else:
            acc.append({k: np.zeros_like(v) for k, v in p.items()})
    return RmsPropState(
        mean_square=acc,
        decay_rho=decay_rho,
        stabilizer_eps=stabilizer_eps,
        learning_rate=learning_rate,
    )


def rmsprop_step(params, grads, state):
    """In-place update: acc <- rho*acc + (1-rho)*g^2; p <- p - lr*g/sqrt(acc+eps).

    `grads` entries may be None (no gradient reached that layer); the matching
    accumulators still decay so repeated zero-gradient steps are well defined.
    """
    rho = state.decay_rho
    eps = state.stabilizer_eps
    lr = state.learning_rate
    if len(params) != len(state.mean_square):
        raise ShapeError("optimizer state does not match parameter layout")
    if state.scratch is None:
        state.scratch = [None if acc is None else {k: np.empty_like(a) for k, a in acc.items()}
                         for acc in state.mean_square]
    for p, g, acc, scratch in zip(params, grads, state.mean_square, state.scratch):
        if p is None:
            continue
        for key, val in p.items():
            gk = None if g is None else g.get(key)
            a = acc[key]
            if gk is None:
                a *= rho
                continue
            if gk.shape != val.shape:
                raise ShapeError(f"gradient shape {gk.shape} != param shape {val.shape}")
            gk = gk.astype(val.dtype, copy=False)
            t = scratch[key]
            np.multiply(gk, 1.0 - rho, out=t)
            t *= gk
            a *= rho
            a += t
            np.add(a, eps, out=t)
            np.sqrt(t, out=t)
            np.divide(gk * lr, t, out=t)
            val -= t


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
    if np.any(actions < 0) or np.any(actions >= n_actions):
        raise IndexError("action index out of range")
    chosen = q[np.arange(batch), actions]
    diff = targets - chosen
    loss = float(np.mean(diff * diff))
    grad = np.zeros_like(q)
    grad[np.arange(batch), actions] = -2.0 * diff / batch
    return loss, grad
