"""Bounded experience store: a uint8 ring of observations with uniform
minibatch sampling."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .envs import check_count, scale_ram

STACKED_STREAM = "screen"  # its states are the last phi_length frames


@dataclass(eq=False)
class Minibatch:
    """Transitions as arrays, one row each: `state` and `next_state` map a
    stream to a (n, ...) float32 array; `action` (intp), `reward` (float64)
    and `terminal` (bool) are (n,).  The next state of a terminal row is
    never bootstrapped: the replay ring builds it from the next episode's
    first frame."""

    state: dict
    action: np.ndarray
    reward: np.ndarray
    next_state: dict
    terminal: np.ndarray

    def __len__(self):
        return len(self.action)


class _Contents:
    """The stored transitions, oldest first, each gathered when it is read:
    item i is a one-row Minibatch, and a slice one Minibatch of its rows."""

    def __init__(self, memory, numbers):
        self._memory = memory
        self._numbers = numbers

    def __len__(self):
        return len(self._numbers)

    def __getitem__(self, i):
        return self._memory._gather(np.atleast_1d(self._numbers[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


class ReplayMemory:
    """FIFO store of the last `capacity` transitions; uniform sampling with
    replacement.

    Each step is stored once, as bytes, in a ring of capacity + phi_length
    slots: slot j holds the uint8 observation of every stream, the action,
    reward and terminal flag of the transition taken from it, and whether an
    episode starts there.  Transition number k acts from slot k and leads
    to slot k + 1 (mod the slot count).  The `screen` stream's states are stacks of
    the last phi_length frames, the episode's first frame repeated where the
    episode is younger, as `PhiBuffer` builds them; other streams' states
    are the one observation.  Observations are scaled by `scale_ram` when
    read.  The newest slot holds the observation the agent acts from, and
    `latest_state` gives its state.

    `first_obs` (stream -> uint8 array) starts the first episode in slot 0
    and sets each stream's shape.  After that `push` is the only write: the
    next observation of a terminal transition is the next episode's first.
    A game can draw that observation straight into the slot that keeps it
    (`MicroGame.observe`), so each observed byte is written once.  A
    `capacity` or `phi_length` that `envs.check_count` refuses raises
    ValueError.
    """

    def __init__(self, capacity, first_obs, *, phi_length=1):
        check_count("capacity", capacity)
        check_count("phi_length", phi_length)
        self.capacity = capacity
        self.phi_length = phi_length
        self.pushes = 0
        slots = capacity + phi_length  # the oldest stack survives a wrap
        # np.zeros: Linux backs the pages lazily, so unused capacity costs no RSS.
        self.frames = {name: np.zeros((slots,) + np.shape(obs), dtype=np.uint8)
                       for name, obs in first_obs.items()}
        self._slot_shapes = {name: frames.shape[1:] for name, frames in self.frames.items()}
        self.action = np.zeros(slots, dtype=np.int32)
        self.reward = np.zeros(slots, dtype=np.float64)
        self.terminal = np.zeros(slots, dtype=bool)
        self.start = np.zeros(slots, dtype=bool)
        self._write(0, first_obs)
        self.start[0] = True

    def __len__(self):
        return min(self.pushes, self.capacity)

    def _write(self, slot, obs):
        """Store `obs` in `slot`; a wrong stream, shape or dtype raises
        ValueError and writes nothing."""
        if obs.keys() != self.frames.keys():
            raise ValueError(f"observation streams {sorted(obs)} != {sorted(self.frames)}")
        for name, shape in self._slot_shapes.items():
            o = np.asarray(obs[name])
            if o.dtype != np.uint8 or o.shape != shape:
                raise ValueError(f"observation {name!r} is {o.dtype} {o.shape}, "
                                 f"expected uint8 {shape}")
        for name, frames in self.frames.items():
            frames[slot] = obs[name]

    def push(self, action, reward, terminal, next_obs):
        """Store the transition taken from the latest observation.  `next_obs`
        is the observation it led to, or after a terminal transition the
        first observation of the next episode: either the observation itself
        (stream -> uint8 array), copied in, or a function that draws it into
        the arrays it is given, the views of the slot that keeps it, as
        `EpisodePipeline.draw` does.  The push is committed once the
        observation is in.  An action that is not an int or numpy integer in
        [0, 2**31), a reward that is a bool or not a finite real number, a
        terminal flag that is not a bool or numpy bool, or a wrong
        observation, raises ValueError and stores nothing."""
        if (type(action) is not int and not isinstance(action, np.integer)
                or not 0 <= action < 2**31):
            raise ValueError(f"action must be an integer in [0, 2**31), got {action!r}")
        if type(reward) is not float and (type(reward) is bool  # float: fast
                                          or not isinstance(reward, numbers.Real)):
            raise ValueError(f"reward must be a real number, got {reward!r}")
        if not isinstance(terminal, (bool, np.bool_)):
            raise ValueError(f"terminal must be a bool, got {terminal!r}")
        try:
            reward = float(reward)
        except OverflowError:  # an int past float64's range
            raise ValueError("reward must be in float64's range") from None
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward!r}")
        slots = len(self.start)
        slot = self.pushes % slots
        after = (slot + 1) % slots
        if callable(next_obs):
            next_obs({name: frames[after] for name, frames in self.frames.items()})
        else:
            self._write(after, next_obs)
        self.action[slot] = action
        self.reward[slot] = reward
        self.terminal[slot] = terminal
        self.start[after] = terminal
        self.pushes += 1

    def _numbers(self, positions):
        """Transition numbers at list positions: position p holds the latest
        push whose number is p mod capacity, as a list ring written in push
        order would."""
        last = self.pushes - 1
        return last - (last - positions) % self.capacity

    def _walk(self, here, after):
        """(n, phi_length + 1) slots, oldest first: the frames of the state
        stacks of transitions that act from slots `here`, then the slots
        `after` they lead to.  The walk back stops at an episode's first
        frame, which repeats."""
        slots = len(self.start)
        cols = [after, here]
        for _ in range(self.phi_length - 1):
            prev = cols[-1]
            cols.append(np.where(self.start[prev], prev, (prev - 1) % slots))
        return np.stack(cols[::-1], axis=1)

    def _gather(self, numbers):
        # A next state is its state stack moved on by one frame, which for a
        # terminal transition mixes two episodes; it is never bootstrapped.
        slots = len(self.start)
        here, after = numbers % slots, (numbers + 1) % slots
        state, next_state = {}, {}
        for name, frames in self.frames.items():
            if name == STACKED_STREAM:
                raw = frames[self._walk(here, after)]
                state[name], next_state[name] = scale_ram(raw[:, :-1]), scale_ram(raw[:, 1:])
            else:
                state[name], next_state[name] = scale_ram(frames[here]), scale_ram(frames[after])
        return Minibatch(state, self.action[here].astype(np.intp), self.reward[here],
                         next_state, self.terminal[here])

    def latest_state(self):
        """The state of the newest observation, the one the next push acts
        from, as network inputs (stream -> float32 array).  The screen stack
        walks back like `_walk`, with scalar indices: -1 is the last slot."""
        slot = self.pushes % len(self.start)
        state = {name: scale_ram(frames[slot]) for name, frames in self.frames.items()
                 if name != STACKED_STREAM}
        if STACKED_STREAM in self.frames:
            slots = [slot]
            for _ in range(self.phi_length - 1):
                slots.append(slots[-1] - (not self.start[slots[-1]]))
            state[STACKED_STREAM] = scale_ram(self.frames[STACKED_STREAM][slots[::-1]])
        return state

    def contents(self):
        """Stored transitions, oldest first, as a sized sequence of one-row
        Minibatches built when read (a slice is one Minibatch); it reads the
        ring, so take it again after a push."""
        return _Contents(self, np.arange(self.pushes - len(self), self.pushes))

    def sample_minibatch(self, n, rng):
        """`n` transitions drawn uniformly with replacement, as a Minibatch."""
        if n > len(self):
            raise ValueError(
                f"cannot sample {n} transitions from a memory of size {len(self)}"
            )
        idx = rng.integers(0, len(self), size=n)
        return self._gather(self._numbers(idx))

    def arrays(self):
        """Views of the ring's arrays by name, cut to the slots written so far,
        `min(pushes + 1, capacity + phi_length)`: what checkpoints save and load."""
        used = min(self.pushes + 1, len(self.start))
        ring = {f"frames/{name}": frames for name, frames in self.frames.items()}
        ring.update(action=self.action, reward=self.reward, terminal=self.terminal,
                    start=self.start)
        return {name: a[:used] for name, a in ring.items()}
