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
    slots: slot j holds the uint8 observation of every stream, the action
    and reward of the transition taken from it, and whether an episode
    starts there.  Transition number k acts from slot k and leads to slot
    k + 1 (mod the slot count); it is terminal when slot k + 1 starts an
    episode.  The `screen` stream's states are stacks of the last
    phi_length frames, the episode's first frame repeated where the episode
    is younger, as `PhiBuffer` builds them; the `ram` stream's states are
    the one observation.  One walk back over the slots, `_walk`, finds
    every stack: those of sampled transitions and that of the newest slot,
    which holds the observation the agent acts from and whose state
    `latest_state` gives.  Observations are scaled by `scale_ram` when read.

    `first_obs` is a dict that maps "ram", "screen" or both to uint8 arrays;
    anything else, an empty dict, another stream name or another dtype raises
    ValueError.  It starts the
    first episode in slot 0 and sets each stream's shape.  After
    that `push` is the only write: its draw puts each observation straight
    into the slot that keeps it (`MicroGame.observe`), so each observed byte
    is written once.  A `capacity` or `phi_length` that `envs.check_count`
    refuses raises ValueError.
    """

    def __init__(self, capacity, first_obs, *, phi_length=1):
        check_count("capacity", capacity)
        check_count("phi_length", phi_length)
        if (not isinstance(first_obs, dict) or not first_obs
                or not first_obs.keys() <= {"ram", STACKED_STREAM}):
            got = (f"the streams {list(first_obs)}" if isinstance(first_obs, dict)
                   else f"a {type(first_obs).__name__}")
            raise ValueError(f"first_obs must map 'ram', {STACKED_STREAM!r} or both to an "
                             f"observation, got {got}")
        self.capacity = capacity
        self.phi_length = phi_length
        self.pushes = 0
        slots = capacity + phi_length  # the oldest stack survives a wrap
        self.frames = {}
        for name, obs in first_obs.items():
            obs = np.asarray(obs)
            if obs.dtype != np.uint8:
                raise ValueError(f"observation {name!r} is {obs.dtype}, expected uint8")
            # np.zeros: Linux backs the pages lazily, so unused capacity costs no RSS.
            self.frames[name] = np.zeros((slots,) + obs.shape, dtype=np.uint8)
            self.frames[name][0] = obs
        self.action = np.zeros(slots, dtype=np.int32)
        self.reward = np.zeros(slots, dtype=np.float64)
        self.start = np.zeros(slots, dtype=bool)
        self.start[0] = True

    def __len__(self):
        return min(self.pushes, self.capacity)

    def push(self, action, reward, terminal, draw):
        """Store the transition taken from the latest observation.  `draw`
        gets the views of the slot that keeps the observation it led to (after
        a terminal transition, the next episode's first), stream -> uint8
        array, and draws into them, as `EpisodePipeline.draw` does; the push
        is committed when it returns.  An action that is not an int or numpy
        integer in [0, 2**31), a reward that is a bool or not a finite real
        number, or a terminal flag that is not a bool or numpy bool raises
        ValueError and stores nothing, and `draw` is never called.  A draw must
        raise before it writes, as `MicroGame.observe` does: a raising draw
        commits nothing, but what it wrote stays in the slot, which once the
        ring has wrapped holds the oldest frame of the oldest stored state."""
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
        draw({name: frames[after] for name, frames in self.frames.items()})
        self.action[slot] = action
        self.reward[slot] = reward
        self.start[after] = terminal
        self.pushes += 1

    def _numbers(self, positions):
        """Transition numbers at list positions: position p holds the latest
        push whose number is p mod capacity, as a list ring written in push
        order would."""
        last = self.pushes - 1
        return last - (last - positions) % self.capacity

    def _walk(self, slot):
        """The slots of the state stack of the observation in `slot`, an int
        or an index array, oldest first: phi_length of them, each an int or an
        array as `slot` is.  The walk back stops at an episode's first frame,
        which repeats; a slot before 0 is negative, counted from the end."""
        stack = [slot]
        for _ in range(self.phi_length - 1):
            stack.append(stack[-1] - 1 + self.start[stack[-1]])
        return stack[::-1]

    def _gather(self, numbers):
        # A next state is its state stack moved on by one frame, which for a
        # terminal transition mixes two episodes; it is never bootstrapped.
        slots = len(self.start)
        here, after = numbers % slots, (numbers + 1) % slots
        state, next_state = {}, {}
        for name, frames in self.frames.items():
            if name == STACKED_STREAM:
                raw = frames[np.stack([*self._walk(here), after], axis=1)]
                state[name], next_state[name] = scale_ram(raw[:, :-1]), scale_ram(raw[:, 1:])
            else:
                state[name], next_state[name] = scale_ram(frames[here]), scale_ram(frames[after])
        return Minibatch(state, self.action[here].astype(np.intp), self.reward[here],
                         next_state, self.start[after])

    def latest_state(self):
        """The state of the newest observation, the one the next push acts
        from, as network inputs (stream -> float32 array): the stack that
        `_walk` gives, as for a sampled state, so the agent acts on the floats
        it later learns from."""
        slot = self.pushes % len(self.start)
        return {name: scale_ram(frames[self._walk(slot) if name == STACKED_STREAM else slot])
                for name, frames in self.frames.items()}

    def contents(self):
        """Stored transitions, oldest first, as a sized sequence of one-row
        Minibatches built when read (a slice is one Minibatch); it reads the
        ring, so take it again after a push."""
        return _Contents(self, np.arange(self.pushes - len(self), self.pushes))

    def sample_minibatch(self, n, rng):
        """`n` transitions drawn uniformly with replacement, as a Minibatch; an `n` that
        `check_count` refuses, or more than the memory holds, raises ValueError."""
        check_count("n", n)
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
        ring.update(action=self.action, reward=self.reward, start=self.start)
        return {name: a[:used] for name, a in ring.items()}
