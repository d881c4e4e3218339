"""Bounded experience store with uniform minibatch sampling."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Transition:
    """One (state, action, reward, next_state, terminal) record.

    States are network-ready input dicts (stream name -> array).  The
    next_state of a terminal transition is stored but never bootstrapped.
    """

    state: dict
    action: int
    reward: float
    next_state: dict
    terminal: bool


class ReplayMemory:
    """FIFO ring buffer; uniform sampling with replacement."""

    def __init__(self, capacity=100_000):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring = []
        self._cursor = 0

    def __len__(self):
        return len(self._ring)

    def push(self, transition):
        if len(self._ring) < self.capacity:
            self._ring.append(transition)
        else:
            self._ring[self._cursor] = transition
            self._cursor = (self._cursor + 1) % self.capacity

    def contents(self):
        """Stored transitions, oldest first."""
        return self._ring[self._cursor:] + self._ring[:self._cursor]

    def sample_minibatch(self, n, rng):
        if n > len(self._ring):
            raise ValueError(
                f"cannot sample {n} transitions from a memory of size {len(self._ring)}"
            )
        idx = rng.integers(0, len(self._ring), size=n)
        return [self._ring[i] for i in idx]
