"""The draw that tests push into a replay ring: a copy of an observation they
have made, written as a game's draw would be."""

import numpy as np


def copying(obs):
    """A draw for `ReplayMemory.push` that copies `obs` (stream -> uint8
    array) into the slot's views and counts its calls in `draw.calls`.  An
    array that is not an ndarray of its view's shape and dtype, or a stream
    that the slot does not have, fails before anything is written, so that
    a mistyped test is never broadcast or cast into a slot."""
    def draw(out):
        draw.calls += 1
        assert out.keys() == obs.keys(), (sorted(out), sorted(obs))
        for name, view in out.items():
            o = obs[name]
            assert isinstance(o, np.ndarray) and (o.dtype, o.shape) == (view.dtype, view.shape), (
                name, o, view.dtype, view.shape)
        for name, view in out.items():
            view[...] = obs[name]

    draw.calls = 0
    return draw
