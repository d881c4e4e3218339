import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from drawing import copying
from ramdqn.envs import PhiBuffer, scale_ram
from ramdqn.replay import Minibatch, ReplayMemory


def _inputs_equal(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


@dataclass(eq=False)
class Transition:
    """The list model of one stored transition: network-ready input dicts
    (stream -> float32 array), equal when their fields are, arrays compared
    by value."""

    state: dict
    action: int
    reward: float
    next_state: dict
    terminal: bool

    def __eq__(self, other):
        if not isinstance(other, Transition):
            return NotImplemented
        return ((self.action, self.reward, self.terminal)
                == (other.action, other.reward, other.terminal)
                and _inputs_equal(self.state, other.state)
                and _inputs_equal(self.next_state, other.next_state))


def rows(batch):
    """A Minibatch split into one Transition per row."""
    assert isinstance(batch, Minibatch)
    return [Transition({k: v[i] for k, v in batch.state.items()}, int(batch.action[i]),
                       float(batch.reward[i]), {k: v[i] for k, v in batch.next_state.items()},
                       bool(batch.terminal[i]))
            for i in range(len(batch))]


def ram_obs(tag):
    return {"ram": np.full(4, tag, dtype=np.uint8)}


def new_memory(capacity=100_000, first=0):
    """A RAM-only memory whose one episode starts at observation `first`."""
    return ReplayMemory(capacity, ram_obs(first))


def push(mem, tag):
    """Step `tag` of the episode: from observation `tag` to `tag + 1`."""
    mem.push(tag % 3, float(tag), False, copying(ram_obs(tag + 1)))


def make_transition(tag):
    """What a memory returns for step `tag` of that episode."""
    return Transition(state={"ram": np.full(4, tag / 256, dtype=np.float32)},
                      action=tag % 3, reward=float(tag),
                      next_state={"ram": np.full(4, (tag + 1) / 256, dtype=np.float32)},
                      terminal=False)


def test_push_to_empty():
    mem = new_memory(capacity=10)
    push(mem, 0)
    assert len(mem) == 1


def test_fifo_eviction():
    mem = new_memory(capacity=2)
    a, b, c = (make_transition(i) for i in range(3))
    for i in range(3):
        push(mem, i)
    assert len(mem) == 2
    assert rows(mem.contents()[:]) == [b, c]


def test_default_capacity_bound():
    mem = new_memory()
    for _ in range(100_001):
        push(mem, 0)
    assert len(mem) == 100_000


def test_sample_single():
    mem = new_memory(capacity=4, first=7)
    t = make_transition(7)
    push(mem, 7)
    assert rows(mem.sample_minibatch(1, np.random.default_rng(0))) == [t]


def test_sample_insufficient_contents():
    mem = new_memory(capacity=64)
    for i in range(31):
        push(mem, i)
    with pytest.raises(ValueError):
        mem.sample_minibatch(32, np.random.default_rng(0))


@pytest.mark.parametrize("n", [0, -1, 2.0, True, None, "3"])
def test_a_sample_size_that_is_not_a_positive_count_is_refused(n):
    # 0 gave an empty Minibatch, -1 and 2.0 numpy errors of their own.
    mem = new_memory(capacity=8)
    for i in range(8):
        push(mem, i)
    with pytest.raises(ValueError, match=rf"^n must be a positive integer, got "
                                         rf"{re.escape(repr(n))}$"):
        mem.sample_minibatch(n, np.random.default_rng(0))
    assert len(mem.sample_minibatch(np.int64(3), np.random.default_rng(0))) == 3


def test_sampling_does_not_mutate():
    mem = new_memory(capacity=8)
    for i in range(8):
        push(mem, i)
    before = rows(mem.contents()[:])
    mem.sample_minibatch(8, np.random.default_rng(1))
    assert rows(mem.contents()[:]) == before


def test_sampling_deterministic_given_seed():
    mem = new_memory(capacity=16)
    for i in range(16):
        push(mem, i)
    s1 = mem.sample_minibatch(8, np.random.default_rng(5))
    s2 = mem.sample_minibatch(8, np.random.default_rng(5))
    assert rows(s1) == rows(s2)


def test_chi_square_uniformity():
    # 1e5 draws over 10 items; chi-square test must not reject uniformity at
    # significance 0.001.
    mem = new_memory(capacity=10)
    for i in range(10):
        push(mem, i)
    rng = np.random.default_rng(123)
    counts = np.zeros(10)
    for _ in range(10_000):
        for t in rows(mem.sample_minibatch(10, rng)):
            counts[int(t.reward)] += 1
    _, p = stats.chisquare(counts)
    assert p > 0.001


@given(st.integers(1, 20), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_contents_are_last_k_pushes_in_order(capacity, pushes):
    mem = new_memory(capacity=capacity)
    items = [make_transition(i) for i in range(pushes)]
    for i in range(pushes):
        push(mem, i)
    assert rows(mem.contents()[:]) == items[-capacity:]


def test_contents_slices_like_a_list():
    mem = new_memory(capacity=5)
    for i in range(7):
        push(mem, i)
    items = [make_transition(i) for i in range(2, 7)]
    assert rows(mem.contents()[1:4]) == items[1:4]
    assert rows(mem.contents()[-1]) == [items[-1]]
    assert [t for item in mem.contents() for t in rows(item)] == items
    assert [len(item) for item in mem.contents()] == [1] * 5


def test_contents_are_gathered_only_when_read():
    # An eager list of these 3,000 screen transitions' float state and
    # next-state stacks would take about 25 MB.
    count, phi_length, shape = 3000, 4, (16, 16)
    frames = np.random.default_rng(0).integers(0, 256, (count,) + shape, dtype=np.uint8)
    mem = ReplayMemory(count, {"screen": np.zeros(shape, np.uint8)}, phi_length=phi_length)
    for i in range(count):
        mem.push(i % 3, float(i), i % 50 == 49, copying({"screen": frames[i]}))
    eager = 2 * count * phi_length * frames[0].size * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        contents = mem.contents()
        assert len(contents) == count
        item = contents[count // 2]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(item) == 1 and item.state["screen"].shape == (1, phi_length) + shape
    assert item.reward.tolist() == [count // 2]
    assert peak < eager / 100, (peak, eager)


@pytest.mark.parametrize("action", [
    2.7,             # was stored as 2
    -1,              # was stored, and the checkpoint then refused on restore
    np.float64(1.0),
    "1",
    None,
    True,
    2**31,           # past the int32 action array
])
def test_action_must_be_a_nonnegative_integer(action):
    mem = new_memory(capacity=4)
    push(mem, 0)
    before = {name: a.copy() for name, a in mem.arrays().items()}
    with pytest.raises(ValueError, match="action must be an integer"):
        mem.push(action, 1.0, False, copying(ram_obs(2)))
    assert mem.pushes == 1
    after = mem.arrays()
    assert all(np.array_equal(before[name], after[name]) for name in before)


@pytest.mark.parametrize("reward, terminal, match", [
    ("abc", False, "reward"),   # was raised after the slot after the newest was written
    (None, False, "reward"),
    (1j, False, "reward"),
    (True, False, "reward"),    # was stored as 1.0
    pytest.param(2**2000, False, "reward", id="2**2000-False-reward"),  # raised OverflowError
    (0.0, "no", "terminal"),    # was stored as True
    (0.0, 1, "terminal"),
    (0.0, None, "terminal"),
    (float("nan"), False, "reward must be finite"),    # was stored, to surface as a nan loss
    (float("inf"), False, "reward must be finite"),
    (-float("inf"), True, "reward must be finite"),
    (np.float32("inf"), False, "reward must be finite"),
    (np.float64("nan"), False, "reward must be finite"),
])
def test_bad_reward_or_terminal_writes_nothing(reward, terminal, match):
    mem = new_memory(capacity=3)
    for tag in range(5):  # wrapped: the slot after the newest holds the oldest state
        push(mem, tag)
    oldest = mem.contents()[0].state
    before = {name: a.copy() for name, a in mem.arrays().items()}
    with pytest.raises(ValueError, match=match):
        mem.push(1, reward, terminal, copying(ram_obs(99)))
    assert mem.pushes == 5
    np.testing.assert_array_equal(mem.contents()[0].state["ram"], oldest["ram"])
    after = mem.arrays()
    assert all(np.array_equal(before[name], after[name]) for name in before)


def test_the_draw_writes_into_the_slot_after_the_newest():
    mem = new_memory(capacity=4)
    push(mem, 0)
    seen = []
    mem.push(1, 1.0, False, lambda out: seen.append(out["ram"]))
    assert np.shares_memory(seen[0], mem.frames["ram"][2])


@pytest.mark.parametrize("action, reward, terminal", [
    (-1, 0.0, False), (1.5, 0.0, False), (0, float("nan"), False), (0, True, False),
    (0, 0.0, "no"),
])
def test_a_refused_push_never_draws(action, reward, terminal):
    mem = new_memory(capacity=3)
    for tag in range(5):
        push(mem, tag)
    before = {name: a.copy() for name, a in mem.arrays().items()}
    draw = copying(ram_obs(99))
    with pytest.raises(ValueError):
        mem.push(action, reward, terminal, draw)
    assert draw.calls == 0 and mem.pushes == 5
    after = mem.arrays()
    assert all(np.array_equal(before[name], after[name]) for name in before)


def test_an_observation_is_not_a_draw():
    mem = new_memory(capacity=3)
    for tag in range(5):
        push(mem, tag)
    before = {name: a.copy() for name, a in mem.arrays().items()}  # every slot: wrapped
    with pytest.raises(TypeError):
        mem.push(1, 1.0, False, ram_obs(99))
    assert mem.pushes == 5
    after = mem.arrays()
    assert all(np.array_equal(before[name], after[name]) for name in before)


def test_a_draw_that_raises_commits_nothing():
    # What the draw wrote before it raised stays in the slot after the
    # newest, which on a wrapped ring holds the oldest state's oldest frame.
    mem = ReplayMemory(3, {"screen": np.zeros((2, 2), np.uint8)}, phi_length=2)
    for tag in range(10):
        screen = np.full((2, 2), tag + 1, np.uint8)
        mem.push(tag % 3, float(tag), False, copying({"screen": screen}))
    oldest = mem.contents()[0].state["screen"][0]
    np.testing.assert_array_equal(oldest[:, 0, 0], np.array([6, 7]) / 256)
    before = {name: a.copy() for name, a in mem.arrays().items()}

    def draw(out):
        out["screen"][...] = 99
        raise RuntimeError("the game failed")

    with pytest.raises(RuntimeError, match="the game failed"):
        mem.push(1, 1.0, True, draw)
    assert mem.pushes == 10
    for name in ("action", "reward", "start"):
        np.testing.assert_array_equal(mem.arrays()[name], before[name])
    oldest = mem.contents()[0].state["screen"][0]
    np.testing.assert_array_equal(oldest[:, 0, 0], np.array([99, 7]) / 256)


@pytest.mark.parametrize("reward, terminal", [(2, np.bool_(True)), (np.float32(0.5), False)])
def test_numeric_reward_and_numpy_bool_terminal_are_stored(reward, terminal):
    mem = new_memory(capacity=4)
    mem.push(0, reward, terminal, copying(ram_obs(1)))
    [stored] = rows(mem.contents()[0])
    assert stored.reward == float(reward)
    assert stored.terminal == bool(terminal)


def test_numpy_integer_action_is_stored():
    mem = new_memory(capacity=4)
    mem.push(np.int64(2), 0.0, False, copying(ram_obs(1)))
    assert rows(mem.contents()[0])[0].action == 2


@pytest.mark.parametrize("capacity, phi_length, name", [
    (True, 1, "capacity"),       # was a 1-transition ring
    (1.5, 1, "capacity"),        # was numpy's TypeError
    (0, 1, "capacity"),
    ("4", 1, "capacity"),
    (4, True, "phi_length"),
    (4, 2.0, "phi_length"),
    (4, -1, "phi_length"),
])
def test_capacity_and_phi_length_must_be_positive_integers(capacity, phi_length, name):
    with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
        ReplayMemory(capacity, ram_obs(0), phi_length=phi_length)


def test_numpy_integer_capacity_and_phi_length_are_accepted():
    assert len(ReplayMemory(np.int64(4), ram_obs(0), phi_length=np.int32(2)).start) == 6


@pytest.mark.parametrize("first", [np.array([1.5, 300.7, -1, 2]), [7, 7, 7, 7]])
def test_first_observation_must_be_bytes(first):
    with pytest.raises(ValueError, match="expected uint8"):
        ReplayMemory(4, {"ram": first})


@pytest.mark.parametrize("first", [
    {},                                                   # stored no observation
    {"sound": np.zeros(4, np.uint8)},                     # stored unstacked
    {"ram": np.zeros(4, np.uint8), "Screen": np.zeros((2, 2), np.uint8)},
], ids=["empty", "sound", "ram+Screen"])
def test_first_observation_must_name_ram_screen_or_both(first):
    with pytest.raises(ValueError, match=rf"^first_obs must map 'ram', 'screen' or both .*"
                                         rf"{re.escape(str(list(first)))}$"):
        ReplayMemory(4, first)


@pytest.mark.parametrize("first", [[np.zeros(4, np.uint8)], (np.zeros(4, np.uint8),), None,
                                   np.zeros(4, np.uint8)], ids=["list", "tuple", "None", "array"])
def test_a_first_observation_that_is_not_a_dict_is_refused(first):
    # A list raised AttributeError: 'list' object has no attribute 'keys'.
    with pytest.raises(ValueError, match=r"^first_obs must map 'ram', 'screen' or both to an "
                                         rf"observation, got a {type(first).__name__}$"):
        ReplayMemory(4, first)


# -- the ring against the list of transitions it replaces --------------------

class ListMemory:
    """Reference: a list ring of Transitions, written in push order, sampled
    with the same draw as ReplayMemory."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []
        self.cursor = 0

    def push(self, t):
        if len(self.items) < self.capacity:
            self.items.append(t)
        else:
            self.items[self.cursor] = t
            self.cursor = (self.cursor + 1) % self.capacity

    def contents(self):
        return self.items[self.cursor:] + self.items[:self.cursor]

    def sample(self, n, rng):
        idx = rng.integers(0, len(self.items), size=n)
        return [self.items[i] for i in idx]


def assert_same_transition(got, want):
    """State, action, reward and terminal always; the next state only where
    it is bootstrapped, i.e. for a non-terminal transition."""
    assert (got.action, got.reward, got.terminal) == (want.action, want.reward, want.terminal)
    pairs = [(got.state, want.state)]
    if not want.terminal:
        pairs.append((got.next_state, want.next_state))
    for g, w in pairs:
        assert g.keys() == w.keys()
        for k in w:
            assert g[k].dtype == w[k].dtype and g[k].shape == w[k].shape
            np.testing.assert_array_equal(g[k], w[k])


def in_window(phi, screen, starts):
    """The stacked window after `screen` is drawn into it as a test period
    draws it: into `phi.newest`, after a shift, or filling the window when it
    `starts` an episode."""
    if not starts:
        phi.observe()
    phi.newest[...] = screen
    if starts:
        phi.reset()
    return phi.stack()


@given(capacity=st.integers(1, 20), phi_length=st.integers(1, 4), data=st.data())
@settings(max_examples=150, deadline=None)
def test_ring_matches_list_of_transitions(capacity, phi_length, data):
    pushes = data.draw(st.integers(1, 3 * capacity), label="pushes")
    terminals = data.draw(st.lists(st.booleans(), min_size=pushes, max_size=pushes),
                          label="terminals")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    obs_rng = np.random.default_rng(seed)
    ref = ListMemory(capacity)
    phi = PhiBuffer(phi_length, (2, 3))

    def observe():
        return {"ram": obs_rng.integers(0, 256, 3, dtype=np.uint8),
                "screen": obs_rng.integers(0, 256, (2, 3), dtype=np.uint8)}

    def begin(obs):
        return {"ram": scale_ram(obs["ram"]), "screen": in_window(phi, obs["screen"], True)}

    first = observe()
    ring = ReplayMemory(capacity, first, phi_length=phi_length)
    state = begin(first)
    for i, terminal in enumerate(terminals):
        # After a terminal step, `obs` is the next episode's first
        # observation, and the reference's next state is never compared.
        obs = observe()
        next_state = {"ram": scale_ram(obs["ram"]),
                      "screen": in_window(phi, obs["screen"], False)}
        ring.push(i % 5, float(i) / 3, terminal, copying(obs))
        ref.push(Transition(state, i % 5, float(i) / 3, next_state, terminal))
        state = begin(obs) if terminal else next_state

    contents = ring.contents()
    assert len(contents) == len(ring) == len(ref.items)
    for item, want in zip(contents, ref.contents()):
        [got] = rows(item)
        assert_same_transition(got, want)
    for n in (1, len(ring)):
        batch = ring.sample_minibatch(n, np.random.default_rng(seed))
        assert batch.state["screen"].shape == (n, phi_length, 2, 3)
        for got, want in zip(rows(batch), ref.sample(n, np.random.default_rng(seed)),
                             strict=True):
            assert_same_transition(got, want)


@given(capacity=st.integers(1, 8), phi_length=st.integers(1, 4), data=st.data())
@settings(max_examples=100, deadline=None)
def test_latest_state_is_the_phi_window(capacity, phi_length, data):
    # The state the agent acts from, read back from the newest ring slots,
    # after the first observation and every push: across episode starts and
    # ring wraps.
    terminals = data.draw(st.lists(st.booleans(), max_size=4 * (capacity + phi_length)),
                          label="terminals")
    obs_rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    phi = PhiBuffer(phi_length, (2, 3))

    def observe():
        return {"ram": obs_rng.integers(0, 256, 3, dtype=np.uint8),
                "screen": obs_rng.integers(0, 256, (2, 3), dtype=np.uint8)}

    def check(obs, screen_stack):
        got = ring.latest_state()
        assert got.keys() == {"ram", "screen"}
        for key, want in (("ram", scale_ram(obs["ram"])), ("screen", screen_stack)):
            assert got[key].dtype == np.float32 and got[key].tobytes() == want.tobytes()

    obs = observe()
    ring = ReplayMemory(capacity, obs, phi_length=phi_length)
    check(obs, in_window(phi, obs["screen"], True))
    for i, terminal in enumerate(terminals):
        obs = observe()  # after a terminal step, the next episode's first
        ring.push(i % 3, 0.0, terminal, copying(obs))
        check(obs, in_window(phi, obs["screen"], terminal))
