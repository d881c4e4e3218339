import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ramdqn.envs import PhiBuffer, scale_ram
from ramdqn.replay import ReplayMemory, Transition


def ram_obs(tag):
    return {"ram": np.full(4, tag, dtype=np.uint8)}


def new_memory(capacity=100_000, first=0):
    """A RAM-only memory whose one episode starts at observation `first`."""
    return ReplayMemory(capacity, ram_obs(first))


def push(mem, tag):
    """Step `tag` of the episode: from observation `tag` to `tag + 1`."""
    mem.push(tag % 3, float(tag), False, ram_obs(tag + 1))


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
    assert mem.contents() == [b, c]


def test_default_capacity_bound():
    mem = new_memory()
    for _ in range(100_001):
        push(mem, 0)
    assert len(mem) == 100_000


def test_sample_single():
    mem = new_memory(capacity=4, first=7)
    t = make_transition(7)
    push(mem, 7)
    assert mem.sample_minibatch(1, np.random.default_rng(0)) == [t]


def test_sample_insufficient_contents():
    mem = new_memory(capacity=64)
    for i in range(31):
        push(mem, i)
    with pytest.raises(ValueError):
        mem.sample_minibatch(32, np.random.default_rng(0))


def test_sampling_does_not_mutate():
    mem = new_memory(capacity=8)
    for i in range(8):
        push(mem, i)
    before = list(mem.contents())
    mem.sample_minibatch(8, np.random.default_rng(1))
    assert mem.contents() == before


def test_sampling_deterministic_given_seed():
    mem = new_memory(capacity=16)
    for i in range(16):
        push(mem, i)
    s1 = mem.sample_minibatch(8, np.random.default_rng(5))
    s2 = mem.sample_minibatch(8, np.random.default_rng(5))
    assert s1 == s2


def test_chi_square_uniformity():
    # 1e5 draws over 10 items; chi-square test must not reject uniformity at
    # significance 0.001.
    mem = new_memory(capacity=10)
    for i in range(10):
        push(mem, i)
    rng = np.random.default_rng(123)
    counts = np.zeros(10)
    for _ in range(10_000):
        for t in mem.sample_minibatch(10, rng):
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
    assert mem.contents() == items[-capacity:]


def test_contents_slices_like_a_list():
    mem = new_memory(capacity=5)
    for i in range(7):
        push(mem, i)
    items = [make_transition(i) for i in range(2, 7)]
    assert mem.contents()[1:4] == items[1:4]
    assert mem.contents()[-1] == items[-1]


def ring(mem):
    return {"frames": mem.frames["ram"], "action": mem.action, "reward": mem.reward,
            "terminal": mem.terminal, "start": mem.start}


def test_arrays_hold_written_slots_and_restore_zeroes_the_rest():
    mem = new_memory(capacity=10)
    for tag in range(3):
        push(mem, tag)
    saved = {k: v.copy() for k, v in mem.arrays().items()}
    assert {len(v) for v in saved.values()} == {4}  # pushes + 1 of 11 slots

    other = new_memory(capacity=10, first=50)
    for tag in range(50, 57):
        push(other, tag)
    other.restore(saved, 3)
    assert other.pushes == 3
    for name, arr in ring(other).items():
        np.testing.assert_array_equal(arr, ring(mem)[name], err_msg=name)
    assert other.contents() == mem.contents()


def test_arrays_of_a_wrapped_ring_hold_every_slot():
    mem = new_memory(capacity=5)
    for tag in range(9):
        push(mem, tag)
    saved = mem.arrays()
    assert {len(v) for v in saved.values()} == {6}
    other = new_memory(capacity=5)
    other.restore(saved, 9)
    assert other.contents() == mem.contents()


def test_restore_requires_exactly_the_written_slots():
    mem = new_memory(capacity=10)
    for tag in range(3):
        push(mem, tag)
    whole = {k: np.zeros((11,) + v.shape[1:], v.dtype) for k, v in mem.arrays().items()}
    with pytest.raises(ValueError, match="has shape"):
        new_memory(capacity=10).restore(whole, 3)  # the whole ring, unwrapped
    with pytest.raises(ValueError, match="has shape"):
        new_memory(capacity=10).restore(mem.arrays(), 4)


def test_observation_streams_must_match():
    mem = new_memory(capacity=4)
    push(mem, 0)
    with pytest.raises(ValueError, match="streams"):
        mem.push(1, 1.0, False, {"screen": np.zeros((2, 2), np.uint8)})
    assert mem.contents() == [make_transition(0)]  # the failed push wrote nothing


@pytest.mark.parametrize("obs, match", [
    (np.array([7], np.uint8), r"uint8 \(1,\)"),                   # was broadcast to [7 7 7 7]
    (np.array([1.5, 300.7, -1, 2]), r"float64 \(4,\)"),          # was cast to [1 44 255 2]
    (np.zeros((1, 4), np.uint8), r"uint8 \(1, 4\)"),
    ([7, 7, 7, 7], r"int\d+ \(4,\)"),                           # not an array at all
])
def test_observation_shape_and_dtype_must_match_the_ring(obs, match):
    mem = new_memory(capacity=4)
    push(mem, 0)
    before = {name: a.copy() for name, a in mem.arrays().items()}
    with pytest.raises(ValueError, match=match):
        mem.push(1, 1.0, False, {"ram": obs})
    assert mem.pushes == 1
    after = mem.arrays()
    assert all(np.array_equal(before[name], after[name]) for name in before)


@pytest.mark.parametrize("first", [np.array([1.5, 300.7, -1, 2]), [7, 7, 7, 7]])
def test_first_observation_must_be_bytes(first):
    with pytest.raises(ValueError, match="expected uint8"):
        ReplayMemory(4, {"ram": first})


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


@given(capacity=st.integers(1, 20), phi_length=st.integers(1, 4), data=st.data())
@settings(max_examples=150, deadline=None)
def test_ring_matches_list_of_transitions(capacity, phi_length, data):
    pushes = data.draw(st.integers(1, 3 * capacity), label="pushes")
    terminals = data.draw(st.lists(st.booleans(), min_size=pushes, max_size=pushes),
                          label="terminals")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    obs_rng = np.random.default_rng(seed)
    ref = ListMemory(capacity)
    phi = PhiBuffer(phi_length)

    def observe():
        return {"ram": obs_rng.integers(0, 256, 3, dtype=np.uint8),
                "screen": obs_rng.integers(0, 256, (2, 3), dtype=np.uint8)}

    def begin(obs):
        phi.reset(obs["screen"])
        return {"ram": scale_ram(obs["ram"]), "screen": phi.stack()}

    first = observe()
    ring = ReplayMemory(capacity, first, phi_length=phi_length)
    state = begin(first)
    for i, terminal in enumerate(terminals):
        # After a terminal step, `obs` is the next episode's first
        # observation, and the reference's next state is never compared.
        obs = observe()
        next_state = {"ram": scale_ram(obs["ram"]), "screen": phi.observe(obs["screen"])}
        ring.push(i % 5, float(i) / 3, terminal, obs)
        ref.push(Transition(state, i % 5, float(i) / 3, next_state, terminal))
        state = begin(obs) if terminal else next_state

    contents = ring.contents()
    assert len(contents) == len(ring) == len(ref.items)
    for got, want in zip(contents, ref.contents()):
        assert_same_transition(got, want)
    for n in (1, len(ring)):
        batch = ring.sample_minibatch(n, np.random.default_rng(seed))
        assert batch.state["screen"].shape == (n, phi_length, 2, 3)
        for got, want in zip(batch, ref.sample(n, np.random.default_rng(seed)), strict=True):
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
    phi = PhiBuffer(phi_length)

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
    phi.reset(obs["screen"])
    check(obs, phi.stack())
    for i, terminal in enumerate(terminals):
        obs = observe()  # after a terminal step, the next episode's first
        ring.push(i % 3, 0.0, terminal, obs)
        if terminal:
            phi.reset(obs["screen"])
            stack = phi.stack()
        else:
            stack = phi.observe(obs["screen"])
        check(obs, stack)
