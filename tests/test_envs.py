import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from ramdqn.envs import (
    ENV_REGISTRY,
    PhiBuffer,
    check_count,
    frame_skip_step,
    make_env,
    scale_ram,
)

GAMES = sorted(ENV_REGISTRY)


STREAMS = ("ram", "screen")


def observed(env, streams=STREAMS):
    """The current frame's streams, drawn into fresh arrays."""
    return env.observe(env.buffers(streams))


def ram_of(env):
    return observed(env, ("ram",))["ram"]


def random_rollout(name, seed, n_steps, rng):
    env = make_env(name)
    env.reset(seed)
    trace = [observed(env)]
    rewards = []
    for _ in range(n_steps):
        reward, terminal = env.step(int(rng.integers(env.action_count)))
        trace.append(observed(env))
        rewards.append(reward)
        if terminal:
            break
    return trace, rewards


@pytest.mark.parametrize("name", GAMES)
def test_reset_deterministic(name):
    env1, env2 = make_env(name), make_env(name)
    env1.reset(42)
    env2.reset(42)
    o1, o2 = observed(env1), observed(env2)
    np.testing.assert_array_equal(o1["ram"], o2["ram"])
    np.testing.assert_array_equal(o1["screen"], o2["screen"])


@pytest.mark.parametrize("name", GAMES)
def test_restored_game_plays_on_identically(name):
    # A game saved partway into an episode, passed through JSON as a
    # checkpoint header holds it, and set into a fresh game: the two then
    # give the same rewards, terminal flags and observation bytes.
    rng = np.random.default_rng(8)
    game = make_env(name)
    game.reset(3)
    steps_in = 0
    while steps_in < 12:
        _, terminal = game.step(int(rng.integers(game.action_count)))
        steps_in = 0 if terminal else steps_in + 1
        if terminal:
            game.reset(int(rng.integers(1000)))
    state = json.loads(json.dumps(game.get_state()))
    twin = make_env(name)
    twin.set_state(state)
    assert twin.get_state() == game.get_state()
    for value in state["vars"].values():  # the twin holds copies, not these lists
        if isinstance(value, list):
            value.clear()
    ends = 0
    for i in range(200):
        action = int(rng.integers(game.action_count))
        assert game.step(action) == twin.step(action), i
        got, want = observed(twin), observed(game)
        for stream in STREAMS:
            assert got[stream].tobytes() == want[stream].tobytes(), (i, stream)
        if game.terminal:
            ends += 1
            game.reset(100 + i)
            twin.reset(100 + i)
    assert ends >= 1


@pytest.mark.parametrize("name", GAMES)
def test_every_state_of_play_is_within_the_declared_ranges(name):
    # set_state checks each variable against its range: every state that
    # random play reaches, terminal ones included, must pass.
    rng = np.random.default_rng(12)
    game = make_env(name)
    game.reset(0)
    for i in range(3000):
        _, terminal = game.step(int(rng.integers(game.action_count)))
        game.set_state(game.get_state())
        if terminal:
            game.reset(i)


@pytest.mark.parametrize("name", GAMES)
def test_out_of_range_state_is_refused_and_changes_nothing(name):
    game = make_env(name)
    game.reset(5)
    before = game.get_state()
    for var, allowed in game.state_vars.items():
        # Past the end, and a float, which a range would search entry by entry.
        for value in (allowed[-1] + 1, 0.5):
            bad = json.loads(json.dumps(before))
            is_list = isinstance(bad["vars"][var], list)
            bad["vars"][var] = [value] * len(bad["vars"][var]) if is_list else value
            with pytest.raises(ValueError, match=var):
                game.set_state(bad)
            assert game.get_state() == before


@pytest.mark.parametrize("name", GAMES)
def test_ram_is_128_bytes(name):
    env = make_env(name)
    env.reset(0)
    ram = ram_of(env)
    assert ram.shape == (128,)
    assert ram.dtype == np.uint8


def test_micro_catch_initial_score_zero():
    env = make_env("micro_catch")
    env.reset(3)
    assert ram_of(env)[3] == 0


def test_micro_breakout_action_count():
    assert make_env("micro_breakout").action_count == 4


def breakout_in_play(**variables):
    """micro_breakout with the ball launched and `variables` set."""
    game = make_env("micro_breakout")
    game.reset(0)
    state = game.get_state()
    state["vars"].update(launched=True, **variables)
    game.set_state(state)
    return game


def test_micro_breakout_ball_bounces_off_the_ceiling():
    game = breakout_in_play(ball_x=5, ball_y=0, dx=1, dy=-1)
    assert game.step(0) == (0.0, False)
    assert (game.ball_x, game.ball_y, game.dx, game.dy) == (6, 0, 1, 1)


def test_micro_breakout_bricks_respawn_once_the_last_is_hit():
    bricks = [[0] * 16 for _ in range(3)]
    bricks[0][5] = 1  # the last brick, in row 2
    game = breakout_in_play(ball_x=4, ball_y=3, dx=1, dy=-1, bricks=bricks, score=7)
    assert game.step(0) == (1.0, False)
    assert game.bricks == [[1] * 16] * 3
    assert (game.ball_x, game.ball_y, game.dy, game.score) == (5, 2, 1, 8)
    assert ram_of(game)[4:10].tolist() == [255] * 6  # every brick bit set again


def test_micro_diver_action_count():
    assert make_env("micro_diver").action_count == 6


@pytest.mark.parametrize("name", GAMES)
def test_rollout_deterministic(name):
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    t1, r1 = random_rollout(name, 17, 300, rng1)
    t2, r2 = random_rollout(name, 17, 300, rng2)
    assert r1 == r2
    for o1, o2 in zip(t1, t2):
        np.testing.assert_array_equal(o1["ram"], o2["ram"])
        np.testing.assert_array_equal(o1["screen"], o2["screen"])


@pytest.mark.parametrize("name", GAMES)
def test_illegal_action_rejected(name):
    # A float, even a whole one, once played a no-op or its truncation.
    env = make_env(name)
    env.reset(0)
    before = env.get_state()
    for action in (env.action_count, -1, 1.5, np.float64(2.0), "1", None, True):
        with pytest.raises(ValueError, match="illegal action"):
            env.step(action)
        assert env.get_state() == before, action


@pytest.mark.parametrize("name", GAMES)
def test_unknown_observation_stream_is_named(name):
    # It was a bare KeyError: 'rgb'.
    env = make_env(name)
    env.reset(0)
    with pytest.raises(ValueError, match=rf"{name}: unknown observation stream 'rgb'"):
        env.buffers(("ram", "rgb"))
    out = {"ram": np.zeros(128, np.uint8), "rgb": np.zeros(3, np.uint8)}
    with pytest.raises(ValueError, match=rf"{name}: unknown observation stream 'rgb'"):
        env.observe(out)
    assert not out["ram"].any()  # refused before anything was drawn
    assert observed(env).keys() == set(STREAMS)


@pytest.mark.parametrize("name", GAMES)
@pytest.mark.parametrize("stream, buf", [
    ("ram", np.zeros(127, np.uint8)),
    ("ram", np.zeros(256, np.uint8)),        # room for two: would fill only the first
    ("ram", np.zeros(128, np.int64)),
    ("screen", np.zeros((4, 4), np.uint8)),
    ("screen", np.zeros(400, np.uint8)),
])
def test_observe_refuses_a_buffer_of_another_shape_or_dtype(name, stream, buf):
    env = make_env(name)
    env.reset(0)
    out = {"ram": np.zeros(128, np.uint8), stream: buf}
    with pytest.raises(ValueError, match=rf"{name}: {stream} buffer is .*, expected uint8"):
        env.observe(out)
    assert not any(b.any() for b in out.values())  # refused before anything was drawn


@pytest.mark.parametrize("name", GAMES)
@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("buf", [[0] * 128, None], ids=["list", "None"])
def test_observe_refuses_a_buffer_that_is_not_an_array(name, stream, buf):
    # Both used to raise AttributeError from reading the buffer's dtype.
    env = make_env(name)
    env.reset(0)
    out = env.buffers(STREAMS)
    for b in out.values():
        b.fill(0xA5)
    out[stream] = buf
    with pytest.raises(ValueError, match=rf"^{name}: {stream} buffer is "
                                         rf"{type(buf).__name__}, expected uint8"):
        env.observe(out)
    assert out[stream] is buf and buf in ([0] * 128, None)
    for other in set(STREAMS) - {stream}:  # refused before anything was drawn
        assert (out[other] == 0xA5).all()


def strided(shape):
    """A zeroed uint8 view of `shape` that skips every other byte, and its base."""
    base = np.zeros(shape[:-1] + (2 * shape[-1],), np.uint8)
    return base[..., ::2], base


def read_only(shape):
    buf = np.zeros(shape, np.uint8)
    buf.flags.writeable = False
    return buf, buf


@pytest.mark.parametrize("name", GAMES)
@pytest.mark.parametrize("stream", ["ram", "screen"])
@pytest.mark.parametrize("make", [strided, read_only])
def test_observe_refuses_a_strided_or_read_only_buffer(name, stream, make):
    # Both used to pass the check and then fail partway through the draw.
    env = make_env(name)
    env.reset(0)
    buf, base = make(env.buffers([stream])[stream].shape)
    out = {"ram": np.zeros(128, np.uint8), stream: buf}
    with pytest.raises(ValueError, match=rf"{name}: {stream} buffer .* C-contiguous and writeable"):
        env.observe(out)
    assert not base.any() and not out["ram"].any()


@pytest.mark.parametrize("name", GAMES)
def test_observe_writes_every_byte_of_the_caller_arrays(name):
    # The replay ring hands a game slots that hold older frames' bytes.
    env = make_env(name)
    env.reset(6)
    out = env.buffers(STREAMS)
    for buf in out.values():
        buf.fill(0xA5)
    assert env.observe(out) is out
    for stream, want in observed(env).items():
        assert out[stream].tobytes() == want.tobytes(), stream


@pytest.mark.parametrize("name", GAMES)
def test_numpy_integer_action_plays_like_an_int(name):
    env, twin = make_env(name), make_env(name)
    env.reset(4)
    twin.reset(4)
    for action in range(env.action_count):
        assert env.step(np.int64(action)) == twin.step(action)
    assert env.get_state() == twin.get_state()


def dynamics_digest(name, seed=2024, frames=20_000):
    """A digest of a fixed-seed random rollout of `frames` frames with
    resets: every reward, terminal flag and observation (both streams, the
    terminal frames' too), then the final `get_state()`.  Every frame is
    drawn into one array per stream, so a byte that a draw leaves as the
    frame before drew it changes the digest."""
    rng = np.random.default_rng(seed)
    env = make_env(name)
    h = hashlib.blake2b(digest_size=16)
    obs = env.buffers(STREAMS)

    def observe():
        env.observe(obs)
        for stream in STREAMS:
            h.update(obs[stream].tobytes())

    env.reset(int(rng.integers(2**63)))
    observe()
    for _ in range(frames):
        reward, terminal = env.step(int(rng.integers(env.action_count)))
        h.update(struct.pack("<d?", reward, terminal))
        observe()
        if terminal:
            env.reset(int(rng.integers(2**63)))
            observe()
    h.update(json.dumps(env.get_state(), sort_keys=True).encode())
    return h.hexdigest()


# Captured from the games as they were before resets drew micro_diver's
# enemies in one call and its collision check read one slot: any change of
# what a game plays, shows or saves, or of the order of its rng draws,
# fails here by name.
PINNED_DYNAMICS = {
    "micro_breakout": "9781baed7fc60d206ec79a1312bf73dc",
    "micro_catch": "a4514780708c7a526880b8ece1a63606",
    "micro_diver": "c607c9fb7ca93aeccad820b737e4fc28",
}


@pytest.mark.parametrize("name", GAMES)
def test_dynamics_match_the_pinned_digest(name):
    assert dynamics_digest(name) == PINNED_DYNAMICS[name]


@pytest.mark.parametrize("name", GAMES)
def test_step_after_terminal_rejected(name):
    env = make_env(name)
    env.reset(0)
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        _, terminal = env.step(int(rng.integers(env.action_count)))
        if terminal:
            break
    assert terminal
    with pytest.raises(RuntimeError):
        env.step(0)


def test_micro_catch_catch_reward():
    env = make_env("micro_catch")
    env.reset(0)
    # Force a configuration where the object lands on the paddle next frame.
    env.paddle = 7 * 16
    env.obj_x = 7 * 16
    env.obj_y = 224
    reward, _ = env.step(0)
    assert reward == 1.0
    assert ram_of(env)[3] == 1


def test_micro_catch_miss_terminates():
    env = make_env("micro_catch")
    env.reset(0)
    env.paddle = 0
    env.obj_x = 240
    env.obj_y = 224
    reward, terminal = env.step(0)
    assert reward == 0.0
    assert terminal


@pytest.mark.parametrize("name", GAMES)
def test_ram_map_fidelity(name):
    env = make_env(name)
    env.reset(11)
    rng = np.random.default_rng(2)
    for _ in range(200):
        _, terminal = env.step(int(rng.integers(env.action_count)))
        ram = ram_of(env)
        if name == "micro_catch":
            assert ram[0] == env.paddle
            assert ram[1] == env.obj_x
            assert ram[2] == env.obj_y
            assert ram[3] == env.score % 256
            assert ram[4] == env.frame % 256
            assert not ram[5:].any()
        elif name == "micro_breakout":
            assert ram[0] == env.paddle
            assert ram[1] == env.ball_x
            assert ram[2] == env.ball_y
            assert ram[3] == env._velocity_code()
            for row in range(3):
                bits = int(ram[4 + 2 * row]) | (int(ram[5 + 2 * row]) << 8)
                assert bits == sum(env.bricks[row][c] << c for c in range(16))
            assert ram[10] == env.score % 256
            assert not ram[11:].any()
        else:
            assert ram[0] == env.sub_x
            assert ram[1] == env.sub_y
            assert ram[2] == env.oxygen
            assert ram[3] == env.divers
            assert ram[4] == env.score % 256
            assert list(ram[5:13]) == [e + 1 for e in env.enemies]
            assert not ram[13:].any()
        if terminal:
            env.reset(11)


@pytest.mark.parametrize("name", GAMES)
def test_cumulative_reward_equals_score_counter(name):
    env = make_env(name)
    env.reset(5)
    rng = np.random.default_rng(7)
    total = 0.0
    for _ in range(2000):
        reward, terminal = env.step(int(rng.integers(env.action_count)))
        total += reward
        if terminal:
            break
    score_cell = {"micro_catch": 3, "micro_breakout": 10, "micro_diver": 4}[name]
    assert ram_of(env)[score_cell] == int(total) % 256


@pytest.mark.parametrize("name", GAMES)
@pytest.mark.parametrize("k", [1, 2, 4])
def test_frame_skip_matches_per_frame_simulation(name, k):
    rng = np.random.default_rng(31)
    for trial in range(20):
        seed = int(rng.integers(10_000))
        actions = [int(rng.integers(ENV_REGISTRY[name].action_count))
                   for _ in range(40)]
        env_a, env_b = make_env(name), make_env(name)
        env_a.reset(seed)
        env_b.reset(seed)
        for a in actions:
            reward, terminal = frame_skip_step(env_a, a, k)
            total, terminal_b = 0.0, False
            for _ in range(k):
                r, terminal_b = env_b.step(a)
                total += r
                if terminal_b:
                    break
            assert reward == total
            assert terminal == terminal_b
            obs_a, obs_b = observed(env_a), observed(env_b)
            np.testing.assert_array_equal(obs_a["ram"], obs_b["ram"])
            np.testing.assert_array_equal(obs_a["screen"], obs_b["screen"])
            if terminal:
                break


def test_frame_skip_reward_summation():
    class Scripted:
        rewards = (0.0, 1.0, 0.0, 2.0)

        def __init__(self):
            self.i = 0

        def step(self, action):
            r = self.rewards[self.i]
            self.i += 1
            return r, False

    reward, terminal = frame_skip_step(Scripted(), 0, 4)
    assert reward == 3.0
    assert not terminal


def test_frame_skip_stops_at_terminal():
    class Scripted:
        def __init__(self):
            self.i = 0

        def step(self, action):
            self.i += 1
            return 1.0, self.i == 2

    env = Scripted()
    reward, terminal = frame_skip_step(env, 0, 4)
    assert env.i == 2
    assert terminal
    assert reward == 2.0


@pytest.mark.parametrize("k", [True, 2.5, 0, -1, "2"])
def test_frame_skip_must_be_a_positive_integer(k):
    # A bool is not a frame count, though True == 1; the game is left as it was.
    env = make_env("micro_catch")
    env.reset(0)
    before = env.get_state()
    with pytest.raises(ValueError, match="frame_skip must be a positive integer"):
        frame_skip_step(env, 0, k)
    assert env.get_state() == before


def test_frame_skip_accepts_a_numpy_integer():
    a, b = make_env("micro_catch"), make_env("micro_catch")
    a.reset(0)
    b.reset(0)
    assert frame_skip_step(a, 1, np.int64(3)) == frame_skip_step(b, 1, 3)
    assert a.get_state() == b.get_state()


def test_scale_ram_values():
    ram = np.zeros(128, dtype=np.uint8)
    ram[0], ram[1], ram[2] = 0, 128, 255
    scaled = scale_ram(ram)
    assert scaled[0] == 0.0
    assert scaled[1] == 0.5
    assert scaled[2] == np.float32(255 / 256)
    assert abs(scaled[2] - 0.99609375) < 1e-9


def test_scale_ram_gives_the_bits_of_one_multiply_that_casts():
    # scale_ram casts and then scales in place, which dispatches faster than one
    # np.multiply that casts as it goes; the two must agree bit for bit.
    every = np.arange(256, dtype=np.uint8)
    strided = np.random.default_rng(0).integers(0, 256, (33, 5, 16, 16), np.uint8)[1:, :4]
    assert strided.shape == (32, 4, 16, 16) and not strided.flags.c_contiguous
    for raw in (every, strided):
        got, want = scale_ram(raw), np.multiply(raw, np.float32(1 / 256), dtype=np.float32)
        assert got.dtype == np.float32 and got.shape == raw.shape
        assert got.tobytes() == want.tobytes()


def test_phi_buffer_identical_frames():
    buf = PhiBuffer(4, (4, 4))
    buf.newest.fill(64)
    buf.reset()
    stack = buf.stack()
    assert stack.shape == (4, 4, 4)
    for plane in stack:
        np.testing.assert_array_equal(plane, np.full((4, 4), 64) / 256.0)


def test_phi_buffer_fifo():
    buf = PhiBuffer(4, (2, 2))
    buf.newest.fill(1)
    buf.reset()
    for i in range(2, 6):
        assert buf.observe() is None  # the window moves on; no inputs are built
        buf.newest.fill(i)
    for plane, i in zip(buf.stack(), range(2, 6), strict=True):
        np.testing.assert_array_equal(plane, np.full((2, 2), i) / 256.0)


@pytest.mark.parametrize("phi_length", [1, 2, 3, 4])
def test_phi_buffer_window_is_one_view_of_the_last_screens(phi_length):
    # Eleven screens drawn into `newest` move the window on eleven times (at
    # phi_length 1 the shift moves no screens); the window stays the last
    # phi_length screens, oldest first, in the one contiguous array it was
    # made with, and `newest` stays its last row.
    buf = PhiBuffer(phi_length, (2, 3))
    kept, newest = buf.frames, buf.newest
    assert kept.shape == (phi_length, 2, 3) and not kept.any()  # zeroed, never uninitialised
    assert newest.base is kept and newest.flags.carray
    buf.reset()
    shown = [0] * phi_length
    for i in range(1, 12):
        buf.observe()
        newest.fill(i)
        shown = shown[1:] + [i]
        assert buf.frames is kept and buf.newest is newest and kept.flags.c_contiguous
        assert (kept == np.array(shown, np.uint8)[:, None, None]).all()
    newest.fill(99)
    buf.reset()
    assert buf.frames is kept and kept[:, 0, 0].tolist() == [99] * phi_length


def test_phi_buffer_moves_its_window_without_allocating():
    # A shift through a temporary would hold phi_length - 1 screens (here
    # 3,072 bytes).  The peak is bounded by one screen, not 0, because
    # tracemalloc also counts the interpreter's own call overhead, a few
    # dozen bytes.
    buf = PhiBuffer(4, (32, 32))
    buf.newest.fill(5)
    buf.reset()
    buf.observe()  # a first call warms numpy's own caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(100):
            buf.observe()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < buf.newest.nbytes
    assert (buf.frames == 5).all()


def test_phi_buffer_scales_by_256():
    buf = PhiBuffer(2, (2, 2))
    buf.reset()
    buf.observe()
    buf.newest.fill(255)
    assert buf.stack()[-1][0, 0] == np.float32(255 / 256)


@pytest.mark.parametrize("phi_length", [True, 1.5, "2", 0, np.int64(-1)])
def test_phi_buffer_refuses_a_length_that_is_not_a_positive_integer(phi_length):
    # PhiBuffer(True) kept a one-frame window; 1.5 and "2" failed only later.
    with pytest.raises(ValueError, match="phi_length must be a positive integer"):
        PhiBuffer(phi_length, (2, 2))


def test_phi_buffer_takes_a_numpy_integer_length():
    buf = PhiBuffer(np.int64(3), (2, 2))
    assert buf.stack().shape == (3, 2, 2)


@pytest.mark.parametrize("value", [1, 7, np.int64(3), np.uint8(1), np.int32(2**31 - 1)])
def test_count_rule_takes_ints_and_numpy_integers(value):
    check_count("n", value)


@pytest.mark.parametrize("value, least", [
    (True, 1), (False, 0), (-1, 0), (0, 1), (1.5, 1), (2.0, 0), (np.float64(3), 1),
    ("2", 1), (None, 0), (np.int64(-1), 0), (np.int64(0), 1),
])
def test_count_rule_refuses_a_bool_a_non_integer_or_a_value_below_its_bound(value, least):
    rule = "a positive integer" if least == 1 else "an integer >= 0"
    with pytest.raises(ValueError, match=f"^n must be {rule}, got "):
        check_count("n", value, least=least)


def test_count_rule_bound_can_be_zero():
    check_count("n", 0, least=0)
    check_count("n", np.int64(0), least=0)


def test_unknown_env_name():
    with pytest.raises(ValueError):
        make_env("atari_2600")
