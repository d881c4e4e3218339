import numpy as np
import pytest

from ramdqn.envs import (
    ENV_REGISTRY,
    PhiBuffer,
    frame_skip_step,
    make_env,
    scale_ram,
)

GAMES = sorted(ENV_REGISTRY)


def random_rollout(name, seed, n_steps, rng):
    env = make_env(name)
    obs = env.reset(seed)
    trace = [obs]
    rewards = []
    for _ in range(n_steps):
        res = env.step(int(rng.integers(env.action_count)))
        trace.append(res.observation)
        rewards.append(res.reward)
        if res.terminal:
            break
    return trace, rewards


@pytest.mark.parametrize("name", GAMES)
def test_reset_deterministic(name):
    env1, env2 = make_env(name), make_env(name)
    o1, o2 = env1.reset(42), env2.reset(42)
    np.testing.assert_array_equal(o1.ram, o2.ram)
    np.testing.assert_array_equal(o1.screen, o2.screen)


@pytest.mark.parametrize("name", GAMES)
def test_ram_is_128_bytes(name):
    obs = make_env(name).reset(0)
    assert obs.ram.shape == (128,)
    assert obs.ram.dtype == np.uint8


def test_micro_catch_initial_score_zero():
    obs = make_env("micro_catch").reset(3)
    assert obs.ram[3] == 0


def test_micro_breakout_action_count():
    assert make_env("micro_breakout").action_count == 4


def test_micro_diver_action_count():
    assert make_env("micro_diver").action_count == 6


@pytest.mark.parametrize("name", GAMES)
def test_rollout_deterministic(name):
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    t1, r1 = random_rollout(name, 17, 300, rng1)
    t2, r2 = random_rollout(name, 17, 300, rng2)
    assert r1 == r2
    for o1, o2 in zip(t1, t2):
        np.testing.assert_array_equal(o1.ram, o2.ram)
        np.testing.assert_array_equal(o1.screen, o2.screen)


@pytest.mark.parametrize("name", GAMES)
def test_illegal_action_rejected(name):
    env = make_env(name)
    env.reset(0)
    with pytest.raises(ValueError):
        env.step(env.action_count)


@pytest.mark.parametrize("name", GAMES)
def test_step_after_terminal_rejected(name):
    env = make_env(name)
    env.reset(0)
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        res = env.step(int(rng.integers(env.action_count)))
        if res.terminal:
            break
    assert res.terminal
    with pytest.raises(RuntimeError):
        env.step(0)


def test_micro_catch_catch_reward():
    env = make_env("micro_catch")
    env.reset(0)
    # Force a configuration where the object lands on the paddle next frame.
    env.paddle = 7 * 16
    env.obj_x = 7 * 16
    env.obj_y = 224
    res = env.step(0)
    assert res.reward == 1.0
    assert res.observation.ram[3] == 1


def test_micro_catch_miss_terminates():
    env = make_env("micro_catch")
    env.reset(0)
    env.paddle = 0
    env.obj_x = 240
    env.obj_y = 224
    res = env.step(0)
    assert res.reward == 0.0
    assert res.terminal


@pytest.mark.parametrize("name", GAMES)
def test_ram_map_fidelity(name):
    env = make_env(name)
    env.reset(11)
    rng = np.random.default_rng(2)
    for _ in range(200):
        res = env.step(int(rng.integers(env.action_count)))
        ram = res.observation.ram
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
        if res.terminal:
            env.reset(11)


@pytest.mark.parametrize("name", GAMES)
def test_cumulative_reward_equals_score_counter(name):
    env = make_env(name)
    env.reset(5)
    rng = np.random.default_rng(7)
    total = 0.0
    for _ in range(2000):
        res = env.step(int(rng.integers(env.action_count)))
        total += res.reward
        if res.terminal:
            break
    score_cell = {"micro_catch": 3, "micro_breakout": 10, "micro_diver": 4}[name]
    assert res.observation.ram[score_cell] == int(total) % 256


@pytest.mark.parametrize("name", GAMES)
def test_frame_skip_one_equals_step(name):
    rng = np.random.default_rng(13)
    actions = [int(rng.integers(ENV_REGISTRY[name].action_count)) for _ in range(100)]
    env_a, env_b = make_env(name), make_env(name)
    env_a.reset(21)
    env_b.reset(21)
    for a in actions:
        ra = frame_skip_step(env_a, a, 1)
        rb = env_b.step(a)
        assert ra.reward == rb.reward
        assert ra.terminal == rb.terminal
        np.testing.assert_array_equal(ra.observation.ram, rb.observation.ram)
        if ra.terminal:
            break


@pytest.mark.parametrize("name", GAMES)
@pytest.mark.parametrize("k", [2, 4])
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
            ra = frame_skip_step(env_a, a, k)
            total, terminal = 0.0, False
            for _ in range(k):
                rb = env_b.step(a)
                total += rb.reward
                if rb.terminal:
                    terminal = True
                    break
            assert ra.reward == total
            assert ra.terminal == terminal
            np.testing.assert_array_equal(ra.observation.ram, rb.observation.ram)
            if terminal:
                break


def test_frame_skip_reward_summation():
    class Scripted:
        rewards = (0.0, 1.0, 0.0, 2.0)

        def __init__(self):
            self.i = 0

        def step(self, action):
            from ramdqn.envs import EnvStepResult, Observation
            r = self.rewards[self.i]
            self.i += 1
            obs = Observation(np.zeros(128, np.uint8), np.zeros((2, 2), np.uint8))
            return EnvStepResult(obs, r, False)

    res = frame_skip_step(Scripted(), 0, 4)
    assert res.reward == 3.0


def test_frame_skip_stops_at_terminal():
    class Scripted:
        def __init__(self):
            self.i = 0

        def step(self, action):
            from ramdqn.envs import EnvStepResult, Observation
            self.i += 1
            obs = Observation(np.zeros(128, np.uint8), np.zeros((2, 2), np.uint8))
            return EnvStepResult(obs, 1.0, self.i == 2)

    env = Scripted()
    res = frame_skip_step(env, 0, 4)
    assert env.i == 2
    assert res.terminal
    assert res.reward == 2.0


def test_scale_ram_values():
    ram = np.zeros(128, dtype=np.uint8)
    ram[0], ram[1], ram[2] = 0, 128, 255
    scaled = scale_ram(ram)
    assert scaled[0] == 0.0
    assert scaled[1] == 0.5
    assert scaled[2] == np.float32(255 / 256)
    assert abs(scaled[2] - 0.99609375) < 1e-9


def test_phi_buffer_identical_frames():
    buf = PhiBuffer(4)
    frame = np.full((4, 4), 64, dtype=np.uint8)
    buf.reset(frame)
    stack = buf.stack()
    assert stack.shape == (4, 4, 4)
    for plane in stack:
        np.testing.assert_array_equal(plane, frame / 256.0)


def test_phi_buffer_fifo():
    buf = PhiBuffer(4)
    frames = [np.full((2, 2), i, dtype=np.uint8) for i in range(1, 6)]
    buf.reset(frames[0])
    stack = None
    for f in frames[1:]:
        stack = buf.observe(f)
    for plane, f in zip(stack, frames[1:]):
        np.testing.assert_array_equal(plane, f / 256.0)


def test_phi_buffer_scales_by_256():
    buf = PhiBuffer(2)
    buf.reset(np.zeros((2, 2), dtype=np.uint8))
    stack = buf.observe(np.full((2, 2), 255, dtype=np.uint8))
    assert stack[-1][0, 0] == np.float32(255 / 256)


def test_unknown_env_name():
    with pytest.raises(ValueError):
        make_env("atari_2600")
