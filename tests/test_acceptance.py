"""Acceptance suite: one test per criterion, each printing a PASS line."""

import time

import numpy as np
import pytest

from drawing import copying
from ramdqn.agents import (
    ARCHITECTURES,
    HyperParams,
    build_architecture,
    epsilon_at,
    train_step,
)
from ramdqn.cli import gradcheck_architecture, main
from ramdqn.envs import ENV_REGISTRY, frame_skip_step, make_env
from ramdqn.harness import (
    ExperimentConfig,
    TrainingState,
    run_test_period,
    run_training_epoch,
)
from ramdqn.optim import rmsprop_state_for
from ramdqn.replay import ReplayMemory
from ramdqn.tensor_core import forward, make_network
from ramdqn.tensor_core import LayerSpec


def report(name):
    print(f"ACCEPTANCE PASS: {name}")


# -- shared desk-scale learning run (criteria: end-to-end learning,
# visualization sanity) ------------------------------------------------------

LEARN_EPOCHS = 30
LEARN_STEPS_PER_EPOCH = 5_000


@pytest.fixture(scope="module")
def catch_learning_run():
    hyper = HyperParams(frame_skip=1, steps_per_epoch=LEARN_STEPS_PER_EPOCH)
    config = ExperimentConfig("micro_catch", "just_ram", hyper=hyper,
                              epochs=LEARN_EPOCHS, seed=7)
    state = TrainingState(config)
    state.warmup()
    start = time.monotonic()
    scores = []
    for epoch in range(1, LEARN_EPOCHS + 1):
        mean_loss = run_training_epoch(state, LEARN_STEPS_PER_EPOCH)
        rep = run_test_period(state.net, "micro_catch", hyper,
                              seed=1000 + epoch, epoch=epoch, mean_loss=mean_loss)
        scores.append(rep.avg_score)
    return {"state": state, "scores": scores, "runtime": time.monotonic() - start}


def greedy_oracle_score(seed):
    """Brute-force greedy play of micro_catch: walk toward the object."""
    env = make_env("micro_catch")
    env.reset(seed)
    total = 0.0
    while True:
        ram = env.observe(env.buffers(("ram",)))["ram"]
        action = 0 if ram[1] == ram[0] else (1 if ram[1] < ram[0] else 2)
        reward, terminal = env.step(action)
        total += reward
        if terminal:
            return total


def test_gradient_correctness_all_architectures():
    for name in ARCHITECTURES:
        start = time.monotonic()
        err = gradcheck_architecture(name, seed=0, probes=100)
        elapsed = time.monotonic() - start
        assert err < 1e-5, f"{name}: gradcheck error {err:.3e}"
        assert elapsed < 60.0, f"{name}: gradcheck took {elapsed:.1f}s"
    report("gradient correctness < 1e-5 for all five architectures")


def test_tabular_oracle_equivalence():
    start = time.monotonic()
    gamma = 0.95

    # Independent oracle: value iteration on the 5-state chain.
    q_star = np.zeros((4, 2))
    for _ in range(2000):
        new = np.zeros_like(q_star)
        for s in range(4):
            for a in range(2):
                ns = s + 1 if a == 1 else max(s - 1, 0)
                if ns == 4:
                    new[s, a] = 1.0
                else:
                    new[s, a] = gamma * q_star[ns].max()
        q_star = new

    def onehot(s):
        ram = np.zeros(128, dtype=np.float32)
        ram[s] = np.float32(255 / 256)
        return {"ram": ram}

    specs = [LayerSpec(kind="input", stream="ram", shape=(128,)),
             LayerSpec(kind="dense", units=2, bias=False, input_refs=(0,))]
    net = make_network(specs, np.random.default_rng(0), dtype=np.float64)
    net.params[1]["W"][...] = 0.0
    opt = rmsprop_state_for(net, learning_rate=0.01)

    def onehot_bytes(s):
        ram = np.zeros(128, dtype=np.uint8)
        ram[s] = 255  # onehot(s) once scaled
        return {"ram": ram}

    # Four episodes from state 3, each taking every (state, action) pair
    # once: left down to 0, left again, then right into the terminal state,
    # whose next observation is the next episode's first.
    mem = ReplayMemory(64, onehot_bytes(3))
    for _ in range(4):
        s = 3
        for a in (0, 0, 0, 0, 1, 1, 1, 1):
            ns = s + 1 if a == 1 else max(s - 1, 0)
            next_obs = onehot_bytes(3 if ns == 4 else ns)
            mem.push(a, 1.0 if ns == 4 else 0.0, ns == 4, copying(next_obs))
            s = ns
    hyper = HyperParams(minibatch_size=32, replay_start_size=32, frame_skip=1,
                        discount=gamma, steps_per_epoch=1, test_steps=1)
    rng = np.random.default_rng(4)
    for _ in range(5000):
        train_step(net, mem, opt, hyper, rng)

    q_net = np.zeros((4, 2))
    for s in range(4):
        q_net[s] = forward(net, {"ram": onehot(s)["ram"][None, :]})[net.terminal]["out"][0]
    sup = float(np.max(np.abs(q_net - q_star)))
    elapsed = time.monotonic() - start
    assert sup < 0.05, f"sup-norm gap {sup:.4f}"
    assert elapsed < 60.0
    report(f"tabular oracle equivalence (sup-norm gap {sup:.4f})")


def test_end_to_end_learning(catch_learning_run):
    optimal = np.mean([greedy_oracle_score(s) for s in range(20)])
    best = max(catch_learning_run["scores"])
    runtime = catch_learning_run["runtime"]
    assert best >= 0.9 * optimal, f"best {best:.2f} < 90% of optimal {optimal:.2f}"
    assert runtime < 30 * 60, f"learning run took {runtime:.0f}s"
    report(f"end-to-end learning (best {best:.2f} vs optimal {optimal:.2f}, "
           f"{runtime:.0f}s)")


def test_architecture_fidelity():
    net = build_architecture("just_ram", 4, rng=np.random.default_rng(0))
    hidden = [l for l in net.layers if l.kind != "input"]
    assert [(l.kind, l.units, l.activation) for l in hidden] == [
        ("dense", 128, "rectify"), ("dense", 128, "rectify"), ("dense", 4, "none")]
    assert net.flat.size == 2 * (128 * 128 + 128) + 128 * 4 + 4 == 33_540

    net = build_architecture("big_ram", 18, rng=np.random.default_rng(0))
    hidden = [l for l in net.layers if l.kind != "input"]
    assert [(l.kind, l.units, l.activation) for l in hidden] == [
        ("dense", 128, "rectify")] * 4 + [("dense", 18, "none")]
    assert net.flat.size == 4 * (128 * 128 + 128) + 128 * 18 + 18 == 68_370

    net = build_architecture("nips", 4, screen_shape=(32, 32),
                             rng=np.random.default_rng(0))
    kinds = [l.kind for l in net.layers if l.kind != "input"]
    assert kinds == ["conv2d", "conv2d", "dense", "dense"]

    net = build_architecture("mixed_ram", 6, screen_shape=(32, 32),
                             rng=np.random.default_rng(0))
    kinds = [l.kind for l in net.layers if l.kind != "input"]
    assert kinds == ["conv2d", "conv2d", "dense", "concat", "dense"]
    concat_idx = [i for i, l in enumerate(net.layers) if l.kind == "concat"][0]
    assert net.out_shapes[concat_idx] == (384,)

    net = build_architecture("big_mixed_ram", 6, screen_shape=(32, 32),
                             rng=np.random.default_rng(0))
    kinds = [l.kind for l in net.layers if l.kind != "input"]
    assert kinds == ["conv2d", "conv2d", "dense", "dense", "dense", "concat",
                     "dense", "dense"]
    for name in ARCHITECTURES:
        needs_screen = name in ("nips", "mixed_ram", "big_mixed_ram")
        net = build_architecture(name, 6,
                                 screen_shape=(32, 32) if needs_screen else None,
                                 rng=np.random.default_rng(0))
        assert net.layers[net.terminal].activation == "none"
    report("architecture fidelity (layer sequences and param counts)")


def test_protocol_fidelity():
    hyper = HyperParams()
    assert epsilon_at(hyper, 0) == 1.0
    assert epsilon_at(hyper, 1_000_000) == 0.1
    assert epsilon_at(hyper, 2_000_000) == 0.1
    for a, b in zip(range(0, 1_200_000, 50_000), range(50_000, 1_250_000, 50_000)):
        assert epsilon_at(hyper, b) <= epsilon_at(hyper, a)

    assert hyper.test_epsilon == 0.05
    assert hyper.test_steps == 10_000
    assert hyper.replay_capacity == 100_000
    assert hyper.replay_start_size == 100

    zero = {"ram": np.zeros(1, np.uint8)}
    mem = ReplayMemory(hyper.replay_capacity, zero)
    for _ in range(hyper.replay_capacity + 1):
        mem.push(0, 0.0, False, copying(zero))
    assert len(mem) == hyper.replay_capacity

    small = ReplayMemory(3, zero)
    for i in range(5):
        small.push(0, float(i), False, copying({"ram": np.full(1, i + 1, np.uint8)}))
    kept = small.contents()[:]  # the last three of five transitions, oldest first
    last = np.arange(2, 5)
    assert kept.state.keys() == kept.next_state.keys() == {"ram"}
    np.testing.assert_array_equal(kept.state["ram"], (last / 256)[:, None].astype(np.float32))
    np.testing.assert_array_equal(kept.next_state["ram"],
                                  ((last + 1) / 256)[:, None].astype(np.float32))
    assert kept.action.tolist() == [0, 0, 0]
    assert kept.reward.tolist() == [2.0, 3.0, 4.0]
    assert kept.terminal.tolist() == [False] * 3

    config = ExperimentConfig(
        "micro_catch", "just_ram",
        hyper=HyperParams(frame_skip=1, steps_per_epoch=10, test_steps=10),
        seed=0)
    state = TrainingState(config)
    state.warmup()
    assert len(state.replay) == 100
    report("protocol fidelity (epsilon schedule, test defaults, replay limits)")


def test_frame_skip_semantics():
    rng = np.random.default_rng(99)
    for name in sorted(ENV_REGISTRY):
        action_count = ENV_REGISTRY[name].action_count
        for _ in range(1000):
            seed = int(rng.integers(1_000_000))
            k = int(rng.integers(2, 6))
            actions = [int(rng.integers(action_count)) for _ in range(12)]
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
                obs_a = env_a.observe(env_a.buffers(("ram", "screen")))
                obs_b = env_b.observe(env_b.buffers(("ram", "screen")))
                np.testing.assert_array_equal(obs_a["ram"], obs_b["ram"])
                np.testing.assert_array_equal(obs_a["screen"], obs_b["screen"])
                if terminal:
                    break
    report("frame-skip semantics (1000 random sequences per micro-game)")


def test_determinism_cli(tmp_path):
    flags = ["train", "--env", "micro_catch", "--arch", "just_ram",
             "--epochs", "2", "--seed", "19", "--frame-skip", "1",
             "--steps-per-epoch", "80", "--replay-capacity", "400",
             "--test-steps", "150"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(flags + ["--out", str(out1)]) == 0
    assert main(flags + ["--out", str(out2)]) == 0
    for fname in ("curve.csv", "last.ckpt", "best.ckpt"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes(), fname
    report("determinism (byte-identical CSVs and checkpoints)")


def dropout_net(p, width):
    """The float64 network `input -> dropout(p)` on a `width`-wide stream "x"."""
    specs = [LayerSpec(kind="input", stream="x", shape=(width,)),
             LayerSpec(kind="dropout", drop_p=p, input_refs=(0,))]
    return make_network(specs, np.random.default_rng(0), dtype=np.float64)


def test_dropout_contract():
    x = np.linspace(-3.0, 3.0, 1000)[None, :]
    net = dropout_net(0.5, x.shape[1])
    out_eval = forward(net, {"x": x}, "eval")[-1]["out"]
    np.testing.assert_array_equal(out_eval, x * 0.5)

    rng = np.random.default_rng(11)
    acc = np.zeros_like(x)
    n_masks = 10_000
    for _ in range(n_masks):
        out = forward(net, {"x": x}, "train", rng)[-1]["out"]
        acc += out
    mc = acc / n_masks
    scale = np.mean(np.abs(out_eval)) + 1e-12
    assert np.mean(np.abs(mc - out_eval)) / scale < 0.05
    report("dropout contract (eval scaling exact, MC expectation within 5%)")


def test_visualization_sanity(catch_learning_run):
    net = catch_learning_run["state"].net
    first_dense = next(i for i, l in enumerate(net.layers) if l.kind == "dense")
    w = np.abs(net.params[first_dense]["W"])
    per_cell = w.mean(axis=0)
    informative = per_cell[:5].mean()
    silent = per_cell[5:].mean()
    assert informative >= 2.0 * silent, (
        f"informative rows {informative:.4f} vs silent {silent:.4f}")
    report(f"visualization sanity (informative/silent weight ratio "
           f"{informative / silent:.2f}x)")
