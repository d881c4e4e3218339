import contextlib
import copy
import json
import os
import re
import struct
import sys
import tempfile
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ramdqn import agents, harness
from ramdqn.agents import HyperParams, greedy_action, select_action
from ramdqn.cli import main, write_weight_heatmap
from ramdqn.envs import ENV_REGISTRY, RAM_SIZE, MicroGame, PhiBuffer, make_env, scale_ram
from ramdqn.harness import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    EpochReport,
    ExperimentConfig,
    TrainingError,
    TrainingState,
    checkpoint_load,
    checkpoint_save,
    load_params_into,
    network_from_checkpoint,
    restore_training_state,
    run_experiment,
    run_test_period,
    run_training_epoch,
    write_curve_csv,
)
from ramdqn.agents import build_architecture
from ramdqn.replay import ReplayMemory
from ramdqn.tensor_core import LayerSpec, Workspace, make_network


class ListWindow:
    """The screen window as a list of copies of the last `n` screens, oldest
    first: the model that PhiBuffer and the replay ring are checked against."""

    def __init__(self, n):
        self.n = n
        self.frames = []

    def reset(self, screen):
        self.frames = [screen.copy()] * self.n

    def observe(self, screen):
        self.frames = self.frames[1:] + [screen.copy()]

    def stack(self):
        return scale_ram(np.stack(self.frames))


def small_hyper(**kw):
    defaults = dict(minibatch_size=8, replay_start_size=20, frame_skip=1,
                    steps_per_epoch=100, test_steps=200, replay_capacity=500)
    defaults.update(kw)
    return HyperParams(**defaults)


def small_config(**kw):
    defaults = dict(env_name="micro_catch", arch="just_ram",
                    hyper=small_hyper(), epochs=2, seed=3)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def snapshot_params(net):
    return [None if p is None else {k: v.copy() for k, v in p.items()}
            for p in net.params]


def params_equal(a, b):
    for pa, pb in zip(a, b):
        if pa is None:
            continue
        for k in pa:
            if not np.array_equal(pa[k], pb[k]):
                return False
    return True


def test_zero_steps_changes_nothing():
    state = TrainingState(small_config())
    state.warmup()
    before = snapshot_params(state.net)
    run_training_epoch(state, 0)
    assert params_equal(before, snapshot_params(state.net))


def test_global_step_accounting():
    state = TrainingState(small_config())
    state.warmup()
    run_training_epoch(state, 50)
    run_training_epoch(state, 50)
    assert state.global_step == 100


def test_epoch_mean_loss_reproducible():
    losses = []
    for _ in range(2):
        state = TrainingState(small_config())
        state.warmup()
        losses.append([run_training_epoch(state, 50) for _ in range(3)])
    assert losses[0] == losses[1]


def test_warmup_fills_replay():
    state = TrainingState(small_config())
    state.warmup()
    assert len(state.replay) == state.hyper.replay_start_size


@pytest.mark.parametrize("env_name, arch", [("micro_catch", "just_ram"),
                                           ("micro_breakout", "nips"),
                                           ("micro_diver", "big_mixed_ram")])
def test_warmup_plays_as_one_draw_per_action(env_name, arch):
    # The warm-up draws its actions in one call; a start size past the 4,096
    # actions it once drew per call must leave everything as the loop of one
    # draw per action does.
    size = 4_133
    config = small_config(env_name=env_name, arch=arch,
                          hyper=small_hyper(frame_skip=4, replay_start_size=size,
                                            replay_capacity=size))
    state, reference = TrainingState(config), TrainingState(config)
    state.warmup()
    for _ in range(size):
        reference._take_action(int(reference.explore_rng.integers(
            reference.episode.env.action_count)))
    assert len(state.replay) == size
    got, want = state.replay.arrays(), reference.replay.arrays()
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[name], want[name]) for name in want)
    assert state.replay.pushes == reference.replay.pushes

    def rng_states(s):
        rngs = (s.explore_rng, s.dropout_rng, s.sample_rng, s.episode.seed_rng)
        return [rng.bit_generator.state for rng in rngs]

    assert rng_states(state) == rng_states(reference)
    assert state.episode.env.get_state() == reference.episode.env.get_state()


def test_test_period_does_not_mutate_training():
    state = TrainingState(small_config())
    state.warmup()
    run_training_epoch(state, 50)
    before_params = snapshot_params(state.net)
    before_acc = copy.deepcopy(state.opt_state.mean_square)
    before_replay = len(state.replay)
    run_test_period(state.net, "micro_catch", state.hyper, seed=1)
    assert params_equal(before_params, snapshot_params(state.net))
    for a, b in zip(before_acc, state.opt_state.mean_square):
        if a is None:
            continue
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])
    assert len(state.replay) == before_replay


@pytest.mark.parametrize("steps", [np.int64(5), np.int32(5), 5])
def test_training_epoch_takes_a_numpy_integer_step_count(steps):
    # np.int64(5) raised ValueError, as no other count setting did.
    state = TrainingState(small_config())
    run_training_epoch(state, steps)
    assert state.global_step == 5 and state.epochs_done == 1


def test_test_period_truncated_episode_flagged():
    # One step is never enough to finish an episode.
    state = TrainingState(small_config())
    report = run_test_period(state.net, "micro_catch", replace(state.hyper, test_steps=1),
                             seed=1)
    assert report.truncated
    assert report.episodes == 1


def no_game_step(*args):
    raise AssertionError("a game step was played")


@pytest.mark.parametrize("period, kwargs, match", [
    ("train", {"steps": -5}, "training steps"),    # returned 0.0 and counted an epoch
    ("train", {"steps": 2.0}, "training steps"),
    ("train", {"steps": True}, "training steps"),
    ("test", {"test_steps": 0}, "test_steps"),     # reported a truncated 0-step episode
    ("test", {"test_steps": 0, "test_epsilon": 2.0}, "test_steps"),
    ("test", {"test_steps": -1}, "test_steps"),
    ("test", {"test_steps": 10.0}, "test_steps"),
    ("test", {"test_epsilon": 2.0}, "epsilon"),
    ("test", {"test_epsilon": -0.1}, "epsilon"),
    ("test", {"test_epsilon": float("nan")}, "epsilon"),
    ("train", {"steps": -1}, "training steps"),
    ("train", {"steps": 1.5}, "training steps"),
    ("train", {"steps": np.int64(-1)}, "training steps"),
])
def test_bad_step_count_or_epsilon_raises_before_any_game_step(monkeypatch, period, kwargs,
                                                                 match):
    state = TrainingState(small_config())
    monkeypatch.setattr(harness, "frame_skip_step", no_game_step)
    with pytest.raises(ValueError, match=match):
        if period == "train":
            run_training_epoch(state, **kwargs)
        else:
            run_test_period(state.net, "micro_catch", replace(state.hyper, **kwargs), seed=1)
    assert (state.warmed, state.epochs_done, state.global_step, len(state.replay)) == (
        False, 0, 0, 0)


@pytest.mark.parametrize("epsilon", [0.05, 1.0])
@pytest.mark.parametrize("env_name", ["micro_breakout", "micro_diver"])
@pytest.mark.parametrize("arch", ["just_ram", "nips"])
def test_test_period_refuses_a_network_built_for_another_game(monkeypatch, arch, env_name,
                                                              epsilon):
    # Built for micro_catch's 3 actions and 16x16 screens; the nips net gets
    # the game's action count, so that only its screen input does not fit.
    game = make_env(env_name)
    actions = 3 if arch == "just_ram" else game.action_count
    net = build_architecture(arch, output_dim=actions, screen_shape=(16, 16), phi_length=4)
    match = {"just_ram": f"the network has 3 outputs, but {env_name} has {game.action_count}",
             "nips": rf"screen input is \(4, 16, 16\), but {env_name} at phi_length 4 "
                     rf"gives \(4, {game.screen_shape[0]}, {game.screen_shape[1]}\)"}[arch]
    monkeypatch.setattr(harness, "frame_skip_step", no_game_step)
    with pytest.raises(ValueError, match=match):
        run_test_period(net, env_name, small_hyper(phi_length=4, test_epsilon=epsilon), seed=1)


def test_test_period_names_a_network_input_stream_the_game_does_not_have(monkeypatch):
    # Was a KeyError from the shape check.
    specs = [LayerSpec(kind="input", stream="sound", shape=(4,)),
             LayerSpec(kind="dense", units=3, input_refs=(0,))]
    net = make_network(specs, np.random.default_rng(0))
    monkeypatch.setattr(harness, "frame_skip_step", no_game_step)
    with pytest.raises(ValueError, match=r"sound input is \(4,\), but micro_catch .* "
                                         r"gives no sound stream"):
        run_test_period(net, "micro_catch", small_hyper(test_steps=10), seed=1)


def test_test_period_refuses_a_screen_window_of_another_length(monkeypatch):
    game = make_env("micro_catch")
    net = harness.build_network("nips", game, small_hyper(phi_length=4), np.random.default_rng(0))
    monkeypatch.setattr(harness, "frame_skip_step", no_game_step)
    with pytest.raises(ValueError, match=r"\(4, 16, 16\), but micro_catch at phi_length 2"):
        run_test_period(net, "micro_catch", small_hyper(phi_length=2, test_steps=10), seed=1)


@pytest.mark.parametrize("env_name", sorted(ENV_REGISTRY))
@pytest.mark.parametrize("arch", ["just_ram", "nips", "mixed_ram"])
def test_test_period_runs_a_network_built_for_its_game(env_name, arch):
    hyper = small_hyper(phi_length=2, test_steps=20, test_epsilon=0.05)
    net = harness.build_network(arch, make_env(env_name), hyper, np.random.default_rng(0))
    report = run_test_period(net, env_name, hyper, seed=1)
    assert report.steps == 20


def reference_test_period(net, env_name, hyper, seed):
    """`run_test_period` as a plain loop that calls `greedy_action` on every
    greedy step, on inputs built from a list window and scale_ram.
    Returns (report, actions, the distinct windows of the greedy steps, as the
    RAM bytes and then the screens' bytes)."""
    policy_ss, env_ss = np.random.SeedSequence(seed).spawn(2)
    policy_rng = np.random.default_rng(policy_ss)
    episode = harness.EpisodePipeline(make_env(env_name), hyper, np.random.default_rng(env_ss))
    phi = ListWindow(hyper.phi_length)
    obs, terminal = episode.draw(episode.env.buffers(net.input_streams)), True
    scores, current, actions, windows = [], 0.0, [], set()
    for _ in range(hyper.test_steps):
        inputs = {"ram": scale_ram(obs["ram"])} if "ram" in obs else {}
        if "screen" in obs:
            if terminal:
                phi.reset(obs["screen"])
            else:
                phi.observe(obs["screen"])
            inputs["screen"] = phi.stack()
        ram = [obs["ram"]] if "ram" in obs else []
        window = b"".join(a.tobytes() for a in ram + phi.frames)

        def greedy():
            windows.add(window)
            return greedy_action(net, inputs)

        actions.append(select_action(net, greedy, hyper.test_epsilon, policy_rng))
        reward, terminal = episode.step(actions[-1])
        episode.draw(obs)
        current += reward
        if terminal:
            scores.append(current)
            current = 0.0
    steps = hyper.test_steps
    report = (EpochReport(0, sum(scores) / len(scores), len(scores), steps, 0.0) if scores
              else EpochReport(0, current, 1, steps, 0.0, truncated=True))
    return report, actions, windows


def cached_test_period(net, env_name, hyper, seed):
    """`run_test_period`'s report, its actions and the forwards it ran."""
    actions, forwards = [], []
    real_select, real_forward = harness.select_action, agents.forward

    def select(*args):
        actions.append(real_select(*args))
        return actions[-1]

    def forward(*args, **kwargs):
        forwards.append(len(actions))
        return real_forward(*args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "select_action", select)
        m.setattr(agents, "forward", forward)
        report = run_test_period(net, env_name, hyper, seed=seed)
    return report, actions, forwards


@pytest.mark.parametrize("epsilon", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("env_name, arch", [
    ("micro_catch", "just_ram"), ("micro_breakout", "big_ram"), ("micro_catch", "nips"),
    ("micro_diver", "mixed_ram"), ("micro_diver", "big_mixed_ram")])
def test_test_period_runs_one_forward_per_distinct_window(env_name, arch, epsilon):
    # The network is frozen for the period, so a window seen before takes its
    # kept greedy action: the same actions and report as a forward on every
    # greedy step, with one forward for each distinct window, RAM and every
    # screen of it.
    hyper = HyperParams(frame_skip=2, test_steps=600, test_epsilon=epsilon)
    net = harness.build_network(arch, make_env(env_name), hyper, np.random.default_rng(0))
    want, want_actions, windows = reference_test_period(net, env_name, hyper, seed=4)
    report, actions, forwards = cached_test_period(net, env_name, hyper, seed=4)
    assert report == want and actions == want_actions
    assert report.episodes >= 2 and not report.truncated  # episodes end inside the period
    assert len(forwards) == len(windows)


@pytest.mark.parametrize("arch", ["just_ram", "nips"])
def test_test_period_keeps_no_action_of_another_period(arch):
    # Two networks, one game and one seed: the second period meets the first
    # one's windows, and must compute every action from its own network.
    hyper = HyperParams(frame_skip=2, test_steps=300, test_epsilon=0.05)
    env = make_env("micro_catch")
    first, second = (harness.build_network(arch, env, hyper, np.random.default_rng(seed))
                     for seed in (0, 1))
    cached_test_period(first, "micro_catch", hyper, seed=4)
    want, want_actions, windows = reference_test_period(second, "micro_catch", hyper, seed=4)
    report, actions, forwards = cached_test_period(second, "micro_catch", hyper, seed=4)
    assert report == want and actions == want_actions
    assert len(forwards) == len(windows)


def test_run_experiment_best_tie_to_earliest(tmp_path, monkeypatch):
    scores = iter([10.0, 50.0, 50.0])

    def test_period(net, env_name, hyper, seed, epoch, mean_loss):
        return EpochReport(epoch, next(scores), 1, 10, mean_loss)

    monkeypatch.setattr(harness, "run_test_period", test_period)
    reports, best = run_experiment(small_config(epochs=3, hyper=small_hyper(steps_per_epoch=5)),
                                   tmp_path)
    assert [r.avg_score for r in reports] == [10.0, 50.0, 50.0]
    assert best == 2
    ckpt = checkpoint_load(tmp_path / "best.ckpt")
    assert ckpt["header"]["counters"]["epochs_done"] == best


@pytest.mark.parametrize("epochs", [0, 1.5, True])
def test_config_rejects_bad_epochs(epochs):
    with pytest.raises(ValueError, match="epochs must be a positive integer"):
        small_config(epochs=epochs)


def test_config_accepts_a_numpy_integer_epoch_count():
    # As every other count does; seed stays a plain int, stored in the checkpoint header.
    assert small_config(epochs=np.int64(2)).epochs == 2


@pytest.mark.parametrize("hyper", [None, {}, "x"])
def test_config_rejects_a_hyper_that_is_not_hyperparams(hyper):
    with pytest.raises(ValueError, match="hyper must be a HyperParams"):
        small_config(hyper=hyper)


def test_config_refuses_a_run_that_can_never_update(tmp_path):
    # 10 warm-up transitions and 2 epochs of 3 actions make 16 transitions:
    # a minibatch of 17 is never sampled, and the curve would show a mean
    # loss of 0 for a network that never trained.  At 16 the last action
    # trains, and the checkpoint of its first epoch, which has not trained
    # yet, still loads: a header records no epoch count.
    hyper = small_hyper(minibatch_size=17, replay_start_size=10, steps_per_epoch=3)
    with pytest.raises(ValueError, match=r"replay_start_size 10 \+ epochs 2 \* "
                                         r"steps_per_epoch 3 transitions are fewer than "
                                         r"minibatch_size 17"):
        small_config(hyper=hyper, epochs=2)
    state = TrainingState(small_config(hyper=replace(hyper, minibatch_size=16), epochs=2))
    losses = [run_training_epoch(state, 3)]
    checkpoint_save(state, tmp_path / "epoch1.ckpt", include_replay=True)
    losses.append(run_training_epoch(state, 3))
    assert losses[0] == 0.0 and losses[1] > 0.0
    ckpt = checkpoint_load(tmp_path / "epoch1.ckpt")
    assert network_from_checkpoint(ckpt)[1].hyper == state.hyper
    assert restore_training_state(ckpt).epochs_done == 1


def test_config_is_frozen():
    # An assignment would bypass __post_init__: epochs=-3 would run no epoch.
    config = small_config()
    with pytest.raises(FrozenInstanceError):
        config.epochs = -3
    assert config.epochs == 2


def test_run_experiment_single_epoch(tmp_path):
    reports, best = run_experiment(small_config(epochs=1), tmp_path)
    assert len(reports) == 1
    assert best == 1
    assert (tmp_path / "curve.csv").exists()
    assert (tmp_path / "last.ckpt").exists()
    assert (tmp_path / "best.ckpt").exists()


def test_run_experiment_csv_bytes_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(small_config(), out1)
    run_experiment(small_config(), out2)
    assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()
    assert (out1 / "last.ckpt").read_bytes() == (out2 / "last.ckpt").read_bytes()


def test_curve_csv_format(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(path, [EpochReport(1, 1.5, 2, 100, 0.25),
                           EpochReport(2, 2.0, 3, 100, 0.125)])
    lines = path.read_text().split("\n")
    assert lines[0] == "epoch,avg_score,episodes,steps,mean_loss"
    assert len(lines) == 4 and lines[3] == ""
    assert lines[1].startswith("1,1.500000,2,100,")


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    state = TrainingState(small_config())
    state.warmup()
    run_training_epoch(state, 60)
    path = tmp_path / "ck.ckpt"
    checkpoint_save(state, path, include_replay=True)
    restored = restore_training_state(checkpoint_load(path))
    assert params_equal(snapshot_params(state.net), snapshot_params(restored.net))
    for a, b in zip(state.opt_state.mean_square, restored.opt_state.mean_square):
        if a is None:
            continue
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])


def test_checkpoint_resume_reproduces_loss_sequence(tmp_path):
    # RAM only, and the screen (nips) with a replay ring that has wrapped
    # around before the save.
    for config in (small_config(),
                   small_config(arch="nips", hyper=small_hyper(replay_capacity=40))):
        state = TrainingState(config)
        state.warmup()
        run_training_epoch(state, 60)
        if config.arch == "nips":
            assert state.replay.pushes > state.replay.capacity
        path = tmp_path / "mid.ckpt"
        checkpoint_save(state, path, include_replay=True)

        continued = [run_training_epoch(state, 30) for _ in range(3)]
        restored = restore_training_state(checkpoint_load(path))
        resumed = [run_training_epoch(restored, 30) for _ in range(3)]
        assert continued == resumed


FLUSH_RUN_STEPS, FLUSH_SAVE_AT = 5_000, 4_950  # the save falls between two flushes


@pytest.fixture(scope="module")
def flushed_run(tmp_path_factory):
    """One 5,000-action just_ram epoch on micro_catch, whose always-0 RAM bytes and dead
    units leave accumulators decaying into subnormals: its state, each train step's
    loss, and a checkpoint with replay saved right after the train step at 4,950."""
    path = tmp_path_factory.mktemp("flush") / "mid.ckpt"
    hyper = HyperParams(replay_start_size=100, frame_skip=1, epsilon_decay_steps=5_000,
                        replay_capacity=6_000, steps_per_epoch=FLUSH_RUN_STEPS, test_steps=10)
    state, losses = TrainingState(ExperimentConfig("micro_catch", "just_ram", hyper, seed=1)), []
    real = harness.train_step

    def recording(*args):
        losses.append(real(*args))
        if state.global_step == FLUSH_SAVE_AT:
            checkpoint_save(state, path, include_replay=True)
        return losses[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "train_step", recording)
        run_training_epoch(state, FLUSH_RUN_STEPS)
    return state, losses, path


def unflushed_epoch(state, steps):
    """`run_training_epoch` without its flush of subnormal accumulators (or its loss
    check): the training the flush must leave bit for bit.  Returns each step's loss."""
    state.warmup()
    hyper, net, replay, workspace, losses = state.hyper, state.net, state.replay, Workspace(), []
    for _ in range(steps):
        eps = agents.epsilon_at(hyper, state.global_step)
        state._take_action(select_action(net, lambda: greedy_action(net, replay.latest_state()),
                                         eps, state.explore_rng))
        state.global_step += 1
        if len(replay) >= max(hyper.replay_start_size, hyper.minibatch_size):
            losses.append(agents.train_step(net, replay, state.opt_state, hyper,
                                            state.sample_rng, state.dropout_rng, workspace))
    return losses


def subnormals(acc):
    return (acc > 0) & (acc < np.finfo(acc.dtype).tiny)


def test_flushing_subnormal_accumulators_keeps_every_parameter_and_loss_bit(flushed_run):
    state, losses, _ = flushed_run
    reference = TrainingState(state.config)
    assert unflushed_epoch(reference, FLUSH_RUN_STEPS) == losses
    assert reference.net.flat.tobytes() == state.net.flat.tobytes()
    kept, flushed = reference.opt_state.accumulator, state.opt_state.accumulator
    assert subnormals(kept).sum() > 100  # the flushes had work to do
    # Only accumulators far below the 2^-44 where eps stops absorbing them differ.
    differ = kept != flushed
    assert differ.any() and (kept[differ] < 2.0**-100).all() and (flushed[differ] < 2.0**-100).all()


def test_no_accumulator_is_subnormal_right_after_a_flush(flushed_run):
    state = flushed_run[0]
    assert state.global_step % harness.FLUSH_EVERY == 0  # its last train step flushed
    assert not subnormals(state.opt_state.accumulator).any()


def test_a_run_resumed_between_flushes_matches_the_straight_run(flushed_run, monkeypatch):
    state, losses, path = flushed_run
    ckpt = checkpoint_load(path)
    saved = np.concatenate([a.ravel() for name, a in ckpt["arrays"].items()
                            if name.startswith("acc/")])
    assert subnormals(saved).any()  # the flush at the end of the epoch has work to do
    resumed, tail = restore_training_state(ckpt), []
    assert resumed.global_step == FLUSH_SAVE_AT
    real = harness.train_step
    monkeypatch.setattr(harness, "train_step", lambda *args: tail.append(real(*args)) or tail[-1])
    run_training_epoch(resumed, FLUSH_RUN_STEPS - FLUSH_SAVE_AT)
    assert tail == losses[FLUSH_SAVE_AT - FLUSH_RUN_STEPS:]
    assert resumed.net.flat.tobytes() == state.net.flat.tobytes()
    assert resumed.opt_state.accumulator.tobytes() == state.opt_state.accumulator.tobytes()


class FullDisk:
    """A file opened for writing that takes the first chunk, then runs out of room."""

    def __init__(self, path, mode):
        self.f = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def writelines(self, chunks):
        self.f.write(chunks[0])
        raise OSError("disk full")


def test_checkpoint_save_failure_keeps_previous_file(tmp_path, monkeypatch):
    # Checkpoints, curves and heatmaps go through one writer: a write that
    # fails half-way leaves the previous file whole and no `.tmp` beside it.
    state = TrainingState(small_config())
    writers = {
        "ck.ckpt": (lambda path: checkpoint_save(state, path), CheckpointError),
        "curve.csv": (lambda path: write_curve_csv(path, [EpochReport(1, 1.5, 2, 100, 0.25)]),
                      OSError),
        "w.ppm": (lambda path: write_weight_heatmap(np.eye(4), path), OSError),
    }
    for name, (write, error) in writers.items():
        path = tmp_path / name
        write(path)
        before = path.read_bytes()
        with monkeypatch.context() as m:
            m.setattr(harness, "open", FullDisk, raising=False)
            with pytest.raises(error, match="disk full"):
                write(path)
        assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == sorted(writers)


def test_checkpoint_with_bytes_after_the_last_array_is_refused(tmp_path, capsys):
    path = tmp_path / "long.ckpt"
    checkpoint_save(TrainingState(small_config()), path)
    with open(path, "ab") as f:
        f.write(b"\x00" * 700)
    with pytest.raises(CheckpointError, match="bytes after the last array"):
        checkpoint_load(path)
    assert main(["eval", "--checkpoint", str(path), "--steps", "10"]) == 1
    assert capsys.readouterr().err == "error: corrupt checkpoint: bytes after the last array\n"


def test_checkpoint_listing_an_array_twice_is_refused(tmp_path, capsys):
    # The later bytes used to win: a network loaded from this file had W = 7.
    path = tmp_path / "twice.ckpt"
    checkpoint_save(TrainingState(small_config()), path)
    ckpt = checkpoint_load(path)
    entries = ckpt["header"]["arrays"]
    arrays = [ckpt["arrays"][entry["name"]] for entry in entries]
    [w] = [entry for entry in entries if entry["name"] == "param/1/W"]
    entries.append(w)
    arrays.append(np.full(w["shape"], 7.0, w["dtype"]))
    blob = json.dumps(ckpt["header"]).encode()
    chunks = [CHECKPOINT_MAGIC, struct.pack("<Q", len(blob)), blob]
    for a in arrays:
        chunks += [struct.pack("<Q", a.size), a.tobytes()]
    path.write_bytes(b"".join(chunks))
    with pytest.raises(CheckpointError, match="array param/1/W listed twice"):
        checkpoint_load(path)
    assert main(["eval", "--checkpoint", str(path), "--steps", "10"]) == 1
    assert capsys.readouterr().err == "error: corrupt checkpoint: array param/1/W listed twice\n"


def test_checkpoint_truncated_file(tmp_path):
    state = TrainingState(small_config())
    path = tmp_path / "t.ckpt"
    checkpoint_save(state, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        checkpoint_load(path)


def test_checkpoint_header_length_past_the_file(tmp_path):
    # Read as given, a length of 2**62 would make read() allocate 4 EiB.
    path = tmp_path / "h.ckpt"
    checkpoint_save(TrainingState(small_config()), path)
    data = bytearray(path.read_bytes())
    data[len(CHECKPOINT_MAGIC):len(CHECKPOINT_MAGIC) + 8] = struct.pack("<Q", 2**62)
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="truncated header"):
        checkpoint_load(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTADQN1" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        checkpoint_load(path)


def with_header(blob):
    """Checkpoint bytes: the magic and a header `blob` that lists no arrays."""
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob


@pytest.mark.parametrize("make, message", [
    (lambda path: None, "cannot read checkpoint {path}: "),  # no such file
    (lambda path: path.mkdir(), "cannot read checkpoint {path}: "),
    (lambda path: path.write_bytes(with_header(b"[1, 2]")), "corrupt checkpoint: bad header"),
    (lambda path: path.write_bytes(with_header(b'"version"')), "corrupt checkpoint: bad header"),
    (lambda path: path.write_bytes(with_header(b"null")), "corrupt checkpoint: bad header"),
])
def test_checkpoint_load_refuses_an_unreadable_path_or_a_header_that_is_no_object(
        tmp_path, make, message):
    path = tmp_path / "c.ckpt"
    make(path)
    message = message.format(path=path)
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}"):
        checkpoint_load(path)


def test_checkpoint_load_into_mismatched_architecture(tmp_path):
    state = TrainingState(small_config())
    path = tmp_path / "m.ckpt"
    checkpoint_save(state, path)
    other = build_architecture("big_ram", 3, rng=np.random.default_rng(0))
    with pytest.raises(Exception, match="checkpoint array param/"):
        load_params_into(other, checkpoint_load(path))


def _set(*keys, value):
    def edit(ckpt):
        d = ckpt["header"]
        for k in keys[:-1]:
            d = d[k]
        d[keys[-1]] = value
    return edit


def _pop(*keys):
    def edit(ckpt):
        d = ckpt["header"]
        for k in keys[:-1]:
            d = d[k]
        d.pop(keys[-1])
    return edit


def _replace_array(name, shape):
    def edit(ckpt):
        ckpt["arrays"][name] = np.zeros(shape, dtype=ckpt["arrays"][name].dtype)
    return edit


def _recast_array(name, dtype, value):
    """Replace an array with one of its shape, all `value`, in `dtype`."""
    def edit(ckpt):
        ckpt["arrays"][name] = np.full(ckpt["arrays"][name].shape, value, dtype)
    return edit


def _poke_array(name, index, value):
    def edit(ckpt):
        ckpt["arrays"][name] = ckpt["arrays"][name].copy()
        ckpt["arrays"][name][index] = value
    return edit


def _add_array(name, dtype):
    def edit(ckpt):
        ckpt["arrays"][name] = np.zeros(3, dtype)
    return edit


def _on(env_name, edit):
    """`edit`, made on a checkpoint of `env_name` instead of micro_catch."""
    edit.env_name = env_name
    return edit


# One edit per header entry that only restore_training_state reads, of a
# hyperparameter that only training reads, and of the layer and replay
# arrays; small_config's ring has 500 + 4 slots of 128 RAM bytes, of which
# the checkpoint below holds the 51 written by its 50 pushes.
BAD_RESUME_EDITS = {
    "start_size_float": _set("hyper", "replay_start_size", value=2.5),
    "learning_rate_bool": _set("hyper", "learning_rate", value=True),
    "hyper_field_missing": _pop("hyper", "learning_rate"),  # was restored at its default
    "hyper_not_dict": _set("hyper", value=[1, 2]),
    "dtype_float64": _set("dtype", value="float64"),  # the arrays are float32
    "no_counters": _pop("counters"),
    "counters_not_dict": _set("counters", value=[0, 0, False]),
    "counter_missing": _pop("counters", "global_step"),
    "counter_negative": _set("counters", "epochs_done", value=-1),
    "counter_float": _set("counters", "global_step", value=1.5),
    "warmed_not_bool": _set("counters", "warmed", value=1),
    "no_rng": _pop("rng"),
    "rng_not_dict": _set("rng", value="pcg"),
    "rng_stream_missing": _pop("rng", "sample"),
    "rng_state_not_dict": _set("rng", "explore", value=7),
    "rng_wrong_generator": _set("rng", "dropout", value={"bit_generator": "MT19937"}),
    "no_env_state": _pop("env_state"),
    "env_state_not_dict": _set("env_state", value=None),
    "env_var_missing": _pop("env_state", "vars", "paddle"),
    "env_var_wrong_type": _set("env_state", "vars", "paddle", value="left"),
    "env_terminal_not_bool": _set("env_state", "terminal", value="no"),
    "env_rng_bad": _set("env_state", "rng", value={}),
    "no_replay_section": _set("replay", value=None),
    "replay_not_dict": _set("replay", value=3),
    "replay_streams_differ": _set("replay", "streams", value={"screen": [16, 16]}),
    "replay_stream_shape": _set("replay", "streams", value={"ram": [64]}),
    "pushes_missing": _pop("replay", "pushes"),
    "pushes_negative": _set("replay", "pushes", value=-1),
    "pushes_float": _set("replay", "pushes", value=2.5),
    "pushes_bool": _set("replay", "pushes", value=True),
    "pushes_off_by_one": _set("replay", "pushes", value=51),  # 51 slots hold 50 pushes
    "frames_short": _replace_array("replay/frames/ram", (50, 128)),
    "frames_narrow": _replace_array("replay/frames/ram", (51, 64)),
    "frames_whole_ring": _replace_array("replay/frames/ram", (504, 128)),
    "flags_broadcastable": _replace_array("replay/start", (1,)),
    "acc_broadcastable": _replace_array("acc/1/W", (1,)),
    "param_missing": lambda ckpt: ckpt["arrays"].pop("param/3/b"),
    "acc_missing": lambda ckpt: ckpt["arrays"].pop("acc/3/W"),
    "extra_param_array": _add_array("param/9/W", np.float32),
    "extra_acc_array": _add_array("acc/0/W", np.float32),  # layer 0 is the input
    "extra_replay_array": _add_array("replay/frames/screen", np.uint8),  # just_ram reads RAM
    "param_bytes": _recast_array("param/1/W", np.uint8, 7),  # loaded as 7.0
    "param_float64": _recast_array("param/1/W", np.float64, 0.5),
    "acc_bool": _recast_array("acc/1/W", bool, True),  # loaded as 1.0
    "reward_bytes": _recast_array("replay/reward", np.uint8, 7),  # loaded as 7.0
    "action_float": _recast_array("replay/action", np.float32, 1),
    "action_out_of_range": _poke_array("replay/action", 3, 99),  # micro_catch has 3
    "action_negative": _poke_array("replay/action", 3, -1),
    # Values that training never holds, which the next epoch would train on.
    "param_nan": _poke_array("param/1/W", (5, 7), np.nan),
    "acc_negative": _poke_array("acc/1/W", (5, 7), -1.0),
    "reward_inf": _poke_array("replay/reward", 3, np.inf),
    # The version-2 replay section before each terminal flag was kept once.
    "old_terminal_array": lambda ckpt: ckpt["arrays"].__setitem__(
        "replay/terminal", np.zeros(51, bool)),
    "old_streams_entry": _set("replay", "streams", value={"ram": [128]}),
    "breakout_row_not_list": _on("micro_breakout", _set("env_state", "vars", "bricks", 1,
                                                        value=7)),
    "breakout_row_short": _on("micro_breakout", _set("env_state", "vars", "bricks", 1,
                                                     value=[1] * 15)),
    "breakout_brick_float": _on("micro_breakout", _set("env_state", "vars", "bricks", 0,
                                                       value=[1.0] * 16)),
    "diver_enemies_strings": _on("micro_diver", _set("env_state", "vars", "enemies",
                                                     value=["a"] * 8)),
    "diver_enemies_long": _on("micro_diver", _set("env_state", "vars", "enemies",
                                                  value=[0] * 9)),
    # Game states no play reaches: each game declares the range of every variable.
    "catch_object_between_rows": _set("env_state", "vars", "obj_y", value=7),
    "catch_paddle_off_screen": _set("env_state", "vars", "paddle", value=1000),
    "catch_object_left_of_screen": _set("env_state", "vars", "obj_x", value=-16),
    "diver_oxygen_over_full": _on("micro_diver", _set("env_state", "vars", "oxygen",
                                                      value=300)),
    "diver_sub_off_screen": _on("micro_diver", _set("env_state", "vars", "sub_x", value=40)),
    "diver_enemy_off_screen": _on("micro_diver", _set("env_state", "vars", "enemies", 2,
                                                      value=20)),
    "breakout_ball_off_screen": _on("micro_breakout", _set("env_state", "vars", "ball_x",
                                                           value=99)),
    "breakout_brick_not_a_bit": _on("micro_breakout", _set("env_state", "vars", "bricks", 0, 3,
                                                           value=2)),
}


@pytest.fixture(scope="module")
def resumable_checkpoints(tmp_path_factory):
    """The path of a small resumable checkpoint of a game, saved on first use."""
    paths = {}

    def checkpoint(env_name):
        if env_name not in paths:
            state = TrainingState(small_config(env_name=env_name))
            state.warmup()
            run_training_epoch(state, 30)
            paths[env_name] = tmp_path_factory.mktemp("resume") / "r.ckpt"
            checkpoint_save(state, paths[env_name], include_replay=True)
        return paths[env_name]
    return checkpoint


@pytest.fixture(scope="module")
def resumable_checkpoint(resumable_checkpoints):
    return resumable_checkpoints("micro_catch")


def test_restore_accepts_unedited_checkpoint(resumable_checkpoint):
    restored = restore_training_state(checkpoint_load(resumable_checkpoint))
    assert restored.replay.pushes == 50 and restored.global_step == 30


@pytest.mark.parametrize("case", sorted(BAD_RESUME_EDITS))
def test_restore_rejects_bad_resume_entries(resumable_checkpoints, case):
    edit = BAD_RESUME_EDITS[case]
    ckpt = checkpoint_load(resumable_checkpoints(getattr(edit, "env_name", "micro_catch")))
    restore_training_state(ckpt)  # the unedited checkpoint restores
    edit(ckpt)
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        restore_training_state(ckpt)


@pytest.mark.parametrize("cases, name, rule", [
    (["param_nan"], "param/1/W", "is not finite"),
    (["acc_negative"], "acc/1/W", "is negative"),
    (["reward_inf"], "replay/reward", "is not finite"),
    (["reward_inf", "acc_negative", "param_nan"], "param/1/W", "is not finite"),
])
def test_restore_names_the_first_array_holding_a_value_training_never_holds(
        resumable_checkpoint, cases, name, rule):
    ckpt = checkpoint_load(resumable_checkpoint)
    for case in cases:
        BAD_RESUME_EDITS[case](ckpt)
    with pytest.raises(CheckpointError, match=f"^corrupt checkpoint: ValueError: "
                                              f"checkpoint array {name} {rule}$"):
        restore_training_state(ckpt)


def ring(replay):
    """Every slot of a replay ring's arrays by name, written or not."""
    return {**{f"frames/{s}": f for s, f in replay.frames.items()}, "action": replay.action,
            "reward": replay.reward, "start": replay.start}


def assert_same_rows(got, want):
    """Two Minibatches hold equal rows."""
    for field in ("state", "next_state"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.keys() == b.keys()
        for key in b:
            np.testing.assert_array_equal(a[key], b[key], err_msg=f"{field} {key}")
    for field in ("action", "reward", "terminal"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)


def resume(state, path):
    """The state restore_training_state rebuilds from `state` saved at `path`."""
    checkpoint_save(state, path, include_replay=True)
    return restore_training_state(checkpoint_load(path))


def test_restore_fills_the_written_slots_and_leaves_zeros_past_them(tmp_path):
    state = TrainingState(small_config())
    state.warmup()
    assert {len(v) for v in state.replay.arrays().values()} == {21}  # pushes + 1 of 504 slots
    restored = resume(state, tmp_path / "r.ckpt")
    assert restored.replay.pushes == 20
    for name, arr in ring(restored.replay).items():
        np.testing.assert_array_equal(arr, ring(state.replay)[name], err_msg=name)
        assert not arr[21:].any(), name
    assert_same_rows(restored.replay.contents()[:], state.replay.contents()[:])


def test_restore_of_a_wrapped_ring_holds_every_slot(tmp_path):
    state = TrainingState(small_config(hyper=small_hyper(replay_capacity=30)))
    run_training_epoch(state, 40)
    assert state.replay.pushes == 60 > state.replay.capacity
    assert {len(v) for v in state.replay.arrays().values()} == {34}  # capacity + phi_length
    restored = resume(state, tmp_path / "r.ckpt")
    assert_same_rows(restored.replay.contents()[:], state.replay.contents()[:])
    assert ([run_training_epoch(restored, 1) for _ in range(50)]
            == [run_training_epoch(state, 1) for _ in range(50)])


def test_restore_requires_exactly_the_written_slots(resumable_checkpoint):
    ckpt = checkpoint_load(resumable_checkpoint)
    whole = dict(ckpt, arrays={name: np.zeros((504,) + a.shape[1:], a.dtype)
                               if name.startswith("replay/") else a
                               for name, a in ckpt["arrays"].items()})
    with pytest.raises(CheckpointError, match=r"replay/action is int32 \(504,\), "
                                              r"expected int32 \(51,\)"):
        restore_training_state(whole)  # the whole ring, unwrapped
    ckpt["header"]["replay"]["pushes"] += 1
    with pytest.raises(CheckpointError, match=r"replay/action is int32 \(51,\), "
                                              r"expected int32 \(52,\)"):
        restore_training_state(ckpt)


def test_replay_checkpoint_stores_bytes(tmp_path):
    # The ring's observations are written as one byte each, not as float64.
    state = TrainingState(small_config())
    state.warmup()
    with_replay, without = tmp_path / "r.ckpt", tmp_path / "n.ckpt"
    checkpoint_save(state, with_replay, include_replay=True)
    checkpoint_save(state, without)
    ring_bytes = sum(a.nbytes for a in state.replay.arrays().values())
    extra = with_replay.stat().st_size - without.stat().st_size
    assert ring_bytes < extra < 2 * ring_bytes  # float64 frames: over 7 times
    arrays = checkpoint_load(with_replay)["arrays"]
    assert arrays["replay/frames/ram"].dtype == np.uint8


def test_replay_checkpoint_holds_only_written_slots(tmp_path):
    # Default capacity (100,000): the 101 slots written by the warm-up are
    # saved, not the 100,004-slot ring.
    state = TrainingState(ExperimentConfig("micro_diver", "big_mixed_ram", seed=1))
    state.warmup()
    with_replay, without = tmp_path / "r.ckpt", tmp_path / "n.ckpt"
    checkpoint_save(state, with_replay, include_replay=True)
    checkpoint_save(state, without)
    slot_bytes = sum(a[0].nbytes for a in state.replay.arrays().values())
    extra = with_replay.stat().st_size - without.stat().st_size
    assert 101 * slot_bytes < extra < 101 * slot_bytes + 1_000  # + header entries
    restored = restore_training_state(checkpoint_load(with_replay))
    for name, arr in state.replay.arrays().items():
        np.testing.assert_array_equal(restored.replay.arrays()[name], arr, err_msg=name)


def test_a_training_epoch_runs_its_steps_in_one_workspace(monkeypatch):
    seen, real = [], harness.train_step

    def recording_train_step(*args):
        seen.append(args[6])
        return real(*args)

    monkeypatch.setattr(harness, "train_step", recording_train_step)
    state = TrainingState(small_config())
    run_training_epoch(state, 30)
    assert len(seen) == 30 and isinstance(seen[0], Workspace)
    assert all(w is seen[0] for w in seen) and seen[0].buffers
    run_training_epoch(state, 2)  # a new one: test periods reuse the last one's memory
    assert seen[-1] is not seen[0]


def test_nonfinite_loss_names_epoch_and_array():
    state = TrainingState(small_config())
    state.warmup()
    run_training_epoch(state, 5)
    state.net.params[1]["W"][0, 0] = np.nan
    with pytest.raises(TrainingError,
                       match=r"^epoch 2: training loss is nan; param/1/W is not finite$"):
        run_training_epoch(state, 5)


def test_a_nonfinite_accumulator_is_named_while_every_parameter_is_finite(monkeypatch):
    # An RMSprop accumulator can overflow while the parameters it scales stay finite.
    state = TrainingState(small_config())
    state.opt_state.accumulator[5] = np.inf
    assert np.isfinite(state.net.flat).all()
    with pytest.raises(TrainingError, match=r"^epoch 1: an update left acc/1/W not finite$"):
        run_training_epoch(state, 0)
    monkeypatch.setattr(harness, "train_step", lambda *args: float("nan"))
    with pytest.raises(TrainingError,
                       match=r"^epoch 1: training loss is nan; acc/1/W is not finite$"):
        run_training_epoch(state, 1)


def test_an_update_that_overflows_on_the_last_action_stops_before_the_checkpoints(tmp_path):
    # One training step per epoch: its loss is computed before the update, so
    # only the parameters after it show the overflow.
    hyper = HyperParams(learning_rate=1e38, steps_per_epoch=1, replay_start_size=32,
                        test_steps=20)
    config = ExperimentConfig("micro_catch", "just_ram", hyper, epochs=2, seed=0)
    with np.errstate(all="ignore"), pytest.raises(
            TrainingError, match=r"^epoch 1: an update left param/3/b not finite$"):
        run_experiment(config, tmp_path)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("env_name, arch", [("micro_catch", "just_ram"),
                                            ("micro_catch", "nips"),
                                            ("micro_diver", "big_mixed_ram")])
def test_acting_state_is_the_phi_window_of_the_same_observations(monkeypatch, env_name, arch):
    # Training acts from the replay ring's newest slots.  A 30-transition
    # ring wraps several times in 200 steps, across episode ends; at every
    # action the state must equal what a list window and scale_ram build.
    phi, expected, seen = ListWindow(small_hyper().phi_length), [], []

    def reference(obs, fresh):
        want = {"ram": scale_ram(obs["ram"])} if "ram" in obs else {}
        if "screen" in obs:
            if fresh:
                phi.reset(obs["screen"])
            else:
                phi.observe(obs["screen"])
            want["screen"] = phi.stack()
        expected[:] = [want]

    real_draw = harness.EpisodePipeline.draw

    def draw(self, out):  # starts every episode, the first too
        fresh = self.env.terminal
        real_draw(self, out)
        reference(out, fresh)
        seen.append(fresh)
        return out

    def greedy_action(net, inputs):  # training passes it the ring's latest_state
        assert inputs.keys() == expected[0].keys()
        for key, want in expected[0].items():
            assert inputs[key].dtype == np.float32 and inputs[key].shape == want.shape
            assert inputs[key].tobytes() == want.tobytes(), (len(seen), key)
        return real_greedy(net, inputs)

    def select_action(net, greedy, *args):
        action = greedy()  # check the state at every action, greedy or not
        return real_select(net, lambda: action, *args)

    real_select, real_greedy = harness.select_action, harness.greedy_action
    monkeypatch.setattr(harness.EpisodePipeline, "draw", draw)
    monkeypatch.setattr(harness, "select_action", select_action)
    monkeypatch.setattr(harness, "greedy_action", greedy_action)
    state = TrainingState(small_config(env_name=env_name, arch=arch,
                                       hyper=small_hyper(replay_capacity=30)))
    run_training_epoch(state, 200)
    assert state.replay.pushes == 220 and sum(seen) >= 3  # the first episode and two more


@pytest.mark.parametrize("env_name, arch, built", [
    ("micro_diver", "big_mixed_ram", ("ram", "screen")),
    ("micro_catch", "just_ram", ("ram",)),
    ("micro_catch", "nips", ("screen",)),
])
def test_pipeline_observes_each_read_stream_once_per_action(monkeypatch, env_name, arch, built):
    # At frame skip 4 the frames in between are never observed, and a stream
    # the network does not read is never built: just_ram renders no screen,
    # nips fills no RAM.
    game = ENV_REGISTRY[env_name]
    calls = {"frames": 0, "ram": 0, "screen": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(game, "step", counted("frames", game.step))
    monkeypatch.setattr(game, "_draw_ram", counted("ram", game._draw_ram))
    monkeypatch.setattr(game, "_draw_screen", counted("screen", game._draw_screen))
    hyper = small_hyper(frame_skip=4)
    env = make_env(env_name)
    net = harness.build_network(arch, env, hyper, np.random.default_rng(0))
    episode = harness.EpisodePipeline(env, hyper, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    obs = episode.env.buffers(net.input_streams)
    assert sorted(obs) == sorted(built)
    episode.draw(obs)
    for _ in range(300):
        episode.step(int(rng.integers(env.action_count)))
        episode.draw(obs)
    assert calls["frames"] > 2 * 300  # most actions passed over frames
    assert calls["ram"] == (1 + 300 if "ram" in built else 0)
    assert calls["screen"] == (1 + 300 if "screen" in built else 0)


@pytest.mark.parametrize("env_name", sorted(ENV_REGISTRY))
def test_pipeline_steps_into_the_next_episode(monkeypatch, env_name):
    # One observation per action, also across episode ends: a terminal step
    # resets the game, and its observation is the one a new pipeline on the
    # same seed stream starts with.  The terminal frame is never built.
    observed = []
    real_observe = MicroGame.observe

    def observe(self, out):
        observed.append(sorted(out))
        return real_observe(self, out)

    monkeypatch.setattr(MicroGame, "observe", observe)
    hyper = small_hyper()
    streams = ("ram", "screen")
    episode = harness.EpisodePipeline(make_env(env_name), hyper, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    obs = episode.draw(episode.env.buffers(streams))
    ends = 0
    for _ in range(400):
        seeds, calls = copy.deepcopy(episode.seed_rng), len(observed)
        _, terminal = episode.step(int(rng.integers(episode.env.action_count)))
        episode.draw(obs)
        assert len(observed) == calls + 1
        if terminal:
            ends += 1
            twin = harness.EpisodePipeline(make_env(env_name), hyper, seeds)
            first = twin.draw(twin.env.buffers(streams))
            assert obs.keys() == first.keys()
            for key in first:
                np.testing.assert_array_equal(obs[key], first[key])
    assert ends >= 3


def test_checkpoint_arrays_keep_their_dtypes(tmp_path):
    state = TrainingState(small_config())
    state.warmup()
    path = tmp_path / "c.ckpt"
    checkpoint_save(state, path, include_replay=True)
    ckpt = checkpoint_load(path)
    assert ckpt["header"]["version"] == 2
    dtypes = {name: str(a.dtype) for name, a in ckpt["arrays"].items()}
    assert {dtypes[n] for n in dtypes if n.startswith(("param/", "acc/"))} == {"float32"}
    assert {n: dtypes[n] for n in dtypes if n.startswith("replay/")} == {
        "replay/action": "int32", "replay/reward": "float64", "replay/start": "bool",
        "replay/frames/ram": "uint8"}
    assert all(n.startswith(("param/", "acc/", "replay/")) for n in dtypes)


def test_version_1_checkpoint_refused(tmp_path):
    path = tmp_path / "v1.ckpt"
    checkpoint_save(TrainingState(small_config()), path)
    path.write_bytes(_edit_header(path.read_bytes(), ("version",), 1))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        checkpoint_load(path)


def test_screen_checkpoint_holds_float32_parameters(tmp_path):
    # Default nips on micro_catch: parameters and RMSprop accumulators at
    # 4 bytes each, and nothing else but the header and count prefixes.
    state = TrainingState(ExperimentConfig("micro_catch", "nips"))
    path = tmp_path / "nips.ckpt"
    checkpoint_save(state, path)
    values = sum(a.size for p in state.net.params for a in (p or {}).values())
    size = path.stat().st_size
    assert 8 * values < size < 8 * values + 4_000
    assert size < 2_450_000


def test_restore_huge_replay_capacity_is_a_checkpoint_error(resumable_checkpoint):
    ckpt = checkpoint_load(resumable_checkpoint)
    ckpt["header"]["hyper"]["replay_capacity"] = 10**14  # an 11 PiB ring
    with pytest.raises(CheckpointError, match="MemoryError"):
        restore_training_state(ckpt)


def _edit_header(data, path, value):
    """Checkpoint bytes `data` with the header entry at `path` set to `value`."""
    start = len(CHECKPOINT_MAGIC) + 8
    (hlen,) = struct.unpack("<Q", data[start - 8:start])
    header = json.loads(data[start:start + hlen])
    node = header
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    blob = json.dumps(header).encode()
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + data[start + hlen:]


def _header_paths(node, path=()):
    """The path of every entry under a JSON node, containers included."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    return [p for key, v in items for p in [path + (key,)] + _header_paths(v, path + (key,))]


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    """A small just_ram checkpoint with a wrapped 30-transition ring."""
    state = TrainingState(small_config(hyper=small_hyper(replay_capacity=30)))
    state.warmup()
    run_training_epoch(state, 20)
    path = tmp_path_factory.mktemp("fuzz") / "f.ckpt"
    checkpoint_save(state, path, include_replay=True)
    return path


EDIT_VALUES = (10**14, 2**63, 10**400, -1, -(2**63), 0, 1.5, -0.5, 1e300, float("nan"),
               "x", None, True, [], {}, [1, 2])


@given(data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_checkpoint_raises_only_checkpoint_error(fuzz_checkpoint, data):
    raw, header = fuzz_checkpoint.read_bytes(), checkpoint_load(fuzz_checkpoint)["header"]
    header_end = len(CHECKPOINT_MAGIC) + 8 + len(json.dumps(header))
    kind = data.draw(st.sampled_from(("truncate", "flip", "edit")), label="kind")
    if kind == "truncate":
        fuzzed = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    elif kind == "flip":  # half of the flips land in the magic, lengths or header
        bit = data.draw(st.integers(0, 8 * header_end + 63) | st.integers(0, 8 * len(raw) - 1),
                        label="bit")
        fuzzed = bytearray(raw)
        fuzzed[bit // 8] ^= 1 << bit % 8
        fuzzed = bytes(fuzzed)
    else:
        path = data.draw(st.sampled_from(_header_paths(header)), label="path")
        fuzzed = _edit_header(raw, path, data.draw(st.sampled_from(EDIT_VALUES), label="value"))

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzzed.ckpt")
        with open(path, "wb") as f:
            f.write(fuzzed)
        evaluate = ["eval", "--checkpoint", path, "--steps", "10"]
        try:
            ckpt = checkpoint_load(path)
        except CheckpointError:
            assert main(evaluate) == 1
            return
        with contextlib.suppress(CheckpointError):
            restore_training_state(ckpt)
        try:
            network_from_checkpoint(ckpt)
        except CheckpointError:
            assert main(evaluate) == 1
            return
        assert main(evaluate) == 0


# -- observations are drawn, not allocated -----------------------------------

def largest_held_numpy_blocks(run, least=RAM_SIZE):
    """Call `run()` under tracemalloc and a profile hook; return the sizes of
    the numpy data blocks of `least` bytes or more (default: the smallest
    observation, the 128 RAM bytes) that were made during `run` and held
    together, at the check that found the most of them.  numpy traces each
    array's data in its own tracemalloc domain.  A check runs whenever a
    call inside `run` returns having kept `least` traced bytes or more, so a
    fresh observation array, or one drawn and then copied, is caught while
    it is held."""
    domain = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    at_call, most = [], []

    def hook(frame, event, arg):
        now = tracemalloc.get_traced_memory()[0]
        if event in ("call", "c_call"):
            at_call.append(now)
        elif at_call and now - at_call.pop() >= least:
            traces = tracemalloc.take_snapshot().filter_traces(domain).traces
            held = sorted(t.size for t in traces if t.size >= least)
            if len(held) > len(most):
                most[:] = held

    tracemalloc.start()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    return most


def test_pushes_draw_each_observation_into_the_ring_without_allocating_it():
    # 1,000 micro_diver transitions at frame skip 4, the RAM and the screen
    # of each drawn straight into the ring slot that keeps it, as training
    # and the warm-up push them: no observation array is made.
    hyper = small_hyper(frame_skip=4)
    episode = harness.EpisodePipeline(make_env("micro_diver"), hyper, np.random.default_rng(1))
    first = episode.draw(episode.env.buffers(("ram", "screen")))
    ring = ReplayMemory(1000, first, phi_length=hyper.phi_length)
    actions = np.random.default_rng(2).integers(6, size=1000).tolist()

    def pushes():
        for action in actions:
            reward, terminal = episode.step(action)
            ring.push(action, reward, terminal, episode.draw)

    assert largest_held_numpy_blocks(pushes) == []
    assert ring.pushes == 1000 and ring.start.sum() >= 3  # episodes ended and began


def test_test_period_draws_every_observation_into_one_set_of_arrays():
    # The period's RAM array (128 bytes) and its window's 4 screens, into
    # whose newest row each screen is drawn, are all that it holds: a fresh
    # observation per action, or a screen drawn elsewhere and copied into
    # the window, would be held beside them.  At epsilon 1 no network input
    # is built.
    hyper = small_hyper(frame_skip=4, test_steps=1000, test_epsilon=1.0)
    net = harness.build_network("mixed_ram", make_env("micro_diver"), hyper,
                                np.random.default_rng(0))
    reports = []
    held = largest_held_numpy_blocks(
        lambda: reports.append(run_test_period(net, "micro_diver", hyper, seed=3)))
    assert held == [RAM_SIZE, 4 * 20 * 20]
    assert reports[0].episodes >= 3


def test_test_period_draws_each_screen_into_the_windows_newest_row(monkeypatch):
    # Every screen the game draws, the first of each episode too, goes
    # straight into the window: no screen is copied into it.
    windows, drawn = [], []

    class Window(PhiBuffer):
        def __init__(self, *args):
            super().__init__(*args)
            windows.append(self)

    real_observe = MicroGame.observe

    def observe(self, out):
        drawn.append(out["screen"])
        return real_observe(self, out)

    monkeypatch.setattr(harness, "PhiBuffer", Window)
    monkeypatch.setattr(MicroGame, "observe", observe)
    hyper = small_hyper(test_steps=300, test_epsilon=0.5)
    net = harness.build_network("nips", make_env("micro_catch"), hyper, np.random.default_rng(0))
    report = run_test_period(net, "micro_catch", hyper, seed=2)
    [phi] = windows
    assert len(drawn) == hyper.test_steps and report.episodes >= 3
    assert all(screen is phi.newest for screen in drawn)
