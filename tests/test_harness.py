import contextlib
import copy
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ramdqn import harness
from ramdqn.agents import HyperParams
from ramdqn.cli import main
from ramdqn.envs import ENV_REGISTRY, MicroGame, PhiBuffer, make_env, scale_ram
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


def small_hyper(**kw):
    defaults = dict(minibatch_size=8, replay_start_size=20, frame_skip=1,
                    steps_per_epoch=100, test_steps=200, replay_capacity=500)
    defaults.update(kw)
    return HyperParams(**defaults)


def small_config(tmp_path=None, **kw):
    defaults = dict(env_name="micro_catch", arch="just_ram",
                    hyper=small_hyper(), epochs=2, seed=3,
                    out_dir=str(tmp_path) if tmp_path else "")
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


def test_test_period_truncated_episode_flagged():
    # One step is never enough to finish an episode.
    state = TrainingState(small_config())
    report = run_test_period(state.net, "micro_catch", state.hyper, seed=1, steps=1)
    assert report.truncated
    assert report.episodes == 1


def test_run_experiment_best_tie_to_earliest(tmp_path, monkeypatch):
    scores = iter([10.0, 50.0, 50.0])

    def test_period(net, env_name, hyper, seed, epoch, mean_loss):
        return EpochReport(epoch, next(scores), 1, 10, mean_loss)

    monkeypatch.setattr(harness, "run_test_period", test_period)
    reports, best = run_experiment(small_config(tmp_path, epochs=3,
                                                hyper=small_hyper(steps_per_epoch=5)))
    assert [r.avg_score for r in reports] == [10.0, 50.0, 50.0]
    assert best == 2
    ckpt = checkpoint_load(tmp_path / "best.ckpt")
    assert ckpt["header"]["counters"]["epochs_done"] == best


@pytest.mark.parametrize("epochs", [0, 1.5, True])
def test_config_rejects_bad_epochs(epochs):
    with pytest.raises(ValueError, match="epochs must be a positive integer"):
        small_config(epochs=epochs)


def test_run_experiment_single_epoch(tmp_path):
    config = small_config(tmp_path, epochs=1)
    reports, best = run_experiment(config)
    assert len(reports) == 1
    assert best == 1
    assert (tmp_path / "curve.csv").exists()
    assert (tmp_path / "last.ckpt").exists()
    assert (tmp_path / "best.ckpt").exists()


def test_run_experiment_csv_bytes_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(small_config(out1))
    run_experiment(small_config(out2))
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


def test_checkpoint_save_failure_keeps_previous_file(tmp_path, monkeypatch):
    state = TrainingState(small_config())
    path = tmp_path / "ck.ckpt"
    checkpoint_save(state, path)
    before = path.read_bytes()
    run_training_epoch(state, 30)
    real, calls = harness._write_array, []

    def fail_second_call(f, arr):
        calls.append(arr)
        if len(calls) == 2:
            raise OSError("disk full")
        real(f, arr)

    monkeypatch.setattr(harness, "_write_array", fail_second_call)
    with pytest.raises(CheckpointError, match="disk full"):
        checkpoint_save(state, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ck.ckpt"]


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


def test_checkpoint_load_into_mismatched_architecture(tmp_path):
    state = TrainingState(small_config())
    path = tmp_path / "m.ckpt"
    checkpoint_save(state, path)
    other = build_architecture("big_ram", 3, rng=np.random.default_rng(0))
    with pytest.raises(Exception, match="layer"):
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


# One edit per header entry that only restore_training_state reads, of a
# hyperparameter that only training reads, and of the replay arrays;
# small_config's ring has 500 + 4 slots of 128 RAM bytes, of which the
# checkpoint below holds the 51 written by its 50 pushes.
BAD_RESUME_EDITS = {
    "start_size_float": _set("hyper", "replay_start_size", value=2.5),
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
    "frames_short": _replace_array("replay/frames/ram", (50, 128)),
    "frames_narrow": _replace_array("replay/frames/ram", (51, 64)),
    "frames_whole_ring": _replace_array("replay/frames/ram", (504, 128)),
    "flags_broadcastable": _replace_array("replay/start", (1,)),
    "acc_broadcastable": _replace_array("acc/1/W", (1,)),
}


@pytest.fixture(scope="module")
def resumable_checkpoint(tmp_path_factory):
    state = TrainingState(small_config())
    state.warmup()
    run_training_epoch(state, 30)
    path = tmp_path_factory.mktemp("resume") / "r.ckpt"
    checkpoint_save(state, path, include_replay=True)
    return path


def test_restore_accepts_unedited_checkpoint(resumable_checkpoint):
    restored = restore_training_state(checkpoint_load(resumable_checkpoint))
    assert restored.replay.pushes == 50 and restored.global_step == 30


@pytest.mark.parametrize("case", sorted(BAD_RESUME_EDITS))
def test_restore_rejects_bad_resume_entries(resumable_checkpoint, case):
    ckpt = checkpoint_load(resumable_checkpoint)
    BAD_RESUME_EDITS[case](ckpt)
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
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


def test_nonfinite_loss_names_epoch_and_layer():
    state = TrainingState(small_config())
    state.warmup()
    run_training_epoch(state, 5)
    state.net.params[1]["W"][0, 0] = np.nan
    with pytest.raises(TrainingError, match=r"epoch 2: training loss is nan; "
                                            r"layer 1 \(dense\) has a non-finite W"):
        run_training_epoch(state, 5)


@pytest.mark.parametrize("env_name, arch", [("micro_catch", "just_ram"),
                                            ("micro_catch", "nips"),
                                            ("micro_diver", "big_mixed_ram")])
def test_acting_state_is_the_phi_window_of_the_same_observations(monkeypatch, env_name, arch):
    # Training acts from the replay ring's newest slots.  A 30-transition
    # ring wraps several times in 200 steps, across episode ends; at every
    # action the state must equal what a PhiBuffer and scale_ram build.
    phi, expected, seen = PhiBuffer(small_hyper().phi_length), [], []

    def reference(obs, fresh):
        want = {"ram": scale_ram(obs["ram"])} if "ram" in obs else {}
        if "screen" in obs:
            if fresh:
                phi.reset(obs["screen"])
            want["screen"] = phi.stack() if fresh else phi.observe(obs["screen"])
        expected[:] = [want]

    real_begin, real_step = harness.EpisodePipeline.begin, harness.EpisodePipeline.step

    def begin(self):
        obs = real_begin(self)
        reference(obs, fresh=True)
        return obs

    def step(self, action):
        reward, terminal, obs = real_step(self, action)
        reference(obs, fresh=terminal)  # after a terminal step: the next episode's first
        seen.append(terminal)
        return reward, terminal, obs

    def select_action(net, inputs, *args):
        inputs = inputs()  # training passes the ring's latest_state, built on demand
        assert inputs.keys() == expected[0].keys()
        for key, want in expected[0].items():
            assert inputs[key].dtype == np.float32 and inputs[key].shape == want.shape
            assert inputs[key].tobytes() == want.tobytes(), (len(seen), key)
        return real_select(net, inputs, *args)

    real_select = harness.select_action
    monkeypatch.setattr(harness.EpisodePipeline, "begin", begin)
    monkeypatch.setattr(harness.EpisodePipeline, "step", step)
    monkeypatch.setattr(harness, "select_action", select_action)
    state = TrainingState(small_config(env_name=env_name, arch=arch,
                                       hyper=small_hyper(replay_capacity=30)))
    run_training_epoch(state, 200)
    assert state.replay.pushes == 220 and sum(seen) >= 2


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
    monkeypatch.setattr(game, "ram", counted("ram", game.ram))
    monkeypatch.setattr(game, "_render", counted("screen", game._render))
    hyper = small_hyper(frame_skip=4)
    env = make_env(env_name)
    net = harness.build_network(arch, env, hyper, np.random.default_rng(0))
    episode = harness.EpisodePipeline(env, net.input_streams, hyper, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    episode.begin()
    for _ in range(300):
        _, terminal, obs = episode.step(int(rng.integers(env.action_count)))
        assert sorted(obs) == sorted(built)
    assert calls["frames"] > 2 * 300  # most actions passed over frames
    assert calls["ram"] == (1 + 300 if "ram" in built else 0)
    assert calls["screen"] == (1 + 300 if "screen" in built else 0)


@pytest.mark.parametrize("env_name", sorted(ENV_REGISTRY))
def test_pipeline_steps_into_the_next_episode(monkeypatch, env_name):
    # One observation per action, also across episode ends: a terminal step
    # resets the game, and its observation is the one a new pipeline on the
    # same seed stream begins with.  The terminal frame is never built.
    observed = []
    real_observe = MicroGame.observe

    def observe(self, streams):
        observed.append(streams)
        return real_observe(self, streams)

    monkeypatch.setattr(MicroGame, "observe", observe)
    hyper = small_hyper()
    streams = ("ram", "screen")
    episode = harness.EpisodePipeline(make_env(env_name), streams, hyper,
                                      np.random.default_rng(5))
    rng = np.random.default_rng(6)
    episode.begin()
    ends = 0
    for _ in range(400):
        seeds, calls = copy.deepcopy(episode.seed_rng), len(observed)
        _, terminal, obs = episode.step(int(rng.integers(episode.env.action_count)))
        assert len(observed) == calls + 1
        if terminal:
            ends += 1
            twin = harness.EpisodePipeline(make_env(env_name), streams, hyper, seeds)
            first = twin.begin()
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
        "replay/action": "int32", "replay/reward": "float64", "replay/terminal": "bool",
        "replay/start": "bool", "replay/frames/ram": "uint8"}
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
