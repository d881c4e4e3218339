import dataclasses
import json
import os
import signal
import struct

import numpy as np
import pytest

from ramdqn import harness, tensor_core
from ramdqn import cli
from ramdqn.cli import build_parser, main, write_weight_heatmap
from ramdqn.harness import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    TrainingState,
    checkpoint_load,
    checkpoint_save,
    network_from_checkpoint,
)
from ramdqn.agents import HyperParams
from ramdqn.harness import ExperimentConfig


TRAIN_FLAGS = ["--epochs", "2", "--seed", "11", "--frame-skip", "1",
               "--steps-per-epoch", "60", "--replay-capacity", "300",
               "--test-steps", "120"]


def run_train(tmp_path, sub="run", extra=()):
    out = tmp_path / sub
    rc = main(["train", "--env", "micro_catch", "--arch", "just_ram",
               "--out", str(out), *TRAIN_FLAGS, *extra])
    return rc, out


def test_train_writes_csv_rows(tmp_path, capsys):
    rc, out = run_train(tmp_path)
    assert rc == 0
    lines = (out / "curve.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header + 2 epochs
    assert "best epoch" in capsys.readouterr().out


def test_train_progress_flags_a_truncated_test_period(tmp_path, capsys):
    # Three test actions end no episode of micro_breakout, so the epoch's
    # score is the one unfinished episode's, as eval flags it too.
    out = tmp_path / "run"
    assert main(["train", "--env", "micro_breakout", "--arch", "just_ram", "--out", str(out),
                 "--epochs", "1", "--steps-per-epoch", "20", "--test-steps", "3",
                 "--frame-skip", "1", "--seed", "3"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("epoch 1: avg_score=0.000 episodes=1 ")
    assert err.endswith(" (truncated)\n")
    assert main(["eval", "--checkpoint", str(out / "last.ckpt"), "--steps", "3"]) == 0
    assert capsys.readouterr().out.endswith(" (truncated)\n")
    run_train(tmp_path)  # its test periods end episodes
    assert "truncated" not in capsys.readouterr().err


def test_train_nonfinite_loss_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "train_step", lambda *args: float("nan"))
    rc, out = run_train(tmp_path)
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: epoch 1: training loss is nan; every parameter is finite")
    assert not (out / "curve.csv").exists()


def test_train_nonfinite_test_score_exit_1(tmp_path, capsys, monkeypatch):
    real = harness.run_test_period

    def nan_score(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), avg_score=float("nan"))

    monkeypatch.setattr(harness, "run_test_period", nan_score)
    rc, out = run_train(tmp_path)
    assert rc == 1
    assert capsys.readouterr().err == "error: epoch 1: test score is nan\n"
    assert not (out / "curve.csv").exists()


@pytest.mark.parametrize("signum, code", [(signal.SIGINT, 130), (signal.SIGTERM, 143)])
def test_train_interrupted_in_epoch_2(tmp_path, capsys, monkeypatch, signum, code):
    _, full = run_train(tmp_path, sub="full", extra=("--epochs", "3"))
    capsys.readouterr()
    real, calls = harness.run_training_epoch, []
    default_sigterm = signal.getsignal(signal.SIGTERM)

    def interrupt_second_epoch(state, steps):
        calls.append(steps)
        if len(calls) == 2:
            if signum == signal.SIGINT:
                raise KeyboardInterrupt  # what Python's own SIGINT handler raises
            # Unhandled, SIGTERM would end the test run itself.
            assert signal.getsignal(signal.SIGTERM) is not default_sigterm
            signal.raise_signal(signum)
        return real(state, steps)

    monkeypatch.setattr(harness, "run_training_epoch", interrupt_second_epoch)
    rc, out = run_train(tmp_path, extra=("--epochs", "3"))
    assert rc == code
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("interrupted:")] == [
        "interrupted: last completed epoch 1 of 3"]
    assert "Traceback" not in err
    assert signal.getsignal(signal.SIGTERM) is default_sigterm
    ckpt = checkpoint_load(out / "last.ckpt")
    assert ckpt["header"]["counters"]["epochs_done"] == 1
    network_from_checkpoint(ckpt)
    # The curve holds the completed epoch's row, as the uninterrupted run wrote it.
    lines = (full / "curve.csv").read_bytes().splitlines(keepends=True)
    assert (out / "curve.csv").read_bytes() == b"".join(lines[:2])


def test_train_interrupted_after_last_ckpt_names_its_epoch(tmp_path, capsys, monkeypatch):
    # Ctrl-C after epoch 2's last.ckpt is renamed into place, before best.ckpt
    # and the epoch's progress line: the message names the epoch last.ckpt holds.
    real, saved = harness.checkpoint_save, []

    def save_then_interrupt(state, path, *args, **kwargs):
        real(state, path, *args, **kwargs)
        saved.append(os.path.basename(path))
        if saved.count("last.ckpt") == 2 and saved[-1] == "last.ckpt":
            raise KeyboardInterrupt

    monkeypatch.setattr(harness, "checkpoint_save", save_then_interrupt)
    rc, out = run_train(tmp_path, extra=("--epochs", "3"))
    assert rc == 130
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("interrupted:")] == [
        "interrupted: last completed epoch 2 of 3"]
    assert checkpoint_load(out / "last.ckpt")["header"]["counters"]["epochs_done"] == 2

    # A last.ckpt left by an earlier run is not taken for this run's epoch.
    def interrupt(state, steps):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "run_training_epoch", interrupt)
    assert run_train(tmp_path, extra=("--epochs", "3"))[0] == 130
    assert "interrupted: last completed epoch 0 of 3" in capsys.readouterr().err


def test_train_interrupted_in_epoch_1_counts_no_earlier_runs_checkpoint(tmp_path, capsys,
                                                                        monkeypatch):
    # --out holds the last.ckpt of a finished 1-epoch run; the second run into
    # it has completed no epoch of its own when it is interrupted.
    assert run_train(tmp_path, extra=("--epochs", "1"))[0] == 0

    def interrupt(state, steps):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "run_training_epoch", interrupt)
    capsys.readouterr()
    assert run_train(tmp_path, extra=("--epochs", "3"))[0] == 130
    assert [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("interrupted:")] == ["interrupted: last completed epoch 0 of 3"]


def test_unwritable_output_exit_1(tmp_path, capsys):
    # train cannot rename its curve over a directory; visualize cannot write
    # into a directory that does not exist.
    (tmp_path / "run" / "curve.csv").mkdir(parents=True)
    assert run_train(tmp_path)[0] == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    heatmap = tmp_path / "missing" / "w.ppm"
    assert main(["visualize", "--checkpoint", str(tmp_path / "run" / "last.ckpt"),
                 "--out", str(heatmap)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(os.listdir(tmp_path / "run")) == ["best.ckpt", "curve.csv", "last.ckpt"]


def test_train_unknown_env_exit_2(tmp_path, capsys):
    rc = main(["train", "--env", "nope", "--arch", "just_ram",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown environment 'nope'\n"


def test_train_unknown_arch_exit_2(tmp_path, capsys):
    rc = main(["train", "--env", "micro_catch", "--arch", "giant_ram",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown architecture 'giant_ram'\n"


@pytest.mark.parametrize("flags", [
    ["--frame-skip", "0"],
    ["--replay-capacity", "10"],
    ["--learning-rate", "0"],
    ["--dropout", "1.0"],
    ["--epochs", "0"],
    ["--seed", "-1"],
    ["--learning-rate", "inf"],
    ["--out", ""],  # run_experiment needs a directory to write
    ["--discount", "1.0"],
    ["--epsilon-start", "0.2", "--epsilon-min", "0.5"],
    ["--phi-length", "0"],
    ["--minibatch-size", "0"],
    ["--replay-start-size", "-1"],
    ["--test-epsilon", "1.5"],
    ["--epsilon-decay-steps", "0"],
])
def test_train_invalid_settings_exit_2(tmp_path, capsys, flags):
    rc = main(["train", "--env", "micro_catch", "--arch", "just_ram",
               "--out", str(tmp_path / "x"), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("arch, flag", [("just_ram", "--replay-capacity"),
                                        ("just_ram", "--phi-length"),
                                        ("nips", "--phi-length")])
def test_train_too_large_to_allocate_exit_1(tmp_path, capsys, arch, flag):
    # numpy refuses 10**18 replay slots, or conv input channels, before it
    # allocates anything.
    rc = main(["train", "--env", "micro_catch", "--arch", arch,
               "--out", str(tmp_path / "x"), flag, str(10**18)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{flag[2:].replace('-', '_')} {10**18}" in err
    assert not (tmp_path / "x").exists()


def test_train_flags_default_to_hyperparams():
    args = build_parser().parse_args(["train", "--env", "micro_catch", "--arch", "just_ram"])
    for f in dataclasses.fields(HyperParams):
        assert getattr(args, f.name) == f.default, f.name


def test_train_flags_reach_checkpoint(tmp_path):
    rc, out = run_train(tmp_path, extra=("--discount", "0.9", "--epsilon-decay-steps", "100",
                                         "--replay-start-size", "20", "--minibatch-size", "8"))
    assert rc == 0
    hyper = checkpoint_load(out / "last.ckpt")["header"]["hyper"]
    assert (hyper["discount"], hyper["epsilon_decay_steps"], hyper["replay_start_size"],
            hyper["minibatch_size"]) == (0.9, 100, 20, 8)


def test_train_checkpoint_write_failure_exit_1(tmp_path, capsys):
    (tmp_path / "run" / "last.ckpt").mkdir(parents=True)
    rc, _ = run_train(tmp_path)
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_train_determinism_byte_identical(tmp_path):
    _, out1 = run_train(tmp_path, "a")
    _, out2 = run_train(tmp_path, "b")
    assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()
    assert (out1 / "last.ckpt").read_bytes() == (out2 / "last.ckpt").read_bytes()
    assert (out1 / "best.ckpt").read_bytes() == (out2 / "best.ckpt").read_bytes()


def test_eval_checkpoint(tmp_path, capsys):
    _, out = run_train(tmp_path)
    capsys.readouterr()  # discard the training summary
    rc = main(["eval", "--checkpoint", str(out / "best.ckpt"),
               "--steps", "200", "--seed", "5"])
    assert rc == 0
    text1 = capsys.readouterr().out
    assert "avg_score=" in text1
    rc = main(["eval", "--checkpoint", str(out / "best.ckpt"),
               "--steps", "200", "--seed", "5"])
    assert rc == 0
    assert capsys.readouterr().out == text1


def test_eval_default_epsilon_is_005(tmp_path, capsys):
    _, out = run_train(tmp_path)
    main(["eval", "--checkpoint", str(out / "best.ckpt"), "--steps", "50"])
    assert "epsilon=0.05" in capsys.readouterr().out


def test_eval_carries_steps_and_epsilon_into_the_test_period(tmp_path, capsys):
    _, out = run_train(tmp_path)
    capsys.readouterr()  # discard the training summary
    path = str(out / "best.ckpt")
    assert main(["eval", "--checkpoint", path, "--steps", "37", "--epsilon", "1.0",
                 "--seed", "6"]) == 0
    net, config = network_from_checkpoint(checkpoint_load(path))
    hyper = config.hyper
    report, at_own_epsilon = (harness.run_test_period(
        net, config.env_name, dataclasses.replace(hyper, test_steps=37, test_epsilon=epsilon),
        seed=6) for epsilon in (1.0, hyper.test_epsilon))
    assert capsys.readouterr().out == (f"avg_score={report.avg_score:.6f} "
                                       f"episodes={report.episodes} steps=37 epsilon=1.0\n")
    # At this seed the epsilon changes the play, so the line shows which one was used.
    assert (report.avg_score, report.episodes) != (at_own_epsilon.avg_score,
                                                   at_own_epsilon.episodes)


def test_eval_corrupt_checkpoint_exit_1(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    assert main(["eval", "--checkpoint", str(bad)]) == 1


@pytest.mark.parametrize("flags", [
    ["--epsilon", "2"],
    ["--epsilon", "-0.1"],
    ["--epsilon", "nan"],
    ["--steps", "0"],
    ["--steps", "-5"],
])
def test_eval_invalid_settings_exit_2(tmp_path, capsys, flags):
    # Checked before the checkpoint is read: a missing file would be exit 1.
    rc = main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"), *flags])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_eval_negative_seed_exit_2(tmp_path, capsys):
    # Checked before the checkpoint is read: a missing file would be exit 1.
    rc = main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"), "--seed", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --seed must not be negative, got -1\n"


def test_eval_rejects_env_option(tmp_path):
    # A checkpoint's output layer fits only the game it was trained on.
    _, out = run_train(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", str(out / "best.ckpt"), "--env", "micro_diver"])
    assert exc.value.code == 2


def rewrite_header(path, edit):
    """Apply `edit` to a checkpoint's JSON header, keeping the array data."""
    data = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    (hlen,) = struct.unpack("<Q", data[start - 8:start])
    header = json.loads(data[start:start + hlen])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob
                     + data[start + hlen:])


def set_key(key, value):
    return lambda h: h.__setitem__(key, value)


BAD_HEADERS = {
    "no_arrays": lambda h: h.pop("arrays"),
    "arrays_not_list": set_key("arrays", {}),
    "entry_without_name": lambda h: h["arrays"][0].pop("name"),
    "entry_without_shape": lambda h: h["arrays"][0].pop("shape"),
    "unknown_arch": set_key("arch", "nope"),
    "no_arch": lambda h: h.pop("arch"),
    "other_arch": set_key("arch", "big_ram"),
    "unknown_env": set_key("env", "nope"),
    "other_env": set_key("env", "micro_diver"),
    "invalid_hyper": lambda h: h["hyper"].__setitem__("frame_skip", 0),
    "start_size_negative": lambda h: h["hyper"].__setitem__("replay_start_size", -5),
    "start_size_float": lambda h: h["hyper"].__setitem__("replay_start_size", 2.5),
    "start_size_bool": lambda h: h["hyper"].__setitem__("replay_start_size", True),
    "learning_rate_huge_int": lambda h: h["hyper"].__setitem__("learning_rate", 10**400),
    "test_epsilon_bool": lambda h: h["hyper"].__setitem__("test_epsilon", True),
    "unknown_hyper": lambda h: h["hyper"].__setitem__("momentum", 0.9),
    "hyper_field_missing": lambda h: h["hyper"].pop("learning_rate"),  # was its default
    "hyper_not_dict": set_key("hyper", [1, 2]),
    "unknown_dtype": set_key("dtype", "nope"),
    "int_dtype": set_key("dtype", "int32"),
    "other_float_dtype": set_key("dtype", "float64"),  # the arrays are float32
    "negative_seed": set_key("seed", -1),
}


def small_state():
    hyper = HyperParams(frame_skip=1, replay_capacity=200, replay_start_size=20,
                        minibatch_size=8, steps_per_epoch=10, test_steps=10)
    return TrainingState(ExperimentConfig("micro_catch", "just_ram", hyper=hyper))


def command_args(command, tmp_path):
    return ["--steps", "10"] if command == "eval" else ["--out", str(tmp_path / "x.ppm")]


@pytest.mark.parametrize("command", ["eval", "visualize"])
@pytest.mark.parametrize("case", sorted(BAD_HEADERS))
def test_bad_checkpoint_header_exit_1(tmp_path, capsys, command, case):
    path = tmp_path / "bad.ckpt"
    checkpoint_save(small_state(), path)
    rewrite_header(path, BAD_HEADERS[case])
    rc = main([command, "--checkpoint", str(path), *command_args(command, tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: corrupt checkpoint")


def write_checkpoint(path, header, arrays):
    """A checkpoint file of `header` and `arrays`, each array in its own dtype."""
    entries = [{"name": n, "shape": list(a.shape), "dtype": a.dtype.str} for n, a in arrays.items()]
    blob = json.dumps(dict(header, arrays=entries)).encode()
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob
                     + b"".join(struct.pack("<Q", a.size) + a.tobytes() for a in arrays.values()))


@pytest.mark.parametrize("command", ["eval", "visualize"])
@pytest.mark.parametrize("dtype", ["|u1", "|b1", "<f8", "<i4"])
def test_parameters_of_another_dtype_exit_1(tmp_path, capsys, command, dtype):
    # A float32 network's weights saved as bytes of 7 would load as 7.0.
    path = tmp_path / "cast.ckpt"
    checkpoint_save(small_state(), path)
    ckpt = checkpoint_load(path)
    write_checkpoint(path, ckpt["header"], ckpt["arrays"])
    assert main([command, "--checkpoint", str(path), *command_args(command, tmp_path)]) == 0
    arrays = dict(ckpt["arrays"])
    arrays["param/1/W"] = np.full(arrays["param/1/W"].shape, 7, dtype)
    write_checkpoint(path, ckpt["header"], arrays)
    capsys.readouterr()
    rc = main([command, "--checkpoint", str(path), *command_args(command, tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error: corrupt checkpoint: ShapeError: checkpoint array param/1/W is {np.dtype(dtype)}")


@pytest.mark.parametrize("command", ["eval", "visualize"])
def test_stray_parameter_array_exit_1(tmp_path, capsys, command):
    # A parameter the network does not have is refused, as a missing one is.
    path = tmp_path / "stray.ckpt"
    checkpoint_save(small_state(), path)
    ckpt = checkpoint_load(path)
    write_checkpoint(path, ckpt["header"], dict(ckpt["arrays"], **{
        "param/9/W": np.zeros((2, 2), np.float32)}))
    rc = main([command, "--checkpoint", str(path), *command_args(command, tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: corrupt checkpoint: ShapeError: checkpoint array param/9/W is not expected")


def set_first_array(path, shape, count):
    """Give the first array `shape` in the header and `count` in its
    element-count prefix, so that the two still agree."""
    rewrite_header(path, lambda h: h["arrays"][0].__setitem__("shape", shape))
    data = bytearray(path.read_bytes())
    start = len(CHECKPOINT_MAGIC) + 8
    (hlen,) = struct.unpack("<Q", data[start - 8:start])
    data[start + hlen:start + hlen + 8] = struct.pack("<Q", count)
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("command", ["eval", "visualize"])
def test_crafted_array_size_exit_1(tmp_path, capsys, command):
    # 2**61 elements: more than the file holds.  2**32 x 2**32 with a count
    # of 0: a 64-bit product of the shape wraps around to 0.  -2 x -3: a
    # product that fits the data but no array shape.
    state = small_state()
    for shape, count in (([2**61], 2**61), ([2**32, 2**32], 0), ([-2, -3], 6)):
        path = tmp_path / "crafted.ckpt"
        checkpoint_save(state, path)
        set_first_array(path, shape, count)
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            checkpoint_load(path)
        rc = main([command, "--checkpoint", str(path), *command_args(command, tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: corrupt checkpoint")


def test_eval_huge_phi_length_exit_1(tmp_path, capsys):
    # A nips network over 10**12 frames would need petabytes.
    hyper = HyperParams(frame_skip=1, replay_capacity=200, replay_start_size=20)
    path = tmp_path / "nips.ckpt"
    checkpoint_save(TrainingState(ExperimentConfig("micro_catch", "nips", hyper=hyper)), path)
    rewrite_header(path, lambda h: h["hyper"].__setitem__("phi_length", 10**12))
    rc = main(["eval", "--checkpoint", str(path), "--steps", "10"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: corrupt checkpoint: MemoryError")


@pytest.mark.parametrize("command, target", [("eval", "run_test_period"),
                                             ("visualize", "write_weight_heatmap"),
                                             ("gradcheck", "gradcheck_architecture")])
def test_interrupted_command_exit_130(tmp_path, capsys, monkeypatch, command, target):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt  # what Python's own SIGINT handler raises

    monkeypatch.setattr(cli, target, interrupt)
    path = tmp_path / "small.ckpt"
    checkpoint_save(small_state(), path)
    argv = ["gradcheck"] if command == "gradcheck" else [
        command, "--checkpoint", str(path), *command_args(command, tmp_path)]
    assert main(argv) == 130
    assert capsys.readouterr().err == "interrupted\n"


def test_eval_large_step_override(tmp_path, capsys):
    _, out = run_train(tmp_path)
    rc = main(["eval", "--checkpoint", str(out / "last.ckpt"),
               "--steps", "1000", "--seed", "2"])
    assert rc == 0
    assert "steps=1000" in capsys.readouterr().out


def read_ppm(path):
    data = path.read_bytes()
    assert data.startswith(b"P6\n")
    header, rest = data.split(b"255\n", 1)
    dims = header.split(b"\n")[1].split()
    cols, rows = int(dims[0]), int(dims[1])
    pixels = np.frombuffer(rest, dtype=np.uint8).reshape(rows, cols, 3)
    return pixels


def test_heatmap_all_zero_weights(tmp_path):
    path = tmp_path / "z.ppm"
    write_weight_heatmap(np.zeros((128, 128)), path)
    pixels = read_ppm(path)
    assert pixels.shape == (128, 128, 3)
    assert not pixels.any()


def test_heatmap_single_positive_weight_pure_red(tmp_path):
    w = np.zeros((16, 16))
    w[9, 5] = 2.5  # node 9, cell 5
    path = tmp_path / "r.ppm"
    write_weight_heatmap(w, path)
    pixels = read_ppm(path)
    assert tuple(pixels[5, 9]) == (255, 0, 0)  # row = cell, col = node
    assert pixels.sum() == 255


def test_heatmap_negation_swaps_channels(tmp_path):
    rng = np.random.default_rng(8)
    w = rng.standard_normal((32, 32))
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_weight_heatmap(w, p1)
    write_weight_heatmap(-w, p2)
    a, b = read_ppm(p1), read_ppm(p2)
    np.testing.assert_array_equal(a[..., 0], b[..., 2])
    np.testing.assert_array_equal(a[..., 2], b[..., 0])
    assert not a[..., 1].any() and not b[..., 1].any()


def test_visualize_command(tmp_path):
    _, out = run_train(tmp_path)
    img = tmp_path / "weights.ppm"
    rc = main(["visualize", "--checkpoint", str(out / "best.ckpt"),
               "--out", str(img)])
    assert rc == 0
    pixels = read_ppm(img)
    assert pixels.shape == (128, 128, 3)


def test_visualize_rejects_conv_first(tmp_path, capsys):
    hyper = HyperParams(frame_skip=1, replay_capacity=200, replay_start_size=20,
                        minibatch_size=8, steps_per_epoch=10, test_steps=10)
    config = ExperimentConfig("micro_catch", "nips", hyper=hyper, seed=0)
    state = TrainingState(config)
    path = tmp_path / "conv.ckpt"
    checkpoint_save(state, path)
    rc = main(["visualize", "--checkpoint", str(path),
               "--out", str(tmp_path / "x.ppm")])
    assert rc == 1
    assert "RAM input" in capsys.readouterr().err


def test_gradcheck_single_arch(capsys):
    rc = main(["gradcheck", "--arch", "just_ram", "--seed", "1"])
    assert rc == 0
    assert "just_ram" in capsys.readouterr().out


def test_gradcheck_unknown_arch():
    assert main(["gradcheck", "--arch", "mega_ram"]) == 2


def test_gradcheck_nan_backward_exit_1(monkeypatch, capsys):
    real = tensor_core.backward

    def nan_backward(*args):
        return [None if g is None else {k: np.full_like(v, np.nan) for k, v in g.items()}
                for g in real(*args)]

    monkeypatch.setattr(tensor_core, "backward", nan_backward)
    rc = main(["gradcheck", "--arch", "just_ram"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "just_ram: max relative error nan" in captured.out
    assert captured.err.startswith("FAIL:")


@pytest.mark.parametrize("tolerance", ["nan", "0", "-0.5"])
def test_gradcheck_bad_tolerance_exit_2(capsys, tolerance):
    assert main(["gradcheck", "--arch", "just_ram", "--tolerance", tolerance]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_gradcheck_negative_seed_exit_2(capsys):
    assert main(["gradcheck", "--arch", "just_ram", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must not be negative, got -1\n"


def test_gradcheck_deterministic(capsys):
    main(["gradcheck", "--arch", "big_ram", "--seed", "4"])
    first = capsys.readouterr().out
    main(["gradcheck", "--arch", "big_ram", "--seed", "4"])
    assert capsys.readouterr().out == first
