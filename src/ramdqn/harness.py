"""Experiment orchestration: epochs interleaved with test periods, curve CSV,
checkpoints, and best-epoch selection."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .agents import (
    HyperParams,
    build_architecture,
    epsilon_at,
    select_action,
    train_step,
)
from .envs import PhiBuffer, frame_skip_step, make_env, scale_ram
from .optim import rmsprop_state_for
from .replay import ReplayMemory
from .tensor_core import ShapeError

CHECKPOINT_MAGIC = b"RAMDQN1\n"


class CheckpointError(RuntimeError):
    pass


class TrainingError(RuntimeError):
    """Training went wrong, e.g. the loss stopped being finite."""


@dataclass
class EpochReport:
    epoch: int
    avg_score: float
    episodes: int
    steps: int
    mean_loss: float
    truncated: bool = False


@dataclass
class ExperimentConfig:
    env_name: str
    arch: str
    hyper: HyperParams = field(default_factory=HyperParams)
    epochs: int = 1
    seed: int = 0
    out_dir: str = ""

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be positive")


def build_network(arch, env, hyper, rng, dtype=np.float32):
    """The `arch` network for `env`'s screen and action set under `hyper`."""
    return build_architecture(arch, output_dim=env.action_count,
                              screen_shape=env.screen_shape,
                              phi_length=hyper.phi_length,
                              dropout_p=hyper.dropout_p, rng=rng, dtype=dtype)


class EpisodePipeline:
    """Turns a game into network inputs: the env, the phi window over its
    screens, the frame skip, and the rng that seeds each episode's reset.
    `streams` names the inputs to build ("ram", "screen").  `raw` holds the
    bytes of the latest observation of each of those streams."""

    def __init__(self, env, streams, hyper, seed_rng):
        self.env = env
        self.ram = "ram" in streams
        self.phi = PhiBuffer(hyper.phi_length) if "screen" in streams else None
        self.frame_skip = hyper.frame_skip
        self.seed_rng = seed_rng
        self.raw = {}

    def begin(self):
        """Reset the game; the first inputs of the new episode."""
        obs = self.env.reset(int(self.seed_rng.integers(2**63)))
        if self.phi is not None:
            self.phi.reset(obs.screen)
        return self._inputs(obs, fresh=True)

    def step(self, action):
        """Play `action` for one frame-skip step: (reward, terminal, inputs)."""
        result = frame_skip_step(self.env, action, self.frame_skip)
        return result.reward, result.terminal, self._inputs(result.observation)

    def _inputs(self, obs, fresh=False):
        inputs, self.raw = {}, {}
        if self.ram:
            self.raw["ram"] = obs.ram
            inputs["ram"] = scale_ram(obs.ram)
        if self.phi is not None:
            self.raw["screen"] = obs.screen
            inputs["screen"] = self.phi.stack() if fresh else self.phi.observe(obs.screen)
        return inputs


class TrainingState:
    """Everything one experiment mutates: env, net, replay, optimizer, rngs."""

    def __init__(self, config):
        self.config = config
        self.hyper = config.hyper

        ss = np.random.SeedSequence(config.seed)
        init_ss, explore_ss, dropout_ss, sample_ss, env_ss = ss.spawn(5)
        self.explore_rng = np.random.default_rng(explore_ss)
        self.dropout_rng = np.random.default_rng(dropout_ss)
        self.sample_rng = np.random.default_rng(sample_ss)

        env = make_env(config.env_name)
        self.net = build_network(config.arch, env, self.hyper, np.random.default_rng(init_ss))
        self.episode = EpisodePipeline(env, self.net.input_streams, self.hyper,
                                       np.random.default_rng(env_ss))
        self.opt_state = rmsprop_state_for(self.net, learning_rate=self.hyper.learning_rate)
        self.global_step = 0
        self.epochs_done = 0
        self.warmed = False
        self.current_inputs = self.episode.begin()
        self.replay = ReplayMemory(self.hyper.replay_capacity,
                                   streams={k: v.shape for k, v in self.episode.raw.items()},
                                   phi_length=self.hyper.phi_length)
        self.replay.start_episode(self.episode.raw)

    def _take_action(self, action):
        reward, terminal, next_inputs = self.episode.step(action)
        self.replay.push(action, reward, terminal, self.episode.raw)
        if terminal:
            self.current_inputs = self.episode.begin()
            self.replay.start_episode(self.episode.raw)
        else:
            self.current_inputs = next_inputs

    def warmup(self):
        """Populate the replay memory with random-action transitions."""
        if self.warmed:
            return
        for _ in range(self.hyper.replay_start_size):
            action = int(self.explore_rng.integers(self.episode.env.action_count))
            self._take_action(action)
        self.warmed = True


def _first_nonfinite_layer(net):
    for i, p in enumerate(net.params):
        for key in sorted(p or {}):
            if not np.isfinite(p[key]).all():
                return f"layer {i} ({net.layers[i].kind}) has a non-finite {key}"
    return "every parameter is finite"


def run_training_epoch(state, steps):
    """Run `steps` frame-skip actions with annealing epsilon, training after
    every action once the replay memory is warm; returns the mean loss.
    A non-finite loss raises TrainingError naming the epoch and the first
    layer with a non-finite parameter."""
    state.warmup()
    hyper = state.hyper
    losses = []
    for _ in range(steps):
        eps = epsilon_at(hyper, state.global_step)
        action = select_action(state.net, state.current_inputs, eps,
                               state.explore_rng, state.episode.env.action_count)
        state._take_action(action)
        state.global_step += 1
        if len(state.replay) >= max(hyper.replay_start_size, hyper.minibatch_size):
            loss = train_step(state.net, state.replay, state.opt_state,
                              hyper, state.sample_rng, state.dropout_rng)
            if not math.isfinite(loss):
                raise TrainingError(f"epoch {state.epochs_done + 1}: training loss is "
                                    f"{loss}; {_first_nonfinite_layer(state.net)}")
            losses.append(loss)
    state.epochs_done += 1
    return float(np.mean(losses)) if losses else 0.0


def run_test_period(net, env_name, hyper, seed, epoch=0, mean_loss=0.0,
                    steps=None, epsilon=None):
    """Frozen-policy evaluation: no learning, no replay writes.

    Reports the average score over completed episodes; if the budget ends
    before any episode completes, the single truncated episode is reported
    and flagged.
    """
    steps = hyper.test_steps if steps is None else steps
    epsilon = hyper.test_epsilon if epsilon is None else epsilon
    policy_ss, env_ss = np.random.SeedSequence(seed).spawn(2)
    policy_rng = np.random.default_rng(policy_ss)
    episode = EpisodePipeline(make_env(env_name), net.input_streams, hyper,
                              np.random.default_rng(env_ss))

    inputs = episode.begin()
    episode_scores = []
    current = 0.0
    for _ in range(steps):
        action = select_action(net, inputs, epsilon, policy_rng, episode.env.action_count)
        reward, terminal, inputs = episode.step(action)
        current += reward
        if terminal:
            episode_scores.append(current)
            current = 0.0
            inputs = episode.begin()

    if episode_scores:
        avg = sum(episode_scores) / len(episode_scores)
        return EpochReport(epoch=epoch, avg_score=avg, episodes=len(episode_scores),
                           steps=steps, mean_loss=mean_loss)
    return EpochReport(epoch=epoch, avg_score=current, episodes=1, steps=steps,
                       mean_loss=mean_loss, truncated=True)


def write_curve_csv(path, reports):
    lines = ["epoch,avg_score,episodes,steps,mean_loss"]
    for r in reports:
        lines.append(f"{r.epoch},{r.avg_score:.6f},{r.episodes},{r.steps},{r.mean_loss:.6f}")
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def best_epoch(reports):
    """1-based index of the highest average score; ties go to the earliest."""
    best = 0
    for i, r in enumerate(reports):
        if r.avg_score > reports[best].avg_score:
            best = i
    return reports[best].epoch


def run_experiment(config, progress=None):
    """Full protocol: epochs x (train epoch, test period), CSV + checkpoints.

    Returns (reports, best_epoch_index).  A non-finite test score raises
    TrainingError before the epoch's checkpoints and the CSV are written.
    """
    state = TrainingState(config)
    state.warmup()
    out = config.out_dir
    if out:
        os.makedirs(out, exist_ok=True)
    reports = []
    best_score = None
    for epoch in range(1, config.epochs + 1):
        mean_loss = run_training_epoch(state, config.hyper.steps_per_epoch)
        test_seed = int(np.random.SeedSequence((config.seed, 7781, epoch)).generate_state(1)[0])
        report = run_test_period(state.net, config.env_name, config.hyper,
                                 seed=test_seed, epoch=epoch, mean_loss=mean_loss)
        if not math.isfinite(report.avg_score):  # a NaN would freeze best-epoch selection
            raise TrainingError(f"epoch {epoch}: test score is {report.avg_score}")
        reports.append(report)
        if out:
            checkpoint_save(state, os.path.join(out, "last.ckpt"))
            if best_score is None or report.avg_score > best_score:
                best_score = report.avg_score
                checkpoint_save(state, os.path.join(out, "best.ckpt"))
        if progress is not None:
            progress(report)
    if out:
        write_curve_csv(os.path.join(out, "curve.csv"), reports)
    return reports, best_epoch(reports)


# ---------------------------------------------------------------------------
# Checkpoints: magic, length-prefixed JSON header, then element-count-prefixed
# arrays in the order listed by the header: little-endian float64, or bytes
# for uint8 and bool arrays (entries with "dtype": "u1").

def _stored_dtype(arr):
    return "u1" if arr.dtype in (np.uint8, np.bool_) else "<f8"


def _array_entry(name, shape, data):
    entry = {"name": name, "shape": shape}
    if _stored_dtype(data) == "u1":
        entry["dtype"] = "u1"
    return entry


def _write_array(f, arr):
    arr = np.asarray(arr)
    a = np.ascontiguousarray(arr, dtype=_stored_dtype(arr)).reshape(-1)
    f.write(struct.pack("<Q", a.size))
    f.write(a.tobytes())


def _read_array(f, shape, dtype):
    raw = f.read(8)
    if len(raw) != 8:
        raise CheckpointError("corrupt checkpoint: truncated array header")
    (count,) = struct.unpack("<Q", raw)
    expected = math.prod(shape)  # exact: a crafted shape must not wrap around
    if count != expected:
        raise CheckpointError(
            f"corrupt checkpoint: array has {count} elements, expected {expected}")
    nbytes = np.dtype(dtype).itemsize * count
    if nbytes > os.fstat(f.fileno()).st_size - f.tell():
        raise CheckpointError("corrupt checkpoint: truncated array data")
    try:
        return np.frombuffer(f.read(nbytes), dtype=dtype).reshape(shape)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"corrupt checkpoint: bad array shape {list(shape)}") from e


def checkpoint_save(state, path, include_replay=False):
    """Serialize a TrainingState; parameters and accumulators round-trip
    bit-identically.  Replay contents are optional (resume support)."""
    net = state.net
    arrays = []  # (name, shape, data)
    for prefix, layers in (("param", net.params), ("acc", state.opt_state.mean_square)):
        for i, p in enumerate(layers):
            for key in sorted(p or {}):
                arrays.append((f"{prefix}/{i}/{key}", list(p[key].shape), p[key]))
    for stream in sorted(state.current_inputs):
        arr = state.current_inputs[stream]
        arrays.append((f"state_input/{stream}", list(arr.shape), arr))
    if state.episode.phi is not None:
        # float64 like every array outside the replay section, which alone
        # stores its uint8 and bool arrays as bytes
        frames = np.stack(state.episode.phi.frames).astype(np.float64)
        arrays.append(("phi_frames", list(frames.shape), frames))

    replay_meta = None
    if include_replay:
        replay = state.replay
        replay_meta = {
            "pushes": replay.pushes,
            "streams": {s: list(f.shape[1:]) for s, f in sorted(replay.frames.items())},
        }
        for name, arr in sorted(replay.arrays().items()):
            arrays.append((f"replay/{name}", list(arr.shape), arr))

    header = {
        "version": 1,
        "arch": state.config.arch,
        "env": state.config.env_name,
        "output_dim": net.output_dim,
        "dtype": net.dtype.name,
        "hyper": dataclasses.asdict(state.hyper),
        "seed": state.config.seed,
        "counters": {"global_step": state.global_step,
                     "epochs_done": state.epochs_done,
                     "warmed": state.warmed},
        "rng": {
            "explore": state.explore_rng.bit_generator.state,
            "dropout": state.dropout_rng.bit_generator.state,
            "sample": state.sample_rng.bit_generator.state,
            "env_seed": state.episode.seed_rng.bit_generator.state,
        },
        "env_state": state.episode.env.get_state(),
        "arrays": [_array_entry(*a) for a in arrays],
        "replay": replay_meta,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    # Written beside `path` and renamed over it, so a failed save leaves the
    # previous checkpoint whole.
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for _, _, data in arrays:
                _write_array(f, data)
        os.replace(tmp, path)
    except OSError as e:
        raise CheckpointError(f"cannot write checkpoint {path}: {e}") from e
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def checkpoint_load(path):
    """Read a checkpoint into {'header': dict, 'arrays': name -> float64 array}."""
    try:
        f = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    with f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError("corrupt checkpoint: bad magic")
        raw = f.read(8)
        if len(raw) != 8:
            raise CheckpointError("corrupt checkpoint: truncated header length")
        (hlen,) = struct.unpack("<Q", raw)
        blob = f.read(hlen)
        if len(blob) != hlen:
            raise CheckpointError("corrupt checkpoint: truncated header")
        try:
            header = json.loads(blob)
        except ValueError as e:
            raise CheckpointError("corrupt checkpoint: bad header") from e
        if not isinstance(header, dict) or header.get("version") != 1:
            raise CheckpointError("corrupt checkpoint: unsupported version")
        if not isinstance(header.get("arrays"), list):
            raise CheckpointError("corrupt checkpoint: header has no array list")
        arrays = {}
        for entry in header["arrays"]:
            if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                    and isinstance(entry.get("shape"), list)
                    and all(isinstance(n, int) for n in entry["shape"])
                    and entry.get("dtype", "<f8") in ("<f8", "u1")):
                raise CheckpointError(f"corrupt checkpoint: bad array entry {entry!r}")
            arrays[entry["name"]] = _read_array(f, tuple(entry["shape"]),
                                                entry.get("dtype", "<f8"))
    return {"header": header, "arrays": arrays}


def load_params_into(net, ckpt):
    """Copy checkpointed parameters into an existing network; shape drift is
    rejected with the offending layer named."""
    for i, p in enumerate(net.params):
        if p is None:
            continue
        for key in sorted(p):
            name = f"param/{i}/{key}"
            if name not in ckpt["arrays"]:
                raise ShapeError(f"layer {i}: checkpoint has no parameter {key!r}")
            src = ckpt["arrays"][name]
            if tuple(src.shape) != p[key].shape:
                raise ShapeError(
                    f"layer {i}: checkpoint {key} shape {tuple(src.shape)} "
                    f"!= network shape {p[key].shape}")
            p[key][...] = src.astype(net.dtype)


def network_from_checkpoint(ckpt):
    """Rebuild the network a checkpoint was saved from, with its parameters.

    Returns (net, header, hyper).  A header naming no valid architecture,
    game, hyperparameters or float dtype, or parameters that do not fit the
    network, raise CheckpointError.
    """
    h = ckpt["header"]
    try:
        env = make_env(h["env"])
        hyper = HyperParams(**h["hyper"])
        dtype = np.dtype(h["dtype"])
        if dtype.kind != "f":
            raise TypeError(f"dtype {dtype.name} is not a float type")
        net = build_network(h["arch"], env, hyper, np.random.default_rng(0), dtype)
        load_params_into(net, ckpt)
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"corrupt checkpoint: {type(e).__name__}: {e}") from e
    return net, h, hyper


def _copy_into(target, src, name):
    if src.shape != target.shape:
        raise ValueError(f"{name} has shape {src.shape}, expected {target.shape}")
    target[...] = src


def _check_layout(value, like, name):
    """Require `value` to have the keys of dict `like`, each holding the same
    type of value (bool and int told apart)."""
    if not isinstance(value, dict) or value.keys() != like.keys():
        raise ValueError(f"{name} must be a dict with keys {sorted(like)}")
    for key, v in value.items():
        if type(v) is not type(like[key]):
            raise ValueError(f"{name}[{key!r}] must be of type {type(like[key]).__name__}")


def restore_training_state(ckpt):
    """Rebuild a TrainingState from a checkpoint saved with replay included.

    A header entry or array that does not fit the checkpoint's own
    experiment, or a missing replay section, raises CheckpointError.
    """
    h = ckpt["header"]
    arrays = ckpt["arrays"]
    try:
        hyper = HyperParams(**h["hyper"])
        config = ExperimentConfig(env_name=h["env"], arch=h["arch"], hyper=hyper,
                                  seed=h["seed"])
        state = TrainingState(config)
        load_params_into(state.net, ckpt)
        for i, acc in enumerate(state.opt_state.mean_square):
            for key in sorted(acc or {}):
                _copy_into(acc[key], arrays[f"acc/{i}/{key}"], f"acc/{i}/{key}")

        counters = h["counters"]
        _check_layout(counters, {"global_step": 0, "epochs_done": 0, "warmed": False},
                      "counters")
        if counters["global_step"] < 0 or counters["epochs_done"] < 0:
            raise ValueError("counters must not be negative")
        state.global_step = counters["global_step"]
        state.epochs_done = counters["epochs_done"]
        state.warmed = counters["warmed"]

        rngs = {"explore": state.explore_rng, "dropout": state.dropout_rng,
                "sample": state.sample_rng, "env_seed": state.episode.seed_rng}
        _check_layout(h["rng"], {k: {} for k in rngs}, "rng")
        for key, rng in rngs.items():
            rng.bit_generator.state = h["rng"][key]

        env, like = state.episode.env, state.episode.env.get_state()
        _check_layout(h["env_state"], like, "env_state")
        _check_layout(h["env_state"]["vars"], like["vars"], "env_state vars")
        env.set_state(h["env_state"])

        for s, inputs in state.current_inputs.items():
            _copy_into(inputs, arrays[f"state_input/{s}"], f"state_input/{s}")
        if state.episode.phi is not None:
            frames = np.stack(state.episode.phi.frames)
            _copy_into(frames, arrays["phi_frames"], "phi_frames")
            state.episode.phi.frames = list(frames)

        meta = h["replay"]
        if meta is None:
            raise ValueError("no replay section: save with include_replay=True")
        streams = {s: list(f.shape[1:]) for s, f in state.replay.frames.items()}
        _check_layout(meta, {"pushes": 0, "streams": {}}, "replay")
        if meta["streams"] != streams:
            raise ValueError(f"replay streams {meta['streams']} != {streams}")
        prefix = "replay/"
        state.replay.restore({n[len(prefix):]: a for n, a in arrays.items()
                              if n.startswith(prefix)}, meta["pushes"])
    except (KeyError, TypeError, ValueError, IndexError, ShapeError) as e:
        raise CheckpointError(f"corrupt checkpoint: {type(e).__name__}: {e}") from e
    return state
