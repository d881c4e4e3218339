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
CHECKPOINT_VERSION = 2


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
        if type(self.epochs) is not int or self.epochs < 1:
            raise ValueError(f"epochs must be a positive integer, got {self.epochs!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def build_network(arch, env, hyper, rng, dtype=np.float32):
    """The `arch` network for `env`'s screen and action set under `hyper`."""
    return build_architecture(arch, output_dim=env.action_count,
                              screen_shape=env.screen_shape,
                              phi_length=hyper.phi_length,
                              dropout_p=hyper.dropout_p, rng=rng, dtype=dtype)


class EpisodePipeline:
    """Plays a game for an agent: the env, the frame skip, and the rng that
    seeds each episode's reset.  Observations come as the bytes of each
    stream in `streams` ("ram", "screen") that the agent reads."""

    def __init__(self, env, streams, hyper, seed_rng):
        self.env = env
        self.streams = [s for s in ("ram", "screen") if s in streams]
        self.frame_skip = hyper.frame_skip
        self.seed_rng = seed_rng

    def begin(self):
        """Reset the game; the first observation of the new episode."""
        self.env.reset(int(self.seed_rng.integers(2**63)))
        return self.env.observe(self.streams)

    def step(self, action):
        """Play `action` for one frame-skip step: (reward, terminal,
        observation).  A terminal step resets the game, and its observation
        is the next episode's first; the terminal frame is never built."""
        reward, terminal = frame_skip_step(self.env, action, self.frame_skip)
        obs = self.begin() if terminal else self.env.observe(self.streams)
        return reward, terminal, obs


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
        # The replay ring is the only store of observations: the agent acts
        # from the state of its newest slot.
        self.replay = ReplayMemory(self.hyper.replay_capacity, self.episode.begin(),
                                   phi_length=self.hyper.phi_length)

    def _take_action(self, action):
        self.replay.push(action, *self.episode.step(action))

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
        action = select_action(state.net, state.replay.latest_state, eps, state.explore_rng)
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
    phi = PhiBuffer(hyper.phi_length)  # no replay here: the screens' own window

    def inputs(obs, fresh):
        out = {"ram": scale_ram(obs["ram"])} if "ram" in obs else {}
        if "screen" in obs:
            if fresh:
                phi.reset(obs["screen"])
            out["screen"] = phi.stack() if fresh else phi.observe(obs["screen"])
        return out

    state = inputs(episode.begin(), fresh=True)
    episode_scores = []
    current = 0.0
    for _ in range(steps):
        action = select_action(net, state, epsilon, policy_rng)
        reward, terminal, obs = episode.step(action)
        current += reward
        if terminal:
            episode_scores.append(current)
            current = 0.0
        state = inputs(obs, fresh=terminal)

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


def run_experiment(config, progress=None):
    """Full protocol: epochs x (train epoch, test period), CSV + checkpoints.

    Returns (reports, best): `best` is the epoch with the highest average
    score, ties going to the earliest, whose state `best.ckpt` holds.  A
    non-finite test score raises TrainingError before the epoch's
    checkpoints and the CSV are written.
    """
    state = TrainingState(config)
    state.warmup()
    out = config.out_dir
    if out:
        os.makedirs(out, exist_ok=True)
    reports = []
    best = None
    for epoch in range(1, config.epochs + 1):
        mean_loss = run_training_epoch(state, config.hyper.steps_per_epoch)
        test_seed = int(np.random.SeedSequence((config.seed, 7781, epoch)).generate_state(1)[0])
        report = run_test_period(state.net, config.env_name, config.hyper,
                                 seed=test_seed, epoch=epoch, mean_loss=mean_loss)
        if not math.isfinite(report.avg_score):  # a NaN would freeze best-epoch selection
            raise TrainingError(f"epoch {epoch}: test score is {report.avg_score}")
        reports.append(report)
        improved = best is None or report.avg_score > reports[best - 1].avg_score
        if improved:
            best = epoch
        if out:
            checkpoint_save(state, os.path.join(out, "last.ckpt"))
            if improved:
                checkpoint_save(state, os.path.join(out, "best.ckpt"))
        if progress is not None:
            progress(report)
    if out:
        write_curve_csv(os.path.join(out, "curve.csv"), reports)
    return reports, best


# ---------------------------------------------------------------------------
# Checkpoints: magic, length-prefixed JSON header, then element-count-prefixed
# arrays in the order listed by the header, each little-endian in the dtype
# its header entry names, one of:
CHECKPOINT_DTYPES = ("<f4", "<f8", "<i4", "|u1", "|b1")


def _write_array(f, arr):
    f.write(struct.pack("<Q", arr.size))
    f.write(arr.tobytes())


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
    """Serialize a TrainingState, every array in its own dtype, so that
    parameters and accumulators round-trip bit-identically.  Replay contents
    are optional (resume support); the acting state is the ring's newest."""
    net = state.net
    arrays = {}
    for prefix, layers in (("param", net.params), ("acc", state.opt_state.mean_square)):
        for i, p in enumerate(layers):
            for key in sorted(p or {}):
                arrays[f"{prefix}/{i}/{key}"] = p[key]

    replay_meta = None
    if include_replay:
        replay = state.replay
        replay_meta = {
            "pushes": replay.pushes,
            "streams": {s: list(f.shape[1:]) for s, f in sorted(replay.frames.items())},
        }
        for name, arr in sorted(replay.arrays().items()):
            arrays[f"replay/{name}"] = arr
    arrays = {name: np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<"))
              for name, a in arrays.items()}

    header = {
        "version": CHECKPOINT_VERSION,
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
        "arrays": [{"name": name, "shape": list(a.shape), "dtype": a.dtype.str}
                   for name, a in arrays.items()],
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
            for arr in arrays.values():
                _write_array(f, arr)
        os.replace(tmp, path)
    except OSError as e:
        raise CheckpointError(f"cannot write checkpoint {path}: {e}") from e
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def checkpoint_load(path):
    """Read a checkpoint into {'header': dict, 'arrays': name -> array}, each
    array in the dtype it was saved in (read-only).  A file of another
    format version, or one that does not parse, raises CheckpointError."""
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
        if hlen > os.fstat(f.fileno()).st_size - f.tell():  # read() would allocate hlen
            raise CheckpointError("corrupt checkpoint: truncated header")
        try:
            header = json.loads(f.read(hlen))
        except ValueError as e:
            raise CheckpointError("corrupt checkpoint: bad header") from e
        if not isinstance(header, dict):
            raise CheckpointError("corrupt checkpoint: bad header")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {header.get('version')!r}: "
                                  f"only version {CHECKPOINT_VERSION} can be read")
        if not isinstance(header.get("arrays"), list):
            raise CheckpointError("corrupt checkpoint: header has no array list")
        arrays = {}
        for entry in header["arrays"]:
            if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                    and isinstance(entry.get("shape"), list)
                    and all(isinstance(n, int) for n in entry["shape"])
                    and entry.get("dtype") in CHECKPOINT_DTYPES):
                raise CheckpointError(f"corrupt checkpoint: bad array entry {entry!r}")
            arrays[entry["name"]] = _read_array(f, tuple(entry["shape"]), entry["dtype"])
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
            p[key][...] = src


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
    # MemoryError: huge shapes; OverflowError: an int too large for a float
    except (KeyError, TypeError, ValueError, OverflowError, MemoryError) as e:
        raise CheckpointError(f"corrupt checkpoint: {type(e).__name__}: {e}") from e
    return net, h, hyper


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
                src = arrays[f"acc/{i}/{key}"]
                if src.shape != acc[key].shape:
                    raise ValueError(f"acc/{i}/{key} has shape {src.shape}, "
                                     f"expected {acc[key].shape}")
                acc[key][...] = src

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
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, MemoryError) as e:
        raise CheckpointError(f"corrupt checkpoint: {type(e).__name__}: {e}") from e
    return state
