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
from .replay import ReplayMemory, Transition
from .tensor_core import ShapeError

CHECKPOINT_MAGIC = b"RAMDQN1\n"


class CheckpointError(RuntimeError):
    pass


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
    `streams` names the inputs to build ("ram", "screen")."""

    def __init__(self, env, streams, hyper, seed_rng):
        self.env = env
        self.ram = "ram" in streams
        self.phi = PhiBuffer(hyper.phi_length) if "screen" in streams else None
        self.frame_skip = hyper.frame_skip
        self.seed_rng = seed_rng

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
        inputs = {}
        if self.ram:
            inputs["ram"] = scale_ram(obs.ram)
        if self.phi is not None:
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
        self.replay = ReplayMemory(self.hyper.replay_capacity)
        self.global_step = 0
        self.epochs_done = 0
        self.warmed = False
        self.current_inputs = self.episode.begin()

    def _take_action(self, action):
        reward, terminal, next_inputs = self.episode.step(action)
        self.replay.push(Transition(self.current_inputs, action, reward,
                                    next_inputs, terminal))
        self.current_inputs = self.episode.begin() if terminal else next_inputs

    def warmup(self):
        """Populate the replay memory with random-action transitions."""
        if self.warmed:
            return
        for _ in range(self.hyper.replay_start_size):
            action = int(self.explore_rng.integers(self.episode.env.action_count))
            self._take_action(action)
        self.warmed = True


def run_training_epoch(state, steps):
    """Run `steps` frame-skip actions with annealing epsilon, training after
    every action once the replay memory is warm; returns the mean loss."""
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
            losses.append(train_step(state.net, state.replay, state.opt_state,
                                     hyper, state.sample_rng, state.dropout_rng))
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

    Returns (reports, best_epoch_index).
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
# little-endian float64 arrays in the order listed by the header.

def _write_array(f, arr):
    a = np.ascontiguousarray(np.asarray(arr), dtype="<f8").reshape(-1)
    f.write(struct.pack("<Q", a.size))
    f.write(a.tobytes())


def _read_array(f, shape):
    raw = f.read(8)
    if len(raw) != 8:
        raise CheckpointError("corrupt checkpoint: truncated array header")
    (count,) = struct.unpack("<Q", raw)
    expected = math.prod(shape)  # exact: a crafted shape must not wrap around
    if count != expected:
        raise CheckpointError(
            f"corrupt checkpoint: array has {count} elements, expected {expected}")
    if 8 * count > os.fstat(f.fileno()).st_size - f.tell():
        raise CheckpointError("corrupt checkpoint: truncated array data")
    try:
        return np.frombuffer(f.read(8 * count), dtype="<f8").reshape(shape)
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
        frames = np.stack(state.episode.phi.frames)
        arrays.append(("phi_frames", list(frames.shape), frames))

    replay_meta = None
    if include_replay and len(state.replay) > 0:
        items = state.replay.contents()
        streams = sorted(items[0].state.keys())
        replay_meta = {
            "size": len(items),
            "streams": {s: list(items[0].state[s].shape) for s in streams},
        }
        for s in streams:
            arrays.append((f"replay/state/{s}", [len(items)] + replay_meta["streams"][s],
                           np.stack([t.state[s] for t in items])))
            arrays.append((f"replay/next/{s}", [len(items)] + replay_meta["streams"][s],
                           np.stack([t.next_state[s] for t in items])))
        arrays.append(("replay/action", [len(items)],
                       np.array([t.action for t in items], dtype=np.float64)))
        arrays.append(("replay/reward", [len(items)],
                       np.array([t.reward for t in items], dtype=np.float64)))
        arrays.append(("replay/terminal", [len(items)],
                       np.array([1.0 if t.terminal else 0.0 for t in items])))

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
        "arrays": [{"name": n, "shape": s} for n, s, _ in arrays],
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
                    and all(isinstance(n, int) for n in entry["shape"])):
                raise CheckpointError(f"corrupt checkpoint: bad array entry {entry!r}")
            arrays[entry["name"]] = _read_array(f, tuple(entry["shape"]))
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


def restore_training_state(ckpt):
    """Rebuild a TrainingState from a checkpoint saved with replay included."""
    h = ckpt["header"]
    hyper = HyperParams(**h["hyper"])
    config = ExperimentConfig(env_name=h["env"], arch=h["arch"], hyper=hyper,
                              seed=h["seed"])
    state = TrainingState(config)
    load_params_into(state.net, ckpt)
    for i, acc in enumerate(state.opt_state.mean_square):
        if acc is None:
            continue
        for key in sorted(acc):
            acc[key][...] = ckpt["arrays"][f"acc/{i}/{key}"].astype(state.net.dtype)
    state.global_step = h["counters"]["global_step"]
    state.epochs_done = h["counters"]["epochs_done"]
    state.warmed = h["counters"]["warmed"]
    state.explore_rng.bit_generator.state = h["rng"]["explore"]
    state.dropout_rng.bit_generator.state = h["rng"]["dropout"]
    state.sample_rng.bit_generator.state = h["rng"]["sample"]
    state.episode.seed_rng.bit_generator.state = h["rng"]["env_seed"]
    state.episode.env.set_state(h["env_state"])
    state.current_inputs = {s: ckpt["arrays"][f"state_input/{s}"].astype(np.float32)
                            for s in state.net.input_streams}
    if state.episode.phi is not None:
        state.episode.phi.frames = list(ckpt["arrays"]["phi_frames"].astype(np.uint8))
    meta = h.get("replay")
    if meta:
        n = meta["size"]
        streams = sorted(meta["streams"])
        actions = ckpt["arrays"]["replay/action"]
        rewards = ckpt["arrays"]["replay/reward"]
        terminals = ckpt["arrays"]["replay/terminal"]
        for i in range(n):
            s = {k: ckpt["arrays"][f"replay/state/{k}"][i].astype(np.float32)
                 for k in streams}
            ns = {k: ckpt["arrays"][f"replay/next/{k}"][i].astype(np.float32)
                  for k in streams}
            state.replay.push(Transition(s, int(actions[i]), float(rewards[i]),
                                         ns, bool(terminals[i])))
    return state
