"""Experiment orchestration: epochs interleaved with test periods, curve CSV,
checkpoints, and best-epoch selection."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .agents import (
    ARCHITECTURES,
    HyperParams,
    build_architecture,
    epsilon_at,
    greedy_action,
    input_shapes,
    select_action,
    train_step,
)
from .envs import ENV_REGISTRY, PhiBuffer, check_count, frame_skip_step, make_env, scale_ram
from .optim import flush_subnormals, rmsprop_state_for
from .replay import ReplayMemory
from .tensor_core import ShapeError, Workspace

CHECKPOINT_MAGIC = b"RAMDQN1\n"
CHECKPOINT_VERSION = 2
WARMUP_CHUNK = 4096  # random actions drawn per call during the warm-up
FLUSH_EVERY = 100  # train steps between `flush_subnormals`, by the saved global_step


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


@dataclass(frozen=True)  # set once, so that what __post_init__ checked holds
class ExperimentConfig:
    env_name: str
    arch: str
    hyper: HyperParams = field(default_factory=HyperParams)
    epochs: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.env_name not in ENV_REGISTRY:
            raise ValueError(f"unknown environment {self.env_name!r}")
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch!r}")
        if not isinstance(self.hyper, HyperParams):
            raise ValueError(f"hyper must be a HyperParams, got {self.hyper!r}")
        check_count("epochs", self.epochs)
        h = self.hyper
        if h.replay_start_size + self.epochs * h.steps_per_epoch < h.minibatch_size:
            raise ValueError(f"no training step can run: replay_start_size {h.replay_start_size} "
                             f"+ epochs {self.epochs} * steps_per_epoch {h.steps_per_epoch} "
                             f"transitions are fewer than minibatch_size {h.minibatch_size}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def build_network(arch, env, hyper, rng):
    """The float32 `arch` network for `env`'s screen and action set under `hyper`."""
    return build_architecture(arch, output_dim=env.action_count,
                              screen_shape=env.screen_shape,
                              phi_length=hyper.phi_length,
                              dropout_p=hyper.dropout_p, rng=rng)


class EpisodePipeline:
    """Plays a game for an agent: the env, the frame skip, and the rng that
    seeds each episode's reset.  Observations are the bytes of each stream
    in `streams` ("ram", "screen") that the agent reads, drawn into arrays
    that the caller owns: the replay ring's slots, or the test period's
    arrays.  `draw` starts every episode, the first too: a new game is
    terminal."""

    def __init__(self, env, streams, hyper, seed_rng):
        self.env = env
        self.streams = [s for s in ("ram", "screen") if s in streams]
        self.frame_skip = hyper.frame_skip
        self.seed_rng = seed_rng

    def step(self, action):
        """Play `action` for one frame-skip step: (reward, terminal).  `draw`
        gives the observation it led to."""
        return frame_skip_step(self.env, action, self.frame_skip)

    def draw(self, out):
        """Draw the observation the last step led to into `out` and return
        `out`.  Before the first step and after a terminal one it is a new
        episode's first: the game is reset here, with the next seed of
        `seed_rng`, and the terminal frame is never drawn."""
        if self.env.terminal:
            self.env.reset(int(self.seed_rng.integers(2**63)))
        return self.env.observe(out)


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
        # ExperimentConfig has checked env and arch, so a ValueError here is
        # numpy refusing an array too large to allocate, as is a MemoryError.
        try:
            self.net = build_network(config.arch, env, self.hyper, np.random.default_rng(init_ss))
            self.episode = EpisodePipeline(env, self.net.input_streams, self.hyper,
                                           np.random.default_rng(env_ss))
            self.opt_state = rmsprop_state_for(self.net, learning_rate=self.hyper.learning_rate)
            # The replay ring is the only store of observations: the agent acts
            # from the state of its newest slot, and each push draws the next
            # observation into the slot after it.
            first = self.episode.draw(env.buffers(self.episode.streams))
            self.replay = ReplayMemory(self.hyper.replay_capacity, first,
                                       phi_length=self.hyper.phi_length)
        except (ValueError, MemoryError) as e:
            raise MemoryError(f"replay_capacity {self.hyper.replay_capacity} and phi_length "
                              f"{self.hyper.phi_length} are too large to allocate: {e}") from e
        self.global_step = 0
        self.epochs_done = 0
        self.warmed = False

    def rngs(self):
        """The rng streams a checkpoint saves, by header key."""
        return {"explore": self.explore_rng, "dropout": self.dropout_rng,
                "sample": self.sample_rng, "env_seed": self.episode.seed_rng}

    def counters(self):
        """The counters a checkpoint saves, by attribute name."""
        return {key: getattr(self, key) for key in ("global_step", "epochs_done", "warmed")}

    def arrays(self, replay=False):
        """The live arrays a checkpoint saves, by name, in its order: `param/i/key`,
        the RMSprop accumulators `acc/i/key`, then with `replay` the ring's
        written slots `replay/<name>`, sorted by name."""
        out = {**_layer_arrays("param", self.net.params),
               **_layer_arrays("acc", self.opt_state.mean_square)}
        if replay:
            out.update((f"replay/{name}", a) for name, a in sorted(self.replay.arrays().items()))
        return out

    def _take_action(self, action):
        reward, terminal = self.episode.step(action)
        self.replay.push(action, reward, terminal, self.episode.draw)

    def warmup(self):
        """Populate the replay memory with random-action transitions.  The
        actions are drawn WARMUP_CHUNK at a time: the same values, and the
        same `explore_rng` state after, as one draw per action."""
        if self.warmed:
            return
        count, size = self.episode.env.action_count, self.hyper.replay_start_size
        for done in range(0, size, WARMUP_CHUNK):
            actions = self.explore_rng.integers(count, size=min(WARMUP_CHUNK, size - done))
            for action in actions.tolist():
                self._take_action(action)
        self.warmed = True


def _layer_arrays(prefix, layers):
    """Per-layer dicts shaped as a network's params, by checkpoint name `prefix/i/key`."""
    return {f"{prefix}/{i}/{key}": p[key] for i, p in enumerate(layers) for key in sorted(p or {})}


def _first_nonfinite_layer(net):
    for i, p in enumerate(net.params):
        for key in sorted(p or {}):
            if not np.isfinite(p[key]).all():
                return f"layer {i} ({net.layers[i].kind}) has a non-finite {key}"
    return "every parameter is finite"


def run_training_epoch(state, steps):
    """Run `steps` frame-skip actions with annealing epsilon, training after
    every action once the replay memory is warm; returns the mean loss.
    `steps` that `check_count(..., least=0)` refuses raises ValueError before
    the warm-up.  A non-finite loss, or a parameter or RMSprop accumulator left
    non-finite, raises TrainingError naming the epoch and any non-finite layer."""
    check_count("training steps", steps, least=0)
    state.warmup()
    hyper, losses = state.hyper, []
    workspace = Workspace()  # freed with the epoch, for test periods and checkpoints to reuse
    net, replay = state.net, state.replay

    def greedy():
        return greedy_action(net, replay.latest_state())

    for _ in range(steps):
        eps = epsilon_at(hyper, state.global_step)
        action = select_action(net, greedy, eps, state.explore_rng)
        state._take_action(action)
        state.global_step += 1
        if len(state.replay) >= max(hyper.replay_start_size, hyper.minibatch_size):
            loss = train_step(state.net, state.replay, state.opt_state, hyper,
                              state.sample_rng, state.dropout_rng, workspace)
            if not math.isfinite(loss):
                raise TrainingError(f"epoch {state.epochs_done + 1}: training loss is "
                                    f"{loss}; {_first_nonfinite_layer(state.net)}")
            losses.append(loss)
            if state.global_step % FLUSH_EVERY == 0:
                flush_subnormals(state.opt_state)
    if not (np.isfinite(net.flat).all() and np.isfinite(state.opt_state.accumulator).all()):
        raise TrainingError(f"epoch {state.epochs_done + 1}: an update left a non-finite "
                            f"parameter or accumulator; {_first_nonfinite_layer(net)}")
    state.epochs_done += 1
    return float(np.mean(losses)) if losses else 0.0


def _check_fit(net, env, hyper):
    """Require one network output per action of `env`, and each input
    stream to be one that `env` gives under `hyper`, of the same shape."""
    if net.output_dim != env.action_count:
        raise ValueError(f"the network has {net.output_dim} outputs, but {env.name} "
                         f"has {env.action_count} actions")
    given = input_shapes(env.screen_shape, hyper.phi_length)
    for stream, i in net.input_streams.items():
        if net.out_shapes[i] != given.get(stream):
            raise ValueError(f"the network's {stream} input is {net.out_shapes[i]}, "
                             f"but {env.name} at phi_length {hyper.phi_length} "
                             f"gives {given.get(stream, f'no {stream} stream')}")


def run_test_period(net, env_name, hyper, seed, epoch=0, mean_loss=0.0):
    """Frozen-policy evaluation: no learning, no replay writes.

    Plays `hyper.test_steps` actions at `hyper.test_epsilon`, which
    HyperParams has checked.  Reports the average score over completed
    episodes; if the budget ends before any episode completes, the single
    truncated episode is reported and flagged.  A network whose outputs or
    inputs do not fit the game under `hyper` raises ValueError before the
    first step.

    The network is frozen for the period, so the greedy action depends only
    on the window it reads: the RAM bytes, then the screens of the frame
    window.  Each window's action is computed once, and kept for this call
    under a 16-byte digest of those bytes.  Every observation is drawn once,
    the RAM into one array made once per call, each screen straight into the
    newest row of the window (`PhiBuffer.newest`), which shifts in place.
    """
    steps, epsilon = hyper.test_steps, hyper.test_epsilon
    env = make_env(env_name)
    _check_fit(net, env, hyper)
    policy_ss, env_ss = np.random.SeedSequence(seed).spawn(2)
    policy_rng = np.random.default_rng(policy_ss)
    episode = EpisodePipeline(env, net.input_streams, hyper, np.random.default_rng(env_ss))
    obs = env.buffers([s for s in episode.streams if s == "ram"])
    ram, phi = obs.get("ram"), None
    if "screen" in episode.streams:  # no replay here: the screens' own window
        phi = PhiBuffer(hyper.phi_length, env.screen_shape)
        obs["screen"] = phi.newest
    actions = {}  # window digest -> greedy action

    def greedy():  # in the current window
        key = hashlib.blake2b(digest_size=16)
        if ram is not None:
            key.update(ram)
        if phi is not None:
            key.update(phi.frames)
        key = key.digest()
        action = actions.get(key)
        if action is None:
            inputs = {"ram": scale_ram(ram)} if ram is not None else {}
            if phi is not None:
                inputs["screen"] = phi.stack()
            action = actions[key] = greedy_action(net, inputs)
        return action

    episode_scores, current, terminal = [], 0.0, True  # the first draw starts an episode
    for _ in range(steps):
        if phi is not None and not terminal:
            phi.observe()  # the draw lands in the newest row
        episode.draw(obs)
        if phi is not None and terminal:
            phi.reset()  # the draw started an episode
        action = select_action(net, greedy, epsilon, policy_rng)
        reward, terminal = episode.step(action)
        current += reward
        if terminal:
            episode_scores.append(current)
            current = 0.0

    if episode_scores:
        avg = sum(episode_scores) / len(episode_scores)
        return EpochReport(epoch=epoch, avg_score=avg, episodes=len(episode_scores),
                           steps=steps, mean_loss=mean_loss)
    return EpochReport(epoch=epoch, avg_score=current, episodes=1, steps=steps,
                       mean_loss=mean_loss, truncated=True)


def write_atomically(path, chunks):
    """Write the byte chunks to `<path>.tmp` and rename it over `path`: a failed
    write raises OSError, leaves no `.tmp` and keeps the previous `path` whole."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def write_curve_csv(path, reports):
    lines = ["epoch,avg_score,episodes,steps,mean_loss"]
    for r in reports:
        lines.append(f"{r.epoch},{r.avg_score:.6f},{r.episodes},{r.steps},{r.mean_loss:.6f}")
    write_atomically(path, ["\n".join(lines).encode() + b"\n"])


def run_experiment(config, out_dir, progress=None):
    """Full protocol: epochs x (train epoch, test period), written into
    `out_dir` (made if missing): after each epoch `last.ckpt`, `best.ckpt` if
    the epoch is the best so far, then `curve.csv` of every epoch done.

    Returns (reports, best): `best` is the epoch with the highest average
    score, ties going to the earliest, whose state `best.ckpt` holds.  A
    non-finite test score raises TrainingError before the epoch's
    checkpoints and curve row are written.
    """
    state = TrainingState(config)
    os.makedirs(out_dir, exist_ok=True)
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
        checkpoint_save(state, os.path.join(out_dir, "last.ckpt"))
        if improved:
            checkpoint_save(state, os.path.join(out_dir, "best.ckpt"))
        write_curve_csv(os.path.join(out_dir, "curve.csv"), reports)
        if progress is not None:
            progress(report)
    return reports, best


# ---------------------------------------------------------------------------
# Checkpoints: magic, length-prefixed JSON header, then element-count-prefixed
# arrays in the order listed by the header, each little-endian in the dtype
# its header entry names, one of:
CHECKPOINT_DTYPES = ("<f4", "<f8", "<i4", "|u1", "|b1")


def _header(state, include_replay):
    """The header entries that describe `state`, all but the array list."""
    return {
        "version": CHECKPOINT_VERSION,
        "arch": state.config.arch,
        "env": state.config.env_name,
        "output_dim": state.net.output_dim,
        "dtype": state.net.dtype.name,
        "hyper": dataclasses.asdict(state.hyper),
        "seed": state.config.seed,
        "counters": state.counters(),
        "rng": {key: rng.bit_generator.state for key, rng in state.rngs().items()},
        "env_state": state.episode.env.get_state(),
        "replay": {"pushes": state.replay.pushes} if include_replay else None,
    }


def checkpoint_save(state, path, include_replay=False):
    """Serialize a TrainingState: its header, then `state.arrays()` each in its own
    dtype, so that parameters and accumulators round-trip bit-identically.
    Replay is optional (resume support); the acting state is the ring's newest."""
    arrays = {name: np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<"))
              for name, a in state.arrays(replay=include_replay).items()}
    header = _header(state, include_replay)
    header["arrays"] = [{"name": name, "shape": list(a.shape), "dtype": a.dtype.str}
                        for name, a in arrays.items()]
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    chunks = [CHECKPOINT_MAGIC, struct.pack("<Q", len(blob)), blob]
    for a in arrays.values():  # each array's own buffer: no copy
        chunks += [struct.pack("<Q", a.size), a.data]
    try:
        write_atomically(path, chunks)
    except OSError as e:
        raise CheckpointError(f"cannot write checkpoint {path}: {e}") from e


def checkpoint_load(path):
    """Read a checkpoint into {'header': dict, 'arrays': name -> array}, each array
    a read-only view of the file's bytes in its saved dtype.  A file of another format
    version, one that does not parse, one that lists an array twice, or one with bytes
    past its arrays raises CheckpointError."""
    try:
        with open(path, "rb") as f:
            raw = memoryview(f.read())
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    pos = 0

    def take(n, what):
        nonlocal pos
        if n > len(raw) - pos:
            raise CheckpointError(f"corrupt checkpoint: truncated {what}")
        pos += n
        return raw[pos - n:pos]

    if take(len(CHECKPOINT_MAGIC), "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError("corrupt checkpoint: bad magic")
    (hlen,) = struct.unpack("<Q", take(8, "header length"))
    try:
        header = json.loads(bytes(take(hlen, "header")))
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
        if entry["name"] in arrays:
            raise CheckpointError(f"corrupt checkpoint: array {entry['name']} listed twice")
        shape, dtype = entry["shape"], np.dtype(entry["dtype"])
        (count,) = struct.unpack("<Q", take(8, "array header"))
        expected = math.prod(shape)  # exact: a crafted shape must not wrap around
        if count != expected:
            raise CheckpointError(
                f"corrupt checkpoint: array has {count} elements, expected {expected}")
        data = take(dtype.itemsize * count, "array data")
        try:
            arrays[entry["name"]] = np.frombuffer(data, dtype=dtype).reshape(shape)
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"corrupt checkpoint: bad array shape {shape}") from e
    if pos != len(raw):
        raise CheckpointError("corrupt checkpoint: bytes after the last array")
    return {"header": header, "arrays": arrays}


def _load_arrays(targets, arrays):
    """Copy each checkpoint array into the live array of its name in `targets`,
    once all are checked.  A missing or extra array, or one of another shape
    or dtype (byte order aside), raises ShapeError naming it.  One with a value
    that training never holds raises ValueError naming it: a float array
    (parameters, accumulators, rewards) that is not finite, or an RMSprop
    accumulator `acc/...` below 0."""
    odd = sorted(targets.keys() ^ arrays.keys())
    if odd:
        raise ShapeError(f"checkpoint array {odd[0]} is "
                         f"{'missing' if odd[0] in targets else 'not expected'}")
    for name, target in targets.items():
        src = arrays[name]
        if src.shape != target.shape or not np.can_cast(src.dtype, target.dtype, "equiv"):
            raise ShapeError(f"checkpoint array {name} is {src.dtype} {src.shape}, "
                             f"expected {target.dtype} {target.shape}")
        if src.dtype.kind == "f" and not np.isfinite(src).all():
            raise ValueError(f"checkpoint array {name} is not finite")
        if name.startswith("acc/") and (src < 0).any():
            raise ValueError(f"checkpoint array {name} is negative")
    for name, target in targets.items():
        target[...] = arrays[name]


def load_params_into(net, ckpt):
    """Copy a checkpoint's `param/` arrays into an existing network; a
    missing or extra parameter, or shape or dtype drift, raises ShapeError
    naming the array, and a non-finite one ValueError."""
    _load_arrays(_layer_arrays("param", net.params),
                 {name: a for name, a in ckpt["arrays"].items() if name.startswith("param/")})


def _experiment(header):
    """The ExperimentConfig (env, arch, hyper, seed) a checkpoint header records,
    with `minibatch_size` epochs, which can always update, for the count it lacks.
    A `dtype` other than float32, the one dtype runs train in, a `hyper` that is
    not exactly HyperParams' fields, or an entry they refuse raise ValueError."""
    if header["dtype"] != "float32":
        raise ValueError(f"dtype {header['dtype']!r} is not float32")
    hyper, names = header["hyper"], {f.name for f in dataclasses.fields(HyperParams)}
    if type(hyper) is not dict or hyper.keys() != names:
        raise ValueError(f"hyper must be a dict of the fields {sorted(names)}")
    hyper = HyperParams(**hyper)
    return ExperimentConfig(env_name=header["env"], arch=header["arch"], hyper=hyper,
                            epochs=hyper.minibatch_size, seed=header["seed"])


def network_from_checkpoint(ckpt):
    """Rebuild the network a checkpoint was saved from, with its parameters.

    Returns (net, config), the experiment `config` as the header records it.
    A header naming no valid experiment or a dtype other than float32, or
    parameters that do not fit the network or are not all finite, raise
    CheckpointError; the last names the first such array.
    """
    try:
        config = _experiment(ckpt["header"])
        net = build_network(config.arch, make_env(config.env_name), config.hyper,
                            np.random.default_rng(0))
        load_params_into(net, ckpt)
    # MemoryError: huge shapes; OverflowError: an int too large for a float
    except (KeyError, TypeError, ValueError, OverflowError, MemoryError) as e:
        raise CheckpointError(f"corrupt checkpoint: {type(e).__name__}: {e}") from e
    return net, config


def _check_layout(value, like, name):
    """Require `value` to be laid out as the JSON-ready value `like`: of the
    same type (bool and int told apart), a dict with the same keys or a list
    of the same length, and each entry laid out as `like`'s in turn."""
    if type(value) is not type(like):
        raise ValueError(f"{name} must be of type {type(like).__name__}")
    if type(like) is list:
        value, like = dict(enumerate(value)), dict(enumerate(like))
    if type(like) is dict:
        if value.keys() != like.keys():
            raise ValueError(f"{name} must have the entries {sorted(like)}")
        for key in like:
            _check_layout(value[key], like[key], f"{name}[{key!r}]")


def restore_training_state(ckpt):
    """Rebuild a TrainingState from a checkpoint saved with replay included:
    the header laid out as a fresh state's, the arrays exactly its
    `arrays(replay=True)` at the saved push count.  A missing replay section,
    an entry or array that does not fit the experiment, or an array value that
    `_load_arrays` refuses, raises CheckpointError."""
    h = ckpt["header"]
    try:
        state = TrainingState(_experiment(h))
        if h["replay"] is None:
            raise ValueError("no replay section: save with include_replay=True")
        like = _header(state, include_replay=True)
        resumed = ("counters", "rng", "env_state", "replay")  # the entries a resume sets
        _check_layout({key: h[key] for key in resumed}, {key: like[key] for key in resumed},
                      "header")
        counters, pushes = h["counters"], h["replay"]["pushes"]
        if pushes < 0 or any(value < 0 for value in counters.values()):
            raise ValueError("counters and the push count must not be negative")
        for key, value in counters.items():
            setattr(state, key, value)
        for key, rng in state.rngs().items():
            rng.bit_generator.state = h["rng"][key]
        env = state.episode.env
        env.set_state(h["env_state"])
        # A fresh ring has written only slot 0, which is among the slots loaded.
        state.replay.pushes = pushes
        _load_arrays(state.arrays(replay=True), ckpt["arrays"])
        if state.replay.action.min() < 0 or state.replay.action.max() >= env.action_count:
            raise ValueError(f"replay actions must be in [0, {env.action_count})")
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, MemoryError) as e:
        raise CheckpointError(f"corrupt checkpoint: {type(e).__name__}: {e}") from e
    return state
