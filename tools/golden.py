"""Golden outputs: run a fixed set of short `ramdqn train` and `eval` runs and
print the sha256 of every output, one `sha256  run/file` line each.  Each
short run's `best.ckpt` is evaluated three times: at the default test
epsilon (`eval.stdout`), at `--epsilon 0.5` (`eval-epsilon.stdout`) and at
`--epsilon 0` (`eval-greedy.stdout`), where every action is greedy.
A further short run, of micro_diver big_mixed_ram with `--dropout 0.25`,
printed last, pins the dropout layers' draws.

Each checkpoint also gets a `sha256  run/file:params` line: the digest of the
parameters as `network_from_checkpoint` loads them, each array's bytes in the
network's dtype, in layer order.  It does not depend on the file format, so
a change of format shows that the parameters stayed bitwise equal.

Each wrapping run's settings also get two in-process lines that pin the
resume path: `replay.ckpt`, the digest of `checkpoint_save(...,
include_replay=True)` after one training epoch on the 137-transition ring,
and `replay.ckpt:resumed`, that of the checkpoint saved again from the state
`restore_training_state` rebuilds from it.

The last line, `micro_diver-big_mixed_ram-warmup/replay.arrays`, is made in
process too: the digest of every array of the replay ring after the
40,000-transition random warm-up of perfbench's diver_fill workload
(micro_diver, big_mixed_ram, frame skip 4, seed 1).  It pins each byte that
the games draw into the ring.

A change that must keep the arithmetic as it is shows it by giving the same
lines as its parent commit; two runs of one commit must always agree.

    python3 tools/golden.py > golden.txt

It runs the package in this checkout's `src`, in fresh processes, in a
temporary directory that it removes afterwards.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PAIRS = (("micro_catch", "just_ram"), ("micro_breakout", "big_ram"),
         ("micro_catch", "nips"), ("micro_diver", "mixed_ram"),
         ("micro_diver", "big_mixed_ram"))
SHORT = ("--epochs", "2", "--steps-per-epoch", "150", "--test-steps", "300",
         "--frame-skip", "2", "--seed", "5")
# 400 steps per epoch pass the 137-transition ring several times over.
WRAPPING = ("--epochs", "2", "--steps-per-epoch", "400", "--test-steps", "200",
            "--frame-skip", "1", "--replay-capacity", "137", "--seed", "7")
EVAL = ("--steps", "300", "--seed", "3")
EVAL_EPSILON = EVAL + ("--epsilon", "0.5")
EVAL_GREEDY = EVAL + ("--epsilon", "0")


def ramdqn(*args):
    """stdout of one CLI run; a failed run stops the script."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "ramdqn.cli", *args], env=env,
                          capture_output=True, check=False)
    if done.returncode != 0:
        sys.exit(f"ramdqn {' '.join(args)} exited {done.returncode}:\n"
                 f"{done.stderr.decode(errors='replace')}")
    return done.stdout


def digest(data):
    return hashlib.sha256(data).hexdigest()


def file_digest(path):
    with open(path, "rb") as f:
        return digest(f.read())


def replay_digests(env, arch, out):
    """sha256 of a checkpoint with its replay ring, saved after one epoch of
    `train` at the WRAPPING settings, and of the one saved again after
    `restore_training_state` read it back."""
    from dataclasses import fields

    from ramdqn.agents import HyperParams
    from ramdqn.cli import build_parser
    from ramdqn.harness import (ExperimentConfig, TrainingState, checkpoint_load,
                                checkpoint_save, restore_training_state, run_training_epoch)
    args = build_parser().parse_args(["train", "--env", env, "--arch", arch, *WRAPPING])
    hyper = HyperParams(**{f.name: getattr(args, f.name) for f in fields(HyperParams)})
    state = TrainingState(ExperimentConfig(env, arch, hyper, seed=args.seed))
    run_training_epoch(state, hyper.steps_per_epoch)
    path = os.path.join(out, "replay.ckpt")
    checkpoint_save(state, path, include_replay=True)
    saved = file_digest(path)
    checkpoint_save(restore_training_state(checkpoint_load(path)), path, include_replay=True)
    return saved, file_digest(path)


def warmup_digest():
    """sha256 of `replay.arrays()`, each array's name, dtype, shape and bytes in
    name order, after the diver_fill warm-up."""
    from ramdqn.agents import HyperParams
    from ramdqn.harness import ExperimentConfig, TrainingState
    hyper = HyperParams(frame_skip=4, replay_start_size=40_000)
    state = TrainingState(ExperimentConfig("micro_diver", "big_mixed_ram", hyper, seed=1))
    state.warmup()
    h = hashlib.sha256()
    for name, a in sorted(state.replay.arrays().items()):
        h.update(f"{name} {a.dtype.str} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def params_digest(path):
    """sha256 of the parameters that `network_from_checkpoint` loads from `path`."""
    from ramdqn.harness import checkpoint_load, network_from_checkpoint
    net = network_from_checkpoint(checkpoint_load(path))[0]  # (net, ...) at every commit
    h = hashlib.sha256()
    for p in net.params:
        for key in sorted(p or {}):
            h.update(p[key].tobytes())
    return h.hexdigest()


def main():
    sys.path.insert(0, SRC)
    runs = [(f"{env}-{arch}", env, arch, SHORT, True) for env, arch in PAIRS]
    runs += [(f"{env}-{arch}-wrapping", env, arch, WRAPPING, False) for env, arch in PAIRS]
    runs.append(("micro_diver-big_mixed_ram-dropout", "micro_diver", "big_mixed_ram",
                 SHORT + ("--dropout", "0.25"), True))
    with tempfile.TemporaryDirectory() as tmp:
        for name, env, arch, settings, evaluate in runs:
            out = os.path.join(tmp, name)
            lines = {"train.stdout": digest(ramdqn("train", "--env", env, "--arch", arch,
                                                   "--out", out, *settings))}
            for file in ("curve.csv", "last.ckpt", "best.ckpt"):
                lines[file] = file_digest(os.path.join(out, file))
            for file in ("last.ckpt", "best.ckpt"):
                lines[f"{file}:params"] = params_digest(os.path.join(out, file))
            if evaluate:
                best = os.path.join(out, "best.ckpt")
                lines["eval.stdout"] = digest(ramdqn("eval", "--checkpoint", best, *EVAL))
                lines["eval-epsilon.stdout"] = digest(ramdqn("eval", "--checkpoint", best,
                                                             *EVAL_EPSILON))
                lines["eval-greedy.stdout"] = digest(ramdqn("eval", "--checkpoint", best,
                                                            *EVAL_GREEDY))
            if settings is WRAPPING:
                lines["replay.ckpt"], lines["replay.ckpt:resumed"] = replay_digests(env, arch, out)
            for file, sha in lines.items():
                print(f"{sha}  {name}/{file}", flush=True)
    print(f"{warmup_digest()}  micro_diver-big_mixed_ram-warmup/replay.arrays")


if __name__ == "__main__":
    main()
