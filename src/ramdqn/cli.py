"""Command-line frontend: train, eval, visualize, gradcheck."""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
from dataclasses import fields, replace

import numpy as np

from .agents import ARCHITECTURES, HyperParams, build_architecture
from .harness import (
    CheckpointError,
    ExperimentConfig,
    TrainingError,
    checkpoint_load,
    network_from_checkpoint,
    run_experiment,
    run_test_period,
    write_atomically,
)
from .tensor_core import gradient_check

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """A bad command-line argument: exit 2."""


def write_weight_heatmap(weights, path):
    """Binary portable pixmap of a weight matrix (units x in_cells).

    One column per node, one row per input cell; positive weights map to the
    red channel, negative to blue, intensity proportional to |w| / max|w|.
    """
    w = np.asarray(weights, dtype=np.float64).T  # rows = cells, cols = nodes
    rows, cols = w.shape
    maxabs = np.max(np.abs(w))
    rgb = np.zeros((rows, cols, 3), dtype=np.uint8)
    if maxabs > 0:
        scaled = w / maxabs
        rgb[..., 0] = np.where(scaled > 0, np.rint(255.0 * scaled), 0).astype(np.uint8)
        rgb[..., 2] = np.where(scaled < 0, np.rint(255.0 * -scaled), 0).astype(np.uint8)
    write_atomically(path, [f"P6\n{cols} {rows}\n255\n".encode(), rgb.data])


def _ram_first_dense_weights(net):
    """Weight matrix of the first dense layer fed directly by the RAM input."""
    for i, spec in enumerate(net.layers):
        if spec.kind != "dense":
            continue
        ref = net.layers[spec.input_refs[0]]
        if ref.kind == "input" and ref.stream == "ram":
            return net.params[i]["W"]
    return None


def _file_identity(path):
    """(inode, mtime) of the file at `path`, or None if there is none."""
    with contextlib.suppress(OSError):
        st = os.stat(path)
        return st.st_ino, st.st_mtime_ns


def cmd_train(args):
    if not args.out:
        raise UsageError("--out must name a directory")
    try:
        hyper = HyperParams(**{f.name: getattr(args, f.name) for f in fields(HyperParams)})
        config = ExperimentConfig(env_name=args.env, arch=args.arch, hyper=hyper,
                                  epochs=args.epochs, seed=args.seed)
    except ValueError as e:
        raise UsageError(e) from e

    received = signal.SIGINT  # the signal that interrupts the run

    def progress(report):
        flag = " (truncated)" if report.truncated else ""
        print(f"epoch {report.epoch}: avg_score={report.avg_score:.3f} "
              f"episodes={report.episodes} mean_loss={report.mean_loss:.6f}{flag}",
              file=sys.stderr)

    def terminate(signum, frame):
        nonlocal received
        received = signum
        raise KeyboardInterrupt

    last = os.path.join(args.out, "last.ckpt")
    earlier = _file_identity(last)  # a last.ckpt of an earlier run into --out
    previous = signal.signal(signal.SIGTERM, terminate)
    try:
        reports, best = run_experiment(config, args.out, progress=progress)
    except KeyboardInterrupt:  # Ctrl-C, or SIGTERM through `terminate`
        # The last.ckpt this run wrote holds its last completed epoch, perhaps
        # one renamed into place before `progress` printed it.
        completed = 0
        with contextlib.suppress(CheckpointError, KeyError, TypeError):
            if _file_identity(last) != earlier:
                completed = checkpoint_load(last)["header"]["counters"]["epochs_done"]
        print(f"interrupted: last completed epoch {completed} of {config.epochs}",
              file=sys.stderr)
        return 128 + int(received)
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(f"best epoch {best} avg_score={reports[best - 1].avg_score:.3f} "
          f"env={args.env} arch={args.arch} frame_skip={hyper.frame_skip} "
          f"dropout={hyper.dropout_p} learning_rate={hyper.learning_rate} "
          f"seed={args.seed}")
    return EXIT_OK


def _check_seed(seed):
    if seed < 0:
        raise UsageError(f"--seed must not be negative, got {seed}")


def cmd_eval(args):
    if not 0.0 <= args.epsilon <= 1.0:
        raise UsageError(f"--epsilon must be in [0, 1], got {args.epsilon}")
    if args.steps < 1:
        raise UsageError(f"--steps must be at least 1, got {args.steps}")
    _check_seed(args.seed)
    net, config = network_from_checkpoint(checkpoint_load(args.checkpoint))
    hyper = replace(config.hyper, test_steps=args.steps, test_epsilon=args.epsilon)
    report = run_test_period(net, config.env_name, hyper, seed=args.seed)
    flag = " (truncated)" if report.truncated else ""
    print(f"avg_score={report.avg_score:.6f} episodes={report.episodes} "
          f"steps={report.steps} epsilon={args.epsilon}{flag}")
    return EXIT_OK


def cmd_visualize(args):
    net, _ = network_from_checkpoint(checkpoint_load(args.checkpoint))
    weights = _ram_first_dense_weights(net)
    if weights is None:
        raise CheckpointError("architecture has no dense layer reading the RAM input "
                              "directly; nothing to visualize")
    write_weight_heatmap(weights, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


GRADCHECK_SCREEN = (32, 32)
GRADCHECK_TOLERANCE = 1e-5  # the gate on the worst relative error; never loosened


def gradcheck_architecture(name, seed=0, probes=100):
    """Max relative backward-vs-finite-difference error for one architecture
    at reduced scale, in 64-bit arithmetic."""
    rng = np.random.default_rng(seed)
    net = build_architecture(name, output_dim=6, screen_shape=GRADCHECK_SCREEN, rng=rng,
                             dtype=np.float64)
    inputs = {s: rng.random((2,) + net.out_shapes[i]) for s, i in net.input_streams.items()}
    return gradient_check(net, inputs, probes=probes, rng=rng)


def cmd_gradcheck(args):
    _check_seed(args.seed)
    if args.arch != "all" and args.arch not in ARCHITECTURES:
        raise UsageError(f"unknown architecture {args.arch!r}")
    names = list(ARCHITECTURES) if args.arch == "all" else [args.arch]
    worst = 0.0
    for name in names:
        err = gradcheck_architecture(name, seed=args.seed)
        print(f"{name}: max relative error {err:.3e}")
        worst = np.maximum(worst, err)  # unlike max(), keeps a NaN
    if not worst < GRADCHECK_TOLERANCE:
        print(f"FAIL: worst error {worst:.3e} exceeds tolerance {GRADCHECK_TOLERANCE:g}",
              file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="ramdqn",
                                     description="RAM-based deep Q-learning at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an agent and write curve + checkpoints")
    p.add_argument("--env", required=True)
    p.add_argument("--arch", required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="runs/out")
    for f in fields(HyperParams):  # one flag per field, named after it but for --dropout
        flag = "--dropout" if f.name == "dropout_p" else "--" + f.name.replace("_", "-")
        p.add_argument(flag, dest=f.name, type=type(f.default), default=f.default)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint over one test period "
                                    "on the game it was trained on")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--steps", type=int, default=HyperParams.test_steps)
    p.add_argument("--epsilon", type=float, default=HyperParams.test_epsilon)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("visualize", help="export a first-layer weight heatmap (P6)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_visualize)

    p = sub.add_parser("gradcheck", help="finite-difference check of backward")
    p.add_argument("--arch", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None):
    """Run one command; map its errors to one `error:` line and an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (CheckpointError, TrainingError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILURE
    except KeyboardInterrupt:  # `train` reports its own, naming the last epoch
        print("interrupted", file=sys.stderr)
        return 128 + signal.SIGINT


if __name__ == "__main__":
    sys.exit(main())
