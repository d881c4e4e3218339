"""The benchmark's workloads: which game, network and protocol each one runs.

Why each workload exists, and what it predicts for the next optimisations,
is written down in README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    env: str
    arch: str
    frame_skip: int
    replay_start_size: int  # random-action transitions pushed during set-up
    train_steps: int        # training actions per epoch
    test_steps: int         # actions per test period
    epoch_s: float          # nominal scaled seconds per epoch (see epochs_for)


WORKLOADS = {w.name: w for w in (
    # Dense layers only: per-action Python and small matmuls.  Long enough
    # for just_ram to learn micro_catch, so the last test score means something.
    Workload("catch_ram", "micro_catch", "just_ram", frame_skip=1,
             replay_start_size=100, train_steps=1_000, test_steps=5_000,
             epoch_s=1.0),
    # Convolution dominates every train_step and every greedy action.
    Workload("catch_nips", "micro_catch", "nips", frame_skip=1,
             replay_start_size=100, train_steps=40, test_steps=800,
             epoch_s=1.0),
    # A replay memory far larger than the CPU caches, filled during set-up by
    # a frame-skipped random walk on the largest game; two towers and concat.
    Workload("diver_fill", "micro_diver", "big_mixed_ram", frame_skip=4,
             replay_start_size=40_000, train_steps=32, test_steps=400,
             epoch_s=1.1),
)}


def epochs_for(workload, seconds):
    """Epochs one run makes for a `--seconds` budget.

    The count depends on the budget and the workload's nominal epoch time
    only, never on how fast this machine runs, so a (seed, seconds) pair
    always does the same work and gives the same curve.  The nominal times
    are scaled times (speed.py) measured on a 2-vCPU x86-64 sandbox with
    numpy 2.4 and OpenBLAS.
    """
    return max(2, round(seconds / workload.epoch_s))


def build_config(ramdqn, workload, seed, seconds):
    """The ExperimentConfig that is all `ramdqn` receives from the benchmark."""
    hyper = ramdqn.HyperParams(
        frame_skip=workload.frame_skip,
        replay_start_size=workload.replay_start_size,
        steps_per_epoch=workload.train_steps,
        test_steps=workload.test_steps,
    )
    return ramdqn.ExperimentConfig(workload.env, workload.arch, hyper=hyper,
                                   epochs=epochs_for(workload, seconds), seed=seed)
