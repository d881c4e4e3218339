"""In-process A/B of two source trees: load each tree's `src/ramdqn` into one
process under a module name of its own, run one operation of a perfbench
workload on both, round after round, and print how much faster the change ran.

    git clone -q . ../ab/base && git -C ../ab/base checkout -q HEAD~1
    git clone -q . ../ab/change
    python3 tools/ab.py --base ../ab/base --change ../ab/change \
        --op test --workload diver_fill --rounds 200

Operations, each on the workload's game and network at seed 1 (perfbench's
`build_config`):

  test   one `run_test_period` of the workload's `test_steps` actions, by the
         network as `TrainingState` initialises it;
  train  one `run_training_epoch` of the workload's `train_steps` actions,
         after the workload's replay warm-up, which is not timed.

Both trees start from the same config, so they must stay equal bit for bit.
After every round the script compares what the round reported (the test
report or the mean loss), the parameters and the RMSprop accumulators, and
exits 1 naming the round and all that differs: an A/B of a change that moves
the arithmetic fails loudly.

Each round runs both trees, the base first in odd rounds and the change
first in even ones.  A round's ratio is the base's time over the change's,
so above 1 the change ran faster.  Which tree is loaded first moves the
reading too (two identical trees have read 0.976-1.000x for the one loaded
second), so the A/B runs twice, in two fresh processes, loading the base
first and then the change first.  Each prints one JSON line: the median
ratio, the rounds the change won, and a bootstrap 95% interval of the median
ratio.  BLAS runs on one thread.  Clone both trees into one directory, as above: a `__pycache__` in
one tree only moves the reading (see tools/bench_record.py).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SIDES = ("base", "change")
RESAMPLES = 2_000  # bootstrap draws of the median ratio


def load_module(name, path, package=None):
    """The file `path` imported as module `name`; as a package when `package`
    lists where its submodules are."""
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=package)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # before it runs: its relative imports look it up
    spec.loader.exec_module(module)
    return module


def load_tree(tree, name):
    """`tree`'s `src/ramdqn`, imported as the package `name`."""
    package = os.path.join(tree, "src", "ramdqn")
    return load_module(name, os.path.join(package, "__init__.py"), [package])


def setup(ramdqn, op, config):
    """`op` on `config` as (run, state): `run()` does one round's timed work and
    returns what it reports; `state` holds the network and optimizer it uses."""
    state = ramdqn.TrainingState(config)
    if op == "test":
        return (lambda: vars(ramdqn.run_test_period(state.net, config.env_name, config.hyper,
                                                    config.seed)), state)
    state.warmup()
    return lambda: ramdqn.run_training_epoch(state, config.hyper.steps_per_epoch), state


def timed(run, state):
    """One round: its seconds, and every fact that the two trees must share after it."""
    start = time.perf_counter()
    reported = run()
    seconds = time.perf_counter() - start
    return seconds, {"reports": reported, "parameters": state.net.flat.tobytes(),
                     "accumulators": state.opt_state.accumulator.tobytes()}


def run_ab(args, workloads):
    """The A/B in this process, loading `args.load_first` first; its JSON line's fields."""
    workload = workloads.WORKLOADS[args.workload]
    trees = {}
    for side in SIDES if args.load_first == "base" else SIDES[::-1]:
        ramdqn = load_tree(getattr(args, side), f"ramdqn_{side}")
        config = workloads.build_config(ramdqn, workload, seed=1, seconds=1)
        trees[side] = setup(ramdqn, args.op, config)
    ratios, wins = [], 0
    for n in range(1, args.rounds + 1):
        seconds, facts = {}, {}
        for side in SIDES if n % 2 else SIDES[::-1]:
            seconds[side], facts[side] = timed(*trees[side])
        differ = [key for key, value in facts["base"].items() if value != facts["change"][key]]
        if differ:
            sys.exit(f"ab: round {n}: the trees' {', '.join(differ)} differ, so they do not "
                     f"compute the same bits")
        ratios.append(seconds["base"] / seconds["change"])
        wins += seconds["change"] < seconds["base"]
    draws = random.Random(0)
    medians = [statistics.median(draws.choices(ratios, k=len(ratios))) for _ in range(RESAMPLES)]
    cuts = statistics.quantiles(medians, n=40)  # every 2.5%
    return {"op": args.op, "workload": args.workload, "load_first": args.load_first,
            "rounds": args.rounds, "median_ratio": statistics.median(ratios), "wins": wins,
            "ci95": [cuts[0], cuts[-1]]}


def main():
    # perfbench's workload table imports no numpy, which must load after BLAS is pinned.
    workloads = load_module("ab_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the tree the ratios are against")
    parser.add_argument("--change", required=True)
    parser.add_argument("--op", required=True, choices=("test", "train"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--rounds", type=int, default=200)
    # How the script re-runs itself: one A/B, in this process, loading this tree first.
    parser.add_argument("--load-first", choices=SIDES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    for side in SIDES:
        if not os.path.isfile(os.path.join(getattr(args, side), "src", "ramdqn", "__init__.py")):
            parser.error(f"--{side} {getattr(args, side)} holds no src/ramdqn package")
    if args.rounds < 1:
        parser.error(f"--rounds must be a positive integer, got {args.rounds}")
    os.environ.update(BLAS_ONE_THREAD)  # before the trees load numpy; children inherit it
    if args.load_first:
        print(json.dumps(run_ab(args, workloads)), flush=True)
        return 0
    for first in SIDES:
        code = subprocess.run([sys.executable, os.path.abspath(__file__), *sys.argv[1:],
                               "--load-first", first]).returncode
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
