"""Record benchmark runs: run `perfbench/run.py --trace 0` over a list of
seeds in one or more checkouts and append one record per checkout to
`BENCH_<workload>.json`.

    python3 tools/bench_record.py --workload catch_ram --seeds 31-40 \
        --checkout ../parent --checkout .

With several checkouts the runs alternate, seed by seed, and the order
flips on every other seed, so that drift of the host's speed falls on all
of them alike.  Each record holds the median and quartiles of every
end-to-end metric that BENCHMARK.json declares, each run's value, the
commit and source digest of the code that ran, and the machine facts that
perfbench prints.  With two checkouts, the script also prints how many
seeds the second won on each metric, the ratio of the medians, and whether
the second's median is worse than the first's by more than the metric's
`bound` in BENCHMARK.json: by that share of the first's median.  A checkout
named twice exits 2 before any run; to compare a commit with itself, clone
it a second time.
perfbench's own outputs go to each checkout's `.bench_build/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MACHINE = "perfbench: machine "


def parse_seeds(text):
    """'31-40' or '1,5,9' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds):
    """One perfbench run: (result JSON, machine facts).  A run whose checks
    failed is kept, with `correct` false; one that reported nothing stops
    the script."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    facts = [json.loads(line[len(MACHINE):]) for line in lines if line.startswith(MACHINE)]
    if proc.returncode not in (0, 1) or not lines or not facts:
        sys.exit(f"bench_record: perfbench failed in {checkout} at seed {seed} "
                 f"(exit code {proc.returncode})")
    return json.loads(lines[-1]), facts[0]


def uncommitted(checkout):
    """True when the checkout's sources differ from its commit, None outside git."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                          cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def summary(values, unit):
    """Median, quartiles and every value of one metric."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "values": values}


def record(runs, checkout, seeds, seconds, metrics):
    facts = dict(runs[0][1])
    source = {key: facts.pop(key) for key in ("git_commit", "source_digest")}
    facts.pop("seed")
    return {
        "commit": source["git_commit"],
        "uncommitted_changes": uncommitted(checkout),
        "source_digest": source["source_digest"],
        "seeds": seeds,
        "seconds": seconds,
        "correct": all(result["correct"] for result, _ in runs),
        "failed_ops": sum(result["failed"] for result, _ in runs),
        "machine": facts,
        "metrics": {name: summary([result["metrics"][name]["value"] for result, _ in runs],
                                  runs[0][0]["metrics"][name]["unit"])
                    for name in metrics},
    }


def compare(base, head, metrics):
    """Per metric: the seeds `head` won on, its median over `base`'s, and
    whether it is worse than `base`'s by more than the metric's `bound`."""
    for name, spec in metrics.items():
        direction, bound = spec["better"], spec["bound"]
        a, b = base["metrics"][name]["values"], head["metrics"][name]["values"]
        wins = sum((y > x) if direction == "higher" else (y < x) for x, y in zip(a, b))
        base_median, head_median = base["metrics"][name]["median"], head["metrics"][name]["median"]
        # How much worse head's median is, as a share of base's; negative when better.
        worse = (head_median - base_median) / base_median * (-1 if direction == "higher" else 1)
        print(f"{name}: {wins}/{len(a)} seeds better, median ratio "
              f"{head_median / base_median:.4f}, medians {base_median:.6g} -> "
              f"{head_median:.6g}, first checkout's interquartile "
              f"range {base['metrics'][name]['q3'] - base['metrics'][name]['q1']:.4g}, "
              f"{'PAST' if worse > bound else 'within'} its bound: "
              f"{worse:+.1%} worse against {bound:.0%}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--checkout", action="append", default=[],
                        help="a ramdqn checkout to run (repeatable; default: this one)")
    parser.add_argument("--out", help="default: BENCH_<workload>.json at the repo root")
    args = parser.parse_args()
    checkouts = [os.path.realpath(c) for c in args.checkout] or [ROOT]
    for n, checkout in enumerate(checkouts):
        if checkout in checkouts[:n]:  # one list would hold both its runs
            parser.error(f"checkout {checkout} is named twice; to calibrate a commit "
                         f"against itself, run a second clone of it")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}

    runs = {c: [] for c in checkouts}
    for n, seed in enumerate(args.seeds):
        for checkout in checkouts if n % 2 == 0 else checkouts[::-1]:
            runs[checkout].append(run_once(checkout, args.workload, seed, args.seconds))
            result = runs[checkout][-1][0]
            print(f"seed {seed} {checkout}: " + ", ".join(
                f"{name} {m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
    records = [record(runs[c], c, args.seeds, args.seconds, metrics) for c in checkouts]

    out = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    try:
        with open(out) as f:
            bench = json.load(f)
    except FileNotFoundError:
        bench = {"workload": args.workload, "records": []}
    bench["records"].extend(records)
    with open(out + ".tmp", "w") as f:
        json.dump(bench, f, indent=1)
        f.write("\n")
    os.replace(out + ".tmp", out)
    if len(records) == 2:
        compare(records[0], records[1], metrics)
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
