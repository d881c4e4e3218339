"""Benchmark of ramdqn's training loop, driven only through its public API.

    python3 perfbench/run.py --workload {catch_ram,catch_nips,diver_fill}
        --seed N --seconds S --trace {0,1}

Run it from the root of a ramdqn checkout; it imports `ramdqn` from ./src.
Each run is a closed loop: one process, one agent, each action waiting for
the previous one.  Every process this script starts is a fresh interpreter
running worker.py, so import and allocation costs are paid as a user pays
them.  With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer ones; the last line of stdout is one JSON object.  End-to-end
times are scaled to a reference host speed (speed.py).  Detail lines
before it give the machine facts, the determinism digests and the figures
that are reported but not gated.  Outputs go to .bench_build/perfbench/.
The exit code is 0 only when every check passed; 2 on a usage error.
"""

import argparse
import glob
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BUDGET_S = 170.0   # every invocation must end within 180 s
SETUP_SAMPLES = 3  # fresh processes whose set-up times give the median setup_s
# BLAS runs on one thread, so results do not depend on the machine's core
# count.  On the 2-vCPU reference sandbox two OpenBLAS threads also made
# training 15-25% slower and noisier: they spin on the second core between
# the small matmuls of a train step.
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def source_digest(root):
    """Digest of the ramdqn sources and of this benchmark, which together fix
    what a run computes; the checkout need not be a git repository."""
    h = hashlib.blake2b(digest_size=16)
    paths = glob.glob(os.path.join(root, "src", "ramdqn", "*.py")) + glob.glob(
        os.path.join(HERE, "*.py"))
    for path in sorted(paths):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_commit(root):
    """HEAD's commit from .git, read directly so nothing outside the checkout is searched."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def spawn(mode, args, run_dir, deadline):
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(BLAS_ONE_THREAD)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out-dir", run_dir]
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError(f"time budget of {BUDGET_S:.0f} s used up before the {mode} worker")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within the time budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def check_digest(store_path, key, digest):
    """Compare a curve digest with the one recorded for the same key, or record it."""
    try:
        with open(store_path) as f:
            store = json.load(f)
    except FileNotFoundError:
        store = {}
    if key in store:
        if store[key] == digest:
            return True, "matches the digest recorded earlier"
        return False, f"the digest recorded earlier is {store[key]}"
    store[key] = digest
    tmp = store_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(store, f, indent=1, sort_keys=True)
    os.replace(tmp, store_path)
    return True, "first run of this seed and code; recorded"


def metric(value, unit):
    return {"value": value, "unit": unit}


# Per-layer metrics in BENCHMARK.json order, with their units.
PER_LAYER_UNITS = {
    "envs.frame_skip_step_us_p50": "us", "envs.frames_per_action": "count",
    "envs.reset_us_p50": "us", "envs.phi_us_p50": "us", "envs.scale_ram_us_p50": "us",
    "replay.push_us_p50": "us", "replay.sample_us_p50": "us",
    "replay.array_bytes_per_transition": "B", "replay.rss_bytes_per_transition": "B",
    "agents.train_step_ms_p50": "ms", "agents.train_step_ms_p99": "ms",
    "agents.select_action_us_p50": "us", "agents.select_action_us_p99": "us",
    "agents.greedy_share": "ratio", "agents.stack_ms_p50": "ms",
    "tensor_core.forward_act_us_p50": "us", "tensor_core.forward_online_ms_p50": "ms",
    "tensor_core.forward_target_ms_p50": "ms", "tensor_core.backward_ms_p50": "ms",
    "tensor_core.forward_calls_per_train_step": "count",
    "tensor_core.macs_per_train_step": "count", "tensor_core.gflops": "GFLOP/s",
    "tensor_core.train_step_share": "ratio",
    "optim.rmsprop_ms_p50": "ms", "optim.q_loss_grad_us_p50": "us",
    "harness.warmup_s": "s", "harness.test_period_s": "s",
    "harness.checkpoint_save_ms_p50": "ms", "harness.checkpoint_load_ms_p50": "ms",
    "harness.checkpoint_bytes": "B",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
}


def end_to_end(workload, setups, run, scale=True):
    """The end-to-end metrics from times scaled to the reference speed
    (speed.py), or from the raw wall times with scale=False."""
    times = run if scale else run["raw"]
    setup_key = "setup_s" if scale else "setup_raw_s"
    return {
        "setup_s": metric(statistics.median(s[setup_key] for s in setups), "s"),
        "run_s": metric(times["run_s"], "s"),
        "train_steps_per_s": metric(
            workload.train_steps * len(times["train_s"]) / sum(times["train_s"]), "1/s"),
        "test_steps_per_s": metric(
            workload.test_steps * len(times["test_s"]) / sum(times["test_s"]), "1/s"),
        "peak_rss_mib": metric(run["peak_rss_mib"], "MiB"),
    }


def per_layer(untraced, traced):
    """Span-derived figures come from the traced run.  Harness phases and
    replay bytes need no spans, so they come from the untraced run beside it.
    Like the spans, the harness phases are raw wall times; the overhead
    compares scaled times, so that host drift between the runs cancels."""
    values = dict(traced["layers"])
    raw = untraced["raw"]
    values.update({
        "replay.array_bytes_per_transition": untraced["replay.array_bytes_per_transition"],
        "replay.rss_bytes_per_transition": untraced["replay.rss_bytes_per_transition"],
        "harness.warmup_s": untraced["warmup_s"],
        "harness.test_period_s": statistics.median(raw["test_s"]),
        "harness.checkpoint_save_ms_p50": statistics.median(raw["save_s"]) * 1e3,
        "harness.checkpoint_load_ms_p50": statistics.median(raw["load_s"]) * 1e3,
        "harness.checkpoint_bytes": untraced["checkpoint_bytes"],
        "trace.overhead": traced["run_s"] / untraced["run_s"] - 1.0,
    })
    return {name: metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ramdqn", "__init__.py")):
        print("perfbench: error: no ramdqn sources at ./src/ramdqn; "
              "run from the root of a ramdqn checkout", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + BUDGET_S
    workload = workloads.WORKLOADS[args.workload]
    out_root = os.path.join(root, ".bench_build", "perfbench")
    run_dir = os.path.join(out_root, f"{args.workload}-s{args.seed}")
    os.makedirs(run_dir, exist_ok=True)
    print(f"perfbench: workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"epochs {workloads.epochs_for(workload, args.seconds)} trace {args.trace}")
    try:
        if args.trace:
            runs = [spawn("run", args, run_dir, deadline), spawn("trace", args, run_dir, deadline)]
            setups = runs
        else:
            setups = [spawn("setup", args, run_dir, deadline) for _ in range(SETUP_SAMPLES - 1)]
            runs = [spawn("run", args, run_dir, deadline)]
            setups.append(runs[0])
    except BenchError as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 1
    finally:
        for path in glob.glob(os.path.join(run_dir, "*.ckpt")):
            os.remove(path)
    main_run = runs[0]

    errors = [e for r in runs for e in r["errors"]]
    if len({s["replay_digest"] for s in setups}) != 1:
        errors.append("replay contents after warm-up differ between processes with the same seed")
    if len({r["curve_digest"] for r in runs}) != 1:
        errors.append("traced and untraced runs of the same seed gave different curves")
    facts = dict(main_run["facts"], git_commit=git_commit(root),
                 source_digest=source_digest(root), seed=args.seed)
    key = "/".join(str(x) for x in (args.workload, args.seed, args.seconds, facts["source_digest"],
                                    facts["python"], facts["numpy"], facts["blas"], facts["nproc"]))
    same, note = check_digest(os.path.join(out_root, "digests.json"), key, main_run["curve_digest"])
    if not same:
        errors.append("curve digest differs from an earlier run with the same seed and code")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if not same:
        failed = attempted

    if args.trace:
        metrics = per_layer(main_run, runs[1])
    else:
        metrics = end_to_end(workload, setups, main_run)

    print("perfbench: machine " + json.dumps(facts, sort_keys=True))
    if not args.trace:
        print("perfbench: setup_s samples " + ", ".join(f"{s['setup_s']:.4f}" for s in setups))
    for name, m in metrics.items():
        print(f"perfbench: {name} {m['value']:.6g} {m['unit']}")
    raw = end_to_end(workload, setups, main_run, scale=False)
    print("perfbench: unscaled wall-clock " + ", ".join(
        f"{name} {m['value']:.6g} {m['unit']}" for name, m in raw.items() if name != "peak_rss_mib"))
    print(f"perfbench: speed index {main_run['speed_index']:.4f} "
          "(median reference kernel speed over its nominal speed; 1 at the reference)")
    scores = main_run["scores"]
    print(f"perfbench: test_score {scores[-1] if scores else float('nan'):.6g} points "
          f"(last test period; per-epoch {', '.join(f'{s:.4g}' for s in scores)})")
    print(f"perfbench: failed_ops_share {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    print(f"perfbench: curve digest {main_run['curve_digest']} ({note})")
    if args.trace:
        print("perfbench: calls " + json.dumps(runs[1]["calls"], sort_keys=True))
    for e in errors:
        print(f"perfbench: FAILED: {e}", file=sys.stderr)
    correct = not errors and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(out_root, "results.jsonl"), "a") as f:
        f.write(json.dumps(dict(result, workload=args.workload, trace=args.trace,
                                seconds=args.seconds, facts=facts,
                                setup_s=[s["setup_s"] for s in setups],
                                train_s=main_run["train_s"], test_s=main_run["test_s"],
                                raw=dict(main_run["raw"],
                                         setup_s=[s["setup_raw_s"] for s in setups]),
                                speed_index=main_run["speed_index"],
                                scores=main_run["scores"])) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
