"""One benchmark process: set up a workload, optionally run it, report JSON.

run.py starts this script in a fresh interpreter with `src` on PYTHONPATH:

    python3 perfbench/worker.py --mode {setup,run,trace} --workload NAME
        --seed N --seconds S --out-dir DIR

`setup` stops after the replay warm-up; `run` also runs the protocol (epochs
of training, each followed by a test period and a checkpoint save that is
loaded back and compared); `trace` runs it with every layer's entry points
wrapped by tracing.Tracer.  Set-up and every phase are timed raw and
scaled to the reference speed of speed.py.  The last line of stdout is one
JSON object.
"""

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback

import workloads


def current_rss_bytes():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def replay_facts(replay):
    """Digest of the stored transitions, and array bytes per transition with
    each array reachable from `contents()` counted once, by identity."""
    h = hashlib.blake2b(digest_size=16)
    seen = set()
    nbytes = 0
    items = replay.contents()
    for t in items:
        h.update(repr((t.action, t.reward, t.terminal)).encode())
        for inputs in (t.state, t.next_state):
            for key in sorted(inputs):
                arr = inputs[key]
                h.update(key.encode())
                h.update(arr.tobytes())
                if id(arr) not in seen:
                    seen.add(id(arr))
                    nbytes += arr.nbytes
    return h.hexdigest(), nbytes / max(len(items), 1)


def params_round_trip(ramdqn, net, ckpt):
    """True when the checkpoint's parameters equal the live network's, bit for bit."""
    twin = copy.deepcopy(net)
    for p in twin.params:
        for arr in (p or {}).values():
            arr.fill(float("nan"))
    ramdqn.load_params_into(twin, ckpt)
    return all(
        (a is None) == (b is None) and
        (a is None or all(a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes()
                          for k in a))
        for a, b in zip(net.params, twin.params))


def machine_facts(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/status") as f:
        threads = int(f.read().split("Threads:")[1].split()[0])
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "process_threads": threads,
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_protocol(ramdqn, np, state, config, ckpt_path):
    """Epochs of training, each followed by a test period and a checkpoint
    save, in the order `run_experiment` uses them.  Every checkpoint is
    loaded back and compared with the live network outside the timed span.
    Each phase time is kept raw and scaled to the reference speed (speed.py)."""
    import speed
    from ramdqn import harness

    hyper = config.hyper
    planned = config.epochs * (hyper.steps_per_epoch + hyper.test_steps + 2)
    phases = ("train_s", "test_s", "save_s", "load_s")
    out = {key: [] for key in phases}
    out["raw"] = {key: [] for key in phases}
    out.update(scores=[], losses=[], errors=[])
    done = failed = 0
    clock = speed.Clock()
    try:
        for epoch in range(1, config.epochs + 1):
            clock.skip()
            loss = harness.run_training_epoch(state, hyper.steps_per_epoch)
            laps = [clock.lap()]
            test_seed = int(np.random.SeedSequence((config.seed, 7781, epoch)).generate_state(1)[0])
            report = harness.run_test_period(state.net, config.env_name, hyper,
                                             seed=test_seed, epoch=epoch, mean_loss=loss)
            laps.append(clock.lap())
            harness.checkpoint_save(state, ckpt_path)
            laps.append(clock.lap())
            ckpt = harness.checkpoint_load(ckpt_path)
            laps.append(clock.lap())
            same = params_round_trip(ramdqn, state.net, ckpt)
            done += hyper.steps_per_epoch + hyper.test_steps + 2

            for key, (raw, scaled) in zip(phases, laps):
                out[key].append(scaled)
                out["raw"][key].append(raw)
            out["losses"].append(loss)
            out["scores"].append(report.avg_score)
            if not math.isfinite(loss):
                failed += hyper.steps_per_epoch
                out["errors"].append(f"epoch {epoch}: mean loss {loss}")
            if not (math.isfinite(report.avg_score) and report.avg_score >= 0):
                failed += hyper.test_steps
                out["errors"].append(f"epoch {epoch}: test score {report.avg_score}")
            if not same:
                failed += 1
                out["errors"].append(f"epoch {epoch}: checkpoint parameters differ from the network")
    except Exception:
        failed += planned - done
        out["errors"].append(traceback.format_exc())
    # run_s covers training, test periods and checkpoint saves
    out["run_s"] = sum(out["train_s"] + out["test_s"] + out["save_s"])
    out["raw"]["run_s"] = sum(out["raw"]["train_s"] + out["raw"]["test_s"] + out["raw"]["save_s"])
    out["speed_index"] = clock.speed_index()
    out["attempted"] = planned
    out["failed"] = failed
    out["checkpoint_bytes"] = os.path.getsize(ckpt_path) if os.path.exists(ckpt_path) else 0
    curve = [[i + 1, float(s).hex(), float(l).hex()]
             for i, (s, l) in enumerate(zip(out["scores"], out["losses"]))]
    out["curve_digest"] = hashlib.blake2b(json.dumps(curve).encode(), digest_size=16).hexdigest()
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    t_setup = time.perf_counter()  # setup_s starts before ramdqn (and numpy) is imported
    import ramdqn
    import speed  # after ramdqn, so that numpy's import counts as ramdqn's
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    config = workloads.build_config(ramdqn, workload, args.seed, args.seconds)
    state = ramdqn.TrainingState(config)
    t_ref = time.perf_counter()
    ref_before = speed.measure()
    ref_cost = time.perf_counter() - t_ref
    rss0 = current_rss_bytes()
    t_warm = time.perf_counter()
    state.warmup()
    t_end = time.perf_counter()
    rss1 = current_rss_bytes()
    ref_after = speed.measure()
    setup_raw = t_end - t_setup - ref_cost

    import numpy as np
    pushed = len(state.replay)
    digest, array_bytes = replay_facts(state.replay)
    result = {
        "setup_s": setup_raw * speed.REFERENCE_S / ((ref_before + ref_after) / 2),
        "setup_raw_s": setup_raw,
        "warmup_s": t_end - t_warm,
        "replay_digest": digest,
        "replay.array_bytes_per_transition": array_bytes,
        "replay.rss_bytes_per_transition": (rss1 - rss0) / pushed,
    }
    if args.mode != "setup":
        ckpt_path = os.path.join(args.out_dir, "last.ckpt")
        result.update(run_protocol(ramdqn, np, state, config, ckpt_path))
        result["facts"] = machine_facts(np)
    if args.mode == "trace":
        spans = tracer.arrays()
        np.savez(os.path.join(args.out_dir, "spans.npz"), **spans)
        metrics, calls, missing = tracing.layer_metrics(spans, state.net)
        result["layers"] = metrics
        result["calls"] = calls
        if missing:
            result["errors"].append("coverage guard: no calls recorded for " + ", ".join(missing))
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
