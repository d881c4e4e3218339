import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_bench_record_refuses_a_checkout_named_twice(tmp_path):
    # One list held both its runs: two identical records of 2N runs and a 1.0 ratio.
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), "--workload", "catch_ram",
         "--seeds", "1", "--seconds", "1", "--checkout", str(ROOT), "--checkout", str(ROOT),
         "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert f"checkout {ROOT} is named twice" in proc.stderr
    assert "second clone" in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["5-3", "1,9-8"])
def test_bench_record_refuses_a_range_that_gives_no_seed(tmp_path, seeds):
    # No run, then an IndexError in record() on the empty list of runs.
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), "--workload", "catch_ram",
         "--seeds", seeds, "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "gives no seed" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPECS = {"test_steps_per_s": {"better": "higher", "bound": 0.25},
         "run_s": {"better": "lower", "bound": 0.25}}
PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.5, 99.5, 100.0]  # IQR 1.75


@pytest.mark.parametrize("head, shown", [
    ([v * 1.2 for v in PARENT], True),                               # 10/10, far apart
    ([v * 1.2 for v in PARENT[:9]] + [PARENT[9] - 1], True),         # 9/10
    ([v * 1.2 for v in PARENT[:8]] + [PARENT[8] - 1, PARENT[9] - 1], False),  # 8/10
    ([v + 0.01 for v in PARENT], False),                             # 10/10, within the IQR
    ([v * 0.8 for v in PARENT], False),                              # worse on every seed
], ids=["all", "nine", "eight", "close", "worse"])
def test_compare_shows_a_gain_only_by_nine_tenths_of_the_seeds_and_the_iqr(capsys, head, shown):
    tool = bench_record()
    for name, spec in SPECS.items():
        # run_s falls as the rate rises: the same pairs, the other way up.
        base_values = PARENT if spec["better"] == "higher" else [1e4 / v for v in PARENT]
        head_values = head if spec["better"] == "higher" else [1e4 / v for v in head]
        base = {"metrics": {name: tool.summary(base_values, "u")}}
        tool.compare(base, {"metrics": {name: tool.summary(head_values, "u")}}, {name: spec})
        first, verdict = capsys.readouterr().out.splitlines()
        assert first.startswith(f"{name}: ") and "seeds better, median ratio" in first
        assert " its bound: " in first
        assert verdict.startswith(f"{name}: {'gain shown' if shown else 'no gain shown'} (")


def ab_tool():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_ab(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), *args],
                          capture_output=True, text=True, timeout=300)


def test_ab_loads_each_tree_as_a_module_of_its_own():
    tool, names = ab_tool(), ("ramdqn_ab_first", "ramdqn_ab_second")
    try:
        first, second = (tool.load_tree(str(ROOT), name) for name in names)
        assert first is not second and first.__name__ == names[0]
        assert first.envs is not second.envs and first.scale_ram is not second.scale_ram
        assert first.tensor_core.Workspace is not second.tensor_core.Workspace
        assert first.envs.__file__ == str(ROOT / "src" / "ramdqn" / "envs.py")
    finally:
        for key in [k for k in sys.modules if k.split(".")[0] in names]:
            del sys.modules[key]


def test_ab_fails_when_the_trees_compute_different_bits(tmp_path):
    # A scale_ram of 1/255 trains other parameters from the first epoch on.
    shutil.copytree(ROOT / "src" / "ramdqn", tmp_path / "src" / "ramdqn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    envs = tmp_path / "src" / "ramdqn" / "envs.py"
    envs.write_text(envs.read_text() + "\n\ndef scale_ram(raw):\n"
                    "    return np.multiply(raw, np.float32(1 / 255), dtype=np.float32)\n")
    proc = run_ab("--base", str(ROOT), "--change", str(tmp_path), "--op", "train",
                  "--workload", "catch_ram", "--rounds", "1")
    assert proc.returncode == 1
    assert proc.stderr == ("ab: round 1: the trees' reports, parameters, accumulators differ, "
                           "so they do not compute the same bits\n")
    assert proc.stdout == ""


def test_ab_prints_one_line_per_load_order():
    proc = run_ab("--base", str(ROOT), "--change", str(ROOT), "--op", "test",
                  "--workload", "catch_ram", "--rounds", "2")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [line["load_first"] for line in lines] == ["base", "change"]
    for line in lines:
        assert line.keys() == {"op", "workload", "load_first", "rounds", "median_ratio", "wins",
                               "ci95"}
        assert (line["op"], line["workload"], line["rounds"]) == ("test", "catch_ram", 2)
        assert 0 <= line["wins"] <= 2
        low, high = line["ci95"]
        assert 0 < low <= line["median_ratio"] <= high


def test_ab_times_the_warmup_on_a_fresh_state_each_round():
    proc = run_ab("--base", str(ROOT), "--change", str(ROOT), "--op", "warmup",
                  "--workload", "catch_ram", "--rounds", "2")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(line["op"], line["load_first"], line["rounds"]) for line in lines] == [
        ("warmup", "base", 2), ("warmup", "change", 2)]


def test_ab_times_train_steps_on_a_fixed_ring():
    proc = run_ab("--base", str(ROOT), "--change", str(ROOT), "--op", "step",
                  "--workload", "catch_nips", "--rounds", "2")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(line["op"], line["load_first"], line["rounds"]) for line in lines] == [
        ("step", "base", 2), ("step", "change", 2)]
