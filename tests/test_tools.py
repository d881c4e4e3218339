import subprocess
import sys
from pathlib import Path

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
