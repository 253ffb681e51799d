"""Smoke test of the benchmark itself: every workload, tiny pools.

Run as ``python3 perfbench/smoke_test.py`` or with pytest. It checks the
result schema, that every metric BENCHMARK.json names is emitted with its
unit, and that plan.json covers the same workloads and per-layer metrics.
It never checks a timing.
"""

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])


def test_plan_matches_benchmark():
    bench = load_json(ROOT / "BENCHMARK.json")
    plan = load_json(HERE / "plan.json")
    assert set(plan["workloads"]) == {w["name"] for w in bench["workloads"]}
    mapped = [entry["metric"] for entry in plan["layer_map"]]
    assert sorted(mapped) == sorted(m["name"] for m in bench["per_layer"])
    end_to_end = {m["name"] for m in bench["end_to_end"]} | {"fail_frac"}
    for entry in plan["layer_map"]:
        assert set(entry["moves"]) <= end_to_end, entry["metric"]


def test_every_workload_emits_every_metric():
    bench = load_json(ROOT / "BENCHMARK.json")
    for workload in (w["name"] for w in bench["workloads"]):
        check_result(run_tiny(workload, 0), bench["end_to_end"])
        check_result(run_tiny(workload, 1), bench["per_layer"])


def test_no_result_without_sources():
    """In a directory holding only BENCHMARK.json and perfbench/ the
    benchmark exits non-zero and prints no result."""
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        bare = Path(tmp)
        (bare / "perfbench").mkdir()
        for path in HERE.iterdir():
            if path.is_file():
                (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
        (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hierarchy",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    test_plan_matches_benchmark()
    test_every_workload_emits_every_metric()
    test_no_result_without_sources()
    print("smoke test passed")
