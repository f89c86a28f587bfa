"""The benchmark's own tests.

Run from the repository root (the tier-1 suite does not collect them):

    python3 -m pytest perfbench -q -p no:cacheprovider

They check that the traced work counts repeat exactly for one seed, that the
metrics printed match BENCHMARK.json, and that a directory without the
package source gives no result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, seed=5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_matches_the_metrics_printed():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {**spans.METRICS, "trace.overhead_s": "s"}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_work_counts_repeat_for_a_seed(workload):
    first, second = result(bench(workload, 1)), result(bench(workload, 1))
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [name for name, unit in spans.METRICS.items() if unit not in spans.TIMING_UNITS]
    assert {k: first["metrics"][k]["value"] for k in counts} == {k: second["metrics"][k]["value"] for k in counts}


def test_end_to_end_result():
    out = result(bench("census", 0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 4
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.E2E
    assert out["metrics"]["ok_frac"]["value"] == 1


def test_no_result_without_the_package_source():
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("census", 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
