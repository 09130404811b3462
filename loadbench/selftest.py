"""Self-tests of the benchmark: tiny inputs, every metric, every check.

    python3 -m pytest -q loadbench/selftest.py

Not named ``test_*.py`` on purpose: the repository's test suite does
not collect it, so the suite never starts the TCP fleet or spends the
minute these runs take.
"""

from __future__ import annotations

import functools
import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SEED = 7


@functools.lru_cache(maxsize=None)
def _run(workload: str, trace: int, *extra: str, attempt: int = 0) -> dict:
    """One tiny run (``attempt`` tells repeats apart); line plus run record."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "2", "--trace", str(trace),
        "--size", "tiny", *extra,
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    record_path = BENCH_DIR / ".work" / "records" / f"{workload}-seed{SEED}-trace{trace}-tiny.json"
    record = json.loads(record_path.read_text())
    return {"line": line, "record": record}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    line = _run(workload, trace)["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        reported = line["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fixed_work_is_identical_for_the_same_seed(workload):
    first = _run(workload, 0)["line"]["metrics"]
    second = _run(workload, 0, attempt=1)["line"]["metrics"]
    for name in ("rel_err_median", "archive_mb"):
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_perturbed_reference_counts_as_wrong(workload):
    run = _run(workload, 0, "--perturb-reference")
    assert run["line"]["correct"] is False
    assert run["line"]["failed"] >= 1
    assert run["record"]["wrong"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / BENCH_DIR.name,
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    done = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
