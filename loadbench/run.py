"""Repository benchmark entry point: one command per workload.

    python3 loadbench/run.py --workload dashboard --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Inputs are built from ``--seed``;
every timed answer is checked against a reference engine.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The full
run record (phases, host steal, load average, sample counts, wrong
answers) is written to ``loadbench/.work/records/`` and summarised on
standard error.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("dashboard", "olap", "ingest")


@dataclasses.dataclass(frozen=True)
class Config:
    workload: str
    seed: int
    seconds: float
    trace: int
    size: str
    perturb: bool
    bench_dir: str
    workdir: str


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for the self-tests",
    )
    parser.add_argument(
        "--perturb-reference", action="store_true",
        help="nudge one reference answer (self-test of the answer check)",
    )
    return parser


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _stop_helper_processes() -> None:
    """Stop child processes left by a failed run, then the resource tracker.

    A worker left running (a run that failed before closing its fleet)
    keeps the tracker's pipe open, and the tracker would never exit.
    multiprocessing otherwise leaves the tracker to exit after this
    process.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    records = BENCH_DIR / ".work" / "records"
    workdir.mkdir(parents=True, exist_ok=True)
    records.mkdir(parents=True, exist_ok=True)
    cfg = Config(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        size=args.size,
        perturb=args.perturb_reference,
        bench_dir=str(BENCH_DIR),
        workdir=str(workdir),
    )
    started = time.perf_counter()
    try:
        module = importlib.import_module(args.workload)
        metrics, workload = module.run(cfg)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_helper_processes()
    tally = workload.tally
    correct = tally.wrong == 0 and all(value == value for value, _ in metrics.values())
    line = {
        "correct": correct,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    record = {
        "command": [sys.executable, *sys.argv],
        "config": dataclasses.asdict(cfg),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "wall_s": time.perf_counter() - started,
        "wrong": int(tally.wrong),
        "result": line,
        "record": workload.record,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    with open(records / name, "w") as handle:
        json.dump(record, handle, indent=1, default=_jsonable)
    print(
        f"{args.workload} seed={args.seed} wrong={tally.wrong} "
        f"record={records / name}",
        file=sys.stderr,
    )
    print(json.dumps(line))
    return 0


def _jsonable(value):
    import numpy as np

    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    return str(value)


if __name__ == "__main__":
    sys.exit(main())
