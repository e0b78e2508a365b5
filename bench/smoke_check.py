"""Smoke check of the benchmark itself, at tiny problem sizes (about half a minute).

    python3 bench/smoke_check.py

For every workload in BENCHMARK.json it runs ``run.py --scale tiny`` with
``--trace 0`` on the default seed and on a second seed, and with ``--trace 1``
on the default seed.  Each result line must report exactly the metrics
BENCHMARK.json names for that mode, with their units, and every op must pass
its checks.  Last, the benchmark must refuse to run, with a non-zero exit and
no result line, in a directory that holds only BENCHMARK.json and the
benchmark's own files.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 170


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_result(label: str, done: subprocess.CompletedProcess, expected: dict[str, str]) -> None:
    if done.returncode != 0:
        raise SystemExit(f"{label}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        failures = [line for line in done.stdout.splitlines() if line.startswith("# FAIL")]
        raise SystemExit(f"{label}: ops failed\n" + "\n".join(failures))
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != expected:
        raise SystemExit(f"{label}: metrics {reported} != BENCHMARK.json {expected}")
    values = [m["value"] for m in result["metrics"].values()]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        raise SystemExit(f"{label}: non-finite metric values")
    print(f"ok  {label}: {result['attempted']} ops, {len(reported)} metrics")


def check_refuses_without_program() -> None:
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = bench(bare, "--workload", "clt", "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        raise SystemExit(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
    print(f"ok  bare directory: exit {done.returncode}, {done.stderr.strip()}")


def main() -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {
        "0": {m["name"]: m["unit"] for m in config["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in config["per_layer"]},
    }
    for workload in (w["name"] for w in config["workloads"]):
        for trace, seed in (("0", "1"), ("0", "2"), ("1", "1")):
            done = bench(ROOT, "--workload", workload, "--seed", seed, "--seconds", "1",
                         "--trace", trace, "--scale", "tiny")
            check_result(f"{workload} trace {trace} seed {seed}", done, modes[trace])
    check_refuses_without_program()


if __name__ == "__main__":
    main()
