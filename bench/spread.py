"""Run-to-run spread of the benchmark: ten seeds of every workload.

    python3 bench/spread.py [--out FILE]

For every workload in BENCHMARK.json, runs ``run.py`` once per seed 1 .. 10
with ``--trace 0`` and the file's ``run_seconds``, then prints, per end-to-end
metric, the median, the quartiles and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median.  A spread at or above a third of the metric's bound is flagged;
``setup_s`` is reported but not held to it.  The raw wall-clock counterparts
of the scaled times, and the host speed, are reported beside them.  One ``--trace 1`` run per
workload on seed 1 adds the per-layer numbers.  ``--out`` writes everything,
with the environment, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))


RAW = ("raw_setup_s", "raw_wall_s", "raw_throughput_per_s", "host_speed")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    lines = done.stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("# env "))[len("# env "):])
    result = json.loads(lines[-1])
    fields = [line[2:].split() for line in lines if line.startswith("# ")]
    result["raw"] = {f[0]: float(f[1]) for f in fields if f[0] in RAW}
    return result, env


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in config["workloads"]):
        results = []
        for seed in summary["seeds"]:
            result, env = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
            results.append(result)
        entry = {"end_to_end": {}, "raw": {}}
        for name, bound in (*bounds.items(), *((raw, None) for raw in RAW)):
            values = [r["metrics"][name]["value"] if bound else r["raw"][name] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if name == "setup_s" or not bound or spread < bound / 3 else "  <-- above bound/3"
            steady = steady and not flag
            print(f"{workload:<6} {name:<20} median {median:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f} (bound {bound}){flag}")
            entry["end_to_end" if bound else "raw"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": values,
            }
        layered, env = run_once(workload, 1, seconds, 1)
        entry["per_layer_seed_1"] = {k: v["value"] for k, v in layered["metrics"].items()}
        summary["workloads"][workload] = entry
        summary["env"] = env
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
