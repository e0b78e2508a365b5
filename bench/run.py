"""Benchmark of the dilutecw command line: run one workload, check it, print its metrics.

Run from anywhere inside a checkout; the program is taken from ``src/``::

    python3 bench/run.py --workload clt --seed 1 --seconds 30 --trace 0

A pass is one fresh interpreter (``passrun.py``) making the workload's list of
``dilutecw.cli.main(argv)`` calls.  Passes repeat until ``--seconds`` is spent
(at least three), and every metric is the median over passes.

* ``--trace 0`` reports the end-to-end metrics: set-up time (median over
  fresh interpreters importing ``dilutecw.cli`` and building the parser, two
  after each pass), the pass's command time, peak RSS and the core command's
  throughput.  Each timed stretch is divided by the host's speed at that
  moment, from a reference kernel timed right before and after it
  (``calibration.py``), because the shared host's own speed swings by more
  than the bounds.  The raw wall-clock figures are printed as ``#`` lines.
* ``--trace 1`` alternates plain passes with traced ones, in which the layer
  functions are wrapped (``tracing.py``), and reports the per-layer metrics.
  The spans are written to ``.bench_work/spans-<workload>-<seed>.json``.

Every call is checked: its exit code, the invariants in ``workloads.py``,
byte-identical output on every pass and repeat (replay), and, for the default
seed, the reference recorded in ``reference.json`` (integers, graph text and
chain CSV exactly, floats to a relative 1e-9).  ``--record`` rewrites that
reference from the current program.  A failed check or exception counts
toward ``failed``; the pass continues.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it, prefixed ``#``,
record the environment (cores, CPU, Python, numpy, git revision) and every
metric with its unit, including the per-command times and ``op_fail_frac``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 1
FLOAT_REL_TOL = 1e-9
MIN_PASSES = 3
SETUP_PROBES_PER_PASS = 2
PASS_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
}

# Per-command seconds: each op's median over its repeats, summed per command.
COMMAND_METRICS = {
    "clt-experiment": "clt_experiment_s",
    "graph-sample": "graph_sample_s",
    "mcmc-run": "mcmc_run_s",
    "exact-partition": "exact_partition_s",
    "exact-moments": "exact_moments_s",
    "asym-predict": "asym_predict_s",
    "series-check": "series_check_s",
}

# Per-layer metric -> (span key, field, unit).  Fields: s, calls, self_s and
# work are span totals per traced pass; ns_per is self_s / work in nanoseconds,
# so work done in a wrapped child (run_chain's table build) is not counted;
# cpu_frac is thread CPU time over span wall time.
LAYER_METRICS = {
    "graph.sample_graph.s": ("graph.sample_graph", "s", "s"),
    "graph.sample_graph.ns_per_cell": ("graph.sample_graph", "ns_per", "ns"),
    "graph.write_graph.s": ("graph.write_graph", "s", "s"),
    "graph.read_graph.s": ("graph.read_graph", "s", "s"),
    "graph.read_graph.ns_per_cell": ("graph.read_graph", "ns_per", "ns"),
    "mcmc.build_update_tables.s": ("mcmc.build_update_tables", "s", "s"),
    "mcmc.build_update_tables.calls": ("mcmc.build_update_tables", "calls", "count"),
    "mcmc.run_chain.s": ("mcmc.run_chain", "s", "s"),
    "mcmc.run_chain.site_updates": ("mcmc.run_chain", "work", "count"),
    "mcmc.run_chain.ns_per_site_update": ("mcmc.run_chain", "ns_per", "ns"),
    "mcmc.run_chain.cpu_frac": ("mcmc.run_chain", "cpu_frac", "frac"),
    "mcmc.quenched_experiment.self_s": ("mcmc.quenched_experiment", "self_s", "s"),
    "exact.enumerate_partition.s": ("exact.enumerate_partition", "s", "s"),
    "exact.enumerate_partition.configs": ("exact.enumerate_partition", "work", "count"),
    "exact.enumerate_partition.ns_per_config": ("exact.enumerate_partition", "ns_per", "ns"),
    "exact.second_moment_log.s": ("exact.second_moment_log", "s", "s"),
    "exact.second_moment_log.calls": ("exact.second_moment_log", "calls", "count"),
    "exact.expected_partition_log.s": ("exact.expected_partition_log", "s", "s"),
    "exact.expected_partition_log.calls": ("exact.expected_partition_log", "calls", "count"),
    "exact.disorder_oracle.s": ("exact.disorder_oracle", "s", "s"),
    "asymptotics.predict_log_partition.s": ("asymptotics.predict_log_partition", "s", "s"),
    "asymptotics.taylor_coefficients_exact.s": ("asymptotics.taylor_coefficients_exact", "s", "s"),
    "asymptotics.remainder_check.s": ("asymptotics.remainder_check", "s", "s"),
    "stats.levy_distance.s": ("stats.levy_distance", "s", "s"),
    "stats.ks_distance.s": ("stats.ks_distance", "s", "s"),
    "stats.summarize.s": ("stats.summarize", "s", "s"),
    "stats.from_samples.s": ("stats.from_samples", "s", "s"),
}
for _command in (*COMMAND_METRICS, "exact-oracle"):
    _name = f"cli.main.self_s.{_command.replace('-', '_')}"
    LAYER_METRICS[_name] = (f"cli.main[{_command}]", "self_s", "s")

PER_LAYER = {
    **{name: "s" for name in COMMAND_METRICS.values()},
    **{name: unit for name, (_key, _field, unit) in LAYER_METRICS.items()},
    "trace.overhead_frac": "frac",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, broken set-up)."""


# ------------------------------------------------------------ environment


def child_env() -> dict[str, str]:
    """Pinned environment for every interpreter the benchmark starts."""
    env = {k: v for k, v in os.environ.items() if k != "DILUTECW_THREADS"}
    cores = str(len(os.sched_getaffinity(0)))
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS=cores,
        OPENBLAS_NUM_THREADS=cores,
        MKL_NUM_THREADS=cores,
    )
    return env


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    revision = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        revision = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "revision": revision,
    }


# ----------------------------------------------------------------- passes


def setup_probes(env: dict, workdir: Path, kernel: tuple[int, int]) -> list[tuple[float, float]]:
    """(raw, scaled) seconds of set-up probes run between two kernel timings."""
    before = calibration.kernel_seconds(*kernel)
    raw = [setup_probe(env, workdir) for _ in range(SETUP_PROBES_PER_PASS)]
    after = calibration.kernel_seconds(*kernel)
    return [(r, calibration.scale(r, before, after)) for r in raw]


def setup_probe(env: dict, workdir: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    argv = [sys.executable, "-c", "import dilutecw.cli as cli; cli.build_parser()"]
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=workdir, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError(f"cannot import dilutecw.cli:\n{done.stderr}")
    return seconds


def run_pass(workload: workloads.Workload, env: dict, workdir: Path, traced: bool) -> dict:
    """One pass in a fresh interpreter; ``report`` is None if the process failed."""
    spec = {
        "trace": traced,
        "kernel": workload.kernel,
        "ops": [
            {"id": op.id, "argv": op.argv, "repeat": 1 if traced else op.repeat, "out": op.out}
            for op in workload.ops
        ],
    }
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "passrun.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            env=env, cwd=workdir, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"wall": time.perf_counter() - start, "report": None, "error": "pass timed out", "spec": spec}
    wall = time.perf_counter() - start
    if done.returncode != 0:
        return {"wall": wall, "report": None, "error": done.stderr[-2000:], "spec": spec}
    return {"wall": wall, "report": json.loads(done.stdout), "error": None, "spec": spec}


# ----------------------------------------------------------------- checks


def _same(value, ref, path: str) -> list[str]:
    """Differences between a payload and its reference: floats to FLOAT_REL_TOL, all else exact."""
    if isinstance(ref, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        if value == ref or abs(value - ref) <= FLOAT_REL_TOL * max(abs(value), abs(ref)):
            return []
        return [f"{path}: {value!r} != reference {ref!r}"]
    if isinstance(ref, dict) and isinstance(value, dict):
        if value.keys() != ref.keys():
            return [f"{path}: keys {sorted(value)} != reference {sorted(ref)}"]
        return [d for k in ref for d in _same(value[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(value, list) and len(value) == len(ref):
        return [d for i, (v, r) in enumerate(zip(value, ref)) for d in _same(v, r, f"{path}[{i}]")]
    if type(value) is not type(ref) or value != ref:
        return [f"{path}: {value!r} != reference {ref!r}"]
    return []


def reference_entry(call: dict) -> dict:
    try:
        return {"code": call["code"], "json": json.loads(call["stdout"])}
    except ValueError:
        return {"code": call["code"], "sha256": call["digest"]}


def check_first_pass(workload, first: dict, workdir: Path, reference: dict | None) -> dict[str, list[str]]:
    """Problems per op in the first pass: exit code, invariants, reference."""
    calls = {op["id"]: op["calls"][0] for op in first["ops"]}
    outs = {}
    for op_id, call in calls.items():
        try:
            outs[op_id] = json.loads(call["stdout"])
        except ValueError:
            pass
    problems = {}
    for op in workload.ops:
        call = calls[op.id]
        found = []
        if call["code"] != 0:
            found.append(f"exit code {call['code']}: {call['stderr'].strip()[-500:]}")
        else:
            out_path = workdir / op.out if op.out else None
            data = out_path.read_bytes() if out_path and out_path.exists() else None
            try:
                found += op.check(call["stdout"], data, outs)
            except (KeyError, TypeError, ValueError, IndexError) as err:
                found.append(f"output malformed: {err!r}")
        if reference is not None:
            ref = reference.get(op.id)
            got = reference_entry(call)
            if ref is None:
                found.append("no reference recorded")
            elif "sha256" in ref:
                if got != ref:
                    found.append("output differs from the reference bytes")
            else:
                found += _same(got, ref, op.id)
        problems[op.id] = found
    return problems


def tally(passes: list[dict], problems: dict[str, list[str]]) -> tuple[int, int]:
    """(attempted, failed) over every call of every pass.  A call fails when its
    op failed the first-pass checks, or it does not replay the first pass
    byte for byte with exit code 0."""
    first = {op["id"]: op["calls"][0] for op in passes[0]["report"]["ops"]}
    attempted = failed = 0
    for p in passes:
        repeats = {op["id"]: op["repeat"] for op in p["spec"]["ops"]}
        if p["report"] is None:
            attempted += sum(repeats.values())
            failed += sum(repeats.values())
            continue
        for op in p["report"]["ops"]:
            for call in op["calls"]:
                attempted += 1
                if problems[op["id"]] or call["code"] != 0 or call["digest"] != first[op["id"]]["digest"]:
                    failed += 1
    return attempted, failed


# ---------------------------------------------------------------- metrics


def command_seconds(report: dict, scaled: bool = False) -> dict[str, float]:
    """Seconds per command in one pass: each op's median call, summed per command.
    ``scaled`` takes each op at the reference host speed, from the kernel
    timings on either side of it."""
    out: dict[str, float] = {}
    for i, op in enumerate(report["ops"]):
        command = op["id"].split(":")[0]
        seconds = statistics.median(c["seconds"] for c in op["calls"])
        if scaled:
            seconds = calibration.scale(seconds, *report["calibration"][i:i + 2])
        out[command] = out.get(command, 0.0) + seconds
    return out


def median_of(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def end_to_end(workload, plain: list[dict], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics, and their raw wall-clock counterparts."""
    ok = [p for p in plain if p["report"]]
    scaled = [command_seconds(p["report"], scaled=True) for p in ok]
    raw = [command_seconds(p["report"]) for p in ok]
    metrics = {
        "setup_s": median_of(s for _r, s in setup),
        "wall_s": median_of(sum(s.values()) for s in scaled),
        "peak_rss_mb": median_of(p["report"]["maxrss_kb"] / 1024 for p in ok),
        "throughput_per_s": workload.core_work / median_of(s[workload.core_op] for s in scaled),
    }
    unscaled = {
        "raw_setup_s": median_of(r for r, _s in setup),
        "raw_wall_s": median_of(sum(s.values()) for s in raw),
        "raw_throughput_per_s": workload.core_work / median_of(s[workload.core_op] for s in raw),
        "host_speed": median_of(calibration.REFERENCE_S / k for p in ok for k in p["report"]["calibration"]),
    }
    return metrics, unscaled


def per_command(plain: list[dict]) -> dict[str, float]:
    ok = [p for p in plain if p["report"]]
    seconds = [command_seconds(p["report"]) for p in ok]
    return {
        metric: median_of(s.get(command, 0.0) for s in seconds)
        for command, metric in COMMAND_METRICS.items()
    }


def first_calls_s(report: dict) -> float:
    return sum(op["calls"][0]["seconds"] for op in report["ops"])


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    per_pass = []
    for before, p in zip(plain, traced):
        if not (before["report"] and p["report"]):
            continue
        totals = tracing.summarize_spans(p["report"]["spans"])
        values = {}
        for name, (key, field, _unit) in LAYER_METRICS.items():
            t = totals.get(key, {"s": 0.0, "calls": 0, "self_s": 0.0, "cpu_s": 0.0, "work": 0})
            if field == "ns_per":
                values[name] = 1e9 * t["self_s"] / t["work"] if t["work"] else 0.0
            elif field == "cpu_frac":
                values[name] = t["cpu_s"] / t["s"] if t["s"] else 0.0
            else:
                values[name] = t[field]
        # A traced pass calls each op once, so it is compared with the first
        # call of each op in the plain pass run just before it, which pays the
        # same first-call costs under the same host conditions.
        values["trace.overhead_frac"] = first_calls_s(p["report"]) / first_calls_s(before["report"]) - 1.0
        per_pass.append(values)
    out = per_command(plain)
    for name in (*LAYER_METRICS, "trace.overhead_frac"):
        out[name] = median_of(v[name] for v in per_pass)
    return out


# ------------------------------------------------------------------- main


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30, help="time to spend on passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                        help="problem sizes; 'tiny' is for the smoke check")
    parser.add_argument("--record", action="store_true",
                        help="rewrite this workload's reference (default seed only)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"--record needs the default seed {DEFAULT_SEED}")
    return args


def load_reference(scale: str, name: str) -> dict | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text())["scales"].get(scale, {}).get(name)


def save_reference(scale: str, name: str, first: dict) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"scales": {}}
    entries = {op["id"]: reference_entry(op["calls"][0]) for op in first["report"]["ops"]}
    data["scales"].setdefault(scale, {})[name] = entries
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def run(args) -> dict:
    if not (ROOT / "src" / "dilutecw" / "cli.py").is_file():
        raise BenchError(f"no program to benchmark: {ROOT / 'src' / 'dilutecw'} is missing")
    workload = workloads.build(args.workload, args.seed, args.scale)
    env = child_env()
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for name, data in workload.inputs.items():
            (workdir / name).write_bytes(data)
        setup_probe(env, workdir)  # fills the bytecode cache; not counted
        calibration.kernel_seconds(*workload.kernel)  # warm-up, not counted
        reference = None if args.record or args.seed != DEFAULT_SEED else load_reference(args.scale, args.workload)
        if args.seed == DEFAULT_SEED and not args.record and reference is None:
            raise BenchError(f"no reference for {args.scale}/{args.workload}; record one with --record")
        plain, traced, setup = [], [], []
        started = time.perf_counter()
        while True:
            plain.append(run_pass(workload, env, workdir, traced=False))
            if len(plain) == 1:
                if plain[0]["report"] is None:
                    raise BenchError(f"first pass failed:\n{plain[0]['error']}")
                problems = check_first_pass(workload, plain[0]["report"], workdir, reference)
            if args.trace:
                traced.append(run_pass(workload, env, workdir, traced=True))
            if not args.trace:
                # Probes spread over the run see the same host conditions as the passes.
                setup += setup_probes(env, workdir, workload.kernel)
            elapsed = time.perf_counter() - started
            if len(plain) >= MIN_PASSES and elapsed * (1 + 1 / len(plain)) > args.seconds:
                break
        if args.record:
            if any(problems.values()):
                raise BenchError(f"not recording a reference that fails its checks: {problems}")
            save_reference(args.scale, args.workload, plain[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = tally(plain + traced, problems)
    raw = {}
    if args.trace:
        metrics = per_layer(plain, traced)
        units = PER_LAYER
        spans = [s for p in traced if p["report"] for s in p["report"]["spans"]]
        (WORK / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(spans))
    else:
        metrics, raw = end_to_end(workload, plain, setup)
        units = END_TO_END
    return {
        "workload": workload,
        "passes": (len(plain), len(traced)),
        "elapsed": elapsed,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "units": units,
        "extra": {
            **{m: v for m, v in per_command(plain).items() if v},
            **({} if args.trace else {workload.rate_name: metrics["throughput_per_s"]}),
            **raw,
            "op_fail_frac": failed / attempted,
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    workload = result["workload"]
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    plain, traced = result["passes"]
    print(f"# workload {workload.name} seed {args.seed} scale {args.scale}: "
          f"{plain} plain + {traced} traced passes in {result['elapsed']:.1f} s; "
          f"throughput is {workload.rate_name} of {workload.core_op} ({workload.core_work} per call)")
    for op_id, found in result["problems"].items():
        for problem in found:
            print(f"# FAIL {op_id}: {problem}")
    extra_units = {
        "op_fail_frac": "frac", workload.rate_name: "1/s", **{m: "s" for m in COMMAND_METRICS.values()},
        "raw_setup_s": "s", "raw_wall_s": "s", "raw_throughput_per_s": "1/s", "host_speed": "x",
    }
    shown = {**result["metrics"], **{k: v for k, v in result["extra"].items() if k not in result["metrics"]}}
    for name, value in shown.items():
        unit = result["units"].get(name) or extra_units[name]
        print(f"# {name:<42} {value:>16.6g} {unit}")
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in result["units"].items()
    }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
