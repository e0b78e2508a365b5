"""The benchmark's workloads: which CLI calls each makes, and how each output is checked.

A workload is a fixed list of ``dilutecw.cli.main(argv)`` calls whose seeds and
parameters are derived from one workload seed, so the same seed gives the same
inputs.  Every call carries a check that does not trust the program: it
re-derives invariants the output must satisfy (format, counts, symmetries,
identities between commands, the magnetization plateau).  Exact identity
against a recorded reference and byte-identical replay across passes are
checked by ``run.py`` on top of these.

Why these workloads:

* ``clt`` is the headline experiment, ``clt-experiment`` over 4 graphs at
  n = 1024 with 2 worker threads.  The Glauber sweep is most of its time and it
  is the only workload whose threads contend for the interpreter lock.
* ``chain`` drives the same sweep differently: one graph at n = 4096 (16x
  larger neighbour masks), beta = 1.5 so the chain sits on the low-flip-rate
  plateau, a single thread, plus a 16 M-cell graph text write and read and CSV
  output.
* ``exact`` runs no chain at all: Gray-code enumeration at n = 22, the O(n^3)
  annealed pair sum at n = 64, the asymptotic predictions, the series check and
  the brute-force oracle, so a faster sweep should move nothing here.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

P_EDGE = 0.5

# Sizes per scale.  "full" is the benchmark; "tiny" exists for the smoke check.
SIZES = {
    "full": {
        "clt": {"n": 1024, "graphs": 4, "sweeps": 800},
        "chain": {"n": 4096, "sweeps": 150, "burnin": 50, "replicas": 2},
        "exact": {"partition_n": 22, "moments_n": 64, "oracle_n": 3, "long_repeat": 1, "short_repeat": 5},
    },
    "tiny": {
        "clt": {"n": 64, "graphs": 2, "sweeps": 120},
        "chain": {"n": 128, "sweeps": 60, "burnin": 30, "replicas": 2},
        "exact": {"partition_n": 10, "moments_n": 12, "oracle_n": 2, "long_repeat": 2, "short_repeat": 2},
    },
}

# The chain workload's inverse temperature, above the transition at 1.
PLATEAU_BETA = 1.5
# The clt workload's worker threads: one a core of the 2-core host.
THREADS = 2


def derive(seed: int, tag: str) -> int:
    """A 63-bit seed for one input of a workload, fixed by (workload seed, tag)."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


Check = Callable[[str, bytes | None, dict], list[str]]


@dataclass
class Op:
    """One CLI call.  ``out`` names the file the call writes, relative to the
    pass's working directory; ``check(stdout, out_bytes, outs)`` returns the
    problems found, where ``outs`` maps every op id to its parsed JSON stdout."""

    id: str
    argv: list[str]
    check: Check
    repeat: int = 1
    out: str | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    core_op: str  # the op whose time the throughput metric divides by
    core_work: int  # site updates or configurations done by the core op
    rate_name: str  # what core_work per second of the core op is called
    inputs: dict[str, bytes] = field(default_factory=dict)  # files written before the passes
    kernel: tuple[int, int] = (32, 1)  # calibration kernel's (table_n, threads), see calibration.py


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def m_plus(beta: float) -> float:
    """Positive root of z = tanh(beta z), by bisection (independent of the package)."""
    lo, hi = 1e-9, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if math.tanh(beta * mid) > mid:
            lo = mid
        else:
            hi = mid
    return lo


# --------------------------------------------------------------------- clt


def _check_clt(n: int, graphs: int, sweeps: int) -> Check:
    retained = sweeps - math.ceil(10.0 * math.sqrt(n))

    def check(text, _out, _outs):
        payload = _json(text)
        if payload is None:
            return ["stdout is not JSON"]
        problems = []
        runs = payload["per_graph"]
        if len(runs) != graphs:
            problems.append(f"{len(runs)} graphs reported, expected {graphs}")
        for run in runs:
            if run["n_samples"] != retained:
                problems.append(f"graph kept {run['n_samples']} samples, expected {retained}")
            if not (0.0 <= run["levy"] <= 1.0 and 0.0 <= run["ks"] <= 1.0):
                problems.append(f"distances out of [0, 1]: levy {run['levy']}, ks {run['ks']}")
        pooled = payload["pooled"]
        if pooled["count"] != graphs * retained:
            problems.append(f"pooled count {pooled['count']}, expected {graphs * retained}")
        # The reference variance is 1/(1 - beta) = 2.  The window is a factor 2
        # either way, many standard errors at these sample counts.
        if not 1.0 <= pooled["variance"] <= 4.0:
            problems.append(f"pooled variance {pooled['variance']} far from 2")
        return problems

    return check


def clt(seed: int, size: dict) -> Workload:
    n, graphs, sweeps = size["n"], size["graphs"], size["sweeps"]
    argv = [
        "clt-experiment", "--n", str(n), "--p", str(P_EDGE), "--beta", "0.5",
        "--graphs", str(graphs), "--sweeps", str(sweeps),
        "--seed", str(derive(seed, "clt")), "--threads", str(THREADS),
    ]
    op = Op("clt-experiment", argv, _check_clt(n, graphs, sweeps))
    return Workload("clt", [op], op.id, n * sweeps * graphs, "site_updates_per_s",
                    kernel=(1024, THREADS))


# ------------------------------------------------------------------- chain


def _check_graph(n: int) -> Check:
    header = f"dilute-cw-graph v1 N={n}\n".encode()

    def check(_text, data, _outs):
        if data is None:
            return ["graph file missing"]
        if not data.startswith(header):
            return ["bad graph header"]
        body = data[len(header):]
        rows = body.split(b"\n")
        if rows[-1] != b"" or len(rows) != n + 1 or any(len(r) != n for r in rows[:-1]):
            return [f"graph body is not {n} rows of {n} cells"]
        ones = body.count(b"1")
        if ones + body.count(b"0") != n * n:
            return ["graph cells other than 0/1"]
        cells = n * n
        sigma = math.sqrt(P_EDGE * (1 - P_EDGE) / cells)
        if abs(ones / cells - P_EDGE) > 6 * sigma:
            return [f"edge density {ones / cells} is not near p = {P_EDGE}"]
        return []

    return check


def _check_chain(n: int, sweeps: int, burnin: int, replicas: int) -> Check:
    retained = sweeps - burnin
    # Each replica's mean |m| per site must sit near the mean-field root m+;
    # finite-size fluctuations of the per-site magnetization shrink as 1/sqrt(n).
    target = m_plus(PLATEAU_BETA)
    tolerance = 0.05 + 2.0 / math.sqrt(n)
    root = math.sqrt(n)

    def check(_text, data, _outs):
        if data is None:
            return ["chain CSV missing"]
        lines = data.decode("ascii").splitlines()
        if lines[0] != "graph_seed,replica_id,sweep_index,m_scaled":
            return ["bad CSV header"]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != replicas * retained:
            return [f"{len(rows)} samples, expected {replicas * retained}"]
        problems = []
        per_site = {}
        for _seed, replica, sweep, value in rows:
            up = (float(value) * root + n) / 2
            if abs(up - round(up)) > 1e-6 or not 0 <= round(up) <= n:
                problems.append(f"m_scaled {value} is not (2k - n)/sqrt(n)")
                break
            if not burnin < int(sweep) <= sweeps:
                problems.append(f"sweep index {sweep} outside the retained range")
                break
            per_site.setdefault(replica, []).append(abs(float(value)) / root)
        for replica, values in sorted(per_site.items()):
            mean = math.fsum(values) / len(values)
            if abs(mean - target) > tolerance:
                problems.append(f"replica {replica} mean |m| {mean:.4f} is off the plateau {target:.4f}")
        return problems

    return check


def chain(seed: int, size: dict) -> Workload:
    n, sweeps, burnin, replicas = size["n"], size["sweeps"], size["burnin"], size["replicas"]
    sample = [
        "graph-sample", "--n", str(n), "--p", str(P_EDGE),
        "--seed", str(derive(seed, "chain-graph")), "--out", "graph.txt",
    ]
    run = [
        "mcmc-run", "--n", str(n), "--p", str(P_EDGE), "--beta", str(PLATEAU_BETA),
        "--graph", "graph.txt", "--sweeps", str(sweeps), "--burnin", str(burnin),
        "--replicas", str(replicas), "--seed", str(derive(seed, "chain-run")),
        "--out", "chain.csv",
    ]
    ops = [
        Op("graph-sample", sample, _check_graph(n), out="graph.txt"),
        Op("mcmc-run", run, _check_chain(n, sweeps, burnin, replicas), out="chain.csv"),
    ]
    return Workload("chain", ops, "mcmc-run", n * sweeps * replicas, "site_updates_per_s", kernel=(4096, 1))


# ------------------------------------------------------------------- exact


def _check_partition(n: int, beta: float) -> Check:
    def check(text, _out, _outs):
        payload = _json(text)
        if payload is None:
            return ["stdout is not JSON"]
        weights = payload["law"]["weights"]
        log_z = payload["log_z"]
        problems = []
        if len(weights) != n + 1:
            return [f"law has {len(weights)} atoms, expected {n + 1}"]
        if abs(math.fsum(weights) - 1.0) > 1e-12:
            problems.append("law weights do not sum to 1")
        # Flipping every spin keeps the energy, so the law is symmetric.
        if not all(_close(weights[c], weights[n - c], 1e-9) for c in range(n + 1)):
            problems.append("law is not symmetric under global spin flip")
        if not _close(payload["free_energy_per_site"], -log_z / (n * beta), 1e-12):
            problems.append("free energy is not -log Z / (n beta)")
        return problems

    return check


def _check_moments(text, _out, _outs):
    payload = _json(text)
    if payload is None:
        return ["stdout is not JSON"]
    first, second = payload["log_expected_partition"], payload["log_second_moment"]
    ratio = payload["variance_ratio"]
    problems = []
    if not second >= 2 * first - 1e-9:
        problems.append("E[Z^2] < E[Z]^2")
    if not (ratio >= 0 and _close(ratio, math.expm1(second - 2 * first), 1e-6)):
        problems.append(f"variance ratio {ratio} inconsistent with the moments")
    return problems


def _check_asym(variant: str) -> Check:
    def check(text, _out, outs):
        payload = _json(text)
        if payload is None:
            return ["stdout is not JSON"]
        if not (math.isfinite(payload["log_value"]) and payload["gaussian_factor"] > 0):
            return ["prediction is not finite"]
        # For g = one the quadrature variant b must agree with closed form c.
        other = outs.get("asym-predict:c")
        if variant == "b" and other and not _close(payload["log_value"], other["log_value"], 1e-9):
            return ["variant b disagrees with closed-form variant c"]
        return []

    return check


def _check_series(text, _out, _outs):
    payload = _json(text)
    if payload is None:
        return ["stdout is not JSON"]
    p = Fraction(payload["config"]["p"])
    exact = [Fraction(c) for c in payload["coefficients_exact"]]
    problems = []
    if [float(c) for c in exact] != payload["coefficients"]:
        problems.append("float coefficients are not the rounded exact ones")
    # log(1 - p + p e^z) = p z + p (1 - p) z^2 / 2 + ...
    if exact[:2] != [p, p * (1 - p) / 2]:
        problems.append(f"leading coefficients {exact[:2]} are wrong")
    for side in payload["remainders"].values():
        if not all(math.isfinite(v) for v in side.values()):
            problems.append("non-finite remainder")
    return problems


def _check_oracle(moment: str) -> Check:
    key = "log_expected_partition" if moment == "first" else "log_second_moment"

    def check(text, _out, outs):
        payload = _json(text)
        if payload is None:
            return ["stdout is not JSON"]
        closed = outs.get("exact-moments:oracle-n")
        if closed is None:
            return ["closed-form moments at oracle size missing"]
        if not _close(payload["log_value"], closed[key], 1e-9):
            return [f"oracle {payload['log_value']} != closed form {closed[key]}"]
        return []

    return check


def graph_text(n: int, p: float, seed: int) -> bytes:
    """A v1 graph file drawn by the benchmark itself, so the exact workload
    feeds the program a generated input rather than one of its own graphs."""
    rng = random.Random(seed)
    rows = ("".join("1" if rng.random() < p else "0" for _ in range(n)) for _ in range(n))
    return (f"dilute-cw-graph v1 N={n}\n" + "".join(row + "\n" for row in rows)).encode()


def exact(seed: int, size: dict) -> Workload:
    pn, mn, on = size["partition_n"], size["moments_n"], size["oracle_n"]
    beta = str(round(0.3 + 0.4 * random.Random(derive(seed, "exact-beta")).random(), 3))
    model = ["--p", str(P_EDGE), "--beta", beta]
    long_, short = size["long_repeat"], size["short_repeat"]
    ops = [
        Op("exact-partition", ["exact-partition", "--n", str(pn), *model, "--graph", "exact-graph.txt"],
           _check_partition(pn, float(beta))),
    ]
    for g in ("one", "gauss"):
        ops.append(Op(f"exact-moments:{g}", ["exact-moments", "--n", str(mn), *model, "--g", g],
                      _check_moments, repeat=long_))
    for variant in ("a", "b", "c"):
        ops.append(Op(f"asym-predict:{variant}",
                      ["asym-predict", "--n", str(mn), *model, "--g", "one", "--variant", variant],
                      _check_asym(variant), repeat=short))
    ops.append(Op("series-check", ["series-check", "--p", "1/2"], _check_series, repeat=short))
    ops.append(Op("exact-moments:oracle-n", ["exact-moments", "--n", str(on), *model, "--g", "one"],
                  _check_moments, repeat=short))
    for moment in ("first", "second"):
        ops.append(Op(f"exact-oracle:{moment}",
                      ["exact-oracle", "--n", str(on), *model, "--g", "one", "--moment", moment],
                      _check_oracle(moment), repeat=short))
    inputs = {"exact-graph.txt": graph_text(pn, P_EDGE, derive(seed, "exact-graph"))}
    return Workload("exact", ops, "exact-partition", 1 << pn, "configs_per_s", inputs)


WORKLOADS = {"clt": clt, "chain": chain, "exact": exact}


def build(name: str, seed: int, scale: str) -> Workload:
    return WORKLOADS[name](seed, SIZES[scale][name])
