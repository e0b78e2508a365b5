"""Record the golden corpus: every CLI call of ``CALLS`` with its exit code,
the sha256 of its stdout and the sha256 of its ``--out`` file, as
``corpus.json`` next to this script.

    PYTHONPATH=src python tests/golden/record.py

The calls run in order through ``cli.main``, in one process, in a fresh
directory that holds ``FILES`` first, so an earlier ``graph-sample --out``
writes a graph that a later call reads.  Every path is relative to that
directory, so a replay gives the same bytes wherever it runs.
``tests/test_golden.py`` replays the corpus on the kernel set the process
loads.  A change that moves an output on purpose re-records the corpus and
names the entries that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("corpus.json")

MODEL = ["--p", "0.5", "--beta", "0.5"]
CHAIN = ["--sweeps", "20", "--burnin", "0"]
LONG_CHAIN = ["--p", "0.5", "--sweeps", "24", "--burnin", "4", "--seed", "11"]

_ROWS = "dilute-cw-graph v1 N=3\n011\n101\n110\n"

# Input files the calls read: the same 3-site graph in each newline style
# and without its last newline, then graph files that each fail in one way.
FILES = {
    "lf.txt": _ROWS,
    "crlf.txt": _ROWS.replace("\n", "\r\n"),
    "cr.txt": _ROWS.replace("\n", "\r"),
    "open.txt": _ROWS[:-1],
    "bad-cell.txt": "dilute-cw-graph v1 N=2\n01\n1Ã\n",
    "bad-header.txt": "dilute-cw-graph v2 N=2\n01\n11\n",
    "bad-size.txt": "dilute-cw-graph v1 N=+2\n01\n11\n",
    "bad-zero.txt": "dilute-cw-graph v1 N=0\n",
    "short-row.txt": "dilute-cw-graph v1 N=3\n011\n10\n110\n",
    "long-row.txt": "dilute-cw-graph v1 N=2\n011\n11\n",
    "few-rows.txt": "dilute-cw-graph v1 N=3\n011\n101\n",
    "trailing.txt": "dilute-cw-graph v1 N=2\n01\n11\nx\n",
    "empty.txt": "",
    "huge.txt": "dilute-cw-graph v1 N=100000\n",
}


def _graph_sample():
    for n in (1, 2, 5, 9, 63, 64, 65, 130):
        for p, seed in (("0.5", "3"), ("0.1", "18446744073709551615"), ("1.0", "0")):
            yield ["graph-sample", "--n", str(n), "--p", p, "--seed", seed]
    for n in (3, 9, 65, 130):
        yield ["graph-sample", "--n", str(n), "--p", "0.5", "--seed", "5", "--out", f"g{n}.txt"]
    # the row-by-row sampler and writer's outputs, pinned before the corpus
    for n in (1, 7, 63, 64, 65, 1000, 1500):
        for p in ("0.001", "0.5", "1.0"):
            for seed in ("7", "18446744073709551615"):
                yield ["graph-sample", "--n", str(n), "--p", p, "--seed", seed]


def _exact_partition():
    for n in (1, 2, 3, 5, 9, 12, 16, 18):
        for p, beta, seed in (("0.5", "0.5", "3"), ("0.2", "1.3", "7"), ("1.0", "0.9", "0")):
            yield ["exact-partition", "--n", str(n), "--p", p, "--beta", beta, "--seed", seed]
    yield ["exact-partition", "--n", "22", *MODEL, "--seed", "20260818"]
    # the Gray-code walk's law, pinned before the corpus
    yield ["exact-partition", "--n", "18", "--p", "0.5", "--beta", "0.7", "--seed", "20260818"]
    for n in (3, 9):
        yield ["exact-partition", "--n", str(n), *MODEL, "--graph", f"g{n}.txt"]
    for name in ("lf", "crlf", "cr", "open"):
        yield ["exact-partition", "--n", "3", *MODEL, "--graph", f"{name}.txt"]
    yield ["exact-partition", "--n", "9", *MODEL, "--seed", "4", "--out", "partition.json"]


def _exact_moments():
    for n in (1, 4, 12, 64):
        for p in ("0.1", "0.5", "1.0"):
            for beta in ("0.3", "0.9", "1.5"):
                for g in ("one", "gauss"):
                    yield ["exact-moments", "--n", str(n), "--p", p, "--beta", beta, "--g", g]
    for g in ("cosine", "bump:0.3,0.5", "bump:50,0.1"):
        yield ["exact-moments", "--n", "12", "--p", "0.6", "--beta", "0.9", "--g", g]
    # n = 64 is the term-by-term second moment's output, pinned before the corpus
    for n in (64, 150, 200):
        yield ["exact-moments", "--n", str(n), "--p", "0.5", "--beta", "0.307", "--g", "gauss"]
    yield ["exact-moments", "--n", "4", *MODEL, "--out", "moments.json"]


def _exact_oracle():
    for n in (1, 2, 3):
        for moment in ("first", "second"):
            for p, beta, g in (("0.5", "0.5", "one"), ("0.7", "0.8", "gauss")):
                yield ["exact-oracle", "--n", str(n), "--p", p, "--beta", beta, "--g", g,
                       "--moment", moment]


def _asym_predict():
    for n in (4, 20, 100):
        for variant in ("a", "b", "c"):
            for p, beta in (("0.5", "0.5"), ("0.1", "0.9")):
                yield ["asym-predict", "--n", str(n), "--p", p, "--beta", beta,
                       "--variant", variant]
    for g in ("gauss", "cosine", "bump:0.3,0.5"):
        yield ["asym-predict", "--n", "50", *MODEL, "--variant", "a", "--g", g]


def _series_check():
    for p in ("1/2", "1/3", "0.5", "0.1", "1", "1e-60"):
        for order in ("3", "8"):
            yield ["series-check", "--p", p, "--max-order", order]
    yield ["series-check", "--p", "2/7", "--max-order", "5", "--out", "series.json"]


def _mcmc_run():
    for n in (1, 2, 16, 64, 65, 130):
        for replicas in ("1", "5"):
            yield ["mcmc-run", "--n", str(n), *MODEL, *CHAIN, "--replicas", replicas]
    yield ["mcmc-run", "--n", "16", "--p", "0.3", "--beta", "1.5", "--seed", "9",
           "--sweeps", "60", "--burnin", "10", "--thin", "3", "--replicas", "3"]
    yield ["mcmc-run", "--n", "16", *MODEL, "--sweeps", "50"]
    for n in (65, 130):
        yield ["mcmc-run", "--n", str(n), *MODEL, *CHAIN, "--replicas", "2",
               "--graph", f"g{n}.txt"]
    for name in ("lf", "crlf", "cr", "open"):
        yield ["mcmc-run", "--n", "3", *MODEL, *CHAIN, "--graph", f"{name}.txt"]
    yield ["mcmc-run", "--n", "16", *MODEL, *CHAIN, "--replicas", "4", "--out", "chain.csv"]
    # the one-site-at-a-time sweep's chains, pinned before the corpus
    for n in (65, 1024, 4100):
        yield ["mcmc-run", "--n", str(n), "--beta", "1.5", "--replicas", "2", *LONG_CHAIN,
               "--out", f"chain{n}.csv"]


def _clt_experiment():
    yield ["clt-experiment", "--n", "16", *MODEL, "--graphs", "2", "--sweeps", "100",
           "--threads", "2"]
    yield ["clt-experiment", "--n", "6", *MODEL, "--sweeps", "20", "--burnin", "5",
           "--graphs", "2"]
    yield ["clt-experiment", "--n", "32", "--p", "0.5", "--beta", "0.4", "--graphs", "3",
           "--sweeps", "60", "--replicas", "2", "--seed", "11"]
    yield ["clt-experiment", "--n", "96", *MODEL, "--graphs", "2", "--sweeps", "40",
           "--burnin", "10", "--epsilon", "0.2", "--threads", "2"]
    yield ["clt-experiment", "--n", "130", "--p", "0.3", "--beta", "0.6", "--graphs", "2",
           "--sweeps", "30", "--burnin", "10", "--replicas", "4"]
    yield ["clt-experiment", "--n", "16", *MODEL, "--graphs", "2", "--sweeps", "40",
           "--burnin", "10", "--out", "clt.json"]
    for n in (65, 1024, 4100):
        yield ["clt-experiment", "--n", str(n), "--beta", "0.5", "--graphs", "2", *LONG_CHAIN]


# Calls that fail: exit 2 for an argument out of domain, 3 for a size above
# a cap, 4 for a graph file that does not parse.
_FAILURES = [
    ["graph-sample", "--n", "8", "--p", "1.5"],
    ["graph-sample", "--n", "0", "--p", "0.5"],
    ["graph-sample", "--n", "8", "--p", "0.5", "--seed", "-1"],
    ["graph-sample", "--n", "100000", "--p", "0.5"],
    ["exact-partition", "--n", "4", "--p", "0.0", "--beta", "0.5"],
    ["exact-partition", "--n", "7", *MODEL, "--graph", "g9.txt"],
    ["exact-partition", "--n", "16384", *MODEL],
    ["exact-moments", "--n", "4", *MODEL, "--g", "nope"],
    ["exact-moments", "--n", "4", "--p", "0.5", "--beta", "nan"],
    ["exact-moments", "--n", "2", "--p", "1e-320", "--beta", "0.5"],
    ["exact-moments", "--n", "4", *MODEL, "--g", "bump:0,inf"],
    ["exact-moments", "--n", "4", *MODEL, "--g", "bump:x,1"],
    ["exact-moments", "--n", "100000", *MODEL],
    ["exact-oracle", "--n", "2", "--p", "0.5", "--beta", "400", "--moment", "first"],
    ["exact-oracle", "--n", "6", *MODEL, "--moment", "first"],
    ["asym-predict", "--n", "20", "--p", "0.5", "--beta", "1.0", "--variant", "a"],
    ["asym-predict", "--n", "20", *MODEL, "--g", "gauss", "--variant", "c"],
    ["series-check", "--p", "5/4", "--max-order", "3"],
    ["series-check", "--p", "0.5", "--max-order", "40"],
    ["series-check", "--p", "1e-300", "--max-order", "15"],
    ["series-check", "--p", "1/2", "--max-order", "0"],
    ["mcmc-run", "--n", "4", *MODEL, "--sweeps", "0"],
    ["mcmc-run", "--n", "4", *MODEL, "--sweeps", "10", "--thin", "0"],
    ["mcmc-run", "--n", "4", *MODEL, "--sweeps", "5", "--burnin", "10"],
    ["mcmc-run", "--n", "4", *MODEL, "--sweeps", str(10**13)],
    ["mcmc-run", "--n", "2", *MODEL, *CHAIN, "--graph", "g3.txt"],
    *[["mcmc-run", "--n", "2", *MODEL, *CHAIN, "--graph", name]
      for name in FILES if name.startswith(("bad", "short", "long", "few", "trailing", "empty"))],
    ["mcmc-run", "--n", "2", *MODEL, *CHAIN, "--graph", "huge.txt"],
    ["mcmc-run", "--n", "2", *MODEL, *CHAIN, "--graph", "no-such-file.txt"],
    ["clt-experiment", "--n", "4", "--p", "0.5", "--beta", "1.0", "--graphs", "1",
     "--sweeps", "30"],
    ["clt-experiment", "--n", "4", *MODEL, "--graphs", "0", "--sweeps", "30"],
    ["clt-experiment", "--n", "4", *MODEL, "--graphs", "1", "--sweeps", "30", "--threads", "0"],
    ["clt-experiment", "--n", "4", *MODEL, "--graphs", "1", "--sweeps", "30", "--threads", "257"],
    ["clt-experiment", "--n", "1", *MODEL, "--graphs", "524289", "--sweeps", "16",
     "--burnin", "0"],
    ["clt-experiment", "--n", "4", *MODEL, "--graphs", "1", "--sweeps", "30",
     "--epsilon", "nan"],
    ["clt-experiment", "--n", "4", *MODEL, "--graphs", "1", "--sweeps", "11", "--burnin", "10"],
    # the site-update cap comes before the pooled variance's two samples, as in mcmc-run
    ["clt-experiment", "--n", "1048576", *MODEL, "--graphs", "1", "--sweeps", "2000000",
     "--burnin", "2000000"],
]

CALLS = [
    *_graph_sample(), *_exact_partition(), *_exact_moments(), *_exact_oracle(),
    *_asym_predict(), *_series_check(), *_mcmc_run(), *_clt_experiment(), *_FAILURES,
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str]) -> dict:
    """One call through ``cli.main`` in the current directory: its argv, exit
    code, the sha256 of its stdout and of its ``--out`` file (None without
    one, or when the call wrote none)."""
    from dilutecw.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": _sha256(stdout.getvalue().encode()),
        "out": _sha256(Path(out).read_bytes()) if out and os.path.exists(out) else None,
    }


def replay(files: dict, calls: list[list[str]]) -> list[dict]:
    """Each of ``calls`` run in order, in a fresh directory holding ``files``."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            Path(work, name).write_bytes(text.encode("utf-8"))
        os.chdir(work)
        try:
            return [run(argv) for argv in calls]
        finally:
            os.chdir(here)


def main() -> None:
    entries = replay(FILES, CALLS)
    CORPUS.write_text(json.dumps({"files": FILES, "calls": entries}, indent=1) + "\n")
    codes = [entry["exit"] for entry in entries]
    print(f"{len(entries)} calls to {CORPUS}: "
          + ", ".join(f"{codes.count(c)} exit {c}" for c in sorted(set(codes))), file=sys.stderr)


if __name__ == "__main__":
    main()
