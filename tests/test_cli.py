"""CLI contract: exit codes, determinism, output formats."""

import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dilutecw.cli as cli
import dilutecw.exact as exact
from dilutecw import _csweep, _twins
from dilutecw.cli import main
from dilutecw.graph import GraphSeed, read_graph, sample_graph
from dilutecw.exact import MAX_ENUMERATION_N, MAX_MOMENT_N, expected_partition_log
from dilutecw.mcmc import ChainConfig, default_burn_in, derive_seed, run_chain
from dilutecw.model import ModelParams
from dilutecw.testfunctions import make_test_function
from helpers import kernel_sets, kernels_in_use


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "dilutecw" in out


def test_missing_command_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_graph_sample_stdout_and_file(tmp_path, capsys):
    # --out writes the text kernel's bytes, stdout their ASCII decoding: the
    # same text on every kernel set, at sizes around the word boundaries
    for n in (1, 8, 63, 64, 65, 130):
        argv = ("graph-sample", "--n", str(n), "--p", "0.5", "--seed", "3")
        want = sample_graph(ModelParams(n=n, p=0.5, beta=1.0), GraphSeed(3))
        texts = []
        for kernels in kernel_sets():
            with kernels_in_use(kernels):
                code, out, err = run_cli(capsys, *argv)
                assert code == 0
                assert out.startswith(f"dilute-cw-graph v1 N={n}\n")
                assert f"sampled graph n={n} edges={int(want._cells().sum())}\n" in err

                path = tmp_path / f"g{n}.txt"
                code, out2, _ = run_cli(capsys, *argv, "--out", str(path))
            assert code == 0
            assert out2 == ""
            assert path.read_bytes() == out.encode("ascii")
            assert read_graph(path) == want
            # sidecar exists and is not part of the artifact
            assert (tmp_path / f"g{n}.txt.meta.json").exists()
            texts.append(out)
        assert texts == [texts[0]] * len(texts)


def test_graph_sample_validation_exit_2(capsys):
    code, _, err = run_cli(capsys, "graph-sample", "--n", "8", "--p", "1.5")
    assert code == 2
    assert "error" in err


def test_graph_sample_capacity_exit_3(capsys):
    code, _, err = run_cli(capsys, "graph-sample", "--n", "100000", "--p", "0.5")
    assert code == 3
    assert "capacity" in err


def test_exact_partition_json(capsys):
    code, out, _ = run_cli(
        capsys, "exact-partition", "--n", "2", "--p", "1.0", "--beta", "1.0", "--seed", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "exact-partition"
    assert payload["config"]["n"] == 2
    # p = 1 makes the sampled graph complete: Z = 2e + 2
    assert payload["log_z"] == pytest.approx(math.log(2 * math.e + 2), rel=1e-12)
    law = payload["law"]
    assert len(law["locations"]) == len(law["weights"])
    assert sum(law["weights"]) == pytest.approx(1.0, abs=1e-12)


def test_exact_partition_reruns_byte_identical(capsys):
    args = ("exact-partition", "--n", "10", "--p", "0.5", "--beta", "0.8", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_exact_partition_from_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    run_cli(capsys, "graph-sample", "--n", "6", "--p", "0.4", "--seed", "9", "--out", str(path))
    code, out, _ = run_cli(
        capsys, "exact-partition", "--n", "6", "--p", "0.4", "--beta", "0.5",
        "--graph", str(path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["graph_seed"] is None

    code, _, err = run_cli(
        capsys, "exact-partition", "--n", "7", "--p", "0.4", "--beta", "0.5",
        "--graph", str(path),
    )
    assert code == 2
    assert "n=6" in err


def test_exact_partition_bad_file_exit_4(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("dilute-cw-graph v1 N=2\n01\n1x\n")
    code, _, err = run_cli(
        capsys, "exact-partition", "--n", "2", "--p", "0.5", "--beta", "0.5",
        "--graph", str(path),
    )
    assert code == 4
    assert "line 3" in err


def test_exact_partition_content_after_blank_line_exit_4(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("dilute-cw-graph v1 N=2\n01\n11\n\nGARBAGE\n")
    code, _, err = run_cli(
        capsys, "exact-partition", "--n", "2", "--p", "0.5", "--beta", "0.5",
        "--graph", str(path),
    )
    assert code == 4
    assert "line 5" in err


def test_exact_partition_non_ascii_byte_exit_4(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"dilute-cw-graph v1 N=2\n01\n1\xc3\n")
    code, _, err = run_cli(
        capsys, "exact-partition", "--n", "2", "--p", "0.5", "--beta", "0.5",
        "--graph", str(path),
    )
    assert code == 4
    assert "line 3" in err
    assert "row contains" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [b"1" * 2**20, b"dilute-cw-graph v1 N=" + b"2" * 2**20])
def test_mcmc_run_newline_free_file_exit_4_in_one_short_line(text, tmp_path, capsys,
                                                            monkeypatch):
    # the header is read to 80 characters and quoted to as many, so a
    # megabyte without a newline neither fills memory nor stderr
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_bytes(text)
    code, out, err = run_cli(
        capsys, "mcmc-run", "--n", "2", "--p", "0.5", "--beta", "0.5", "--graph", "g.txt",
        "--sweeps", "10", "--burnin", "0",
    )
    assert code == 4
    assert out == ""
    assert len(err.encode()) < 300
    assert "line 1: bad" in err and "Traceback" not in err


@pytest.mark.parametrize("size", [" +2 ", "+2", "0_2", "2 "])
def test_exact_partition_header_size_digits_only_exit_4(size, tmp_path, capsys):
    # int() alone reads each of these as 2
    path = tmp_path / "g.txt"
    path.write_text(f"dilute-cw-graph v1 N={size}\n01\n11\n")
    code, out, err = run_cli(
        capsys, "exact-partition", "--n", "2", "--p", "0.5", "--beta", "0.5",
        "--graph", str(path),
    )
    assert code == 4
    assert out == ""
    assert "bad size field" in err and "line 1" in err


def test_exact_partition_capacity_exit_3(capsys):
    # 2^n is past the float range from n = 1024 and has over 4300 digits at
    # n = 15000; the refusal names it without converting it
    for n in (MAX_ENUMERATION_N + 1, 2000, 15000):
        code, out, err = run_cli(
            capsys, "exact-partition", "--n", str(n), "--p", "0.5", "--beta", "0.5",
        )
        assert code == 3
        assert out == ""
        assert f"needs 2^{n} configurations" in err


@pytest.mark.parametrize("source", [(), ("--graph", "never-read.txt")], ids=["sampled", "file"])
def test_exact_partition_past_the_cap_builds_no_graph(source, capsys, monkeypatch):
    # the cap is checked before the graph is sampled or read, which would
    # take 32 MB at n = 16384 and 1 GiB just below graph.BIT_LIMIT
    for name in ("sample_graph", "read_graph"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("graph built"))
    code, out, err = run_cli(
        capsys, "exact-partition", "--n", "16384", "--p", "0.5", "--beta", "0.5", *source
    )
    assert code == 3
    assert out == ""
    assert "needs 2^16384 configurations" in err


@pytest.mark.parametrize("source", ["sampled", "file"])
def test_exact_partition_is_the_same_on_the_twins(source, tmp_path, capsys, monkeypatch):
    # the compiled histogram and its numpy twin count the same integers, so
    # every payload is byte-identical
    runs = [("1", "1.0", "0.5"), ("2", "0.05", "1.3"), ("5", "0.5", "0"), ("16", "1.0", "0.5"),
            ("20", "0.5", "1.3")]
    outputs = []
    for python_only in (False, True):
        if python_only:
            monkeypatch.setattr(_csweep, "_loaded", [_twins._TWINS])
        for n, p, beta in runs:
            argv = ["exact-partition", "--n", n, "--p", p, "--beta", beta, "--seed", "3"]
            if source == "file":
                graph = tmp_path / f"g{n}.txt"
                if not graph.exists():
                    assert run_cli(capsys, "graph-sample", "--n", n, "--p", p, "--seed", "5",
                                   "--out", str(graph))[0] == 0
                argv += ["--graph", str(graph)]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            outputs.append(out)
    assert outputs[:len(runs)] == outputs[len(runs):]


def test_enumeration_loads_the_kernels_on_first_use(tmp_path):
    # importing the CLI and running commands that sum no moments and enumerate
    # nothing load no kernel code; the second moment does, and so does the
    # first enumeration, even of a graph read from a file
    graph = tmp_path / "g.txt"
    graph.write_text("dilute-cw-graph v1 N=3\n011\n000\n101\n")
    model = ["--p", "0.5", "--beta", "0.5"]
    runs = {
        "exact-moments": [["series-check", "--p", "1/2"],
                          ["asym-predict", "--n", "4", *model, "--variant", "a"],
                          ["exact-moments", "--n", "4", *model]],
        "exact-partition": [["exact-partition", "--n", "3", *model, "--graph", str(graph)]],
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for last, commands in runs.items():
        code = (
            "import io, sys, contextlib, dilutecw.cli as cli; "
            "loaded = lambda: 'dilutecw._csweep' in sys.modules; seen = [loaded()]\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    seen.append(loaded())\n"
            "print(seen, file=sys.stderr)"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stderr.strip().splitlines()[-1] == repr([False] * len(commands) + [True]), last


def _in_fresh_process(code: str, *args: str) -> str:
    """stdout of ``code`` run with ``args`` in a new interpreter that imports
    this package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# main's exit code and stdout for each argv of the JSON list in argv[1], all
# in one process, then the number of parsers that process built
_CALLS_IN_ONE_PROCESS = """
import contextlib, io, json, sys
import dilutecw.cli as cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps([results, cli.build_parser.cache_info().misses]))
"""


def test_one_parser_serves_every_call_of_a_process(tmp_path):
    # each call's output equals a fresh process's, with usage errors, --help
    # and --version in between; the process builds each parser once
    graph = tmp_path / "g.txt"
    graph.write_text("dilute-cw-graph v1 N=3\n011\n000\n101\n")
    model = ["--p", "0.5", "--beta", "0.5"]
    moments = ["exact-moments", "--n", "6", *model, "--g", "gauss"]
    calls = [
        moments,
        ["exact-moments", "--n", "six", *model],
        moments,
        ["--help"],
        ["asym-predict", "--n", "20", *model, "--variant", "a"],
        ["exact-moments", "--help"],
        ["series-check", "--p", "1/3", "--max-order", "4"],
        ["--version"],
        ["exact-partition", "--n", "3", *model, "--graph", str(graph)],
        ["asym-predict", "--n", "20", *model, "--variant", "d"],
        ["exact-oracle", "--n", "2", *model, "--moment", "second"],
        [],
        moments,
    ]
    results, parsers = json.loads(_in_fresh_process(_CALLS_IN_ONE_PROCESS, json.dumps(calls)))
    # one parser per distinct command; --help, --version and no command
    # share the full one
    assert parsers == len({argv[0] if argv and not argv[0].startswith("-") else None
                           for argv in calls})
    assert [code for code, _ in results] == [0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 0]
    assert results[0] == results[2] == results[-1]
    # the first and last calls repeat the third
    for argv, result in zip(calls[1:-1], results[1:-1]):
        alone, _ = json.loads(_in_fresh_process(_CALLS_IN_ONE_PROCESS, json.dumps([argv])))
        assert alone == [result], argv


# Every command at a small size, each through main in one process: the
# compiled kernels take plain buffers, so none of them imports numpy.
_NO_NUMPY = """
import contextlib, io, json, sys
import dilutecw.cli as cli
seen = ['numpy' in sys.modules]
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        results.append([cli.main(argv), out.getvalue()])
    seen.append('numpy' in sys.modules)
print(json.dumps([seen, results]))
"""


def test_no_command_imports_numpy(tmp_path):
    if _csweep.library() is _twins._TWINS:
        pytest.skip("no compiled kernels on this host")
    graph, small = tmp_path / "g.txt", tmp_path / "s.txt"
    model = ["--p", "0.5", "--beta", "0.5"]
    chain = ["--sweeps", "30", "--burnin", "5"]
    calls = [
        ["graph-sample", "--n", "70", "--p", "0.5", "--seed", "2", "--out", str(graph)],
        ["graph-sample", "--n", "9", "--p", "0.5", "--out", str(small)],
        ["graph-sample", "--n", "9", "--p", "0.5"],
        ["exact-partition", "--n", "9", *model],
        ["exact-partition", "--n", "9", *model, "--graph", str(small)],
        ["exact-moments", "--n", "12", *model, "--g", "gauss"],
        ["exact-oracle", "--n", "2", *model, "--moment", "second"],
        ["asym-predict", "--n", "50", *model, "--variant", "b"],
        ["asym-predict", "--n", "50", *model, "--variant", "a", "--g", "bump:0.3,0.5"],
        ["series-check", "--p", "1/3", "--max-order", "4"],
        ["mcmc-run", "--n", "70", *model, *chain, "--replicas", "5", "--graph", str(graph)],
        ["clt-experiment", "--n", "16", *model, *chain, "--graphs", "2", "--threads", "2"],
    ]
    seen, compiled = json.loads(_in_fresh_process(_NO_NUMPY, json.dumps(calls)))
    assert seen == [False] * (len(calls) + 1)
    assert [code for code, _ in compiled] == [0] * len(calls)
    # the numpy and Python twins print the same
    env = dict(os.environ, XDG_CACHE_HOME="/dev/null", PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY, json.dumps(calls)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)[1] == compiled


def test_only_series_check_imports_mpmath(tmp_path):
    # mpmath serves remainder_check alone, so the other seven commands run
    # without importing it, and series-check imports it
    graph = tmp_path / "g.txt"
    model = ["--p", "0.5", "--beta", "0.5"]
    chain = ["--sweeps", "20", "--burnin", "5"]
    calls = [
        ["graph-sample", "--n", "5", "--p", "0.5", "--out", str(graph)],
        ["exact-partition", "--n", "5", *model, "--graph", str(graph)],
        ["exact-partition", "--n", "4", *model],
        ["exact-moments", "--n", "5", *model, "--g", "cosine"],
        ["exact-oracle", "--n", "2", *model, "--moment", "first"],
        ["asym-predict", "--n", "20", *model, "--variant", "b"],
        ["mcmc-run", "--n", "6", *model, *chain],
        ["clt-experiment", "--n", "6", *model, *chain, "--graphs", "2"],
        ["series-check", "--p", "1/3", "--max-order", "4"],
    ]
    code = f"""
import contextlib, io, sys
import dilutecw.cli as cli
seen = ['mpmath' in sys.modules]
for argv in {calls!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
    seen.append('mpmath' in sys.modules)
print(seen)
"""
    assert _in_fresh_process(code).strip() == repr([False] * len(calls) + [True])


def test_exact_partition_sidecar_counts_configs(tmp_path, capsys):
    path = tmp_path / "z.json"
    args = ("exact-partition", "--n", "9", "--p", "0.5", "--beta", "0.5", "--seed", "4")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    code, _, _ = run_cli(capsys, *args, "--out", str(path))
    assert code == 0
    assert path.read_text() == out
    assert "configs" not in json.loads(out)
    sidecar = json.loads((tmp_path / "z.json.meta.json").read_text())
    assert sidecar["configs"] == 2**9


def test_exact_moments_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "exact-moments", "--n", "12", "--p", "0.6", "--beta", "0.9", "--g", "gauss"
    )
    assert code == 0
    payload = json.loads(out)
    params = ModelParams(n=12, p=0.6, beta=0.9)
    want = expected_partition_log(params, make_test_function("gauss"))
    assert payload["log_expected_partition"] == pytest.approx(want, rel=1e-15)
    assert payload["variance_ratio"] >= 0.0
    assert payload["variance_ratio_clamped"] is False
    assert payload["config"]["g"] == "gauss"


def test_exact_moments_bump_off_support(capsys):
    # weighted sum is exactly zero: serialized as a string, ratio null
    code, out, _ = run_cli(
        capsys, "exact-moments", "--n", "4", "--p", "0.5", "--beta", "0.5",
        "--g", "bump:50,0.1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["log_expected_partition"] == "-inf"
    assert payload["variance_ratio"] is None


def test_exact_moments_computes_each_moment_once(capsys, monkeypatch):
    calls = []
    for name in ("second_moment_log", "expected_partition_log"):
        original = getattr(exact, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(exact, name, counted)
        monkeypatch.setattr(cli, name, counted)
    code, _, _ = run_cli(
        capsys, "exact-moments", "--n", "12", "--p", "0.6", "--beta", "0.9", "--g", "gauss"
    )
    assert code == 0
    assert calls == ["second_moment_log", "expected_partition_log"]


def test_exact_moments_bad_g_exit_2(capsys):
    code, _, _ = run_cli(
        capsys, "exact-moments", "--n", "4", "--p", "0.5", "--beta", "0.5", "--g", "nope"
    )
    assert code == 2


def test_exact_moments_capacity_exit_3(capsys):
    # the O(n^3) pair sum is refused before any moment sum starts
    for n in (MAX_MOMENT_N + 1, 100000):
        started = time.perf_counter()
        code, out, err = run_cli(
            capsys, "exact-moments", "--n", str(n), "--p", "0.5", "--beta", "0.5"
        )
        assert code == 3
        assert out == ""
        assert f"n={n}" in err and f"max_n={MAX_MOMENT_N}" in err
        assert time.perf_counter() - started < 1.0


def test_exact_oracle_agrees_with_moments(capsys):
    code, out, _ = run_cli(
        capsys, "exact-oracle", "--n", "3", "--p", "0.7", "--beta", "0.8",
        "--moment", "first",
    )
    assert code == 0
    oracle = json.loads(out)["log_value"]
    want = expected_partition_log(ModelParams(n=3, p=0.7, beta=0.8), make_test_function("one"))
    assert oracle == pytest.approx(want, abs=1e-11)


def test_exact_oracle_capacity_exit_3(capsys):
    code, _, _ = run_cli(
        capsys, "exact-oracle", "--n", "6", "--p", "0.5", "--beta", "0.5",
        "--moment", "first",
    )
    assert code == 3


def test_asym_predict_variants(capsys):
    code, out, _ = run_cli(
        capsys, "asym-predict", "--n", "20", "--p", "0.5", "--beta", "0.5",
        "--variant", "c",
    )
    assert code == 0
    payload = json.loads(out)
    want = 0.03125 + 20 * math.log(2) + 0.5 * math.log(2)
    assert payload["log_value"] == pytest.approx(want, rel=1e-12)

    code, _, err = run_cli(
        capsys, "asym-predict", "--n", "20", "--p", "0.5", "--beta", "1.0",
        "--variant", "a",
    )
    assert code == 2
    assert "beta" in err

    code, _, err = run_cli(
        capsys, "asym-predict", "--n", "20", "--p", "0.5", "--beta", "0.5",
        "--g", "gauss", "--variant", "c",
    )
    assert code == 2


def test_series_check(capsys):
    code, out, _ = run_cli(capsys, "series-check", "--p", "0.5", "--max-order", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"][0] == pytest.approx(0.5)
    assert payload["coefficients_exact"] == ["1/2", "1/8", "0", "-1/192"]
    assert "0.25" in payload["remainders"]["odd"]

    code, _, _ = run_cli(capsys, "series-check", "--p", "0.5", "--max-order", "40")
    assert code == 2


def test_series_check_fraction_input(capsys):
    # 1/3 has no float representation; the rational pipeline keeps it exact
    code, out, _ = run_cli(capsys, "series-check", "--p", "1/3", "--max-order", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["p"] == "1/3"
    assert payload["coefficients_exact"] == ["1/3", "1/9", "1/81"]

    code, _, err = run_cli(capsys, "series-check", "--p", "5/4", "--max-order", "3")
    assert code == 2

    code, _, _ = run_cli(capsys, "series-check", "--p", "one-half", "--max-order", "3")
    assert code == 2


def test_mcmc_run_csv_deterministic(capsys):
    args = (
        "mcmc-run", "--n", "16", "--p", "0.5", "--beta", "0.5", "--seed", "4",
        "--sweeps", "60", "--burnin", "20", "--thin", "2", "--replicas", "2",
    )
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph_seed,replica_id,sweep_index,m_scaled"
    assert len(lines) == 1 + 2 * 20
    first = lines[1].split(",")
    assert first[1] == "0"
    assert first[2] == "22"
    float(first[3])
    code2, out2, _ = run_cli(capsys, *args)
    assert out2 == out


def test_mcmc_run_writes_every_row(capsys):
    # 5 replicas cross the group boundary of 4; each row's replica and sweep
    # come from the command's own arguments, its value from run_chain
    seed, n, sweeps, thin, replicas = 6, 16, 70, 3, 5
    code, out, _ = run_cli(
        capsys, "mcmc-run", "--n", str(n), "--p", "0.5", "--beta", "0.5", "--seed", str(seed),
        "--sweeps", str(sweeps), "--thin", str(thin), "--replicas", str(replicas),
    )
    assert code == 0
    params = ModelParams(n=n, p=0.5, beta=0.5)
    graph_seed = derive_seed(seed, 1)
    cfg = ChainConfig(sweeps=sweeps, thin=thin, replicas=replicas, chain_seed=derive_seed(seed, 2))
    chains = run_chain(sample_graph(params, GraphSeed(graph_seed)), params, cfg)
    burn_in = default_burn_in(n)
    want = [
        [str(graph_seed), str(r), str(burn_in + (j + 1) * thin), repr(value)]
        for r, values in enumerate(chains)
        for j, value in enumerate(values)
    ]
    assert len(want) == replicas * ((sweeps - burn_in) // thin) == 50
    lines = out.splitlines()
    assert lines[0] == "graph_seed,replica_id,sweep_index,m_scaled"
    assert [line.split(",") for line in lines[1:]] == want


def test_mcmc_run_from_graph_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    run_cli(capsys, "graph-sample", "--n", "8", "--p", "0.5", "--seed", "2", "--out", str(path))
    code, out, _ = run_cli(
        capsys, "mcmc-run", "--n", "8", "--p", "0.5", "--beta", "0.3",
        "--graph", str(path), "--sweeps", "40", "--burnin", "10",
    )
    assert code == 0
    assert out.splitlines()[1].startswith(",0,11,")


def test_mcmc_run_retention_error(capsys):
    code, _, err = run_cli(
        capsys, "mcmc-run", "--n", "8", "--p", "0.5", "--beta", "0.3",
        "--sweeps", "5", "--burnin", "10",
    )
    assert code == 2
    assert "retained" in err


def test_clt_experiment_json(tmp_path, capsys):
    out_path = tmp_path / "record.json"
    args = (
        "clt-experiment", "--n", "32", "--p", "0.5", "--beta", "0.4",
        "--graphs", "2", "--sweeps", "300", "--burnin", "60", "--replicas", "2",
        "--seed", "12", "--epsilon", "0.25", "--out", str(out_path),
    )
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["reference"]["variance"] == pytest.approx(1 / 0.6)
    assert len(payload["per_graph"]) == 2
    assert payload["pooled"]["count"] == 2 * 2 * 240
    for row in payload["per_graph"]:
        assert row["levy"] <= row["ks"] + 1e-9
    meta = json.loads((tmp_path / "record.json.meta.json").read_text())
    assert "runtime_seconds" in meta and "written_at" in meta

    # rerun: artifact identical even though the sidecar moves
    before = out_path.read_text()
    code, _, _ = run_cli(capsys, *args)
    assert out_path.read_text() == before


def test_clt_experiment_beta_validation(capsys):
    code, _, err = run_cli(
        capsys, "clt-experiment", "--n", "16", "--p", "0.5", "--beta", "1.2",
        "--graphs", "1", "--sweeps", "100",
    )
    assert code == 2
    assert "beta" in err


def test_clt_experiment_threads_byte_identical(capsys):
    args = (
        "clt-experiment", "--n", "96", "--p", "0.5", "--beta", "0.5", "--graphs", "3",
        "--sweeps", "150", "--replicas", "2", "--seed", "8",
    )
    code1, one, _ = run_cli(capsys, *args, "--threads", "1")
    code2, two, _ = run_cli(capsys, *args, "--threads", "2")
    assert code1 == code2 == 0
    assert one == two


# Each JSON command's config echo: every argument but command, func, out and
# threads, whatever the command; then the command's own fields.
_MODEL = ("--n", "4", "--p", "0.5", "--beta", "0.5")
ECHO = {
    "exact-partition": (
        _MODEL,
        {"n", "p", "beta", "seed", "graph"},
        {"graph_seed", "log_z", "free_energy_per_site", "law"},
    ),
    "exact-moments": (
        _MODEL,
        {"n", "p", "beta", "g"},
        {"log_expected_partition", "log_second_moment", "variance_ratio", "variance_ratio_clamped"},
    ),
    "exact-oracle": (
        ("--n", "2", "--p", "0.5", "--beta", "0.5", "--moment", "first"),
        {"n", "p", "beta", "g", "moment"},
        {"log_value"},
    ),
    "asym-predict": (
        (*_MODEL, "--variant", "b"),
        {"n", "p", "beta", "g", "variant"},
        {"log_value", "gaussian_factor"},
    ),
    "series-check": (
        ("--p", "1/2", "--max-order", "3"),
        {"p", "max_order"},
        {"coefficients", "coefficients_exact", "remainders"},
    ),
    "clt-experiment": (
        (*_MODEL, "--graphs", "2", "--sweeps", "40", "--burnin", "10", "--threads", "2"),
        {"n", "p", "beta", "graphs", "sweeps", "burnin", "thin", "replicas", "epsilon", "seed"},
        {"reference", "per_graph", "pooled", "exceed_fraction"},
    ),
}


@pytest.mark.parametrize("command", ECHO)
def test_json_payload_keys(command, capsys):
    argv, config, fields = ECHO[command]
    code, out, _ = run_cli(capsys, command, *argv)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "artifact_version", "config"} | fields
    assert payload["command"] == command
    assert set(payload["config"]) == config


def test_clt_experiment_record_fields(capsys):
    code, out, _ = run_cli(capsys, "clt-experiment", *ECHO["clt-experiment"][0])
    assert code == 0
    payload = json.loads(out)
    assert set(payload["reference"]) == {"mean", "variance"}
    assert set(payload["pooled"]) == {"count", "mean", "variance"}
    for run in payload["per_graph"]:
        assert set(run) == {
            "graph_seed", "n_samples", "sample_mean", "sample_variance", "levy", "ks"
        }


@pytest.mark.parametrize("threads", ["1", "2"])
def test_clt_experiment_ends_soon_after_sigint(threads):
    # each graph's chain runs for seconds; SIGINT once the chains are running
    # must end the process within a few kernel blocks, on either thread count
    argv = [
        sys.executable, "-m", "dilutecw.cli", "clt-experiment", "--n", "4096", "--p", "0.5",
        "--beta", "0.5", "--graphs", "2", "--sweeps", "60000", "--threads", threads,
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        assert "2 graphs at n=4096" in proc.stderr.readline().decode()
        time.sleep(1.0)
        sent = time.perf_counter()
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=5.0)
        assert time.perf_counter() - sent < 5.0
        rest = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert proc.returncode == 130
    assert rest.splitlines()[-1] == "error: interrupted"
    assert "Traceback" not in rest


# A command interrupted in its library call, and that call's name in cli.
_INTERRUPTED = {
    "clt-experiment": (
        ("--n", "16", "--p", "0.5", "--beta", "0.5", "--graphs", "2", "--sweeps", "50"),
        "quenched_experiment",
    ),
    "exact-partition": (("--n", "12", "--p", "0.5", "--beta", "0.5"), "enumerate_partition"),
    "mcmc-run": (("--n", "16", "--p", "0.5", "--beta", "0.5", "--sweeps", "50"), "run_chain"),
}


@pytest.mark.parametrize("command", sorted(_INTERRUPTED))
def test_ctrl_c_is_one_error_line_and_exit_130(command, tmp_path, capsys, monkeypatch):
    # Ctrl-C raises KeyboardInterrupt wherever the main thread is; here the
    # command's library call raises it, as a signal handler would
    argv, name = _INTERRUPTED[command]

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, name, interrupted)
    out_path = tmp_path / "out"
    code, out, err = run_cli(capsys, command, *argv, "--out", str(out_path))
    assert code == 130
    assert out == ""
    assert err.splitlines()[-1] == "error: interrupted"
    assert not out_path.exists()


def test_clt_experiment_single_sample_is_usage_error(capsys):
    # one retained sample: the pooled variance has no denominator
    code, out, err = run_cli(
        capsys, "clt-experiment", "--n", "4", "--p", "0.5", "--beta", "0.5",
        "--graphs", "1", "--sweeps", "21", "--seed", "1",
    )
    assert code == 2
    assert out == ""
    assert "at least 2 retained samples" in err
    assert "Traceback" not in err


# n = 4 chains past one cap each: (extra arguments, the count the message
# names, the cap).  The clt-experiment cases stay under each cap per graph and
# pass it only over both graphs.
_PAST_CHAIN_CAPS = {
    ("mcmc-run", "site updates"): (("--sweeps", str(10**13)), 4 * 10**13, 1 << 40),
    ("mcmc-run", "values"): (
        ("--sweeps", str((1 << 23) + 1), "--burnin", "0", "--replicas", "2"),
        (1 << 24) + 2, 1 << 24,
    ),
    ("clt-experiment", "site updates"): (
        ("--graphs", "2", "--sweeps", str(1 << 38), "--thin", str(1 << 15)), 1 << 41, 1 << 40,
    ),
    ("clt-experiment", "values"): (
        ("--graphs", "2", "--sweeps", str((1 << 23) + 1), "--burnin", "0"),
        (1 << 24) + 2, 1 << 24,
    ),
}


@pytest.mark.parametrize("command, cap", sorted(_PAST_CHAIN_CAPS))
def test_chain_past_a_work_cap_exit_3(command, cap, capsys, monkeypatch):
    # sampling and sweeping both go through the kernel set, so reaching it
    # fails the test: the caps are checked before either starts
    monkeypatch.setattr(_csweep, "library", lambda: pytest.fail("kernel set reached"))
    extra, count, limit = _PAST_CHAIN_CAPS[command, cap]
    started = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--n", "4", "--p", "0.5", "--beta", "0.5", *extra)
    assert code == 3
    assert out == ""
    assert f"{count} {cap}, above the cap of {limit}" in err
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("seed", ["-5", str(1 << 64)])
@pytest.mark.parametrize(
    "command",
    [
        ("graph-sample", "--n", "4", "--p", "0.5"),
        ("exact-partition", "--n", "4", "--p", "0.5", "--beta", "0.5"),
        ("mcmc-run", "--n", "4", "--p", "0.5", "--beta", "0.5", "--sweeps", "30"),
        ("clt-experiment", "--n", "4", "--p", "0.5", "--beta", "0.5", "--graphs", "2",
         "--sweeps", "30"),
    ],
    ids=lambda c: c[0] if isinstance(c, tuple) else None,
)
def test_seed_outside_64_bits_is_usage_error(command, seed, capsys):
    code, out, err = run_cli(capsys, *command, "--seed", seed)
    assert code == 2
    assert out == ""
    assert "--seed" in err and "2^64" in err
    # the largest 64-bit seed is accepted
    code, _, _ = run_cli(capsys, *command, "--seed", str((1 << 64) - 1))
    assert code == 0


@pytest.mark.parametrize("beta", ["inf", "nan", "-inf"])
def test_non_finite_beta_is_usage_error(beta, capsys):
    code, out, err = run_cli(
        capsys, "mcmc-run", "--n", "4", "--p", "0.5", "--beta", beta, "--sweeps", "30"
    )
    assert code == 2
    assert out == ""
    assert "beta" in err


def test_exact_moments_huge_beta_is_finite(capsys):
    # p e^z overflows a double here; the moments are still finite
    for p in ("0.5", "1"):
        code, out, err = run_cli(
            capsys, "exact-moments", "--n", "4", "--p", p, "--beta", "1e6"
        )
        assert code == 0, err
        payload = json.loads(out)
        assert math.isfinite(payload["log_expected_partition"])
        assert math.isfinite(payload["log_second_moment"])
    # a variance ratio beyond the largest double is reported as infinite
    code, out, err = run_cli(
        capsys, "exact-moments", "--n", "30", "--p", "0.3", "--beta", "1e3"
    )
    assert code == 0, err
    assert json.loads(out)["variance_ratio"] == "inf"


@pytest.mark.parametrize(
    "argv",
    [
        ("exact-oracle", "--n", "2", "--p", "1e-320", "--beta", "0.5", "--moment", "second"),
        ("exact-moments", "--n", "10", "--p", "0.5", "--beta", "1e307"),
        ("exact-partition", "--n", "6", "--p", "1e-320", "--beta", "0.5"),
    ],
    ids=lambda argv: argv[0],
)
def test_log_weight_overflow_is_domain_error(argv, capsys):
    # 2 beta n / p is beyond the largest double
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "double range" in err


@pytest.mark.parametrize("spec", ["bump:0,inf", "bump:nan,1", "bump:1e308,1e308"])
def test_non_finite_bump_is_domain_error(spec, capsys):
    code, out, err = run_cli(
        capsys, "exact-moments", "--n", "4", "--p", "0.5", "--beta", "0.5", "--g", spec
    )
    assert code == 2
    assert out == ""
    assert "bump" in err


def test_exact_oracle_overflow_is_typed_error(capsys):
    for moment, beta in (("first", "400"), ("second", "200")):
        code, out, err = run_cli(
            capsys, "exact-oracle", "--n", "2", "--p", "0.5", "--beta", beta,
            "--moment", moment,
        )
        assert code == 4
        assert out == ""
        assert "double range" in err
        assert "Traceback" not in err
    # one step inside the range the value is unchanged
    code, out, _ = run_cli(
        capsys, "exact-oracle", "--n", "2", "--p", "0.5", "--beta", "200", "--moment", "first"
    )
    assert code == 0
    assert json.loads(out)["log_value"] == 397.92055845832016


def test_asym_predict_overflow_is_typed_error(capsys):
    # cosh(beta / (2 n p)) is beyond the largest double
    code, out, err = run_cli(
        capsys, "asym-predict", "--n", "2", "--p", "1e-4", "--beta", "0.5", "--variant", "a"
    )
    assert code == 4
    assert out == ""
    assert "double range" in err


def test_series_check_refuses_coefficients_too_long_to_print(tmp_path, capsys):
    # at p = 10^-300, c_15's denominator passes the 4300 decimal digits that
    # Python converts to text by default; c_14's does not
    if getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300:
        pytest.skip("this interpreter's int-to-text limit is not the default 4300 digits")
    code, out, _ = run_cli(capsys, "series-check", "--p", "1e-300", "--max-order", "14")
    assert code == 0
    assert json.loads(out)["coefficients_exact"][0] == "1/1" + "0" * 300
    out_path = tmp_path / "series.json"
    code, out, err = run_cli(
        capsys, "series-check", "--p", "1e-300", "--max-order", "15", "--out", str(out_path),
    )
    assert code == 2
    assert out == ""
    assert not out_path.exists()
    assert err.startswith("error: coefficient c_15 has more than 4300 decimal digits")
    assert "get_int_max_str_digits" in err


def test_series_check_p_rounding_to_zero_is_domain_error(capsys):
    # 1e-400 is a positive rational, but the remainders take it as the float 0.0
    code, out, err = run_cli(capsys, "series-check", "--p", "1e-400")
    assert code == 2
    assert out == ""
    assert "p must lie in (0, 1]" in err


def test_chain_sidecar_names_the_sweep_kernel(tmp_path, capsys):
    out_path = tmp_path / "chain.csv"
    code, _, _ = run_cli(
        capsys, "mcmc-run", "--n", "16", "--p", "0.5", "--beta", "0.5", "--sweeps", "60",
        "--out", str(out_path),
    )
    assert code == 0
    meta = json.loads((tmp_path / "chain.csv.meta.json").read_text())
    assert meta["sweep_kernel"] in ("c", "python")
    assert "sweep_kernel" not in out_path.read_text()


def test_asym_predict_wide_bump_factor(capsys):
    # sigma (1 - sigma^2/w^2) at sigma^2 = 2, w = 1000: the bump's own
    # curvature, not the quadrature, keeps it below sqrt(2)
    code, out, _ = run_cli(
        capsys, "asym-predict", "--n", "20", "--p", "0.5", "--beta", "0.5",
        "--g", "bump:0,1000", "--variant", "a",
    )
    assert code == 0
    assert json.loads(out)["gaussian_factor"] == pytest.approx(math.sqrt(2) * (1 - 2e-6), rel=1e-9)


@pytest.mark.parametrize("beta, code", [("1e3", 0), ("1e15", 4), ("1e17", 4)])
def test_exact_moments_refuses_a_cancelled_variance_ratio(beta, code, capsys):
    got, out, err = run_cli(capsys, "exact-moments", "--n", "10", "--p", "0.5", "--beta", beta)
    assert got == code, err
    if code == 0:
        # the large-beta limit: 2^100 from the two ground states of 10 spins
        assert json.loads(out)["variance_ratio"] == pytest.approx(2.0**100, rel=1e-9)
    else:
        assert out == "" and "lost to cancellation" in err


def test_chain_sidecar_names_the_sweep_path(tmp_path, capsys, monkeypatch):
    from dilutecw import _csweep

    argv = ("--n", "70", "--p", "0.5", "--beta", "0.5", "--sweeps", "30", "--burnin", "2")
    for python_only in (False, True):
        if python_only:
            monkeypatch.setattr(_csweep, "_loaded", [_twins._TWINS])
        for command, extra in (("mcmc-run", ()), ("clt-experiment", ("--graphs", "2"))):
            out_path = tmp_path / f"{command}-{python_only}.out"
            code, _, _ = run_cli(capsys, command, *argv, *extra, "--out", str(out_path))
            assert code == 0
            meta = json.loads(out_path.with_name(out_path.name + ".meta.json").read_text())
            assert meta.get("sweep_path") == _csweep.library().paths.get("sweep_block")
            assert "sweep_path" not in out_path.read_text()
            if meta["sweep_kernel"] == "c":
                assert meta["sweep_path"] in _csweep.PATHS
            else:
                assert "sweep_path" not in meta


def test_sidecars_name_the_sample_path(tmp_path, capsys, monkeypatch):
    from dilutecw import _csweep

    model = ("--n", "70", "--p", "0.5")
    chain = ("--beta", "0.5", "--sweeps", "30", "--burnin", "2")
    graph_file = tmp_path / "g.txt"
    runs = (
        ("graph-sample", (), True),
        ("mcmc-run", chain, True),
        ("clt-experiment", (*chain, "--graphs", "2"), True),
        # a graph read from its file samples nothing
        ("mcmc-run", (*chain, "--graph", str(graph_file)), False),
    )
    for python_only in (False, True):
        if python_only:
            monkeypatch.setattr(_csweep, "_loaded", [_twins._TWINS])
        for k, (command, extra, sampled) in enumerate(runs):
            out_path = graph_file if k == 0 else tmp_path / f"{command}-{k}-{python_only}.out"
            code, _, _ = run_cli(capsys, command, *model, *extra, "--out", str(out_path))
            assert code == 0
            meta = json.loads(out_path.with_name(out_path.name + ".meta.json").read_text())
            assert "sample_path" not in out_path.read_text()
            if sampled and _csweep.library().paths:
                assert meta["sample_path"] == _csweep.library().paths["sample_rows"]
                assert meta["sample_path"] in _csweep.SAMPLE_PATHS
            else:
                assert "sample_path" not in meta


# Extreme spellings of a real number, for p, beta, epsilon and bump parameters.
_EXTREMES = ["1e-320", "1e-10", "1e308", "inf", "-inf", "nan", "0", "-0.5", "-1", "0.5", "1", "2"]
_REALS = st.one_of(st.sampled_from(_EXTREMES), st.floats(-1e3, 1e3).map(repr))
_TEST_FUNCTIONS = st.one_of(
    st.sampled_from(["one", "gauss", "cosine", "nope", "bump:1", "bump:a,b"]),
    st.tuples(_REALS, _REALS).map(lambda cw: f"bump:{cw[0]},{cw[1]}"),
)


@st.composite
def cli_argvs(draw):
    """Arguments for one of the eight commands, every size kept small: n <= 10
    for chains and enumeration, n <= 3 for the oracle, sweeps <= 200, and at
    most two threads."""
    command = draw(st.sampled_from([
        "graph-sample", "exact-partition", "exact-moments", "exact-oracle",
        "asym-predict", "series-check", "mcmc-run", "clt-experiment",
    ]))
    if command == "series-check":
        p = draw(st.one_of(_REALS, st.sampled_from(["1/3", "5/4", "1e-400", "1e400", "-1/2"])))
        order = draw(st.integers(-1, 20))
        return [command, "--p", p, "--max-order", str(order)]
    n_max = {"exact-oracle": 3, "asym-predict": 1000}.get(command, 10)
    argv = [command, "--n", str(draw(st.integers(-1, n_max))), "--p", draw(_REALS)]
    if command != "graph-sample":
        argv += ["--beta", draw(_REALS)]
    if command in ("exact-moments", "exact-oracle", "asym-predict"):
        argv += ["--g", draw(_TEST_FUNCTIONS)]
    if command == "exact-oracle":
        argv += ["--moment", draw(st.sampled_from(["first", "second"]))]
    if command == "asym-predict":
        argv += ["--variant", draw(st.sampled_from(["a", "b", "c"]))]
    if command in ("mcmc-run", "clt-experiment"):
        argv += ["--sweeps", str(draw(st.integers(-1, 200))),
                 "--thin", str(draw(st.integers(0, 4))),
                 "--replicas", str(draw(st.integers(0, 2)))]
        burn_in = draw(st.one_of(st.none(), st.integers(-1, 60)))
        if burn_in is not None:
            argv += ["--burnin", str(burn_in)]
    if command == "clt-experiment":
        argv += ["--graphs", str(draw(st.integers(-1, 3))),
                 "--epsilon", draw(_REALS),
                 "--threads", draw(st.sampled_from(["1", "2"]))]
    return argv


def _strings(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _strings(item)
    elif isinstance(value, str):
        yield value


@settings(max_examples=400, deadline=None)
@given(cli_argvs())
def test_cli_arguments_end_in_a_result_or_a_typed_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0 and argv[0] not in ("graph-sample", "mcmc-run"):
        assert "nan" not in list(_strings(json.loads(out.getvalue()))), argv
    if code == 0 and argv[0] == "mcmc-run":
        assert "nan" not in out.getvalue()
