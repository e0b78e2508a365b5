"""CLI contract: exit codes, determinism, output formats."""

import json
import math
import time

import pytest

from dilutecw.cli import main
from dilutecw.graph import read_graph
from dilutecw.exact import MAX_ENUMERATION_N, MAX_MOMENT_N, expected_partition_log
from dilutecw.model import ModelParams
from dilutecw.testfunctions import make_test_function


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
    code, out, err = run_cli(capsys, "graph-sample", "--n", "8", "--p", "0.5", "--seed", "3")
    assert code == 0
    assert out.startswith("dilute-cw-graph v1 N=8\n")
    assert "edges=" in err

    path = tmp_path / "g.txt"
    code, out2, _ = run_cli(
        capsys, "graph-sample", "--n", "8", "--p", "0.5", "--seed", "3", "--out", str(path)
    )
    assert code == 0
    assert out2 == ""
    assert path.read_text() == out
    g = read_graph(path)
    assert g.n == 8
    # sidecar exists and is not part of the artifact
    assert (tmp_path / "g.txt.meta.json").exists()


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


def test_exact_partition_capacity_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "exact-partition", "--n", str(MAX_ENUMERATION_N + 1), "--p", "0.5",
        "--beta", "0.5",
    )
    assert code == 3


# exact-partition --n 18 --p 0.5 --beta 0.7 --seed 20260818 as recorded from
# the earlier Gray-code walk, which the split sum reproduces bit for bit
GOLDEN_18_LOG_Z = 13.016412994614663
GOLDEN_18_WEIGHTS = [
    0.0008532883762619444,
    0.004493073845495067,
    0.012838978551871778,
    0.026517017760968955,
    0.04443815864855321,
    0.0642575821761988,
    0.08317891923218565,
    0.09863835244050405,
    0.1086957273119958,
    0.11217780331192954,
    0.1086957273119958,
    0.09863835244050405,
    0.08317891923218565,
    0.0642575821761988,
    0.04443815864855321,
    0.026517017760968955,
    0.012838978551871778,
    0.004493073845495067,
    0.0008532883762619444,
]


def test_exact_partition_golden_n18(capsys):
    code, out, _ = run_cli(
        capsys, "exact-partition", "--n", "18", "--p", "0.5", "--beta", "0.7",
        "--seed", "20260818",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["log_z"] == GOLDEN_18_LOG_Z
    assert payload["law"]["weights"] == GOLDEN_18_WEIGHTS
    assert payload["law"]["locations"] == [(2 * c - 18) / math.sqrt(18) for c in range(19)]


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


def test_clt_experiment_threads_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DILUTECW_THREADS", "2")
    code, out, _ = run_cli(
        capsys, "clt-experiment", "--n", "16", "--p", "0.5", "--beta", "0.4",
        "--graphs", "2", "--sweeps", "120", "--burnin", "40", "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    monkeypatch.delenv("DILUTECW_THREADS")
    code, out2, _ = run_cli(
        capsys, "clt-experiment", "--n", "16", "--p", "0.5", "--beta", "0.4",
        "--graphs", "2", "--sweeps", "120", "--burnin", "40", "--seed", "5",
    )
    assert json.loads(out2) == payload


def test_clt_experiment_threads_byte_identical(capsys):
    args = (
        "clt-experiment", "--n", "96", "--p", "0.5", "--beta", "0.5", "--graphs", "3",
        "--sweeps", "150", "--replicas", "2", "--seed", "8",
    )
    code1, one, _ = run_cli(capsys, *args, "--threads", "1")
    code2, two, _ = run_cli(capsys, *args, "--threads", "2")
    assert code1 == code2 == 0
    assert one == two


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
