"""Chain correctness: field arithmetic, replayability, stationarity."""

import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from dilutecw import _csweep, mcmc
from dilutecw.exact import enumerate_partition
from dilutecw.graph import GraphSeed, sample_graph
from dilutecw.mcmc import (
    ChainConfig,
    build_update_tables,
    default_burn_in,
    derive_seed,
    local_field,
    quenched_experiment,
    run_chain,
    sweep_kernel,
)
from dilutecw.model import DisorderGraph, ModelParams, SpinConfig
from dilutecw.stats import EmpiricalMeasure


def test_update_tables_match_matrix_masks():
    # masks read off the 0/1 matrix: bit j of w1[i] (w2[i]) is set when
    # eps[i,j] + eps[j,i] is 1 (2), j != i; base is the field with all down
    params = ModelParams(n=13, p=0.45, beta=1.0)
    for seed in (1, 2, 3):
        g = sample_graph(params, GraphSeed(seed))
        eps = g.to_matrix()
        w1, w2, base = [], [], []
        for i in range(g.n):
            weight = [0 if j == i else eps[i][j] + eps[j][i] for j in range(g.n)]
            w1.append(sum(1 << j for j in range(g.n) if weight[j] == 1))
            w2.append(sum(1 << j for j in range(g.n) if weight[j] == 2))
            base.append(sum(weight))
        tables = build_update_tables(g)
        assert mcmc._mask_ints(tables.w1) == w1
        assert mcmc._mask_ints(tables.w2) == w2
        assert tables.base.tolist() == base


def test_update_tables_layout_is_checked():
    tables = build_update_tables(DisorderGraph.complete(70))
    assert tables.w1.shape == tables.w2.shape == (70, 2)
    with pytest.raises(ValueError, match="w2"):
        mcmc.SpinUpdateTables(n=70, w1=tables.w1, w2=tables.w2[:, :1], base=tables.base)
    with pytest.raises(ValueError, match="base"):
        mcmc.SpinUpdateTables(n=70, w1=tables.w1, w2=tables.w2, base=tables.base.astype(np.int32))


def test_local_field_against_neighbor_loop():
    params = ModelParams(n=9, p=0.5, beta=1.0)
    g = sample_graph(params, GraphSeed(21))
    sigma = SpinConfig(n=9, bits=0b101100110)
    signs = sigma.to_signs()
    for i in range(9):
        s = sum(
            (g.has_edge(i, j) + g.has_edge(j, i)) * signs[j]
            for j in range(9)
            if j != i
        )
        assert local_field(g, sigma, i, params) == pytest.approx(s / (2 * 9 * 0.5))


def test_local_field_errors():
    params = ModelParams(n=4, p=0.5, beta=1.0)
    g = DisorderGraph.complete(4)
    sigma = SpinConfig.all_up(4)
    with pytest.raises(ValueError, match="site index"):
        local_field(g, sigma, 4, params)
    with pytest.raises(ValueError, match="incompatible"):
        local_field(g, SpinConfig.all_up(5), 0, params)


def _compiled():
    kernel = _csweep.load()
    if kernel is None:
        pytest.skip("no compiled sweep on this host")
    return kernel


def _sweep_kernels():
    """None, which selects the Python sweep, and the compiled kernel where it builds."""
    kernel = _csweep.load()
    return [None] if kernel is None else [None, kernel]


def _one_sweep_each(sigma, g, params, seed):
    """One sweep from sigma with the uniforms of rng(seed), by the Python
    sweep and by the compiled kernel: the new bits from each."""
    tables = build_update_tables(g)
    plus = mcmc._plus_probabilities(params, g.n)
    results = []
    for kernel in _sweep_kernels():
        words = tables.w1.shape[1]
        state = np.frombuffer(sigma.bits.to_bytes(8 * words, "little"), dtype=mcmc._WORD).copy()
        uniforms = np.random.default_rng(seed).random(g.n)
        up = mcmc._block_sweep(tables, plus, kernel)(state, uniforms)
        bits = int.from_bytes(state.tobytes(), "little")
        assert up == [bits.bit_count()]
        results.append(bits)
    return results


def test_beta_zero_sweep_is_fair_coins():
    # at beta = 0 every acceptance probability is exactly 1/2, so the sweep
    # must reproduce the coin flips drawn from the same stream
    params = ModelParams(n=11, p=0.7, beta=0.0)
    g = sample_graph(params, GraphSeed(8))
    u = np.random.default_rng(42).random(11)
    want = sum(1 << i for i in range(11) if u[i] < 0.5)
    bits = _one_sweep_each(SpinConfig.all_down(11), g, params, 42)
    assert bits == [want] * len(_sweep_kernels())


def test_empty_graph_sweep_is_fair_coins_any_beta():
    params = ModelParams(n=10, p=0.5, beta=1.4)
    g = DisorderGraph.empty(10)
    u = np.random.default_rng(9).random(10)
    want = sum(1 << i for i in range(10) if u[i] < 0.5)
    bits = _one_sweep_each(SpinConfig.all_up(10), g, params, 9)
    assert bits == [want] * len(_sweep_kernels())


def test_sweep_is_pure():
    params = ModelParams(n=8, p=0.5, beta=0.9)
    g = sample_graph(params, GraphSeed(4))
    sigma = SpinConfig(n=8, bits=0b10110001)
    tables = build_update_tables(g)
    before = (tables.w1.copy(), tables.w2.copy(), tables.base.copy())
    a = _one_sweep_each(sigma, g, params, 5)
    b = _one_sweep_each(sigma, g, params, 5)
    assert a == b
    assert len(set(a)) == 1
    assert sigma.bits == 0b10110001
    # neither sweep writes to the shared tables
    plus = mcmc._plus_probabilities(params, 8)
    for kernel in _sweep_kernels():
        state = np.zeros(1, dtype=mcmc._WORD)
        mcmc._block_sweep(tables, plus, kernel)(state, np.random.default_rng(5).random(24))
    for after, want in zip((tables.w1, tables.w2, tables.base), before):
        assert np.array_equal(after, want)


def _python_only(monkeypatch):
    monkeypatch.setattr(_csweep, "_loaded", [None])


@pytest.mark.parametrize("beta", [0.5, 1.5])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 1024])
def test_compiled_chain_is_bit_identical_to_python(n, beta, monkeypatch):
    _compiled()
    params = ModelParams(n=n, p=0.5, beta=beta)
    g = sample_graph(params, GraphSeed(n))
    cfg = ChainConfig(sweeps=40, burn_in=3, thin=3, replicas=2, chain_seed=n)
    # blocks of 7 sweeps, so the run crosses several block boundaries
    monkeypatch.setattr(mcmc, "_BLOCK_UNIFORMS", 7 * n + 3)
    compiled = run_chain(g, params, cfg)
    assert sweep_kernel() == "c"
    _python_only(monkeypatch)
    assert sweep_kernel() == "python"
    assert run_chain(g, params, cfg) == compiled
    assert [len(s.values) for s in compiled] == [12, 12]


def test_block_size_does_not_change_the_chain(monkeypatch):
    params = ModelParams(n=20, p=0.5, beta=0.8)
    g = sample_graph(params, GraphSeed(2))
    cfg = ChainConfig(sweeps=50, burn_in=5, chain_seed=4)
    whole = run_chain(g, params, cfg)
    monkeypatch.setattr(mcmc, "_BLOCK_UNIFORMS", 1)
    assert run_chain(g, params, cfg) == whole


@pytest.mark.parametrize("breakage", ["no compiler", "cache not writable", "library not loadable"])
def test_loader_failure_falls_back_to_identical_output(breakage, tmp_path, monkeypatch, capsys):
    params = ModelParams(n=70, p=0.5, beta=0.7)
    g = sample_graph(params, GraphSeed(5))
    cfg = ChainConfig(sweeps=60, burn_in=10, replicas=2, chain_seed=6)
    want = run_chain(g, params, cfg)

    monkeypatch.setattr(_csweep, "_loaded", [])
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    if breakage == "no compiler":
        monkeypatch.setattr(_csweep, "COMMAND", (str(tmp_path / "no-such-cc"), "-O2"))
    elif breakage == "cache not writable":
        (tmp_path / "cache").write_text("a file where the cache directory should be")
    else:
        path = _csweep.library_path()
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a shared library")
    capsys.readouterr()
    assert run_chain(g, params, cfg) == want
    assert run_chain(g, params, cfg) == want
    notes = capsys.readouterr().err.splitlines()
    assert len(notes) == 1 and notes[0].startswith("note: compiled sweep unavailable (")
    assert sweep_kernel() == "python"


def test_compiled_library_is_cached(tmp_path, monkeypatch):
    _compiled()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_csweep, "_loaded", [])
    assert _csweep.load() is not None
    path = _csweep.library_path()
    assert path.parent == tmp_path / "dilutecw" and path.name.startswith("sweep-")
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    stamp = path.stat().st_mtime_ns
    monkeypatch.setattr(_csweep, "_loaded", [])
    assert _csweep.load() is not None
    assert path.stat().st_mtime_ns == stamp


def test_cli_import_builds_no_kernel(tmp_path):
    # numpy imports ctypes by itself, so the check is on the kernel module,
    # the compiler subprocess and the cache directory
    code = (
        "import sys, dilutecw.cli as cli; cli.build_parser(); "
        "print(sorted(m for m in ('dilutecw._csweep', 'subprocess') if m in sys.modules))"
    )
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert list(tmp_path.iterdir()) == []


def test_derive_seed_spreads():
    seen = {derive_seed(0), derive_seed(1), derive_seed(0, 0), derive_seed(0, 1),
            derive_seed(0, 0, 0), derive_seed(0, 1, 0), derive_seed(0, 0, 1)}
    assert len(seen) == 7
    for v in seen:
        assert 0 <= v < (1 << 64)
    assert derive_seed(123, 4, 5) == derive_seed(123, 4, 5)


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(sweeps=0)
    with pytest.raises(ValueError):
        ChainConfig(sweeps=10, burn_in=-1)
    with pytest.raises(ValueError):
        ChainConfig(sweeps=10, thin=0)
    with pytest.raises(ValueError):
        ChainConfig(sweeps=10, replicas=0)
    with pytest.raises(ValueError):
        ChainConfig(sweeps=10, chain_seed=1 << 64)


def test_retained_counts():
    cfg = ChainConfig(sweeps=100, burn_in=20, thin=3)
    assert cfg.retained(5) == 26
    assert ChainConfig(sweeps=10, burn_in=20).retained(5) == 0
    # default burn-in rule
    assert ChainConfig(sweeps=100).resolved_burn_in(16) == default_burn_in(16) == 40


def test_run_chain_is_deterministic():
    params = ModelParams(n=16, p=0.5, beta=0.5)
    g = sample_graph(params, GraphSeed(3))
    cfg = ChainConfig(sweeps=200, burn_in=50, thin=2, replicas=3, chain_seed=9)
    first = run_chain(g, params, cfg)
    second = run_chain(g, params, cfg)
    assert first == second
    assert len(first) == 3
    for replica_id, sample in enumerate(first):
        assert sample.replica_id == replica_id
        assert len(sample.values) == 75
        assert sample.first_sweep == 52
    assert first[0].values != first[1].values


def test_run_chain_seed_sensitivity():
    params = ModelParams(n=16, p=0.5, beta=0.5)
    g = sample_graph(params, GraphSeed(3))
    a = run_chain(g, params, ChainConfig(sweeps=100, burn_in=10, chain_seed=1))
    b = run_chain(g, params, ChainConfig(sweeps=100, burn_in=10, chain_seed=2))
    assert a[0].values != b[0].values


def test_run_chain_rejects_empty_retention():
    params = ModelParams(n=16, p=0.5, beta=0.5)
    g = sample_graph(params, GraphSeed(3))
    with pytest.raises(ValueError, match="retained"):
        run_chain(g, params, ChainConfig(sweeps=10, burn_in=50))


def test_magnetization_values_are_scaled_sums():
    # every recorded value must be an achievable k / sqrt(n)
    params = ModelParams(n=12, p=0.6, beta=0.7)
    g = sample_graph(params, GraphSeed(14))
    samples = run_chain(g, params, ChainConfig(sweeps=80, burn_in=20, chain_seed=2))
    root = math.sqrt(12)
    for v in samples[0].values:
        k = round(v * root)
        assert abs(k * 1.0 / root - v) < 1e-12
        assert -12 <= k <= 12 and k % 2 == 0


def test_stationarity_small_system():
    # long chain against the exactly enumerated law
    params = ModelParams(n=6, p=0.5, beta=1.0)
    g = sample_graph(params, GraphSeed(11))
    law = enumerate_partition(g, params).law
    cfg = ChainConfig(sweeps=300_300, burn_in=300, thin=1, chain_seed=123)
    samples = run_chain(g, params, cfg)
    emp = EmpiricalMeasure.from_samples(samples[0].values)
    assert emp.total_variation(law) < 0.015


def test_quenched_experiment_smoke():
    params = ModelParams(n=64, p=0.5, beta=0.3)
    cfg = ChainConfig(sweeps=600, burn_in=100, thin=1, replicas=2)
    record = quenched_experiment(params, cfg, 2, master_seed=55, epsilon=0.2)
    assert record.reference.variance == pytest.approx(1 / 0.7)
    assert len(record.runs) == 2
    assert record.pooled_count == 2 * 2 * 500
    for run in record.runs:
        assert run.n_samples == 1000
        assert 0.0 <= run.levy <= run.ks + 1e-9
    assert 0.0 <= record.exceed_fraction <= 1.0
    # replays exactly
    again = quenched_experiment(params, cfg, 2, master_seed=55, epsilon=0.2)
    assert again == record


def test_quenched_experiment_threads_match_sequential():
    params = ModelParams(n=32, p=0.5, beta=0.4)
    cfg = ChainConfig(sweeps=300, burn_in=60)
    seq = quenched_experiment(params, cfg, 3, master_seed=7)
    par = quenched_experiment(params, cfg, 3, master_seed=7, threads=3)
    assert seq == par


def test_quenched_experiment_validation():
    params = ModelParams(n=16, p=0.5, beta=0.5)
    cfg = ChainConfig(sweeps=100)
    with pytest.raises(ValueError, match="beta"):
        quenched_experiment(ModelParams(n=16, p=0.5, beta=1.0), cfg, 2, master_seed=1)
    with pytest.raises(ValueError, match="n_graphs"):
        quenched_experiment(params, cfg, 0, master_seed=1)
    with pytest.raises(ValueError, match="epsilon"):
        quenched_experiment(params, cfg, 1, master_seed=1, epsilon=0.0)
    with pytest.raises(ValueError, match="threads"):
        quenched_experiment(params, cfg, 1, master_seed=1, threads=0)
    # one retained sample has no variance
    with pytest.raises(ValueError, match="at least 2"):
        quenched_experiment(params, ChainConfig(sweeps=41, burn_in=40), 1, master_seed=1)


def test_supercritical_chain_magnetizes():
    # above the transition the per-site magnetization should sit near a
    # nonzero branch value rather than near zero
    params = ModelParams(n=256, p=0.5, beta=1.5)
    g = sample_graph(params, GraphSeed(17))
    cfg = ChainConfig(sweeps=400, burn_in=200, chain_seed=31)
    samples = run_chain(g, params, cfg)
    per_site = [v / math.sqrt(256) for v in samples[0].values]
    mean_abs = sum(abs(v) for v in per_site) / len(per_site)
    assert mean_abs > 0.6


def test_kernel_rejects_mismatched_buffers():
    kernel = _compiled()
    tables = build_update_tables(DisorderGraph.complete(70))
    params = ModelParams(n=70, p=1.0, beta=0.5)
    plus = np.array(mcmc._plus_probabilities(params, 70))
    state = np.zeros(2, dtype=mcmc._WORD)
    good = (tables.w1, tables.w2, tables.base, plus, state, np.zeros(140))
    assert len(kernel(*good)) == 2
    for k, bad in enumerate((
        tables.w1[:, :1], tables.w2[:69], tables.base[:-1], plus[:-1],
        np.zeros(1, dtype=mcmc._WORD), np.zeros(140, dtype=np.float32),
    )):
        args = list(good)
        args[k] = bad
        with pytest.raises(ValueError, match="kernel buffer"):
            kernel(*args)


def test_concurrent_first_loads_build_once(tmp_path, monkeypatch):
    # more threads than cores race for the first load; one build, one answer
    _compiled()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_csweep, "_loaded", [])
    builds = []
    build = _csweep._build
    monkeypatch.setattr(_csweep, "_build", lambda path: (builds.append(path), build(path)))
    seen = []
    workers = [threading.Thread(target=lambda: seen.append(_csweep.load())) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(builds) == 1
    assert len(seen) == 8 and seen[0] is not None and all(s is seen[0] for s in seen)
