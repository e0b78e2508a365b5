"""Chain correctness: field arithmetic, replayability, stationarity."""

import ctypes
import dataclasses
import functools
import io
import math
import os
import subprocess
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dilutecw import _csweep, _twins, mcmc, pcg64
from dilutecw.errors import CapacityError
from dilutecw.exact import enumerate_partition
from dilutecw.graph import GraphSeed, bernoulli_threshold, read_graph, sample_graph, write_graph
from dilutecw.mcmc import (
    ChainConfig,
    GraphChain,
    build_update_tables,
    check_chain_work,
    default_burn_in,
    derive_seed,
    quenched_experiment,
    run_chain,
)
from dilutecw.model import DisorderGraph, ModelParams
from dilutecw.stats import EmpiricalMeasure
from helpers import SpinConfig, kernel_sets, path_sets, probed_features, total_variation

# Graph rows, masks, states and rng rows as numpy holds them.
_WORD = np.dtype("<u8")


def test_update_tables_match_matrix_masks():
    # masks read off the 0/1 matrix: bit j of w1[i] (w2[i]) is set when
    # eps[i,j] + eps[j,i] is 1 (2), j != i; base is the field with all down
    params = ModelParams(n=13, p=0.45, beta=1.0)
    for seed in (1, 2, 3):
        g = sample_graph(params, GraphSeed(seed))
        eps = g._cells().tolist()
        w1, w2, base = [], [], []
        for i in range(g.n):
            weight = [0 if j == i else eps[i][j] + eps[j][i] for j in range(g.n)]
            w1.append(sum(1 << j for j in range(g.n) if weight[j] == 1))
            w2.append(sum(1 << j for j in range(g.n) if weight[j] == 2))
            base.append(sum(weight))
        for kernels in kernel_sets():
            tables = kernels.masks(g.words)
            assert _twins._mask_ints(tables[0]) == w1
            assert _twins._mask_ints(tables[1]) == w2
            assert tables[2].tolist() == base
        _assert_same_tables(build_update_tables(g), tables)


def _library():
    library = _csweep.library()
    if library is _twins._TWINS:
        pytest.skip("no compiled kernels on this host")
    return library


def _compiled():
    return _library().sweep


def _plus(params):
    """The flip table run_chain sweeps with: P(new spin = +1) by field + 2n."""
    return _csweep.library().plus(params.n, params.beta / (params.n * params.p))


def _rng_rows(*seeds):
    """Kernel rng rows of the PCG64 of default_rng(seed), one per seed."""
    return np.array([_twins.rng_row(np.random.PCG64(seed)) for seed in seeds], dtype=_WORD)


def _one_sweep_each(sigma, g, params, seed):
    """One sweep from sigma with the stream of default_rng(seed), by each
    kernel set's masks, flip table and sweep: the new bits from each."""
    results = []
    for kernels in kernel_sets():
        w1, w2, base = kernels.masks(g.words)
        plus = kernels.plus(g.n, params.beta / (params.n * params.p))
        words = w1.shape[1]
        state = np.frombuffer(sigma.bits.to_bytes(8 * words, "little"), dtype=_WORD).copy()
        up = kernels.sweep(w1, w2, base, plus, state[None], _rng_rows(seed), 1)
        bits = int.from_bytes(state.tobytes(), "little")
        assert up == [[bits.bit_count()]]
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
    assert bits == [want] * len(kernel_sets())


def test_empty_graph_sweep_is_fair_coins_any_beta():
    params = ModelParams(n=10, p=0.5, beta=1.4)
    g = DisorderGraph.empty(10)
    u = np.random.default_rng(9).random(10)
    want = sum(1 << i for i in range(10) if u[i] < 0.5)
    bits = _one_sweep_each(SpinConfig.all_up(10), g, params, 9)
    assert bits == [want] * len(kernel_sets())


def test_sweep_is_pure():
    params = ModelParams(n=8, p=0.5, beta=0.9)
    g = sample_graph(params, GraphSeed(4))
    sigma = SpinConfig(n=8, bits=0b10110001)
    tables = build_update_tables(g)
    before = tuple(np.array(table) for table in tables)
    a = _one_sweep_each(sigma, g, params, 5)
    b = _one_sweep_each(sigma, g, params, 5)
    assert a == b
    assert len(set(a)) == 1
    assert sigma.bits == 0b10110001
    # neither sweep writes to the shared tables
    plus = _plus(params)
    for kernels in kernel_sets():
        states = np.zeros((1, 1), dtype=_WORD)
        kernels.sweep(*tables, plus, states, _rng_rows(5), 3)
    for after, want in zip(tables, before):
        assert np.array_equal(after, want)


def _python_only(monkeypatch):
    monkeypatch.setattr(_csweep, "_loaded", [_twins._TWINS])


@pytest.mark.parametrize("beta", [0.5, 1.5])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 1024])
def test_compiled_chain_is_bit_identical_to_python(n, beta, monkeypatch):
    _compiled()
    params = ModelParams(n=n, p=0.5, beta=beta)
    g = sample_graph(params, GraphSeed(n))
    cfg = ChainConfig(sweeps=40, burn_in=3, thin=3, replicas=6, chain_seed=n)
    # groups of 4 and 2 replicas, in blocks of 7 and 14 sweeps, so the run
    # crosses a group boundary and several block boundaries
    monkeypatch.setattr(mcmc, "_BLOCK_SITE_UPDATES", _csweep.GROUP * 7 * n + 3)
    compiled = run_chain(g, params, cfg)
    assert _csweep.library() is not _twins._TWINS
    _python_only(monkeypatch)
    assert _csweep.library() is _twins._TWINS
    assert run_chain(g, params, cfg) == compiled
    assert [len(values) for values in compiled] == [12] * 6


def test_block_size_does_not_change_the_chain(monkeypatch):
    params = ModelParams(n=20, p=0.5, beta=0.8)
    g = sample_graph(params, GraphSeed(2))
    cfg = ChainConfig(sweeps=50, burn_in=5, chain_seed=4)
    whole = run_chain(g, params, cfg)
    monkeypatch.setattr(mcmc, "_BLOCK_SITE_UPDATES", 1)
    assert run_chain(g, params, cfg) == whole


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 70),
    replicas=st.integers(1, 5),
    sweeps=st.integers(1, 60),
    burn_in=st.integers(0, 60),
    thin=st.integers(1, 9),
    block_updates=st.integers(1, 2000),
)
def test_retention_slices_keep_the_sweeps_of_the_rule(n, replicas, sweeps, burn_in, thin,
                                                       block_updates):
    cfg = ChainConfig(sweeps=sweeps, burn_in=burn_in, thin=thin, replicas=replicas, chain_seed=n)
    assume(cfg.retained(n) >= 1)
    params = ModelParams(n=n, p=0.5, beta=0.8)
    g = sample_graph(params, GraphSeed(sweeps))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mcmc, "_BLOCK_SITE_UPDATES", 1 << 40)
        whole = run_chain(g, params, cfg)
        patch.setattr(mcmc, "_BLOCK_SITE_UPDATES", block_updates)
        assert run_chain(g, params, cfg) == whole
        # each row's up-count replaced by its sweep's number, t = done + j + 1
        run = mcmc.GraphChain.run

        def numbered(self, *args):
            for done, counts in run(self, *args):
                yield done, [range(done + 1, done + 1 + len(row)) for row in counts]

        patch.setattr(mcmc.GraphChain, "run", numbered)
        kept = run_chain(g, params, cfg)
    rule = [t for t in range(1, sweeps + 1) if t > burn_in and (t - burn_in) % thin == 0]
    assert [[round((v * math.sqrt(n) + n) / 2) for v in values] for values in kept] == [rule] * replicas


def test_one_graph_chain_restarts_as_run_chain_calls_do(monkeypatch):
    params = ModelParams(n=70, p=0.5, beta=0.8)
    g = sample_graph(params, GraphSeed(6))
    cfg = ChainConfig(sweeps=30, burn_in=0, replicas=3, chain_seed=12)
    monkeypatch.setattr(mcmc, "_BLOCK_SITE_UPDATES", 3 * 7 * 70)
    chain = GraphChain(g, params)

    def counts():
        states, rngs = chain.start(cfg.chain_seed, range(cfg.replicas))
        rows = [[] for _ in range(cfg.replicas)]
        for _, block in chain.run(states, rngs, cfg.sweeps):
            for row, up in zip(rows, block):
                row.extend(up)
        return rows

    first = counts()
    assert counts() == first
    values = [tuple((2 * up - 70) / math.sqrt(70) for up in row) for row in first]
    assert run_chain(g, params, cfg) == values == run_chain(g, params, cfg)


@pytest.mark.parametrize("breakage", ["no compiler", "cache not writable", "library not loadable"])
def test_loader_failure_falls_back_to_identical_output(breakage, tmp_path, monkeypatch, capsys):
    params = ModelParams(n=70, p=0.5, beta=0.7)
    g = sample_graph(params, GraphSeed(5))
    tables = build_update_tables(g)
    plus = _plus(params)
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
    assert sample_graph(params, GraphSeed(5)) == g
    _assert_same_tables(build_update_tables(g), tables)
    assert _plus(params).tobytes() == plus.tobytes()
    assert run_chain(g, params, cfg) == want
    assert run_chain(g, params, cfg) == want
    notes = capsys.readouterr().err.splitlines()
    assert len(notes) == 1 and notes[0].startswith("note: compiled kernels unavailable (")
    assert _csweep.library() is _twins._TWINS
    assert _csweep.library().paths == {}


def _assert_same_tables(got, want):
    # Q and q memoryviews from either kernel set
    assert len(got) == len(want) == 3
    for name, a, b in zip(("w1", "w2", "base"), got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _mask_graph(kind, n):
    """A graph for the mask builders: empty, complete, self-loops only,
    sampled at p = 1e-3, 0.3 or 0.5, or sampled and read back from its text."""
    if kind == "empty":
        return DisorderGraph.empty(n)
    if kind == "complete":
        return DisorderGraph.complete(n)
    if kind == "loops":
        return DisorderGraph.from_matrix(np.eye(n, dtype=np.uint8))
    g = sample_graph(ModelParams(n=n, p=float(kind.split("=")[-1]), beta=1.0), GraphSeed(n))
    if not kind.startswith("file"):
        return g
    buf = io.StringIO()
    write_graph(g, buf)
    return read_graph(io.BytesIO(buf.getvalue().encode("ascii")))


@pytest.mark.parametrize(
    "kind", ["empty", "complete", "loops", "p=1e-3", "p=0.3", "p=0.5", "file p=0.2"]
)
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 300, 1000])
def test_compiled_masks_match_numpy_builder(kind, n):
    library = _library()
    g = _mask_graph(kind, n)
    got = library.masks(g.words)
    _assert_same_tables(got, _twins._TWINS.masks(g.words))
    _assert_same_tables(build_update_tables(g), got)


def test_mask_builder_rejects_mismatched_rows():
    for library in kernel_sets():
        for bad in (np.zeros((70, 1), dtype=_WORD), np.zeros((70, 2), dtype=np.float64),
                    np.zeros((70, 4), dtype=_WORD)[:, ::2]):
            with pytest.raises(ValueError, match="kernel buffer"):
                library.masks(bad)


@pytest.mark.parametrize("path", _csweep.PATHS)
def test_every_mask_builder_path_matches_numpy_builder(path):
    masks = _host_path("build_masks", path).masks
    for kind in ("complete", "loops", "p=0.3", "p=0.5"):
        for n in (1, 63, 64, 65, 129, 1000):
            g = _mask_graph(kind, n)
            _assert_same_tables(masks(g.words), _twins._TWINS.masks(g.words))


@pytest.mark.parametrize("n", [1, 7, 64, 1024, 4096])
def test_compiled_flip_table_matches_python_loop(n):
    library = _library()
    for p in (1e-3, 0.3, 0.5, 1.0):
        for beta in (0.0, 0.5, 1.5, 1e3, 1e6):
            rate = beta / (n * p)
            want = _twins._TWINS.plus(n, rate)
            assert library.plus(n, rate).tobytes() == want.tobytes(), (p, beta)


def test_compiled_library_is_cached(tmp_path, monkeypatch):
    _compiled()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_csweep, "_loaded", [])
    assert _csweep.library() is not _twins._TWINS
    path = _csweep.library_path()
    assert path.parent == tmp_path / "dilutecw" and path.name.startswith("sweep-")
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    stamp = path.stat().st_mtime_ns
    monkeypatch.setattr(_csweep, "_loaded", [])
    assert _csweep.library() is not _twins._TWINS
    assert path.stat().st_mtime_ns == stamp


def test_cli_import_builds_no_kernel(tmp_path):
    # the kernel module, ctypes, the compiler subprocess and numpy stay
    # unloaded, and the cache directory untouched
    code = (
        "import sys, dilutecw.cli as cli; cli.build_parser(); print(sorted(m for m in "
        "('dilutecw._csweep', 'ctypes', 'subprocess', 'numpy') if m in sys.modules))"
    )
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert list(tmp_path.iterdir()) == []


def test_warm_library_load_imports_no_subprocess(tmp_path):
    # only a cache miss compiles, so loading a cached library imports neither
    # the compiler's subprocess module nor tempfile; the cache key needs
    # neither hashlib nor platform; only the fallback imports the twins, and
    # nothing imports numpy
    _compiled()
    assert _csweep.library_path().exists()
    code = (
        "import sys; before = set(sys.modules); "
        "from dilutecw._csweep import library; assert library().paths; "
        "print(sorted({'subprocess', 'tempfile', 'dilutecw._twins', 'hashlib', 'platform', "
        "'numpy'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
    for values in first:
        assert isinstance(values, tuple)
        assert len(values) == 75
    assert first[0] != first[1]
    # 6 replicas cross a group boundary; no replica depends on its group
    six = run_chain(g, params, dataclasses.replace(cfg, replicas=6))
    assert len(six) == 6
    assert six[:2] == run_chain(g, params, dataclasses.replace(cfg, replicas=2))
    assert six[:3] == first


def test_run_chain_stops_between_kernel_blocks():
    params = ModelParams(n=16, p=0.5, beta=0.5)
    g = sample_graph(params, GraphSeed(3))
    cfg = ChainConfig(sweeps=200, burn_in=50, replicas=2, chain_seed=9)
    stop = threading.Event()
    assert run_chain(g, params, cfg, stop=stop) == run_chain(g, params, cfg)
    stop.set()
    with pytest.raises(KeyboardInterrupt):
        run_chain(g, params, cfg, stop=stop)


def test_run_chain_seed_sensitivity():
    params = ModelParams(n=16, p=0.5, beta=0.5)
    g = sample_graph(params, GraphSeed(3))
    a = run_chain(g, params, ChainConfig(sweeps=100, burn_in=10, chain_seed=1))
    b = run_chain(g, params, ChainConfig(sweeps=100, burn_in=10, chain_seed=2))
    assert a[0] != b[0]


def test_run_chain_rejects_empty_retention():
    params = ModelParams(n=16, p=0.5, beta=0.5)
    g = sample_graph(params, GraphSeed(3))
    with pytest.raises(ValueError, match="retained"):
        run_chain(g, params, ChainConfig(sweeps=10, burn_in=50))


def test_chain_work_caps_at_their_bounds(monkeypatch):
    updates, kept = mcmc.MAX_SITE_UPDATES, mcmc.MAX_RETAINED
    check_chain_work(1, ChainConfig(sweeps=updates, burn_in=updates - 1), 1)
    with pytest.raises(CapacityError, match=f"{updates + 1} site updates"):
        check_chain_work(1, ChainConfig(sweeps=updates + 1, burn_in=updates), 1)
    # the retained values count over every graph and replica
    check_chain_work(2, ChainConfig(sweeps=kept // 4, burn_in=0, replicas=2), 2)
    with pytest.raises(CapacityError, match=f"{kept + 4} values"):
        check_chain_work(2, ChainConfig(sweeps=kept // 4 + 1, burn_in=0, replicas=2), 2)
    # run_chain checks its own run against the caps as they are at call time
    params = ModelParams(n=16, p=0.5, beta=0.5)
    g = sample_graph(params, GraphSeed(3))
    monkeypatch.setattr(mcmc, "MAX_SITE_UPDATES", 2 * 16 * 100)
    assert len(run_chain(g, params, ChainConfig(sweeps=100, burn_in=10, replicas=2))) == 2
    with pytest.raises(CapacityError, match="3232 site updates"):
        run_chain(g, params, ChainConfig(sweeps=101, burn_in=10, replicas=2))


def test_magnetization_values_are_scaled_sums():
    # every recorded value must be an achievable k / sqrt(n)
    params = ModelParams(n=12, p=0.6, beta=0.7)
    g = sample_graph(params, GraphSeed(14))
    samples = run_chain(g, params, ChainConfig(sweeps=80, burn_in=20, chain_seed=2))
    root = math.sqrt(12)
    for v in samples[0]:
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
    emp = EmpiricalMeasure.from_samples(samples[0])
    assert total_variation(emp, law) < 0.015


def test_quenched_experiment_smoke():
    params = ModelParams(n=64, p=0.5, beta=0.3)
    cfg = ChainConfig(sweeps=600, burn_in=100, thin=1, replicas=2)
    record = quenched_experiment(params, cfg, 2, master_seed=55, epsilon=0.2)
    assert record.reference.variance == pytest.approx(1 / 0.7)
    assert len(record.per_graph) == 2
    assert record.pooled.count == 2 * 2 * 500
    for run in record.per_graph:
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
    per_site = [v / math.sqrt(256) for v in samples[0]]
    mean_abs = sum(abs(v) for v in per_site) / len(per_site)
    assert mean_abs > 0.6


# Word boundaries, and word counts on either side of a multiple of 8 (one
# AVX-512 vector of words), so the vectorised loops run their tails.
_PATH_SIZES = [1, 2, 63, 64, 65, 127, 128, 129, 511, 512, 513, 1000, 1024, 4100]


def _one_at_a_time(tables, plus, states, rngs, sweeps):
    """The Python sweep of each row of ``states`` and ``rngs`` by a call of its
    own: (final states, final rng rows, up-spin counts), each a list of rows."""
    finals, draws, counts = [], [], []
    for state, row in zip(states, rngs):
        final, rng = state[None].copy(), row[None].copy()
        counts += _twins._TWINS.sweep(*tables, plus, final, rng, sweeps)
        finals.append(final[0].tobytes())
        draws.append(rng[0].tobytes())
    return finals, draws, counts


def _assert_groups_match(sweep, tables, plus, states, rngs, sweeps, want):
    """The first r rows swept together, for r = 1 .. GROUP, give the first r
    rows of ``want``, the rows swept one at a time."""
    for r in range(1, _csweep.GROUP + 1):
        got, rng = states[:r].copy(), rngs[:r].copy()
        up = sweep(*tables, plus, got, rng, sweeps)
        assert ([row.tobytes() for row in got], [row.tobytes() for row in rng], up) == tuple(
            rows[:r] for rows in want
        ), r


@functools.lru_cache(maxsize=None)
def _path_case(n, graph, beta):
    """(tables, plus, GROUP initial states, their rng rows, three sweeps), and
    what the Python sweep makes of each state on its own, checked to be what
    it makes of them as groups."""
    if graph == "complete":
        g, p = DisorderGraph.complete(n), 1.0
    elif graph == "empty":
        g, p = DisorderGraph.empty(n), 0.5
    else:
        p = 0.5
        g = sample_graph(ModelParams(n=n, p=p, beta=0.0), GraphSeed(n))
    tables = build_update_tables(g)
    plus = _plus(ModelParams(n=n, p=p, beta=beta))
    rng = np.random.default_rng(n)
    words = tables[0].shape[1]
    states = np.frombuffer(rng.bytes(8 * words * _csweep.GROUP), dtype=_WORD)
    states = states.reshape(_csweep.GROUP, words).copy()
    states[:, -1] &= np.uint64((1 << (n - 64 * (words - 1))) - 1)
    rngs = _rng_rows(*([n, g] for g in range(_csweep.GROUP)))
    want = _one_at_a_time(tables, plus, states, rngs, 3)
    _assert_groups_match(_twins._TWINS.sweep, tables, plus, states, rngs, 3, want)
    return tables, plus, states, rngs, 3, want


def _host_path(family, name):
    """The compiled set with ``family`` on path ``name``, or skip when this
    host cannot run it."""
    _library()
    kernels = path_sets(family).get(name)
    if kernels is None:
        pytest.skip(f"this CPU does not run the {name} path")
    return kernels


def _path_sweeps():
    """The compiled sweep on every path this CPU runs, then the twin."""
    return [*(kernels.sweep for kernels in path_sets("sweep_block").values()), _twins._TWINS.sweep]


@pytest.mark.parametrize("path", _csweep.PATHS)
@pytest.mark.parametrize(
    "n, graph, beta",
    [(n, "p=0.5", beta) for n in _PATH_SIZES for beta in (0.0, 0.5, 1.5, 1e3)]
    + [(n, graph, 1.5) for n in _PATH_SIZES for graph in ("complete", "empty")],
)
def test_every_kernel_path_matches_python_sweep(path, n, graph, beta):
    sweep = _host_path("sweep_block", path).sweep
    _assert_groups_match(sweep, *_path_case(n, graph, beta))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    p=st.sampled_from([0.01, 0.3, 0.5, 0.9, 1.0]),
    beta=st.sampled_from([0.0, 0.2, 0.9, 1.1, 4.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
    sweeps=st.integers(1, 3),
)
def test_kernel_paths_match_python_sweep_property(n, p, beta, seed, sweeps):
    _library()
    params = ModelParams(n=n, p=p, beta=beta)
    tables = build_update_tables(sample_graph(params, GraphSeed(seed)))
    plus = _plus(params)
    rng = np.random.default_rng(seed)
    spins = rng.integers(0, 2, size=(_csweep.GROUP, n), dtype=np.uint8)
    states = np.zeros((_csweep.GROUP, tables[0].shape[1]), dtype=_WORD)
    states.view(np.uint8)[:, : (n + 7) // 8] = np.packbits(spins, axis=1, bitorder="little")
    rngs = _rng_rows(*([seed, g] for g in range(_csweep.GROUP)))
    want = _one_at_a_time(tables, plus, states, rngs, sweeps)
    _assert_groups_match(_twins._TWINS.sweep, tables, plus, states, rngs, sweeps, want)
    for kernels in path_sets("sweep_block").values():
        _assert_groups_match(kernels.sweep, tables, plus, states, rngs, sweeps, want)


def _pcg64_before(step_to: int, inc: int) -> np.random.PCG64:
    """A numpy PCG64 whose next LCG step lands on ``step_to``: the step
    inverted modulo 2^128."""
    state = (step_to - inc) * pow(pcg64.MULT, -1, 1 << 128) & pcg64.MASK128
    assert (state * pcg64.MULT + inc) & pcg64.MASK128 == step_to
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bit_generator


def _replay_cases():
    """PCG64s of seeds 0, 1 and 2^64 - 1, and of crafted states whose next
    step's XSL-RR output rotates by 0 and by 63 (the top 6 bits of the state)."""
    cases = [np.random.PCG64(seed) for seed in (0, 1, (1 << 64) - 1)]
    inc = np.random.PCG64(7).state["state"]["inc"]
    low = np.random.PCG64(8).state["state"]["state"] & ((1 << 122) - 1)
    return cases + [_pcg64_before(rot << 122 | low, inc) for rot in (0, 63)]


def _copy(bit_generator):
    """A numpy PCG64 in the state of ``bit_generator``."""
    copy = np.random.PCG64(0)
    copy.state = bit_generator.state
    return copy


def _assert_seeds_as_numpy(seed, n):
    assert pcg64.seed_row(seed) == _twins.rng_row(np.random.PCG64(seed))
    want = np.random.default_rng(seed).integers(0, 2, size=n, dtype=np.uint8)
    assert pcg64.packed_spins(seed, n) == np.packbits(want, bitorder="little").tobytes()


# one entropy word for seeds below 2^32, two from 2^32 on
@pytest.mark.parametrize("seed", [0, (1 << 32) - 1, 1 << 32, (1 << 64) - 1])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 300, 4096])
def test_seeding_matches_numpy_at_entropy_word_edges(seed, n):
    _assert_seeds_as_numpy(seed, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, (1 << 64) - 1), st.integers(1, 300))
def test_seeding_matches_numpy(seed, n):
    _assert_seeds_as_numpy(seed, n)


def test_chain_commands_import_no_numpy_random():
    """A chain seeds its spins and its kernel rows through ``pcg64``, so with
    compiled kernels neither chain command imports numpy.random; the twins
    draw through numpy's own PCG64.  numpy 1.x imports numpy.random together
    with numpy, so there this passes trivially."""
    _compiled()
    code = """
import contextlib, io, sys, numpy
before = set(sys.modules)
from dilutecw.cli import main
args = ["--n", "70", "--p", "0.5", "--beta", "0.5", "--sweeps", "30", "--burnin", "5"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["mcmc-run", *args, "--replicas", "2"]),
             main(["clt-experiment", *args, "--graphs", "2", "--threads", "2"])]
print(codes, sorted({"numpy.random"} & (set(sys.modules) - before)))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 0] []"


@pytest.mark.parametrize("case", range(5))
def test_kernel_replays_numpy_pcg64(case):
    bit_generator = _replay_cases()[case]
    row = np.array([_twins.rng_row(bit_generator)], dtype=_WORD)
    sweeps = 3
    # each of the first eight doubles, one sweep at n = 1 apiece, through a
    # field-independent table: u < u is false and u < nextafter(u, 2) is
    # true, so the two spins pin u to the bit
    draws = np.random.Generator(_copy(bit_generator)).random(8)
    lone = build_update_tables(DisorderGraph.empty(1))
    for sweep in _path_sweeps():
        for k, u in enumerate(draws):
            at = np.array([_twins.rng_row(_copy(bit_generator).advance(k))], dtype=_WORD)
            for plus, want in ((u, 0), (np.nextafter(u, 2.0), 1)):
                state, rng = np.zeros((1, 1), dtype=_WORD), at.copy()
                assert sweep(*lone, np.full(5, plus), state, rng, 1) == [
                    [want]
                ], k
        # the stream advances by exactly sweeps n draws, as numpy's advance
        for n in (1, 64, 130):
            params = ModelParams(n=n, p=0.5, beta=0.9)
            tables = build_update_tables(sample_graph(params, GraphSeed(n)))
            plus = _plus(params)
            state = np.zeros((1, tables[0].shape[1]), dtype=_WORD)
            rng = row.copy()
            sweep(*tables, plus, state, rng, sweeps)
            advanced = _copy(bit_generator).advance(sweeps * n)
            lo, hi, inc_lo, inc_hi = (int(v) for v in rng[0])
            assert {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo} == advanced.state["state"]


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 63, 64, 65, 130]),
    generators=st.lists(
        st.tuples(st.integers(0, pcg64.MASK128), st.integers(0, pcg64.MASK128)),
        min_size=1, max_size=_csweep.GROUP,
    ),
    sweeps=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_group_calls_match_rows_one_at_a_time_on_any_pcg64_state(n, generators, sweeps, seed):
    # r = 1 .. GROUP replicas, each with any 128-bit state and increment
    r = len(generators)
    params = ModelParams(n=n, p=0.5, beta=0.9)
    tables = build_update_tables(sample_graph(params, GraphSeed(seed)))
    plus = _plus(params)
    spins = np.random.default_rng(seed).integers(0, 2, size=(r, n), dtype=np.uint8)
    states = np.zeros((r, tables[0].shape[1]), dtype=_WORD)
    states.view(np.uint8)[:, : (n + 7) // 8] = np.packbits(spins, axis=1, bitorder="little")
    rngs = np.array(
        [[s & (2**64 - 1), s >> 64, i & (2**64 - 1), i >> 64] for s, i in generators],
        dtype=_WORD,
    )
    want = _one_at_a_time(tables, plus, states, rngs, sweeps)
    for sweep in _path_sweeps():
        got, rng = states.copy(), rngs.copy()
        up = sweep(*tables, plus, got, rng, sweeps)
        assert ([row.tobytes() for row in got], [row.tobytes() for row in rng], up) == want


def test_sweep_path_is_the_fastest_path_the_cpu_runs():
    # the compiled set names, for each family, the first path of its table
    # that the CPU runs
    library = _library()
    features = probed_features()
    assert library.paths == {family: _csweep._runnable(table, features)[0]
                             for family, table in _csweep.FAMILIES.items()}
    for family, table in _csweep.FAMILIES.items():
        assert list(path_sets(family)) == _csweep._runnable(table, features)


def test_paths_follow_the_table_on_any_cpu():
    # without running such a CPU: each path needs every feature it lists
    runnable = _csweep._runnable
    assert runnable(_csweep.PATHS, {"popcnt"}) == ["popcnt", "generic"]
    assert runnable(_csweep.PATHS, set()) == ["generic"]
    assert runnable(_csweep.PATHS, {"avx512vpopcntdq"}) == ["generic"]
    assert runnable(_csweep.PATHS, set(_csweep.FEATURES)) == list(_csweep.PATHS)
    assert runnable(_csweep.SAMPLE_PATHS, {"avx512f", "avx512vpopcntdq", "popcnt"}) == ["generic"]
    assert runnable(_csweep.SAMPLE_PATHS, set()) == ["generic"]
    # every feature a path needs is probed, and every family is exported on
    # every path of its table, with the C return type of its signature
    exports = {"sweep_block": "void", "build_masks": "void", "count_bits": "int64_t",
               "sample_rows": "void"}
    assert _csweep.FAMILIES == {"sweep_block": _csweep.PATHS, "build_masks": _csweep.PATHS,
                                "count_bits": _csweep.PATHS, "sample_rows": _csweep.SAMPLE_PATHS}
    for family, table in _csweep.FAMILIES.items():
        assert list(table)[-1] == "generic" and not table["generic"]
        for name, needs in table.items():
            assert needs <= set(_csweep.FEATURES)
            assert f"\n{exports[family]} {family}_{name}(" in _csweep.SOURCE


# The entry of each family of _csweep.FAMILIES in a kernel set.
_FAMILY_ENTRIES = {"sweep_block": "sweep", "build_masks": "masks", "count_bits": "count",
                   "sample_rows": "sample"}


def test_each_family_runs_the_fastest_path_the_cpu_runs():
    # the raw function behind each compiled entry is <family>_<path> of the
    # path the set names, and the library exports every path of every
    # family's table
    library = _library()
    assert set(_FAMILY_ENTRIES) == set(_csweep.FAMILIES)
    for family, entry in _FAMILY_ENTRIES.items():
        assert getattr(library, entry).args[0].__name__ == f"{family}_{library.paths[family]}"
        for path, kernels in path_sets(family).items():
            assert getattr(kernels, entry).args[0].__name__ == f"{family}_{path}"
            assert kernels.paths == {**library.paths, family: path}
    assert library.histogram.args[1].__name__ == f"count_bits_{library.paths['count_bits']}"
    lib = ctypes.CDLL(str(_csweep.library_path()))
    for family, table in _csweep.FAMILIES.items():
        for name, needs in table.items():
            assert hasattr(lib, f"{family}_{name}") == (not needs or os.uname().machine == "x86_64")


def _family_outputs(kernels):
    """What the families compute on a few graphs: each graph's rows from the
    sampler, its masks, its edge count, its histogram at n <= 9 and two
    sweeps of two replicas."""
    outputs = []
    for n in (1, 9, 63, 64, 65, 130, 300):
        for p, seed in ((0.3, n), (1.0, 0), (1e-3, (1 << 64) - 1)):
            words = np.zeros((n, (n + 63) // 64), dtype=_WORD)
            kernels.sample(n, seed, bernoulli_threshold(p), 0, words)
            tables = kernels.masks(words)
            plus = kernels.plus(n, 0.9 / (n * p))
            states, rngs = np.zeros((2, words.shape[1]), dtype=_WORD), _rng_rows([seed], [n])
            up = kernels.sweep(*tables, plus, states, rngs, 2)
            outputs.append((words.tobytes(), *(table.tobytes() for table in tables),
                            kernels.count(words), kernels.histogram(words) if n <= 9 else None,
                            up, states.tobytes(), rngs.tobytes()))
    return outputs


@pytest.mark.parametrize("family, path", [(family, path) for family, table in
                                          _csweep.FAMILIES.items() for path in table])
def test_every_family_path_matches_the_twins(family, path):
    # the whole set differs from library()'s in that one family's path, so it
    # must compute what the twins compute
    kernels = _host_path(family, path)
    assert _family_outputs(kernels) == _family_outputs(_twins._TWINS)


def test_cache_key_covers_the_machine(monkeypatch):
    # hosts of two architectures that share a cache each build their own library
    here = _csweep.library_path()
    machine = types.SimpleNamespace(machine="some-other-machine")
    monkeypatch.setattr(_csweep.os, "uname", lambda: machine)
    there = _csweep.library_path()
    assert there != here and there.parent == here.parent


def test_cache_key_covers_the_source_and_the_command(monkeypatch):
    # an edit to the source or to the compiler command builds a new library
    here = _csweep.library_path()
    monkeypatch.setattr(_csweep, "SOURCE", _csweep.SOURCE + "\n")
    edited = _csweep.library_path()
    monkeypatch.undo()
    monkeypatch.setattr(_csweep, "COMMAND", (*_csweep.COMMAND, "-g"))
    rebuilt = _csweep.library_path()
    assert len({here, edited, rebuilt}) == 3
    assert here.parent == edited.parent == rebuilt.parent


def test_kernel_rejects_mismatched_buffers():
    # on every path and on the twin, which refuses what the kernel refuses
    w1, w2, base = build_update_tables(DisorderGraph.complete(70))
    params = ModelParams(n=70, p=1.0, beta=0.5)
    plus = np.array(_plus(params))
    states = np.zeros((2, 2), dtype=_WORD)
    rngs = _rng_rows(1, 2)
    good = (w1, w2, base, plus, states, rngs, 2)
    for sweep in _path_sweeps():
        assert [len(up) for up in sweep(*good)] == [2, 2]
        for k, bad in (
            (0, np.asarray(w1)[:, :1]), (1, np.asarray(w2)[:69]), (2, base[:-1]), (3, plus[:-1]),
            (4, np.zeros((2, 1), dtype=_WORD)), (4, np.zeros(2, dtype=_WORD)),
            (4, np.zeros((2, 2), dtype=_WORD).T),
            (5, np.zeros((2, 3), dtype=_WORD)), (5, np.zeros((3, 4), dtype=_WORD)),
            (5, rngs.astype(np.float64)), (5, rngs.astype(">u8")), (5, rngs.astype(np.uint32)),
            (5, np.zeros((2, 8), dtype=_WORD)[:, ::2]),
        ):
            args = list(good)
            args[k] = bad
            with pytest.raises(ValueError, match="kernel buffer"):
                sweep(*args)
        for k in (4, 5):
            args = list(good)
            args[k] = good[k].copy()
            args[k].flags.writeable = False
            with pytest.raises(ValueError, match="read-only"):
                sweep(*args)
        for sweeps in (-1, np.int64(-1), 2.0, True, "2"):
            with pytest.raises(ValueError, match="sweeps"):
                sweep(*good[:6], sweeps)
        # a group is 1 to GROUP replicas
        for r in (0, _csweep.GROUP + 1):
            args = list(good)
            args[4:6] = np.zeros((r, 2), dtype=_WORD), np.zeros((r, 4), dtype=_WORD)
            with pytest.raises(ValueError, match="replicas together"):
                sweep(*args)


def test_concurrent_first_loads_build_once(tmp_path, monkeypatch):
    # more threads than cores race for the first load; one build, one answer
    _compiled()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_csweep, "_loaded", [])
    builds = []
    build = _csweep._build
    monkeypatch.setattr(_csweep, "_build", lambda path: (builds.append(path), build(path)))
    seen = []
    workers = [threading.Thread(target=lambda: seen.append(_csweep.library())) for _ in range(8)]
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
    assert len(seen) == 8 and seen[0] is not _twins._TWINS and all(s is seen[0] for s in seen)
