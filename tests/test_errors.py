"""Which failures are DomainError (a caller's argument is out of domain) and
which stay plain ValueError (an internal invariant or the numerics failed)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dilutecw import CapacityError, DomainError, mcmc
from dilutecw._csweep import library
from dilutecw.asymptotics import (
    cosh_shorthand,
    predict_log_partition,
    remainder_check,
    taylor_coefficients_exact,
)
from dilutecw.exact import disorder_oracle, enumerate_partition, variance_ratio_from_logs
from dilutecw.graph import GraphSeed
from dilutecw.mcmc import (
    MAX_GRAPHS,
    MAX_THREADS,
    ChainConfig,
    derive_seed,
    quenched_experiment,
    run_chain,
)
from dilutecw.model import DisorderGraph, ModelParams
from dilutecw.testfunctions import make_test_function, parse_test_function

HALF = ModelParams(n=4, p=0.5, beta=0.5)
ONE = make_test_function("one")
CFG = ChainConfig(sweeps=30, burn_in=10)

_DOMAIN_CASES = {
    "n_zero": lambda: ModelParams(n=0, p=0.5, beta=0.5),
    "p_zero": lambda: ModelParams(n=4, p=0.0, beta=0.5),
    "beta_nan": lambda: ModelParams(n=4, p=0.5, beta=math.nan),
    "log_weights_overflow": lambda: ModelParams(n=2, p=1e-320, beta=0.5),
    "n_beyond_doubles": lambda: ModelParams(n=1 << 1100, p=0.5, beta=0.5),
    "sweeps_zero": lambda: ChainConfig(sweeps=0),
    "thin_zero": lambda: ChainConfig(sweeps=10, thin=0),
    "seed_negative": lambda: GraphSeed(-1),
    "unknown_g": lambda: make_test_function("nope"),
    "bump_infinite_width": lambda: make_test_function("bump", 0.0, math.inf),
    "bump_nan_center": lambda: make_test_function("bump", math.nan, 1.0),
    "bump_support_overflows": lambda: make_test_function("bump", 1e308, 1e308),
    "g_unparseable": lambda: parse_test_function("bump:x,1"),
    "chain_size_mismatch": lambda: run_chain(DisorderGraph.empty(3), HALF, CFG),
    "chain_retains_nothing": lambda: run_chain(
        DisorderGraph.empty(4), HALF, ChainConfig(sweeps=5, burn_in=10)
    ),
    "enumeration_size_mismatch": lambda: enumerate_partition(DisorderGraph.empty(3), HALF),
    "experiment_beta": lambda: quenched_experiment(
        ModelParams(n=4, p=0.5, beta=1.0), CFG, 1, master_seed=0
    ),
    "experiment_graphs": lambda: quenched_experiment(HALF, CFG, 0, master_seed=0),
    "experiment_epsilon": lambda: quenched_experiment(
        HALF, CFG, 1, master_seed=0, epsilon=math.nan
    ),
    "experiment_threads": lambda: quenched_experiment(HALF, CFG, 1, master_seed=0, threads=0),
    # modulo 2^64, 2^64 would replay seed 0 and -1 seed 2^64 - 1
    "derive_seed_master_2_64": lambda: derive_seed(1 << 64),
    "derive_seed_master_negative": lambda: derive_seed(-1),
    "derive_seed_index_2_64": lambda: derive_seed(5, 1 << 64),
    "derive_seed_index_negative": lambda: derive_seed(5, -1),
    "experiment_seed_2_64": lambda: quenched_experiment(HALF, CFG, 1, master_seed=1 << 64),
    "experiment_seed_negative": lambda: quenched_experiment(HALF, CFG, 1, master_seed=-1),
    "experiment_pooled": lambda: quenched_experiment(
        HALF, ChainConfig(sweeps=11, burn_in=10), 1, master_seed=0
    ),
    "predict_variant": lambda: predict_log_partition(HALF, ONE, "d"),
    "predict_beta": lambda: predict_log_partition(ModelParams(n=4, p=0.5, beta=1.0), ONE, "a"),
    "predict_c_needs_one": lambda: predict_log_partition(HALF, make_test_function("gauss"), "c"),
    "taylor_order": lambda: taylor_coefficients_exact(Fraction(1, 2), 0),
    "taylor_p": lambda: taylor_coefficients_exact(Fraction(5, 4), 3),
    "remainder_p": lambda: remainder_check(0.0, 0.1),
    "remainder_z": lambda: remainder_check(0.5, 0.5),
    "oracle_moment": lambda: disorder_oracle(ModelParams(n=2, p=0.5, beta=0.5), ONE, "third"),
}


@pytest.mark.parametrize("call", _DOMAIN_CASES.values(), ids=_DOMAIN_CASES.keys())
def test_argument_checks_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


_NUMERIC_CASES = {
    "negative_variance_ratio": lambda: variance_ratio_from_logs(1.0, 1.0),
    "cancelled_variance_ratio": lambda: variance_ratio_from_logs(1e16, 2e16 + 68.0),
    # the sweep kernel, compiled or twin, refuses a table of the wrong layout
    "table_layout": lambda: library().sweep(
        np.zeros((1, 1), dtype="<u8"),
        np.zeros((1, 1), dtype="<u8"),
        np.zeros(1, dtype=np.int32),
        0.5,
        np.zeros((1, 1), dtype="<u8"),
        np.zeros((1, 4), dtype="<u8"),
        1,
    ),
    "oracle_overflow": lambda: disorder_oracle(ModelParams(n=2, p=0.5, beta=400.0), ONE, "first"),
    "shorthand_overflow": lambda: cosh_shorthand(ModelParams(n=2, p=1e-4, beta=0.5), "A"),
}


@pytest.mark.parametrize("call", _NUMERIC_CASES.values(), ids=_NUMERIC_CASES.keys())
def test_internal_and_numeric_failures_stay_plain_value_error(call):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError


def _no_pool(*args, **kwargs):
    raise AssertionError("a pool was made")


@pytest.mark.parametrize("threads", [MAX_THREADS + 1, 10**6])
def test_thread_counts_above_the_cap_are_refused_before_any_pool(threads, monkeypatch):
    # a pool of that size would start up to one OS thread per graph
    monkeypatch.setattr(mcmc, "ThreadPoolExecutor", _no_pool)
    with pytest.raises(CapacityError, match=f"{threads} threads, above the cap of {MAX_THREADS}"):
        quenched_experiment(HALF, CFG, 10**5, master_seed=0, threads=threads)


def _no_graph(*args, **kwargs):
    raise AssertionError("a graph was sampled")


@pytest.mark.parametrize("graphs", [MAX_GRAPHS + 1, 1 << 24])
def test_graph_counts_above_the_cap_are_refused_before_any_graph(graphs, monkeypatch):
    # one sweep at n = 1 passes every other cap, even at 2^24 graphs, which
    # would take about 1.8 h and 45 GB at 0.4 ms and 2.7 KB a graph
    monkeypatch.setattr(mcmc, "ThreadPoolExecutor", _no_pool)
    monkeypatch.setattr(mcmc, "sample_graph", _no_graph)
    lone = ModelParams(n=1, p=0.5, beta=0.5)
    with pytest.raises(CapacityError, match=f"{graphs} graphs, above the cap of {MAX_GRAPHS}"):
        quenched_experiment(lone, ChainConfig(sweeps=1, burn_in=0), graphs, master_seed=0)


def test_chain_refusals_come_in_the_order_of_run_chain(monkeypatch):
    # the caps, then a chain that keeps nothing, then the pooled variance's
    # two samples: the same settings exit alike from mcmc-run and clt-experiment
    monkeypatch.setattr(mcmc, "ThreadPoolExecutor", _no_pool)
    huge = ModelParams(n=1 << 20, p=0.5, beta=0.5)
    with pytest.raises(CapacityError, match="site updates"):
        quenched_experiment(huge, ChainConfig(sweeps=2 * 10**6, burn_in=2 * 10**6), 1,
                            master_seed=0)
    with pytest.raises(DomainError, match="no samples retained"):
        quenched_experiment(HALF, ChainConfig(sweeps=10, burn_in=10), 1, master_seed=0)
    with pytest.raises(DomainError, match="at least 2 retained samples, got 1"):
        quenched_experiment(HALF, ChainConfig(sweeps=11, burn_in=10), 1, master_seed=0)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_master_seeds_outside_64_bits_are_refused_before_any_pool(seed, monkeypatch):
    # each worker would derive its graph's seed and fail only after every
    # graph was handed to the pool
    monkeypatch.setattr(mcmc, "ThreadPoolExecutor", _no_pool)
    with pytest.raises(DomainError, match="must lie in \\[0, 2\\^64\\)"):
        quenched_experiment(HALF, CFG, 10**5, master_seed=seed)
