"""Annealed identities against brute-force disorder averages, and the
split-sum enumeration against a per-configuration oracle."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilutecw.errors import CapacityError
from dilutecw.exact import (
    MAX_ENUMERATION_N,
    MAX_MOMENT_N,
    _interaction_histogram,
    disorder_oracle,
    enumerate_partition,
    expected_partition_log,
    expected_weight_log,
    moment_coefficients,
    pair_spin_count,
    second_moment_log,
    spin_count,
    variance_ratio,
    variance_ratio_detail,
)
from dilutecw.graph import GraphSeed, sample_graph
from dilutecw.model import DisorderGraph, ModelParams, SpinConfig, interaction_sum
from dilutecw.testfunctions import make_test_function

ONE = make_test_function("one")
GAUSS = make_test_function("gauss")


def naive_histogram(g):
    """Oracle: count every configuration by (s, class), keyed s * (n + 1) + class."""
    hist = {}
    for bits in range(1 << g.n):
        key = interaction_sum(g, SpinConfig(n=g.n, bits=bits)) * (g.n + 1) + bits.bit_count()
        hist[key] = hist.get(key, 0) + 1
    return hist


def naive_class_logs(g, params):
    """Oracle: walk every configuration, no split, no histogram."""
    n = g.n
    gamma = params.gamma
    terms = [[] for _ in range(n + 1)]
    for bits in range(1 << n):
        sigma = SpinConfig(n=n, bits=bits)
        terms[bits.bit_count()].append(gamma * interaction_sum(g, sigma))

    def lse(ts):
        if not ts:
            return -math.inf
        peak = max(ts)
        return peak + math.log(sum(math.exp(t - peak) for t in ts))

    logs = [lse(t) for t in terms]
    return lse(logs), logs


def test_coefficients_against_high_precision():
    params = ModelParams(n=10, p=0.5, beta=0.5)
    c = moment_coefficients(params)
    with mp.workdps(50):
        p = mp.mpf("0.5")
        gm = mp.mpf("0.5") / (2 * 10 * p)
        F = lambda z: mp.log(1 - p + p * mp.e**z)
        a0 = (F(gm) + F(-gm)) / 2
        a1 = (F(gm) - F(-gm)) / 2
        b0 = (F(2 * gm) + F(-2 * gm)) / 4
        b1 = (F(2 * gm) - F(-2 * gm)) / 4
        assert c.a0 == pytest.approx(float(a0), rel=1e-15)
        assert c.a1 == pytest.approx(float(a1), rel=1e-15)
        assert c.b0 == pytest.approx(float(b0), rel=1e-15)
        assert c.b1 == pytest.approx(float(b1), rel=1e-15)
    assert c.b2 == c.b1
    assert c.b12 == c.b0


def test_coefficients_at_beta_zero_vanish():
    c = moment_coefficients(ModelParams(n=7, p=0.4, beta=0.0))
    assert c.a0 == 0.0 and c.a1 == 0.0 and c.b0 == 0.0 and c.b1 == 0.0


def test_expected_weight_log_parity_error():
    params = ModelParams(n=4, p=0.5, beta=1.0)
    with pytest.raises(ValueError, match="parity"):
        expected_weight_log(params, 3)
    with pytest.raises(ValueError, match="range"):
        expected_weight_log(params, 6)
    assert expected_weight_log(ModelParams(n=4, p=0.5, beta=0.0), 2) == 0.0


def test_spin_count_values():
    assert spin_count(4, 0) == 6
    assert spin_count(4, 4) == 1
    assert spin_count(4, -4) == 1
    assert spin_count(4, 3) == 0
    assert spin_count(4, 6) == 0
    with pytest.raises(ValueError):
        spin_count(0, 0)


@pytest.mark.parametrize("n", [1, 2, 5, 17, 30])
def test_spin_count_total(n):
    assert sum(spin_count(n, k) for k in range(-n, n + 1)) == 2**n


def test_pair_spin_count_corners():
    # both all-up is the single pair with k = l = m = n
    for n in (1, 3, 6):
        assert pair_spin_count(n, n, n, n) == 1
    assert pair_spin_count(2, 0, 0, 2) == 2
    assert pair_spin_count(2, 0, 0, -2) == 2
    assert pair_spin_count(2, 2, -2, 2) == 0
    assert pair_spin_count(2, 2, -2, -2) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 20])
def test_pair_spin_count_identities(n):
    grid = range(-n, n + 1)
    total = 0
    k_sq = 0
    m_sq = 0
    cross = 0
    for k in grid:
        for l in grid:
            for m in grid:
                nu = pair_spin_count(n, k, l, m)
                total += nu
                k_sq += k * k * nu
                m_sq += m * m * nu
                cross += k * l * nu
    assert total == 4**n
    assert k_sq == n * 4**n
    assert m_sq == n * 4**n
    assert cross == 0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-12, max_value=12),
)
def test_pair_spin_count_symmetry(n, k, l, m):
    value = pair_spin_count(n, k, l, m)
    assert value == pair_spin_count(n, l, k, m)
    assert value == pair_spin_count(n, k, m, l)
    assert value == pair_spin_count(n, -k, -l, m)


def test_first_moment_against_disorder_average():
    for p in (0.3, 1.0):
        for beta in (0.5, 1.1):
            params = ModelParams(n=3, p=p, beta=beta)
            for g in (ONE, GAUSS):
                closed = expected_partition_log(params, g)
                brute = disorder_oracle(params, g, "first")
                assert closed == pytest.approx(brute, abs=1e-11)


def test_second_moment_against_disorder_average():
    for p in (0.4, 0.9):
        for beta in (0.5, 1.1):
            params = ModelParams(n=3, p=p, beta=beta)
            for g in (ONE, GAUSS):
                closed = second_moment_log(params, g)
                brute = disorder_oracle(params, g, "second")
                assert closed == pytest.approx(brute, abs=1e-11)


def test_moments_at_beta_zero():
    params = ModelParams(n=9, p=0.6, beta=0.0)
    assert expected_partition_log(params, ONE) == pytest.approx(9 * math.log(2), rel=1e-15)
    assert second_moment_log(params, ONE) == pytest.approx(18 * math.log(2), rel=1e-15)
    value, clamped = variance_ratio_detail(params, ONE)
    assert value == 0.0


def test_single_copy_consistency():
    # a pair with tau = sigma has overlap n, and the pair identity must then
    # reproduce the one-copy identity at inverse temperature 2 beta
    for n, p, beta, k in [(5, 0.6, 0.8, 3), (8, 0.3, 0.4, -2), (4, 1.0, 1.2, 0)]:
        c = moment_coefficients(ModelParams(n=n, p=p, beta=beta))
        paired = n * n * c.b0 + (c.b1 + c.b2) * k * k + c.b12 * n * n
        doubled = expected_weight_log(ModelParams(n=n, p=p, beta=2 * beta), k)
        assert paired == pytest.approx(doubled, rel=1e-14)


def test_variance_ratio_nonnegative_grid():
    for n in (4, 10, 16):
        for p in (0.2, 0.7):
            for beta in (0.3, 0.8):
                value = variance_ratio(ModelParams(n=n, p=p, beta=beta), ONE)
                assert value >= 0.0


def test_variance_ratio_bump_off_support_raises():
    # a bump that misses every magnetization atom makes E[Z(g)] vanish
    params = ModelParams(n=4, p=0.5, beta=0.5)
    far = make_test_function("bump", 50.0, 0.1)
    assert expected_partition_log(params, far) == -math.inf
    with pytest.raises(ValueError, match="zero"):
        variance_ratio_detail(params, far)


class _NegativeStub:
    """Bypasses the closed registry to exercise the nonnegativity guard."""

    support = None

    def __call__(self, x):
        return -1.0

    def label(self):
        return "stub"


def test_negative_test_function_rejected():
    params = ModelParams(n=3, p=0.5, beta=0.5)
    with pytest.raises(ValueError, match="negative"):
        expected_partition_log(params, _NegativeStub())


def test_enumeration_matches_naive():
    params = ModelParams(n=10, p=0.5, beta=0.8)
    g = sample_graph(params, GraphSeed(42))
    summary = enumerate_partition(g, params)
    log_z, class_logs = naive_class_logs(g, params)
    assert abs(summary.log_z - log_z) <= 1e-12 * abs(log_z)
    weights = [math.exp(c - log_z) for c in class_logs]
    for got, want in zip(summary.law.weights, weights):
        assert got == pytest.approx(want, abs=1e-13)


def test_enumeration_complete_graph_small():
    # n=2, p=1, beta=1 complete graph: Z = 2e + 2
    params = ModelParams(n=2, p=1.0, beta=1.0)
    summary = enumerate_partition(DisorderGraph.complete(2), params)
    assert summary.log_z == pytest.approx(math.log(2 * math.e + 2), rel=1e-14)
    assert summary.free_energy_per_site == pytest.approx(-summary.log_z / 2)


def test_enumeration_empty_graph():
    # no edges: Z = 2^n at any beta, law is the binomial of fair coins
    params = ModelParams(n=6, p=0.5, beta=1.3)
    summary = enumerate_partition(DisorderGraph.empty(6), params)
    assert summary.log_z == pytest.approx(6 * math.log(2), rel=1e-14)
    want = [math.comb(6, c) / 64 for c in range(7)]
    for got, w in zip(summary.law.weights, want):
        assert got == pytest.approx(w, rel=1e-12)


def test_enumeration_beta_zero_free_energy_none():
    params = ModelParams(n=5, p=0.5, beta=0.0)
    summary = enumerate_partition(DisorderGraph.complete(5), params)
    assert summary.free_energy_per_site is None
    assert summary.log_z == pytest.approx(5 * math.log(2), rel=1e-14)


def test_enumeration_spin_flip_symmetry():
    # the law of the scaled magnetization is symmetric for any graph
    params = ModelParams(n=9, p=0.4, beta=1.1)
    g = sample_graph(params, GraphSeed(3))
    law = enumerate_partition(g, params).law
    for i in range(law.n_atoms):
        assert law.weights[i] == pytest.approx(law.weights[law.n_atoms - 1 - i], rel=1e-12)
        assert law.locations[i] == pytest.approx(-law.locations[law.n_atoms - 1 - i])


def test_enumeration_capacity():
    n = MAX_ENUMERATION_N + 1
    params = ModelParams(n=n, p=0.5, beta=1.0)
    with pytest.raises(CapacityError, match="max_n"):
        enumerate_partition(DisorderGraph.empty(n), params)


def _self_loops(n):
    return DisorderGraph(n=n, rows=tuple(1 << i for i in range(n)))


GRAPH_KINDS = {
    "empty": DisorderGraph.empty,
    "complete": DisorderGraph.complete,
    "self-loops": _self_loops,
    "sampled": lambda n: sample_graph(ModelParams(n=n, p=0.5, beta=1.0), GraphSeed(n)),
}


@pytest.mark.parametrize("kind", sorted(GRAPH_KINDS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 9])
def test_split_histogram_small_and_odd_sizes(n, kind):
    # n = 1 leaves the low half empty, n = 2 and 3 give it one site
    g = GRAPH_KINDS[kind](n)
    hist = _interaction_histogram(g)
    assert hist == naive_histogram(g)
    for beta in (0.0, 0.9):
        params = ModelParams(n=n, p=0.5, beta=beta)
        summary = enumerate_partition(g, params)
        log_z, class_logs = naive_class_logs(g, params)
        assert summary.log_z == pytest.approx(log_z, rel=1e-13, abs=1e-13)
        for got, want in zip(summary.law.weights, class_logs):
            assert got == pytest.approx(math.exp(want - log_z), abs=1e-13)


def test_split_histogram_closed_forms():
    # with only self-loops every configuration has s = n; on the complete
    # graph s = (2c - n)^2 for the configurations of class c
    for n in (1, 2, 5, 8):
        width = n + 1
        assert _interaction_histogram(_self_loops(n)) == {
            n * width + c: math.comb(n, c) for c in range(n + 1)
        }
        assert _interaction_histogram(DisorderGraph.complete(n)) == {
            (2 * c - n) ** 2 * width + c: math.comb(n, c) for c in range(n + 1)
        }


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=n, max_size=n)
))
def test_split_histogram_matches_per_configuration_count(rows):
    g = DisorderGraph(n=len(rows), rows=tuple(rows))
    assert _interaction_histogram(g) == naive_histogram(g)


def test_second_moment_capacity():
    params = ModelParams(n=MAX_MOMENT_N + 1, p=0.5, beta=0.5)
    with pytest.raises(CapacityError, match=f"n={MAX_MOMENT_N + 1}.*max_n={MAX_MOMENT_N}"):
        second_moment_log(params, ONE)
    with pytest.raises(CapacityError, match="max_n=3"):
        second_moment_log(ModelParams(n=4, p=0.5, beta=0.5), ONE, max_n=3)
    assert math.isfinite(second_moment_log(ModelParams(n=4, p=0.5, beta=0.5), ONE, max_n=4))


def test_disorder_oracle_capacity():
    params = ModelParams(n=5, p=0.5, beta=1.0)
    with pytest.raises(CapacityError):
        disorder_oracle(params, ONE, "first")
    with pytest.raises(ValueError, match="moment"):
        disorder_oracle(ModelParams(n=2, p=0.5, beta=1.0), ONE, "third")


def test_local_limit_style_bound():
    # 2^-n * spin_count * sqrt(n) * exp(k^2 / 2n) stays below 1.2 at all
    # sizes in scope (the observed maximum is about 0.97, at n=3, |k|=3)
    worst = 0.0
    for n in range(1, 25):
        for k in range(-n, n + 1, 2):
            if (n + k) % 2:
                continue
            value = spin_count(n, k) * 2.0**-n * math.sqrt(n) * math.exp(k * k / (2 * n))
            worst = max(worst, value)
    assert worst <= 1.2
    assert worst == pytest.approx(0.9703, abs=2e-4)
