"""Annealed identities against brute-force disorder averages, and the
split-sum enumeration against a per-configuration oracle."""

import math
from array import array
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilutecw import _csweep, _twins, exact
from dilutecw.errors import CapacityError
from dilutecw.exact import (
    MAX_ENUMERATION_N,
    MAX_FIRST_MOMENT_N,
    MAX_MOMENT_N,
    disorder_oracle,
    enumerate_partition,
    expected_partition_log,
    moment_coefficients,
    pair_spin_count,
    second_moment_log,
    spin_count,
    variance_ratio_from_logs,
)
from dilutecw.graph import GraphSeed, sample_graph
from dilutecw.model import DisorderGraph, ModelParams
from dilutecw.testfunctions import make_test_function, parse_test_function
from helpers import SpinConfig, interaction_sum, kernel_sets, kernels_in_use

ONE = make_test_function("one")
GAUSS = make_test_function("gauss")


def naive_histogram(g):
    """Oracle: count every configuration by (s, class), keyed s * (n + 1) + class."""
    hist = {}
    for bits in range(1 << g.n):
        key = interaction_sum(g, SpinConfig(n=g.n, bits=bits)) * (g.n + 1) + bits.bit_count()
        hist[key] = hist.get(key, 0) + 1
    return hist


def split_histogram(kernels, g):
    """The histogram of one kernel set's split sum as {s * (n + 1) + class: count},
    each key checked to split by divmod into an s of at most the edge count
    in size and a class."""
    keys, counts = kernels.histogram(g.words)
    edges, width = g.edge_count(), g.n + 1
    assert keys == sorted(keys) and all(count > 0 for count in counts)
    for key in keys:
        s, cls = divmod(key, width)
        assert -edges * width <= key < (edges + 1) * width and -edges <= s <= edges, key
        assert 0 <= cls <= g.n
    return dict(zip(keys, counts))


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


def test_coefficients_at_beta_zero_vanish():
    c = moment_coefficients(ModelParams(n=7, p=0.4, beta=0.0))
    assert c.a0 == 0.0 and c.a1 == 0.0 and c.b0 == 0.0 and c.b1 == 0.0


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
    value, clamped = variance_ratio_from_logs(
        expected_partition_log(params, ONE), second_moment_log(params, ONE)
    )
    assert value == 0.0


def test_single_copy_consistency():
    # a pair with tau = sigma has overlap n, and the pair identity must then
    # reproduce the one-copy identity at inverse temperature 2 beta
    for n, p, beta, k in [(5, 0.6, 0.8, 3), (8, 0.3, 0.4, -2), (4, 1.0, 1.2, 0)]:
        c = moment_coefficients(ModelParams(n=n, p=p, beta=beta))
        paired = n * n * c.b0 + (c.b1 + c.b1) * k * k + c.b0 * n * n
        # the one-copy exponent n^2 a0 + a1 k^2 at 2 beta
        d = moment_coefficients(ModelParams(n=n, p=p, beta=2 * beta))
        doubled = n * n * d.a0 + d.a1 * k * k
        assert paired == pytest.approx(doubled, rel=1e-14)


def test_variance_ratio_nonnegative_grid():
    for n in (4, 10, 16):
        for p in (0.2, 0.7):
            for beta in (0.3, 0.8):
                params = ModelParams(n=n, p=p, beta=beta)
                value, _ = variance_ratio_from_logs(
                    expected_partition_log(params, ONE), second_moment_log(params, ONE)
                )
                assert value >= 0.0


def test_variance_ratio_bump_off_support_raises():
    # a bump that misses every magnetization atom makes E[Z(g)] vanish
    params = ModelParams(n=4, p=0.5, beta=0.5)
    far = make_test_function("bump", 50.0, 0.1)
    assert expected_partition_log(params, far) == -math.inf
    with pytest.raises(ValueError, match="zero"):
        variance_ratio_from_logs(
            expected_partition_log(params, far), second_moment_log(params, far)
        )


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
    atoms = len(law.locations)
    for i in range(atoms):
        assert law.weights[i] == pytest.approx(law.weights[atoms - 1 - i], rel=1e-12)
        assert law.locations[i] == pytest.approx(-law.locations[atoms - 1 - i])


def test_enumeration_capacity():
    n = MAX_ENUMERATION_N + 1
    params = ModelParams(n=n, p=0.5, beta=1.0)
    with pytest.raises(CapacityError, match="max_n"):
        enumerate_partition(DisorderGraph.empty(n), params)


def _self_loops(n):
    return DisorderGraph.from_matrix(np.eye(n, dtype=np.uint8))


GRAPH_KINDS = {
    "empty": DisorderGraph.empty,
    "complete": DisorderGraph.complete,
    "self-loops": _self_loops,
    "sampled": lambda n: sample_graph(ModelParams(n=n, p=0.5, beta=1.0), GraphSeed(n)),
}


@pytest.mark.parametrize("kind", sorted(GRAPH_KINDS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 9])
def test_split_histogram_small_and_odd_sizes(n, kind, monkeypatch):
    # n = 1 leaves the low half empty, n = 2 and 3 give it one site; the
    # compiled kernel's quarter tables then hold one or two entries, and below
    # n = 7 its four-way loop runs only its scalar tail
    g = GRAPH_KINDS[kind](n)
    want = naive_histogram(g)
    for kernels in kernel_sets():
        assert split_histogram(kernels, g) == want
        monkeypatch.setattr(_csweep, "_loaded", [kernels])
        for beta in (0.0, 0.9):
            params = ModelParams(n=n, p=0.5, beta=beta)
            summary = enumerate_partition(g, params)
            log_z, class_logs = naive_class_logs(g, params)
            assert summary.log_z == pytest.approx(log_z, rel=1e-13, abs=1e-13)
            for got, want_log in zip(summary.law.weights, class_logs):
                assert got == pytest.approx(math.exp(want_log - log_z), abs=1e-13)


def test_split_histogram_closed_forms():
    # with only self-loops every configuration has s = n; on the complete
    # graph s = (2c - n)^2 for the configurations of class c
    for kernels in kernel_sets():
        for n in (1, 2, 5, 8, 13):
            width = n + 1
            assert split_histogram(kernels, _self_loops(n)) == {
                n * width + c: math.comb(n, c) for c in range(n + 1)
            }
            assert split_histogram(kernels, DisorderGraph.complete(n)) == {
                (2 * c - n) ** 2 * width + c: math.comb(n, c) for c in range(n + 1)
            }


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=n, max_size=n)
))
def test_split_histogram_matches_per_configuration_count(rows):
    n = len(rows)
    g = DisorderGraph.from_matrix([[(row >> j) & 1 for j in range(n)] for row in rows])
    want = naive_histogram(g)
    for kernels in kernel_sets():
        assert split_histogram(kernels, g) == want


@pytest.mark.parametrize("n, p", [
    (1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0), (3, 0.5), (3, 1.0), (5, 0.5), (9, 1.0),
    (13, 0.5), (21, 1.0), (22, 0.5), (23, 0.5), (24, 1.0),
])
def test_compiled_histogram_matches_numpy_twin(n, p):
    # at p = 1 all n^2 edges are present, so the histogram is at its longest;
    # the kernel counts one of each global-flip pair and mirrors the classes
    # itself, except at n = 1, where site 0 is the one high site and every
    # configuration is counted, and the twin counts them all at every n; both
    # return the keys that count any configuration, increasing, and their
    # counts
    library = _csweep.library()
    if library is _twins._TWINS:
        pytest.skip("no compiled kernels on this host")
    g = sample_graph(ModelParams(n=n, p=p, beta=1.0), GraphSeed(n))
    got = library.histogram(g.words)
    want = _twins._TWINS.histogram(g.words)
    assert got == want
    keys, counts = got
    edges = g.edge_count()
    assert -edges * (n + 1) <= keys[0] and keys[-1] < (edges + 1) * (n + 1)
    assert sum(counts) == 1 << n


def test_histogram_rejects_mismatched_buffers():
    # on the compiled kernel and on the twin, which refuses what the kernel refuses
    good = np.asarray(sample_graph(ModelParams(n=9, p=0.5, beta=1.0), GraphSeed(9)).words)
    for kernels in kernel_sets():
        assert sum(kernels.histogram(good)[1]) == 1 << 9
        for bad in (
            good.astype(np.float64), good.astype(">u8"), good.ravel(), good.astype(np.uint32),
            np.zeros((9, 2), dtype="<u8"), np.zeros((18, 1), dtype="<u8")[::2],
        ):
            with pytest.raises(ValueError, match="kernel buffer"):
                kernels.histogram(bad)
        # one mask word a row holds 1 to 64 sites
        for bad in (np.zeros((0, 1), dtype="<u8"), np.zeros((65, 2), dtype="<u8")):
            with pytest.raises(ValueError, match="1 to 64 sites"):
                kernels.histogram(bad)


def _assert_cap_read_at_call_time(moment, cap, monkeypatch):
    """With the module's cap set to 4, n = 4 passes and n = 5 is refused before
    the moment coefficients, the first step of either sum, are evaluated."""
    calls = []
    coefficients = exact.moment_coefficients

    def counted(params):
        calls.append(params.n)
        return coefficients(params)

    monkeypatch.setattr(exact, cap, 4)
    monkeypatch.setattr(exact, "moment_coefficients", counted)
    assert math.isfinite(moment(ModelParams(n=4, p=0.5, beta=0.5), ONE))
    with pytest.raises(CapacityError, match="n=5.*max_n=4"):
        moment(ModelParams(n=5, p=0.5, beta=0.5), ONE)
    assert calls == [4]


def test_second_moment_capacity(monkeypatch):
    params = ModelParams(n=MAX_MOMENT_N + 1, p=0.5, beta=0.5)
    with pytest.raises(CapacityError, match=f"n={MAX_MOMENT_N + 1}.*max_n={MAX_MOMENT_N}"):
        second_moment_log(params, ONE)
    _assert_cap_read_at_call_time(second_moment_log, "MAX_MOMENT_N", monkeypatch)


def test_first_moment_capacity(monkeypatch):
    params = ModelParams(n=MAX_FIRST_MOMENT_N + 1, p=0.5, beta=0.5)
    started = time.perf_counter()
    with pytest.raises(
        CapacityError, match=f"n={MAX_FIRST_MOMENT_N + 1}.*max_n={MAX_FIRST_MOMENT_N}"
    ):
        expected_partition_log(params, ONE)
    assert time.perf_counter() - started < 1.0
    _assert_cap_read_at_call_time(expected_partition_log, "MAX_FIRST_MOMENT_N", monkeypatch)


def scalar_second_moment_log(params, g):
    """Oracle: the term-by-term pair sum over (k, l, m), one exact bigint
    count per term, summed by the same log-sum-exp as the library."""
    n = params.n
    c = moment_coefficients(params)
    log_g = [math.log(v) if v > 0 else -math.inf
             for v in (g((2 * cls - n) / math.sqrt(n)) for cls in range(n + 1))]
    base = n * n * c.b0
    terms = []
    for ck in range(n + 1):
        if log_g[ck] == -math.inf:
            continue
        k = 2 * ck - n
        partial = log_g[ck] + c.b1 * k * k
        for cl in range(n + 1):
            if log_g[cl] == -math.inf:
                continue
            l = 2 * cl - n
            partial_kl = partial + log_g[cl] + c.b1 * l * l
            for m in range(-n, n + 1, 2):
                count = pair_spin_count(n, k, l, m)
                if count == 0:
                    continue
                terms.append(base + partial_kl + math.log(count) + c.b0 * m * m)
    if not terms:
        return -math.inf
    peak = max(terms)
    return peak + math.log(math.fsum(math.exp(t - peak) for t in terms))


# log E[Z(g)^2] as the term-by-term sum gave it, before the table-driven sum
SECOND_MOMENT_GOLDEN = [
    (64, 0.5, 0.307, "one", 89.11198267017114),
    (64, 0.5, 0.307, "gauss", 87.75301333576836),
    (13, 0.3, 1e3, "one", 43131.24822376337),
    (13, 0.3, 1e3, "gauss", 43105.24822376337),
    (1, 0.5, 0.8, "one", 2.477047921448284),
    (1, 0.7, 0.4, "gauss", -0.18221127257039416),
    (2, 0.5, 0.8, "one", 3.9765595738007726),
    (2, 0.2, 1.5, "gauss", 6.765029184325298),
    (7, 0.5, 0.5, "bump:0.3,0.5", 7.2048329008376335),
]


@pytest.mark.parametrize("n,p,beta,spec,want", SECOND_MOMENT_GOLDEN)
def test_second_moment_golden(n, p, beta, spec, want):
    params, g = ModelParams(n=n, p=p, beta=beta), parse_test_function(spec)
    for kernels in kernel_sets():
        with kernels_in_use(kernels):
            assert second_moment_log(params, g) == want


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=24),
    p=st.floats(min_value=0.01, max_value=1.0),
    beta=st.one_of(st.floats(min_value=0.0, max_value=5.0), st.sampled_from([50.0, 1e3])),
    spec=st.one_of(
        st.sampled_from(["one", "gauss", "cosine"]),
        st.tuples(
            st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=0.05, max_value=4.0)
        ).map(lambda cw: f"bump:{cw[0]!r},{cw[1]!r}"),
    ),
)
def test_second_moment_matches_scalar_sum(n, p, beta, spec):
    params = ModelParams(n=n, p=p, beta=beta)
    g = parse_test_function(spec)
    want = scalar_second_moment_log(params, g)
    for kernels in kernel_sets():
        with kernels_in_use(kernels):
            assert second_moment_log(params, g) == want


def test_second_moment_vanishing_support():
    # the bump misses every class atom, so there is no term at all
    far = parse_test_function("bump:5,0.01")
    for kernels in kernel_sets():
        with kernels_in_use(kernels):
            assert second_moment_log(ModelParams(n=7, p=0.5, beta=0.5), far) == -math.inf
    assert scalar_second_moment_log(ModelParams(n=7, p=0.5, beta=0.5), far) == -math.inf


def pair_sum_args(n, p, beta, spec):
    """The arguments second_moment_log hands to ``pair_sum``."""
    c = moment_coefficients(ModelParams(n=n, p=p, beta=beta))
    log_g = np.array(exact._class_log_weights(n, parse_test_function(spec)))
    return n, n * n * c.b0, c.b1, c.b0, log_g, exact._log_multinomial_table(n)


@pytest.mark.parametrize("n", [64, 100, 150, 200])
def test_compiled_pair_sum_matches_numpy_twin(n):
    library = _csweep.library()
    if library is _twins._TWINS:
        pytest.skip("no compiled kernels on this host")
    for p, beta, spec in [(0.5, 0.5, "one"), (0.05, 1.3, "gauss"), (1.0, 0.9, "cosine"),
                          (0.3, 2.0, "bump:0.3,0.5"), (0.5, 0.5, "bump:20,1")]:
        args = pair_sum_args(n, p, beta, spec)
        want = _twins._TWINS.pair_sum(*args)
        assert library.pair_sum(*args) == want
        assert (want == -math.inf) == (spec == "bump:20,1")


def test_log_multinomial_table_is_exact():
    # every partition a <= b <= c <= d of n, at the index pair sums read it by
    for n in (1, 2, 3, 4, 7, 12, 33):
        logs = exact._log_multinomial_table(n)
        offsets = _twins._pair_offsets(n)
        seen = 0
        for a in range(n + 1):
            for b in range(a, n + 1):
                for c in range(b, n + 1):
                    d = n - a - b - c
                    if d < c:
                        continue
                    count = math.comb(n, a) * math.comb(n - a, b) * math.comb(n - a - b, c)
                    assert logs[offsets[a, b] + c - b] == math.log(count)
                    seen += 1
        assert seen == len(logs)


def test_log_multinomial_table_is_built_once_per_n():
    # two second moments at one n share one read-only table and agree
    exact._log_multinomial_table.cache_clear()
    params, g = ModelParams(n=40, p=0.3, beta=0.7), parse_test_function("gauss")
    first = second_moment_log(params, g)
    assert second_moment_log(params, g) == first
    info = exact._log_multinomial_table.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    table = exact._log_multinomial_table(40)
    assert table.readonly
    with pytest.raises(TypeError, match="read-only"):
        table[0] = 0.0
    # a bounded number of tables is kept
    for n in range(1, 2 * exact._TABLES_KEPT):
        exact._log_multinomial_table(n)
    assert exact._log_multinomial_table.cache_info().currsize == exact._TABLES_KEPT


def test_pair_sum_rejects_mismatched_buffers():
    # on the compiled kernel and on the twin, which refuses what the kernel refuses
    n, *weights, log_g, table = pair_sum_args(9, 0.5, 0.5, "gauss")
    logs = np.asarray(table)
    for kernels in kernel_sets():
        assert math.isfinite(kernels.pair_sum(n, *weights, log_g, table))
        assert kernels.pair_sum(n, *weights, log_g, logs) == kernels.pair_sum(
            n, *weights, array("d", log_g), table)
        for bad_g, bad_logs in (
            (log_g[:-1], logs), (log_g.astype(np.float32), logs), (np.repeat(log_g, 2)[::2], logs),
            (log_g, logs[:-1]), (log_g, np.append(logs, 0.0)), (log_g, logs.reshape(1, -1)),
            (log_g, exact._log_multinomial_table(8)),
        ):
            with pytest.raises(ValueError, match="kernel buffer"):
                kernels.pair_sum(n, *weights, bad_g, bad_logs)
        for bad_n in (0, -3, 9.0, True):
            with pytest.raises(ValueError, match="n must be"):
                kernels.pair_sum(bad_n, *weights, log_g, logs)
        # a NaN or infinite term makes the whole sum NaN, as fsum makes it
        for base in (math.nan, math.inf):
            with np.errstate(invalid="ignore"):
                assert math.isnan(kernels.pair_sum(n, base, *weights[1:], log_g, logs))
        # terms 1, four of u and eight of v, where 4 u + 8 v = 2^-53 exactly,
        # tie at half an ulp of 1; one subnormal term breaks the tie upwards,
        # as fsum breaks it, and without it the tie rounds to even
        for tail, want in ((-720.0, math.log1p(2.0**-52)), (-math.inf, 0.0)):
            # one log count per partition of 4: 0004, 0013, 0022, 0112, 1111
            tie = array("d", [0.0, -39.52573530326003, -38.80015900048604, -math.inf, tail])
            assert kernels.pair_sum(4, 0.0, 0.0, 0.0, array("d", [0.0] * 4 + [-math.inf]),
                                    tie) == want
        # 39711 terms of 1, past 2^14 of one exponent: the bucket's top word
        # carries into a third limb
        ones = array("d", [0.0] * len(exact._log_multinomial_table(60)))
        assert kernels.pair_sum(60, 0.0, 0.0, 0.0, array("d", [0.0] * 61), ones) == math.log(39711)


def test_variance_ratio_from_logs():
    assert variance_ratio_from_logs(1.0, 2.5) == (math.expm1(0.5), False)
    assert variance_ratio_from_logs(1.0, 2.0 - 1e-12) == (0.0, True)
    assert variance_ratio_from_logs(0.0, 1e4) == (math.inf, False)
    with pytest.raises(ValueError, match="negative"):
        variance_ratio_from_logs(1.0, 1.0)
    with pytest.raises(ValueError, match="zero"):
        variance_ratio_from_logs(-math.inf, -math.inf)
    # both logs near 1e16 are each uncertain by several units of 1, which
    # second - 2 first does not cancel; a ratio past the double range is
    # still inf, however uncertain its log
    with pytest.raises(ValueError, match="cancellation"):
        variance_ratio_from_logs(1e16, 2e16 + 68.0)
    assert variance_ratio_from_logs(1e16, 2e16 + 1e4) == (math.inf, False)
    assert variance_ratio_from_logs(1e4, 2e4 + 1.0) == (math.expm1(1.0), False)


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
