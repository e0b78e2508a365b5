"""End-to-end acceptance checks, one test per numbered criterion.

Every number here (grid, seed, tolerance, time budget) is frozen on purpose;
these tests are the release gate, not a place to tune.  Each prints a single
pass line with the measured quantities, visible under ``pytest -s`` or in the
captured-output section of a failure.  The Monte Carlo criteria (04, 09, 10)
dominate the runtime at a few minutes total; everything else is seconds.
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

from dilutecw.asymptotics import (
    predict_log_partition,
    remainder_check,
    taylor_coefficients_exact,
)
from dilutecw.exact import (
    disorder_oracle,
    enumerate_partition,
    expected_partition_log,
    pair_spin_count,
    second_moment_log,
    spin_count,
    variance_ratio_from_logs,
)
from dilutecw.graph import GraphSeed, sample_graph
from dilutecw.mcmc import ChainConfig, derive_seed, quenched_experiment, run_chain
from dilutecw.model import ModelParams
from dilutecw.stats import m_plus
from dilutecw.testfunctions import make_test_function
from helpers import SpinConfig, gibbs_log_weight


def _report(num: int, detail: str) -> None:
    print(f"[criterion {num:02d}] PASS  {detail}")


MOMENT_GRID = list(
    itertools.product((2, 3), (0.3, 0.7), (0.3, 0.9), ("one", "gauss"))
)


def test_c01_first_moment_matches_disorder_oracle():
    started = time.perf_counter()
    worst = 0.0
    for n, p, beta, name in MOMENT_GRID:
        params = ModelParams(n=n, p=p, beta=beta)
        g = make_test_function(name)
        closed = expected_partition_log(params, g)
        brute = disorder_oracle(params, g, "first")
        worst = max(worst, abs(closed - brute))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10
    assert elapsed < 5.0
    _report(1, f"first moment, {len(MOMENT_GRID)} cases, worst gap {worst:.2e}, {elapsed:.2f}s")


def test_c02_second_moment_matches_disorder_oracle():
    started = time.perf_counter()
    worst = 0.0
    for n, p, beta, name in MOMENT_GRID:
        params = ModelParams(n=n, p=p, beta=beta)
        g = make_test_function(name)
        closed = second_moment_log(params, g)
        brute = disorder_oracle(params, g, "second")
        worst = max(worst, abs(closed - brute))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10
    assert elapsed < 60.0
    _report(2, f"second moment, {len(MOMENT_GRID)} cases, worst gap {worst:.2e}, {elapsed:.2f}s")


def test_c03_enumeration_agrees_with_direct_sum_and_scales():
    params = ModelParams(n=10, p=0.5, beta=0.7)
    root = math.sqrt(params.n)
    worst_rel = worst_atom = 0.0
    for offset in range(10):
        graph = sample_graph(params, GraphSeed(20260822 + offset))
        summary = enumerate_partition(graph, params)

        # Independent direct pass: every configuration evaluated from
        # scratch, no incremental updates, weights accumulated per atom.
        by_spin_sum: dict[int, list[float]] = {}
        for bits in range(1 << params.n):
            sigma = SpinConfig(params.n, bits)
            weight = math.exp(gibbs_log_weight(graph, sigma, params))
            by_spin_sum.setdefault(sigma.spin_sum(), []).append(weight)
        z_direct = math.fsum(w for chunk in by_spin_sum.values() for w in chunk)
        log_z_direct = math.log(z_direct)

        rel = abs(summary.log_z - log_z_direct) / abs(log_z_direct)
        worst_rel = max(worst_rel, rel)
        law = dict(zip(summary.law.locations, summary.law.weights))
        assert set(law) == {k / root for k in by_spin_sum}
        worst_atom = max(
            worst_atom,
            max(
                abs(law[k / root] - math.fsum(chunk) / z_direct)
                for k, chunk in by_spin_sum.items()
            ),
        )
    assert worst_rel <= 1e-12
    assert worst_atom <= 1e-12

    big = ModelParams(n=22, p=0.5, beta=0.7)
    big_graph = sample_graph(big, GraphSeed(20260823))
    started = time.perf_counter()
    big_summary = enumerate_partition(big_graph, big)
    elapsed = time.perf_counter() - started
    assert math.isfinite(big_summary.log_z)
    assert elapsed < 30.0
    _report(
        3,
        f"10 graphs at n=10: rel gap {worst_rel:.2e}, law gap {worst_atom:.2e}; "
        f"n=22 in {elapsed:.1f}s",
    )


def test_c04_subcritical_clt_at_four_thousand_sites():
    """Ten fresh graphs at n = 4096, p = 0.5, beta = 0.5, one chain of 5000
    retained sweeps each, against the Gaussian N(0, 2): per graph, sample
    variance in [1.8, 2.2], Levy <= 0.1 and KS <= 0.05.

    False-fail rate.  Measured on this test's ten chains as in c10, tau_int is
    at most 1.14 for the magnetization, 0.90 for its indicators at five
    quantiles from 0.1 to 0.9 and 0.68 for its centred square, so each chain's
    5000 values count as N_eff >= 2190.  A 4096-site magnetization lies on a
    lattice of spacing 1/32, so even its exact law is half an atom (0.0044)
    from the Gaussian in KS, and a variance off by 0.05 adds 0.003: allow 0.01.
    DKW then bounds a graph's KS fail by 2 e^(-2 N_eff 0.04^2) = 1.8e-3 and,
    as Levy <= KS, its Levy fail by 2 e^(-2 N_eff 0.09^2) = 7e-16.  The
    variance window is 4.1 standard errors (0.049, from the square's tau_int)
    about 2, a 4e-5 fail under the normal approximation.  Over ten graphs the
    rate is below 2e-2, nearly all of it the KS gate.  Measured: variances
    1.968 to 2.056, Levy at most 0.019, KS at most 0.022.
    """
    started = time.perf_counter()
    params = ModelParams(n=4096, p=0.5, beta=0.5)
    cfg = ChainConfig(sweeps=5640, burn_in=640, thin=1, replicas=1)
    # results are identical at any thread count; two threads halve the wait
    record = quenched_experiment(
        params, cfg, 10, master_seed=20260822, epsilon=0.1, threads=2
    )
    elapsed = time.perf_counter() - started

    target = 1.0 / (1.0 - params.beta)
    assert record.reference.variance == target
    for run in record.per_graph:
        assert run.n_samples >= 5000
        assert 1.8 <= run.sample_variance <= 2.2
        assert run.levy <= 0.1
        assert run.ks <= 0.05
    assert record.exceed_fraction == 0.0
    assert elapsed < 1800.0
    worst_levy = max(run.levy for run in record.per_graph)
    worst_ks = max(run.ks for run in record.per_graph)
    vars_seen = sorted(run.sample_variance for run in record.per_graph)
    _report(
        4,
        f"10 graphs, 5000 samples each: variance in "
        f"[{vars_seen[0]:.3f}, {vars_seen[-1]:.3f}] (target {target}), "
        f"max Levy {worst_levy:.4f}, max KS {worst_ks:.4f}, {elapsed:.0f}s",
    )


def test_c05_prediction_error_shrinks_with_system_size():
    one = make_test_function("one")
    sizes = (8, 12, 16, 20, 24)
    devs = []
    for n in sizes:
        params = ModelParams(n=n, p=0.5, beta=0.5)
        exact = expected_partition_log(params, one)
        predicted = predict_log_partition(params, one, "c").log_value
        devs.append(abs(math.expm1(exact - predicted)))
    for earlier, later in zip(devs, devs[1:]):
        assert later <= earlier + 1e-12
    assert devs[-1] <= 0.1
    _report(
        5,
        "ratio deviation over n=" + str(list(sizes)) + ": "
        + ", ".join(f"{d:.4f}" for d in devs),
    )


def test_c06_variance_ratio_monotone_in_size_and_dilution():
    one = make_test_function("one")

    def ratio(params):
        first, second = expected_partition_log(params, one), second_moment_log(params, one)
        return variance_ratio_from_logs(first, second)[0]

    by_n = [ratio(ModelParams(n=n, p=0.5, beta=0.5)) for n in (8, 12, 16, 20, 24)]
    for earlier, later in zip(by_n, by_n[1:]):
        assert later < earlier
    by_p = [ratio(ModelParams(n=16, p=p, beta=0.5)) for p in (0.8, 0.5, 0.3, 0.2)]
    for earlier, later in zip(by_p, by_p[1:]):
        assert later > earlier
    _report(
        6,
        f"ratio falls {by_n[0]:.4f} -> {by_n[-1]:.4f} with n, "
        f"rises {by_p[0]:.4f} -> {by_p[-1]:.4f} as p drops",
    )


def test_c07_configuration_count_identities():
    for n in range(1, 31):
        assert sum(spin_count(n, k) for k in range(-n, n + 1, 2)) == 2**n
    for n in range(1, 21):
        total = second_k = second_m = cross = 0
        for k in range(-n, n + 1, 2):
            for l in range(-n, n + 1, 2):
                for m in range(-n, n + 1, 2):
                    count = pair_spin_count(n, k, l, m)
                    if count == 0:
                        continue
                    total += count
                    second_k += k * k * count
                    second_m += m * m * count
                    cross += k * l * count
        assert total == 4**n
        assert second_k == n * 4**n
        assert second_m == n * 4**n
        assert cross == 0
    _report(7, "single-copy identities to n=30, pair identities to n=20, all exact")


def test_c08_taylor_coefficients_closed_forms_and_remainders():
    probabilities = [
        Fraction(1, 10), Fraction(1, 7), Fraction(1, 4), Fraction(1, 3),
        Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(3, 4),
        Fraction(9, 10), Fraction(1),
    ]
    for p in probabilities:
        c1, c2, c3, c4 = taylor_coefficients_exact(p, 4)
        assert c1 == p
        assert c2 == p * (1 - p) / 2
        assert c3 == p * (2 * p * p - 3 * p + 1) / 6
        assert c4 == p * (-6 * p**3 + 12 * p * p - 7 * p + 1) / 24

    worst_even = worst_odd = 0.0
    z_grid = [sign * hundredths / 100.0 for hundredths in range(1, 26) for sign in (1, -1)]
    for tenths in range(1, 11):
        p = tenths / 10.0
        for z in z_grid:
            remainders = remainder_check(p, z)
            worst_even = max(worst_even, abs(remainders["even"]))
            worst_odd = max(worst_odd, abs(remainders["odd"]))
    assert worst_even <= 1.0
    assert worst_odd <= 0.15

    tiny = 1e-6
    floats = [float(c) for c in taylor_coefficients_exact(tiny, 6)]
    worst_small = max(
        abs(math.factorial(order) * c / tiny - 1.0)
        for order, c in enumerate(floats, start=1)
    )
    assert worst_small <= 1e-4
    _report(
        8,
        f"closed forms exact at 10 rationals; remainders |even|<={worst_even:.3f}, "
        f"|odd|<={worst_odd:.3f}; small-p limit off by {worst_small:.1e}",
    )


def test_c09_supercritical_magnetization_plateau():
    """One graph at n = 2048, p = 0.5, beta = 1.5, four replicas of 700
    retained sweeps: each replica's time average of |m| per site lies within
    0.05 of m_+(1.5) = 0.8586.

    False-fail rate.  Measured on this test's four chains as in c10, tau_int
    of |m| per site is at most 0.79, so N_eff >= 443, and its standard
    deviation is at most 0.0148.  The time averages sit 0.0005 to 0.0008 below
    m_+, a finite-n shift.  Bernstein's inequality for values in [0, 1],
    2 exp(-N_eff t^2 / (2 sd^2 + 2t/3)) at t = 0.0492, bounds a replica's
    fail by 2e-14, so the four fail by chance with probability below 1e-13.
    """
    started = time.perf_counter()
    params = ModelParams(n=2048, p=0.5, beta=1.5)
    graph = sample_graph(params, GraphSeed(derive_seed(777, 1, 0)))
    cfg = ChainConfig(
        sweeps=1000, burn_in=300, thin=1, replicas=4, chain_seed=derive_seed(777, 2, 0)
    )
    target = m_plus(params.beta)
    worst = 0.0
    for replica in run_chain(graph, params, cfg):
        per_site = [abs(v) / math.sqrt(params.n) for v in replica]
        mean_abs = math.fsum(per_site) / len(per_site)
        worst = max(worst, abs(mean_abs - target))
        assert abs(mean_abs - target) <= 0.05
    elapsed = time.perf_counter() - started
    _report(
        9,
        f"4 replicas at n=2048: worst |time-avg - {target:.4f}| = {worst:.4f}, "
        f"{elapsed:.1f}s",
    )


def test_c10_chain_law_matches_enumerated_law():
    """One chain per beta on one graph of n = 8 sites, 10^6 retained sweeps,
    against the enumerated law of its k = 9 magnetization atoms: TV <= 0.02.

    False-fail rate.  For N independent draws from a law on k atoms,
    P(TV > eps) <= (2^k - 2) e^(-2 N eps^2); a chain's N values count as
    N_eff = N / (2 tau_int), with tau_int = 1/2 + sum_{t >= 1} rho_t.
    Measured on this test's two chains (autocorrelation by FFT, summed up to
    Sokal's window t >= 5 tau_int), tau_int of the magnetization is 0.83 at
    beta = 0.5 and 2.51 at beta = 1.2, above that of each of the nine atom
    indicators (at most 0.57 and 1.03).  So N_eff is 6.0e5 and 2.0e5, and the
    bound is 510 e^(-479.7) = 2e-206 and 510 e^(-159.6) = 3e-67: TV above
    0.02 means a fault, not bad luck.  The TVs measured are 0.0015 and 0.0021.
    """
    started = time.perf_counter()
    results = []
    for beta in (0.5, 1.2):
        params = ModelParams(n=8, p=0.5, beta=beta)
        graph = sample_graph(params, GraphSeed(derive_seed(9001, 1, 0)))
        exact_law = enumerate_partition(graph, params).law
        law = dict(zip(exact_law.locations, exact_law.weights))
        cfg = ChainConfig(
            sweeps=1_000_200,
            burn_in=200,
            thin=1,
            replicas=1,
            chain_seed=derive_seed(9001, 2, 0),
        )
        (replica,) = run_chain(graph, params, cfg)
        assert len(replica) == 1_000_000
        counts = Counter(replica)
        support = set(law) | set(counts)
        tv = 0.5 * math.fsum(
            abs(law.get(x, 0.0) - counts.get(x, 0) / 1_000_000) for x in support
        )
        assert tv <= 0.02
        results.append((beta, tv))
    elapsed = time.perf_counter() - started
    _report(
        10,
        "TV vs enumerated law at n=8: "
        + ", ".join(f"beta={b}: {tv:.4f}" for b, tv in results)
        + f", {elapsed:.1f}s",
    )


def test_c11_sampled_graphs_reproduce_the_annealed_moments():
    """Exact per-graph partition sums, averaged over sampled graphs, against
    the closed-form annealed moments.

    Z_G / E[Z] over graphs G drawn by ``sample_graph`` has mean 1 and
    variance r = E[Z^2] / E[Z]^2 - 1.  The sampled side (enumeration of each
    graph) shares no code with the moment sums.  Each gate is a two-sided
    4-SE bound, the SE of the sample variance taken from the fourth central
    moment; under the normal approximation each fails by chance with
    probability about 6e-5.
    """
    started = time.perf_counter()
    params = ModelParams(n=16, p=0.5, beta=0.5)
    one = make_test_function("one")
    first = expected_partition_log(params, one)
    ratio, _ = variance_ratio_from_logs(first, second_moment_log(params, one))
    graphs = 2000
    values = [
        math.exp(
            enumerate_partition(sample_graph(params, GraphSeed(derive_seed(5, 1, i))), params).log_z
            - first
        )
        for i in range(graphs)
    ]
    mean = math.fsum(values) / graphs
    centred = [v - mean for v in values]
    m2 = math.fsum(c * c for c in centred) / graphs
    m4 = math.fsum(c**4 for c in centred) / graphs
    variance = m2 * graphs / (graphs - 1)
    se_mean = math.sqrt(variance / graphs)
    se_var = math.sqrt((m4 - variance**2 * (graphs - 3) / (graphs - 1)) / graphs)
    assert abs(mean - 1.0) <= 4 * se_mean
    assert abs(variance - ratio) <= 4 * se_var
    elapsed = time.perf_counter() - started
    _report(
        11,
        f"{graphs} graphs at n=16: mean Z/EZ {mean:.4f} +- {se_mean:.4f}, "
        f"variance {variance:.5f} +- {se_var:.5f} against r = {ratio:.5f}, {elapsed:.1f}s",
    )
