"""Exact annealed moments and exact quenched enumeration.

Annealed side.  Averaging the Gibbs weight over the disorder factorizes over
the n^2 independent edges.  Edge (i, j) contributes a factor
E[exp(gamma * eps * s_i s_j)] = exp(F(p, gamma * s_i s_j)) with
F(p, z) = log(1 - p + p e^z) and gamma = beta / (2 n p), so with k = sum of
spins,

    E exp(-beta H(sigma)) = exp(n^2 a0 + a1 k^2),
    a0 = (F(p, gamma) + F(p, -gamma)) / 2,
    a1 = (F(p, gamma) - F(p, -gamma)) / 2,

because exactly (n^2 + k^2)/2 of the ordered pairs (i, j) have s_i s_j = +1.
For a pair of configurations (sigma, tau) with spin sums k, l and overlap
m = sum s_i t_i, each edge sees gamma * (s_i s_j + t_i t_j) in {-2gamma, 0,
2gamma}, and counting pairs (i, j) by the signs gives

    E[exp(-beta H(sigma) - beta H(tau))]
        = exp(n^2 b0 + b1 k^2 + b2 l^2 + b12 m^2),
    b0 = b12 = (F(p, 2 gamma) + F(p, -2 gamma)) / 4,
    b1 = b2  = (F(p, 2 gamma) - F(p, -2 gamma)) / 4.

(The count of ordered pairs with s_i s_j = t_i t_j = +1 is (n^2 + k^2 + l^2
+ m^2) / 4, and the three analogous counts replace the signs of k^2, l^2,
m^2; solving the resulting four linear equations in the exponent yields the
display.  Setting tau = sigma recovers the single-copy identity at 2 beta,
since then m = n and b0 + b12 = a0(2 beta), b1 + b2 = a1(2 beta).)  The
code keeps b0 and b1 alone.

Summing over configurations by spin-sum class turns the annealed moments
into (n+1)- and O(n^3)-term sums with exact integer counts:

    spin_count(n, k)       = C(n, (n+k)/2)
    pair_spin_count(n, k, l, m)
        = n! / (n1! n2! n3! n4!),   n1 = (n+k+l+m)/4,  n2 = (n+k-l-m)/4,
                                    n3 = (n-k+l-m)/4,  n4 = (n-k-l+m)/4,

the multinomial over the four site categories (s_i, t_i) in {++, +-, -+,
--}; it vanishes unless all four are nonnegative integers.  The multinomial
only depends on the multiset {n1, n2, n3, n4}, so the pair sum takes the log
of each exact count once per 4-part partition of n (2,280 of them at n = 64),
each count reached from the one before it by an exact integer step.  The
O(n^3) terms are one call of ``_csweep.library().pair_sum``: the compiled
kernel ``pair_sum``, which builds each term in the same floating-point order
as the term-by-term sum, takes libm's exp of it less the largest and adds
the results exactly, or its numpy twin, which does the same a k class at a
time and adds the exps with math.fsum.  Both sums round once, correctly, so
both give the same float.

Quenched side.  For a fixed graph the partition sum is enumerated over all
2^n configurations as an exact histogram of (s, class) pairs with integer
counts, where s = sum eps[a,b] s_a s_b is the integer bilinear form and the
class is the number of up spins; the partition sum then needs one
log-sum-exp over at most (n+1) * (number of distinct s values) terms, so it
is exact up to the single final rounding.

The histogram is a split sum (meet in the middle).  With the sites split
into a low half L (floor(n/2) sites) and a high half H, and W = eps + eps^T
with a zero diagonal,

    s = sum_a eps[a,a] + s_LL(sigma_L) + s_HH(sigma_H) + sigma_L^T W_LH sigma_H,

where s_LL and s_HH are the inner forms (1/2) sigma^T W sigma of each half.
Each half's inner forms and classes are tabulated once, and the key
(s + edges) * (n+1) + class of every configuration is then a sum of table
entries.  The histogram is one call of ``_csweep.library().histogram``: the
compiled kernel ``interaction_histogram``, which splits the cross term once
more over two quarters of the high half, so that a configuration costs two
table loads and one integer increment, or its numpy twin, which takes the
cross term of a block of configurations as one exact float64 matrix product.
Both give the same integer counts, and both take W from the chain's mask
builder (``build_masks``, or the twin's ``_masks``).
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from dataclasses import dataclass

from .asymptotics import eval_F
from .errors import CapacityError, DomainError
from .model import DisorderGraph, ModelParams
from .stats import EmpiricalMeasure
from .testfunctions import TestFunction

__all__ = [
    "MomentCoefficients",
    "moment_coefficients",
    "spin_count",
    "pair_spin_count",
    "expected_partition_log",
    "second_moment_log",
    "variance_ratio_from_logs",
    "QuenchedSummary",
    "check_enumeration",
    "enumerate_partition",
    "disorder_oracle",
    "MAX_ENUMERATION_N",
    "MAX_MOMENT_N",
    "MAX_FIRST_MOMENT_N",
]

# Cost of one configuration in the compiled split sum, which counts one of
# each global-flip pair, on a 2-core x86-64 Xeon host: enumerate_partition
# takes 0.6-0.8 ns a configuration at n = 22 and 0.4 ns at n = 30 (the numpy
# twin: 6-12 ns).
_NS_PER_CONFIG = 1
# 2^30 configurations take about 0.4 s and 40 MB; beyond that enumeration is
# refused.
MAX_ENUMERATION_N = 30

# The pair sum of second_moment_log is O(n^3) terms (1.37 M at n = 200), one
# libm exp each in the compiled kernel, plus one bigint multinomial per 4-part
# partition of n; n = 200 takes 0.075-0.09 s on that host, about half of it
# the multinomials, which a second call at the same n reuses (the numpy twin:
# 0.7-1.2 s).
MAX_MOMENT_N = 200
# expected_partition_log takes n + 1 bigint binomials of up to n bits, so
# its cost grows as n^3: 1.5 s at n = 5000 on that host, 14 s at n = 10^4.
MAX_FIRST_MOMENT_N = 5000

# The brute-force oracle's cap on 2^(n^2 + n) weight evaluations: n = 4 passes.
_ORACLE_WORK_LIMIT = 1 << 21


@dataclass(frozen=True)
class MomentCoefficients:
    """Closed-form exponents of the annealed moments (b2 = b1, b12 = b0)."""

    a0: float
    a1: float
    b0: float
    b1: float


def moment_coefficients(params: ModelParams) -> MomentCoefficients:
    """Evaluate the coefficient formulas at the model's gamma = beta/(2np)."""
    p = params.p
    gamma = params.gamma
    f_plus = eval_F(p, gamma)
    f_minus = eval_F(p, -gamma)
    f2_plus = eval_F(p, 2.0 * gamma)
    f2_minus = eval_F(p, -2.0 * gamma)
    return MomentCoefficients(
        a0=(f_plus + f_minus) / 2.0,
        a1=(f_plus - f_minus) / 2.0,
        b0=(f2_plus + f2_minus) / 4.0,
        b1=(f2_plus - f2_minus) / 4.0,
    )


def spin_count(n: int, k: int) -> int:
    """Number of configurations with spin sum k, as an exact integer.

    Zero (by convention, not an error) when k has the wrong parity or lies
    outside [-n, n], so sums over a k-grid can run unguarded.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if abs(k) > n or (n + k) % 2 != 0:
        return 0
    return math.comb(n, (n + k) // 2)


def pair_spin_count(n: int, k: int, l: int, m: int) -> int:
    """Number of configuration pairs with spin sums k, l and overlap m.

    The multinomial over the four sign categories; zero whenever the
    category counts fail to be nonnegative integers.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if max(abs(k), abs(l), abs(m)) > n:
        return 0
    if (n + k) % 2 or (n + l) % 2 or (n + m) % 2:
        return 0
    if (n + k + l + m) % 4:
        return 0
    n1 = (n + k + l + m) // 4
    n2 = (n + k - l - m) // 4
    n3 = (n - k + l - m) // 4
    n4 = n - n1 - n2 - n3
    if min(n1, n2, n3, n4) < 0:
        return 0
    return math.comb(n, n1) * math.comb(n - n1, n2) * math.comb(n - n1 - n2, n3)


def _logsumexp(terms) -> float:
    terms = list(terms)
    if not terms:
        return -math.inf
    peak = max(terms)
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(math.fsum(math.exp(t - peak) for t in terms))


def _class_log_weights(n: int, g: TestFunction) -> list[float]:
    """log g((2c - n)/sqrt(n)) per class c, -inf where g vanishes."""
    out = []
    root = math.sqrt(n)
    for c in range(n + 1):
        val = g((2 * c - n) / root)
        if val < 0:
            raise ValueError(
                f"test function {g.label()} is negative ({val}) at class {c}"
            )
        out.append(math.log(val) if val > 0 else -math.inf)
    return out


def expected_partition_log(params: ModelParams, g: TestFunction) -> float:
    """log E[Z(g)]: sum over spin-sum classes of count * g * annealed weight.

    Returns -inf when g vanishes at every class atom (possible for a narrow
    bump), since the weighted sum is then exactly zero.  Refuses n beyond
    ``MAX_FIRST_MOMENT_N``."""
    n = params.n
    if n > MAX_FIRST_MOMENT_N:
        raise CapacityError(
            f"first moment over n={n} needs {n + 1} binomial counts of up to {n} "
            f"bits, above the cap max_n={MAX_FIRST_MOMENT_N}"
        )
    c = moment_coefficients(params)
    log_g = _class_log_weights(n, g)
    terms = []
    for cls in range(n + 1):
        if log_g[cls] == -math.inf:
            continue
        k = 2 * cls - n
        terms.append(
            math.log(spin_count(n, k)) + log_g[cls] + n * n * c.a0 + c.a1 * k * k
        )
    return _logsumexp(terms)


# Tables kept by _log_multinomial_table: the one at n = 200 is 60k doubles
# (0.5 MB) and takes 40 ms to build.
_TABLES_KEPT = 8


@functools.lru_cache(maxsize=_TABLES_KEPT)
def _log_multinomial_table(n: int) -> memoryview:
    """log(n! / (a! b! c! d!)) for every partition a <= b <= c <= d of n,
    ordered by a, then b, then c, the order that the ``pair_sum`` kernel
    indexes, as a read-only vector of doubles.

    Each count comes from the one before it by an exact integer step, and
    each log is math.log of that exact integer, so it is the same float as
    math.log(pair_spin_count(n, k, l, m)) for any (k, l, m) whose four
    category counts are a permutation of (a, b, c, d).  The last few tables
    are kept, so each is built once per n; they are read-only."""
    logs = []
    corner = 1  # the count of (a, a, a)
    for a in range(n // 4 + 1):
        if a:
            d = n - 3 * a + 3  # the fourth part of (a - 1, a - 1, a - 1)
            corner = corner * d * (d - 1) * (d - 2) // (a * a * a)
        row = corner  # the count of (a, b, b)
        for b in range(a, (n - a) // 3 + 1):
            if b > a:
                d = n - a - 2 * b + 2  # the fourth part of (a, b - 1, b - 1)
                row = row * d * (d - 1) // (b * b)
            count = row
            logs.append(math.log(count))
            for c in range(b + 1, (n - a - b) // 2 + 1):
                count = count * (n - a - b - c + 1) // c
                logs.append(math.log(count))
    return memoryview(array("d", logs)).toreadonly()


def second_moment_log(params: ModelParams, g: TestFunction) -> float:
    """log E[Z(g)^2] via the pair identity, an O(n^3) sum with exact counts.

    Every term is the float the scalar sum over (k, l, m) would give, in the
    same operation order, and the final sum rounds correctly, so the result
    does not depend on the order the terms are visited in.  The terms are
    summed by ``_csweep.library().pair_sum``.  Refuses n beyond
    ``MAX_MOMENT_N``."""
    n = params.n
    if n > MAX_MOMENT_N:
        raise CapacityError(
            f"second moment over n={n} needs {(n + 1) ** 3} pair terms, "
            f"above the cap max_n={MAX_MOMENT_N}"
        )
    from ._csweep import library

    c = moment_coefficients(params)
    log_g = array("d", _class_log_weights(n, g))
    return library().pair_sum(n, n * n * c.b0, c.b1, c.b0, log_g, _log_multinomial_table(n))


# Rounding budget of variance_ratio_from_logs.  Each log moment is taken to
# lie within _LOG_MOMENT_ROUNDING of its own size from its exact value: four
# units of rounding, where the error measured at n = 10, p = 0.5 against the
# exact large-beta limit 100 log 2 stayed under a third of that for beta =
# 1e4 ... 1e12.  second - 2 first cancels the moments but not their errors.
# LOG_RATIO_TOLERANCE is the most error accepted in log(1 + ratio), which is
# about the relative error of 1 + ratio: six significant digits.
LOG_RATIO_TOLERANCE = 1e-6
_LOG_MOMENT_ROUNDING = 4 * sys.float_info.epsilon
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


def variance_ratio_from_logs(first: float, second: float) -> tuple[float, bool]:
    """Relative annealed variance E[Z^2]/E[Z]^2 - 1 from log E[Z] and
    log E[Z^2], with a clamp flag.

    The ratio is expm1 of second - 2 first, whose rounding error is bounded
    by _LOG_MOMENT_ROUNDING (|second| + 2 |first|).  When that bound exceeds
    LOG_RATIO_TOLERANCE the ratio is lost to cancellation and ValueError is
    raised; at n = 10, p = 0.5 this happens between beta = 1e7 and 1e8.  A
    ratio beyond the largest double even after that error is returned as
    inf.  The exact value is nonnegative; rounding can push the computed
    value a hair below zero, in which case it is clamped to 0 and the flag is
    set.  A value below -1e-9 means an actual inconsistency and raises.
    """
    if first == -math.inf:
        raise ValueError("E[Z(g)] is zero, variance ratio undefined")
    log_ratio = second - 2.0 * first
    rounding = _LOG_MOMENT_ROUNDING * (abs(second) + 2.0 * abs(first))
    if rounding > LOG_RATIO_TOLERANCE and log_ratio - rounding <= _LOG_DOUBLE_MAX:
        raise ValueError(
            f"variance ratio lost to cancellation: log(1 + ratio) = {log_ratio!r} from "
            f"log moments {first!r} and {second!r} may be off by {rounding:.3g}, "
            f"above the tolerance {LOG_RATIO_TOLERANCE}"
        )
    try:
        value = math.expm1(log_ratio)
    except OverflowError:
        return math.inf, False
    if value >= 0.0:
        return value, False
    if value >= -1e-9:
        return 0.0, True
    raise ValueError(f"variance ratio {value} is negative beyond rounding tolerance")


@dataclass(frozen=True)
class QuenchedSummary:
    """Exact thermodynamics of one disorder realization.

    ``free_energy_per_site`` is -log(Z)/(n beta), None at beta = 0 where the
    normalization is undefined.  ``law`` is the exact Gibbs law of the scaled
    magnetization.
    """

    log_z: float
    free_energy_per_site: float | None
    law: EmpiricalMeasure


def check_enumeration(n: int) -> None:
    """Refuse, with CapacityError, enumeration over n beyond
    ``MAX_ENUMERATION_N``; callers check before any graph is sampled or read."""
    if n > MAX_ENUMERATION_N:
        # 2^n itself: as a float it overflows from n = 1024, and its decimal
        # digits pass int's string conversion limit from about n = 14000
        raise CapacityError(
            f"enumeration over n={n} needs 2^{n} configurations at about "
            f"{_NS_PER_CONFIG} ns each, above the cap max_n={MAX_ENUMERATION_N}"
        )


def enumerate_partition(g: DisorderGraph, params: ModelParams) -> QuenchedSummary:
    """Exact log Z and magnetization law by split-sum enumeration.

    Cost is Theta(2^n) at about _NS_PER_CONFIG ns a configuration; refuses n
    beyond ``MAX_ENUMERATION_N``."""
    n = g.n
    if params.n != n:
        raise DomainError(f"incompatible sizes: graph has n={n}, params have n={params.n}")
    check_enumeration(n)
    from ._csweep import library

    gamma = params.gamma
    width = n + 1
    keys, counts = library().histogram(g.words)
    shift = g.edge_count() * width

    class_terms: list[list[float]] = [[] for _ in range(n + 1)]
    for key, count in zip(keys, counts):
        s_val, cls = divmod(key - shift, width)
        class_terms[cls].append(math.log(count) + gamma * s_val)
    class_logs = [_logsumexp(terms) for terms in class_terms]
    log_z = _logsumexp(class_logs)
    root = math.sqrt(n)
    locations = [(2 * cls - n) / root for cls in range(n + 1)]
    weights = [math.exp(cl - log_z) for cl in class_logs]
    total = math.fsum(weights)
    law = EmpiricalMeasure(locations, [w / total for w in weights])
    free_energy = None if params.beta == 0.0 else -log_z / (n * params.beta)
    return QuenchedSummary(log_z=log_z, free_energy_per_site=free_energy, law=law)


def disorder_oracle(params: ModelParams, g: TestFunction, moment: str) -> float:
    """Brute-force log E[Z(g)] or log E[Z(g)^2] over every graph realization.

    Sums P(graph) * Z(g)^m over all 2^(n^2) graphs, each partition sum taken
    over all 2^n configurations, independently of every closed-form identity
    in this module; this is the reference the identities are tested against.
    The work grows as 2^(n^2 + n), so only tiny n pass the cap
    ``_ORACLE_WORK_LIMIT`` (n = 4).
    """
    if moment not in ("first", "second"):
        raise DomainError(f"moment must be 'first' or 'second', got {moment!r}")
    n, p = params.n, params.p
    cells = n * n
    if (1 << (cells + n)) > _ORACLE_WORK_LIMIT:
        raise CapacityError(
            f"disorder average over n={n} needs 2^{cells + n} weight "
            f"evaluations, above the cap of {_ORACLE_WORK_LIMIT}"
        )
    gamma = params.gamma
    root = math.sqrt(n)

    sign_masks = []
    g_values = []
    for config in range(1 << n):
        mask = 0
        for i in range(n):
            si = (config >> i) & 1
            for j in range(n):
                if ((config >> j) & 1) == si:
                    mask |= 1 << (i * n + j)
        sign_masks.append(mask)
        value = g((2 * config.bit_count() - n) / root)
        if value < 0:
            raise ValueError(f"test function {g.label()} is negative at an atom")
        g_values.append(value)

    edge_prob = [p**e * (1.0 - p) ** (cells - e) for e in range(cells + 1)]
    power = 1 if moment == "first" else 2
    contributions = []
    # The sum runs in plain doubles, so a weight, a partition sum or its
    # square can leave the double range; that is an error, not a result.
    try:
        exp_table = [math.exp(gamma * s) for s in range(-cells, cells + 1)]
        for graph_bits in range(1 << cells):
            edges = graph_bits.bit_count()
            weight = edge_prob[edges]
            if weight == 0.0:
                continue
            z = 0.0
            for mask, g_val in zip(sign_masks, g_values):
                if g_val == 0.0:
                    continue
                s = 2 * (graph_bits & mask).bit_count() - edges
                z += g_val * exp_table[s + cells]
            contributions.append(weight * z**power)
        total = math.fsum(contributions)
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise ValueError(
            f"the brute-force {moment} moment at n={n}, gamma={gamma!r} leaves the "
            "double range; the closed-form moments work in log space"
        )
    if total == 0.0:
        return -math.inf
    return math.log(total)
