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
since then m = n and b0 + b12 = a0(2 beta), b1 + b2 = a1(2 beta).)

Summing over configurations by spin-sum class turns the annealed moments
into (n+1)- and O(n^3)-term sums with exact integer counts:

    spin_count(n, k)       = C(n, (n+k)/2)
    pair_spin_count(n, k, l, m)
        = n! / (n1! n2! n3! n4!),   n1 = (n+k+l+m)/4,  n2 = (n+k-l-m)/4,
                                    n3 = (n-k+l-m)/4,  n4 = (n-k-l+m)/4,

the multinomial over the four site categories (s_i, t_i) in {++, +-, -+,
--}; it vanishes unless all four are nonnegative integers.  The multinomial
only depends on the multiset {n1, n2, n3, n4}, so the pair sum takes the log
of each exact count once per 4-part partition of n (2,280 of them at n = 64)
from a sorted table and evaluates the O(n^3) terms with numpy, one k class at
a time, in the same floating-point order as the term-by-term sum.

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
The +-1 spin matrices of both halves, their inner forms and their classes
are built once, and the histogram key (s + edges) * (n+1) + class of every
configuration is then one entry of a float64 matrix product of the low rows
[(n+1) sigma_L^T W_LH, low constant, 1] against the high rows [sigma_H, 1,
high constant], taken a block of high configurations at a time and counted
with a bincount.  Every product and partial sum is an integer of magnitude
below (2 n^2 + 1)(n + 1), far under 2^53, so the float64 arithmetic is
exact whatever order the matrix product sums in.  A block holds about 2^14
keys (128 KB as float64 and as int64), which with both halves' rows keeps
the working set near 1 MB at n = 22.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

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
    "variance_ratio",
    "variance_ratio_from_logs",
    "QuenchedSummary",
    "enumerate_partition",
    "disorder_oracle",
    "MAX_ENUMERATION_N",
    "MAX_MOMENT_N",
    "MAX_FIRST_MOMENT_N",
]

# Cost of one configuration in the split-sum enumeration on a 2-core x86-64
# Xeon host: the benchmark's exact.enumerate_partition.ns_per_config reads
# 6.3 ns at n = 22, and whole runs at n = 26 to 30 take 10 to 12 ns.
_NS_PER_CONFIG = 10
# 2^30 configurations take about 11 s and 30 MB; beyond that enumeration is
# refused.
MAX_ENUMERATION_N = 30
# Keys per block of the split sum: 2^14 float64 and int64 entries, 128 KB each.
_BLOCK_KEYS = 1 << 14

# The pair sum of second_moment_log is O(n^3) numpy terms, each summed by
# fsum, plus one bigint multinomial per 4-part partition of n; n = 200 takes
# about 1.5 s on that host.
MAX_MOMENT_N = 200
# expected_partition_log takes n + 1 bigint binomials of up to n bits, so
# its cost grows as n^3: 1.5 s at n = 5000 on that host, 14 s at n = 10^4.
MAX_FIRST_MOMENT_N = 5000

# The brute-force oracle's cap on 2^(n^2 + n) weight evaluations: n = 4 passes.
_ORACLE_WORK_LIMIT = 1 << 21


@dataclass(frozen=True)
class MomentCoefficients:
    """Closed-form exponents of the annealed first and second moments."""

    gamma: float
    a0: float
    a1: float
    b0: float
    b1: float
    b2: float
    b12: float


def moment_coefficients(params: ModelParams) -> MomentCoefficients:
    """Evaluate the coefficient formulas at the model's gamma = beta/(2np)."""
    p = params.p
    gamma = params.gamma
    f_plus = eval_F(p, gamma)
    f_minus = eval_F(p, -gamma)
    f2_plus = eval_F(p, 2.0 * gamma)
    f2_minus = eval_F(p, -2.0 * gamma)
    pair_even = (f2_plus + f2_minus) / 4.0
    pair_odd = (f2_plus - f2_minus) / 4.0
    return MomentCoefficients(
        gamma=gamma,
        a0=(f_plus + f_minus) / 2.0,
        a1=(f_plus - f_minus) / 2.0,
        b0=pair_even,
        b1=pair_odd,
        b2=pair_odd,
        b12=pair_even,
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


def expected_partition_log(
    params: ModelParams, g: TestFunction, *, max_n: int = MAX_FIRST_MOMENT_N
) -> float:
    """log E[Z(g)]: sum over spin-sum classes of count * g * annealed weight.

    Returns -inf when g vanishes at every class atom (possible for a narrow
    bump), since the weighted sum is then exactly zero.  Refuses n beyond
    ``max_n`` (raise it explicitly to go bigger)."""
    n = params.n
    if n > max_n:
        raise CapacityError(
            f"first moment over n={n} needs {n + 1} binomial counts of up to {n} "
            f"bits, above the cap max_n={max_n}; pass a larger max_n to override"
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


def _log_multinomial_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """log(n! / (a! b! c! d!)) for every partition a <= b <= c <= d of n.

    Returns (keys, logs) with key (a (n+1) + b)(n+1) + c in ascending order.
    Each log is math.log of the exact integer count, so it is the same float
    as math.log(pair_spin_count(n, k, l, m)) for any (k, l, m) whose four
    category counts are a permutation of (a, b, c, d)."""
    width = n + 1
    fact = [1]
    for i in range(1, n + 1):
        fact.append(fact[-1] * i)
    keys, logs = [], []
    for a in range(n // 4 + 1):
        for b in range(a, (n - a) // 3 + 1):
            for c in range(b, (n - a - b) // 2 + 1):
                keys.append((a * width + b) * width + c)
                count = fact[n] // (fact[a] * fact[b] * fact[c] * fact[n - a - b - c])
                logs.append(math.log(count))
    return np.array(keys, dtype=np.int64), np.array(logs)


def second_moment_log(
    params: ModelParams, g: TestFunction, *, max_n: int = MAX_MOMENT_N
) -> float:
    """log E[Z(g)^2] via the pair identity, an O(n^3) sum with exact counts.

    Every term is the float the scalar sum over (k, l, m) would give, in the
    same operation order, and the final fsum rounds correctly, so the result
    does not depend on the order the terms are visited in.  Refuses n beyond
    ``max_n`` (raise it explicitly to go bigger)."""
    n = params.n
    if n > max_n:
        raise CapacityError(
            f"second moment over n={n} needs {(n + 1) ** 3} pair terms, "
            f"above the cap max_n={max_n}; pass a larger max_n to override"
        )
    c = moment_coefficients(params)
    log_g = _class_log_weights(n, g)
    keys, log_counts = _log_multinomial_table(n)
    width = n + 1
    base = n * n * c.b0
    # classes cl of the second copy where g does not vanish, against n1, the
    # number of sites up in both copies
    live = np.array([cls for cls in range(n + 1) if log_g[cls] != -math.inf], dtype=np.int64)
    cl = live[:, None]
    n1 = np.arange(n + 1)[None, :]
    spin_l = (2 * live - n).astype(np.float64)
    partial_l = np.array(log_g)[live]
    square_l = (c.b2 * spin_l) * spin_l

    slabs = []
    for ck in live.tolist():
        k = 2 * ck - n
        partial_kl = ((log_g[ck] + c.b1 * k * k) + partial_l) + square_l
        # categories ++, +-, -+, -- of the sites; m = n1 - n2 - n3 + n4
        n2, n3, n4 = ck - n1, cl - n1, (n - ck) - cl + n1
        rows, cols = np.nonzero((n2 >= 0) & (n3 >= 0) & (n4 >= 0))
        parts = np.sort(
            np.stack([np.broadcast_to(x, n4.shape)[rows, cols] for x in (n1, n2, n3, n4)], axis=1),
            axis=1,
        )
        log_count = log_counts[
            np.searchsorted(keys, (parts[:, 0] * width + parts[:, 1]) * width + parts[:, 2])
        ]
        m = (4 * cols + n - 2 * ck - 2 * live[rows]).astype(np.float64)
        slabs.append(((base + partial_kl[rows]) + log_count) + (c.b12 * m) * m)
    if not slabs:
        return -math.inf
    peak = max(float(slab.max()) for slab in slabs)
    exps = (map(math.exp, (slab - peak).tolist()) for slab in slabs)
    return peak + math.log(math.fsum(itertools.chain.from_iterable(exps)))


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


def variance_ratio(params: ModelParams, g: TestFunction) -> float:
    """variance_ratio_from_logs over both moments of (params, g), with a
    warning when it clamps; the second moment goes first, so its capacity cap
    refuses a huge n at once."""
    second = second_moment_log(params, g)
    value, clamped = variance_ratio_from_logs(expected_partition_log(params, g), second)
    if clamped:
        warnings.warn("variance ratio clamped to 0 from slightly negative", stacklevel=2)
    return value


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


def _spin_matrix(k: int) -> np.ndarray:
    """All 2^k configurations of k sites as float64 rows of +-1; row t has
    site i up iff bit i of t is set."""
    return ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1) * 2.0 - 1.0


def _interaction_histogram(g: DisorderGraph) -> dict[int, int]:
    """Exact count of configurations per (s, class), keyed s * (n + 1) + class.

    s is the interaction sum and class the number of up spins; the counts
    come from the split sum described in the module docstring."""
    n = g.n
    width = n + 1
    edges = g.edge_count()
    eps = np.array(g.to_matrix(), dtype=np.float64)
    w = eps + eps.T
    np.fill_diagonal(w, 0.0)
    low = n // 2
    spins_l, spins_h = _spin_matrix(low), _spin_matrix(n - low)
    inner_l = ((spins_l @ w[:low, :low]) * spins_l).sum(axis=1) / 2.0
    inner_h = ((spins_h @ w[low:, low:]) * spins_h).sum(axis=1) / 2.0
    class_l = (spins_l.sum(axis=1) + low) / 2.0
    class_h = (spins_h.sum(axis=1) + n - low) / 2.0
    # key = left row . right row, with s shifted by the edge count so the
    # smallest possible key is 0
    left = np.column_stack(
        (
            width * (spins_l @ w[:low, low:]),
            (float(np.trace(eps)) + edges + inner_l) * width + class_l,
            np.ones(spins_l.shape[0]),
        )
    )
    right = np.column_stack((spins_h, np.ones(spins_h.shape[0]), inner_h * width + class_h))

    # both row counts are powers of two, so the blocks tile the high rows
    step = max(1, min(right.shape[0], _BLOCK_KEYS // left.shape[0]))
    block = np.empty((left.shape[0], step))
    keys = np.empty(block.shape, dtype=np.int64)
    counts = np.zeros((2 * edges + 1) * width, dtype=np.int64)
    for start in range(0, right.shape[0], step):
        np.matmul(left, right[start : start + step].T, out=block)
        keys[...] = block
        part = np.bincount(keys.ravel())
        counts[: part.size] += part

    nonzero = np.flatnonzero(counts)
    shift = edges * width
    return {
        key - shift: count
        for key, count in zip(nonzero.tolist(), counts[nonzero].tolist())
    }


def enumerate_partition(g: DisorderGraph, params: ModelParams) -> QuenchedSummary:
    """Exact log Z and magnetization law by split-sum enumeration.

    Cost is Theta(2^n) at about _NS_PER_CONFIG ns a configuration; refuses n
    beyond ``MAX_ENUMERATION_N``."""
    n = g.n
    if params.n != n:
        raise DomainError(f"incompatible sizes: graph has n={n}, params have n={params.n}")
    if n > MAX_ENUMERATION_N:
        steps = 1 << n
        raise CapacityError(
            f"enumeration over n={n} needs {steps} configurations "
            f"(roughly {steps * _NS_PER_CONFIG / 1e9:.0f} s at {_NS_PER_CONFIG} ns "
            f"each), above the cap max_n={MAX_ENUMERATION_N}"
        )
    gamma = params.gamma
    width = n + 1
    hist = _interaction_histogram(g)

    class_terms: list[list[float]] = [[] for _ in range(n + 1)]
    for key in sorted(hist):
        s_val, cls = divmod(key, width)
        class_terms[cls].append(math.log(hist[key]) + gamma * s_val)
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
