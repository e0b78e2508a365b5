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
--}; it vanishes unless all four are nonnegative integers.

Quenched side.  For a fixed graph the partition sum is enumerated over all
2^n configurations by a Gray-code walk: each step flips one site i, and the
integer bilinear form s = sum eps[a,b] s_a s_b changes by

    delta s = -2 s_i * sum_{j != i} (eps[i,j] + eps[j,i]) s_j,

an AND-and-popcount against the two precomputed symmetric neighbor masks of
site i (weight-1 and weight-2 neighbors).  Instead of accumulating log-space
sums on the fly, the walk builds an exact histogram of (class, s) pairs with
integer counts; the partition sum then needs one log-sum-exp over at most
(n+1) * (number of distinct s values) terms.  This is both faster in the
loop and exact up to the single final rounding.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .asymptotics import eval_F
from .errors import CapacityError
from .model import DisorderGraph, ModelParams
from .stats import EmpiricalMeasure
from .testfunctions import TestFunction

__all__ = [
    "MomentCoefficients",
    "moment_coefficients",
    "expected_weight_log",
    "spin_count",
    "pair_spin_count",
    "expected_partition_log",
    "second_moment_log",
    "variance_ratio",
    "variance_ratio_detail",
    "QuenchedSummary",
    "enumerate_partition",
    "disorder_oracle",
    "MAX_ENUMERATION_N",
]

# Gray-code enumeration runs at roughly a microsecond per configuration, so
# 2^26 is already a couple of minutes; beyond that the caller must opt in.
MAX_ENUMERATION_N = 26

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


def _check_class(n: int, k: int, name: str = "k"):
    if (n + k) % 2 != 0:
        raise ValueError(f"{name}={k} has the wrong parity for n={n}")
    if not -n <= k <= n:
        raise ValueError(f"{name}={k} out of range for n={n}")


def expected_weight_log(params: ModelParams, k: int) -> float:
    """log E exp(-beta H) for one configuration with spin sum k: n^2 a0 + a1 k^2."""
    _check_class(params.n, k)
    c = moment_coefficients(params)
    return params.n * params.n * c.a0 + c.a1 * k * k


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
    bump), since the weighted sum is then exactly zero.
    """
    n = params.n
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


def second_moment_log(params: ModelParams, g: TestFunction) -> float:
    """log E[Z(g)^2] via the pair identity, an O(n^3) sum with exact counts."""
    n = params.n
    c = moment_coefficients(params)
    log_g = _class_log_weights(n, g)
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
            partial_kl = partial + log_g[cl] + c.b2 * l * l
            for m in range(-n, n + 1, 2):
                count = pair_spin_count(n, k, l, m)
                if count == 0:
                    continue
                terms.append(base + partial_kl + math.log(count) + c.b12 * m * m)
    return _logsumexp(terms)


def variance_ratio_detail(params: ModelParams, g: TestFunction) -> tuple[float, bool]:
    """Relative annealed variance E[Z^2]/E[Z]^2 - 1, with a clamp flag.

    The exact value is nonnegative; rounding in the two log sums can push
    the computed value a hair below zero, in which case it is clamped to 0
    and the flag is set.  A value below -1e-9 means an actual inconsistency
    and raises.  A value beyond the largest double is returned as inf.
    """
    first = expected_partition_log(params, g)
    if first == -math.inf:
        raise ValueError("E[Z(g)] is zero, variance ratio undefined")
    try:
        value = math.expm1(second_moment_log(params, g) - 2.0 * first)
    except OverflowError:
        return math.inf, False
    if value >= 0.0:
        return value, False
    if value >= -1e-9:
        return 0.0, True
    raise ValueError(f"variance ratio {value} is negative beyond rounding tolerance")


def variance_ratio(params: ModelParams, g: TestFunction) -> float:
    value, clamped = variance_ratio_detail(params, g)
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


def _symmetric_masks(g: DisorderGraph) -> tuple[list[int], list[int], list[int]]:
    """Per-site weight-1 and weight-2 neighbor masks and their base counts.

    Mask bits cover j != i with eps[i,j] + eps[j,i] equal to 1 or 2; the base
    count is popcount(w1) + 2 popcount(w2), the field when all neighbors are
    down.
    """
    n = g.n
    w1 = []
    w2 = []
    base = []
    cols = [0] * n
    for i, row in enumerate(g.rows):
        for j in range(n):
            if (row >> j) & 1:
                cols[j] |= 1 << i
    for i in range(n):
        both = g.rows[i] | cols[i]
        two = g.rows[i] & cols[i]
        self_bit = 1 << i
        one = (both & ~two) & ~self_bit
        two &= ~self_bit
        w1.append(one)
        w2.append(two)
        base.append(one.bit_count() + 2 * two.bit_count())
    return w1, w2, base


def enumerate_partition(
    g: DisorderGraph,
    params: ModelParams,
    *,
    max_n: int = MAX_ENUMERATION_N,
) -> QuenchedSummary:
    """Exact log Z and magnetization law by Gray-code enumeration.

    Cost is Theta(2^n) with a small constant; refuses n beyond ``max_n``
    (raise it explicitly to go bigger)."""
    n = g.n
    if params.n != n:
        raise ValueError(f"incompatible sizes: graph has n={n}, params have n={params.n}")
    if n > max_n:
        steps = 1 << n
        raise CapacityError(
            f"enumeration over n={n} needs {steps} configurations "
            f"(roughly {steps / 1e6:.0f} s at a microsecond each), above the "
            f"cap max_n={max_n}; pass a larger max_n to override"
        )
    w1, w2, base = _symmetric_masks(g)
    gamma = params.gamma

    # Exact histogram over (class, interaction sum): key = s * (n + 1) + c.
    # The all-down start has s = edge count (every product s_a s_b is +1).
    hist: dict[int, int] = {}
    bits = 0
    s = g.edge_count()
    width = n + 1
    hist[s * width] = 1
    for t in range(1, 1 << n):
        i = (t & -t).bit_length() - 1
        field = 2 * ((w1[i] & bits).bit_count() + 2 * (w2[i] & bits).bit_count()) - base[i]
        # delta = -2 * s_i * field with s_i the pre-flip sign of site i
        if (bits >> i) & 1:
            s -= 2 * field
        else:
            s += 2 * field
        bits ^= 1 << i
        key = s * width + bits.bit_count()
        hist[key] = hist.get(key, 0) + 1

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


def disorder_oracle(
    params: ModelParams,
    g: TestFunction,
    moment: str,
    *,
    work_limit: int = _ORACLE_WORK_LIMIT,
) -> float:
    """Brute-force log E[Z(g)] or log E[Z(g)^2] over every graph realization.

    Sums P(graph) * Z(g)^m over all 2^(n^2) graphs, each partition sum taken
    over all 2^n configurations, independently of every closed-form identity
    in this module; this is the reference the identities are tested against.
    The work grows as 2^(n^2 + n), so only tiny n pass the cap (n = 4 with
    the default).
    """
    if moment not in ("first", "second"):
        raise ValueError(f"moment must be 'first' or 'second', got {moment!r}")
    n, p = params.n, params.p
    cells = n * n
    if (1 << (cells + n)) > work_limit:
        raise CapacityError(
            f"disorder average over n={n} needs 2^{cells + n} weight "
            f"evaluations, above the cap of {work_limit}"
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

    exp_table = [math.exp(gamma * s) for s in range(-cells, cells + 1)]
    edge_prob = [p**e * (1.0 - p) ** (cells - e) for e in range(cells + 1)]
    power = 1 if moment == "first" else 2
    contributions = []
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
    if total == 0.0:
        return -math.inf
    return math.log(total)
