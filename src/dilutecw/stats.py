"""Atomic measures, distribution distances, and small statistical helpers.

The laws this package produces are finitely supported: at system size n the
scaled magnetization takes the n+1 values (2c - n)/sqrt(n).  EmpiricalMeasure
holds such a law as sorted atom locations with weights; distances against a
Gaussian reference are what the verification experiments quote.

Levy distance.  d_L(mu, nu) is the infimum of eps > 0 such that for all t

    F(t - eps) - eps <= G(t) <= F(t + eps) + eps,

with F, G the two distribution functions.  The definition is symmetric and
0 <= d_L <= KS <= 1.  For a fixed eps the two-sided condition is monotone in
eps, so the infimum is found by bisection; each feasibility check needs only
finitely many t.  With G atomic and F continuous it suffices to test, at
every atom x_i of G (cumulative weights C_i, C_0 = 0):

    F(x_i - eps) - eps <= C_{i-1}   and   C_i <= F(x_i + eps) + eps.

Between atoms G is flat while the F terms move in the favorable direction,
so violations are worst approaching an atom from the left (first inequality)
or sitting on it (second); before the first atom and past the last one the
conditions degenerate to 0 <= F and F <= 1.

Both distances are kernels of ``_csweep.library()``: compiled where a C
compiler is at hand (``levy_normal`` and ``ks_normal``), their Python twins in
``_twins`` otherwise.  Each kernel does the twin's IEEE operations in the
twin's order and calls libm ``erfc`` and ``sqrt``, the functions ``math.erfc``
and ``math.sqrt`` call, so both give the same double.  The compiled kernels
release the interpreter lock, so the distances of one graph do not hold up
the chains and graph sampling of another thread.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

__all__ = [
    "EmpiricalMeasure",
    "NormalRef",
    "ks_distance",
    "levy_distance",
    "m_plus",
    "SampleSummary",
    "summarize",
]


class EmpiricalMeasure:
    """A probability measure on finitely many real atoms.

    ``locations`` are strictly increasing; ``weights`` are positive and sum
    to 1 within 1e-12 (zero-weight atoms are dropped on construction).  Both
    are ``array('d')`` vectors, as is the running sum ``_cum`` of the weights,
    added left to right, the order of ``numpy.cumsum``; the distance kernels
    read ``locations`` and ``_cum`` as they are.
    """

    __slots__ = ("locations", "weights", "_cum")

    def __init__(self, locations, weights):
        try:
            loc, w = array("d", locations), array("d", weights)
        except TypeError:
            raise ValueError("locations and weights must be 1-d arrays of equal length") from None
        if len(loc) != len(w):
            raise ValueError("locations and weights must be 1-d arrays of equal length")
        if not loc:
            raise ValueError("measure needs at least one atom")
        if any(x < 0 for x in w):
            raise ValueError("weights must be nonnegative")
        kept = [(x, y) for x, y in zip(loc, w) if y > 0]
        if not kept:
            raise ValueError("all weights are zero")
        loc, w = array("d", [x for x, _ in kept]), array("d", [y for _, y in kept])
        if not all(b > a for a, b in zip(loc, loc[1:])):
            raise ValueError("locations must be strictly increasing")
        total = math.fsum(w)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, expected 1 within 1e-12")
        self.locations = loc
        self.weights = w
        self._cum = array("d", accumulate(w))
        # guard against rounding drift in the last cumulative value
        self._cum[-1] = min(self._cum[-1], 1.0)

    @classmethod
    def from_samples(cls, values) -> "EmpiricalMeasure":
        counts = Counter(map(float, values))
        if not counts:
            raise ValueError("no samples")
        size = sum(counts.values())
        loc = sorted(counts)
        return cls(loc, [counts[x] / size for x in loc])

    def cdf(self, t: float) -> float:
        """Right-continuous distribution function P(X <= t)."""
        idx = bisect_right(self.locations, t)
        return 0.0 if idx == 0 else self._cum[idx - 1]

    def mean(self) -> float:
        return math.fsum(x * w for x, w in zip(self.locations, self.weights))

    def variance(self) -> float:
        mu = self.mean()
        return math.fsum((x - mu) ** 2 * w for x, w in zip(self.locations, self.weights))


@dataclass(frozen=True)
class NormalRef:
    """Gaussian reference law N(mean, variance)."""

    mean: float
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError(f"variance must be positive, got {self.variance!r}")

    def cdf(self, t: float) -> float:
        return _normal_cdf(t, self.mean, math.sqrt(self.variance))


def _normal_cdf(t: float, mean: float, sd: float) -> float:
    """N(mean, sd^2)'s distribution function at t.  The distance kernels
    (``normal_cdf`` in ``_csweep.SOURCE``) repeat these operations in C."""
    return 0.5 * math.erfc(-((t - mean) / sd) / math.sqrt(2.0))


def _check_normal(ref) -> None:
    if not isinstance(ref, NormalRef):
        raise TypeError(f"expected NormalRef, got {type(ref).__name__}")


def ks_distance(measure: EmpiricalMeasure, ref: NormalRef) -> float:
    """sup_t |G(t) - F(t)| for atomic G against continuous F.

    The supremum is attained at an atom, approaching from one side or the
    other, so both one-sided gaps are checked at every atom.
    """
    _check_normal(ref)
    from ._csweep import library

    return library().ks(measure.locations, measure._cum, float(ref.mean), math.sqrt(ref.variance))


# Absolute tolerances of the bisections in levy_distance and m_plus.
_LEVY_TOL = 1e-6
_M_PLUS_TOL = 1e-12


def levy_distance(measure: EmpiricalMeasure, ref: NormalRef) -> float:
    """Levy distance from an atomic measure to a Gaussian reference.

    Bisection to absolute tolerance ``_LEVY_TOL``; the returned value is the
    upper end of the final bracket, so the two-sided condition certifiably
    holds at it.  eps = 1 always satisfies the condition, which seeds the
    bracket.
    """
    _check_normal(ref)
    from ._csweep import library

    return library().levy(measure.locations, measure._cum, float(ref.mean),
                          math.sqrt(ref.variance), _LEVY_TOL)


def m_plus(beta: float) -> float:
    """Largest solution of z = tanh(beta z) in [0, 1].

    Zero for beta <= 1; for beta > 1 the positive root is bracketed in (0, 1)
    and bisected to ``_M_PLUS_TOL``: f(z) = tanh(beta z) - z is positive just
    right of zero (slope beta - 1 > 0) and negative at z = 1.
    """
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta!r}")
    if beta <= 1.0:
        return 0.0
    lo, hi = 1e-8, 1.0
    if math.tanh(beta * lo) - lo <= 0:
        return 0.0
    while hi - lo > _M_PLUS_TOL:
        mid = 0.5 * (lo + hi)
        if math.tanh(beta * mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SampleSummary:
    count: int
    mean: float
    variance: float


def summarize(values) -> SampleSummary:
    """Count, mean, and unbiased sample variance in one Welford pass."""
    count = 0
    mean = 0.0
    m2 = 0.0
    for v in values:
        count += 1
        delta = v - mean
        mean += delta / count
        m2 += delta * (v - mean)
    if count == 0:
        raise ValueError("no samples")
    variance = m2 / (count - 1) if count > 1 else 0.0
    return SampleSummary(count=count, mean=mean, variance=variance)
