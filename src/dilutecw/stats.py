"""Atomic measures, distribution distances, and small statistical helpers.

The laws this package produces are finitely supported: at system size n the
scaled magnetization takes the n+1 values (2c - n)/sqrt(n).  EmpiricalMeasure
holds such a law as sorted atom locations with weights; distances against a
Gaussian reference (or another atomic law) are what the verification
experiments quote.

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
conditions degenerate to 0 <= F and F <= 1.  When both measures are atomic
the same flatness argument applies piecewise: each side of the condition is
a right-continuous step function of t whose pieces all begin at an atom of
one measure or at an atom of the other shifted by eps, so checking those
points (atoms x_i of the first measure; atoms y_j +- eps of the second)
covers the supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    to 1 within 1e-12 (zero-weight atoms are dropped on construction).
    """

    __slots__ = ("locations", "weights", "_cum")

    def __init__(self, locations, weights):
        loc = np.asarray(locations, dtype=float)
        w = np.asarray(weights, dtype=float)
        if loc.ndim != 1 or w.ndim != 1 or loc.size != w.size:
            raise ValueError("locations and weights must be 1-d arrays of equal length")
        if loc.size == 0:
            raise ValueError("measure needs at least one atom")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        keep = w > 0
        loc, w = loc[keep], w[keep]
        if loc.size == 0:
            raise ValueError("all weights are zero")
        if not np.all(np.diff(loc) > 0):
            raise ValueError("locations must be strictly increasing")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, expected 1 within 1e-12")
        self.locations = loc
        self.weights = w
        self._cum = np.cumsum(w)
        # guard against rounding drift in the last cumulative value
        self._cum[-1] = min(self._cum[-1], 1.0)

    @classmethod
    def from_samples(cls, values) -> "EmpiricalMeasure":
        vals = np.asarray(values, dtype=float)
        if vals.size == 0:
            raise ValueError("no samples")
        loc, counts = np.unique(vals, return_counts=True)
        return cls(loc, counts / vals.size)

    @property
    def n_atoms(self) -> int:
        return int(self.locations.size)

    def cdf(self, t: float) -> float:
        """Right-continuous distribution function P(X <= t)."""
        idx = int(np.searchsorted(self.locations, t, side="right"))
        return 0.0 if idx == 0 else float(self._cum[idx - 1])

    def cdf_left(self, t: float) -> float:
        """Left limit P(X < t)."""
        idx = int(np.searchsorted(self.locations, t, side="left"))
        return 0.0 if idx == 0 else float(self._cum[idx - 1])

    def mean(self) -> float:
        return float(np.dot(self.locations, self.weights))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot((self.locations - mu) ** 2, self.weights))

    def total_variation(self, other: "EmpiricalMeasure") -> float:
        """Total variation distance to another atomic measure."""
        locs = np.union1d(self.locations, other.locations)
        a = np.zeros(locs.size)
        b = np.zeros(locs.size)
        a[np.searchsorted(locs, self.locations)] = self.weights
        b[np.searchsorted(locs, other.locations)] = other.weights
        return 0.5 * float(np.abs(a - b).sum())


@dataclass(frozen=True)
class NormalRef:
    """Gaussian reference law N(mean, variance)."""

    mean: float
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError(f"variance must be positive, got {self.variance!r}")

    def cdf(self, t: float) -> float:
        u = (t - self.mean) / math.sqrt(self.variance)
        return 0.5 * math.erfc(-u / math.sqrt(2.0))


def ks_distance(measure: EmpiricalMeasure, ref: NormalRef) -> float:
    """sup_t |G(t) - F(t)| for atomic G against continuous F.

    The supremum is attained at an atom, approaching from one side or the
    other, so both one-sided gaps are checked at every atom.
    """
    worst = 0.0
    prev = 0.0
    for loc, cum in zip(measure.locations, measure._cum):
        f = ref.cdf(float(loc))
        worst = max(worst, abs(cum - f), abs(prev - f))
        prev = cum
    return worst


def _levy_ok_normal(measure: EmpiricalMeasure, ref: NormalRef, eps: float) -> bool:
    prev = 0.0
    for loc, cum in zip(measure.locations, measure._cum):
        x = float(loc)
        if ref.cdf(x - eps) - eps > prev + 1e-15:
            return False
        if cum > ref.cdf(x + eps) + eps + 1e-15:
            return False
        prev = cum
    return True

def _levy_ok_atomic(m1: EmpiricalMeasure, m2: EmpiricalMeasure, eps: float) -> bool:
    # F(t - eps) - eps <= G(t): pieces begin at atoms of G and at atoms of F
    # shifted right by eps
    for t in np.concatenate((m2.locations, m1.locations + eps)):
        if m1.cdf(float(t) - eps) - eps > m2.cdf(float(t)) + 1e-15:
            return False
    # G(t) <= F(t + eps) + eps: pieces begin at atoms of G and at atoms of F
    # shifted left by eps
    for t in np.concatenate((m2.locations, m1.locations - eps)):
        if m2.cdf(float(t)) > m1.cdf(float(t) + eps) + eps + 1e-15:
            return False
    return True


# Absolute tolerances of the bisections in levy_distance and m_plus.
_LEVY_TOL = 1e-6
_M_PLUS_TOL = 1e-12


def levy_distance(measure: EmpiricalMeasure, other) -> float:
    """Levy distance from an atomic measure to a NormalRef or another measure.

    Bisection to absolute tolerance ``_LEVY_TOL``; the returned value is the
    upper end of the final bracket, so the two-sided condition certifiably
    holds at it.  eps = 1 always satisfies the condition, which seeds the
    bracket.
    """
    if isinstance(other, NormalRef):
        ok = lambda eps: _levy_ok_normal(measure, other, eps)
    elif isinstance(other, EmpiricalMeasure):
        ok = lambda eps: _levy_ok_atomic(measure, other, eps)
    else:
        raise TypeError(f"expected NormalRef or EmpiricalMeasure, got {type(other).__name__}")
    lo, hi = 0.0, 1.0
    if ok(lo):
        return 0.0
    while hi - lo > _LEVY_TOL:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


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
