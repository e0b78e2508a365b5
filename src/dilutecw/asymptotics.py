"""Edge-generating function, its Taylor structure, and growth predictions.

Everything annealed in this package routes through one scalar function,

    F(p, z) = log(1 - p + p e^z),

the log moment generating function of a Bernoulli(p) edge.  Its Taylor
coefficients c_k(p) (k >= 1) are polynomials in p with c_k = p/k! * (1 + O(p))
near p = 0; the first few are

    c_1 = p
    c_2 = p (1 - p) / 2
    c_3 = p (2 p^2 - 3 p + 1) / 6
    c_4 = p (-6 p^3 + 12 p^2 - 7 p + 1) / 24.

``taylor_coefficients_exact`` computes them in rational arithmetic to any
order up to a hard cap, by composing the exact series of p(e^z - 1) into the
series of log(1 + u).

Growth shorthands.  With even-part cancellation against the p^2 z^2 / 2 term,
the annealed log partition function at scale N grows like

    A = -beta^2/8 + N^2 p (cosh(beta / (2 N p)) - 1)

and the matching second-moment quantity is

    B = -beta^2/4 + (N^2 p / 2) (cosh(beta / (N p)) - 1).

Both are evaluated through 2*sinh^2(x/2) = cosh(x) - 1 so the small-argument
regime keeps full relative precision.  The gap B - 2A = N^2 p (sinh^2 x -
4 sinh^2(x/2)) with x = beta/(2 N p) is nonnegative and of order
beta^4 / (64 N^2 p^3), which is the quantity controlling when annealed
fluctuations stay tame.

Correction cascade.  Expanding N^2 p (cosh(beta/(2Np)) - 1) term by term, the
order-2k contribution scales as beta^{2k} / (N^{2k-2} p^{2k-1}).  It vanishes
with N iff p >> N^{-(2k-2)/(2k-1)}, so as the dilution strengthens through
the ladder

    p ~ N^{-2/3}   (k = 2 correction becomes order one)
    p ~ N^{-4/5}   (k = 3)
    p ~ N^{-6/7}   (k = 4)
    ...

one even Taylor order after another stops being negligible, with exponent
(2k-2)/(2k-1) increasing towards 1.  The predictions below assume the dense
side of the first rung (N^2 p^3 -> infinity), where only the quadratic term
survives.

Prediction variants for log E Z with weight g on the scaled magnetization:

    a: A + N log 2 + log E[g(xi) e^{beta xi^2 / 2}],   xi standard normal
    b: (1-p) beta^2 / (8p) + N log 2 + log E[g(xi) e^{beta xi^2 / 2}]
    c: (1-p) beta^2 / (8p) + N log 2 - (1/2) log(1 - beta)   (g = 1 only)

Variant b replaces the cosh in A by its quadratic Taylor term; variant c
additionally evaluates the Gaussian factor in closed form, which needs g = 1.
All three require beta < 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .model import ModelParams
from .testfunctions import TestFunction

__all__ = [
    "eval_F",
    "taylor_coefficients_exact",
    "MAX_TAYLOR_ORDER",
    "cosh_shorthand",
    "gaussian_expectation",
    "AsymptoticPrediction",
    "predict_log_partition",
    "remainder_check",
]

# Rational series composition is exact but its cost and the coefficient sizes
# grow quickly; nothing downstream needs more than a handful of orders.
MAX_TAYLOR_ORDER = 16


def eval_F(p: float, z: float) -> float:
    """F(p, z) = log(1 - p + p e^z), stable for small z and p near 1.

    Written as log1p(u) with u = p * expm1(z): at small z, u is ~ p z, so no
    cancellation.  Three cases need another form.  At p = 1, F = z exactly.
    Above z = 700, p e^z nears overflow, and F = z + log(p + (1 - p) e^-z)
    is used.  Where u < -1/2, 1 + u can be far smaller than the rounding of
    u, and log1p(u) keeps only a few digits (at p = 1 - 2^-52 and z = -35.7
    it is off by 1e-3 relative), so F = log((1 - p) + p e^z) is used there:
    u < -1/2 needs p > 1/2, where 1 - p is exact, and the sum of two
    positive terms cancels nothing.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p!r}")
    if p == 1.0:
        return z
    if z > 700.0:
        return z + math.log(p + (1.0 - p) * math.exp(-z))
    u = p * math.expm1(z)
    if u < -0.5:
        return math.log((1.0 - p) + p * math.exp(z))
    return math.log1p(u)


def taylor_coefficients_exact(p, max_order: int) -> list[Fraction]:
    """Coefficients c_1 .. c_{max_order} of F(p, z) in z, as exact rationals.

    ``p`` is converted with Fraction(), so rational and decimal-string inputs
    stay exact; float inputs are taken at their binary value.
    """
    if not 1 <= max_order <= MAX_TAYLOR_ORDER:
        raise DomainError(
            f"max_order must lie in [1, {MAX_TAYLOR_ORDER}], got {max_order}"
        )
    pq = Fraction(p)
    if not 0 < pq <= 1:
        raise DomainError(f"p must lie in (0, 1], got {p!r}")
    k = max_order
    # u(z) = p (e^z - 1) truncated at order k
    factorial = Fraction(1)
    u = [Fraction(0)] * (k + 1)
    for i in range(1, k + 1):
        factorial *= i
        u[i] = pq / factorial

    def mul_truncated(a, b):
        out = [Fraction(0)] * (k + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j in range(min(len(b), k + 1 - i)):
                if b[j]:
                    out[i + j] += ai * b[j]
        return out

    # log(1 + u) = sum_{m>=1} (-1)^{m+1} u^m / m, truncated at order k
    series = [Fraction(0)] * (k + 1)
    upow = [Fraction(1)] + [Fraction(0)] * k
    for m in range(1, k + 1):
        upow = mul_truncated(upow, u)
        sign = Fraction(1, m) if m % 2 else Fraction(-1, m)
        for i in range(k + 1):
            series[i] += sign * upow[i]
    return series[1:]


def cosh_shorthand(params: ModelParams, which: str) -> float:
    """The growth shorthand A (first moment) or B (second moment).

    A = -beta^2/8 + N^2 p (cosh(beta/(2Np)) - 1)
    B = -beta^2/4 + (N^2 p / 2) (cosh(beta/(Np)) - 1)

    cosh(x) - 1 is evaluated as 2 sinh(x/2)^2; both vanish at beta = 0.
    A value beyond the largest double raises ValueError.
    """
    n, p, beta = params.n, params.p, params.beta
    if which not in ("A", "B"):
        raise ValueError(f"which must be 'A' or 'B', got {which!r}")
    try:
        if which == "A":
            x = beta / (2.0 * n * p)
            value = -beta * beta / 8.0 + n * n * p * 2.0 * math.sinh(x / 2.0) ** 2
        else:
            x = beta / (n * p)
            value = -beta * beta / 4.0 + n * n * p * math.sinh(x / 2.0) ** 2
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise ValueError(
            f"the growth shorthand {which} at n={n}, p={p!r}, beta={beta!r} "
            "leaves the double range"
        )
    return value


# Nodes of each Gauss rule in gaussian_expectation.  The rules are built on
# first use, since hermgauss(128) alone takes tens of milliseconds.
_NODES = 128


@functools.cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(_NODES)


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_NODES)


# exp(-x^2 / 2) underflows to 0 beyond |x| = 38.6, and on a panel of 8 sigma
# the 128-node rule integrates the Gaussian weight to rounding level
_WEIGHT_REACH = 38.6
_PANEL_SIGMAS = 8.0


def gaussian_expectation(g: TestFunction, beta: float) -> float:
    """E[g(xi) exp(beta xi^2 / 2)] for standard normal xi, 0 <= beta < 1.

    The integrand g(x) exp(-(1 - beta) x^2 / 2) carries a total quadratic
    decay of (1 - beta) plus twice g's own declared decay; substituting y =
    x sqrt(total) turns the integral into a plain Gaussian expectation of a
    residual with an O(1) length scale, done with Gauss-Hermite quadrature.
    128 nodes is then beyond machine precision for the analytic registry
    members at any beta.  A compactly supported g defeats Hermite quadrature
    (the nodes straddle the support edges where g is not analytic), so for
    those the integral is instead taken over the support interval with
    Gauss-Legendre nodes, which see a smooth integrand flat at both
    endpoints.  The interval is first clipped to |x| <= _WEIGHT_REACH sigma,
    sigma = 1/sqrt(1 - beta), beyond which the Gaussian weight underflows to
    0, and is then split into equal panels no wider than _PANEL_SIGMAS sigma,
    each with its own ``_NODES`` nodes, so that a bump much wider than sigma
    still puts its nodes where the weight lives.  A support no wider than
    _PANEL_SIGMAS sigma stays one panel.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta!r}")
    support = g.support
    if support is None:
        t, w = _hermite_rule()
        alpha = g.quadratic_decay
        scale = 1.0 / math.sqrt(1.0 - beta + 2.0 * alpha)
        acc = 0.0
        for ti, wi in zip(t, w):
            x = math.sqrt(2.0) * ti * scale
            acc += wi * g(x) * math.exp(alpha * x * x)
        return scale * acc / math.sqrt(math.pi)
    sigma = 1.0 / math.sqrt(1.0 - beta)
    lo = max(support[0], -_WEIGHT_REACH * sigma)
    hi = min(support[1], _WEIGHT_REACH * sigma)
    if not lo < hi:
        return 0.0
    t, w = _legendre_rule()
    panels = math.ceil((hi - lo) / (_PANEL_SIGMAS * sigma))
    edges = [lo + (hi - lo) * k / panels for k in range(panels)] + [hi]
    acc = 0.0
    for a, b in zip(edges, edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        part = 0.0
        for ti, wi in zip(t, w):
            x = mid + half * ti
            part += wi * g(x) * math.exp(-(1.0 - beta) * x * x / 2.0)
        acc += half * part
    return acc / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class AsymptoticPrediction:
    """A predicted log partition value plus the Gaussian factor that entered it."""

    variant: str
    log_value: float
    gaussian_factor: float


def predict_log_partition(
    params: ModelParams, g: TestFunction, variant: str
) -> AsymptoticPrediction:
    """Predicted log of the disorder-averaged weighted partition sum.

    Variants 'a', 'b', 'c' as described in the module docstring; all require
    beta < 1, and 'c' additionally requires g to be the constant function.
    """
    if variant not in ("a", "b", "c"):
        raise DomainError(f"variant must be 'a', 'b', or 'c', got {variant!r}")
    n, p, beta = params.n, params.p, params.beta
    if not beta < 1.0:
        raise DomainError(f"predictions require beta < 1, got beta={beta}")
    nlog2 = n * math.log(2.0)
    if variant == "c":
        if g.name != "one":
            raise DomainError("variant 'c' is the closed form for g = one only")
        factor = 1.0 / math.sqrt(1.0 - beta)
        log_value = (1.0 - p) * beta * beta / (8.0 * p) + nlog2 - 0.5 * math.log1p(-beta)
        return AsymptoticPrediction(variant="c", log_value=log_value, gaussian_factor=factor)
    factor = gaussian_expectation(g, beta)
    if factor <= 0.0:
        raise ValueError(f"Gaussian factor is {factor}, cannot take its log")
    if variant == "a":
        lead = cosh_shorthand(params, "A")
    else:
        lead = (1.0 - p) * beta * beta / (8.0 * p)
    return AsymptoticPrediction(
        variant=variant, log_value=lead + nlog2 + math.log(factor), gaussian_factor=factor
    )


def remainder_check(p: float, z: float, which: str) -> float:
    """Normalized Taylor remainder of F, in 50-digit arithmetic.

    which = 'odd':  [ (F(z) - F(-z))/2 - p z ] / (p z^3)
    which = 'even': [ (F(z) + F(-z))/2 - p (cosh z - 1) + p^2 z^2 / 2 ] / (p^2 z^4)

    Both have finite limits as z -> 0 (the next coefficient of the relevant
    parity).  The subtraction is hopeless in double precision for small z,
    hence the extended working precision; p=1 and |z| up to 0.25 are in scope.
    """
    if which not in ("odd", "even"):
        raise DomainError(f"which must be 'odd' or 'even', got {which!r}")
    if not 0.0 < p <= 1.0:
        raise DomainError(f"p must lie in (0, 1], got {p!r}")
    if not 0.0 < abs(z) <= 0.25:
        raise DomainError(f"z must satisfy 0 < |z| <= 0.25, got {z!r}")
    # mpmath costs tens of milliseconds to import, and only series-check
    # comes here
    import mpmath as mp

    with mp.workdps(50):
        pm = mp.mpf(p)
        zm = mp.mpf(z)
        fp = mp.log(1 - pm + pm * mp.e**zm)
        fm = mp.log(1 - pm + pm * mp.e**(-zm))
        if which == "odd":
            value = ((fp - fm) / 2 - pm * zm) / (pm * zm**3)
        else:
            value = ((fp + fm) / 2 - pm * (mp.cosh(zm) - 1) + pm**2 * zm**2 / 2) / (
                pm**2 * zm**4
            )
        return float(value)
