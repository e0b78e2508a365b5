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

They are the cumulants of a Bernoulli(p) edge over k!, which have the closed
form

    c_k = sum_{j=1..k} (-1)^(j-1) (j-1)! S(k, j) p^j / k!

with S(k, j) the Stirling numbers of the second kind: F is log(1 + u) at
u = p (e^z - 1), and the z^k coefficient of (e^z - 1)^j is j! S(k, j) / k!.
``taylor_coefficients_exact`` evaluates it in integer arithmetic, exactly, to
any order up to a hard cap.

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
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction

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

# The coefficients are exact, but their size grows quickly with the order;
# nothing downstream needs more than a handful of orders.
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
    # with p = a / b, k! b^k c_k = sum_j (-1)^(j-1) (j-1)! S(k, j) a^j b^(k-j)
    a, b = pq.numerator, pq.denominator
    stirling = [1]  # S(k, j) for j = 0 .. k, from k = 0
    coefficients = []
    for k in range(1, max_order + 1):
        # S(k, j) = j S(k - 1, j) + S(k - 1, j - 1), with S(k - 1, k) = 0
        last = stirling + [0]
        stirling = [0] + [j * last[j] + last[j - 1] for j in range(1, k + 1)]
        top = sum(
            (-1) ** (j - 1) * math.factorial(j - 1) * stirling[j] * a**j * b ** (k - j)
            for j in range(1, k + 1)
        )
        coefficients.append(Fraction(top, math.factorial(k) * b**k))
    return coefficients


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


# The 128-node Gauss-Hermite and Gauss-Legendre rules of gaussian_expectation,
# as numpy's hermgauss(128) and leggauss(128) give them.  Both are exactly
# symmetric, so each is stored as the little-endian doubles of its 64 positive
# nodes, increasing, then their weights, in hex: 512 float literals would take
# milliseconds to compile at every import, and building the rules takes tens.
_NODES = 128

_HERMITE_HALF = (
    "345bd6be7715b93f77d0773b57d0d23f2a8dd1ea085cdf3f6a68732877f4e53f8a164badc13bec3f4d1f4c331142f13f"
    "40b69b21ec66f43f94f9816f918cf73f36a2525221b3fa3fd4824a78bcdafd3f6feb650dc2810040637fb908cd160240"
    "50c1127390ac0340f03020f51d430540df3987a687da064011fed919e072084021dc60693a0c0a4016d1d344aaa60b40"
    "d254230044420d40836874a31cdf0e40552d3cfea43e10403033a758710e11408cfa912affde1140b90e68bf5ab01240"
    "e31ed8f0908213400c498b34af551440686254abc32915400b170e32ddfe1540682b68740bd516403190ef015fac1740"
    "56cdaa65e98418402526b540bd5e1940d9855768ee391a406fc3370892161b40286e56c9bef41b40a6d5bafe8cd41c40"
    "e5added816b61d40dc9c29a178991e4037581dffd07e1f4094369da4203320400f1b16f2f6a72040a06dbd59ff1d2140"
    "fd03f6cf4f95214097417a9c000e22406b3823bc2c882240f5c76858f2032340ad20de5a738123403cf23125d6002440"
    "96e57e7946822440e2238aa3f605254075c7cdfa208c254081545ce009152640567d676d02a126408e433e246c302740"
    "4206e326bec3274011d6accd8c5b28409cbe071b95f82840128310cbce9b29408d95c16a8a462a40e6865b23a7fa2a40"
    "4631ed68fcba2b40ee8e0f47478c2c40acf66033ba772d40e92c866669952e40030f98c730d8c83f45e30aeecd02c73f"
    "3b7827e42abdc33f4196e4df5f5cbf3ff96eb6c25c11b73fc24ff223ac6aaf3ff3c13c9612cda33f2cf537227a18973f"
    "a087ed34f8ea883f349afcd8a9db783fb2e456977eeb663fd8e54ee7c785533f455d0888fdb43e3ff183dce5b948263f"
    "069eed784dd30d3f785f59027d64f23e6d3d753b27e3d43eca637174aad2b53e4d096c100ef5943eb36bc3510c7b723e"
    "2012ee3ea6e54d3e3e54d78c2728263ed640612e640dfe3d45df641908a0d23d4646901d3d11a53d1f1d436c68b6753d"
    "a4e09bf1035b443d3fd07b420254113dec82d039c6bcda3c2d78e92a0aa8a23cbcf3075db87e673c9834c7d432a32a3c"
    "0a6790a3441eeb3be519abc59fb8a83bd62d20dd7a1e643b92df9b91ce231d3b2bab273d24b6d23ac5275146ad39853a"
    "7f39a34a552d353a06f2a77cba7fe2393e18130256278c39c202681c2a8f3239e79e54e66611d538492c097ad5737438"
    "3087f53819da10388dfc3659475fa737067af1c509063b372a97bb6a3fc5c9361b3f6546fb0554361a810e27f3ffd835"
    "3ce8a0c2dcac583542d2c4d9a0e4d23487f8b7abb7f24534aca3e06a3dd5b2337ba49c7e4e1c17338c454c592e7b7332"
    "6aba433dcf71c531615ee9e07bdb0c31f049d186d2b7453088d0bc38aa21702fd0084e49fd99832eda2b9076319d7c2d"
    "b8c7ffa1e8da4b2c757d10c4271ed02a"
)

_LEGENDRE_HALF = (
    "240b2d1abd08893f3ef150ae98c5a23f5e6ca6cb2246af3f61c8f6f4f1e0b53fe891fb87791bbc3f82f5b412da28c13f"
    "42491f3e5741c43f34ac9204bb56c73ffd27ca9d8c68ca3fe7ed60cd5376cd3ffdfa9b7acc3fd03f4fb3e193f2c1d13f"
    "df7b1e1d6141d33f6d445c6bddbdd43fd1120c472d37d63f005deef416add73fdd5de83e611fd93fcd0ac57cd38dda3f"
    "3d53e09c35f8db3f7756bb2c505edd3fd13f7861ecbfde3f693e1e106a0ee03f82023c0369bae03f873708b9d863e13f"
    "a849b7449f0ae23f2bc0b621a3aee23f54c59437cb4fe33feb22d7ddfeede33f0f1dc1df2589e43f8b9707802821e53f"
    "91f4727cefb5e53fa71e6e116447e63f4d3282fd6fd5e63f0b3fbe84fd5fe73f6c9a0a74f7e6e73fbe426724496ae83f"
    "81d2147edee9e83fd388a7fba365e93f66ee03ad86dde93f26a2443a7451ea3f0bdc88e65ac1ea3f5e38ab92292deb3f"
    "3261e0bfcf94eb3fb82f3d923df8eb3ff1e223d36357ec3f200d98f333b2ec3f91dd780ea008ed3fb370a1ea9a5aed3f"
    "fed4eefc17a8ed3f7a782b6a0bf1ed3fc0b8df086a35ee3f235707632975ee3fb39dabb73fb0ee3f961362fca3e6ee3f"
    "60bfafde4d18ef3f703751c53545ef3f385468d1546def3f9eca91dfa490ef3fb204e98820afef3f1ba00d24c3c8ef3f"
    "370b70c688ddef3f374f1f476eedef3f28c1184b71f8ef3fa6b66ec390feef3fc6fdd1616b08993f4f980fd99604993f"
    "aa2b925deefc983fbe7f511b73f1983f74e007d426e2983f074eedde0bcf983f83cd5b2825b8983f14e85c31769d983f"
    "646a200f037f983f74785c6ad05c983fce0f977ee336983f13125919420d983f6af94a99f2df973f9b573bedfbae973f"
    "04470f93657a973fb2f79c963742973f0a8370907a06973fac397ba437c7963fc19bad807884963fe6347c5b473e963f"
    "25944ff2aef4953f0c9fdf87baa7953ff87c7ae27557953fcb62374aed03953f3f8015872dad943f815e07df4353943f"
    "25f5ea133ef6933fc9cd6e612a96933fe980e47a1733933f79e6008914cd923f49508a273164923f7128f5627df8913f"
    "d754efb5098a913f87b9da06e718913fb34537a526a5903f8ce7fc46da2e903f65adcb0b286c8f3f333153b9cc758e3f"
    "cd675248c87a8d3f50f41921417b8c3f82bca85c5e778b3f2495b0be476f8a3f15dc80af2563893f34fad7352153883f"
    "d9b39cf0633f873f4e6080101828863f71188b51680d853f74d892f47fef833f54fb9eb88ace823f6a5739d4b4aa813f"
    "cbabaeee2a84803f716e813234b67e3f968f9a905f5f7c3f8d38e09833047a3f971355970ca5773f241351754742753f"
    "f91eb5ac41dc723fabc0eb3c5973703f8861274ad90f6c3f73fdaeddb534673ff91e85f30756623feea3eb2f28e95a3f"
    "e7325ad07422513f9e3426875c733d3f"
)


def _rule(half: str) -> tuple[list[float], list[float]]:
    """The nodes, increasing, and the weights of a symmetric rule stored as
    ``half``."""
    table = array("d", bytes.fromhex(half))
    if sys.byteorder == "big":
        table.byteswap()
    nodes, weights = table[:_NODES // 2].tolist(), table[_NODES // 2:].tolist()
    return [-x for x in reversed(nodes)] + nodes, weights[::-1] + weights


@functools.cache
def _hermite_rule() -> tuple[list[float], list[float]]:
    return _rule(_HERMITE_HALF)


@functools.cache
def _legendre_rule() -> tuple[list[float], list[float]]:
    return _rule(_LEGENDRE_HALF)


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
    """A predicted log partition value plus the Gaussian factor that entered it.
    The fields are the ``asym-predict`` payload as they stand."""

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
        return AsymptoticPrediction(log_value=log_value, gaussian_factor=factor)
    factor = gaussian_expectation(g, beta)
    if factor <= 0.0:
        raise ValueError(f"Gaussian factor is {factor}, cannot take its log")
    if variant == "a":
        lead = cosh_shorthand(params, "A")
    else:
        lead = (1.0 - p) * beta * beta / (8.0 * p)
    return AsymptoticPrediction(log_value=lead + nlog2 + math.log(factor), gaussian_factor=factor)


def remainder_check(p: float, z: float) -> dict[str, float]:
    """Normalized Taylor remainders of F, in 50-digit arithmetic, from one
    evaluation of F(z) and F(-z):

    "odd":  [ (F(z) - F(-z))/2 - p z ] / (p z^3)
    "even": [ (F(z) + F(-z))/2 - p (cosh z - 1) + p^2 z^2 / 2 ] / (p^2 z^4)

    Both have finite limits as z -> 0 (the next coefficient of the relevant
    parity).  The subtraction is hopeless in double precision for small z,
    hence the extended working precision; p=1 and |z| up to 0.25 are in scope.
    """
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
        odd = ((fp - fm) / 2 - pm * zm) / (pm * zm**3)
        even = ((fp + fm) / 2 - pm * (mp.cosh(zm) - 1) + pm**2 * zm**2 / 2) / (pm**2 * zm**4)
        return {"odd": float(odd), "even": float(even)}
