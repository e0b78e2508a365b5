"""Helpers of the tests: the kernel sets of this host, and per-configuration
oracles.

The package never evaluates one configuration at a time: the enumeration
counts all of them by energy and class, and the chains work on packed spin
words.  These oracles do, straight from the graph's 0/1 matrix, so the tests
can check both against them.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from dilutecw import _csweep, _twins


def kernel_sets():
    """Every kernel set this host has: the compiled one where it loads, and the twins."""
    library = _csweep.library()
    return [library] if library is _twins._TWINS else [library, _twins._TWINS]


@contextmanager
def kernels_in_use(kernels):
    """Within the block, ``_csweep.library()`` returns ``kernels``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_csweep, "_loaded", [kernels])
        yield


@dataclass(frozen=True)
class SpinConfig:
    """A spin configuration on n sites, bit i of ``bits`` set iff sigma_i = +1.
    Bits at positions >= n must be zero; the constructor enforces this."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits 0x{self.bits:x} out of range for n={self.n}")

    @classmethod
    def from_signs(cls, signs) -> "SpinConfig":
        """Build from an iterable of +-1 values."""
        bits = 0
        n = 0
        for i, s in enumerate(signs):
            if s == 1:
                bits |= 1 << i
            elif s != -1:
                raise ValueError(f"spin {i} is {s!r}, expected +1 or -1")
            n = i + 1
        if n == 0:
            raise ValueError("empty spin sequence")
        return cls(n=n, bits=bits)

    @classmethod
    def all_up(cls, n: int) -> "SpinConfig":
        return cls(n=n, bits=(1 << n) - 1)

    @classmethod
    def all_down(cls, n: int) -> "SpinConfig":
        return cls(n=n, bits=0)

    def spin_sum(self) -> int:
        """Total magnetization sum_i sigma_i = 2 * popcount - n."""
        return 2 * self.bits.bit_count() - self.n

    def to_signs(self) -> list[int]:
        return [1 if (self.bits >> i) & 1 else -1 for i in range(self.n)]


def interaction_sum(g, sigma: SpinConfig) -> int:
    """Exact integer value of sum_{i,j} eps[i,j] * sigma_i * sigma_j.

    Computed as s . (eps s) over the unpacked matrix in int64, exact since
    the sum is at most n^2 in size.
    """
    if g.n != sigma.n:
        raise ValueError(f"incompatible sizes: graph has n={g.n}, spins have n={sigma.n}")
    s = np.array(sigma.to_signs(), dtype=np.int64)
    return int(s @ (g._cells().astype(np.int64) @ s))


def gibbs_log_weight(g, sigma: SpinConfig, params) -> float:
    """log of the unnormalized Gibbs weight, -beta * H(sigma).

    Equals gamma * interaction_sum with gamma = beta / (2 n p); computed that
    way so the integer bilinear form is scaled exactly once.
    """
    if g.n != params.n:
        raise ValueError(f"incompatible sizes: graph has n={g.n}, params have n={params.n}")
    return params.gamma * interaction_sum(g, sigma)


def total_variation(a, b) -> float:
    """Total variation distance between two atomic measures."""
    locs = np.union1d(a.locations, b.locations)
    x = np.zeros(locs.size)
    y = np.zeros(locs.size)
    x[np.searchsorted(locs, a.locations)] = a.weights
    y[np.searchsorted(locs, b.locations)] = b.weights
    return 0.5 * float(np.abs(x - y).sum())


def taylor_by_composition(p, k: int) -> list[Fraction]:
    """Coefficients c_1 .. c_k of F(p, z) = log(1 - p + p e^z) in z, by
    composing the exact series of u = p (e^z - 1) into that of log(1 + u),
    truncated at order k."""
    pq = Fraction(p)
    factorial = Fraction(1)
    u = [Fraction(0)] * (k + 1)
    for i in range(1, k + 1):
        factorial *= i
        u[i] = pq / factorial

    def mul_truncated(a, b):
        out = [Fraction(0)] * (k + 1)
        for i, ai in enumerate(a):
            for j in range(k + 1 - i):
                out[i + j] += ai * b[j]
        return out

    # log(1 + u) = sum_{m>=1} (-1)^{m+1} u^m / m
    series = [Fraction(0)] * (k + 1)
    upow = [Fraction(1)] + [Fraction(0)] * k
    for m in range(1, k + 1):
        upow = mul_truncated(upow, u)
        for i in range(k + 1):
            series[i] += Fraction((-1) ** (m + 1), m) * upow[i]
    return series[1:]
