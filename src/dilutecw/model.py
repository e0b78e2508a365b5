"""Core types for a dilute mean-field Ising model on a directed random graph.

The system has n sites.  A disorder realization is a directed graph with
loops allowed: every ordered pair (i, j), including i = j, independently
carries an edge with probability p.  Spins take values +-1 and the energy of
a configuration sigma under disorder eps is

    H(sigma) = -(1 / (2 n p)) * sum_{i,j} eps[i, j] * sigma_i * sigma_j,

with both orientations and the diagonal terms included in the double sum.
The Gibbs weight at inverse temperature beta is exp(-beta * H(sigma)); only
its logarithm is materialized here since downstream code works in log space.

Representation choices are geared towards popcount arithmetic: a spin
configuration is a single Python integer whose bit i is set iff sigma_i = +1,
and a graph is one integer per site holding that site's out-edge row.  The
bilinear form sum_{i,j} eps[i,j] sigma_i sigma_j then reduces to n AND-and-
popcount operations, which is what makes full enumeration and Monte Carlo
sweeps affordable at the sizes this package targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "ModelParams",
    "SpinConfig",
    "DisorderGraph",
    "interaction_sum",
    "hamiltonian",
    "magnetization_scaled",
    "overlap",
    "gibbs_log_weight",
]


@dataclass(frozen=True)
class ModelParams:
    """System size n, edge probability p, inverse temperature beta.

    Validation is strict: n must be a positive integer, p must lie in (0, 1]
    (p = 0 would make the energy scale 1/(2 n p) undefined), and beta must be
    finite and nonnegative.  The log Gibbs weights reach n^2 gamma in size
    and the second moment doubles them, so 2 beta n / p, four times that
    bound, must be a finite double.  Every failure is a DomainError.
    """

    n: int
    p: float
    beta: float

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        if not 0.0 < self.p <= 1.0:
            raise DomainError(f"p must lie in (0, 1], got {self.p!r}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise DomainError(f"beta must be finite and nonnegative, got {self.beta!r}")
        try:
            scale = 2.0 * self.beta * self.n / self.p
        except OverflowError:  # n itself is beyond the double range
            scale = math.inf
        if not math.isfinite(scale):
            raise DomainError(
                f"2 beta n / p is beyond the double range at n={self.n}, p={self.p!r}, "
                f"beta={self.beta!r}, so the log Gibbs weights would overflow"
            )

    @property
    def gamma(self) -> float:
        """Coupling per edge: gamma = beta / (2 n p)."""
        return self.beta / (2.0 * self.n * self.p)


@dataclass(frozen=True)
class SpinConfig:
    """Immutable spin configuration on n sites, bit-packed into one integer.

    Bit i of ``bits`` is 1 iff sigma_i = +1.  Bits at positions >= n must be
    zero; the constructor enforces this.
    """

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

    def sign(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValueError(f"site index {i} out of range for n={self.n}")
        return 1 if (self.bits >> i) & 1 else -1

    def spin_sum(self) -> int:
        """Total magnetization sum_i sigma_i = 2 * popcount - n."""
        return 2 * self.bits.bit_count() - self.n

    def to_signs(self) -> list[int]:
        return [1 if (self.bits >> i) & 1 else -1 for i in range(self.n)]


@dataclass(frozen=True)
class DisorderGraph:
    """Directed graph on n sites with loops, one bit row per site.

    ``rows[i]`` holds the out-edges of site i: bit j is 1 iff the edge
    (i, j) is present.  Rows are plain integers so row-times-spin inner
    products reduce to AND + popcount.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        top = 1 << self.n
        for i, row in enumerate(self.rows):
            if not 0 <= row < top:
                raise ValueError(f"row {i} has bits beyond column {self.n - 1}")

    @classmethod
    def empty(cls, n: int) -> "DisorderGraph":
        return cls(n=n, rows=(0,) * n)

    @classmethod
    def complete(cls, n: int) -> "DisorderGraph":
        """All n^2 edges present, loops included."""
        full = (1 << n) - 1
        return cls(n=n, rows=(full,) * n)

    @classmethod
    def from_matrix(cls, matrix) -> "DisorderGraph":
        """Build from a square 0/1 matrix (nested sequences or ndarray)."""
        rows = []
        n = len(matrix)
        for i in range(n):
            row = matrix[i]
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            bits = 0
            for j in range(n):
                v = int(row[j])
                if v not in (0, 1):
                    raise ValueError(f"entry ({i}, {j}) is {row[j]!r}, expected 0 or 1")
                bits |= v << j
            rows.append(bits)
        return cls(n=n, rows=tuple(rows))

    def has_edge(self, i: int, j: int) -> bool:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"edge index ({i}, {j}) out of range for n={self.n}")
        return bool((self.rows[i] >> j) & 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def to_matrix(self) -> list[list[int]]:
        return [[(row >> j) & 1 for j in range(self.n)] for row in self.rows]


def _check_sizes(g: DisorderGraph, sigma: SpinConfig, tau: SpinConfig | None = None):
    if g.n != sigma.n:
        raise ValueError(f"incompatible sizes: graph has n={g.n}, spins have n={sigma.n}")
    if tau is not None and tau.n != sigma.n:
        raise ValueError(f"incompatible sizes: spins have n={sigma.n} and n={tau.n}")


def interaction_sum(g: DisorderGraph, sigma: SpinConfig) -> int:
    """Exact integer value of sum_{i,j} eps[i,j] * sigma_i * sigma_j.

    Row i contributes sigma_i * sum_j eps[i,j] sigma_j, and the inner sum
    over a row with popcounts is 2*|row AND sigma| - |row|.
    """
    _check_sizes(g, sigma)
    bits = sigma.bits
    total = 0
    for i, row in enumerate(g.rows):
        inner = 2 * (row & bits).bit_count() - row.bit_count()
        total += inner if (bits >> i) & 1 else -inner
    return total


def hamiltonian(g: DisorderGraph, sigma: SpinConfig, params: ModelParams) -> float:
    """Energy H(sigma) = -interaction_sum / (2 n p)."""
    _check_sizes(g, sigma)
    if g.n != params.n:
        raise ValueError(f"incompatible sizes: graph has n={g.n}, params have n={params.n}")
    return -interaction_sum(g, sigma) / (2.0 * params.n * params.p)


def magnetization_scaled(sigma: SpinConfig) -> float:
    """CLT-scaled magnetization (sum_i sigma_i) / sqrt(n)."""
    return sigma.spin_sum() / math.sqrt(sigma.n)


def overlap(sigma: SpinConfig, tau: SpinConfig) -> int:
    """Integer overlap sum_i sigma_i tau_i = n - 2 * (number of disagreements)."""
    if sigma.n != tau.n:
        raise ValueError(f"incompatible sizes: spins have n={sigma.n} and n={tau.n}")
    return sigma.n - 2 * (sigma.bits ^ tau.bits).bit_count()


def gibbs_log_weight(g: DisorderGraph, sigma: SpinConfig, params: ModelParams) -> float:
    """log of the unnormalized Gibbs weight, -beta * H(sigma).

    Equals gamma * interaction_sum with gamma = beta / (2 n p); computed that
    way so the integer bilinear form is scaled exactly once.
    """
    _check_sizes(g, sigma)
    if g.n != params.n:
        raise ValueError(f"incompatible sizes: graph has n={g.n}, params have n={params.n}")
    return params.gamma * interaction_sum(g, sigma)
