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
and a graph is an (n, ceil(n / 64)) array of little-endian 64-bit words, one
row of words per site holding that site's out-edges.  That is the layout the
graph sampler writes, the text format is packed from and the neighbour-mask
builder reads, so a graph passes between them without conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


# Graph rows and masks are bitsets over the sites, packed into little-endian 64-bit words.
_WORD = np.dtype("<u8")

# Set bits of each 16-bit value (numpy before 2.0 has no bitwise_count).
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
_PAIR_BITS = (_BYTE_BITS[:, None] + _BYTE_BITS).ravel()

# _row_bits looks up blocks of rows holding about this many bits at a time:
# np.take first copies its uint16 indices to intp, and a block's copy (512 KiB)
# stays in cache, where a whole n = 4096 graph's (8 MiB) is faulted in afresh.
_COUNT_CELLS = 1 << 20


def _row_bits(words: np.ndarray) -> np.ndarray:
    """The set bits of each row of a C-contiguous 2-D ``uint64`` array, as int64."""
    halves = words.view(np.uint16)
    counts = np.empty(len(words), dtype=np.int64)
    step = max(1, _COUNT_CELLS // (64 * words.shape[1]))
    for at in range(0, len(words), step):
        counts[at:at + step] = np.take(_PAIR_BITS, halves[at:at + step]).sum(axis=1,
                                                                             dtype=np.int64)
    return counts


def _pack_rows(cells: np.ndarray, out: np.ndarray) -> None:
    """Pack the cells of k graph rows, a (k, n) array where nonzero means an
    edge, into ``out``, their (k, ceil(n / 64)) words."""
    packed = np.packbits(cells, axis=1, bitorder="little")
    view = out.view(np.uint8)
    view[:, :packed.shape[1]] = packed
    view[:, packed.shape[1]:] = 0


@dataclass(frozen=True, eq=False)
class DisorderGraph:
    """Directed graph on n sites with loops, one row of 64-bit words per site.

    ``words`` is a C-contiguous little-endian ``uint64`` array of shape
    (n, ceil(n / 64)): the edge (i, j) is present iff bit j % 64 of
    ``words[i, j // 64]`` is set, and no bit past column n - 1 is.  The
    graph keeps a read-only view of the array it is given, without a copy.
    Two graphs are equal when they have the same n and the same edges.
    """

    n: int
    words: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        words, shape = self.words, (self.n, (self.n + 63) // 64)
        if not (isinstance(words, np.ndarray) and words.dtype == _WORD
                and words.shape == shape and words.flags.c_contiguous):
            got = f"{getattr(words, 'dtype', type(words).__name__)} {getattr(words, 'shape', '')}"
            raise ValueError(f"words must be a C-contiguous {_WORD.str} array of shape {shape}, "
                             f"not {got}")
        if self.n % 64:
            spill = words[:, -1] >> np.uint64(self.n % 64)
            if spill.any():
                raise ValueError(f"row {int(spill.argmax())} has bits beyond column {self.n - 1}")
        frozen = words.view()
        frozen.flags.writeable = False
        object.__setattr__(self, "words", frozen)

    def __eq__(self, other):
        if not isinstance(other, DisorderGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.words, other.words)

    def __hash__(self):
        return hash((self.n, self.words.tobytes()))

    @classmethod
    def empty(cls, n: int) -> "DisorderGraph":
        return cls(n, np.zeros((n, (n + 63) // 64), dtype=_WORD))

    @classmethod
    def complete(cls, n: int) -> "DisorderGraph":
        """All n^2 edges present, loops included."""
        words = np.full((n, (n + 63) // 64), np.iinfo(np.uint64).max, dtype=_WORD)
        words[:, -1] >>= np.uint64(-n % 64)
        return cls(n, words)

    @classmethod
    def from_matrix(cls, matrix) -> "DisorderGraph":
        """Build from a square matrix (nested sequences or ndarray) whose every
        entry is 0 or 1; booleans count as 0 and 1."""
        cells = np.asarray(matrix)
        if cells.ndim != 2 or cells.shape[0] != cells.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {cells.shape}")
        if cells.dtype.kind not in "biuf":
            raise ValueError(f"entries must be 0 or 1, got an array of {cells.dtype}")
        bad = (cells != 0) & (cells != 1)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"entry ({i}, {j}) is {cells[i, j].item()!r}, expected 0 or 1")
        n = cells.shape[0]
        words = np.empty((n, (n + 63) // 64), dtype=_WORD)
        _pack_rows(cells == 1, words)
        return cls(n, words)

    def has_edge(self, i: int, j: int) -> bool:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"edge index ({i}, {j}) out of range for n={self.n}")
        return bool((int(self.words[i, j >> 6]) >> (j & 63)) & 1)

    def edge_count(self) -> int:
        return int(_row_bits(self.words).sum())

    def _cells(self) -> np.ndarray:
        """The adjacency matrix as an (n, n) array of 0/1 bytes."""
        return np.unpackbits(self.words.view(np.uint8), axis=1, count=self.n, bitorder="little")

    def to_matrix(self) -> list[list[int]]:
        return self._cells().tolist()


def interaction_sum(g: DisorderGraph, sigma: SpinConfig) -> int:
    """Exact integer value of sum_{i,j} eps[i,j] * sigma_i * sigma_j.

    Computed as s . (eps s) over the unpacked matrix in int64, exact since
    the sum is at most n^2 in size.
    """
    if g.n != sigma.n:
        raise ValueError(f"incompatible sizes: graph has n={g.n}, spins have n={sigma.n}")
    s = np.array(sigma.to_signs(), dtype=np.int64)
    return int(s @ (g._cells().astype(np.int64) @ s))


def hamiltonian(g: DisorderGraph, sigma: SpinConfig, params: ModelParams) -> float:
    """Energy H(sigma) = -interaction_sum / (2 n p)."""
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
    if g.n != params.n:
        raise ValueError(f"incompatible sizes: graph has n={g.n}, params have n={params.n}")
    return params.gamma * interaction_sum(g, sigma)
