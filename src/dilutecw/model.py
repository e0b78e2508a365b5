"""Core types for a dilute mean-field Ising model on a directed random graph.

The system has n sites.  A disorder realization is a directed graph with
loops allowed: every ordered pair (i, j), including i = j, independently
carries an edge with probability p.  Spins take values +-1 and the energy of
a configuration sigma under disorder eps is

    H(sigma) = -(1 / (2 n p)) * sum_{i,j} eps[i, j] * sigma_i * sigma_j,

with both orientations and the diagonal terms included in the double sum.
The Gibbs weight at inverse temperature beta is exp(-beta * H(sigma)).  No
configuration is evaluated one at a time: the exact enumeration counts them
all by energy and class, and the chains work on packed spin words.

Representation choices are geared towards popcount arithmetic: a graph is an
(n, ceil(n / 64)) buffer of little-endian 64-bit words, one row of words per
site holding that site's out-edges.  That is the layout the
graph sampler writes, the text format is packed from and the neighbour-mask
builder reads, so a graph passes between them without conversion.  The
buffers are plain ``bytearray`` memory under a ``memoryview``, so this module
imports no numpy; only ``DisorderGraph.from_matrix``, ``DisorderGraph._cells``
and ``_pack_rows``, which the numpy twins and the tests use, import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["ModelParams", "DisorderGraph"]


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


def _pack_rows(cells, out) -> None:
    """Pack the cells of k graph rows, a (k, n) numpy array where nonzero means
    an edge, into ``out``, their (k, ceil(n / 64)) words."""
    import numpy as np

    packed = np.packbits(cells, axis=1, bitorder="little")
    view = np.asarray(out).view(np.uint8)
    view[:, :packed.shape[1]] = packed
    view[:, packed.shape[1]:] = 0


@dataclass(frozen=True, eq=False)
class DisorderGraph:
    """Directed graph on n sites with loops, one row of 64-bit words per site.

    ``words`` is a read-only (n, ceil(n / 64)) memoryview of ``Q`` items: the
    edge (i, j) is present iff bit j % 64 of ``words[i, j // 64]`` is set,
    and no bit past column n - 1 is.  The constructor takes any C-contiguous
    buffer of native 64-bit integers in that shape, numpy arrays included, and
    keeps a read-only view of it, without a copy.  Two graphs are equal when
    they have the same n and the same edges.
    """

    n: int
    words: memoryview

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        from ._csweep import _view

        shape = (self.n, (self.n + 63) // 64)
        try:
            view = _view(self.words, "i8", shape)
        except (TypeError, ValueError) as err:
            raise ValueError(f"words must be a C-contiguous buffer of 64-bit words of shape "
                             f"{shape}: {err}") from None
        words = view.cast("B").cast("Q", shape).toreadonly()
        if self.n % 64:
            last, shift = shape[1] - 1, self.n % 64
            for i in range(self.n):
                if words[i, last] >> shift:
                    raise ValueError(f"row {i} has bits beyond column {self.n - 1}")
        object.__setattr__(self, "words", words)

    def __eq__(self, other):
        if not isinstance(other, DisorderGraph):
            return NotImplemented
        return self.n == other.n and self.words == other.words

    def __hash__(self):
        return hash((self.n, self.words.tobytes()))

    @classmethod
    def empty(cls, n: int) -> "DisorderGraph":
        return cls(n, memoryview(bytearray(8 * n * ((n + 63) // 64))).cast("Q", (n, (n + 63) // 64)))

    @classmethod
    def complete(cls, n: int) -> "DisorderGraph":
        """All n^2 edges present, loops included."""
        words = (n + 63) // 64
        row = b"\xff" * (8 * words - 8) + ((1 << (n - 64 * words + 64)) - 1).to_bytes(8, "little")
        return cls(n, memoryview(bytearray(row * n)).cast("Q", (n, words)))

    @classmethod
    def from_matrix(cls, matrix) -> "DisorderGraph":
        """Build from a square matrix (nested sequences or ndarray) whose every
        entry is 0 or 1; booleans count as 0 and 1."""
        import numpy as np

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
        words = np.empty((n, (n + 63) // 64), dtype="<u8")
        _pack_rows(cells == 1, words)
        return cls(n, words)

    def edge_count(self) -> int:
        """The number of edges, loops included: one ``library().count`` call."""
        from ._csweep import library

        return library().count(self.words)

    def _cells(self):
        """The adjacency matrix as an (n, n) numpy array of 0/1 bytes."""
        import numpy as np

        return np.unpackbits(np.asarray(self.words).view(np.uint8), axis=1, count=self.n,
                             bitorder="little")
