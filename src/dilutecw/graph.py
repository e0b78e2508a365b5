"""Deterministic sampling and serialization of directed Bernoulli graphs.

Sampling is counter-based: edge (i, j) gets the 64-bit counter c = i*n + j,
which is mixed with the master seed through the SplitMix64 finalizer, and the
top 53 bits of the mix decide the edge against a fixed integer threshold
round(p * 2^53).  Consequences worth having:

* the same (seed, n, p) always yields the same graph, on any platform,
  with no dependence on numpy's generator internals;
* edges are independent across counters, and any sub-block of the adjacency
  matrix can be regenerated in isolation;
* p = 1 gives the complete graph exactly (threshold 2^53 always wins).

The text format is deliberately dumb so other tools can read it:

    dilute-cw-graph v1 N=<n>
    <row 0: n characters, each '0' or '1'>
    ...
    <row n-1>

The size <n> is ASCII digits and nothing else.  Character j of row i is the
indicator of edge (i, j).  A path is read with universal newlines, so a CRLF
file reads as an LF one.  The last row may lack its newline, and only
whitespace may follow it.

Sampling is one call of ``_csweep.library().sample``, the compiled sampler or
its numpy twin, which give the same graph bit for bit, over the graph's
``words``.  Writing and reading run over blocks of whole rows
(``_BLOCK_CELLS`` cells each): one block of text is formatted from the rows,
or read, checked and packed into them, at a time.  When a block of text fails
its checks, only its first bad row is parsed again as a line, for the error
message and line number.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, GraphFormatError
from .model import _WORD, DisorderGraph, ModelParams, _pack_rows

__all__ = ["GraphSeed", "sample_graph", "write_graph", "read_graph", "BIT_LIMIT"]

# Refuse to materialize adjacency matrices beyond this many bits (2^33 bits
# = 1 GiB packed); sample_graph and read_graph both honor it.
BIT_LIMIT = 1 << 33

_HEADER_PREFIX = "dilute-cw-graph v1 N="

# Text I/O works on blocks of whole rows holding about this many cells, so no
# n-by-n buffer of bytes or text is ever held.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class GraphSeed:
    """Master seed for graph sampling, a 64-bit unsigned integer."""

    master_seed: int

    def __post_init__(self):
        if not isinstance(self.master_seed, int) or isinstance(self.master_seed, bool):
            raise DomainError(f"master_seed must be an integer, got {self.master_seed!r}")
        if not 0 <= self.master_seed < (1 << 64):
            raise DomainError(f"master_seed must fit in 64 bits, got {self.master_seed}")


def bernoulli_threshold(p: float) -> int:
    """Integer threshold t such that a uniform 53-bit value u gives an edge iff u < t."""
    return round(p * (1 << 53))


def _block_rows(n: int) -> int:
    return max(1, _BLOCK_CELLS // n)


def sample_graph(params: ModelParams, seed: GraphSeed) -> DisorderGraph:
    """Sample a directed Bernoulli(p) graph with loops, deterministically in the seed.

    Refuses n^2 beyond ``BIT_LIMIT``."""
    n = params.n
    if n * n > BIT_LIMIT:
        raise CapacityError(f"adjacency matrix needs {n * n} bits, above the cap of {BIT_LIMIT}")
    from ._csweep import library

    words = np.empty((n, (n + 63) // 64), dtype=_WORD)
    library().sample(n, seed.master_seed, bernoulli_threshold(params.p), 0, words)
    return DisorderGraph(n, words)


def write_graph(g: DisorderGraph, destination) -> None:
    """Write a graph in the v1 text format to a path or text file object."""
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "w", encoding="ascii", newline="") as fh:
            write_graph(g, fh)
        return
    n = g.n
    destination.write(f"{_HEADER_PREFIX}{n}\n")
    step = _block_rows(n)
    text = np.empty((min(step, n), n + 1), dtype=np.uint8)
    text[:, n] = ord("\n")
    for start in range(0, n, step):
        packed = g.words[start:start + step].view(np.uint8)
        lines = text[:len(packed)]
        bits = np.unpackbits(packed, axis=1, count=n, bitorder="little")
        np.add(bits, ord("0"), out=lines[:, :n])
        destination.write(lines.tobytes().decode("ascii"))


def _read_header(source) -> int:
    header = source.readline()
    if header == "":
        raise GraphFormatError("empty input, expected header", line=1)
    header = header.rstrip("\n")
    if not header.startswith(_HEADER_PREFIX):
        raise GraphFormatError(
            f"bad header {header!r}, expected '{_HEADER_PREFIX}<n>'", line=1
        )
    size_text = header[len(_HEADER_PREFIX):]
    try:
        # ASCII digits only: int() alone also takes a sign, spaces, digit
        # underscores and the digits of other scripts
        if not (size_text.isascii() and size_text.isdigit()):
            raise ValueError
        n = int(size_text)
    except ValueError:
        raise GraphFormatError(f"bad size field {size_text!r} in header", line=1) from None
    if n < 1:
        raise GraphFormatError(f"declared size must be positive, got {n}", line=1)
    if n * n > BIT_LIMIT:
        raise CapacityError(
            f"declared size n={n} needs {n * n} bits, above the cap of {BIT_LIMIT}"
        )
    return n


def _parse_row(line: str, i: int, n: int) -> np.ndarray:
    """Row i's 0/1 cells from its text line, newline included; raises on a malformed line."""
    lineno = i + 2
    if line == "":
        raise GraphFormatError(f"file ends after {i} of {n} rows", line=lineno)
    line = line.rstrip("\n")
    if len(line) != n:
        raise GraphFormatError(
            f"row has {len(line)} characters, expected {n}", line=lineno
        )
    bad = set(line) - {"0", "1"}
    if bad:
        raise GraphFormatError(
            f"row contains {sorted(bad)!r}, expected only '0'/'1'", line=lineno
        )
    return np.frombuffer(line.encode("ascii"), dtype=np.uint8) & 1


def read_graph(source) -> DisorderGraph:
    """Parse the v1 text format from a path or a text file object.

    Raises GraphFormatError with a 1-based line number on malformed input
    (the header is line 1) and CapacityError when the declared size exceeds
    ``BIT_LIMIT``.  The last row may lack its newline; after it only
    whitespace may follow.
    """
    if isinstance(source, (str, os.PathLike)):
        # latin-1 gives every byte one character, so a non-ASCII byte reaches
        # the cell check and is reported with its line number.
        with open(source, "r", encoding="latin-1") as fh:
            return read_graph(fh)

    n = _read_header(source)
    width = n + 1
    step = _block_rows(n)
    words = np.empty((n, (n + 63) // 64), dtype=_WORD)
    for start in range(0, n, step):
        want = min(step, n - start)
        chunk = source.read(want * width)
        whole = len(chunk) // width
        # characters above U+00FF become '?', which fails the cell check
        lines = np.frombuffer(chunk.encode("latin-1", "replace"), dtype=np.uint8)
        lines = lines[: whole * width].reshape(whole, width)
        cells = lines[:, :n]
        bad = (lines[:, n] != ord("\n")) | ((cells | 1) != ord("1")).any(axis=1)
        good = int(bad.argmax()) if bad.any() else whole
        _pack_rows(cells[:good] & 1, words[start:start + good])
        if good < want:
            # Row i is malformed or cut short.  Rows before it were whole
            # lines, so its line starts here and runs to the next newline.
            i = start + good
            rest = chunk[good * width:]
            end = rest.find("\n")
            line = rest[: end + 1] if end >= 0 else rest + source.readline()
            _pack_rows(_parse_row(line, i, n)[None], words[i:i + 1])
            # A row passes here only as the file's last text, without newline.
            if i + 1 < n:
                raise GraphFormatError(f"file ends after {i + 1} of {n} rows", line=i + 3)
    for lineno, line in enumerate(iter(source.readline, ""), start=n + 2):
        if line.strip():
            raise GraphFormatError("unexpected content after last row", line=lineno)
    return DisorderGraph(n, words)
