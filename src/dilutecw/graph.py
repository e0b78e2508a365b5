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

The size <n> is ASCII digits and nothing else, and the header line is at
most 80 characters long.  Character j of row i is the indicator of edge
(i, j).  A file is read with universal newlines, so a CRLF or lone-CR file
reads as an LF one.  The last row may lack its newline, and only whitespace
may follow it.

Sampling is one call of ``_csweep.library().sample``, the compiled sampler or
its numpy twin, which give the same graph bit for bit, over the graph's
``words``.  The text goes the same way, a block of whole rows at a time, so
no n-by-n buffer of text is ever held:

* writing: ``library().format`` turns a block of rows (``_WRITE_CELLS``
  cells) into lines of '0' / '1' bytes in one reused buffer.  A path is
  opened in binary mode and gets those bytes as they are; a text stream
  (``graph-sample`` to stdout) gets their ASCII decoding, the same text.
* reading: a path, or a binary file object, is read as bytes, and each
  block of lines (``_READ_CELLS`` cells) is read into one reused buffer,
  which ``library().parse`` checks and packs into the rows where it lies.
  No ``str`` of the body is made.  Universal newlines are a byte step that
  runs only on a read holding a CR, or starting right after one.  A file
  whose last row lacks its newline is given one at its end, so the kernel
  packs that row like any other.  A non-ASCII byte fails the cell check
  with its line number.  When a block fails, only its first bad row is
  scanned in Python, a buffer at a time up to its newline, for the error
  message and line number.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import CapacityError, DomainError, GraphFormatError
from .model import DisorderGraph, ModelParams

__all__ = ["GraphSeed", "sample_graph", "write_graph", "read_graph", "BIT_LIMIT"]

# Refuse to materialize adjacency matrices beyond this many bits (2^33 bits
# = 1 GiB packed); sample_graph and read_graph both honor it.
BIT_LIMIT = 1 << 33

_HEADER_PREFIX = "dilute-cw-graph v1 N="

# The header line is read to at most this many characters, the prefix and
# up to 59 size digits; a longer one is refused, and an error quotes at
# most this much of it.
_HEADER_CHARS = 80

# Text I/O works on blocks of whole rows holding about this many cells.  At
# n = 4096 on a 2-core Xeon, writes were fastest from 2^19 to 2^21 cells
# (2^17: 1.3 times slower), reads at 2^19 and 2^20 (2^17 and 2^21: 1.25
# and 1.15 times slower).
_WRITE_CELLS = 1 << 20
_READ_CELLS = 1 << 19

# The read buffer holds at least this many bytes, so that the rest of a bad
# row and the text after the last row are read in pieces this large at any n.
_READ_BYTES = 1 << 16


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


def _block_rows(n: int, cells: int) -> int:
    """The rows of a block of about ``cells`` cells, at least one."""
    return max(1, cells // n)


def _rows(words: memoryview, start: int, stop: int) -> memoryview:
    """Rows start .. stop - 1 of an (n, w) ``Q`` memoryview, start < stop, as
    a (stop - start, w) one over the same memory."""
    width = words.shape[1]
    return words.cast("B")[8 * width * start:8 * width * stop].cast("Q", (stop - start, width))


def sample_graph(params: ModelParams, seed: GraphSeed) -> DisorderGraph:
    """Sample a directed Bernoulli(p) graph with loops, deterministically in the seed.

    Refuses n^2 beyond ``BIT_LIMIT``."""
    n = params.n
    if n * n > BIT_LIMIT:
        raise CapacityError(f"adjacency matrix needs {n * n} bits, above the cap of {BIT_LIMIT}")
    from ._csweep import _new, library

    words = _new("Q", (n, (n + 63) // 64))
    library().sample(n, seed.master_seed, bernoulli_threshold(params.p), 0, words)
    return DisorderGraph(n, words)


def _text_blocks(g: DisorderGraph):
    """The v1 text of ``g`` in bytes-like pieces: the header, then blocks of
    ``_WRITE_CELLS`` cells of whole rows, each formatted by the kernel into
    one buffer, which the next block overwrites."""
    from ._csweep import library

    format_rows = library().format
    n = g.n
    yield f"{_HEADER_PREFIX}{n}\n".encode("ascii")
    step = _block_rows(n, _WRITE_CELLS)
    text = memoryview(bytearray(min(step, n) * (n + 1)))
    for start in range(0, n, step):
        stop = min(start + step, n)
        lines = text[:(stop - start) * (n + 1)]
        format_rows(_rows(g.words, start, stop), lines.cast("B", (stop - start, n + 1)))
        yield lines


def write_graph(g: DisorderGraph, destination) -> None:
    """Write a graph in the v1 text format to a path or text file object.

    A path gets the kernel's bytes as they are; a text stream, their ASCII
    decoding."""
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "wb") as fh:
            for block in _text_blocks(g):
                fh.write(block)
        return
    for block in _text_blocks(g):
        destination.write(str(block, "ascii"))


class _FileText:
    """A binary file's bytes, read into a caller's buffer with universal
    newlines: CRLF and lone CR become LF, as a text reader would give them.
    Only a read that holds a CR, or that starts right after one, is
    rewritten.  A file whose last byte is not a newline is given one at its
    end, so its last line is whole."""

    def __init__(self, fh):
        self._fh = fh
        self._cr = False  # the last byte read was a CR, so an LF next is its pair
        self._open = False  # the last byte given was not a newline

    def fill(self, buffer: bytearray, size: int) -> int:
        """Read the next ``size`` bytes into ``buffer``, fewer only at the end
        of the file; return how many."""
        view = memoryview(buffer)
        got = 0
        while got < size:
            read = self._fh.readinto(view[got:size])
            if not read:
                if self._open:
                    buffer[got] = ord("\n")
                    got += 1
                    self._open = False
                break
            end = got + read
            if self._cr or buffer.find(b"\r", got, end) >= 0:
                end = self._newlines(buffer, got, end)
            if end > got:
                self._open = buffer[end - 1] != ord("\n")
            got = end
        return got

    def _newlines(self, buffer: bytearray, start: int, end: int) -> int:
        """Translate the newlines of buffer[start:end] in place; return its new end."""
        part = buffer[start:end]
        if self._cr and part.startswith(b"\n"):
            part = part[1:]
        self._cr = part.endswith(b"\r")
        part = part.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        buffer[start:start + len(part)] = part
        return start + len(part)


def _quoted(text: str, limit: int) -> str:
    """``text`` quoted, cut after ``limit`` characters."""
    return repr(text[:limit]) + ("..." if len(text) > limit else "")


def _read_header(text) -> int:
    """The size that line 1 declares, read a byte at a time and at most
    ``_HEADER_CHARS`` + 1 of them, so the body starts at the next one."""
    one, line, ended = bytearray(1), bytearray(), False
    while len(line) <= _HEADER_CHARS and text.fill(one, 1):
        ended = one == b"\n"
        if ended:
            break
        line += one
    header = line.decode("latin-1")
    if not (header or ended):
        raise GraphFormatError("empty input, expected header", line=1)
    if not header.startswith(_HEADER_PREFIX):
        raise GraphFormatError(
            f"bad header {_quoted(header, _HEADER_CHARS)}, expected '{_HEADER_PREFIX}<n>'",
            line=1,
        )
    size_text = header[len(_HEADER_PREFIX):]
    # ASCII digits only: int() alone also takes a sign, spaces, digit
    # underscores and the digits of other scripts
    if len(header) > _HEADER_CHARS or not (size_text.isascii() and size_text.isdigit()):
        shown = _quoted(size_text, _HEADER_CHARS - len(_HEADER_PREFIX))
        raise GraphFormatError(f"bad size field {shown} in header", line=1)
    n = int(size_text)
    if n < 1:
        raise GraphFormatError(f"declared size must be positive, got {n}", line=1)
    if n * n > BIT_LIMIT:
        raise CapacityError(
            f"declared size n={n} needs {n * n} bits, above the cap of {BIT_LIMIT}"
        )
    return n


def _row_error(text, buffer: bytearray, start: int, got: int, i: int, n: int) -> GraphFormatError:
    """The error of row i, which failed the parse and starts at ``start`` of
    the ``got`` bytes in ``buffer``.  Its length is counted a buffer at a
    time up to its newline, and what follows the newline is read no more."""
    lineno = i + 2
    length = 0
    while (end := buffer.find(b"\n", start, got)) < 0:
        length += got - start
        start, got = 0, text.fill(buffer, len(buffer))
        if not got:
            # fill closes a last line, so only a row with no text ends here
            return GraphFormatError(f"file ends after {i} of {n} rows", line=lineno)
    length += end - start
    if length != n:
        return GraphFormatError(f"row has {length} characters, expected {n}", line=lineno)
    # A block read holds each row it starts in full, or reaches the end of
    # the file, so a row of n characters lies whole in this buffer.
    bad = set(buffer[start:end].translate(None, b"01").decode("latin-1"))
    return GraphFormatError(f"row contains {sorted(bad)!r}, expected only '0'/'1'", line=lineno)


def _check_trailing(text, buffer: bytearray, lineno: int) -> None:
    """Refuse any content but whitespace from line ``lineno`` on, a block at
    a time, at the line of its first character."""
    while got := text.fill(buffer, len(buffer)):
        chunk = buffer[:got].decode("latin-1")
        if not chunk.isspace():
            first = len(chunk) - len(chunk.lstrip())
            raise GraphFormatError("unexpected content after last row",
                                   line=lineno + chunk.count("\n", 0, first))
        lineno += chunk.count("\n")


def read_graph(source) -> DisorderGraph:
    """Parse the v1 text format from a path or a binary file object.

    Raises GraphFormatError with a 1-based line number on malformed input
    (the header is line 1) and CapacityError when the declared size exceeds
    ``BIT_LIMIT``.  The last row may lack its newline; after it only
    whitespace may follow.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return _read_text(_FileText(fh))
    return _read_text(_FileText(source))


def _read_text(text: _FileText) -> DisorderGraph:
    """The graph of ``text``, a block of ``_READ_CELLS`` cells of whole rows
    at a time into one buffer."""
    n = _read_header(text)
    from ._csweep import _new, library

    parse_rows = library().parse
    width = n + 1
    step = _block_rows(n, _READ_CELLS)
    buffer = bytearray(max(min(step, n) * width, _READ_BYTES))
    cells = memoryview(buffer)
    words = _new("Q", (n, (n + 63) // 64))
    for start in range(0, n, step):
        want = min(step, n - start)
        got = text.fill(buffer, want * width)
        whole = got // width
        good = whole and parse_rows(cells[:whole * width].cast("B", (whole, width)),
                                    _rows(words, start, start + whole))
        if good < want:
            # Rows before the failed one were whole lines, so its line
            # starts here and runs to the next newline.
            raise _row_error(text, buffer, good * width, got, start + good, n)
    _check_trailing(text, buffer, n + 2)
    return DisorderGraph(n, words)
