"""The numpy and Python twins of the compiled kernels in ``_csweep``.

Each twin is the raw function of one C function of ``_csweep.SOURCE``, named
after it: the function ``name`` of ``_csweep._SIGNATURES``, on every path of
a family of ``_csweep.FAMILIES``, has the twin ``_<name>``, every name but
the CPU probe ``cpu_features``.  It takes the C function's parameters in
their order, reads its input buffers as numpy arrays or lists over the same
memory, writes its outputs into the buffers it is given, and returns what
the C function returns, bit for bit; only ``_interaction_histogram``
enumerates every configuration where its kernel counts one of each
global-flip pair, and ``_pair_sum`` writes math.fsum's correctly rounded sum
into ``limbs`` where its kernel writes the exact one, which rounds to the same
double.  The twins check nothing: ``_csweep``'s entries check every call
before either set runs, allocate the outputs and shape the results, and
``_TWINS``, bound by that naming rule, is the kernel set of those entries over
the twins.  They are the test oracles of the kernels and the set that
``_csweep.library()`` returns when nothing compiles or loads.  They live
apart from the loader so that a process on the compiled kernels never
compiles or runs their code, and this is the one module of the package, with
the numpy helpers of ``model.DisorderGraph``, that imports numpy.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import splitmix
from ._csweep import _SIGNATURES, _SUM_SCALE, _kernels
from .model import _pack_rows
from .stats import _normal_cdf

# Graph rows and masks as numpy sees them: little-endian 64-bit words.
_WORD = np.dtype("<u8")

_MIX1 = np.uint64(splitmix.MIX1)
_MIX2 = np.uint64(splitmix.MIX2)


def finalize_array(z: np.ndarray, shifted: np.ndarray) -> None:
    """Apply the SplitMix64 finalizer to a ``uint64`` array in place.

    ``shifted`` is a ``uint64`` array of the same shape whose contents are
    overwritten; array arithmetic wraps modulo 2^64 as the finalizer needs.
    """
    np.right_shift(z, 30, out=shifted)
    z ^= shifted
    z *= _MIX1
    np.right_shift(z, 27, out=shifted)
    z ^= shifted
    z *= _MIX2
    np.right_shift(z, 31, out=shifted)
    z ^= shifted


# The numpy twin of the sampler mixes a block of whole rows holding about this
# many cells at a time, so it never holds an n-by-n buffer of 64-bit words.
# A block's mixing buffers (512 KiB each) stay in cache: on a 2-core Xeon with
# 2 MiB of L2 per core, 2^20 cells ran sampling 1.7 times slower at n = 4096.
_SAMPLE_CELLS = 1 << 16


def _sample_rows(n: int, seed: int, threshold: int, start: int, rows: int, out) -> None:
    """The numpy twin of ``sample_rows_<path>``: rows start .. start + rows - 1
    into ``out`` as ``uint64`` mask words, a block of rows at a time."""
    out = np.asarray(out).view(_WORD)
    gamma = np.uint64(splitmix.GAMMA)
    step = max(1, _SAMPLE_CELLS // n)
    for at in range(0, rows, step):
        block = out[at:at + step]
        # Edge (i, j) mixes seed + (i*n + j + 1) * gamma, where the +1 keeps
        # counter 0 from collapsing to the bare seed.  Split as
        # (seed + (i*n + 1) * gamma) + j * gamma: one term per row, one per column.
        counters = (np.arange(start + at, start + at + block.shape[0], dtype=np.uint64)
                    * np.uint64(n) + np.uint64(1))
        row_base = counters * gamma + np.uint64(seed)
        z = row_base[:, None] + np.arange(n, dtype=np.uint64) * gamma
        shifted = np.empty_like(z)
        finalize_array(z, shifted)
        # the top 53 bits decide the edge
        np.right_shift(z, 11, out=shifted)
        _pack_rows(shifted < np.uint64(threshold), block)


# Set bits of each 16-bit value (numpy before 2.0 has no bitwise_count).
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
_PAIR_BITS = (_BYTE_BITS[:, None] + _BYTE_BITS).ravel()

# _row_bits looks up blocks of rows holding about this many bits at a time:
# np.take first copies its uint16 indices to intp, and a block's copy (512 KiB)
# stays in cache, where a whole n = 4096 graph's (8 MiB) is faulted in afresh.
_COUNT_CELLS = 1 << 20


def _row_bits(words) -> np.ndarray:
    """The set bits of each row of C-contiguous 2-D 64-bit words, as int64."""
    words = np.asarray(words)
    halves = words.view(np.uint16)
    counts = np.empty(len(words), dtype=np.int64)
    step = max(1, _COUNT_CELLS // (64 * words.shape[1]))
    for at in range(0, len(words), step):
        counts[at:at + step] = np.take(_PAIR_BITS, halves[at:at + step]).sum(axis=1,
                                                                             dtype=np.int64)
    return counts


def _count_bits(count: int, words) -> int:
    """The numpy twin of ``count_bits_<path>``: the set bits of the ``count``
    words of ``words``, its rows of mask words."""
    return int(_row_bits(words).sum())


# Hacker's Delight's 64 x 64 bit-matrix transpose: six rounds, each swapping
# the off-diagonal j x j sub-blocks selected by the mask.
_TRANSPOSE_ROUNDS = tuple(
    (j, np.uint64(mask))
    for j, mask in (
        (32, 0x00000000FFFFFFFF),
        (16, 0x0000FFFF0000FFFF),
        (8, 0x00FF00FF00FF00FF),
        (4, 0x0F0F0F0F0F0F0F0F),
        (2, 0x3333333333333333),
        (1, 0x5555555555555555),
    )
)


def _transpose_bits(rows: np.ndarray) -> np.ndarray:
    """Transpose a square bit matrix held as (64 w, w) words, 64 rows a block.

    Block (J, I) of the transpose is block (I, J) transposed, so the blocks
    are reordered and then each is transposed in place, all at once.
    """
    w = rows.shape[1]
    blocks = rows.reshape(w, 64, w).transpose(2, 0, 1).copy()
    for j, mask in _TRANSPOSE_ROUNDS:
        halves = blocks.reshape(w, w, 32 // j, 2, j)
        low, high = halves[..., 0, :], halves[..., 1, :]
        swap = ((low >> j) ^ high) & mask
        low ^= swap << j
        high ^= swap
    return blocks.transpose(0, 2, 1).reshape(64 * w, w)


def _masks(out_rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w1, w2, base) of the (n, words) out-edge rows, as numpy arrays."""
    out_rows = np.asarray(out_rows).view(_WORD)
    n, words = out_rows.shape
    padded = np.zeros((64 * words, words), dtype=_WORD)
    padded[:n] = out_rows
    in_rows = _transpose_bits(padded)[:n]
    w1 = (out_rows ^ in_rows).astype(_WORD, copy=False)
    w2 = (out_rows & in_rows).astype(_WORD, copy=False)
    sites = np.arange(n)
    off_diagonal = ~(np.uint64(1) << (sites & 63).astype(np.uint64))
    w1[sites, sites >> 6] &= off_diagonal
    w2[sites, sites >> 6] &= off_diagonal
    return w1, w2, _row_bits(w1) + 2 * _row_bits(w2)


def _build_masks(n: int, out, w1, w2, base) -> None:
    """The numpy twin of ``build_masks_<path>``: the masks of ``out``'s n rows
    into ``w1``, ``w2`` and ``base``."""
    for table, value in zip((w1, w2, base), _masks(out)):
        np.asarray(table)[...] = value


def _plus_table(n: int, rate: float, plus) -> None:
    """The Python twin of ``plus_table``."""
    for s in range(-2 * n, 2 * n + 1):
        exponent = min(max(-rate * s, -700.0), 700.0)
        plus[s + 2 * n] = 1.0 / (1.0 + math.exp(exponent))


# Keys per block of the numpy split sum: 2^14 float64 and int64 entries, 128 KB each.
_BLOCK_KEYS = 1 << 14


def _spin_matrix(k: int) -> np.ndarray:
    """All 2^k configurations of k sites as float64 rows of +-1; row t has
    site i up iff bit i of t is set."""
    return ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1) * 2.0 - 1.0


def _interaction_histogram(n: int, rows, edges: int, size: int, hkey, quarter, copies) -> int:
    """The numpy twin of ``interaction_histogram``: the keys (s + edges) (n +
    1) + class that count any configuration, increasing, to the front of
    copies[size:], their counts to the front of ``copies``, and the number of
    them.  ``hkey`` and ``quarter`` are the kernel's own tables, unused here.

    The same split sum, with the cross term of a block of high configurations
    as one float64 matrix product of the low rows [(n+1) sigma_L^T W_LH, low
    constant, 1] against the high rows [sigma_H, 1, high constant], counted
    with a bincount.  Every product and partial sum is an integer below
    (2 n^2 + 1)(n + 1) in size, far under 2^53, so the float64 arithmetic is
    exact whatever order the product sums in."""
    width = n + 1
    w1, w2, base = _masks(rows)
    w1, w2 = (np.unpackbits(m.view(np.uint8), axis=1, count=n, bitorder="little")
              for m in (w1, w2))
    w = w1 + 2.0 * w2
    # base sums W over a row, so its total counts each off-diagonal edge twice
    trace = edges - int(base.sum()) // 2
    low = n // 2
    spins_l, spins_h = _spin_matrix(low), _spin_matrix(n - low)
    inner_l = ((spins_l @ w[:low, :low]) * spins_l).sum(axis=1) / 2.0
    inner_h = ((spins_h @ w[low:, low:]) * spins_h).sum(axis=1) / 2.0
    class_l = (spins_l.sum(axis=1) + low) / 2.0
    class_h = (spins_h.sum(axis=1) + n - low) / 2.0
    # key = left row . right row, with s shifted by the edge count so the
    # smallest possible key is 0
    left = np.column_stack(
        (
            width * (spins_l @ w[:low, low:]),
            (trace + edges + inner_l) * width + class_l,
            np.ones(spins_l.shape[0]),
        )
    )
    right = np.column_stack((spins_h, np.ones(spins_h.shape[0]), inner_h * width + class_h))

    # both row counts are powers of two, so the blocks tile the high rows
    step = max(1, min(right.shape[0], _BLOCK_KEYS // left.shape[0]))
    block = np.empty((left.shape[0], step))
    keys = np.empty(block.shape, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    for start in range(0, right.shape[0], step):
        np.matmul(left, right[start : start + step].T, out=block)
        keys[...] = block
        part = np.bincount(keys.ravel())
        counts[: part.size] += part
    found = np.flatnonzero(counts)
    copies = np.asarray(copies)
    copies[:found.size] = counts[found]
    copies[size:size + found.size] = found
    return found.size


def _pair_offsets(n: int) -> np.ndarray:
    """The (n + 1, n + 1) index of a pair sum's table of log counts: row (a,
    b) of the table holds the c from b to (n - a - b) // 2 and starts at
    entry (a, b) of the index, which is 0 where the row is empty."""
    a, b = np.ogrid[:n + 1, :n + 1]
    rows = np.where(a <= b, np.maximum((n - a - b) // 2 - b + 1, 0), 0)
    ends = np.cumsum(rows).reshape(rows.shape)
    return np.where(rows > 0, ends - rows, 0)


def _pair_sum(n: int, base: float, b1: float, b0: float, log_g, offsets, log_counts, peak,
              limbs) -> int:
    """The numpy twin of ``pair_sum``: every term of the annealed pair sum in
    the kernel's operation order, a class of the first copy at a time, the
    largest into ``peak`` and the fsum of exp(t - peak) through math.exp,
    which calls libm's exp, into ``limbs``; the number of terms, or -1 when
    an exp is NaN.  Each float is the kernel's, and fsum rounds the sum once,
    correctly, so it rounds to the double of the kernel's exact one."""
    offsets = np.asarray(offsets).reshape(n + 1, n + 1)
    offsets[...] = _pair_offsets(n)
    log_g, log_counts = np.asarray(log_g), np.asarray(log_counts)
    # classes cl of the second copy where g does not vanish, against n1, the
    # number of sites up in both copies
    live = np.flatnonzero(log_g != -math.inf)
    cl = live[:, None]
    n1 = np.arange(n + 1)[None, :]
    spin_l = (2 * live - n).astype(np.float64)
    partial_l = log_g[live]
    square_l = (b1 * spin_l) * spin_l
    log_g = log_g.tolist()

    slabs = []
    for ck in live.tolist():
        k = 2 * ck - n
        partial_kl = ((log_g[ck] + b1 * k * k) + partial_l) + square_l
        # categories ++, +-, -+, -- of the sites; m = n1 - n2 - n3 + n4
        n2, n3, n4 = ck - n1, cl - n1, (n - ck) - cl + n1
        rows, cols = np.nonzero((n2 >= 0) & (n3 >= 0) & (n4 >= 0))
        parts = np.sort(
            np.stack([np.broadcast_to(x, n4.shape)[rows, cols] for x in (n1, n2, n3, n4)], axis=1),
            axis=1,
        )
        log_count = log_counts[offsets[parts[:, 0], parts[:, 1]] + parts[:, 2] - parts[:, 1]]
        m = (4 * cols + n - 2 * ck - 2 * live[rows]).astype(np.float64)
        slabs.append(((base + partial_kl[rows]) + log_count) + (b0 * m) * m)
    if not slabs:
        return 0
    top = max(float(slab.max()) for slab in slabs)
    exps = (map(math.exp, (slab - top).tolist()) for slab in slabs)
    total = math.fsum(itertools.chain.from_iterable(exps))
    if math.isnan(total):
        return -1
    peak[0] = top
    num, den = total.as_integer_ratio()
    limbs.cast("B")[:] = (num * (1 << _SUM_SCALE) // den).to_bytes(limbs.nbytes, "little")
    return sum(slab.size for slab in slabs)


def _ks_normal(k: int, locations, cum, mean: float, sd: float) -> float:
    """The Python twin of ``ks_normal``: both one-sided gaps to N(mean, sd^2)
    at every atom."""
    worst = 0.0
    prev = 0.0
    for loc, c in zip(locations.tolist(), cum.tolist()):
        f = _normal_cdf(loc, mean, sd)
        worst = max(worst, abs(c - f), abs(prev - f))
        prev = c
    return worst


def _levy_holds(locations: list, cum: list, mean: float, sd: float, eps: float) -> bool:
    prev = 0.0
    for loc, c in zip(locations, cum):
        if _normal_cdf(loc - eps, mean, sd) - eps > prev + 1e-15:
            return False
        if c > _normal_cdf(loc + eps, mean, sd) + eps + 1e-15:
            return False
        prev = c
    return True


def _levy_normal(k: int, locations, cum, mean: float, sd: float, tol: float) -> float:
    """The Python twin of ``levy_normal``: the bisection of [0, 1] to width
    ``tol``, returning the upper end of the last bracket (see
    ``stats.levy_distance``)."""
    locations, cum = locations.tolist(), cum.tolist()
    lo, hi = 0.0, 1.0
    if _levy_holds(locations, cum, mean, sd, lo):
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _levy_holds(locations, cum, mean, sd, mid):
            hi = mid
        else:
            lo = mid
    return hi


def _format_text(n: int, rows: int, words, text) -> None:
    """The numpy twin of ``format_text``: each row's cells unpacked and added
    to '0', then the newline."""
    words, text = np.asarray(words), np.asarray(text)
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little")
    np.add(bits, ord("0"), out=text[:, :n])
    text[:, n] = ord("\n")


def _parse_text(n: int, rows: int, text, words) -> int:
    """The numpy twin of ``parse_text``: the first of the ``rows`` lines with
    a cell c where (c | 1) != '1' or without its newline, or ``rows``; the
    lines before it packed."""
    text, words = np.asarray(text), np.asarray(words)
    cells = text[:, :n]
    bad = (text[:, n] != ord("\n")) | ((cells | 1) != ord("1")).any(axis=1)
    good = int(bad.argmax()) if bad.any() else rows
    _pack_rows(cells[:good] & 1, words[:good])
    return good


def _mask_ints(masks) -> list[int]:
    """The rows of packed masks as Python integers."""
    return [int.from_bytes(row.tobytes(), "little") for row in np.asarray(masks)]


def rng_row(bit_generator: np.random.PCG64) -> list[int]:
    """A PCG64 as the kernel holds it: state lo, state hi, inc lo, inc hi."""
    state = bit_generator.state["state"]
    return [state["state"] & splitmix.MASK64, state["state"] >> 64,
            state["inc"] & splitmix.MASK64, state["inc"] >> 64]


def _pcg64(row) -> np.random.PCG64:
    """The PCG64 of a kernel rng row, the inverse of ``rng_row``."""
    lo, hi, inc_lo, inc_hi = (int(v) for v in row)
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bit_generator


def _sweep_bits(bits, n, w1, w2, base, plus, offset, uniforms):
    """One sequential heat-bath sweep on raw integer state; returns new bits."""
    for i in range(n):
        s = (
            2 * ((w1[i] & bits).bit_count() + 2 * (w2[i] & bits).bit_count())
            - base[i]
        )
        if uniforms[i] < plus[s + offset]:
            bits |= 1 << i
        else:
            bits &= ~(1 << i)
    return bits


def _sweep_block(n: int, words: int, r: int, w1, w2, base, plus, rng, sweeps: int, bits,
                 up) -> None:
    """The Python twin of ``sweep_block_<path>``: ``sweeps`` _sweep_bits on
    each of the r rows of ``bits``, drawing on the same row of ``rng``
    through numpy's own PCG64 and ``Generator.random``, with the up-spin
    count after sweep t of row g into up[g sweeps + t]."""
    plus = plus.tolist()
    w1, w2 = _mask_ints(w1), _mask_ints(w2)
    base = base.tolist()
    bits, rng = np.asarray(bits).view(_WORD), np.asarray(rng).view(_WORD)
    offset = 2 * n
    for g, (state, row) in enumerate(zip(bits, rng)):
        bit_generator = _pcg64(row)
        draw = np.random.Generator(bit_generator).random
        spins = int.from_bytes(state.tobytes(), "little")
        for t in range(sweeps):
            spins = _sweep_bits(spins, n, w1, w2, base, plus, offset, draw(n).tolist())
            up[g * sweeps + t] = spins.bit_count()
        state[:] = np.frombuffer(spins.to_bytes(state.nbytes, "little"), dtype=_WORD)
        row[:] = rng_row(bit_generator)


_TWINS = _kernels(
    {name: globals()[f"_{name}"] for name in _SIGNATURES if name != "cpu_features"}, {})
