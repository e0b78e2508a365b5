"""The numpy and Python twins of the compiled kernels in ``_csweep``.

Each twin does what its kernel does, bit for bit: ``_sample_rows`` for
``sample_rows_<path>``, ``_numpy_masks`` for ``build_masks``, ``_plus_loop``
for ``plus_table``, ``_python_sweeps`` for ``sweep_block_<path>``,
``_numpy_histogram`` for ``interaction_histogram``, ``_numpy_pair_sum`` for
``pair_sum`` and ``_fsum`` for ``exact_sum``.  The sweep, histogram and sum
twins refuse the calls their kernels refuse, through the same checks in
``_csweep``.  They are the test oracles of the kernels and, as ``_TWINS``,
the kernel set that ``_csweep.library()`` returns when nothing compiles or
loads.  They live apart from the loader so that a process on the compiled
kernels never compiles or runs their code.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import splitmix
from ._csweep import _histogram_shape, _Library, _pair_shape, _sum_shape, _sweep_shape
from .model import _WORD, _pack_rows, _row_bits


# The numpy twin of the sampler mixes a block of whole rows holding about this
# many cells at a time, so it never holds an n-by-n buffer of 64-bit words.
# A block's mixing buffers (512 KiB each) stay in cache: on a 2-core Xeon with
# 2 MiB of L2 per core, 2^20 cells ran sampling 1.7 times slower at n = 4096.
_SAMPLE_CELLS = 1 << 16


def _sample_rows(n: int, seed: int, threshold: int, start: int, out: np.ndarray) -> None:
    """The numpy twin of ``sample_rows_<path>``: rows start .. start + len(out) - 1
    into ``out`` as ``uint64`` mask words, a block of rows at a time."""
    gamma = np.uint64(splitmix.GAMMA)
    step = max(1, _SAMPLE_CELLS // n)
    for at in range(0, out.shape[0], step):
        block = out[at:at + step]
        # Edge (i, j) mixes seed + (i*n + j + 1) * gamma, where the +1 keeps
        # counter 0 from collapsing to the bare seed.  Split as
        # (seed + (i*n + 1) * gamma) + j * gamma: one term per row, one per column.
        counters = (np.arange(start + at, start + at + block.shape[0], dtype=np.uint64)
                    * np.uint64(n) + np.uint64(1))
        row_base = counters * gamma + np.uint64(seed)
        z = row_base[:, None] + np.arange(n, dtype=np.uint64) * gamma
        shifted = np.empty_like(z)
        splitmix.finalize_array(z, shifted)
        # the top 53 bits decide the edge
        np.right_shift(z, 11, out=shifted)
        _pack_rows(shifted < np.uint64(threshold), block)


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


def _numpy_masks(out_rows: np.ndarray):
    """The numpy twin of ``build_masks``: (w1, w2, base) from the (n, words)
    out-edge rows."""
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


def _plus_loop(n: int, rate: float) -> np.ndarray:
    """The Python twin of ``plus_table``."""
    table = []
    for s in range(-2 * n, 2 * n + 1):
        exponent = min(max(-rate * s, -700.0), 700.0)
        table.append(1.0 / (1.0 + math.exp(exponent)))
    return np.array(table)


# Keys per block of the numpy split sum: 2^14 float64 and int64 entries, 128 KB each.
_BLOCK_KEYS = 1 << 14


def _spin_matrix(k: int) -> np.ndarray:
    """All 2^k configurations of k sites as float64 rows of +-1; row t has
    site i up iff bit i of t is set."""
    return ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1) * 2.0 - 1.0


def _numpy_histogram(out_rows: np.ndarray) -> np.ndarray:
    """The numpy twin of ``interaction_histogram``: the count of configurations
    at (s + edges) (n + 1) + class, as an int64 array of (2 edges + 1) (n + 1).

    The same split sum, with the cross term of a block of high configurations
    as one float64 matrix product of the low rows [(n+1) sigma_L^T W_LH, low
    constant, 1] against the high rows [sigma_H, 1, high constant], counted
    with a bincount.  Every product and partial sum is an integer below
    (2 n^2 + 1)(n + 1) in size, far under 2^53, so the float64 arithmetic is
    exact whatever order the product sums in."""
    n, edges = _histogram_shape(out_rows)
    width = n + 1
    w1, w2, base = _numpy_masks(out_rows)
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
    counts = np.zeros((2 * edges + 1) * width, dtype=np.int64)
    for start in range(0, right.shape[0], step):
        np.matmul(left, right[start : start + step].T, out=block)
        keys[...] = block
        part = np.bincount(keys.ravel())
        counts[: part.size] += part
    return counts


def _numpy_pair_sum(n, base, b1, b0, log_g: np.ndarray, log_counts: np.ndarray) -> float:
    """The numpy twin of ``pair_sum``: every term of the annealed pair sum in
    the kernel's operation order, a class of the first copy at a time, then
    peak + log(fsum of exp(t - peak)) through math.exp, which calls libm's exp.
    Each float is the kernel's, and both sums round once, correctly."""
    offsets = _pair_shape(n, log_g, log_counts)
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
        return -math.inf
    peak = max(float(slab.max()) for slab in slabs)
    exps = (map(math.exp, (slab - peak).tolist()) for slab in slabs)
    return peak + math.log(math.fsum(itertools.chain.from_iterable(exps)))


def _fsum(values: np.ndarray) -> float:
    """The twin of ``exact_sum``: math.fsum, which rounds the exact sum once."""
    _sum_shape(values)
    return math.fsum(values.tolist())


def _mask_ints(masks: np.ndarray) -> list[int]:
    """The rows of a packed mask array as Python integers."""
    return [int.from_bytes(row.tobytes(), "little") for row in masks]


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


def _python_sweeps(w1, w2, base, plus, states, rngs, sweeps) -> list[list[int]]:
    """The Python twin of ``sweep_block_<path>``: ``sweeps`` _sweep_bits on each
    row of ``states``, drawing on the same row of ``rngs`` through numpy's own
    PCG64 and ``Generator.random``."""
    _sweep_shape(w1, w2, base, plus, states, rngs, sweeps)
    n = w1.shape[0]
    plus = plus.tolist()
    w1, w2 = _mask_ints(w1), _mask_ints(w2)
    base = base.tolist()
    offset = 2 * n
    counts = []
    for state, row in zip(states, rngs):
        bit_generator = _pcg64(row)
        draw = np.random.Generator(bit_generator).random
        bits = int.from_bytes(state.tobytes(), "little")
        up = []
        for _ in range(sweeps):
            bits = _sweep_bits(bits, n, w1, w2, base, plus, offset, draw(n).tolist())
            up.append(bits.bit_count())
        state[:] = np.frombuffer(bits.to_bytes(state.nbytes, "little"), dtype=_WORD)
        row[:] = rng_row(bit_generator)
        counts.append(up)
    return counts


_TWINS = _Library(
    sweep=_python_sweeps,
    path=None,
    paths={},
    sample=_sample_rows,
    sample_path=None,
    sample_paths={},
    masks=_numpy_masks,
    plus=_plus_loop,
    histogram=_numpy_histogram,
    pair_sum=_numpy_pair_sum,
    exact_sum=_fsum,
)
