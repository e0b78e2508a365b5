"""The heat-bath sweep and the setup of each graph as one set of kernels:
compiled to C on first use, or their numpy and Python twins.

``library()`` is the one place that chooses.  It returns a ``_Library`` of four
kernels with fixed signatures, and every caller calls them without asking which
set it got:

* ``sample(n, seed, threshold, start, out)`` writes rows start ..
  start + len(out) - 1 of the graph as mask words, one SplitMix64 mix per cell
  (see ``graph.sample_graph``);
* ``masks(out_rows) -> (w1, w2, base)`` turns the out-edge rows into the
  symmetric weight-1 and weight-2 masks and the all-down field ``base``;
* ``plus(n, rate) -> table`` fills P(spin up) = 1 / (1 + exp(-rate S)),
  indexed by S + 2n;
* ``sweep(w1, w2, base, plus, states, uniforms) -> counts`` runs a group of
  r = 1 .. ``GROUP`` replicas: uniforms.shape[1] / n heat-bath sweeps on each
  row of the packed (r, words) ``states`` in place, row g drawing on row g of
  the (r, sweeps n) ``uniforms``, and returns the up-spin count after each
  sweep, one list per row.

The compiled set is ``SOURCE`` below.  Its sweep does to each replica
exactly what the Python twin ``_sweep_bits`` does, one sweep after another:
the same weight-1 and weight-2 masks, the same table of P(spin up) and the
same uniforms, compared in the same float64 arithmetic.  A chain's output is
therefore bit-identical whichever of the two runs it, and whichever group a
replica runs in.  ctypes releases the interpreter lock for the length of a
call, so chains on different threads run on different cores.

Counting a site's field with wide vector loads pays off only when those loads
need not wait for the state word that the site before it has just written.
So the kernel splits the sweep into blocks of the 64 sites that share one
state word w.  While a block updates, no other word changes, so it first
counts each of its sites' field over every word but w.  Those counts do not
depend on each other, so they pipeline and vectorise.  A serial pass then
updates the block in order against word w alone, held in a register.  The
counts are integers, so the split changes no bit of the result.

At large n the counting loop's cost is streaming the masks (4 MiB of them at
n = 4096), so the replicas of a group share it: it loads each mask word once
and ANDs it with every replica's state, then the serial pass runs once per
replica.  The group size is a literal in each of the four bodies a path
compiles, so r = 1 is the one-replica loop.  On a 2-core AVX-512 Xeon at
n = 4096 (p = 0.5, beta = 1.5) the ``avx512vpopcntdq`` path takes 53-57 ns
per site update at r = 1 and 36-38 ns per replica-site at r = 2, against
53-57 for two one-replica calls.

One body is compiled three ways, each exported as ``sweep_block_<path>``:
with AVX-512 VPOPCNTDQ, where GCC turns the counting loop into ``vpopcntq``
at ``-O3``; with the scalar ``popcnt`` instruction; and plain.  The first two
exist only on x86-64.  No ``-march`` flag is passed, so the one library runs
on any host of its architecture.  ``PATHS`` is the one table of them: each
path, fastest first, with the CPU features it needs.  The library exports a
single probe, ``cpu_features``, which sets one bit per entry of ``FEATURES``
with ``__builtin_cpu_supports``.  ``library()`` reads it once at load and
binds every path of the table whose features the CPU has (``paths``); the
first of them is ``path``, the one ``sweep`` runs.

The same library holds the setup of every sampled graph, each function
bit-identical to its twin:

* ``sample_rows_<path>`` (twin ``_sample_rows``) is compiled with AVX-512 DQ,
  where GCC mixes a word's 64 cells in vector lanes with ``vpmullq``, and
  plainly.  ``SAMPLE_PATHS`` is its table, read against the same probe:
  VPOPCNTDQ does not imply DQ.
* ``build_masks`` (twin ``_numpy_masks``) works by a 64 x 64 block bit
  transpose.
* ``plus_table`` (twin ``_plus_loop``) calls libm ``exp``, the function
  ``math.exp`` calls, so every entry is the same double.

The twins are the test oracles of the compiled kernels and, as ``_TWINS``,
the set ``library()`` returns when nothing compiles or loads; its ``path``
and ``sample_path`` are None and its ``paths`` and ``sample_paths`` empty.

The first graph or chain a process makes compiles the source with the system
C compiler (``COMMAND``) into
``${XDG_CACHE_HOME:-~/.cache}/dilutecw/sweep-<hash>.so``, where the hash
covers the source, the command and the machine architecture: an edit to
the source or the command builds a new library, and a cache shared by hosts
of two architectures holds one library for each.
The library is written to a temporary file and renamed into place, which
makes concurrent first runs safe.  Later runs only load it.
When there is no compiler, the cache cannot be written, or the library does
not load, ``library`` prints one note to stderr and returns ``_TWINS``.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import splitmix
from .model import _WORD, _pack_rows, _row_bits

# The paths of the sweep (sweep_block_<path> in SOURCE), fastest first, each
# with the CPU features it needs; the library runs the first one whose
# features the CPU has.
PATHS = {
    "avx512vpopcntdq": {"avx512f", "avx512vpopcntdq"},
    "popcnt": {"popcnt"},
    "generic": set(),
}

# The paths of the graph sampler (sample_rows_<path>), in the same form.
SAMPLE_PATHS = {"avx512dq": {"avx512f", "avx512dq"}, "generic": set()}

# Bit k of the probe cpu_features() is set when the CPU has FEATURES[k].
FEATURES = tuple(sorted(set().union(*PATHS.values(), *SAMPLE_PATHS.values())))

SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* The most replicas one call sweeps together; GROUP in _csweep.py. */
#define GROUP 4

#define SWEEP_ARGS int64_t n, int64_t words, int64_t r, const uint64_t *w1, \
                   const uint64_t *w2, const int64_t *base, const double *plus, \
                   const double *uniforms, int64_t sweeps, uint64_t *bits, int64_t *up
#define SWEEP_PASS(group) n, words, group, w1, w2, base, plus, uniforms, sweeps, bits, up

/* Sites 64w .. 64w+63 share state word w, and while they update no other
   word changes.  So each block first counts, for every one of its sites, the
   field over all words but w (word w is cleared meanwhile); these counts are
   independent of each other and of the updates.  The serial pass then only
   adds the popcounts against word w, held in a register.  The r replicas of
   a group (rows of bits, uniforms and up) share the counting loop: it loads
   each mask word once and ANDs it with every replica's state.  r is a
   literal at every call, so the loops over the group unroll, and r = 1 is
   the one-replica loop. */
static inline __attribute__((always_inline)) void sweep_body(SWEEP_ARGS)
{
    int64_t outer[GROUP][64];
    const int64_t stride = sweeps * n; /* one replica's uniforms */
    for (int64_t t = 0; t < sweeps; t++, uniforms += n) {
        for (int64_t w = 0; w < words; w++) {
            int64_t lo = 64 * w, hi = lo + 64 < n ? lo + 64 : n;
            uint64_t word[GROUP];
            for (int64_t g = 0; g < r; g++) {
                word[g] = bits[g * words + w];
                bits[g * words + w] = 0;
            }
            for (int64_t i = lo; i < hi; i++) {
                const uint64_t *one = w1 + i * words, *two = w2 + i * words;
                /* 64-bit sums: 8 words to an AVX-512 vector, not 16 */
                uint64_t c1[GROUP] = {0}, c2[GROUP] = {0};
                for (int64_t k = 0; k < words; k++) {
                    uint64_t m1 = one[k], m2 = two[k];
                    for (int64_t g = 0; g < r; g++) {
                        c1[g] += (uint64_t)__builtin_popcountll(m1 & bits[g * words + k]);
                        c2[g] += (uint64_t)__builtin_popcountll(m2 & bits[g * words + k]);
                    }
                }
                for (int64_t g = 0; g < r; g++)
                    outer[g][i - lo] = (int64_t)(c1[g] + 2 * c2[g]);
            }
            for (int64_t g = 0; g < r; g++) {
                const double *u = uniforms + g * stride;
                uint64_t x = word[g];
                for (int64_t i = lo; i < hi; i++) {
                    int64_t c = outer[g][i - lo] + __builtin_popcountll(w1[i * words + w] & x)
                                + 2 * __builtin_popcountll(w2[i * words + w] & x);
                    int64_t s = 2 * c - base[i];
                    uint64_t bit = (uint64_t)1 << (i & 63);
                    if (u[i] < plus[s + 2 * n])
                        x |= bit;
                    else
                        x &= ~bit;
                }
                bits[g * words + w] = x;
            }
        }
        for (int64_t g = 0; g < r; g++) {
            int64_t count = 0;
            for (int64_t k = 0; k < words; k++)
                count += __builtin_popcountll(bits[g * words + k]);
            up[g * sweeps + t] = count;
        }
    }
}

/* One body per group size, each with its r a literal; the caller checks
   that 1 <= r <= GROUP. */
#define SWEEP_GROUPS                          \
    switch (r) {                              \
    case 1: sweep_body(SWEEP_PASS(1)); break; \
    case 2: sweep_body(SWEEP_PASS(2)); break; \
    case 3: sweep_body(SWEEP_PASS(3)); break; \
    default: sweep_body(SWEEP_PASS(4));       \
    }

#if defined(__x86_64__)
__attribute__((target("avx512f,avx512vpopcntdq")))
void sweep_block_avx512vpopcntdq(SWEEP_ARGS) { SWEEP_GROUPS }

__attribute__((target("popcnt")))
void sweep_block_popcnt(SWEEP_ARGS) { SWEEP_GROUPS }
#endif

void sweep_block_generic(SWEEP_ARGS) { SWEEP_GROUPS }

#define SAMPLE_ARGS int64_t n, uint64_t seed, uint64_t threshold, int64_t start, int64_t rows, \
                    uint64_t *out
#define SAMPLE_PASS n, seed, threshold, start, rows, out

/* Rows start .. start+rows-1 of the graph as mask words: bit j of row i is
   set iff the SplitMix64 finalizer of seed + (i n + 1) gamma + j gamma, shifted
   right by 11, is below threshold.  Cells past n in the last word stay clear.
   The 64 cells of a word are independent lanes, which GCC vectorises with
   vpmullq where AVX-512 DQ is on; it does so only while b and hit are 64-bit
   (an int b or a bool hit left the loop scalar at -O3 with GCC 12). */
static inline __attribute__((always_inline)) void sample_body(SAMPLE_ARGS)
{
    const uint64_t gamma = 0x9E3779B97F4A7C15u;
    int64_t words = (n + 63) / 64;
    for (int64_t r = 0; r < rows; r++, out += words) {
        uint64_t z0 = seed + ((uint64_t)(start + r) * (uint64_t)n + 1) * gamma;
        for (int64_t w = 0; w < words; w++, z0 += 64 * gamma) {
            uint64_t word = 0;
            for (uint64_t b = 0; b < 64; b++) {
                uint64_t z = z0 + b * gamma;
                z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
                z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
                z ^= z >> 31;
                uint64_t hit = (z >> 11) < threshold;
                word |= hit << b;
            }
            int64_t left = n - 64 * w;
            out[w] = left < 64 ? word & (((uint64_t)1 << left) - 1) : word;
        }
    }
}

#if defined(__x86_64__)
__attribute__((target("avx512f,avx512dq")))
void sample_rows_avx512dq(SAMPLE_ARGS) { sample_body(SAMPLE_PASS); }
#endif

void sample_rows_generic(SAMPLE_ARGS) { sample_body(SAMPLE_PASS); }

/* Hacker's Delight's 64 x 64 bit-matrix transpose, bit c of word r to bit r
   of word c: six rounds, each swapping the off-diagonal j x j sub-blocks. */
static void transpose64(uint64_t *a)
{
    static const uint64_t masks[6] = {
        0x00000000FFFFFFFFu, 0x0000FFFF0000FFFFu, 0x00FF00FF00FF00FFu,
        0x0F0F0F0F0F0F0F0Fu, 0x3333333333333333u, 0x5555555555555555u,
    };
    for (int round = 0, j = 32; round < 6; round++, j >>= 1)
        for (int lo = 0; lo < 64; lo += 2 * j)
            for (int k = lo; k < lo + j; k++) {
                uint64_t swap = ((a[k] >> j) ^ a[k + j]) & masks[round];
                a[k] ^= swap << j;
                a[k + j] ^= swap;
            }
}

/* The symmetric masks of the out-edge rows: in-edge rows by block transpose
   (block (J, I) of the transpose is block (I, J) transposed, held in w2 until
   the second pass), then w1 = out ^ in, w2 = out & in, the diagonal cleared,
   and base[i] = popcount(w1[i]) + 2 popcount(w2[i]). */
void build_masks(int64_t n, const uint64_t *out, uint64_t *w1, uint64_t *w2, int64_t *base)
{
    int64_t words = (n + 63) / 64;
    uint64_t block[64];
    for (int64_t I = 0; I < words; I++)
        for (int64_t J = 0; J < words; J++) {
            for (int64_t r = 0; r < 64; r++)
                block[r] = 64 * I + r < n ? out[(64 * I + r) * words + J] : 0;
            transpose64(block);
            for (int64_t c = 0; c < 64 && 64 * J + c < n; c++)
                w2[(64 * J + c) * words + I] = block[c];
        }
    for (int64_t i = 0; i < n; i++) {
        int64_t count = 0;
        for (int64_t k = 0; k < words; k++) {
            uint64_t keep = k == i / 64 ? ~((uint64_t)1 << (i & 63)) : ~(uint64_t)0;
            uint64_t o = out[i * words + k], in = w2[i * words + k];
            uint64_t one = (o ^ in) & keep, two = o & in & keep;
            w1[i * words + k] = one;
            w2[i * words + k] = two;
            count += __builtin_popcountll(one) + 2 * __builtin_popcountll(two);
        }
        base[i] = count;
    }
}

/* P(spin up) indexed by S + 2n, S in [-2n, 2n]: libm exp, which math.exp
   calls, with the exponent clamped to [-700, 700] as Python's max and min
   clamp it (a NaN passes through both). */
void plus_table(int64_t n, double rate, double *plus)
{
    for (int64_t s = -2 * n; s <= 2 * n; s++) {
        double x = -rate * (double)s;
        if (-700.0 > x)
            x = -700.0;
        if (700.0 < x)
            x = 700.0;
        plus[s + 2 * n] = 1.0 / (1.0 + exp(x));
    }
}

/* Bit k set when this CPU has feature k of FEATURES, 0 off x86-64.
   __builtin_cpu_supports takes only a literal, so the tests are written out
   from FEATURES, one a line. */
int64_t cpu_features(void)
{
    int64_t bits = 0;
#if defined(__x86_64__)
    __builtin_cpu_init();
@FEATURE_TESTS@
#endif
    return bits;
}
""".replace("@FEATURE_TESTS@", "\n".join(
    f'    bits |= (int64_t)(__builtin_cpu_supports("{name}") != 0) << {k};'
    for k, name in enumerate(FEATURES)
))

COMMAND = ("cc", "-O3", "-shared", "-fPIC")

# The most replicas one sweep call runs together (GROUP in SOURCE).  Each mask
# word the counting loop loads serves every replica of the group, and the
# group's counts and state words stay in registers up to this size.
GROUP = 4


class _Library(NamedTuple):
    sweep: Callable  # paths[path]
    path: str | None  # the first of ``paths``; None for the twins, as is sample_path
    paths: dict  # name -> that path's own entry point, for every path this CPU runs
    sample: Callable  # sample_paths[sample_path]
    sample_path: str | None
    sample_paths: dict  # as ``paths``, for the sampler
    masks: Callable  # build_masks
    plus: Callable  # plus_table


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


def _mask_ints(masks: np.ndarray) -> list[int]:
    """The rows of a packed mask array as Python integers."""
    return [int.from_bytes(row.tobytes(), "little") for row in masks]


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


def _python_sweeps(w1, w2, base, plus, states, uniforms) -> list[list[int]]:
    """The Python twin of ``sweep_block_<path>``: _sweep_bits on each row of
    ``states`` with the same row of ``uniforms``."""
    _sweep_shape(w1, w2, base, plus, states, uniforms)
    n = w1.shape[0]
    plus = plus.tolist()
    w1, w2 = _mask_ints(w1), _mask_ints(w2)
    base = base.tolist()
    offset = 2 * n
    counts = []
    for state, row in zip(states, uniforms):
        bits = int.from_bytes(state.tobytes(), "little")
        flat = row.tolist()
        up = []
        for start in range(0, len(flat), n):
            bits = _sweep_bits(bits, n, w1, w2, base, plus, offset, flat[start : start + n])
            up.append(bits.bit_count())
        state[:] = np.frombuffer(bits.to_bytes(state.nbytes, "little"), dtype=_WORD)
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
)

_lock = threading.Lock()
_loaded: list = []  # holds the _Library of the first load, compiled or _TWINS


def library_path() -> Path:
    """Where the compiled library of this source and command is cached, for
    this machine's architecture: a cache shared with a host of another one
    must not hand either a library it cannot load."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    key = (SOURCE, *COMMAND, platform.machine())
    digest = hashlib.sha256("\0".join(key).encode()).hexdigest()
    return Path(cache) / "dilutecw" / f"sweep-{digest}.so"


def _build(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        done = subprocess.run(
            [*COMMAND, "-x", "c", "-", "-lm", "-o", tmp],
            input=SOURCE, capture_output=True, text=True,
        )
        if done.returncode != 0:
            raise OSError(f"{COMMAND[0]} exited {done.returncode}: {done.stderr.strip()[-300:]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _check(*buffers) -> None:
    """The kernel trusts every length, so every buffer is checked before a call:
    each (array, dtype, shape) must match and be contiguous."""
    for array, dtype, shape in buffers:
        if array.dtype != dtype or array.shape != shape or not array.flags.c_contiguous:
            raise ValueError(f"kernel buffer {array.dtype} {array.shape} is not {dtype} {shape}")


def _sweep_shape(w1, w2, base, plus, states, uniforms) -> tuple[int, int]:
    """(replicas, sweeps) of a sweep call, once its buffers pass ``_check``:
    both kernel sets refuse the same calls.  Masks and ``base`` as in
    SpinUpdateTables, ``plus`` indexed by S_i + 2n, ``states`` an (r, words)
    array of mask words with 1 <= r <= GROUP, ``uniforms`` (r, sweeps n)."""
    n, words = w1.shape
    r = len(states)
    if not 1 <= r <= GROUP:
        raise ValueError(f"a sweep runs 1 to {GROUP} replicas together, got {r}")
    sweeps = uniforms.size // (r * n)
    _check(
        (w1, "<u8", (n, (n + 63) // 64)),
        (w2, "<u8", (n, words)),
        (base, np.int64, (n,)),
        (plus, np.float64, (4 * n + 1,)),
        (states, "<u8", (r, words)),
        (uniforms, np.float64, (r, sweeps * n)),
    )
    if not states.flags.writeable:
        raise ValueError("kernel state is read-only")
    return r, sweeps


def _bind(fn):
    """The checked Python entry to one kernel function of the SWEEP_ARGS signature."""
    fn.restype = None
    fn.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, *[ctypes.c_void_p] * 5,
                   ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]

    def sweep(w1, w2, base, plus, states, uniforms) -> list[list[int]]:
        """Run uniforms.shape[1] / n sweeps on each row of ``states`` in place,
        row g with row g of ``uniforms``; per row, the up-spin count after
        each sweep.  The buffers as in ``_sweep_shape``."""
        r, sweeps = _sweep_shape(w1, w2, base, plus, states, uniforms)
        n, words = w1.shape
        up = np.empty((r, sweeps), dtype=np.int64)
        fn(n, words, r, w1.ctypes.data, w2.ctypes.data, base.ctypes.data, plus.ctypes.data,
           uniforms.ctypes.data, sweeps, states.ctypes.data, up.ctypes.data)
        return up.tolist()

    return sweep


def _bind_sample(fn):
    """The checked Python entry to one kernel function of the SAMPLE_ARGS signature."""
    fn.restype = None
    fn.argtypes = [ctypes.c_int64, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_int64,
                   ctypes.c_int64, ctypes.c_void_p]

    def sample(n: int, seed: int, threshold: int, start: int, out: np.ndarray) -> None:
        """Write rows start .. start + len(out) - 1 of the n-site graph of
        (seed, threshold) into ``out`` as mask words (see graph.sample_graph)."""
        rows = out.shape[0]
        _check((out, "<u8", (rows, (n + 63) // 64)))
        if not out.flags.writeable:
            raise ValueError("kernel output is read-only")
        if not (0 <= start <= start + rows <= n and 0 <= seed < 1 << 64
                and 0 <= threshold <= 1 << 53):
            raise ValueError(f"rows {start}+{rows} of n={n}, seed {seed}, threshold {threshold}")
        fn(n, seed, threshold, start, rows, out.ctypes.data)

    return sample


def _bind_masks(fn):
    fn.restype = None
    fn.argtypes = [ctypes.c_int64, *[ctypes.c_void_p] * 4]

    def masks(out_rows: np.ndarray):
        """(w1, w2, base) of SpinUpdateTables from the out-edge rows, an
        (n, ceil(n / 64)) array of mask words."""
        n = out_rows.shape[0]
        _check((out_rows, "<u8", (n, (n + 63) // 64)))
        w1, w2 = np.empty_like(out_rows), np.empty_like(out_rows)
        base = np.empty(n, dtype=np.int64)
        fn(n, out_rows.ctypes.data, w1.ctypes.data, w2.ctypes.data, base.ctypes.data)
        return w1, w2, base

    return masks


def _bind_plus(fn):
    fn.restype = None
    fn.argtypes = [ctypes.c_int64, ctypes.c_double, ctypes.c_void_p]

    def plus(n: int, rate: float) -> np.ndarray:
        """P(spin up) = 1 / (1 + exp(-rate S)), S indexed by S + 2n."""
        table = np.empty(4 * n + 1, dtype=np.float64)
        fn(n, rate, table.ctypes.data)
        return table

    return plus


def _runnable(table: dict, features: set) -> list[str]:
    """The paths of ``table`` (PATHS or SAMPLE_PATHS) that a CPU with
    ``features`` runs, fastest first."""
    return [name for name, needs in table.items() if needs <= features]


def _open() -> _Library:
    if sys.byteorder != "little":
        raise OSError("the kernel reads the masks as little-endian words")
    path = library_path()
    if not path.exists():
        _build(path)
    lib = ctypes.CDLL(str(path))
    lib.cpu_features.restype = ctypes.c_int64
    lib.cpu_features.argtypes = []
    bits = lib.cpu_features()
    features = {name for k, name in enumerate(FEATURES) if bits >> k & 1}
    paths = {
        name: _bind(getattr(lib, f"sweep_block_{name}")) for name in _runnable(PATHS, features)
    }
    sample_paths = {
        name: _bind_sample(getattr(lib, f"sample_rows_{name}"))
        for name in _runnable(SAMPLE_PATHS, features)
    }
    path, sample_path = next(iter(paths)), next(iter(sample_paths))
    return _Library(
        sweep=paths[path],
        path=path,
        paths=paths,
        sample=sample_paths[sample_path],
        sample_path=sample_path,
        sample_paths=sample_paths,
        masks=_bind_masks(lib.build_masks),
        plus=_bind_plus(lib.plus_table),
    )


def library() -> _Library:
    """The compiled kernels, or ``_TWINS`` when they cannot be had; built or
    loaded once per process, so later calls return the same set."""
    with _lock:
        if not _loaded:
            try:
                loaded = _open()
            except OSError as err:
                loaded = _TWINS
                print(f"note: compiled kernels unavailable ({err}); "
                      "sampling, masks and sweeps run in numpy and Python",
                      file=sys.stderr, flush=True)
            _loaded.append(loaded)
        return _loaded[0]
