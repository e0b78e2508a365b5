"""The heat-bath sweep, the setup of each graph, the text of a graph file, the
exact enumeration's histogram, the second moment's pair sum and the Levy and
KS distances to a Gaussian as one set of kernels: compiled to C on first use,
or their numpy and Python twins.

``library()`` is the one place that chooses.  It returns a ``_Library`` of
eleven kernels with fixed signatures, and every caller calls them without
asking which set it got.  They take plain buffers: a ``bytearray`` under a
``memoryview`` cast to ``Q``, ``q``, ``d`` or ``B`` with a shape (``_new``
makes the 8-byte ones), an ``array.array``, or any other C-contiguous buffer
of the right item size and kind, numpy arrays included, and return
memoryviews and lists.

* ``sample(n, seed, threshold, start, out)`` writes rows start ..
  start + len(out) - 1 of the graph as mask words, one SplitMix64 mix per cell
  (see ``graph.sample_graph``);
* ``masks(out_rows) -> (w1, w2, base)`` turns the out-edge rows into the
  symmetric weight-1 and weight-2 masks and the all-down field ``base``;
* ``count(words) -> int`` is the number of set bits in rows of mask words,
  a graph's edge count (see ``model.DisorderGraph.edge_count``);
* ``plus(n, rate) -> table`` fills a vector of P(spin up) = 1 / (1 + exp(-rate S)),
  indexed by S + 2n;
* ``sweep(w1, w2, base, plus, states, rngs, sweeps) -> counts`` runs a group
  of r = 1 .. ``GROUP`` replicas: ``sweeps`` heat-bath sweeps on each row of
  the packed (r, words) ``states`` in place, row g drawing its uniforms from
  the PCG64 in row g of the (r, 4) 64-bit ``rngs`` (see ``rng_row``) and
  leaving it advanced by sweeps n draws, and returns the up-spin count after
  each sweep, one list per row;
* ``histogram(out_rows) -> (keys, counts)`` counts the configurations of a
  graph of at most 64 sites by (s, class), returning the keys that count
  any, increasing, and their counts (see ``exact.enumerate_partition``);
* ``pair_sum(n, base, b1, b0, log_g, log_counts) -> float`` is the log of
  the sum of exp over the O(n^3) terms of the annealed pair sum (see
  ``exact.second_moment_log``);
* ``levy(locations, cum, mean, sd, tol) -> float`` and
  ``ks(locations, cum, mean, sd) -> float`` are the Levy and
  Kolmogorov-Smirnov distances of the atoms at ``locations``, with cumulative
  weights ``cum``, to N(mean, sd^2) (see ``stats.levy_distance``);
* ``format(words, text)`` writes k rows of mask words into the (k, n + 1)
  bytes ``text`` as k lines of n '0' / '1' bytes and a newline, and
  ``parse(text, words) -> int`` packs such lines into ``words``, returning
  the first line that is not n cells and a newline, or k (see
  ``graph.write_graph`` and ``graph.read_graph``).

Each kernel is one entry here over one raw function.  The entry (``_sweep``,
``_sample``, ``_masks`` and so on) checks the call's arguments, every buffer
through ``_view``, makes the outputs and shapes the result; the raw function
only computes.  The raw functions of a set are the C functions of ``SOURCE``
or their twins in ``_twins``, one per C function and named after it, which
take the same parameters in the same order and write into the buffers they
are given, as the C function does.  ``_kernels`` makes the entries of either
set, so both refuse the same calls, before any raw function runs, and return
the same types.  ``_SIGNATURES`` is the one table of the C parameter lists:
``_function`` gives each compiled function its ctypes signature from it, and
its buffer type, ``_Buffer``, hands C the address of a buffer that has passed
the checks (``_address``), a read-only one too, so no command of the package
imports numpy while the compiled set is loaded.

The compiled set is ``SOURCE`` below.  Its sweep does to each replica
exactly what the Python twin ``_twins._sweep_bits`` does, one sweep after
another: the same weight-1 and weight-2 masks, the same table of P(spin up)
and the same PCG64 stream, compared in the same float64 arithmetic.  The kernel
steps numpy's PCG64 itself (the 128-bit LCG and its XSL-RR output) and forms
each uniform as ``Generator.random`` does; the twin replays the row through
numpy's own ``PCG64`` and ``Generator.random``, so numpy stays the oracle.  A
chain's output is therefore bit-identical whichever of the two runs it, and
whichever group a replica runs in.  ctypes releases the interpreter lock for
the length of a call, so chains on different threads run on different cores.

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

``FAMILIES`` is the one table of the functions compiled once per CPU path,
each with its table of paths, fastest first, and the CPU features each path
needs.  ``SOURCE`` holds one body per family and writes out its exports,
``<family>_<path>``, from the table: a path with features exists only on
x86-64 and builds the body with them as its ``target``; ``generic`` builds it
plainly.  No ``-march`` flag is passed, so the one library runs on any host
of its architecture.  The library exports a single probe, ``cpu_features``,
which sets one bit per entry of ``FEATURES`` with ``__builtin_cpu_supports``.
``library()`` reads it once at load, binds each family to the first path of
its table that the CPU has every feature of and records that path in its
``paths``; a test binds any other path through ``_bind``.

* ``PATHS`` serves the sweep, the mask builder and the edge count: AVX-512
  VPOPCNTDQ, where GCC turns the counting loop into ``vpopcntq`` at ``-O3``;
  the scalar ``popcnt`` instruction; and plain, where each popcount calls
  libgcc.  At n = 4096 the edge count takes about 1 ms plainly, 0.21 ms on
  ``popcnt`` and 0.07 ms on ``avx512vpopcntdq``, against 1.7-2.8 ms for the
  twin.
* ``SAMPLE_PATHS`` serves the graph sampler, read against the same probe,
  since VPOPCNTDQ does not imply DQ: AVX-512 DQ, where GCC mixes a word's 64
  cells in vector lanes with ``vpmullq``, and plain.

Each of them is bit-identical to its twin.  The mask builder works by a 64 x 64
block bit transpose whose six rounds shift by constants, and ``edge_count``
and the histogram's edge count both come from ``count``.  ``plus_table``
calls libm ``exp``, the function ``math.exp`` calls, so every entry is the
same double.  The enumeration's ``interaction_histogram`` is exact too: its
counts are integers either way.  It takes its W = eps + eps^T from
``build_masks_generic`` (the twin from ``_twins._masks``), the one place each
set derives it.  It is compiled once, plainly: its inner loop is table loads
and increments, with no popcount in it.  A global flip keeps s and maps class
c to n - c, so from n = 2 on the kernel counts only the configurations with
site 0 down, then adds the class-reversed copy of that (s, class) table
itself and moves the keys that count any configuration to the front, so
Python visits only those; the twin counts every configuration.

The text kernels ``format_text`` and ``parse_text`` take eight cells a step:
a 256-entry table spreads a byte of a word into eight bytes, and one multiply
gathers the low bits of eight bytes into one.  ``parse_text`` refuses a line
exactly where its twin does, at a cell c with (c | 1) != '1' or a byte n
other than '\n', and clears every bit past column n - 1.  It may write the
words of the line it refuses; the twin leaves them as they were, and no
caller reads them.

The distances ``levy_normal`` and ``ks_normal`` do the twins' IEEE operations
in the twins' order and call libm ``erfc`` and ``sqrt``, the functions
``math.erfc`` and ``math.sqrt`` call, so each returns the twin's double.
Where the twin takes Python's ``max``, the kernel keeps the earlier of two
values unless the later compares greater, as ``max`` does.

The second moment's ``pair_sum`` builds the index of its table of log
counts, then every term in the twin's IEEE operation order, finds the peak in
a first pass and in a second calls libm ``exp`` of each term less the peak.
It adds those doubles exactly: the 53-bit integer mantissa of each goes into
a 128-bit bucket for its exponent, and the buckets fold into one integer, the
exact sum times 2^1074.  Python rounds that integer once by an int / int true
division, which CPython rounds correctly, half to even, as ``math.fsum`` does
for the twin; so both give the same float.  ``COMMAND`` passes
``-ffp-contract=off``: where the target has fused multiply-add in its
baseline (aarch64), GCC's default would fuse x + (b m) m into one rounding
where Python rounds twice.

The twins are the test oracles of the compiled kernels and, as
``_twins._TWINS``, the set ``library()`` returns when nothing compiles or
loads; its ``paths`` is empty.  Only that fallback imports them.

The first graph, graph file, chain, enumeration, second moment or distance a
process makes compiles the source with the system C compiler (``COMMAND``)
into ``${XDG_CACHE_HOME:-~/.cache}/dilutecw/sweep-<hash>.so``, where the hash
covers the source, the command and the machine architecture: an edit to
the source or the command builds a new library, and a cache shared by hosts
of two architectures holds one library for each.  The hash is
``importlib.util.source_hash``, CPython's 64-bit SipHash of hash-based
``.pyc`` files, and the architecture ``os.uname().machine``, so a load
imports neither ``hashlib`` nor ``platform``.
The library is written to a temporary file and renamed into place, which
makes concurrent first runs safe.  Later runs only load it.
When there is no compiler, the cache cannot be written, or the library does
not load, ``library`` prints one note to stderr and returns the twins.  The
PCG64 step needs the compiler's ``__uint128_t`` (GCC and clang have it on
64-bit targets); a compiler without it fails the build, with the same note.
Only a build imports ``subprocess`` and ``tempfile``, so a process that loads
a cached library never pays for them.
"""

from __future__ import annotations

import ctypes
import importlib.util
import math
import os
import sys
import threading
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

# The paths of the sweep, the mask builder and the edge count, fastest first,
# each with the CPU features it needs.
PATHS = {
    "avx512vpopcntdq": {"avx512f", "avx512vpopcntdq"},
    "popcnt": {"popcnt"},
    "generic": set(),
}

# The paths of the graph sampler, in the same form.
SAMPLE_PATHS = {"avx512dq": {"avx512f", "avx512dq"}, "generic": set()}

# The functions of SOURCE compiled once per path, each with its table: SOURCE
# exports <family>_<path> for every path of the table, and the library runs
# the first one whose features the CPU has.  The mask builder and the edge
# count follow the sweep, so their popcounts are an instruction wherever the
# sweep's are.
FAMILIES = {"sweep_block": PATHS, "build_masks": PATHS, "count_bits": PATHS,
            "sample_rows": SAMPLE_PATHS}

# Bit k of the probe cpu_features() is set when the CPU has FEATURES[k].
FEATURES = tuple(sorted(set().union(*PATHS.values(), *SAMPLE_PATHS.values())))

# The most replicas one sweep call runs together.  Each mask word the counting
# loop loads serves every replica of the group, and the group's counts and
# state words stay in registers up to this size.
GROUP = 4

# The words of a pair sum's integer, the sum times 2^_SUM_SCALE.
_LIMBS = 36
_SUM_SCALE = 1074

# The C signature of each function of SOURCE that Python calls, without its
# path suffix: the return type, a colon, then one letter per parameter in the
# order of the C parameter list, which each function's twin shares.  "i" is
# int64_t, "u" uint64_t, "d" double, "p" a pointer to a buffer and "v" void.
_SIGNATURES = {
    "sweep_block": "v:iiipppppipp",
    "sample_rows": "v:iuuiip",
    "build_masks": "v:ipppp",
    "count_bits": "i:ip",
    "plus_table": "v:idp",
    "interaction_histogram": "i:ipiippp",
    "pair_sum": "i:idddppppp",
    "levy_normal": "d:ippddd",
    "ks_normal": "d:ippdd",
    "format_text": "v:iipp",
    "parse_text": "i:iipp",
    "cpu_features": "i:",
}

_TEMPLATE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

/* The most replicas one call sweeps together. */
#define GROUP @GROUP@

#define SWEEP_BLOCK_ARGS int64_t n, int64_t words, int64_t r, const uint64_t *w1, \
                         const uint64_t *w2, const int64_t *base, const double *plus, \
                         uint64_t *rng, int64_t sweeps, uint64_t *bits, int64_t *up
#define SWEEP_PASS(group) n, words, group, w1, w2, base, plus, rng, sweeps, bits, up

/* The next double of numpy's Generator.random on a PCG64: the 128-bit LCG
   step, the XSL-RR output of the new state, then (v >> 11) * 2^-53.  Writing
   the left shift as -rot & 63 keeps a rotation by 0 defined. */
static inline __attribute__((always_inline)) double pcg64_random(__uint128_t *state,
                                                                 __uint128_t inc)
{
    const __uint128_t mult = (__uint128_t)0x2360ED051FC65DA4u << 64 | 0x4385DF649FCCF645u;
    *state = *state * mult + inc;
    uint64_t v = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    unsigned rot = (unsigned)(*state >> 122);
    v = (v >> rot) | (v << (-rot & 63));
    return (double)(v >> 11) * 0x1.0p-53;
}

/* Sites 64w .. 64w+63 share state word w, and while they update no other
   word changes.  So each block first counts, for every one of its sites, the
   field over all words but w (word w is cleared meanwhile); these counts are
   independent of each other and of the updates.  The serial pass then only
   adds the popcounts against word w, held in a register, and draws the
   replica's next double right before each comparison, so the generator's
   multiply overlaps the counting.  The r replicas of a group (rows of bits,
   rng and up) share the counting loop: it loads each mask word once and
   ANDs it with every replica's state.  r is a literal at every call, so the
   loops over the group unroll, and r = 1 is the one-replica loop.  Row g of
   rng is replica g's PCG64 as state lo, state hi, inc lo, inc hi; its state
   is written back on return. */
static inline __attribute__((always_inline)) void sweep_body(SWEEP_BLOCK_ARGS)
{
    int64_t outer[GROUP][64];
    __uint128_t state[GROUP], inc[GROUP];
    for (int64_t g = 0; g < r; g++) {
        state[g] = (__uint128_t)rng[4 * g + 1] << 64 | rng[4 * g];
        inc[g] = (__uint128_t)rng[4 * g + 3] << 64 | rng[4 * g + 2];
    }
    for (int64_t t = 0; t < sweeps; t++) {
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
                __uint128_t s128 = state[g];
                uint64_t x = word[g];
                for (int64_t i = lo; i < hi; i++) {
                    int64_t c = outer[g][i - lo] + __builtin_popcountll(w1[i * words + w] & x)
                                + 2 * __builtin_popcountll(w2[i * words + w] & x);
                    int64_t s = 2 * c - base[i];
                    uint64_t bit = (uint64_t)1 << (i & 63);
                    if (pcg64_random(&s128, inc[g]) < plus[s + 2 * n])
                        x |= bit;
                    else
                        x &= ~bit;
                }
                state[g] = s128;
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
    for (int64_t g = 0; g < r; g++) {
        rng[4 * g] = (uint64_t)state[g];
        rng[4 * g + 1] = (uint64_t)(state[g] >> 64);
    }
}

/* One body per group size, each with its r a literal; the caller checks
   that 1 <= r <= GROUP. */
_Static_assert(GROUP == 4, "the group switch covers r = 1 .. GROUP");
#define SWEEP_BLOCK_BODY                      \
    switch (r) {                              \
    case 1: sweep_body(SWEEP_PASS(1)); break; \
    case 2: sweep_body(SWEEP_PASS(2)); break; \
    case 3: sweep_body(SWEEP_PASS(3)); break; \
    default: sweep_body(SWEEP_PASS(4));       \
    }

#define SAMPLE_ROWS_ARGS int64_t n, uint64_t seed, uint64_t threshold, int64_t start, \
                         int64_t rows, uint64_t *out
#define SAMPLE_ROWS_BODY sample_body(n, seed, threshold, start, rows, out);

/* Rows start .. start+rows-1 of the graph as mask words: bit j of row i is
   set iff the SplitMix64 finalizer of seed + (i n + 1) gamma + j gamma, shifted
   right by 11, is below threshold.  Cells past n in the last word stay clear.
   The 64 cells of a word are independent lanes, which GCC vectorises with
   vpmullq where AVX-512 DQ is on; it does so only while b and hit are 64-bit
   (an int b or a bool hit left the loop scalar at -O3 with GCC 12). */
static inline __attribute__((always_inline)) void sample_body(SAMPLE_ROWS_ARGS)
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

/* One round of Hacker's Delight's 64 x 64 bit-matrix transpose: swap the
   off-diagonal j x j sub-blocks that mask selects.  Every call passes j and
   mask as literals, so each round's shifts are constants. */
static inline __attribute__((always_inline)) void transpose_round(uint64_t *a, int j,
                                                                  uint64_t mask)
{
    for (int lo = 0; lo < 64; lo += 2 * j)
        for (int k = lo; k < lo + j; k++) {
            uint64_t swap = ((a[k] >> j) ^ a[k + j]) & mask;
            a[k] ^= swap << j;
            a[k + j] ^= swap;
        }
}

/* The transpose, bit c of word r to bit r of word c, in its six rounds. */
static inline __attribute__((always_inline)) void transpose64(uint64_t *a)
{
    transpose_round(a, 32, 0x00000000FFFFFFFFu);
    transpose_round(a, 16, 0x0000FFFF0000FFFFu);
    transpose_round(a, 8, 0x00FF00FF00FF00FFu);
    transpose_round(a, 4, 0x0F0F0F0F0F0F0F0Fu);
    transpose_round(a, 2, 0x3333333333333333u);
    transpose_round(a, 1, 0x5555555555555555u);
}

#define BUILD_MASKS_ARGS int64_t n, const uint64_t *out, uint64_t *w1, uint64_t *w2, int64_t *base
#define BUILD_MASKS_BODY masks_body(n, out, w1, w2, base);

/* The symmetric masks of the out-edge rows: in-edge rows by block transpose
   (block (J, I) of the transpose is block (I, J) transposed, held in w2 until
   the second pass), then w1 = out ^ in, w2 = out & in, the diagonal cleared,
   and base[i] = popcount(w1[i]) + 2 popcount(w2[i]). */
static inline __attribute__((always_inline)) void masks_body(BUILD_MASKS_ARGS)
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

#define COUNT_BITS_ARGS int64_t count, const uint64_t *words
#define COUNT_BITS_BODY return count_body(count, words);

/* The set bits of count mask words: the plain body calls libgcc for each
   popcount. */
static inline __attribute__((always_inline)) int64_t count_body(COUNT_BITS_ARGS)
{
    int64_t total = 0;
    for (int64_t k = 0; k < count; k++)
        total += __builtin_popcountll(words[k]);
    return total;
}

/* <family>_<path> for every path of each family's table */
@EXPORTS@

/* Rows of mask words as text: the n cells of each row as '0' / '1' bytes,
   then '\n', row r at text + r (n + 1).  spread[b] is the eight bytes of the
   eight cells of byte b: a multiply copies b into all eight lanes, the mask
   keeps bit i in lane i, and adding 0x7F carries a set bit to the top of its
   lane.  A whole word then takes eight table loads and eight stores. */
void format_text(int64_t n, int64_t rows, const uint64_t *words, uint8_t *text)
{
    uint64_t spread[256];
    for (uint64_t b = 0; b < 256; b++) {
        uint64_t lanes = b * 0x0101010101010101u & 0x8040201008040201u;
        spread[b] = ((lanes + 0x7F7F7F7F7F7F7F7Fu) >> 7 & 0x0101010101010101u)
                    | 0x3030303030303030u;
    }
    int64_t nw = (n + 63) / 64, full = n / 64;
    for (int64_t r = 0; r < rows; r++, words += nw, text += n + 1) {
        for (int64_t w = 0; w < full; w++)
            for (int b = 0; b < 8; b++)
                memcpy(text + 64 * w + 8 * b, &spread[words[w] >> 8 * b & 0xFF], 8);
        for (int64_t j = 64 * full; j < n; j++)
            text[j] = (uint8_t)('0' + (words[full] >> (j & 63) & 1));
        text[n] = '\n';
    }
}

/* The inverse of format_text on rows lines of n + 1 bytes: packs each line
   into its mask words, bits past column n - 1 clear, and returns the first
   line that fails, or rows; the lines before it are packed.  Eight cells a
   step, as x = the eight bytes ^ '0' in every lane: a cell is '0' or '1'
   ((c | 1) == '1') exactly when its lane of x is 0 or 1, so one OR of every
   x, with the newline's check in a bit above lane 0's, finds a bad line,
   and on a good one a multiply gathers lane i's bit into bit 56 + i. */
int64_t parse_text(int64_t n, int64_t rows, const uint8_t *text, uint64_t *words)
{
    int64_t nw = (n + 63) / 64, full = n / 64;
    for (int64_t r = 0; r < rows; r++, words += nw, text += n + 1) {
        uint64_t seen = (uint64_t)(text[n] != '\n') << 1;
        for (int64_t w = 0; w < full; w++) {
            uint64_t word = 0;
            for (int b = 0; b < 8; b++) {
                /* one load a group: a copy of the word's 64 bytes to the
                   stack made GCC 12 reload them in halves */
                uint64_t x;
                memcpy(&x, text + 64 * w + 8 * b, 8);
                x ^= 0x3030303030303030u;
                seen |= x;
                word |= x * 0x0102040810204080u >> 56 << 8 * b;
            }
            words[w] = word;
        }
        if (full < nw) {
            uint64_t word = 0;
            for (int64_t j = 64 * full; j < n; j++) {
                uint64_t x = text[j] ^ (uint64_t)'0';
                seen |= x;
                word |= x << (j & 63);
            }
            words[full] = word;
        }
        if (seen & ~0x0101010101010101u)
            return r;
    }
    return rows;
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

/* The field sum_{j in set} W_ij s_j on site i of the sites in set, where
   the sites of x are up and the rest of set down (x lies in set), from the
   weight-1 and weight-2 masks of W and their counts deg over set. */
static int64_t field(uint64_t w1, uint64_t w2, int64_t deg, uint64_t x)
{
    return 2 * (__builtin_popcountll(w1 & x) + 2 * __builtin_popcountll(w2 & x)) - deg;
}

/* The sum of W_ij s_i s_j over the pairs i < j of the sites lo .. hi - 1,
   where the sites of x are up and the rest down; deg[i] counts W over them. */
static int64_t inner(const uint64_t *w1, const uint64_t *w2, const int64_t *deg, uint64_t x,
                     int64_t lo, int64_t hi)
{
    int64_t twice = 0;
    for (int64_t i = lo; i < hi; i++) {
        int64_t f = field(w1[i], w2[i], deg[i], x);
        twice += x >> i & 1 ? f : -f;
    }
    return twice / 2;
}

/* The configurations of an n-site graph, 1 <= n <= 64, counted by
   (s + edges) (n + 1) + class, where s = sum eps[i,j] s_i s_j and class is
   the number of up spins; bit j of rows[i] is the edge (i, j).  From n = 2
   on, only those with site 0 down are counted: one of each pair that a
   global flip maps onto each other.  With
   W = eps + eps^T off the diagonal (the masks of build_masks), the low sites
   0 .. n/2 - 1 spun by a and the others spun by b,

     s = trace + inner(a) + inner(b) + cross(a, b),

   inner being the sum of W_ij s_i s_j over the pairs i < j of one half.
   hkey[b] = inner(b) (n + 1) + class(b) is built once (2^high entries).  For
   each a the cross term splits over the first h1 high sites and the other
   h2: quarter[u] holds the part of the first (2^h1 entries, the low half's
   own terms folded in) and quarter[2^h1 + v] that of the rest, so each
   configuration costs two table loads and one increment.  Successive
   configurations count into successive ones of the four copies of the
   histogram (each size entries, zeroed by the caller), so repeated keys do
   not wait on each other's store.  The copies are then summed into the
   first, and from n = 2 on the class-reversed copy of each s row is added:
   class c takes the count of c and of n - c.  Last, the keys that count any
   configuration move to the front of the second copy, in order, and their
   counts to the front of the first; the number of them is returned. */
int64_t interaction_histogram(int64_t n, const uint64_t *rows, int64_t edges, int64_t size,
                              int64_t *hkey, int64_t *quarter, int64_t *copies)
{
    uint64_t w1[64], w2[64];
    int64_t deg_low[64], deg_high[64], trace = 0, width = n + 1;
    int64_t low = n / 2, high = n - low, h1 = high / 2, h2 = high - h1;
    uint64_t low_sites = ((uint64_t)1 << low) - 1;
    /* deg_high first holds base, W counted over every site */
    build_masks_generic(n, rows, w1, w2, deg_high);
    for (int64_t i = 0; i < n; i++) {
        trace += (int64_t)(rows[i] >> i & 1);
        deg_low[i] = __builtin_popcountll(w1[i] & low_sites)
                     + 2 * __builtin_popcountll(w2[i] & low_sites);
        deg_high[i] -= deg_low[i];
    }
    for (int64_t b = 0; b < (int64_t)1 << high; b++) {
        uint64_t x = (uint64_t)b << low;
        hkey[b] = inner(w1, w2, deg_high, x, low, n) * width + __builtin_popcountll(x);
    }
    int64_t *c0 = copies, *c1 = c0 + size, *c2 = c1 + size, *c3 = c2 + size;
    int64_t *first = quarter, *rest = quarter + ((int64_t)1 << h1);
    /* a even: site 0 down, where it is a low site (n >= 2) */
    for (int64_t a = 0; a < (int64_t)1 << low; a += low ? 2 : 1) {
        uint64_t x = (uint64_t)a;
        /* entry 0 of each quarter has all its sites down; putting site t
           up adds 2 width field(t), which doubles the table built so far */
        int64_t step[64];
        first[0] = (trace + edges + inner(w1, w2, deg_low, x, 0, low)) * width
                   + __builtin_popcountll(x);
        rest[0] = 0;
        for (int64_t t = 0; t < high; t++) {
            step[t] = width * field(w1[low + t], w2[low + t], deg_low[low + t], x);
            (t < h1 ? first : rest)[0] -= step[t];
        }
        for (int64_t t = 0; t < high; t++) {
            int64_t *table = t < h1 ? first : rest, top = (int64_t)1 << (t < h1 ? t : t - h1);
            for (int64_t u = 0; u < top; u++)
                table[top + u] = table[u] + 2 * step[t];
        }
        for (int64_t v = 0; v < (int64_t)1 << h2; v++) {
            const int64_t *keys = hkey + (v << h1);
            int64_t base = rest[v], u = 0;
            for (; u + 4 <= (int64_t)1 << h1; u += 4) {
                c0[base + first[u] + keys[u]]++;
                c1[base + first[u + 1] + keys[u + 1]]++;
                c2[base + first[u + 2] + keys[u + 2]]++;
                c3[base + first[u + 3] + keys[u + 3]]++;
            }
            for (; u < (int64_t)1 << h1; u++)
                c0[base + first[u] + keys[u]]++;
        }
    }
    for (int64_t k = 0; k < size; k++)
        c0[k] += c1[k] + c2[k] + c3[k];
    if (n > 1)
        for (int64_t row = 0; row < size; row += width)
            for (int64_t c = 0; 2 * c <= n; c++)
                c0[row + c] = c0[row + n - c] = c0[row + c] + c0[row + n - c];
    int64_t found = 0;
    for (int64_t k = 0; k < size; k++)
        if (c0[k]) {
            c1[found] = k;
            c0[found++] = c0[k];
        }
    return found;
}

/* Exact sums of nonnegative doubles.  A double x is M 2^(e - 1075), M its
   integer mantissa (with the hidden bit where the exponent field is nonzero)
   and e its exponent field, taken as 1 for a subnormal.  bucket[e] adds the
   M of its exponent in 128 bits, room for 2^75 of them.  fold_buckets then
   adds every bucket[e] 2^(e - 1) into one little-endian integer of LIMBS
   words, which is the exact sum times 2^1074; Python rounds it once. */
#define BUCKETS 2047
#define LIMBS @LIMBS@

static inline __attribute__((always_inline)) void bucket_add(unsigned __int128 *bucket, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t e = bits >> 52 & 0x7FF, mantissa = bits & (((uint64_t)1 << 52) - 1);
    if (e)
        mantissa |= (uint64_t)1 << 52;
    else
        e = 1;
    bucket[e] += mantissa;
}

static void fold_buckets(const unsigned __int128 *bucket, uint64_t *limbs)
{
    for (int k = 0; k < LIMBS; k++)
        limbs[k] = 0;
    for (int e = 1; e < BUCKETS; e++) {
        if (!bucket[e])
            continue;
        int at = (e - 1) / 64, off = (e - 1) % 64;
        uint64_t lo = (uint64_t)bucket[e], hi = (uint64_t)(bucket[e] >> 64);
        /* bucket[e] << off, in three words */
        uint64_t part[3] = {lo << off, off ? hi << off | lo >> (64 - off) : hi,
                            off ? hi >> (64 - off) : 0};
        unsigned __int128 carry = 0;
        for (int k = 0; at + k < LIMBS && (k < 3 || carry); k++) {
            carry += (unsigned __int128)limbs[at + k] + (k < 3 ? part[k] : 0);
            limbs[at + k] = (uint64_t)carry;
            carry >>= 64;
        }
    }
}

/* Every term of the annealed pair sum (see exact.second_moment_log), visited
   as (class ck, class cl, n1) with the four category counts n1, ck - n1,
   cl - n1, n - ck - cl + n1 nonnegative, and built in the same IEEE order as
   the Python sum: ((base + (((log_g[ck] + (b1 k) k) + log_g[cl]) + (b1 l) l))
   + log count) + (b0 m) m.  The count's log is looked up by the sorted
   categories a <= b <= c at log_counts[offsets[a (n + 1) + b] + c - b].
   Without bucket it counts the terms into *terms and returns the largest;
   with it, it adds exp(t - peak) of every term to bucket and returns NaN if
   one of them is NaN, else 0. */
static double pair_terms(int64_t n, double base, double b1, double b0,
                         const double *log_g, const int64_t *offsets, const double *log_counts,
                         double peak, unsigned __int128 *bucket, int64_t *terms)
{
    double top = -INFINITY, nan = 0.0;
    for (int64_t ck = 0; ck <= n; ck++) {
        if (log_g[ck] == -INFINITY)
            continue;
        double k = (double)(2 * ck - n), part_k = log_g[ck] + (b1 * k) * k;
        for (int64_t cl = 0; cl <= n; cl++) {
            if (log_g[cl] == -INFINITY)
                continue;
            double l = (double)(2 * cl - n), head = base + ((part_k + log_g[cl]) + (b1 * l) * l);
            int64_t first = ck + cl - n > 0 ? ck + cl - n : 0, last = ck < cl ? ck : cl;
            for (int64_t n1 = first; n1 <= last; n1++) {
                int64_t n2 = ck - n1, n3 = cl - n1, n4 = n - ck - cl + n1;
                /* the three smallest of the four, in order */
                int64_t p = n1 < n2 ? n1 : n2, q = n1 < n2 ? n2 : n1;
                int64_t r = n3 < n4 ? n3 : n4, s = n3 < n4 ? n4 : n3;
                int64_t a = p < r ? p : r, x = p < r ? r : p, y = q < s ? q : s;
                int64_t b = x < y ? x : y, c = x < y ? y : x;
                double m = (double)(4 * n1 + n - 2 * ck - 2 * cl);
                double t = (head + log_counts[offsets[a * (n + 1) + b] + c - b]) + (b0 * m) * m;
                if (!bucket) {
                    top = t > top ? t : top;
                    continue;
                }
                double term = exp(t - peak);
                if (term != term)
                    nan = term;
                else
                    bucket_add(bucket, term);
            }
            if (!bucket)
                *terms += last - first + 1;
        }
    }
    return bucket ? nan : top;
}

/* The pair sum as peak + log(sum of exp(t - peak)): the largest term into
   *peak and the sum into limbs (see fold_buckets).  Returns the number of
   terms, or -1 when an exp is NaN, as it is when a term is NaN or +inf.
   offsets, (n + 1)^2 entries, is filled first: row (a, b) of log_counts
   holds the c from b to (n - a - b) / 2, so it is empty unless a <= b and
   a + 3 b <= n, and it starts at offsets[a (n + 1) + b], 0 where empty. */
int64_t pair_sum(int64_t n, double base, double b1, double b0, const double *log_g,
                 int64_t *offsets, const double *log_counts, double *peak, uint64_t *limbs)
{
    unsigned __int128 bucket[BUCKETS] = {0};
    int64_t start = 0;
    for (int64_t a = 0; a <= n; a++)
        for (int64_t b = 0; b <= n; b++) {
            int64_t rows = a <= b && a + 3 * b <= n ? (n - a - b) / 2 - b + 1 : 0;
            offsets[a * (n + 1) + b] = rows ? start : 0;
            start += rows;
        }
    int64_t terms = 0;
    *peak = pair_terms(n, base, b1, b0, log_g, offsets, log_counts, 0.0, NULL, &terms);
    double nan = pair_terms(n, base, b1, b0, log_g, offsets, log_counts, *peak, bucket, NULL);
    fold_buckets(bucket, limbs);
    return nan != nan ? -1 : terms;
}

/* N(mean, sd^2)'s distribution function at t in the operations of
   stats._normal_cdf: libm erfc and sqrt, the functions math.erfc and
   math.sqrt call, so every value is the double Python gives. */
static double normal_cdf(double t, double mean, double sd)
{
    double u = (t - mean) / sd;
    return 0.5 * erfc(-u / sqrt(2.0));
}

/* The Kolmogorov-Smirnov distance of the atoms loc[0 .. k-1], cumulative
   weights cum, to N(mean, sd^2): both one-sided gaps at every atom.  Each
   comparison is Python's max, which keeps the earlier of two values that
   do not compare greater, a NaN included. */
double ks_normal(int64_t k, const double *loc, const double *cum, double mean, double sd)
{
    double worst = 0.0, prev = 0.0;
    for (int64_t i = 0; i < k; i++) {
        double f = normal_cdf(loc[i], mean, sd), above = fabs(cum[i] - f), below = fabs(prev - f);
        if (above > worst)
            worst = above;
        if (below > worst)
            worst = below;
        prev = cum[i];
    }
    return worst;
}

/* Whether the Levy condition holds at eps at every atom (see stats). */
static int levy_holds(int64_t k, const double *loc, const double *cum, double mean, double sd,
                      double eps)
{
    double prev = 0.0;
    for (int64_t i = 0; i < k; i++) {
        if (normal_cdf(loc[i] - eps, mean, sd) - eps > prev + 1e-15)
            return 0;
        if (cum[i] > normal_cdf(loc[i] + eps, mean, sd) + eps + 1e-15)
            return 0;
        prev = cum[i];
    }
    return 1;
}

/* The Levy distance of the same atoms to N(mean, sd^2): the bisection of
   [0, 1] to width tol, returning the upper end of the last bracket. */
double levy_normal(int64_t k, const double *loc, const double *cum, double mean, double sd,
                   double tol)
{
    double lo = 0.0, hi = 1.0;
    if (levy_holds(k, loc, cum, mean, sd, lo))
        return 0.0;
    while (hi - lo > tol) {
        double mid = 0.5 * (lo + hi);
        if (levy_holds(k, loc, cum, mean, sd, mid))
            hi = mid;
        else
            lo = mid;
    }
    return hi;
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
"""


def _export(family: str, path: str) -> str:
    """The C definition of ``family``'s export on ``path``: its body, built
    with the path's CPU features where it has any, which exist only on x86-64."""
    result = {"v": "void", "i": "int64_t"}[_SIGNATURES[family][0]]
    macro = family.upper()
    text = f"{result} {family}_{path}({macro}_ARGS) {{ {macro}_BODY }}"
    needs = ",".join(sorted(FAMILIES[family][path]))
    return (f'#if defined(__x86_64__)\n__attribute__((target("{needs}")))\n{text}\n#endif'
            if needs else text)


# The template with the constants it shares with Python, every per-path export
# and the probe's tests written out.
SOURCE = (
    _TEMPLATE.replace("@GROUP@", str(GROUP)).replace("@LIMBS@", str(_LIMBS))
    .replace("@EXPORTS@", "\n".join(_export(family, path)
                                    for family, table in FAMILIES.items() for path in table))
    .replace("@FEATURE_TESTS@", "\n".join(
        f'    bits |= (int64_t)(__builtin_cpu_supports("{name}") != 0) << {k};'
        for k, name in enumerate(FEATURES)))
)

COMMAND = ("cc", "-O3", "-ffp-contract=off", "-shared", "-fPIC")


class _Library(NamedTuple):
    sweep: Callable  # sweep_block
    sample: Callable  # sample_rows
    masks: Callable  # build_masks
    count: Callable  # count_bits
    plus: Callable  # plus_table
    histogram: Callable  # interaction_histogram
    pair_sum: Callable  # pair_sum
    levy: Callable  # levy_normal
    ks: Callable  # ks_normal
    format: Callable  # format_text
    parse: Callable  # parse_text
    paths: dict  # each family of FAMILIES -> the path it runs; {} for the twins


_lock = threading.Lock()
_loaded: list = []  # holds the _Library of the first load, compiled or the twins


def library_path() -> Path:
    """Where the compiled library of this source and command is cached, for
    this machine's architecture: a cache shared with a host of another one
    must not hand either a library it cannot load.  The key is the 64-bit
    hash CPython gives hash-based ``.pyc`` files (``importlib.util.source_hash``,
    already loaded at start-up), so a warm load imports no hash module."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    key = "\0".join((SOURCE, *COMMAND, os.uname().machine)).encode()
    return Path(cache) / "dilutecw" / f"sweep-{importlib.util.source_hash(key).hex()}.so"


def _build(path: Path) -> None:
    # only a cache miss compiles, so only a cache miss pays for these imports
    import subprocess
    import tempfile

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


# The kind of each struct letter a buffer may export: integer or float.
_KINDS = {**dict.fromkeys("bBhHiIlLqQnN", "i"), **dict.fromkeys("efd", "f")}


def _view(buffer, kind: str, shape: tuple, out: bool = False) -> memoryview:
    """``buffer`` as a memoryview, once it passes the checks of every kernel
    buffer: ``kind`` names the items as "i8" (64-bit integers), "f8" (doubles)
    or "i1" (bytes), and the buffer must have ``shape``, native byte order and
    C-contiguous items, and, if it is an output (``out``), be writable.  Signedness
    is not checked, since numpy exports uint64 as "L" and int64 as "l", so
    numpy arrays pass as plain buffers do."""
    view = memoryview(buffer)
    fmt = view.format
    letter = fmt[-1] if fmt[:-1] in ("", "@", "=", "<") else ""
    if (_KINDS.get(letter) != kind[0] or view.itemsize != int(kind[1:])
            or view.shape != shape or not view.c_contiguous):
        raise ValueError(f"kernel buffer {fmt} {view.shape} is not {kind} {shape}")
    if out and view.readonly:
        raise ValueError("kernel output is read-only")
    return view


def _address(view) -> int:
    """The address of the memory of ``view``, a buffer that has passed
    ``_view``'s checks or that an entry made.  A read-only one too, which
    ctypes' ``from_buffer`` refuses, so the address is the first word of the
    buffer's Py_buffer, which has at most 11 pointer-sized fields on any
    platform."""
    exported = (ctypes.c_void_p * 11)()
    # PyBUF_SIMPLE asks for C-contiguous bytes, as _view has checked
    ctypes.pythonapi.PyObject_GetBuffer(ctypes.py_object(view), exported, 0)
    try:
        return exported[0] or 0
    finally:
        ctypes.pythonapi.PyBuffer_Release(exported)


class _Buffer:
    """The ctypes type of a buffer parameter: the C function gets the address
    of the buffer's memory.  The kernel trusts every length, so only the
    entries below pass one, once it has passed their checks."""

    @staticmethod
    def from_param(view) -> ctypes.c_void_p:
        return ctypes.c_void_p(_address(view))


_CTYPES = {"i": ctypes.c_int64, "u": ctypes.c_uint64, "d": ctypes.c_double, "p": _Buffer,
           "v": None}


def _function(lib, name: str, path: str | None = None):
    """The function ``name`` of ``lib`` (``name_path`` when ``path`` is
    given), with its signature from ``_SIGNATURES``."""
    fn = getattr(lib, f"{name}_{path}" if path else name)
    result, params = _SIGNATURES[name].split(":")
    fn.restype = _CTYPES[result]
    fn.argtypes = [_CTYPES[kind] for kind in params]
    return fn


def _new(fmt: str, shape: tuple) -> memoryview:
    """A zeroed buffer of ``fmt`` items ("Q", "q" or "d", 8 bytes each) in
    ``shape``; a 2-D shape must have no zero in it."""
    data = memoryview(bytearray(8 * math.prod(shape)))
    return data.cast(fmt) if len(shape) == 1 else data.cast(fmt, shape)


def _is_count(value, least: int) -> bool:
    """Whether ``value`` is an integer (not a bool) of at least ``least``."""
    return not isinstance(value, bool) and hasattr(value, "__index__") and value >= least


# The entries of the kernels: each checks its arguments, makes its outputs,
# calls the raw function of its set, its first argument, and shapes the
# result, whichever set runs.


def _sweep(block, w1, w2, base, plus, states, rngs, sweeps) -> list[list[int]]:
    """Run ``sweeps`` sweeps on each row of ``states`` in place, row g drawing
    on the PCG64 of row g of ``rngs`` and advancing it; per row, the up-spin
    count after each sweep.  Masks and ``base`` as ``masks`` returns them,
    ``plus`` indexed by S_i + 2n, ``states`` an (r, words) buffer of mask
    words with 1 <= r <= GROUP, ``rngs`` (r, 4) rows of ``rng_row``,
    ``sweeps`` an integer >= 0."""
    n, words = memoryview(w1).shape
    r = len(states)
    if not 1 <= r <= GROUP:
        raise ValueError(f"a sweep runs 1 to {GROUP} replicas together, got {r}")
    if not _is_count(sweeps, 0):
        raise ValueError(f"sweeps must be an integer >= 0, got {sweeps!r}")
    sweeps = int(sweeps)
    up = _new("q", (r * sweeps,))
    block(n, words, r, _view(w1, "i8", (n, (n + 63) // 64)), _view(w2, "i8", (n, words)),
          _view(base, "i8", (n,)), _view(plus, "f8", (4 * n + 1,)),
          _view(rngs, "i8", (r, 4), out=True), sweeps,
          _view(states, "i8", (r, words), out=True), up)
    return [up[g * sweeps:(g + 1) * sweeps].tolist() for g in range(r)]


def _sample(sample_rows, n: int, seed: int, threshold: int, start: int, out) -> None:
    """Write rows start .. start + len(out) - 1 of the n-site graph of
    (seed, threshold) into ``out`` as mask words (see graph.sample_graph)."""
    rows = len(out)
    view = _view(out, "i8", (rows, (n + 63) // 64), out=True)
    if not (0 <= start <= start + rows <= n and 0 <= seed < 1 << 64
            and 0 <= threshold <= 1 << 53):
        raise ValueError(f"rows {start}+{rows} of n={n}, seed {seed}, threshold {threshold}")
    sample_rows(n, seed, threshold, start, rows, view)


def _masks(build_masks, out_rows) -> tuple[memoryview, memoryview, memoryview]:
    """The symmetric masks (w1, w2) and the all-down field ``base`` of the
    out-edge rows, an (n, ceil(n / 64)) buffer of mask words, n >= 1."""
    n = len(out_rows)
    shape = (n, (n + 63) // 64)
    rows = _view(out_rows, "i8", shape)
    if n < 1:
        raise ValueError("kernel buffer of no rows is not the out-edge rows of a graph")
    tables = _new("Q", shape), _new("Q", shape), _new("q", (n,))
    build_masks(n, rows, *tables)
    return tables


def _count(count_bits, words) -> int:
    """The set bits of ``words``, rows of mask words."""
    shape = memoryview(words).shape
    if len(shape) != 2 or shape[1] < 1:
        raise ValueError(f"kernel buffer {shape} is not rows of mask words")
    view = _view(words, "i8", shape)
    return count_bits(view.nbytes // 8, view)


def _plus(plus_table, n: int, rate: float) -> memoryview:
    """P(spin up) = 1 / (1 + exp(-rate S)), S indexed by S + 2n."""
    table = _new("d", (4 * n + 1,))
    plus_table(n, rate, table)
    return table


def _histogram(interaction_histogram, count_bits, out_rows) -> tuple[list[int], list[int]]:
    """The keys (s + edges) (n + 1) + class that count any configuration,
    increasing, and their counts, from ``out_rows``, the (n, 1) mask words of
    a graph of 1 to 64 sites.  ``count_bits`` of the same set counts the
    edges."""
    n = len(out_rows)
    if not 1 <= n <= 64:
        raise ValueError(f"the histogram takes 1 to 64 sites, one mask word a row, got {n}")
    rows = _view(out_rows, "i8", (n, 1))
    edges = count_bits(n, rows)
    high = n - n // 2
    size = (2 * edges + 1) * (n + 1)
    hkey = _new("q", (1 << high,))
    quarter = _new("q", ((1 << high // 2) + (1 << (high - high // 2)),))
    copies = _new("q", (4 * size,))
    found = interaction_histogram(n, rows, edges, size, hkey, quarter, copies)
    return copies[size:size + found].tolist(), copies[:found].tolist()


def _pair_sum(pair_sum, n, base, b1, b0, log_g, log_counts) -> float:
    """log of the sum of exp over every term of the annealed pair sum (see
    ``exact.second_moment_log``); -inf when there is none, NaN when a term
    is NaN or +inf.  ``log_g`` holds the n + 1 class log weights,
    ``log_counts`` one log count per partition a <= b <= c <= d of n, ordered
    by a, then b, then c.  Row (a, b) holds the c from b to (n - a - b) // 2,
    so it is empty unless a <= b and a + 3 b <= n.  The raw function leaves
    the sum times 2^_SUM_SCALE in ``limbs`` (the C function exactly, its twin
    rounded by math.fsum), and CPython's int / int true division rounds it
    once, half to even, as math.fsum does."""
    if not _is_count(n, 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    partitions = sum((n - a - b) // 2 - b + 1
                     for a in range(n // 4 + 1) for b in range(a, (n - a) // 3 + 1))
    log_g = _view(log_g, "f8", (n + 1,))
    log_counts = _view(log_counts, "f8", (partitions,))
    peak, limbs = _new("d", (1,)), _new("Q", (_LIMBS,))
    terms = pair_sum(n, base, b1, b0, log_g, _new("q", ((n + 1) ** 2,)), log_counts, peak, limbs)
    if terms == 0:
        return -math.inf
    if terms < 0:
        return math.nan
    return peak[0] + math.log(int.from_bytes(limbs, "little") / (1 << _SUM_SCALE))


# The least bisection width of a Levy distance: from 2^-52 on, two adjacent
# doubles in [0, 1] lie closer than the width, so the bisection ends.
_LEAST_TOL = 2.0 ** -52


def _distance(distance, locations, cum, mean: float, sd: float, *tol: float) -> float:
    """The Kolmogorov-Smirnov distance (``ks_normal``) or, given the
    bisection width ``tol``, the Levy distance (``levy_normal``) of the atoms
    at ``locations``, with cumulative weights ``cum``, to N(mean, sd^2).
    ``locations`` and ``cum`` are two vectors of k >= 1 doubles."""
    if tol and not tol[0] >= _LEAST_TOL:
        raise ValueError(f"the bisection width must be at least 2^-52, got {tol[0]!r}")
    k = len(locations)
    if k < 1:
        raise ValueError("a distance takes at least one atom")
    return distance(k, _view(locations, "f8", (k,)), _view(cum, "f8", (k,)), mean, sd, *tol)


def _lines(text) -> tuple[int, int]:
    """(k, n) of ``text``, k lines of n + 1 bytes as a (k, n + 1) byte buffer,
    n >= 1."""
    shape = memoryview(text).shape
    if len(shape) != 2 or shape[1] < 2:
        raise ValueError(f"kernel buffer {shape} is not k lines of n + 1 bytes")
    return shape[0], shape[1] - 1


def _format(format_text, words, text) -> None:
    """Write the k rows of mask words ``words`` into ``text``, a (k, n + 1)
    byte buffer, as k lines of n '0' / '1' bytes and a newline."""
    k, n = _lines(text)
    words = _view(words, "i8", (k, (n + 63) // 64))
    format_text(n, k, words, _view(text, "i1", (k, n + 1), out=True))


def _parse(parse_text, text, words) -> int:
    """Check the k lines of ``text`` and pack them into ``words``, their rows
    of mask words; the first line that is not n '0' / '1' bytes and a
    newline, or k."""
    k, n = _lines(text)
    words = _view(words, "i8", (k, (n + 63) // 64), out=True)
    return parse_text(n, k, _view(text, "i1", (k, n + 1)), words)


def _kernels(raw: dict, paths: dict) -> _Library:
    """The kernel set of the raw functions ``raw``, which maps the name of
    each kernel function of ``_SIGNATURES`` to its own, a family's on the
    path that ``paths`` names for it (the twins have no paths)."""
    return _Library(
        sweep=partial(_sweep, raw["sweep_block"]),
        sample=partial(_sample, raw["sample_rows"]),
        masks=partial(_masks, raw["build_masks"]),
        count=partial(_count, raw["count_bits"]),
        plus=partial(_plus, raw["plus_table"]),
        histogram=partial(_histogram, raw["interaction_histogram"], raw["count_bits"]),
        pair_sum=partial(_pair_sum, raw["pair_sum"]),
        levy=partial(_distance, raw["levy_normal"]),
        ks=partial(_distance, raw["ks_normal"]),
        format=partial(_format, raw["format_text"]),
        parse=partial(_parse, raw["parse_text"]),
        paths=paths,
    )


def _runnable(table: dict, features: set) -> list[str]:
    """The paths of ``table``, a table of ``FAMILIES``, that a CPU with
    ``features`` runs, fastest first."""
    return [name for name, needs in table.items() if needs <= features]


def _bind(lib, paths: dict) -> _Library:
    """The kernel set of ``lib``, each family of ``paths`` on the path it names."""
    return _kernels({name: _function(lib, name, paths.get(name))
                     for name in _SIGNATURES if name != "cpu_features"}, paths)


def _open() -> _Library:
    if sys.byteorder != "little":
        raise OSError("the kernel reads the masks as little-endian words")
    file = library_path()
    if not file.exists():
        _build(file)
    lib = ctypes.CDLL(str(file))
    bits = _function(lib, "cpu_features")()
    features = {name for k, name in enumerate(FEATURES) if bits >> k & 1}
    return _bind(lib, {family: _runnable(table, features)[0] for family, table in FAMILIES.items()})


def library() -> _Library:
    """The compiled kernels, or ``_twins._TWINS`` when they cannot be had;
    built or loaded once per process, so later calls return the same set."""
    with _lock:
        if not _loaded:
            try:
                loaded = _open()
            except OSError as err:
                from ._twins import _TWINS as loaded

                print(f"note: compiled kernels unavailable ({err}); "
                      "sampling, masks, edge counts, sweeps, graph text, enumeration, "
                      "the second moment's sum and the Levy and KS distances run in "
                      "numpy and Python",
                      file=sys.stderr, flush=True)
            _loaded.append(loaded)
        return _loaded[0]
