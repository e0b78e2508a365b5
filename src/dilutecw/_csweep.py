"""The heat-bath sweep, the setup of each graph, the exact enumeration's
histogram and the second moment's pair sum as one set of kernels: compiled to
C on first use, or their numpy and Python twins.

``library()`` is the one place that chooses.  It returns a ``_Library`` of seven
kernels with fixed signatures, and every caller calls them without asking which
set it got:

* ``sample(n, seed, threshold, start, out)`` writes rows start ..
  start + len(out) - 1 of the graph as mask words, one SplitMix64 mix per cell
  (see ``graph.sample_graph``);
* ``masks(out_rows) -> (w1, w2, base)`` turns the out-edge rows into the
  symmetric weight-1 and weight-2 masks and the all-down field ``base``;
* ``plus(n, rate) -> table`` fills P(spin up) = 1 / (1 + exp(-rate S)),
  indexed by S + 2n;
* ``sweep(w1, w2, base, plus, states, rngs, sweeps) -> counts`` runs a group
  of r = 1 .. ``GROUP`` replicas: ``sweeps`` heat-bath sweeps on each row of
  the packed (r, words) ``states`` in place, row g drawing its uniforms from
  the PCG64 in row g of the (r, 4) ``uint64`` ``rngs`` (see ``rng_row``) and
  leaving it advanced by sweeps n draws, and returns the up-spin count after
  each sweep, one list per row;
* ``histogram(out_rows) -> counts`` counts the configurations of a graph of
  at most 64 sites by (s, class) (see ``exact.enumerate_partition``);
* ``pair_sum(n, base, b1, b0, log_g, log_counts) -> float`` is the log of
  the sum of exp over the O(n^3) terms of the annealed pair sum (see
  ``exact.second_moment_log``);
* ``exact_sum(values) -> float`` sums nonnegative doubles, rounding once, to
  the float ``math.fsum`` gives.

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

So does the enumeration's ``interaction_histogram`` (twin
``_numpy_histogram``), whose counts are exact integers either way.  It takes
its W = eps + eps^T from ``build_masks`` (the twin from ``_numpy_masks``), the
one place each set derives it.  It is compiled once, plainly: its inner loop
is table loads and increments, with no popcount in it.

The second moment's ``pair_sum`` (twin ``_numpy_pair_sum``) builds every term
in the twin's IEEE operation order, finds the peak in a first pass and in a
second calls libm ``exp`` of each term less the peak.  It adds those doubles
exactly: the 53-bit integer mantissa of each goes into a 128-bit bucket for
its exponent, and the buckets fold into one integer, the exact sum times
2^1074.  Python rounds that integer once by an int / int true division, which
CPython rounds correctly, half to even, as ``math.fsum`` does for the twin; so
both give the same float.  ``exact_sum`` (twin ``_fsum``) is that exact sum
alone.  ``COMMAND`` passes ``-ffp-contract=off``: where the target has fused
multiply-add in its baseline (aarch64), GCC's default would fuse x + (b m) m
into one rounding where Python rounds twice.

The twins, in ``_twins``, are the test oracles of the compiled kernels and,
as ``_twins._TWINS``, the set ``library()`` returns when nothing compiles or
loads; its ``path`` and ``sample_path`` are None and its ``paths`` and
``sample_paths`` empty.  Only that fallback imports them.

The first graph, chain, enumeration or second moment a process makes
compiles the source with the system C compiler (``COMMAND``) into
``${XDG_CACHE_HOME:-~/.cache}/dilutecw/sweep-<hash>.so``, where the hash
covers the source, the command and the machine architecture: an edit to
the source or the command builds a new library, and a cache shared by hosts
of two architectures holds one library for each.
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
import hashlib
import math
import os
import platform
import sys
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .model import _row_bits

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
#include <string.h>

/* The most replicas one call sweeps together; GROUP in _csweep.py. */
#define GROUP 4

#define SWEEP_ARGS int64_t n, int64_t words, int64_t r, const uint64_t *w1, \
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
static inline __attribute__((always_inline)) void sweep_body(SWEEP_ARGS)
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
   the number of up spins; bit j of rows[i] is the edge (i, j).  With
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
   not wait on each other's store. */
void interaction_histogram(int64_t n, const uint64_t *rows, int64_t edges, int64_t size,
                           int64_t *hkey, int64_t *quarter, int64_t *copies)
{
    uint64_t w1[64], w2[64];
    int64_t deg_low[64], deg_high[64], trace = 0, width = n + 1;
    int64_t low = n / 2, high = n - low, h1 = high / 2, h2 = high - h1;
    uint64_t low_sites = ((uint64_t)1 << low) - 1;
    /* deg_high first holds base, W counted over every site */
    build_masks(n, rows, w1, w2, deg_high);
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
    for (int64_t a = 0; a < (int64_t)1 << low; a++) {
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
}

/* Exact sums of nonnegative doubles.  A double x is M 2^(e - 1075), M its
   integer mantissa (with the hidden bit where the exponent field is nonzero)
   and e its exponent field, taken as 1 for a subnormal.  bucket[e] adds the
   M of its exponent in 128 bits, room for 2^75 of them.  fold_buckets then
   adds every bucket[e] 2^(e - 1) into one little-endian integer of LIMBS
   words, which is the exact sum times 2^1074; Python rounds it once. */
#define BUCKETS 2047
#define LIMBS 36

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

/* The count doubles of x, each nonnegative and finite, summed exactly into
   limbs (see fold_buckets). */
void exact_sum(int64_t count, const double *x, uint64_t *limbs)
{
    unsigned __int128 bucket[BUCKETS] = {0};
    for (int64_t i = 0; i < count; i++)
        bucket_add(bucket, x[i]);
    fold_buckets(bucket, limbs);
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
   terms, or -1 when an exp is NaN, as it is when a term is NaN or +inf. */
int64_t pair_sum(int64_t n, double base, double b1, double b0, const double *log_g,
                 const int64_t *offsets, const double *log_counts, double *peak, uint64_t *limbs)
{
    unsigned __int128 bucket[BUCKETS] = {0};
    int64_t terms = 0;
    *peak = pair_terms(n, base, b1, b0, log_g, offsets, log_counts, 0.0, NULL, &terms);
    double nan = pair_terms(n, base, b1, b0, log_g, offsets, log_counts, *peak, bucket, NULL);
    fold_buckets(bucket, limbs);
    return nan != nan ? -1 : terms;
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

COMMAND = ("cc", "-O3", "-ffp-contract=off", "-shared", "-fPIC")

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
    histogram: Callable  # interaction_histogram
    pair_sum: Callable  # pair_sum
    exact_sum: Callable  # exact_sum


_lock = threading.Lock()
_loaded: list = []  # holds the _Library of the first load, compiled or the twins


def library_path() -> Path:
    """Where the compiled library of this source and command is cached, for
    this machine's architecture: a cache shared with a host of another one
    must not hand either a library it cannot load."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    key = (SOURCE, *COMMAND, platform.machine())
    digest = hashlib.sha256("\0".join(key).encode()).hexdigest()
    return Path(cache) / "dilutecw" / f"sweep-{digest}.so"


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


def _check(*buffers) -> None:
    """The kernel trusts every length, so every buffer is checked before a call:
    each (array, dtype, shape) must match and be contiguous."""
    for array, dtype, shape in buffers:
        if array.dtype != dtype or array.shape != shape or not array.flags.c_contiguous:
            raise ValueError(f"kernel buffer {array.dtype} {array.shape} is not {dtype} {shape}")


def _sweep_shape(w1, w2, base, plus, states, rngs, sweeps) -> int:
    """The replicas r of a sweep call, once its arguments pass the checks that
    both kernel sets make, so that they refuse the same calls.  Masks and
    ``base`` as ``masks`` returns them, ``plus`` indexed by S_i + 2n, ``states``
    an (r, words) array of mask words with 1 <= r <= GROUP, ``rngs`` (r, 4)
    rows of ``rng_row``, ``sweeps`` an integer >= 0."""
    n, words = w1.shape
    r = len(states)
    if not 1 <= r <= GROUP:
        raise ValueError(f"a sweep runs 1 to {GROUP} replicas together, got {r}")
    if isinstance(sweeps, bool) or not isinstance(sweeps, (int, np.integer)) or sweeps < 0:
        raise ValueError(f"sweeps must be an integer >= 0, got {sweeps!r}")
    _check(
        (w1, "<u8", (n, (n + 63) // 64)),
        (w2, "<u8", (n, words)),
        (base, np.int64, (n,)),
        (plus, np.float64, (4 * n + 1,)),
        (states, "<u8", (r, words)),
        (rngs, "<u8", (r, 4)),
    )
    if not (states.flags.writeable and rngs.flags.writeable):
        raise ValueError("kernel state is read-only")
    return r


def _histogram_shape(out_rows: np.ndarray) -> tuple[int, int]:
    """(n, edges) of a histogram call, once ``out_rows`` passes the checks that
    both kernel sets make: the (n, 1) mask words of a graph of 1 to 64 sites."""
    n = len(out_rows)
    if not 1 <= n <= 64:
        raise ValueError(f"the histogram takes 1 to 64 sites, one mask word a row, got {n}")
    _check((out_rows, "<u8", (n, 1)))
    return n, int(_row_bits(out_rows).sum())


def _pair_shape(n, log_g: np.ndarray, log_counts: np.ndarray) -> np.ndarray:
    """The (n + 1, n + 1) index of a pair sum's table of log counts, once its
    arguments pass the checks that both kernel sets make: ``log_g`` the n + 1
    class log weights, ``log_counts`` one log count per partition a <= b <=
    c <= d of n, ordered by a, then b, then c.  Row (a, b) of that table
    starts at the index's entry (a, b), which is 0 where the row is empty."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    a, b = np.ogrid[:n + 1, :n + 1]
    rows = np.where(a <= b, np.maximum((n - a - b) // 2 - b + 1, 0), 0)
    ends = np.cumsum(rows).reshape(rows.shape)
    _check((log_g, np.float64, (n + 1,)), (log_counts, np.float64, (int(ends[-1, -1]),)))
    return np.where(rows > 0, ends - rows, 0)


def _sum_shape(values: np.ndarray) -> None:
    """The check both kernel sets make on the values of an exact sum: a
    float64 vector of finite doubles, none with its sign bit set."""
    _check((values, np.float64, (values.size,)))
    if not np.isfinite(values).all() or np.signbit(values).any():
        raise ValueError("an exact sum takes finite doubles of positive sign")


# The words of an exact sum's integer, as the C kernel's LIMBS: the sum times
# 2^_SUM_SCALE.
_LIMBS = 36
_SUM_SCALE = 1074


def _rounded(limbs: np.ndarray) -> float:
    """The exact sum held in ``limbs``, correctly rounded to a double: CPython's
    int / int true division rounds once, half to even, as math.fsum does."""
    return int.from_bytes(limbs.tobytes(), "little") / (1 << _SUM_SCALE)


def _bind(fn):
    """The checked Python entry to one kernel function of the SWEEP_ARGS signature."""
    fn.restype = None
    fn.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, *[ctypes.c_void_p] * 5,
                   ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]

    def sweep(w1, w2, base, plus, states, rngs, sweeps) -> list[list[int]]:
        """Run ``sweeps`` sweeps on each row of ``states`` in place, row g
        drawing on the PCG64 of row g of ``rngs`` and advancing it; per row,
        the up-spin count after each sweep.  The arguments as in
        ``_sweep_shape``."""
        r = _sweep_shape(w1, w2, base, plus, states, rngs, sweeps)
        n, words = w1.shape
        up = np.empty((r, sweeps), dtype=np.int64)
        fn(n, words, r, w1.ctypes.data, w2.ctypes.data, base.ctypes.data, plus.ctypes.data,
           rngs.ctypes.data, sweeps, states.ctypes.data, up.ctypes.data)
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
        """The symmetric masks (w1, w2) and the all-down field ``base`` of the
        out-edge rows, an (n, ceil(n / 64)) array of mask words."""
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


def _bind_histogram(fn):
    fn.restype = None
    fn.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                   *[ctypes.c_void_p] * 3]

    def histogram(out_rows: np.ndarray) -> np.ndarray:
        """The count of configurations at (s + edges) (n + 1) + class, from
        the (n, 1) mask words of the graph (see ``_twins._numpy_histogram``)."""
        n, edges = _histogram_shape(out_rows)
        high = n - n // 2
        size = (2 * edges + 1) * (n + 1)
        hkey = np.empty(1 << high, dtype=np.int64)
        quarter = np.empty((1 << high // 2) + (1 << (high - high // 2)), dtype=np.int64)
        copies = np.zeros((4, size), dtype=np.int64)
        fn(n, out_rows.ctypes.data, edges, size, hkey.ctypes.data, quarter.ctypes.data,
           copies.ctypes.data)
        return copies.sum(axis=0)

    return histogram


def _bind_pair_sum(fn):
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.c_int64, *[ctypes.c_double] * 3, *[ctypes.c_void_p] * 5]

    def pair_sum(n, base, b1, b0, log_g: np.ndarray, log_counts: np.ndarray) -> float:
        """log of the sum of exp over every term of the annealed pair sum
        (see ``_twins._numpy_pair_sum``); -inf when there is none."""
        offsets = _pair_shape(n, log_g, log_counts)
        peak = np.empty(1)
        limbs = np.empty(_LIMBS, dtype=np.uint64)
        terms = fn(n, base, b1, b0, log_g.ctypes.data, offsets.ctypes.data,
                   log_counts.ctypes.data, peak.ctypes.data, limbs.ctypes.data)
        if terms == 0:
            return -math.inf
        if terms < 0:
            return math.nan
        return float(peak[0]) + math.log(_rounded(limbs))

    return pair_sum


def _bind_exact_sum(fn):
    fn.restype = None
    fn.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]

    def exact_sum(values: np.ndarray) -> float:
        """The sum of ``values``, correctly rounded: the float math.fsum gives."""
        _sum_shape(values)
        limbs = np.empty(_LIMBS, dtype=np.uint64)
        fn(len(values), values.ctypes.data, limbs.ctypes.data)
        return _rounded(limbs)

    return exact_sum


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
        histogram=_bind_histogram(lib.interaction_histogram),
        pair_sum=_bind_pair_sum(lib.pair_sum),
        exact_sum=_bind_exact_sum(lib.exact_sum),
    )


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
                      "sampling, masks, sweeps, enumeration and the second moment's sum "
                      "run in numpy and Python",
                      file=sys.stderr, flush=True)
            _loaded.append(loaded)
        return _loaded[0]
