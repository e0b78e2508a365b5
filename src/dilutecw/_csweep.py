"""The heat-bath sweep compiled to C, built on first use.

``sweep_block`` below does exactly what ``mcmc._sweep_bits`` does, one sweep
after another: the same weight-1 and weight-2 masks, the same table of
P(spin up) and the same uniforms, compared in the same float64 arithmetic.
A chain's output is therefore bit-identical whichever of the two runs it.
The kernel takes the state as ``uint64`` words and writes the up-spin count
after every sweep, so the Python side only turns counts into magnetizations.
ctypes releases the interpreter lock for the length of the call, so chains on
different threads run on different cores.

Counting a site's field with wide vector loads pays off only when those loads
need not wait for the state word that the site before it has just written.
So the kernel splits the sweep into blocks of the 64 sites that share one
state word w.  While a block updates, no other word changes, so it first
counts each of its sites' field over every word but w.  Those counts do not
depend on each other, so they pipeline and vectorise.  A serial pass then
updates the block in order against word w alone, held in a register.  The
counts are integers, so the split changes no bit of the result.

One body is compiled three ways, each exported on its own
(``sweep_block_<path>``, ``PATHS``): with AVX-512 VPOPCNTDQ, where GCC turns
the counting loop into ``vpopcntq`` at ``-O3``; with the scalar ``popcnt``
instruction; and plain.  ``sweep_block`` takes the fastest path the CPU
runs, found with ``__builtin_cpu_supports``, and ``sweep_path()`` names it.
The first two exist only on x86-64.  No ``-march`` flag is passed, so the one
library runs on any host of its architecture.

The first chain a process runs compiles the source with the system C compiler
(``COMMAND``) into ``${XDG_CACHE_HOME:-~/.cache}/dilutecw/sweep-<hash>.so``,
where the hash covers the source and the command, so an edit to either builds
a new library.  The library is written to a temporary file and renamed into
place, which makes concurrent first runs safe.  Later runs only load it.
When there is no compiler, the cache cannot be written, or the library does
not load, ``load`` prints one note to stderr and returns None, and chains run
the Python sweep instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

SOURCE = r"""
#include <stdint.h>

#define SWEEP_ARGS int64_t n, int64_t words, const uint64_t *w1, const uint64_t *w2, \
                   const int64_t *base, const double *plus, const double *uniforms, \
                   int64_t sweeps, uint64_t *bits, int64_t *up
#define SWEEP_PASS n, words, w1, w2, base, plus, uniforms, sweeps, bits, up

/* Sites 64w .. 64w+63 share state word w, and while they update no other
   word changes.  So each block first counts, for every one of its sites, the
   field over all words but w (word w is cleared meanwhile); these counts are
   independent of each other and of the updates.  The serial pass then only
   adds the popcounts against word w, held in a register. */
static inline __attribute__((always_inline)) void sweep_body(SWEEP_ARGS)
{
    int64_t outer[64];
    for (int64_t t = 0; t < sweeps; t++, uniforms += n) {
        for (int64_t w = 0; w < words; w++) {
            int64_t lo = 64 * w, hi = lo + 64 < n ? lo + 64 : n;
            uint64_t word = bits[w];
            bits[w] = 0;
            for (int64_t i = lo; i < hi; i++) {
                const uint64_t *one = w1 + i * words, *two = w2 + i * words;
                /* 64-bit sums: 8 words to an AVX-512 vector, not 16 */
                uint64_t c1 = 0, c2 = 0;
                for (int64_t k = 0; k < words; k++) {
                    c1 += (uint64_t)__builtin_popcountll(one[k] & bits[k]);
                    c2 += (uint64_t)__builtin_popcountll(two[k] & bits[k]);
                }
                outer[i - lo] = (int64_t)(c1 + 2 * c2);
            }
            for (int64_t i = lo; i < hi; i++) {
                int64_t c = outer[i - lo] + __builtin_popcountll(w1[i * words + w] & word)
                            + 2 * __builtin_popcountll(w2[i * words + w] & word);
                int64_t s = 2 * c - base[i];
                uint64_t bit = (uint64_t)1 << (i & 63);
                if (uniforms[i] < plus[s + 2 * n])
                    word |= bit;
                else
                    word &= ~bit;
            }
            bits[w] = word;
        }
        int64_t count = 0;
        for (int64_t k = 0; k < words; k++)
            count += __builtin_popcountll(bits[k]);
        up[t] = count;
    }
}

#if defined(__x86_64__)
__attribute__((target("avx512f,avx512vpopcntdq")))
void sweep_block_avx512vpopcntdq(SWEEP_ARGS) { sweep_body(SWEEP_PASS); }

__attribute__((target("popcnt")))
void sweep_block_popcnt(SWEEP_ARGS) { sweep_body(SWEEP_PASS); }
#endif

void sweep_block_generic(SWEEP_ARGS) { sweep_body(SWEEP_PASS); }

/* The path sweep_block takes on this CPU, fastest first. */
static int path_index(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vpopcntdq"))
        return 0;
    if (__builtin_cpu_supports("popcnt"))
        return 1;
#endif
    return 2;
}

const char *sweep_path(void)
{
    static const char *const names[] = {"avx512vpopcntdq", "popcnt", "generic"};
    return names[path_index()];
}

void sweep_block(SWEEP_ARGS)
{
    switch (path_index()) {
#if defined(__x86_64__)
    case 0:
        sweep_block_avx512vpopcntdq(SWEEP_PASS);
        break;
    case 1:
        sweep_block_popcnt(SWEEP_PASS);
        break;
#endif
    default:
        sweep_block_generic(SWEEP_PASS);
    }
}
"""

COMMAND = ("cc", "-O3", "-shared", "-fPIC")

# The paths of the kernel, fastest first.  sweep_path() names the first one
# this CPU runs; a CPU that runs a path also runs every path after it.
PATHS = ("avx512vpopcntdq", "popcnt", "generic")


class _Library(NamedTuple):
    sweep: Callable  # sweep_block, which runs on ``path``
    path: str
    paths: dict  # name -> that path's own entry point, for every path this CPU runs


_lock = threading.Lock()
_loaded: list = []  # holds the _Library, or None, of the first load


def library_path() -> Path:
    """Where the compiled library of this source and command is cached."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    digest = hashlib.sha256("\0".join((SOURCE, *COMMAND)).encode()).hexdigest()
    return Path(cache) / "dilutecw" / f"sweep-{digest}.so"


def _build(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        done = subprocess.run(
            [*COMMAND, "-x", "c", "-", "-o", tmp], input=SOURCE, capture_output=True, text=True
        )
        if done.returncode != 0:
            raise OSError(f"{COMMAND[0]} exited {done.returncode}: {done.stderr.strip()[-300:]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _bind(fn):
    """The checked Python entry to one kernel function of the SWEEP_ARGS signature."""
    fn.restype = None
    fn.argtypes = [ctypes.c_int64, ctypes.c_int64, *[ctypes.c_void_p] * 5,
                   ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]

    def sweep(w1, w2, base, plus, state, uniforms) -> list[int]:
        """Run len(uniforms) / n sweeps on ``state`` in place; the up-spin
        count after each.  Masks and ``base`` as in SpinUpdateTables, ``plus``
        indexed by S_i + 2n, ``state`` one row of mask words."""
        n, words = w1.shape
        up = np.empty(uniforms.size // n, dtype=np.int64)
        # the kernel trusts every length, so every buffer is checked here
        for array, dtype, shape in (
            (w1, "<u8", (n, (n + 63) // 64)),
            (w2, "<u8", (n, words)),
            (base, np.int64, (n,)),
            (plus, np.float64, (4 * n + 1,)),
            (state, "<u8", (words,)),
            (uniforms, np.float64, (up.size * n,)),
        ):
            if array.dtype != dtype or array.shape != shape or not array.flags.c_contiguous:
                raise ValueError(f"kernel buffer {array.dtype} {array.shape} is not {dtype} {shape}")
        if not state.flags.writeable:
            raise ValueError("kernel state is read-only")
        fn(n, words, w1.ctypes.data, w2.ctypes.data, base.ctypes.data, plus.ctypes.data,
           uniforms.ctypes.data, up.size, state.ctypes.data, up.ctypes.data)
        return up.tolist()

    return sweep


def _open() -> _Library:
    if sys.byteorder != "little":
        raise OSError("the kernel reads the masks as little-endian words")
    path = library_path()
    if not path.exists():
        _build(path)
    lib = ctypes.CDLL(str(path))
    lib.sweep_path.restype = ctypes.c_char_p
    lib.sweep_path.argtypes = []
    chosen = lib.sweep_path().decode()
    runnable = PATHS[PATHS.index(chosen):]
    return _Library(
        sweep=_bind(lib.sweep_block),
        path=chosen,
        paths={name: _bind(getattr(lib, f"sweep_block_{name}")) for name in runnable},
    )


def _library() -> _Library | None:
    """The loaded library, or None when it cannot be had; built or loaded once
    per process, so later calls return the same answer."""
    with _lock:
        if not _loaded:
            try:
                library = _open()
            except OSError as err:
                library = None
                print(f"note: compiled sweep unavailable ({err}); using the Python sweep",
                      file=sys.stderr, flush=True)
            _loaded.append(library)
        return _loaded[0]


def load():
    """The compiled block sweep, or None when it cannot be had."""
    library = _library()
    return None if library is None else library.sweep


def path() -> str | None:
    """The path ``load()``'s sweep runs on this CPU (one of PATHS), or None
    when there is no compiled sweep."""
    library = _library()
    return None if library is None else library.path


def paths() -> dict:
    """Name -> checked sweep for each path this CPU runs, fastest first; empty
    when there is no compiled sweep."""
    library = _library()
    return {} if library is None else dict(library.paths)
