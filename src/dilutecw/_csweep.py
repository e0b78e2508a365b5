"""The heat-bath sweep compiled to C, built on first use.

``sweep_block`` below does exactly what ``mcmc._sweep_bits`` does, one sweep
after another: the same weight-1 and weight-2 masks, the same table of
P(spin up) and the same uniforms, compared in the same float64 arithmetic.
A chain's output is therefore bit-identical whichever of the two runs it.
The kernel takes the state as ``uint64`` words and writes the up-spin count
after every sweep, so the Python side only turns counts into magnetizations.
ctypes releases the interpreter lock for the length of the call, so chains on
different threads run on different cores.

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

import numpy as np

SOURCE = r"""
#include <stdint.h>

#if defined(__x86_64__)
__attribute__((target_clones("popcnt", "default")))
#endif
void sweep_block(int64_t n, int64_t words, const uint64_t *w1, const uint64_t *w2,
                 const int64_t *base, const double *plus, const double *uniforms,
                 int64_t sweeps, uint64_t *bits, int64_t *up)
{
    for (int64_t t = 0; t < sweeps; t++, uniforms += n) {
        for (int64_t i = 0; i < n; i++) {
            const uint64_t *one = w1 + i * words, *two = w2 + i * words;
            int64_t c1 = 0, c2 = 0;
            for (int64_t k = 0; k < words; k++) {
                c1 += __builtin_popcountll(one[k] & bits[k]);
                c2 += __builtin_popcountll(two[k] & bits[k]);
            }
            int64_t s = 2 * (c1 + 2 * c2) - base[i];
            uint64_t bit = (uint64_t)1 << (i & 63);
            if (uniforms[i] < plus[s + 2 * n])
                bits[i >> 6] |= bit;
            else
                bits[i >> 6] &= ~bit;
        }
        int64_t count = 0;
        for (int64_t k = 0; k < words; k++)
            count += __builtin_popcountll(bits[k]);
        up[t] = count;
    }
}
"""

COMMAND = ("cc", "-O2", "-shared", "-fPIC")

_lock = threading.Lock()
_loaded: list = []  # holds the result of the first load()


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


def _open():
    if sys.byteorder != "little":
        raise OSError("the kernel reads the masks as little-endian words")
    path = library_path()
    if not path.exists():
        _build(path)
    fn = ctypes.CDLL(str(path)).sweep_block
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


def load():
    """The compiled block sweep, or None when it cannot be had.

    Built or loaded once per process; later calls return the same answer.
    """
    with _lock:
        if not _loaded:
            try:
                sweep = _open()
            except OSError as err:
                sweep = None
                print(f"note: compiled sweep unavailable ({err}); using the Python sweep",
                      file=sys.stderr, flush=True)
            _loaded.append(sweep)
        return _loaded[0]
