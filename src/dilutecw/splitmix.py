"""The SplitMix64 mix (Steele, Lea, Flood 2014), scalar and vectorised.

Chain seeding derives stream seeds with the scalar ``finalize``.  Graph
sampling mixes one counter per adjacency cell in ``_csweep``'s sampler:
compiled (``sample_rows_<path>``, the fastest path of ``_csweep.SAMPLE_PATHS``
that the CPU runs, chosen once when the library loads), or its numpy twin
``_sample_rows``, which mixes with ``finalize_array``.  All three apply the
same finalizer to 64-bit values, so they agree bit for bit.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

_MIX1 = np.uint64(MIX1)
_MIX2 = np.uint64(MIX2)


def finalize(z: int) -> int:
    """The SplitMix64 finalizer of a 64-bit integer."""
    z = (z ^ (z >> 30)) * MIX1 & MASK64
    z = (z ^ (z >> 27)) * MIX2 & MASK64
    return z ^ (z >> 31)


def finalize_array(z: np.ndarray, shifted: np.ndarray) -> None:
    """Apply the finalizer to a ``uint64`` array in place.

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
