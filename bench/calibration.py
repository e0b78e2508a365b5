"""Host-speed calibration: a fixed reference kernel timed next to the program.

The benchmark runs on a few cores of a shared host whose speed swings by tens
of percent within seconds, and drifts over minutes, as neighbours load the
cores and caches.  Wall times taken minutes apart then differ by more than the
bounds, whatever the program does.  So the reference kernel below is timed
right before and right after each timed stretch, and the stretch's seconds are
multiplied by ``REFERENCE_S`` over the mean of the two kernel timings.  The
result reads as seconds on a host where the kernel takes ``REFERENCE_S``.
Pairing each stretch with its own neighbouring kernel timings matters: host
speed a few seconds away, or averaged over a run, tracks it far less well.

The kernel has the shape of the workload's hot loop, so a host load that slows
the program slows the kernel alike.  It does heat-bath style masked popcounts
over two tables of big integers, as large as the workload's neighbour masks
(``table_n``): tables that outgrow the 2 MB second-level cache make every
site update wait on the next cache level, in the kernel as in the sweep.  Then
it does plain interpreter arithmetic, like the enumeration and the moment
sums.  A workload whose program runs two threads times the kernel on two
threads at once, so the time they lose handing the interpreter lock to each
other, which varies with the host's load, is in the reference as in the
program.

The kernel is frozen benchmark code and never imports the program, so a change
to the program moves only the timed side.
"""

from __future__ import annotations

import functools
import random
import threading
import time

# Table side -> sweeps per kernel, about 25 ms of masked popcounts each on the
# host the benchmark was tuned on (2 cores of a shared Intel Xeon).
TABLE_SWEEPS = {32: 3000, 1024: 50, 4096: 4}
LOOP_ITERATIONS = 300_000
# A typical reading of the kernel on that host, so scaled times read near wall
# times there; only ratios to it matter.
REFERENCE_S = 0.06


@functools.cache
def _tables(table_n: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    rng = random.Random(table_n)
    w1 = tuple(rng.getrandbits(table_n) for _ in range(table_n))
    w2 = tuple(rng.getrandbits(table_n) for _ in range(table_n))
    return w1, w2, rng.getrandbits(table_n)


def _kernel(table_n: int) -> int:
    w1, w2, bits = _tables(table_n)
    for _ in range(TABLE_SWEEPS[table_n]):
        for i in range(table_n):
            if ((w1[i] & bits).bit_count() + 2 * (w2[i] & bits).bit_count()) & 1:
                bits |= 1 << i
            else:
                bits &= ~(1 << i)
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return bits ^ acc


def kernel_seconds(table_n: int, threads: int) -> float:
    """Wall seconds per kernel of ``threads`` kernels run at once, one a thread."""
    workers = [threading.Thread(target=_kernel, args=(table_n,)) for _ in range(threads)]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return (time.perf_counter() - start) / threads


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` taken between kernel timings ``before`` and ``after``, in
    seconds at the reference host speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
