"""The kernels' one buffer check: plain buffers and numpy arrays alike."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilutecw import _csweep
from helpers import kernel_sets

# Each kind of kernel buffer: the package's struct letter and numpy's dtype.
KINDS = {"i8": ("Q", "<u8"), "f8": ("d", "<f8"), "i1": ("B", "u1")}
# A numpy dtype of the same kind and another item size, for each kind.
RESIZED = {"i8": "<u4", "f8": "<f4", "i1": "<u2"}


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=2).map(tuple),
    out=st.booleans(),
)
def test_buffer_check_takes_numpy_and_plain_buffers_alike(kind, shape, out):
    fmt, dtype = KINDS[kind]
    plain = memoryview(bytearray(math.prod(shape) * int(kind[1:]))).cast(fmt, shape)
    array = np.zeros(shape, dtype=dtype)
    # numpy exports uint64 as "L" and int64 as "l"; both pass as "i8"
    for good in (plain, array, array.astype(dtype.replace("u", "i"))):
        at = _csweep._address(good, kind, shape, out=out)
        assert at == np.asarray(good).ctypes.data
    # a read-only buffer is read, and only an output must be writable
    locked = array.copy()
    locked.flags.writeable = False
    assert _csweep._address(locked, kind, shape) == locked.ctypes.data
    assert _csweep._address(plain.toreadonly(), kind, shape) == np.asarray(plain).ctypes.data
    for read_only in (locked, plain.toreadonly()):
        with pytest.raises(ValueError, match="read-only"):
            _csweep._address(read_only, kind, shape, out=True)
    wider = (*shape[:-1], 2 * shape[-1])
    bads = [
        array.astype(">" + dtype[1:]) if dtype[0] == "<" else array.astype(float),
        array.astype(RESIZED[kind]),
        np.zeros((*shape[:-1], shape[-1] + 1), dtype=dtype),
        np.zeros((*shape, 1), dtype=dtype),
        array.ravel() if len(shape) > 1 else array[None],
    ]
    if array.size > 1:  # a single item is contiguous at any stride
        bads.append(np.zeros(wider, dtype=dtype)[..., ::2])
    for bad in bads:
        with pytest.raises(ValueError, match="kernel buffer"):
            _csweep._address(bad, kind, shape, out=out)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 6), words=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_kernels_read_plain_buffers_as_numpy_arrays(rows, words, seed):
    cells = np.random.default_rng(seed).integers(0, 1 << 63, size=(rows, words), dtype="<u8")
    plain = _csweep._new("Q", (rows, words))
    plain.cast("B")[:] = cells.tobytes()
    for kernels in kernel_sets():
        assert kernels.count(plain) == kernels.count(cells) == kernels.count(plain.toreadonly())
