"""The kernels' one buffer check, plain buffers and numpy arrays alike, and
the one entry of each kernel that both kernel sets run through."""

import inspect
import math
import re
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilutecw import _csweep, _twins, pcg64
from dilutecw.graph import GraphSeed, sample_graph
from dilutecw.model import ModelParams
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
        at = _csweep._address(_csweep._view(good, kind, shape, out=out))
        assert at == np.asarray(good).ctypes.data
    # a read-only buffer is read, and only an output must be writable
    locked = array.copy()
    locked.flags.writeable = False
    assert _csweep._address(_csweep._view(locked, kind, shape)) == locked.ctypes.data
    assert (_csweep._address(_csweep._view(plain.toreadonly(), kind, shape))
            == np.asarray(plain).ctypes.data)
    for read_only in (locked, plain.toreadonly()):
        with pytest.raises(ValueError, match="read-only"):
            _csweep._view(read_only, kind, shape, out=True)
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
            _csweep._view(bad, kind, shape, out=out)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 6), words=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_kernels_read_plain_buffers_as_numpy_arrays(rows, words, seed):
    cells = np.random.default_rng(seed).integers(0, 1 << 63, size=(rows, words), dtype="<u8")
    plain = _csweep._new("Q", (rows, words))
    plain.cast("B")[:] = cells.tobytes()
    for kernels in kernel_sets():
        assert kernels.count(plain) == kernels.count(cells) == kernels.count(plain.toreadonly())


def _prototypes():
    """{name: "return:params"} of every function SOURCE exports, in the
    letters of ``_csweep._SIGNATURES``, with each *_ARGS macro expanded."""
    source = _csweep.SOURCE.replace("\\\n", " ")
    macros = dict(re.findall(r"^#define (\w+_ARGS) (.*)$", source, re.M))
    source = re.sub(r"^#define .*$", "", source, flags=re.M)
    source = re.sub(r"\b\w+_ARGS\b", lambda match: macros[match[0]], source)
    letters = {"void": "v", "int64_t": "i", "uint64_t": "u", "double": "d"}
    found = {}
    for result, name, params in re.findall(r"^(void|int64_t|double) (\w+)\(([^)]*)\)", source,
                                           re.M):
        kinds = "".join(
            "p" if "*" in param else letters[param.split()[-2]]
            for param in params.split(",") if param.strip() != "void"
        )
        found[name] = f"{letters[result]}:{kinds}"
    return found


def test_signature_table_matches_source():
    # a ctypes signature that disagrees with its C prototype is a silent
    # memory error, not an exception
    prototypes = _prototypes()
    suffixes = {"", *(f"_{path}" for path in (*_csweep.PATHS, *_csweep.SAMPLE_PATHS))}
    matched = set()
    for name, signature in _csweep._SIGNATURES.items():
        defined = [f for f in prototypes if f.startswith(name) and f[len(name):] in suffixes]
        assert defined, name
        for function in defined:
            assert prototypes[function] == signature, function
        matched.update(defined)
    assert matched == set(prototypes)


def test_every_kernel_function_has_its_twin_by_name():
    # the C function ``name`` has the twin ``_twins._<name>``, which takes one
    # parameter per letter of its signature; the twins' set runs each of them
    names = set(_csweep._SIGNATURES) - {"cpu_features"}
    for name in names:
        params = _csweep._SIGNATURES[name].split(":")[1]
        assert len(inspect.signature(getattr(_twins, f"_{name}")).parameters) == len(params), name
    assert {raw.__name__ for entry in _twins._TWINS[:-1] for raw in entry.args} == {
        f"_{name}" for name in names}
    # a set is one entry per kernel function and the paths its families run
    assert _csweep._Library._fields[-1] == "paths" and len(_csweep._Library._fields) == 12
    assert _twins._TWINS.paths == {}


def _kernel_calls():
    """One valid call of every kernel of a set, by name."""
    g = sample_graph(ModelParams(n=9, p=0.5, beta=1.0), GraphSeed(9))
    w1, w2, base = _twins._TWINS.masks(g.words)
    plus = _twins._TWINS.plus(9, 0.1)
    locations, cum = array("d", [-1.0, 0.5]), array("d", [0.25, 1.0])
    text = memoryview(bytearray(b"0" * 90)).cast("B", (9, 10))

    def sweep(kernels):
        rngs = np.array([pcg64.seed_row(3)], dtype="<u8")
        return kernels.sweep(w1, w2, base, plus, np.zeros((1, 1), dtype="<u8"), rngs, 2)

    return {
        "sweep": sweep,
        "sample": lambda k: k.sample(9, 4, 1 << 52, 0, np.zeros((9, 1), dtype="<u8")),
        "masks": lambda k: k.masks(g.words),
        "count": lambda k: k.count(g.words),
        "plus": lambda k: k.plus(9, 0.1),
        "histogram": lambda k: k.histogram(g.words),
        "pair_sum": lambda k: k.pair_sum(4, 0.0, 0.1, 0.2, array("d", [0.0] * 5),
                                         array("d", [0.0] * 5)),
        "levy": lambda k: k.levy(locations, cum, 0.0, 1.0, 1e-9),
        "ks": lambda k: k.ks(locations, cum, 0.0, 1.0),
        "format": lambda k: k.format(g.words, text),
        "parse": lambda k: k.parse(text, np.zeros((9, 1), dtype="<u8")),
    }


def _types(value):
    """The Python types of ``value`` and of the items of a tuple or list, and
    the format and shape of a memoryview."""
    if isinstance(value, (tuple, list)):
        return type(value), tuple(map(_types, value))
    if isinstance(value, memoryview):
        return memoryview, value.format, value.shape
    return type(value)


def test_every_kernel_set_returns_the_same_types():
    calls = _kernel_calls()
    kernels = set(_csweep._Library._fields) - {"paths"}
    assert set(calls) == kernels
    twins = {name: _types(call(_twins._TWINS)) for name, call in calls.items()}
    assert twins["masks"] == (tuple, ((memoryview, "Q", (9, 1)),) * 2 + ((memoryview, "q", (9,)),))
    assert twins["plus"] == (memoryview, "d", (37,))
    for library in kernel_sets():
        assert {name: _types(call(library)) for name, call in calls.items()} == twins


def test_bad_buffers_are_refused_before_any_raw_function_runs():
    def untouched(*args):
        raise AssertionError("a raw function ran")

    stub = _csweep._kernels(dict.fromkeys(_csweep._SIGNATURES, untouched), {})
    with pytest.raises(AssertionError, match="raw function ran"):
        _kernel_calls()["count"](stub)
    w1, w2, base = _twins._TWINS.masks(np.zeros((9, 1), dtype="<u8"))
    plus, words = _twins._TWINS.plus(9, 0.1), np.zeros((9, 1), dtype="<u8")
    read_only = memoryview(bytes(90)).cast("B", (9, 10))
    bad_calls = [
        lambda k: k.sweep(w1, w2, base, plus[:-1], np.zeros((1, 1), dtype="<u8"),
                          np.zeros((1, 4), dtype="<u8"), 1),
        lambda k: k.sweep(w1, w2, base, plus, np.zeros((1, 1), dtype="<u8"),
                          np.zeros((1, 4), dtype=np.float64), 1),
        lambda k: k.sample(9, 0, 1 << 52, 0, np.zeros((9, 2), dtype="<u8")),
        lambda k: k.sample(9, 0, 1 << 52, 0, words.astype(np.uint32)),
        lambda k: k.masks(np.zeros((9, 2), dtype="<u8")),
        lambda k: k.count(np.zeros((9, 1), dtype=np.float64)),
        lambda k: k.histogram(np.zeros((9, 1), dtype=">u8")),
        lambda k: k.pair_sum(4, 0.0, 0.0, 0.0, array("d", [0.0] * 4), array("d", [0.0] * 5)),
        lambda k: k.pair_sum(4, 0.0, 0.0, 0.0, array("d", [0.0] * 5), array("f", [0.0] * 5)),
        lambda k: k.levy(array("d", [0.0, 1.0]), array("d", [1.0]), 0.0, 1.0, 1e-9),
        lambda k: k.ks(np.zeros(4)[::2], array("d", [0.5, 1.0]), 0.0, 1.0),
        lambda k: k.format(words, read_only),
        lambda k: k.format(np.zeros((9, 2), dtype="<u8"), bytearray(90)),
        lambda k: k.parse(read_only, np.zeros((9, 1), dtype="<u8")[::-1]),
        lambda k: k.parse(read_only, memoryview(bytes(72)).cast("Q", (9, 1))),
    ]
    for call in bad_calls:
        for kernels in (stub, *kernel_sets()):
            with pytest.raises(ValueError, match="kernel"):
                call(kernels)
