"""Graph sampling determinism and the text round trip."""

import contextlib
import io
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dilutecw.graph as graph_module
from dilutecw import _csweep, _twins, splitmix
from dilutecw.cli import main
from dilutecw.errors import CapacityError, GraphFormatError
from dilutecw.graph import BIT_LIMIT, GraphSeed, read_graph, sample_graph, write_graph
from dilutecw.model import DisorderGraph, ModelParams, _pack_rows
from helpers import kernel_sets, kernels_in_use, path_sets


def test_seed_validation():
    GraphSeed(0)
    GraphSeed((1 << 64) - 1)
    with pytest.raises(ValueError):
        GraphSeed(-1)
    with pytest.raises(ValueError):
        GraphSeed(1 << 64)
    with pytest.raises(ValueError):
        GraphSeed(1.5)


def test_sampling_is_deterministic():
    params = ModelParams(n=33, p=0.4, beta=1.0)
    a = sample_graph(params, GraphSeed(12345))
    b = sample_graph(params, GraphSeed(12345))
    assert a == b


def test_different_seeds_differ():
    params = ModelParams(n=33, p=0.4, beta=1.0)
    a = sample_graph(params, GraphSeed(1))
    b = sample_graph(params, GraphSeed(2))
    assert a != b


def test_p_one_gives_complete_graph():
    params = ModelParams(n=17, p=1.0, beta=1.0)
    g = sample_graph(params, GraphSeed(99))
    assert g == DisorderGraph.complete(17)


def test_edge_frequency_near_p():
    # 400 independent graphs at n=10: the pooled edge frequency estimator has
    # standard error sqrt(p(1-p)/40000) ~ 0.0023, so +-0.01 is > 4 sigma.
    params = ModelParams(n=10, p=0.3, beta=1.0)
    edges = sum(sample_graph(params, GraphSeed(s)).edge_count() for s in range(400))
    freq = edges / (400 * 100)
    assert abs(freq - 0.3) < 0.01


def test_single_edge_frequency_across_seeds():
    # one fixed matrix entry over many seeds, to catch counter-mixing bugs
    # that a pooled count would hide
    params = ModelParams(n=5, p=0.5, beta=1.0)
    hits = sum(int(sample_graph(params, GraphSeed(s))._cells()[2, 3]) for s in range(1000))
    assert 400 < hits < 600


def test_capacity_cap(monkeypatch):
    # with the cap at 16 bits, n = 4 passes and n = 5 is refused before the
    # sampler is looked up
    monkeypatch.setattr(graph_module, "BIT_LIMIT", 16)
    lookups = []
    library = _csweep.library

    def counted():
        lookups.append(1)
        return library()

    monkeypatch.setattr(_csweep, "library", counted)
    assert sample_graph(ModelParams(n=4, p=0.5, beta=1.0), GraphSeed(0)).n == 4
    with pytest.raises(CapacityError, match="25 bits, above the cap of 16"):
        sample_graph(ModelParams(n=5, p=0.5, beta=1.0), GraphSeed(0))
    assert lookups == [1]


def test_roundtrip_through_text(tmp_path):
    params = ModelParams(n=23, p=0.35, beta=1.0)
    g = sample_graph(params, GraphSeed(7))
    path = tmp_path / "g.txt"
    write_graph(g, path)
    assert read_graph(path) == g


def test_roundtrip_through_buffer():
    g = DisorderGraph.from_matrix([[0, 1], [1, 1]])
    buf = io.StringIO()
    write_graph(g, buf)
    text = buf.getvalue()
    assert text == "dilute-cw-graph v1 N=2\n01\n11\n"
    assert read_graph(io.BytesIO(text.encode("ascii"))) == g


def test_text_format_orientation():
    # row i holds the out-edges of site i; character j is edge (i, j)
    g = DisorderGraph.from_matrix([[0, 1, 0], [0, 0, 0], [1, 0, 0]])
    buf = io.StringIO()
    write_graph(g, buf)
    lines = buf.getvalue().splitlines()
    assert lines[1] == "010"
    assert lines[3] == "100"


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("", 1),
        ("not a header\n01\n11\n", 1),
        ("dilute-cw-graph v1 N=x\n", 1),
        ("dilute-cw-graph v1 N=0\n", 1),
        ("dilute-cw-graph v1 N=2\n01\n", 3),
        ("dilute-cw-graph v1 N=2\n011\n11\n", 2),
        ("dilute-cw-graph v1 N=2\n01\n1x\n", 3),
        ("dilute-cw-graph v1 N=2\n01\n11\n10\n", 4),
        # int() alone reads each of these sizes as 2
        *((f"dilute-cw-graph v1 N={size}\n01\n11\n", 1)
          for size in ("\u0662", " 2", "+2", "0_2", "2 ")),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(GraphFormatError) as err:
        read_graph(io.BytesIO(text.encode("latin-1", "replace")))
    assert err.value.line == lineno


def test_read_capacity_cap(monkeypatch):
    # with the cap at 16 bits, n = 4 reads and n = 5 is refused at the header:
    # its missing rows would otherwise be a GraphFormatError
    monkeypatch.setattr(graph_module, "BIT_LIMIT", 16)
    assert read_graph(io.BytesIO(b"dilute-cw-graph v1 N=4\n" + b"0110\n" * 4)).n == 4
    with pytest.raises(CapacityError, match="n=5 needs 25 bits, above the cap of 16"):
        read_graph(io.BytesIO(b"dilute-cw-graph v1 N=5\n"))


# A header line longer than this is refused, and a message quotes at most
# this much of it.
_HEADER_CHARS = 80
_PREFIX = "dilute-cw-graph v1 N="


def _quoted(text: str, limit: int) -> str:
    """Bad header text as a message quotes it: its first ``limit``
    characters, and '...' after the quote where it runs on."""
    return repr(text[:limit]) + ("..." if len(text) > limit else "")


def _oracle_read_graph(source) -> DisorderGraph:
    """The line-by-line v1 reader that the block reader replaced, kept as the
    reference: one readline, length check and character check per row."""
    header = source.readline()
    if header == "":
        raise GraphFormatError("empty input, expected header", line=1)
    header = header.rstrip("\n")
    prefix = _PREFIX
    if not header.startswith(prefix):
        raise GraphFormatError(
            f"bad header {_quoted(header, _HEADER_CHARS)}, expected '{prefix}<n>'", line=1
        )
    size_text = header[len(prefix):]
    try:
        n = int(size_text)
    except ValueError:
        shown = _quoted(size_text, _HEADER_CHARS - len(prefix))
        raise GraphFormatError(f"bad size field {shown} in header", line=1) from None
    if n < 1:
        raise GraphFormatError(f"declared size must be positive, got {n}", line=1)
    if n * n > BIT_LIMIT:
        raise CapacityError(
            f"declared size n={n} needs {n * n} bits, above the cap of {BIT_LIMIT}"
        )
    rows = []
    for i in range(n):
        line = source.readline()
        lineno = i + 2
        if line == "":
            raise GraphFormatError(f"file ends after {i} of {n} rows", line=lineno)
        line = line.rstrip("\n")
        if len(line) != n:
            raise GraphFormatError(f"row has {len(line)} characters, expected {n}", line=lineno)
        bad = set(line) - {"0", "1"}
        if bad:
            raise GraphFormatError(
                f"row contains {sorted(bad)!r}, expected only '0'/'1'", line=lineno
            )
        rows.append([int(c) for c in line])
    trailing = source.readline()
    if trailing.strip():
        raise GraphFormatError("unexpected content after last row", line=n + 2)
    return DisorderGraph.from_matrix(rows)


def _outcome(read, source):
    try:
        return read(source)
    except (GraphFormatError, CapacityError) as err:
        return type(err).__name__, getattr(err, "line", None), str(err)


def _expected(text: str):
    """The oracle's outcome, plus the three rules the block reader adds: the
    header's size field is ASCII digits only, where the oracle's int() also
    takes a sign, spaces and underscores; a header line of more than
    ``_HEADER_CHARS`` characters is a bad size field; and any non-whitespace
    line after the last row is refused, not only the first."""
    prefix = _PREFIX
    header = text.split("\n", 1)[0]
    size_text = header.removeprefix(prefix)
    if header.startswith(prefix) and (
        len(header) > _HEADER_CHARS or not (size_text.isascii() and size_text.isdigit())
    ):
        shown = _quoted(size_text, _HEADER_CHARS - len(prefix))
        message = f"line 1: bad size field {shown} in header"
        return "GraphFormatError", 1, message
    source = io.StringIO(text)
    result = _outcome(_oracle_read_graph, source)
    if isinstance(result, DisorderGraph):
        # The oracle consumed line n + 2 when anything followed the rows.
        for lineno, line in enumerate(iter(source.readline, ""), start=result.n + 3):
            if line.strip():
                message = f"line {lineno}: unexpected content after last row"
                return "GraphFormatError", lineno, message
    return result


@contextlib.contextmanager
def _block_cells(cells: int):
    """Within the block, the writer's and the reader's blocks hold about
    ``cells`` cells."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_WRITE_CELLS", cells)
        patch.setattr(graph_module, "_READ_CELLS", cells)
        yield


_STRAY = ["2", "x", " ", "\t", "\r", "\n", "\x00", "\x0c", "\xc3", "\xff", "é", "€", "\U0001f600"]


@st.composite
def graph_texts(draw, max_n=300):
    """A valid v1 file, then up to three mutations of its text."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    cells = np.random.default_rng(draw(st.integers(0, 2**32))).integers(0, 2, size=(n, n))
    rows = ["".join("01"[c] for c in row) for row in cells]
    header = f"dilute-cw-graph v1 N={n}"
    text = header + "\n" + "\n".join(rows) + "\n"
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["truncate", "drop_rows", "extra_rows", "row_length", "stray", "crlf", "no_final_newline",
             "header", "trailing"]
        ))
        if kind == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
        elif kind == "drop_rows":
            lines = text.split("\n")
            text = "\n".join(lines[: max(0, len(lines) - draw(st.integers(1, 3)))])
        elif kind == "extra_rows":
            extra = draw(st.integers(1, 3))
            length = draw(st.sampled_from([n, n - 1, n + 1]))
            text += "".join("1" * max(length, 0) + "\n" for _ in range(extra))
        elif kind == "row_length":
            lines = text.split("\n")
            at = draw(st.integers(1, max(1, len(lines) - 1)))
            if at < len(lines):
                cut = draw(st.integers(-2, 2))
                lines[at] = lines[at][:cut] if cut < 0 else lines[at] + "0" * cut
            text = "\n".join(lines)
        elif kind == "stray" and text:
            at = draw(st.integers(0, len(text) - 1))
            text = text[:at] + draw(st.sampled_from(_STRAY)) + text[at + 1:]
        elif kind == "crlf":
            text = text.replace("\n", "\r\n")
        elif kind == "no_final_newline":
            text = text.rstrip("\n")
        elif kind == "header":
            variant = draw(st.sampled_from(
                [f"N= {n}", f"N=+{n}", f"N={n} ", "N=0", "N=-1", f"N={n + 1}", f"N={n - 1}",
                 "N=", "N=1e3", "N=100000", f"n={n}", f"N={n}\r"]
            ))
            text = text.replace(f"N={n}", variant, 1)
        elif kind == "trailing":
            text += draw(st.sampled_from(["\n", " \n", "\n\n", "\t\r\n", "\nGARBAGE\n", "\n \nx"]))
    return text


def _translated(data: bytes) -> str:
    """``data`` as a latin-1 text reader gives it, with universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="latin-1").read()


@settings(max_examples=300, deadline=None)
@given(graph_texts(), st.sampled_from([1, 7, 500, 1 << 16]))
def test_block_reader_matches_line_oracle(text, cells):
    # Through a binary file object, as through a path: universal newlines
    # turn CRLF and lone CR into LF, and each byte is a latin-1 character.
    data = text.encode("latin-1", "replace")
    with _block_cells(cells):
        assert _outcome(read_graph, io.BytesIO(data)) == _expected(_translated(data))


@settings(max_examples=100, deadline=None)
@given(graph_texts(max_n=40), st.sampled_from([1, 50, 1 << 16]))
def test_block_reader_matches_line_oracle_on_files(text, cells):
    # Through a path: universal newlines turn CRLF and lone CR into LF for
    # both readers alike.  Text is kept to latin-1, one byte per character.
    text = text.encode("latin-1", "replace").decode("latin-1")
    with tempfile.TemporaryDirectory() as tmp, _block_cells(cells):
        path = os.path.join(tmp, "g.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode("latin-1"))
        with open(path, encoding="latin-1") as fh:
            translated = fh.read()
        for kernels in kernel_sets():
            with kernels_in_use(kernels):
                assert _outcome(read_graph, path) == _expected(translated)


def test_roundtrip_across_row_blocks(tmp_path):
    # n = 1500 takes several row blocks in sampling, writing and reading.
    params = ModelParams(n=1500, p=0.3, beta=1.0)
    g = sample_graph(params, GraphSeed(5))
    path = tmp_path / "g.txt"
    write_graph(g, path)
    assert read_graph(path) == g
    with open(path) as fh:
        assert _oracle_read_graph(fh) == g


def test_sampling_matches_scalar_mix():
    # Each cell against the scalar finalizer of its own counter, by
    # sample_graph and by every kernel set's sampler.
    n, p, seed = 37, 0.4, (1 << 64) - 5
    thr = round(p * (1 << 53))
    graphs = [sample_graph(ModelParams(n=n, p=p, beta=1.0), GraphSeed(seed))]
    for kernels in kernel_sets():
        words = np.empty((n, 1), dtype="<u8")
        kernels.sample(n, seed, thr, 0, words)
        graphs.append(DisorderGraph(n, words))
    for g in graphs:
        cells = g._cells()
        for i in range(n):
            for j in range(n):
                z = splitmix.finalize((seed + (i * n + j + 1) * splitmix.GAMMA) & splitmix.MASK64)
                assert cells[i, j] == ((z >> 11) < thr)


def _sampled_words(sample, n, p, seed, start=0, stop=None):
    """Rows start .. stop - 1 of a graph as mask words, by ``sample`` (a
    kernel set's ``sample``), one row block at a time."""
    stop = n if stop is None else stop
    out = np.empty((stop - start, (n + 63) // 64), dtype="<u8")
    step = graph_module._block_rows(n, 1 << 16)
    threshold = graph_module.bernoulli_threshold(p)
    for at in range(start, stop, step):
        sample(n, seed, threshold, at, out[at - start:at - start + step])
    return out


def _sampler_path(name):
    """The compiled sampler of one path, or skip when this host cannot run it."""
    if _csweep.library() is _twins._TWINS:
        pytest.skip("no compiled kernels on this host")
    kernels = path_sets("sample_rows").get(name)
    if kernels is None:
        pytest.skip(f"this CPU does not run the {name} sampler")
    return kernels.sample


@pytest.mark.parametrize("path", _csweep.SAMPLE_PATHS)
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 1000, 1500, 4100])
def test_every_sampler_path_matches_numpy_sampler(path, n):
    # n = 1500 and 4100 span many row blocks
    sample = _sampler_path(path)
    for p in (1e-3, 0.3, 0.5, 1.0):
        for seed in (0, 7, (1 << 64) - 1):
            want = _sampled_words(_twins._TWINS.sample, n, p, seed)
            assert _sampled_words(sample, n, p, seed).tobytes() == want.tobytes(), (p, seed)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 300),
    p=st.one_of(st.sampled_from([1e-3, 0.5, 1.0]), st.floats(1e-6, 1.0)),
    seed=st.integers(0, (1 << 64) - 1),
    data=st.data(),
)
def test_sampler_paths_match_numpy_sampler_property(n, p, seed, data):
    if _csweep.library() is _twins._TWINS:
        pytest.skip("no compiled kernels on this host")
    # any run of rows regenerates on its own
    start = data.draw(st.integers(0, n - 1))
    stop = data.draw(st.integers(start + 1, n))
    want = _sampled_words(_twins._TWINS.sample, n, p, seed, start, stop).tobytes()
    for name, kernels in path_sets("sample_rows").items():
        assert _sampled_words(kernels.sample, n, p, seed, start, stop).tobytes() == want, name


def test_sample_graph_matches_numpy_fallback(monkeypatch):
    params = ModelParams(n=1500, p=0.3, beta=1.0)
    compiled = sample_graph(params, GraphSeed(11))
    monkeypatch.setattr(_csweep, "_loaded", [_twins._TWINS])
    assert _csweep.library().paths == {}
    assert sample_graph(params, GraphSeed(11)) == compiled


def test_sampler_rejects_bad_arguments():
    out = np.zeros((4, 2), dtype="<u8")
    for library in kernel_sets():
        library.sample(70, 0, 1 << 52, 66, out)
        for n, seed, threshold, start, bad in (
            (70, 0, 1 << 52, 67, out),  # rows past n
            (70, 0, 1 << 52, -1, out),
            (70, -1, 1 << 52, 0, out),
            (70, 0, (1 << 53) + 1, 0, out),
            (70, 0, 1 << 52, 0, np.zeros((4, 1), dtype="<u8")),
            (70, 0, 1 << 52, 0, np.zeros((4, 2), dtype=np.float64)),
            (70, 0, 1 << 52, 0, np.zeros((4, 2), dtype=np.uint32)),
            (70, 0, 1 << 52, 0, np.zeros((4, 4), dtype="<u8")[:, ::2]),
        ):
            with pytest.raises(ValueError):
                library.sample(n, seed, threshold, start, bad)


def test_write_matches_row_formatting(tmp_path):
    # one row a block, through a text stream and through a path, on every
    # kernel set
    g = sample_graph(ModelParams(n=70, p=0.5, beta=1.0), GraphSeed(3))
    lines = ["".join(map(str, row)) for row in g._cells().tolist()]
    want = "dilute-cw-graph v1 N=70\n" + "\n".join(lines) + "\n"
    path = tmp_path / "g.txt"
    for kernels in kernel_sets():
        buf = io.StringIO()
        with kernels_in_use(kernels), _block_cells(128):
            assert graph_module._block_rows(g.n, graph_module._WRITE_CELLS) == 1
            write_graph(g, buf)
            write_graph(g, path)
        assert buf.getvalue() == want
        assert path.read_bytes() == want.encode("ascii")


# Bytes a corrupted cell or newline takes: the two cells and the newline
# (which leave a cell or a newline valid only in their own place), their
# neighbours under (c | 1), and bytes that differ from a cell in one high bit.
_CORRUPT_BYTES = [0x30, 0x31, 0x0A, 0x0D, 0x20, 0x32, 0x33, 0x2F, 0x00, 0x01, 0x0B, 0x70, 0x71,
                  0xB0, 0xB1, 0xFF]


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.sampled_from([1, 63, 64, 65, 127, 128, 129]), st.integers(1, 200)),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_text_kernels_are_the_same_on_every_kernel_set(n, k, seed, data):
    # format gives the same lines, and parse the same words and the same
    # first bad row, with one byte of one row corrupted, on every kernel set
    cells = np.random.default_rng(seed).integers(0, 2, size=(k, n), dtype=np.uint8)
    words = np.empty((k, (n + 63) // 64), dtype="<u8")
    _pack_rows(cells, words)
    want = "".join("".join("01"[c] for c in row) + "\n" for row in cells.tolist()).encode()
    row = data.draw(st.integers(0, k - 1))
    column = data.draw(st.integers(0, n))  # column n is the newline
    byte = data.draw(st.one_of(st.sampled_from(_CORRUPT_BYTES), st.integers(0, 255)))
    valid = byte in (0x30, 0x31) if column < n else byte == 0x0A
    first_bad = k if valid else row
    for kernels in kernel_sets():
        text = np.empty((k, n + 1), dtype=np.uint8)
        kernels.format(words, text)
        assert text.tobytes() == want
        # every bit past column n - 1 is cleared, not left as it was
        got = np.full_like(words, np.iinfo(np.uint64).max)
        assert kernels.parse(text, got) == k
        assert got.tobytes() == words.tobytes()
        text[row, column] = byte
        got = np.full_like(words, np.iinfo(np.uint64).max)
        assert kernels.parse(text, got) == first_bad
        expected = words.copy()
        _pack_rows(text[:, :n] & 1, expected)
        assert got[:first_bad].tobytes() == expected[:first_bad].tobytes()


def test_text_kernels_refuse_bad_buffers():
    # the compiled kernels trust every length; the twins refuse the same calls
    words = np.zeros((3, 2), dtype="<u8")
    text = np.zeros((3, 71), dtype=np.uint8)
    for kernels in kernel_sets():
        kernels.format(words, text)
        assert kernels.parse(text, words) == 3
        for bad_words, bad_text in (
            (words.astype(np.float64), text), (words.astype(">u8"), text),
            (words, text.astype(np.uint16)), (words[:2], text), (words[:, :1], text),
            (words, text[:, :65]), (np.zeros((3, 4), dtype="<u8")[:, ::2], text),
            (words, np.zeros((3, 142), dtype=np.uint8)[:, ::2]), (words, text.ravel()),
            (words, text[:, :1]),
        ):
            for call in (lambda: kernels.format(bad_words, bad_text),
                         lambda: kernels.parse(bad_text, bad_words)):
                with pytest.raises(ValueError, match="kernel buffer"):
                    call()
        locked_words, locked_text = words.copy(), text.copy()
        locked_words.flags.writeable = locked_text.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            kernels.format(words, locked_text)
        with pytest.raises(ValueError, match="read-only"):
            kernels.parse(text, locked_words)
        # only the buffer a call writes must be writable
        kernels.format(locked_words, text)
        assert kernels.parse(locked_text, words) == 3


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("dilute-cw-graph v1 N=2\n01\n11\n\nGARBAGE\n", 5),
        ("dilute-cw-graph v1 N=2\n01\n11\n \n\t\n10\n", 6),
        ("dilute-cw-graph v1 N=2\n01\n11\n\n\n\nx", 7),
    ],
)
def test_content_after_blank_line_is_refused(text, lineno, tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("ascii"))
    for source in (io.BytesIO(text.encode("ascii")), path):
        with pytest.raises(GraphFormatError, match="after last row") as err:
            read_graph(source)
        assert err.value.line == lineno


def test_content_after_more_whitespace_than_one_read(tmp_path):
    # the text after the rows is checked a read at a time, and its lines
    # are counted across reads
    text = "dilute-cw-graph v1 N=2\n01\n11\n" + " \r\n" * 40000 + "\tx\n"
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("ascii"))
    for source in (io.BytesIO(text.encode("ascii")), path):
        with pytest.raises(GraphFormatError, match="after last row") as err:
            read_graph(source)
        assert err.value.line == 40004


@pytest.mark.parametrize(
    "text",
    [
        "dilute-cw-graph v1 N=2\n01\n11",
        "dilute-cw-graph v1 N=2\n01\n11\n\n \n\t\n",
        "dilute-cw-graph v1 N=2\r\n01\r\n11\r\n\r\n",
        "dilute-cw-graph v1 N=2\r01\r11\r",
        "dilute-cw-graph v1 N=2\r01\n11\n",
        # latin-1 whitespace: str.strip() takes each of these
        "dilute-cw-graph v1 N=2\n01\n11\n\x85",
        "dilute-cw-graph v1 N=2\n01\n11\n\xa0\n",
        "dilute-cw-graph v1 N=2\n01\n11\n\x1c\r\n",
    ],
)
def test_accepted_variants_from_a_file(text, tmp_path):
    # universal newlines hand the parse kernel LF lines, and every byte is
    # one latin-1 character
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("latin-1"))
    for kernels in kernel_sets():
        with kernels_in_use(kernels):
            assert read_graph(path) == DisorderGraph.from_matrix([[0, 1], [1, 1]])


def test_non_ascii_byte_is_a_cell_error(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"dilute-cw-graph v1 N=2\n01\n1\xc3\n")
    for kernels in kernel_sets():
        with kernels_in_use(kernels), pytest.raises(GraphFormatError) as err:
            read_graph(path)
        assert err.value.line == 3
        assert str(err.value) == "line 3: row contains ['\xc3'], expected only '0'/'1'"


@pytest.mark.parametrize(
    "text,message",
    [
        ("x" * 100 + "\n01\n", f"bad header {'x' * 80!r}..., expected '{_PREFIX}<n>'"),
        ("x" * 80 + "\n01\n", f"bad header {'x' * 80!r}, expected '{_PREFIX}<n>'"),
        (_PREFIX + "0" * 58 + "2\n01\n11\n", None),
        (_PREFIX + "0" * 59 + "2\n01\n11\n", f"bad size field {'0' * 59!r}... in header"),
        (_PREFIX + "1" * 10**6, f"bad size field {'1' * 59!r}... in header"),
    ],
    ids=["100-characters", "80-characters", "59-digits", "60-digits", "million-digits"],
)
def test_header_is_read_to_eighty_characters(text, message, tmp_path):
    # a longer header line is a bad header or a bad size field, quoted to
    # its first 80 characters, from a binary file object and from a path
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("ascii"))
    for source in (io.BytesIO(text.encode("ascii")), path):
        if message is None:
            assert read_graph(source) == DisorderGraph.from_matrix([[0, 1], [1, 1]])
            continue
        with pytest.raises(GraphFormatError) as err:
            read_graph(source)
        assert str(err.value) == f"line 1: {message}"


def test_empty_input_and_empty_header_are_told_apart(tmp_path):
    path = tmp_path / "g.txt"
    for text, message in (("", "empty input, expected header"),
                          ("\n01\n", f"bad header '', expected '{_PREFIX}<n>'")):
        path.write_bytes(text.encode("ascii"))
        for source in (io.BytesIO(text.encode("ascii")), path):
            with pytest.raises(GraphFormatError) as err:
                read_graph(source)
            assert str(err.value) == f"line 1: {message}"


def test_long_bad_row_is_read_in_large_pieces(tmp_path, monkeypatch):
    # at n = 2 a block is two rows, but the rest of a bad row, here a
    # megabyte long, is read in pieces of _READ_BYTES
    path = tmp_path / "g.txt"
    path.write_bytes(b"dilute-cw-graph v1 N=2\n01\n" + b"1" * 2**20 + b"\n")
    reads = []
    fill = graph_module._FileText.fill

    def counted(self, buffer, size):
        reads.append(size)
        return fill(self, buffer, size)

    monkeypatch.setattr(graph_module._FileText, "fill", counted)
    with pytest.raises(GraphFormatError, match="row has 1048576 characters, expected 2") as err:
        read_graph(path)
    assert err.value.line == 3
    assert len(reads) < 30 + 2**20 // graph_module._READ_BYTES


@pytest.mark.parametrize(
    "data,message",
    [
        (b"dilute-cw-graph v1 N=\xb2\n01\n11\n", "line 1: bad size field '\xb2' in header"),
        (b"dilute-cw-graph v1 N=4\n0101\nx\xc3 x\n",
         "line 3: row contains [' ', 'x', '\xc3'], expected only '0'/'1'"),
    ],
)
def test_bad_bytes_are_quoted_as_latin_1(data, message, tmp_path):
    # each byte is one latin-1 character, and a bad row names each of its
    # bad characters once, in order
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    for kernels in kernel_sets():
        with kernels_in_use(kernels), pytest.raises(GraphFormatError) as err:
            read_graph(path)
        assert str(err.value) == message


def test_bad_row_is_scanned_in_bounded_memory(tmp_path):
    # a bad last row of 16 MiB without a newline is measured a buffer at a
    # time, never held whole
    path = tmp_path / "g.txt"
    path.write_bytes(b"dilute-cw-graph v1 N=2\n01\n" + b"1" * 2**24)
    _csweep.library()  # loaded before the trace, which measures the read alone
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError) as err:
            read_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "line 3: row has 16777216 characters, expected 2"
    assert peak < 2**20


def _declared_size(text: str, default: int) -> int:
    """The header's N when it is a small positive integer, else ``default``."""
    # the reader's universal newlines end a line at "\r" as well as "\n"
    header = text.replace("\r", "\n").split("\n", 1)[0]
    try:
        size = int(header.removeprefix("dilute-cw-graph v1 N="))
    except ValueError:
        return default
    return size if 1 <= size <= 14 else default


@settings(max_examples=150, deadline=None)
@given(graph_texts(max_n=12), st.sampled_from(["utf-8", "latin-1"]))
def test_cli_on_fuzzed_graph_files(text, encoding):
    # Every graph file ends in a result (0) or a typed error: capacity (3)
    # or bad graph file (4), never a traceback.  --n is the size the file
    # declares, so a size mismatch (2) cannot arise.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode(encoding, "replace"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([
                "exact-partition", "--n", str(_declared_size(text, 1)), "--p", "0.5",
                "--beta", "0.4", "--graph", path,
            ])
    assert code in (0, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 4:
        assert "bad graph file" in err.getvalue()
