"""Core type behavior, and the per-configuration oracles of the tests checked
against a naive double-loop energy."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilutecw import _twins
from dilutecw.model import DisorderGraph, ModelParams
from helpers import SpinConfig, gibbs_log_weight, interaction_sum, kernel_sets, kernels_in_use


def naive_hamiltonian(matrix, signs, n, p):
    """Independent oracle: the literal double sum, no bit tricks."""
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += matrix[i][j] * signs[i] * signs[j]
    return -total / (2.0 * n * p)


def energy(g, sigma, params):
    """H(sigma) = -interaction_sum / (2 n p), from the oracle's integer sum."""
    return -interaction_sum(g, sigma) / (2.0 * params.n * params.p)


def test_params_validation():
    ModelParams(n=1, p=1.0, beta=0.0)
    with pytest.raises(ValueError):
        ModelParams(n=0, p=0.5, beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(n=4, p=0.0, beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(n=4, p=1.2, beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(n=4, p=0.5, beta=-0.1)
    for beta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(n=4, p=0.5, beta=beta)


def test_gamma():
    params = ModelParams(n=10, p=0.25, beta=1.5)
    assert params.gamma == pytest.approx(1.5 / (2 * 10 * 0.25))


def test_spin_roundtrip():
    signs = [1, -1, -1, 1, 1]
    sigma = SpinConfig.from_signs(signs)
    assert sigma.n == 5
    assert sigma.to_signs() == signs
    assert sigma.spin_sum() == sum(signs)


def test_spin_validation():
    with pytest.raises(ValueError):
        SpinConfig(n=3, bits=8)
    with pytest.raises(ValueError):
        SpinConfig.from_signs([1, 0, -1])
    with pytest.raises(ValueError):
        SpinConfig.from_signs([])


def test_graph_constructors():
    g = DisorderGraph.complete(4)
    assert g.edge_count() == 16
    assert DisorderGraph.empty(4).edge_count() == 0
    m = [[0, 1, 0], [1, 0, 1], [0, 0, 1]]
    g = DisorderGraph.from_matrix(m)
    cells = g._cells()
    assert cells.tolist() == m
    assert cells[0, 1] and not cells[1, 1] and cells[2, 2]


def test_graph_validation():
    with pytest.raises(ValueError):
        DisorderGraph.from_matrix([[0, 2], [0, 0]])
    # entries were once truncated with int(), so this gave the rows 2 and 1
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is 0.5"):
        DisorderGraph.from_matrix([[0.5, 1.9], [1, 0]])
    for bad in ([[0, 1], [1, -1]], [[0, "1"], [1, 0]], [[0, 1], [1]], [[0, 1]], [[None]]):
        with pytest.raises(ValueError):
            DisorderGraph.from_matrix(bad)
    assert DisorderGraph.from_matrix([[True, False], [True, True]])._cells().tolist() == [[1, 0], [1, 1]]


@st.composite
def graph_matrices(draw):
    """A 0/1 matrix as nested lists, n in 1 .. 130 so that rows of one, two and
    three words and both sides of each word boundary occur, and spin bits."""
    n = draw(st.one_of(st.integers(1, 130), st.sampled_from([63, 64, 65, 127, 128, 129])))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = (rng.random((n, n)) < density).astype(int).tolist()
    return matrix, draw(st.integers(0, (1 << n) - 1))


@settings(max_examples=80, deadline=None)
@given(graph_matrices())
def test_graph_words_match_nested_matrix(data):
    matrix, bits = data
    n = len(matrix)
    g = DisorderGraph.from_matrix(matrix)
    words = (n + 63) // 64
    assert g.words.shape == (n, words) and g.words.format == "Q" and g.words.readonly
    assert g._cells().tolist() == matrix
    assert DisorderGraph.from_matrix(g._cells()) == g
    # edge (i, j) is bit j % 64 of word j // 64 of row i
    assert all((int(g.words[i, j >> 6]) >> (j & 63)) & 1 == matrix[i][j]
               for i in range(n) for j in range(n))
    assert g.edge_count() == sum(map(sum, matrix))
    # the row counts in blocks of one or two rows, as in whole
    with mock.patch.object(_twins, "_COUNT_CELLS", 128):
        assert _twins._row_bits(g.words).tolist() == [sum(row) for row in matrix]
    signs = SpinConfig(n=n, bits=bits).to_signs()
    want = sum(matrix[i][j] * signs[i] * signs[j] for i in range(n) for j in range(n))
    assert interaction_sum(g, SpinConfig(n=n, bits=bits)) == want

    with pytest.raises(TypeError, match="read-only"):
        g.words[0, 0] = 1
    # a numpy array is taken as it is, without a copy
    copy = np.array(g.words)
    assert DisorderGraph(n, copy) == g and hash(DisorderGraph(n, copy)) == hash(g)
    assert np.shares_memory(np.asarray(DisorderGraph(n, copy).words), copy)
    if n % 64:
        copy[n - 1, -1] |= np.uint64(1 << (n % 64))
        with pytest.raises(ValueError, match="beyond column"):
            DisorderGraph(n, copy)
    bads = [
        np.zeros((n, words + 1), dtype="<u8"),
        np.zeros((n + 1, words), dtype="<u8"),
        np.zeros(n * words, dtype="<u8"),
        np.zeros((n, words), dtype=np.float64),
        np.zeros((n, words), dtype=np.uint32),
        np.zeros((n, words), dtype=">u8"),
        [[0] * words] * n,
    ]
    if n > 1:  # a single word is contiguous at any stride
        bads.append(np.zeros((2 * n, words), dtype="<u8")[::2])
    for bad in bads:
        with pytest.raises(ValueError, match="words must be"):
            DisorderGraph(n, bad)


def test_hamiltonian_empty_graph_is_zero():
    params = ModelParams(n=5, p=0.5, beta=1.0)
    g = DisorderGraph.empty(5)
    for bits in range(32):
        assert energy(g, SpinConfig(n=5, bits=bits), params) == 0.0


def test_hamiltonian_complete_graph():
    # On a complete graph the double sum is (sum of spins)^2, so for any
    # uniform configuration at n=4, p=0.5: H = -16 / (2*4*0.5) = -4.
    params = ModelParams(n=4, p=0.5, beta=1.0)
    g = DisorderGraph.complete(4)
    assert energy(g, SpinConfig.all_up(4), params) == pytest.approx(-4.0)
    assert energy(g, SpinConfig.all_down(4), params) == pytest.approx(-4.0)
    # mixed: spin sum 2 -> H = -4 / 4 = -1
    sigma = SpinConfig.from_signs([1, 1, 1, -1])
    assert energy(g, sigma, params) == pytest.approx(-1.0)


def test_hamiltonian_small_oracle():
    matrix = [[1, 0, 1], [1, 1, 0], [0, 1, 0]]
    g = DisorderGraph.from_matrix(matrix)
    params = ModelParams(n=3, p=0.4, beta=0.7)
    for bits in range(8):
        sigma = SpinConfig(n=3, bits=bits)
        want = naive_hamiltonian(matrix, sigma.to_signs(), 3, 0.4)
        assert energy(g, sigma, params) == pytest.approx(want, abs=1e-14)


def test_gibbs_log_weight_complete_n2():
    # n=2, p=1, beta=1, complete graph, all spins up: the double sum is 4
    # and gamma = 1/4, so the log weight is exactly 1.
    params = ModelParams(n=2, p=1.0, beta=1.0)
    g = DisorderGraph.complete(2)
    assert gibbs_log_weight(g, SpinConfig.all_up(2), params) == pytest.approx(1.0)
    assert gibbs_log_weight(g, SpinConfig.all_down(2), params) == pytest.approx(1.0)
    mixed = SpinConfig.from_signs([1, -1])
    assert gibbs_log_weight(g, mixed, params) == pytest.approx(0.0)


def test_gibbs_log_weight_matches_hamiltonian():
    params = ModelParams(n=6, p=0.5, beta=1.3)
    matrix = [[1 if (i * 7 + j * 3) % 5 < 2 else 0 for j in range(6)] for i in range(6)]
    g = DisorderGraph.from_matrix(matrix)
    for bits in (0, 17, 42, 63):
        sigma = SpinConfig(n=6, bits=bits)
        assert gibbs_log_weight(g, sigma, params) == pytest.approx(
            -params.beta * naive_hamiltonian(matrix, sigma.to_signs(), 6, 0.5), abs=1e-13
        )


def test_size_mismatch_errors():
    params = ModelParams(n=3, p=0.5, beta=1.0)
    g = DisorderGraph.empty(4)
    sigma = SpinConfig.all_up(3)
    with pytest.raises(ValueError, match="incompatible sizes"):
        interaction_sum(g, sigma)
    with pytest.raises(ValueError, match="incompatible sizes"):
        gibbs_log_weight(g, SpinConfig.all_up(4), params)
    with pytest.raises(ValueError, match="incompatible sizes"):
        gibbs_log_weight(DisorderGraph.empty(3), sigma, ModelParams(n=4, p=0.5, beta=1.0))


@st.composite
def graph_and_spins(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    matrix = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    bits = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return n, matrix, bits


@settings(max_examples=200, deadline=None)
@given(graph_and_spins())
def test_interaction_sum_matches_double_loop(data):
    n, matrix, bits = data
    g = DisorderGraph.from_matrix(matrix)
    sigma = SpinConfig(n=n, bits=bits)
    signs = sigma.to_signs()
    want = sum(matrix[i][j] * signs[i] * signs[j] for i in range(n) for j in range(n))
    assert interaction_sum(g, sigma) == want


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(st.sampled_from([63, 64, 65, 127, 128, 129]), st.integers(1, 200)),
    density=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_count_kernel_is_the_same_on_every_kernel_set(n, density, seed):
    # the sum of the rows' popcounts, on every kernel set, for a drawn graph
    # and for the empty and complete graphs of the same size
    matrix = np.random.default_rng(seed).random((n, n)) < density
    for g in (DisorderGraph.from_matrix(matrix), DisorderGraph.empty(n),
              DisorderGraph.complete(n)):
        want = int(_twins._row_bits(g.words).sum())
        assert want == int(g._cells().sum())
        for kernels in kernel_sets():
            assert kernels.count(g.words) == want
            with kernels_in_use(kernels):
                assert g.edge_count() == want


def test_count_kernel_refuses_bad_buffers():
    # the compiled kernel trusts the length; the twin refuses the same calls
    words = np.full((3, 2), np.iinfo(np.uint64).max, dtype="<u8")
    for kernels in kernel_sets():
        assert kernels.count(words) == 384
        for bad in (words.astype(np.float64), words.astype(">u8"), words.astype(np.uint32),
                    np.zeros((3, 4), dtype="<u8")[:, ::2], words.ravel(), words[None],
                    words[:, :0]):
            with pytest.raises(ValueError, match="kernel buffer"):
                kernels.count(bad)
        # the words of a graph are read-only, which a count accepts
        locked = words.copy()
        locked.flags.writeable = False
        assert kernels.count(locked) == 384
