"""Atomic measures, distances against Gaussian references, summaries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from dilutecw import stats
from dilutecw.stats import (
    EmpiricalMeasure,
    NormalRef,
    ks_distance,
    levy_distance,
    m_plus,
    summarize,
)
from helpers import kernel_sets, kernels_in_use, total_variation


def test_measure_construction():
    m = EmpiricalMeasure([-1.0, 0.0, 2.0], [0.25, 0.5, 0.25])
    assert len(m.locations) == 3
    assert m.mean() == pytest.approx(0.25)
    assert m.variance() == pytest.approx(0.25 + 0.5 * 0 + 0.25 * 4 - 0.25**2)


def test_measure_validation():
    with pytest.raises(ValueError):
        EmpiricalMeasure([0.0, 1.0], [0.5, 0.6])
    with pytest.raises(ValueError):
        EmpiricalMeasure([1.0, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        EmpiricalMeasure([0.0, 1.0], [-0.1, 1.1])
    with pytest.raises(ValueError):
        EmpiricalMeasure([], [])
    with pytest.raises(ValueError):
        EmpiricalMeasure([0.0, 1.0], [0.0, 0.0])


def test_measure_drops_zero_atoms():
    m = EmpiricalMeasure([0.0, 1.0, 2.0], [0.5, 0.0, 0.5])
    assert len(m.locations) == 2
    assert list(m.locations) == [0.0, 2.0]


def test_measure_cdf_sides():
    m = EmpiricalMeasure([0.0, 1.0], [0.3, 0.7])
    assert m.cdf(-0.5) == 0.0
    assert m.cdf(0.0) == pytest.approx(0.3)
    assert m.cdf(0.5) == pytest.approx(0.3)
    assert m.cdf(1.0) == pytest.approx(1.0)
    assert m.cdf(9.0) == 1.0


def test_from_samples_counts():
    m = EmpiricalMeasure.from_samples([1.0, 0.0, 1.0, 1.0])
    assert list(m.locations) == [0.0, 1.0]
    assert list(m.weights) == [0.25, 0.75]
    with pytest.raises(ValueError):
        EmpiricalMeasure.from_samples([])


def test_total_variation():
    a = EmpiricalMeasure([0.0, 1.0], [0.5, 0.5])
    b = EmpiricalMeasure([0.0, 2.0], [0.25, 0.75])
    # mass differences: 0.25 at 0, 0.5 at 1, 0.75 at 2
    assert total_variation(a, b) == pytest.approx(0.75)
    assert total_variation(a, a) == 0.0
    assert total_variation(b, a) == total_variation(a, b)


def test_normal_ref_cdf_against_scipy():
    ref = NormalRef(mean=0.5, variance=2.0)
    for t in (-3.0, -0.5, 0.5, 1.7, 4.0):
        want = scipy_stats.norm.cdf(t, loc=0.5, scale=math.sqrt(2.0))
        assert ref.cdf(t) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        NormalRef(mean=0.0, variance=0.0)


def test_ks_point_mass_against_standard_normal():
    m = EmpiricalMeasure([0.0], [1.0])
    assert ks_distance(m, NormalRef(0.0, 1.0)) == pytest.approx(0.5, rel=1e-12)


def test_ks_two_atoms_hand_value():
    # atoms at -1 and 1, weight 1/2 each: the largest gap is 1/2 - Phi(-1)
    m = EmpiricalMeasure([-1.0, 1.0], [0.5, 0.5])
    ref = NormalRef(0.0, 1.0)
    want = 0.5 - ref.cdf(-1.0)
    assert ks_distance(m, ref) == pytest.approx(want, rel=1e-12)


def test_levy_against_grid_search_oracle():
    # brute-force the defining inequalities on a fine epsilon/t grid
    m = EmpiricalMeasure([-0.8, 0.1, 1.5], [0.3, 0.4, 0.3])
    ref = NormalRef(0.0, 1.0)

    atoms = np.asarray(m.locations)
    check_points = np.concatenate(
        [np.linspace(-6, 6, 4001), atoms - 1e-9, atoms, atoms + 1e-9]
    )

    def holds(eps):
        for t in check_points:
            if ref.cdf(t - eps) - eps > m.cdf(t) + 1e-12:
                return False
            if m.cdf(t) > ref.cdf(t + eps) + eps + 1e-12:
                return False
        return True

    grid = np.linspace(0.0, 1.0, 2001)
    oracle = next(e for e in grid if holds(e))
    assert levy_distance(m, ref) == pytest.approx(oracle, abs=2e-3)


def test_levy_at_most_ks():
    rng = np.random.default_rng(11)
    ref = NormalRef(0.0, 1.0)
    for size in (50, 500):
        m = EmpiricalMeasure.from_samples(rng.standard_normal(size))
        assert levy_distance(m, ref) <= ks_distance(m, ref) + 1e-9


def test_levy_calibration_large_sample():
    """Frozen calibration: 1e5 standard normal draws, whose Levy distance to
    the true law must come out under 0.02.  False-fail rate: Levy <= KS, and
    DKW bounds P(KS > 0.02) by 2 e^(-2 N 0.02^2) = 2 e^(-80) = 4e-35."""
    rng = np.random.default_rng(20260822)
    m = EmpiricalMeasure.from_samples(rng.standard_normal(100_000))
    ref = NormalRef(0.0, 1.0)
    d = levy_distance(m, ref)
    assert d <= 0.02
    assert d <= ks_distance(m, ref) + 1e-9


def test_levy_type_error():
    # only a Gaussian reference is measured against, not another atomic law
    m = EmpiricalMeasure([0.0], [1.0])
    for distance in (levy_distance, ks_distance):
        for other in (3.0, m):
            with pytest.raises(TypeError, match="expected NormalRef"):
                distance(m, other)


@st.composite
def atomic_laws(draw):
    """An atomic law of 1 to 3000 atoms: the lattice (2c - n)/sqrt(n) of an
    n-site magnetization, or random locations, with random weights, some of
    them zero; and a Gaussian of random mean and variance."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=2999))
        locations = (2 * np.arange(n + 1) - n) / math.sqrt(n)
    else:
        k = draw(st.integers(min_value=1, max_value=3000))
        locations = np.unique(rng.normal(0.0, draw(st.floats(0.01, 5.0)), k))
    weights = rng.random(locations.size) ** draw(st.sampled_from([1, 4, 20]))
    weights[rng.random(locations.size) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if not weights.any():
        weights[rng.integers(weights.size)] = 1.0
    law = EmpiricalMeasure(locations, weights / weights.sum())
    ref = NormalRef(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.01, 10.0)))
    return law, ref


@settings(max_examples=80, deadline=None)
@given(atomic_laws())
def test_distances_are_the_same_on_every_kernel_set(case):
    # the compiled kernels repeat the twins' IEEE operations in order and call
    # the libm erfc and sqrt that math.erfc and math.sqrt call
    law, ref = case
    args = (law.locations, law._cum, ref.mean, math.sqrt(ref.variance))
    got = [(kernels.levy(*args, stats._LEVY_TOL), kernels.ks(*args)) for kernels in kernel_sets()]
    assert all(pair == got[0] for pair in got)
    levy, ks = got[0]
    assert 0.0 <= levy <= 1.0 and 0.0 <= ks <= 1.0
    assert levy <= ks + stats._LEVY_TOL


def test_distance_functions_use_the_library():
    rng = np.random.default_rng(3)
    law = EmpiricalMeasure.from_samples(rng.standard_normal(400).round(1))
    ref = NormalRef(0.1, 2.0)
    got = []
    for kernels in kernel_sets():
        with kernels_in_use(kernels):
            got.append((levy_distance(law, ref), ks_distance(law, ref)))
    assert all(pair == got[0] for pair in got)
    assert all(type(value) is float for value in got[0])


def test_distance_kernels_refuse_bad_buffers():
    # the compiled kernels trust every length; the twins refuse the same calls
    locations = np.array([-1.0, 0.0, 2.0])
    cum = np.array([0.25, 0.75, 1.0])
    for kernels in kernel_sets():
        assert kernels.ks(locations, cum, 0.0, 1.0) == ks_distance(
            EmpiricalMeasure(locations, [0.25, 0.5, 0.25]), NormalRef(0.0, 1.0))
        for bad_loc, bad_cum in (
            (locations.astype(np.float32), cum), (locations, cum[:2]),
            (np.repeat(locations, 2)[::2], cum), (locations, cum.astype(">f8")),
        ):
            for call in (lambda: kernels.ks(bad_loc, bad_cum, 0.0, 1.0),
                         lambda: kernels.levy(bad_loc, bad_cum, 0.0, 1.0, 1e-6)):
                with pytest.raises(ValueError, match="kernel buffer"):
                    call()
        with pytest.raises(ValueError, match="at least one atom"):
            kernels.ks(np.empty(0), np.empty(0), 0.0, 1.0)
        # below 2^-52 two adjacent doubles can bracket the bisection forever
        for tol in (2.0**-53, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="bisection width"):
                kernels.levy(locations, cum, 0.0, 1.0, tol)
        assert kernels.levy(locations, cum, 0.0, 1.0, 2.0**-52) > 0.0


def test_m_plus_values():
    assert m_plus(0.5) == 0.0
    assert m_plus(1.0) == 0.0
    for beta in (1.2, 1.5, 2.0, 5.0):
        root = m_plus(beta)
        assert root > 0.5
        assert math.tanh(beta * root) == pytest.approx(root, abs=1e-10)
    # reference value for the acceptance experiments
    assert m_plus(1.5) == pytest.approx(0.8586, abs=1e-4)
    with pytest.raises(ValueError):
        m_plus(-0.5)


def test_summarize_against_numpy():
    rng = np.random.default_rng(5)
    values = rng.normal(3.0, 2.0, size=1000)
    s = summarize(values)
    assert s.count == 1000
    assert s.mean == pytest.approx(float(np.mean(values)), rel=1e-12)
    assert s.variance == pytest.approx(float(np.var(values, ddof=1)), rel=1e-12)
    assert summarize([4.0]).variance == 0.0
    with pytest.raises(ValueError):
        summarize([])


def test_uniform_variance_sanity():
    # seeded check that the variance pipeline is calibrated: uniform(-1, 1)
    # has variance 1/3
    rng = np.random.default_rng(314159)
    s = summarize(rng.uniform(-1.0, 1.0, size=1_000_000))
    assert abs(s.variance - 1.0 / 3.0) < 0.002
