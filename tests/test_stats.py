"""Atomic measures, distances against Gaussian references, summaries."""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from dilutecw.stats import (
    EmpiricalMeasure,
    NormalRef,
    ks_distance,
    levy_distance,
    m_plus,
    summarize,
)


def test_measure_construction():
    m = EmpiricalMeasure([-1.0, 0.0, 2.0], [0.25, 0.5, 0.25])
    assert m.n_atoms == 3
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
    assert m.n_atoms == 2
    assert list(m.locations) == [0.0, 2.0]


def test_measure_cdf_sides():
    m = EmpiricalMeasure([0.0, 1.0], [0.3, 0.7])
    assert m.cdf(-0.5) == 0.0
    assert m.cdf(0.0) == pytest.approx(0.3)
    assert m.cdf_left(0.0) == 0.0
    assert m.cdf(0.5) == pytest.approx(0.3)
    assert m.cdf(1.0) == pytest.approx(1.0)
    assert m.cdf_left(1.0) == pytest.approx(0.3)
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
    assert a.total_variation(b) == pytest.approx(0.75)
    assert a.total_variation(a) == 0.0
    assert b.total_variation(a) == a.total_variation(b)


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


def test_levy_point_masses():
    a = EmpiricalMeasure([0.0], [1.0])
    b = EmpiricalMeasure([0.3], [1.0])
    far = EmpiricalMeasure([2.0], [1.0])
    assert levy_distance(a, b) == pytest.approx(0.3, abs=2e-6)
    assert levy_distance(b, a) == pytest.approx(0.3, abs=2e-6)
    assert levy_distance(a, far) == pytest.approx(1.0, abs=2e-6)
    assert levy_distance(a, a) == 0.0


def test_levy_against_grid_search_oracle():
    # brute-force the defining inequalities on a fine epsilon/t grid
    m = EmpiricalMeasure([-0.8, 0.1, 1.5], [0.3, 0.4, 0.3])
    ref = NormalRef(0.0, 1.0)

    check_points = np.concatenate(
        [np.linspace(-6, 6, 4001), m.locations - 1e-9, m.locations, m.locations + 1e-9]
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
    # frozen calibration: 1e5 standard normal draws, the distance to the
    # true law must come out well under 0.02
    rng = np.random.default_rng(20260822)
    m = EmpiricalMeasure.from_samples(rng.standard_normal(100_000))
    ref = NormalRef(0.0, 1.0)
    d = levy_distance(m, ref)
    assert d <= 0.02
    assert d <= ks_distance(m, ref) + 1e-9


def test_levy_type_error():
    m = EmpiricalMeasure([0.0], [1.0])
    with pytest.raises(TypeError):
        levy_distance(m, 3.0)


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
