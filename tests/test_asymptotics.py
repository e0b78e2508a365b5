"""Edge-generating function, Taylor structure, quadrature, predictions."""

import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from dilutecw import asymptotics

from dilutecw.asymptotics import (
    MAX_TAYLOR_ORDER,
    cosh_shorthand,
    eval_F,
    gaussian_expectation,
    predict_log_partition,
    remainder_check,
    taylor_coefficients_exact,
)
from dilutecw.model import ModelParams
from dilutecw.testfunctions import make_test_function
from helpers import taylor_by_composition

ONE = make_test_function("one")
GAUSS = make_test_function("gauss")
COSINE = make_test_function("cosine")


def test_eval_F_against_high_precision():
    # a grid, then random points: uniform p, p = 1 - 2^-k and p = 1, with z
    # uniform over the whole double range of e^z or spread over 33 decades;
    # near p = 1 and far below z = 0, 1 - p + p e^z is tiny and log1p(p
    # expm1(z)) alone keeps few digits (5e-3 relative at p = 1, z = -35.84)
    points = [(p, z) for p in (0.05, 0.3, 0.5, 0.9, 1.0)
              for z in (-2.0, -0.1, -1e-8, 1e-8, 0.1, 2.0)]
    points += [(1.0, -35.7), (1.0 - 2.0**-52, -35.7), (1.0 - 2.0**-40, -35.7), (0.75, -745.0)]
    rng = random.Random(20191)
    for i in range(3000):
        p = [rng.uniform(0.0, 1.0) or 1.0, 1.0 - 2.0 ** -rng.randint(1, 53), 1.0][i % 3]
        if i % 2:
            z = rng.uniform(-745.0, 745.0)
        else:
            z = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-30.0, math.log10(745.0))
        points.append((p, z))
    with mp.workdps(50):
        for p, z in points:
            want = float(mp.log(1 - mp.mpf(p) + mp.mpf(p) * mp.exp(mp.mpf(z))))
            assert eval_F(p, z) == pytest.approx(want, rel=1e-15), (p, z)
    assert eval_F(1.0, -35.7) == -35.7


def test_eval_F_at_extreme_arguments():
    # p e^z overflows above z ~ 709.8; F = z + log(p + (1 - p) e^-z) there
    assert eval_F(0.5, 1e6) == pytest.approx(1e6 + math.log(0.5), rel=1e-15)
    assert eval_F(0.3, 701.0) == pytest.approx(701.0 + math.log(0.3), rel=1e-15)
    assert eval_F(1.0, 1e6) == 1e6
    # at p = 1, expm1(z) rounds to -1 below z ~ -37, yet F(1, z) = z
    assert eval_F(1.0, -50.0) == -50.0
    assert eval_F(1.0, -1e6) == -1e6
    assert eval_F(0.5, -1e6) == pytest.approx(math.log(0.5), rel=1e-15)


def test_eval_F_fixed_point():
    assert eval_F(0.3, 0.0) == 0.0
    assert eval_F(1.0, 0.7) == pytest.approx(0.7, rel=1e-15)
    assert eval_F(1.0, -0.7) == pytest.approx(-0.7, rel=1e-15)
    assert eval_F(0.5, 0.1) == pytest.approx(0.051249479513625585, rel=1e-12)
    with pytest.raises(ValueError):
        eval_F(0.0, 0.5)
    with pytest.raises(ValueError):
        eval_F(1.5, 0.5)


def test_taylor_closed_forms_exact():
    for p in (Fraction(1, 2), Fraction(3, 10), Fraction(1), Fraction(7, 100)):
        c = taylor_coefficients_exact(p, 4)
        assert c[0] == p
        assert c[1] == p * (1 - p) / 2
        assert c[2] == p * (2 * p**2 - 3 * p + 1) / 6
        assert c[3] == p * (-6 * p**3 + 12 * p**2 - 7 * p + 1) / 24


@pytest.mark.parametrize(
    "p",
    [Fraction(1, 2), Fraction(1, 3), Fraction(7, 100), 1, 0.4, 1e-300, 2.0**-1074,
     1.0 - 2.0**-53, "0.35", "1e-9", Fraction(999_999, 1_000_000)],
    ids=repr,
)
def test_taylor_closed_form_matches_series_composition(p):
    # the cumulant formula against log(1 + u) composed with u = p (e^z - 1),
    # Fraction for Fraction at every order
    want = taylor_by_composition(p, MAX_TAYLOR_ORDER)
    for order in range(1, MAX_TAYLOR_ORDER + 1):
        assert taylor_coefficients_exact(p, order) == want[:order]


def test_taylor_p_one_degenerates():
    # F(1, z) = z: first coefficient 1, everything else exactly 0
    c = taylor_coefficients_exact(1, 10)
    assert c[0] == 1
    assert all(v == 0 for v in c[1:])


def test_taylor_float_view_consistent():
    exact = taylor_coefficients_exact(Fraction(2, 5), 8)
    approx = [float(c) for c in taylor_coefficients_exact(0.4, 8)]
    for a, b in zip(approx, exact):
        assert a == pytest.approx(float(b), rel=1e-12)


def test_taylor_matches_numerical_derivatives():
    # sixth-order finite check through high-precision differentiation
    p = 0.35
    c = [float(v) for v in taylor_coefficients_exact(p, 6)]
    with mp.workdps(60):
        f = lambda z: mp.log(1 - mp.mpf(p) + mp.mpf(p) * mp.e**z)
        for k in range(1, 7):
            want = float(mp.diff(f, 0, k) / mp.factorial(k))
            assert c[k - 1] == pytest.approx(want, rel=1e-10, abs=1e-18)


def test_taylor_small_p_limit():
    p = Fraction(1, 10**6)
    c = taylor_coefficients_exact(p, 6)
    factorial = 1
    for k in range(1, 7):
        factorial *= k
        assert abs(float(factorial * c[k - 1] / p) - 1.0) < 1e-4


def test_taylor_order_cap():
    with pytest.raises(ValueError):
        taylor_coefficients_exact(0.5, MAX_TAYLOR_ORDER + 1)
    with pytest.raises(ValueError):
        taylor_coefficients_exact(0.5, 0)
    with pytest.raises(ValueError):
        taylor_coefficients_exact(Fraction(3, 2), 4)


def test_cosh_shorthand_beta_zero():
    params = ModelParams(n=12, p=0.3, beta=0.0)
    assert cosh_shorthand(params, "A") == 0.0
    assert cosh_shorthand(params, "B") == 0.0
    with pytest.raises(ValueError):
        cosh_shorthand(params, "C")


def test_cosh_shorthand_large_n_limit():
    # A tends to (1-p) beta^2 / (8p) with a correction of order 1/(N^2 p^3)
    p, beta = 0.5, 0.8
    limit = (1 - p) * beta * beta / (8 * p)
    gaps = []
    for n in (50, 100, 200):
        a = cosh_shorthand(ModelParams(n=n, p=p, beta=beta), "A")
        gaps.append(abs(a - limit))
        assert abs(a - limit) <= beta**4 / (300 * n * n * p**3)
    assert gaps[0] > gaps[1] > gaps[2]


def test_cosh_shorthand_gap_bound():
    # 0 <= B - 2A <= beta^4 / (8 N^2 p^3); the true size is about one
    # eighth of that bound
    for n in (8, 32, 128):
        for p in (0.2, 0.6, 1.0):
            for beta in (0.3, 1.0):
                params = ModelParams(n=n, p=p, beta=beta)
                gap = cosh_shorthand(params, "B") - 2 * cosh_shorthand(params, "A")
                assert 0.0 <= gap <= beta**4 / (8 * n * n * p**3)


def test_gaussian_expectation_closed_forms():
    for beta in (0.0, 0.3, 0.7, 0.95):
        assert gaussian_expectation(ONE, beta) == pytest.approx(
            1 / math.sqrt(1 - beta), rel=1e-14
        )
        assert gaussian_expectation(GAUSS, beta) == pytest.approx(
            1 / math.sqrt(3 - beta), rel=1e-14
        )
        v = 1 / (1 - beta)
        want = 0.5 * (1 + math.exp(-v / 2)) / math.sqrt(1 - beta)
        assert gaussian_expectation(COSINE, beta) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("center,width", [(0.0, 2.0), (0.5, 1.0), (0.0, 0.5), (3.0, 0.25)])
def test_gaussian_expectation_bump_against_quadrature(center, width):
    g = make_test_function("bump", center, width)
    for beta in (0.0, 0.5, 0.9):
        want, err = integrate.quad(
            lambda x: g(x) * math.exp(-(1 - beta) * x * x / 2) / math.sqrt(2 * math.pi),
            center - width,
            center + width,
            epsabs=1e-13,
            epsrel=1e-12,
        )
        assert err < 1e-10
        assert gaussian_expectation(g, beta) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("width", [1e3, 1e4, 1e6])
def test_gaussian_expectation_wide_bump(width):
    # With sigma^2 = 1/(1 - beta) and g = 1 - u^2 - u^4/2 + O(u^6), u = x/w,
    # the factor is sigma (1 - sigma^2/w^2 - 3 sigma^4/(2 w^4)) up to a
    # relative O(sigma^6/w^6): below 1e-15 here.  It tends to 1/sqrt(1 - beta)
    # only as fast as sigma^2/w^2 (1e-5 at w = 1e3, beta = 0.9).
    g = make_test_function("bump", 0.0, width)
    for beta in (0.0, 0.5, 0.9):
        sigma2 = 1 / (1 - beta)
        want = math.sqrt(sigma2) * (1 - sigma2 / width**2 - 1.5 * sigma2**2 / width**4)
        assert gaussian_expectation(g, beta) == pytest.approx(want, rel=1e-9)


def test_gaussian_expectation_wide_off_centre_bump():
    # on [-60, 60] the bump is smooth and the weight outside it below e^-180
    g = make_test_function("bump", 300.0, 1000.0)
    for beta in (0.0, 0.5, 0.9):
        with mp.workdps(30):
            want = mp.quad(
                lambda x: mp.exp(1 - 1 / (1 - ((x - 300) / 1000) ** 2) - (1 - beta) * x * x / 2),
                mp.linspace(-60, 60, 13),
            ) / mp.sqrt(2 * mp.pi)
        assert gaussian_expectation(g, beta) == pytest.approx(float(want), rel=1e-9)


def test_gaussian_expectation_validation():
    with pytest.raises(ValueError):
        gaussian_expectation(ONE, 1.0)
    with pytest.raises(ValueError):
        gaussian_expectation(ONE, -0.1)


def test_predict_variant_c_value():
    params = ModelParams(n=20, p=0.5, beta=0.5)
    pred = predict_log_partition(params, ONE, "c")
    want = 0.5 * 0.25 / 4.0 + 20 * math.log(2) - 0.5 * math.log(0.5)
    assert pred.log_value == pytest.approx(want, rel=1e-14)
    assert pred.gaussian_factor == pytest.approx(1 / math.sqrt(0.5), rel=1e-14)


def test_predict_variants_agree_for_one():
    # b and c are the same formula when g = one; a differs only through the
    # higher cosh orders, which shrink with N
    params = ModelParams(n=40, p=0.5, beta=0.6)
    b = predict_log_partition(params, ONE, "b")
    c = predict_log_partition(params, ONE, "c")
    a = predict_log_partition(params, ONE, "a")
    assert b.log_value == pytest.approx(c.log_value, rel=1e-12)
    assert abs(a.log_value - b.log_value) <= 0.6**4 / (300 * 40 * 40 * 0.5**3)


def test_predict_validation():
    params = ModelParams(n=10, p=0.5, beta=0.5)
    with pytest.raises(ValueError, match="variant"):
        predict_log_partition(params, ONE, "d")
    with pytest.raises(ValueError, match="beta"):
        predict_log_partition(ModelParams(n=10, p=0.5, beta=1.0), ONE, "a")
    with pytest.raises(ValueError, match="one"):
        predict_log_partition(params, GAUSS, "c")


def test_remainder_check_limits():
    # as z -> 0 the normalized remainders approach the next Taylor
    # coefficient of the matching parity
    for p in (0.2, 0.5, 1.0):
        odd_limit = (2 * p * p - 3 * p + 1) / 6
        even_limit = -(6 * p * p - 12 * p + 7) / 24
        remainders = remainder_check(p, 0.001)
        assert remainders["odd"] == pytest.approx(odd_limit, abs=1e-5)
        assert remainders["even"] == pytest.approx(even_limit, abs=1e-5)


def test_remainder_check_sign_flip():
    # odd-part remainder is odd in z once normalized by z^3: flipping z
    # flips nothing
    a = remainder_check(0.4, 0.1)["odd"]
    b = remainder_check(0.4, -0.1)["odd"]
    assert a == pytest.approx(b, rel=1e-12)


def test_remainder_check_validation():
    with pytest.raises(ValueError):
        remainder_check(0.5, 0.0)
    with pytest.raises(ValueError):
        remainder_check(0.5, 0.3)
    with pytest.raises(ValueError):
        remainder_check(0.0, 0.1)


@pytest.mark.parametrize("stored, numpy_rule", [
    (asymptotics._hermite_rule, np.polynomial.hermite.hermgauss),
    (asymptotics._legendre_rule, np.polynomial.legendre.leggauss),
])
def test_stored_gauss_rules_are_numpys_and_symmetric(stored, numpy_rule):
    # the rules are stored as tables rather than built at run time; they are
    # the rules numpy builds to a few ulps, with increasing nodes
    nodes, weights = stored()
    assert len(nodes) == len(weights) == asymptotics._NODES
    assert nodes == [-x for x in reversed(nodes)] and weights == weights[::-1]
    assert all(a < b for a, b in zip(nodes, nodes[1:])) and min(weights) > 0
    want_nodes, want_weights = numpy_rule(asymptotics._NODES)
    for got, want in ((nodes, want_nodes), (weights, want_weights)):
        np.testing.assert_array_max_ulp(np.array(got), want, maxulp=4)
