import cmath
import math

import numpy as np
import pytest

from qpspec.cfracs import (CFNode, cf_evaluate, convex_two_point_gap,
                           d2_chi_du2, harnack_comparable, quadratic_dichotomy_case,
                           quantitative_ift, zeta_roots, zeta_sandwich_ok,
                           zeta_separation_ok)


def const_leaf(a1, a2, b):
    return CFNode.leaf(lambda x, u: a1, lambda x, u: a2, lambda x, u: b)


def test_leaf_chi_form():
    leaf = const_leaf(1.0, 0.0, 0.1)
    val = cf_evaluate(leaf, 0.0, 1.0099)
    assert val.chi == pytest.approx(1.0099 * 0.0099 - 0.01)
    assert val.mu == pytest.approx(1.0099)
    assert val.tau == pytest.approx(1.0)
    assert val.f == pytest.approx(val.chi / val.mu)


def test_chi_finite_at_pole():
    leaf = const_leaf(1.0, 0.0, 0.1)
    val = cf_evaluate(leaf, 0.0, 0.0)  # u = a2: f undefined, chi finite
    assert not val.f_defined
    assert val.chi == pytest.approx(-0.01)


def test_b_zero_factorizes():
    l1 = const_leaf(0.02, -0.02, 0.0)
    l2 = const_leaf(0.021, -0.019, 0.0)
    node = CFNode.couple(l1, l2, lambda x, u: 0.0)
    for u in np.linspace(-0.5, 0.5, 7):
        v = cf_evaluate(node, 0.0, u)
        v1 = cf_evaluate(l1, 0.0, u)
        v2 = cf_evaluate(l2, 0.0, u)
        assert v.chi == v1.chi * v2.chi


def test_tau_recursion():
    l1 = const_leaf(0.02, -0.02, 0.001)
    l2 = const_leaf(0.021, -0.019, 0.001)
    node = CFNode.couple(l1, l2, lambda x, u: 1e-5)
    v = cf_evaluate(node, 0.0, 0.05)
    v1, v2 = cf_evaluate(l1, 0.0, 0.05), cf_evaluate(l2, 0.0, 0.05)
    assert v.tau == pytest.approx((v2.chi - v1.chi) * v1.tau * v2.tau)


def test_zeta_roots_quadratic():
    leaf = const_leaf(1.0, 0.0, 0.1)
    zm, zp = zeta_roots(leaf, 0.0, (-0.5, 1.5))
    assert zm == pytest.approx((1 - math.sqrt(1.04)) / 2, abs=1e-12)
    assert zp == pytest.approx((1 + math.sqrt(1.04)) / 2, abs=1e-12)


def test_zeta_roots_b_zero():
    leaf = const_leaf(1.0, 0.0, 0.0)
    zm, zp = zeta_roots(leaf, 0.0, (-0.5, 1.5))
    assert (zm, zp) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))


def test_zeta_roots_close_pair():
    # chi = u^2 - 1e-8: the two roots sit 2e-4 apart in a window of width 2
    leaf = const_leaf(0.0, 0.0, 1e-4)
    zm, zp = zeta_roots(leaf, 0.0, (-1.0, 1.0))
    assert zm == pytest.approx(-1e-4, rel=1e-9)
    assert zp == pytest.approx(1e-4, rel=1e-9)


def test_zeta_roots_small_roots_relative_accuracy():
    # roots near 4e-4: an absolute 1e-15 stop leaves ~1e-12 relative error
    a1, a2, b = 5e-4, 3e-4, 1e-5
    zm, zp = zeta_roots(const_leaf(a1, a2, b), 0.0, (0.0, 1e-3))
    half = math.hypot(0.5 * (a1 - a2), b)
    assert zm == pytest.approx(0.5 * (a1 + a2) - half, rel=1e-14, abs=0)
    assert zp == pytest.approx(0.5 * (a1 + a2) + half, rel=1e-14, abs=0)


@pytest.mark.parametrize("b", [1e-17, 1e-16])
def test_zeta_roots_close_pair_at_small_scale(b):
    # roots 4e-4 -+ b lie a few hundred ulps apart, far below an absolute 1e-15
    zm, zp = zeta_roots(const_leaf(4e-4, 4e-4, b), 0.0, (0.0, 1e-3))
    assert zm < zp
    assert zm == pytest.approx(4e-4 - b, rel=1e-14, abs=0)
    assert zp == pytest.approx(4e-4 + b, rel=1e-14, abs=0)


def test_zeta_separation_and_sandwich_random():
    rng = np.random.default_rng(23)
    for _ in range(25):
        gap = 0.2 + 0.6 * rng.random()
        a2 = -0.5 * gap
        a1 = 0.5 * gap
        b = 0.05 * gap * rng.random()
        slope1 = 0.2 * rng.random()
        slope2 = -0.2 * rng.random()
        leaf = CFNode.leaf(lambda x, u, a=a1, s=slope1: a + s * u * 0.1,
                           lambda x, u, a=a2, s=slope2: a + s * u * 0.1,
                           lambda x, u, bb=b: bb)
        roots = zeta_roots(leaf, 0.0, (-2.0, 2.0))
        assert len(roots) == 2
        assert zeta_separation_ok(leaf, 0.0, *roots)
        assert zeta_sandwich_ok(leaf, 0.0, *roots)


def test_zeta_sandwich_u_dependent_leaf():
    # a1 = a + s u varies with u, so the zeta- envelope min(a2, a1 - |b|)
    # must take a1 at zeta-, not at zeta+
    a, s, b = 0.615, -0.465, 0.997
    leaf = CFNode.leaf(lambda x, u: a + s * u, lambda x, u: 0.0, lambda x, u: b)
    roots = zeta_roots(leaf, 0.0, (-5.0, 5.0))
    assert len(roots) == 2
    assert zeta_sandwich_ok(leaf, 0.0, *roots)


def test_zeta_window_regime_guard():
    # three sign changes cannot occur for convex chi; fake it with a cubic-ish
    # window catching only one root: fewer than two roots is reported, not fatal
    leaf = const_leaf(1.0, 0.0, 0.1)
    roots = zeta_roots(leaf, 0.0, (0.5, 1.5))
    assert len(roots) == 1


def test_convexity_lower_bound():
    # class-conforming internal node: both children small near u = 0 with
    # order-one separation a_{i,1} - a_{i,2}, couplings far below tau^10
    l1 = const_leaf(0.002, -1.0, 0.001)
    l2 = const_leaf(-0.003, -1.002, 0.001)
    node = CFNode.couple(l1, l2, lambda x, u: 1e-5)
    for u in np.linspace(-0.01, 0.01, 9):
        v1, v2 = cf_evaluate(l1, 0.0, u), cf_evaluate(l2, 0.0, u)
        assert max(abs(v1.f), abs(v2.f)) < 0.1  # children near their roots
        tau_min = min(abs(v1.tau), abs(v2.tau))
        assert d2_chi_du2(node, 0.0, u) > 0.5 * min(tau_min, 1.0) ** 4
    # leaf convexity is exactly 2
    assert d2_chi_du2(const_leaf(1.0, 0.0, 0.1), 0.0, 0.3) == pytest.approx(2.0, rel=1e-4)


def test_quadratic_dichotomy_never_between():
    a1, a2, b = 0.6, -0.4, 0.05
    for u in np.linspace(-2.0, 2.0, 401):
        case = quadratic_dichotomy_case(u, a1, a2, b)
        if case is None:
            continue  # inequality fails there
        assert case in ("+", "-")  # the middle band is empty under the inequality


def test_calculus_lemma_two_point_gap():
    # f(u) = u^2 with sigma0 = 2: same-sign derivative points
    f = lambda u: u * u
    assert convex_two_point_gap(f, 0.5, 1.5, 2.0)
    assert convex_two_point_gap(f, -1.5, -0.25, 2.0)


def test_ift_linear_example():
    res, locator = quantitative_ift(lambda z, w: w - z, 0.0, 0.0, 1.0, 1.0)
    assert res.radius == pytest.approx(1.0 / 32.0)
    for z in (0.01, -0.02, 0.03j):
        assert locator(z) == pytest.approx(z, abs=1e-12)


def test_ift_z_independent_branch():
    res, locator = quantitative_ift(lambda z, w: w * w - 1.0, 0.0, 1.0, 0.5, 0.5)
    assert res.tau == pytest.approx(2.0, rel=1e-4)
    assert locator(res.radius * 0.5) == pytest.approx(1.0, abs=1e-10)


def test_ift_radius_never_overclaims_random():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = 0.5 + rng.random()
        b = (rng.random() - 0.5) * 2.0
        q = 0.1 * (rng.random() - 0.5)

        def F(z, w, a=a, b=b, q=q):
            return a * w + b * z + q * w * w

        res, locator = quantitative_ift(F, 0.0, 0.0, 1.0, 1.0)
        for t in (0.3, 0.7, 0.99):
            z = t * res.radius * cmath.exp(2j * math.pi * rng.random())
            w = locator(z)
            assert abs(F(z, w)) <= 1e-12 * res.M0
            # uniqueness in the root disk by dense sampling of |F|
            for rr in (0.4, 0.8):
                for ang in np.linspace(0, 2 * math.pi, 24, endpoint=False):
                    w2 = w + res.root_radius * rr * cmath.exp(1j * ang)
                    if abs(w2 - w) > 1e-9:
                        assert abs(F(z, w2)) > 0


def test_harnack_comparability():
    f = lambda z: cmath.exp(0.3 * z) * 2.0
    holds, r2 = harnack_comparable(f, 0.0, 1.0, 1.0)
    assert holds and 0 < r2 <= 1.0


def test_sibling_signs_must_agree():
    l1 = const_leaf(0.002, -1.0, 0.001)
    l2 = CFNode.leaf(lambda x, u: -0.003, lambda x, u: -1.002,
                     lambda x, u: 0.001, sign=-1)
    with pytest.raises(ValueError):
        CFNode.couple(l1, l2, lambda x, u: 1e-5)
