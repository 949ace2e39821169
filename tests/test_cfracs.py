import math

import numpy as np
import pytest

from qpspec.cfracs import CFNode, chi, zeta_roots, zeta_sandwich_ok, zeta_separation_ok


def const_leaf(a1, a2, b):
    return CFNode(lambda u: a1, lambda u: a2, lambda u: b)


def test_leaf_chi_form():
    leaf = const_leaf(1.0, 0.0, 0.1)
    assert chi(leaf, 1.0099) == pytest.approx(1.0099 * 0.0099 - 0.01)


def test_chi_finite_at_pole():
    leaf = const_leaf(1.0, 0.0, 0.1)
    assert chi(leaf, 0.0) == pytest.approx(-0.01)  # u = a2, the pole of f


def test_zeta_roots_quadratic():
    leaf = const_leaf(1.0, 0.0, 0.1)
    zm, zp = zeta_roots(leaf, (-0.5, 1.5))
    assert zm == pytest.approx((1 - math.sqrt(1.04)) / 2, abs=1e-12)
    assert zp == pytest.approx((1 + math.sqrt(1.04)) / 2, abs=1e-12)


def test_zeta_roots_b_zero():
    leaf = const_leaf(1.0, 0.0, 0.0)
    zm, zp = zeta_roots(leaf, (-0.5, 1.5))
    assert (zm, zp) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))


def test_zeta_roots_close_pair():
    # chi = u^2 - 1e-8: the two roots sit 2e-4 apart in a window of width 2
    leaf = const_leaf(0.0, 0.0, 1e-4)
    zm, zp = zeta_roots(leaf, (-1.0, 1.0))
    assert zm == pytest.approx(-1e-4, rel=1e-9)
    assert zp == pytest.approx(1e-4, rel=1e-9)


def test_zeta_roots_small_roots_relative_accuracy():
    # roots near 4e-4: an absolute 1e-15 stop leaves ~1e-12 relative error
    a1, a2, b = 5e-4, 3e-4, 1e-5
    zm, zp = zeta_roots(const_leaf(a1, a2, b), (0.0, 1e-3))
    half = math.hypot(0.5 * (a1 - a2), b)
    assert zm == pytest.approx(0.5 * (a1 + a2) - half, rel=1e-14, abs=0)
    assert zp == pytest.approx(0.5 * (a1 + a2) + half, rel=1e-14, abs=0)


@pytest.mark.parametrize("b", [1e-17, 1e-16])
def test_zeta_roots_close_pair_at_small_scale(b):
    # roots 4e-4 -+ b lie a few hundred ulps apart, far below an absolute 1e-15
    zm, zp = zeta_roots(const_leaf(4e-4, 4e-4, b), (0.0, 1e-3))
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
        leaf = CFNode(lambda u, a=a1, s=slope1: a + s * u * 0.1,
                      lambda u, a=a2, s=slope2: a + s * u * 0.1,
                      lambda u, bb=b: bb)
        roots = zeta_roots(leaf, (-2.0, 2.0))
        assert len(roots) == 2
        assert zeta_separation_ok(leaf, *roots)
        assert zeta_sandwich_ok(leaf, *roots)


def test_zeta_sandwich_u_dependent_leaf():
    # a1 = a + s u varies with u, so the zeta- envelope min(a2, a1 - |b|)
    # must take a1 at zeta-, not at zeta+
    a, s, b = 0.615, -0.465, 0.997
    leaf = CFNode(lambda u: a + s * u, lambda u: 0.0, lambda u: b)
    roots = zeta_roots(leaf, (-5.0, 5.0))
    assert len(roots) == 2
    assert zeta_sandwich_ok(leaf, *roots)


def test_zeta_window_regime_guard():
    # three sign changes cannot occur for convex chi; fake it with a cubic-ish
    # window catching only one root: fewer than two roots is reported, not fatal
    leaf = const_leaf(1.0, 0.0, 0.1)
    roots = zeta_roots(leaf, (0.5, 1.5))
    assert len(roots) == 1
