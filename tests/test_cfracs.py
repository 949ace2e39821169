import math

import numpy as np
import pytest

from qpspec.cfracs import (SANDWICH_SLACK, CFNode, chi, d_chi_du, zeta_sandwich_ok,
                           zeta_separation_ok)

from conftest import linear_leaf_roots


def const_leaf(a1, a2, b):
    return CFNode(lambda u: a1, lambda u: a2, lambda u: b)


def test_leaf_chi_form():
    leaf = const_leaf(1.0, 0.0, 0.1)
    assert chi(leaf, 1.0099) == pytest.approx(1.0099 * 0.0099 - 0.01)


def test_chi_finite_at_pole():
    leaf = const_leaf(1.0, 0.0, 0.1)
    assert chi(leaf, 0.0) == pytest.approx(-0.01)  # u = a2, the pole of f


def test_linear_leaf_roots_are_roots_of_chi():
    # the closed form the lemma tests take their roots from
    zm, zp = linear_leaf_roots(1.0, 0.0, 0.0, 0.0, 0.1)
    assert zm == pytest.approx((1 - math.sqrt(1.04)) / 2, abs=1e-15)
    assert zp == pytest.approx((1 + math.sqrt(1.04)) / 2, abs=1e-15)
    leaf = CFNode(lambda u: 0.615 - 0.465 * u, lambda u: 0.0, lambda u: 0.997)
    for z in linear_leaf_roots(0.615, -0.465, 0.0, 0.0, 0.997):
        assert abs(chi(leaf, z)) <= 1e-15


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
        roots = linear_leaf_roots(a1, 0.1 * slope1, a2, 0.1 * slope2, b)
        assert zeta_separation_ok(leaf, *roots)
        assert zeta_sandwich_ok(leaf, *roots)


def test_zeta_sandwich_u_dependent_leaf():
    # a1 = a + s u varies with u, so the zeta- envelope min(a2, a1 - |b|)
    # must take a1 at zeta-, not at zeta+
    a, s, b = 0.615, -0.465, 0.997
    leaf = CFNode(lambda u: a + s * u, lambda u: 0.0, lambda u: b)
    assert zeta_sandwich_ok(leaf, *linear_leaf_roots(a, s, 0.0, 0.0, b))


# each root moved past one end of its envelope by 1e3 SANDWICH_SLACK; for
# constant leaves (1, 0, 0.1) zeta+ lies in [1, 1.1] and zeta- in [-0.1, 0]
@pytest.mark.parametrize("which, edge", [(1, 1.1), (1, 1.0), (0, -0.1), (0, 0.0)],
                         ids=["plus-above", "plus-below", "minus-below", "minus-above"])
def test_zeta_sandwich_refuses_a_root_outside_its_envelope(which, edge):
    leaf = const_leaf(1.0, 0.0, 0.1)
    roots = list(linear_leaf_roots(1.0, 0.0, 0.0, 0.0, 0.1))
    assert zeta_sandwich_ok(leaf, *roots)
    outward = 1.0 if edge > roots[which] else -1.0
    roots[which] = edge + outward * 1e3 * SANDWICH_SLACK
    assert not zeta_sandwich_ok(leaf, *roots)


def test_zeta_separation_refuses_a_close_pair():
    # a1 = -10 u, a2 = 0: chi = 11 u^2 - b^2, whose roots +-b/sqrt(11) lie
    # 0.6 b apart while (1/8)(|chi'(zeta-)| + |chi'(zeta+)|) is 1.66 b
    b = 0.1
    leaf = CFNode(lambda u: -10.0 * u, lambda u: 0.0, lambda u: b)
    zm, zp = linear_leaf_roots(0.0, -10.0, 0.0, 0.0, b)
    assert zp - zm < 0.125 * (abs(d_chi_du(leaf, zm)) + abs(d_chi_du(leaf, zp)))
    assert not zeta_separation_ok(leaf, zm, zp)
