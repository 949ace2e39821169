import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpspec import lattice
from qpspec.errors import CombinatorialBudgetError, SiteBudgetError
from qpspec.lattice import (BOX_POINT_CAP, SiteSet, ball, l1_ball_size, l1_norm,
                            punctured_ball, straddles)

from conftest import canonical_order

sites2d = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


def test_l1_norm_examples():
    assert l1_norm((0, 0)) == 0
    assert l1_norm((1, -2)) == 3
    assert l1_norm((3, 4, -1)) == 8


def test_ball_small():
    assert ball(0, 2).sites == ((0, 0),)
    b1 = ball(1, 2)
    assert set(b1.sites) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(b1) == 5


def test_ball_count_matches_enumeration():
    # independent oracle: brute-force count over a box
    for r in range(0, 5):
        brute = sum(1 for p in itertools.product(range(-r, r + 1), repeat=2)
                    if sum(map(abs, p)) <= r)
        assert l1_ball_size(r, 2) == brute
        assert len(ball(r, 2)) == brute
    assert len(ball(2, 2)) == 13


def test_ball_non_integer_radius_floor():
    assert set(ball(1.9, 2).sites) == set(ball(1, 2).sites)


def test_ball_budget():
    with pytest.raises(SiteBudgetError):
        ball(500, 2, budget=1000)


def test_ball_over_budget_raises_before_building(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an over-budget ball must not build any site")

    monkeypatch.setattr(lattice.np, "indices", refuse)
    with pytest.raises(SiteBudgetError):
        ball(40, 3, budget=1000)


def test_cached_ball_still_checks_its_budget():
    ball(5, 2, budget=None)
    with pytest.raises(SiteBudgetError):
        ball(5, 2, budget=10)


def test_each_ball_call_is_a_fresh_equal_set():
    a = ball(6, 2)
    assert (6, 0) in a  # builds a's .sites and index caches
    b = ball(6, 2)
    assert b is not a and b == a
    assert "sites" not in vars(b) and "_index" not in vars(b)


def test_cached_ball_codes_are_read_only():
    with pytest.raises(ValueError):
        ball(3, 2)._codes[0] = 0


def test_ball_cache_is_keyed_on_the_floored_radius():
    lattice._ball_codes.cache_clear()
    ball(4.7, 2)
    ball(4, 2)
    info = lattice._ball_codes.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


@pytest.mark.parametrize("nu", [1, 2, 3])
@pytest.mark.parametrize("radius", [-1, 0, 1, 6])
def test_punctured_ball_is_the_ball_without_its_origin(radius, nu):
    pts = punctured_ball(radius, nu)
    assert pts.shape == (max(l1_ball_size(radius, nu) - 1, 0), nu)
    assert [tuple(p) for p in pts.tolist()] == list(ball(max(radius, 0), nu).sites[1:])


def test_punctured_ball_over_cap_raises_before_building(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an over-cap window must not build any point")

    monkeypatch.setattr(lattice.np, "indices", refuse)
    assert (2 * 1000 + 1) ** 2 > BOX_POINT_CAP
    with pytest.raises(CombinatorialBudgetError):
        punctured_ball(1000, 2)
    with pytest.raises(CombinatorialBudgetError):
        punctured_ball(10 ** 6, 2)


@pytest.mark.parametrize("nu", [1, 2, 3])
@pytest.mark.parametrize("R", [0, 1, 2.5, 7])
def test_ball_is_canonical(R, nu):
    b = ball(R, nu)
    assert b.sites == canonical_order(b.sites)
    assert len(b) == l1_ball_size(int(R), nu)


@given(a=st.lists(sites2d, max_size=40), b=st.lists(sites2d, max_size=40))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_difference_is_canonical(a, b):
    A = SiteSet(a)
    for other in (b, SiteSet(b), set(b)):
        diff = A.difference(other)
        assert diff.sites == canonical_order(set(a) - set(b))
        assert all(diff.index(s) == i for i, s in enumerate(diff.sites))


def test_ball_reflect_invariant():
    for r in (0, 1, 3):
        b = ball(r, 2)
        assert set(b.reflect().sites) == set(b.sites)


def test_transform_examples():
    S = SiteSet([(0, 0), (1, 0)])
    out = S.reflect_through((2, 0))
    assert set(out.sites) == {(2, 0), (1, 0)}


@given(m=sites2d, a=sites2d)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_reflect_through_maps_shifted_balls(m, a):
    # reflect_through(m) sends ball(R)+a onto ball(R)+(m-a)
    b = ball(2, 2)
    lhs = b.translate(a).reflect_through(m)
    rhs = b.translate(tuple(x - y for x, y in zip(m, a)))
    assert set(lhs.sites) == set(rhs.sites)


@given(m=sites2d)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_translate_roundtrip(m):
    S = ball(2, 2)
    back = S.translate(m).translate(tuple(-c for c in m))
    assert back.sites == S.sites


def test_straddles_examples():
    assert not straddles(SiteSet([(0, 0)]), SiteSet([(0, 0)]))
    assert straddles(SiteSet([(0, 0), (5, 0)]), ball(1, 2))


def test_straddles_accepts_plain_collections():
    S1 = [(0, 0), (5, 0)]
    assert straddles(S1, set(ball(1, 2).sites))
    assert straddles(S1, list(ball(1, 2).sites))
    assert not straddles(S1, [(0, 0), (5, 0), (9, 9)])
    assert not straddles(S1, ball(0, 2).translate((1, 0)))


def test_straddles_implies_intersection_and_not_subset():
    S1 = SiteSet([(0, 0), (5, 0)])
    S2 = ball(1, 2)
    assert straddles(S1, S2)
    assert set(S1.sites) & set(S2.sites)
    assert not S1.issubset(S2)


def test_canonical_order_deterministic():
    pts = [(1, 0), (0, 0), (0, 1), (-1, 0), (0, -1), (1, 0)]
    a = SiteSet(pts)
    b = SiteSet(reversed(pts))
    assert a.sites == b.sites
    norms = [l1_norm(s) for s in a.sites]
    assert norms == sorted(norms)


def _half(nu):
    """W/2 of the SiteSet code for dimension nu: coordinates satisfy |x_i| < W/2."""
    return 2 ** (62 // (nu + 1) - 1)


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_codes_cover_their_range_and_refuse_beyond_it(nu):
    top = _half(nu) - 1
    corners = [tuple(top if (c >> i) & 1 else -top for i in range(nu))
               for c in range(2 ** nu)]
    S = SiteSet(corners + [(0,) * nu, (1,) + (0,) * (nu - 1)])
    assert S.sites == canonical_order(S.sites)
    assert set(S.sites) == set(corners) | {(0,) * nu, (1,) + (0,) * (nu - 1)}
    assert np.array_equal(SiteSet(S.array()).array(), S.array())
    for i in range(nu):
        for past in (top + 1, -top - 1, 2 ** 70):
            site = tuple(past if j == i else 0 for j in range(nu))
            with pytest.raises(ValueError):
                SiteSet([site])
            with pytest.raises(ValueError):
                SiteSet([(0,) * nu]).translate(site)
    with pytest.raises(ValueError):
        SiteSet([(top,) * nu]).translate((1,) + (0,) * (nu - 1))


@st.composite
def _operands(draw):
    """Two site lists, a shift and a reflection centre in a random dimension,
    near the origin or near the edge of the code range."""
    nu = draw(st.integers(1, 3))
    base = draw(st.sampled_from([0, 1000, _half(nu) - 20]))
    sign = draw(st.sampled_from([1, -1]))
    small = st.tuples(*[st.integers(-6, 6)] * nu)
    far = small.map(lambda s: tuple(sign * base + c for c in s))
    a = draw(st.lists(far, max_size=25))
    b = draw(st.lists(st.one_of(far, small), max_size=25))
    return a, b, draw(small), draw(small)


@given(ops=_operands())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_set_algebra_matches_python_sets(ops):
    a, b, m, c = ops
    A, B, sa, sb = SiteSet(a), SiteSet(b), set(a), set(b)
    assert A.sites == canonical_order(a)
    assert A.union(B).sites == A.union(b).sites == canonical_order(sa | sb)
    assert A.difference(B).sites == canonical_order(sa - sb)
    assert A.issubset(B) == (sa <= sb)
    assert B.issubset(A) == B.issubset(a) == (sb <= sa)
    assert straddles(A, B) == straddles(a, b) == bool(sa & sb and sa - sb)
    assert A.translate(m).sites == canonical_order(tuple(x + y for x, y in zip(s, m)) for s in a)
    assert A.reflect().sites == canonical_order(tuple(-x for x in s) for s in a)
    assert A.reflect_through(c).sites == canonical_order(
        tuple(y - x for x, y in zip(s, c)) for s in a)
    assert all(s in A and A.sites[A.index(s)] == s for s in a)
    assert not any(s in A for s in sb - sa)
    # a set built in any caller order is the canonical set
    assert SiteSet(list(dict.fromkeys(a))[::-1]) == A


def _plain_ball(radius, nu):
    return {p for p in itertools.product(range(-radius, radius + 1), repeat=nu)
            if sum(map(abs, p)) <= radius}


@st.composite
def _large_operands(draw):
    """(SiteSet, set) pairs of thousands of sites: a ball, its translate, its
    reflection through a centre, their union and difference with a few
    hundred sites, and a union of many small runs as _reflection_groups
    builds it; with a shift and a centre."""
    nu = draw(st.sampled_from([1, 2, 2, 3]))
    radius = draw(st.integers(*{1: (5, 60), 2: (20, 60), 3: (4, 12)}[nu]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def site():
        return tuple(int(x) for x in rng.integers(-radius - 4, radius + 5, size=nu))

    shift, centre = site(), site()
    few = [site() for _ in range(draw(st.integers(100, 300)))]
    bx = _plain_ball(radius, nu)
    pairs = [(ball(radius, nu), bx)]
    pairs.append((pairs[0][0].translate(shift), {tuple(x + m for x, m in zip(p, shift)) for p in bx}))
    pairs.append((pairs[0][0].reflect_through(centre),
                  {tuple(c - x for x, c in zip(p, centre)) for p in bx}))
    for S, s in pairs[:3]:
        pairs.append((S.union(few), s | set(few)))
        pairs.append((S.difference(few), s - set(few)))
    lams = [ball(2, nu).translate(p) for p in few[:40]]
    runs = SiteSet.union(*lams, *(lam.reflect_through(centre) for lam in lams))
    small = _plain_ball(2, nu)
    plain_runs = {tuple(q + x for q, x in zip(p, m)) for m in few[:40] for p in small}
    pairs.append((runs, plain_runs | {tuple(c - x for x, c in zip(p, centre)) for p in plain_runs}))
    i, j = draw(st.integers(0, len(pairs) - 1)), draw(st.integers(0, len(pairs) - 1))
    return pairs[i], pairs[j], shift, centre


@given(ops=_large_operands())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_set_algebra_on_large_sets_matches_python_sets(ops):
    (A, a), (B, b), m, c = ops
    assert A.sites == canonical_order(a) and B.sites == canonical_order(b)
    union, diff = A.union(B), A.difference(B)
    assert union.sites == canonical_order(a | b)
    assert diff.sites == canonical_order(a - b)
    assert A.issubset(B) == (a <= b) and B.issubset(A) == (b <= a)
    assert A.issubset(union) and diff.issubset(A)
    assert diff.issubset(B) == (not (a - b))
    if a and b - a:  # as large as A, and all but one site in A
        assert not A.difference([min(a)]).union([min(b - a)]).issubset(A)
    assert straddles(A, B) == bool(a & b and a - b)
    assert A.translate(m).sites == canonical_order(
        tuple(x + y for x, y in zip(s, m)) for s in a)
    assert A.reflect_through(c).sites == canonical_order(
        tuple(y - x for x, y in zip(s, c)) for s in a)
    assert (A == B) == (a == b)
    assert A.reflect_through(c).reflect_through(c) == A
