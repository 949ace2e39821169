import hashlib
import math

import numpy as np
import pytest

from qpspec import mssets
from qpspec.errors import (CombinatorialBudgetError, GeometryError, LadderRangeError,
                           RegimeError)
from qpspec.lattice import SiteSet, ball, straddles
from qpspec.model import Frequency, Potential, Problem, ScaleLadder, sigma
from qpspec.mssets import (GeometryBuilder, _iterated_straddle_removal,
                           is_correct_word, max_correct_length)
from qpspec.resonance import k_point

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# -- correct words -----------------------------------------------------------


def test_one_letter_word_correct():
    assert is_correct_word((1,))
    assert is_correct_word((3,))


def test_immediate_repeat_incorrect():
    assert not is_correct_word((1, 1))


def test_witness_121():
    assert is_correct_word((1, 2, 1))
    assert not is_correct_word((1, 2, 1, 1))
    assert not is_correct_word((2, 1, 2))


def test_max_correct_length_exhaustive():
    for s in (1, 2, 3, 4):
        assert max_correct_length(s) == 2 ** s - 1


# -- iterated straddle removal -------------------------------------------------


def test_empty_system_fixpoint():
    start = ball(3, 2)
    out, steps = _iterated_straddle_removal(start, [], 1)
    assert out.sites == start.sites and steps == 0


def test_single_straddler_removed_in_one_step():
    start = ball(12, 2)
    lobe = SiteSet([(12, 0), (13, 0)])  # straddles the ball
    out, steps = _iterated_straddle_removal(start, [(1, lobe)], 2)
    assert steps == 1
    assert (12, 0) not in out and (13, 0) not in out


def random_proper_system(rng, levels_max=3):
    """(level, set) groups of two small lobes on a separation-respecting grid."""
    groups = []
    spacing = {1: 40, 2: 160, 3: 640}
    for level in (1, 2, 3)[:levels_max]:
        count = int(rng.integers(1, 4))
        centers = rng.choice(np.arange(-3, 4), size=(count, 2), replace=False)
        for c in centers:
            base = (int(c[0]) * spacing[level], int(c[1]) * spacing[level])
            lobe1 = [tuple(np.add(base, d)) for d in ((0, 0), (1, 0), (0, 1))]
            off = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
            lobe2 = [tuple(np.add(p, off)) for p in lobe1]
            groups.append((level, SiteSet(lobe1 + lobe2)))
    return groups


def test_random_proper_systems_stabilize():
    rng = np.random.default_rng(17)
    for _ in range(20):
        groups = random_proper_system(rng)
        cap = 2 ** max(level for level, _ in groups)
        start = ball(10, 2).translate((int(rng.integers(-20, 20)),
                                       int(rng.integers(-20, 20))))
        out, steps = _iterated_straddle_removal(start, groups, cap)
        assert steps < cap
        for _, S in groups:
            assert not straddles(S, out)


# -- site classes and Lambda sets ---------------------------------------------


@pytest.fixture(scope="module")
def builder(geometry_problem):
    return GeometryBuilder(geometry_problem)


def test_site_classes_generic_k(builder):
    cls = builder.site_classes(0.2088, 2)
    assert cls.members[1] == ((0, 0),)


def test_zero_always_in_top_class(builder):
    for k in (0.11, 0.2088, 0.41):
        cls = builder.site_classes(k, 2)
        assert (0, 0) in cls.members[1]


def test_site_classes_never_ask_admissibility(geometry_problem, monkeypatch):
    want = GeometryBuilder(geometry_problem).site_classes(0.2088, 2).members

    def refuse(self, *args):
        raise AssertionError("site_classes must not scan admissibility")

    monkeypatch.setattr(GeometryBuilder, "admissible_k", refuse)
    assert GeometryBuilder(geometry_problem).site_classes(0.2088, 2).members == want


def test_classification_window_is_read_only(builder):
    pts = builder._candidates(20)
    assert pts is mssets._window(20, 2)
    with pytest.raises(ValueError):
        pts[0] = 1


def test_warm_window_still_checks_the_point_cap(builder, monkeypatch):
    builder._candidates(20)

    def refuse(*args):
        raise AssertionError("an over-cap window must not be looked up or built")

    monkeypatch.setattr(mssets, "_window", refuse)
    with pytest.raises(CombinatorialBudgetError):
        builder._candidates(1000)


def narrow_delta_builder(log_R, log_delta):
    freq = Frequency((1.0, GOLDEN), 0.1, 3.0, window_n=300)
    lad = ScaleLadder.from_sequences(0.35, log_R, log_delta)
    return GeometryBuilder(Problem(freq, Potential.from_harmonics({(0, 1): 0.6}, 1e-4, 0.5), lad))


def test_admissible_k_checks_every_m():
    # |m| up to 60 lies beyond 12 R^(2) = 24: the predicate must not answer
    b = narrow_delta_builder((math.log(1.5), math.log(2.0)), (-32.0, -36.0, -40.0))
    with pytest.raises(LadderRangeError):
        b.admissible_k(0.2, 2, 30)


def test_admissible_k_values():
    b = narrow_delta_builder((math.log(5.0), math.log(31.0)), (-100.0, -110.0, -120.0))
    assert not b.admissible_k(k_point(b.problem.frequency, (0, 1)), 2, 30)
    assert b.admissible_k(0.2088, 2, 30)


def test_lambda_plain_s1_is_inner_ball(builder, geometry_problem):
    lam = builder.lambda_plain(0.2088, 1)
    R1 = geometry_problem.ladder.R(1)
    assert set(lam.sites) == set(ball(2.0 * R1, 2).sites)


def test_lambda_plain_no_straddlers_full_ball(builder, geometry_problem):
    lam = builder.lambda_plain(0.2088, 2)
    R2 = geometry_problem.ladder.R(2)
    assert set(lam.sites) == set(ball(3.0 * R2, 2).sites)


def test_lambda_plain_straddler_removed(builder, geometry_problem):
    # k at the resonance of a site inside the straddle annulus
    m = (80, 6)
    km = k_point(geometry_problem.frequency, m)
    cls = builder.site_classes(km, 2)
    assert m in cls.members[1]
    lam = builder.lambda_plain(km, 2)
    R1, R2 = geometry_problem.ladder.R(1), geometry_problem.ladder.R(2)
    big = ball(3.0 * R2, 2)
    assert len(lam) < len(big)
    assert ball(2.0 * R2, 2).issubset(lam)
    # inside-or-disjoint for every constructed set
    for (s_p, mm), sub in cls.lambda_sets.items():
        assert not straddles(sub, lam)


def test_lambda_plain_reflection_law(builder, geometry_problem):
    m = (80, 6)
    km = k_point(geometry_problem.frequency, m)
    lam = builder.lambda_plain(km, 2)
    mirror = builder.lambda_plain(-km, 2)
    assert set(mirror.sites) == set(lam.reflect().sites)


def test_lambda_sym_regime_guard(builder):
    with pytest.raises(RegimeError):
        builder.lambda_sym(0.3, 2)  # |k| >= delta^(0)


def test_lambda_sym_invariance(builder, geometry_problem):
    lam = builder.lambda_sym(1e-15, 2)
    assert set(lam.reflect().sites) == set(lam.sites)
    R2 = geometry_problem.ladder.R(2)
    assert ball(2.0 * R2, 2).issubset(lam)
    plain = builder.lambda_plain(1e-15, 2)
    assert lam.issubset(plain)


def test_lambda_pair_s1_exact(builder, geometry_problem):
    n0 = (0, 1)
    kn0 = k_point(geometry_problem.frequency, n0)
    lam = builder.lambda_pair(kn0, 1, n0)
    R1 = geometry_problem.ladder.R(1)
    base = ball(3.0 * R1, 2)
    assert set(lam.sites) == set(base.union(base.reflect_through(n0)).sites)


def test_lambda_pair_invariance_and_sandwich(builder, geometry_problem):
    n0 = (0, 1)
    kn0 = k_point(geometry_problem.frequency, n0)
    lam = builder.lambda_pair(kn0 + 1e-5, 2, n0)
    assert set(lam.reflect_through(n0).sites) == set(lam.sites)
    R2 = geometry_problem.ladder.R(2)
    inner = ball(2.0 * R2, 2)
    outer = ball(3.0 * R2, 2)
    assert inner.issubset(lam) and inner.translate(n0).issubset(lam)
    assert lam.issubset(outer.union(outer.translate(n0)))


def test_invariance_checks_catch_asymmetric_sets(geometry_problem, monkeypatch):
    # a removal that drops one site but not its mirror breaks both laws
    def lopsided(start, groups, cap):
        return start.difference([(-1, 0)]), 1

    monkeypatch.setattr(mssets, "_iterated_straddle_removal", lopsided)
    b = GeometryBuilder(geometry_problem)
    with pytest.raises(GeometryError, match="reflection invariant"):
        b.lambda_sym(1e-15, 2)
    n0 = (0, 1)
    with pytest.raises(GeometryError, match="T-invariant"):
        b.lambda_pair(k_point(geometry_problem.frequency, n0) + 1e-5, 2, n0)


def _set_pin(S):
    return len(S), hashlib.sha256(repr(S.sites).encode()).hexdigest()


FULL_BALL_PIN = (17485, "694a51fd2b2648542bc9e794205fa341ebb42ba155f39d17499d7e52032af66f")


@pytest.mark.parametrize("m, pin", [
    (None, FULL_BALL_PIN),
    ((80, 6), (17323, "59a736beb73858ef687419845d53ba4f42f4aeaaa52de11edb822538fa40c65f")),
    ((0, 93), (17435, "fe88310c4ac8e2686ac1b325a02c0b47137a3055e8d4542f3cfa45f1279b531d")),
])
def test_lambda_plain_pinned(geometry_problem, m, pin):
    # (size, sha256 of the ordered sites): pins the content and the order
    k = 0.2088 if m is None else k_point(geometry_problem.frequency, m)
    assert _set_pin(GeometryBuilder(geometry_problem).lambda_plain(k, 2)) == pin


@pytest.mark.parametrize("k", [1e-15, -6e-15, 1.1e-14])
def test_lambda_sym_pinned(geometry_problem, k):
    assert _set_pin(GeometryBuilder(geometry_problem).lambda_sym(k, 2)) == FULL_BALL_PIN


def test_lambda_sym_classifies_once(geometry_problem, monkeypatch):
    calls = []
    classify = GeometryBuilder.site_classes

    def counted(self, k, s, pair=None):
        calls.append((k, s, pair))
        return classify(self, k, s, pair)

    monkeypatch.setattr(GeometryBuilder, "site_classes", counted)
    GeometryBuilder(geometry_problem).lambda_sym(1e-15, 2)
    assert calls == [(1e-15, 2, None)]


def test_lambda_pair_classifies_once(geometry_problem, monkeypatch):
    calls = []
    classify = GeometryBuilder.site_classes

    def counted(self, k, s, pair=None):
        calls.append((k, s, pair))
        return classify(self, k, s, pair)

    monkeypatch.setattr(GeometryBuilder, "site_classes", counted)
    n0 = (0, 1)
    k = k_point(geometry_problem.frequency, n0) + 1e-5
    GeometryBuilder(geometry_problem).lambda_pair(k, 2, n0)
    assert calls == [(k, 2, ((0, 0), n0))]


@pytest.mark.parametrize("n0, offset, pin", [
    ((0, 1), None, (17672, "e9d1f9f295b7b9cde9667e2fe2e2cbd586c5228f211f4cdabea1d70e84143415")),
    ((1, -1), -0.5, (17672, "1e900b7b6f56e5e6b3891a07f8d5ff22c22da884bb7bf0b4580536108caec027")),
    ((2, 0), 0.9, (17857, "841260e670ebc035579a4e4a9a059180a1858a059ac9f28dd0116362ce07eee6")),
])
def test_lambda_pair_pinned(geometry_problem, n0, offset, pin):
    # offset is a share of the pair window 2 sigma(n0); None is 1e-5 from k_n0
    kn0 = k_point(geometry_problem.frequency, n0)
    k = kn0 + (1e-5 if offset is None else offset * 2.0 * sigma(n0, geometry_problem.ladder))
    assert _set_pin(GeometryBuilder(geometry_problem).lambda_pair(k, 2, n0)) == pin


def test_lambda_pair_regime_guard(builder, geometry_problem):
    n0 = (0, 1)
    kn0 = k_point(geometry_problem.frequency, n0)
    with pytest.raises(RegimeError):
        builder.lambda_pair(kn0 + 1.0, 2, n0)


def test_separation_violation_raises():
    # fat thresholds at k = 0 put several Fibonacci pairs in one class
    freq = Frequency((1.0, GOLDEN), 0.01, 3.0, window_n=300)
    lad = ScaleLadder.from_sequences(0.35, (math.log(5.0), math.log(31.0)),
                                     (-10.0, -12.0, -14.0))
    prob = Problem(freq, Potential({}, 1e-4, 0.5), lad)
    with pytest.raises(GeometryError):
        GeometryBuilder(prob).site_classes(0.0, 2)


def test_symmetric_pair_removed_in_one_step():
    # hand-built reflection pair straddling the ball: one subtraction step
    start = ball(12, 2)
    lobe = SiteSet([(12, 0), (13, 0), (12, 1)])
    pair = lobe.union(lobe.reflect())
    out, steps = _iterated_straddle_removal(start, [(1, pair)], 2)
    assert steps == 1
    assert set(out.reflect().sites) == set(out.sites)
    assert not set(pair.sites) & set(out.sites)
