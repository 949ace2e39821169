import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpspec import mssets
from qpspec.cli import build_problem, load_config
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


def test_site_classes_check_the_point_cap_before_either_cache(builder, monkeypatch):
    def refuse(*args):
        raise AssertionError("an over-cap window must not be looked up or built")

    monkeypatch.setattr(mssets, "_window", refuse)
    monkeypatch.setattr(mssets, "_phases", refuse)
    lad = ScaleLadder.from_sequences(0.35, (math.log(5.0), math.log(400.0)),
                                     (-32.0, -36.0, -40.0))
    with pytest.raises(CombinatorialBudgetError):
        GeometryBuilder(Problem(builder.problem.frequency, builder.problem.potential,
                                lad)).site_classes(0.2, 2)


def _classifier(nu, R2, thr, monkeypatch):
    """A builder whose one class threshold is thr, at s = 2 on a window of
    radius floor(3 R2) + 1; R^(1) = 0.01 makes the class separation and the
    class's Lambda sets vacuous, so every site the test selects is a member."""
    omega = (1.0, GOLDEN, math.sqrt(2.0) - 1.0)[:nu]
    lad = ScaleLadder.from_sequences(0.35, (math.log(0.01), math.log(R2)), (-32.0, -36.0, -40.0))
    monkeypatch.setattr(GeometryBuilder, "threshold", lambda self, s_prime, s: thr)
    return GeometryBuilder(Problem(Frequency(omega, 0.1, 4.0), Potential({}, 1e-4, 0.5), lad))


def _window_phases(b):
    """The window that b.site_classes(k, 2) scans, and its phases m.omega."""
    pts = mssets._window(int(math.floor(3.0 * b.ladder.R(2) + 3.0 * b.ladder.R(1))) + 1,
                         b.problem.nu)
    return pts, pts.astype(float) @ np.asarray(b.problem.omega, dtype=float)


def _full_scan(b, k, thr) -> tuple:
    """The window's sites with |mw (mw + 2k)| / 256 <= thr, scanned point by
    point, in canonical order."""
    pts, mw = _window_phases(b)
    return SiteSet(pts[np.abs(mw * (mw + 2.0 * k)) / 256.0 <= thr]).sites


@given(nu=st.sampled_from([2, 3]), k=st.floats(-0.5, 0.5),
       log_ratio=st.floats(math.log(1e-18), math.log(4.0)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_window_bands_select_what_the_full_scan_selects(nu, k, log_ratio):
    # thresholds from 1e-18 up to 4 max(k^2, 1e-18), beyond the k^2 at which
    # the two bands of candidates merge into one; small windows (radius 7 at
    # nu = 2, 3 at nu = 3), since the top thresholds put most of a window in
    # the class and the separation check is quadratic in the class size
    thr = max(k * k, 1e-18) * math.exp(log_ratio)
    with pytest.MonkeyPatch.context() as mp:
        b = _classifier(nu, 2.0 if nu == 2 else 0.7, thr, mp)
        assert b.site_classes(k, 2).members[1] == _full_scan(b, k, thr)


@pytest.mark.parametrize("nu, k", [(2, 0.2088), (2, -0.0371), (3, 0.31)])
def test_window_bands_keep_a_site_at_exactly_the_threshold(nu, k, monkeypatch):
    b = _classifier(nu, 30.0 if nu == 2 else 5.0, 0.0, monkeypatch)
    _, mw = _window_phases(b)
    diffs = np.sort(np.abs(mw * (mw + 2.0 * k)) / 256.0)
    for thr in (float(diffs[7]), float(np.nextafter(diffs[7], -np.inf))):
        b = _classifier(nu, b.ladder.R(2), thr, monkeypatch)
        want = _full_scan(b, k, thr)
        assert len(want) == 8 - (thr < diffs[7])
        assert b.site_classes(k, 2).members[1] == want


@pytest.mark.parametrize("m", [(1, -1), (-8, 13), (3, -1, -5)])
def test_window_bands_keep_a_site_midway_between_them(m, monkeypatch):
    # at k = -m.omega, |mw| = |mw + 2k| = |k| for m, so at m's own diff as
    # the threshold m lies on the edge of both bands
    b = _classifier(len(m), 5.0, 0.0, monkeypatch)
    k = -float(np.dot(m, b.problem.omega))
    pts, mw = _window_phases(b)
    x = mw[pts.tolist().index(list(m))]
    thr = float(abs(x * (x + 2.0 * k)) / 256.0)
    b = _classifier(len(m), 5.0, thr, monkeypatch)
    members = b.site_classes(k, 2).members[1]
    assert m in members and members == _full_scan(b, k, thr)


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


def _golden_geometry_problem():
    cfg = load_config(Path(__file__).resolve().parents[1] / "examples_config" / "golden_mean.json")
    gl = cfg["geometry_ladder"]
    ladder = ScaleLadder.from_sequences(gl["beta1"], gl["log_R"], gl["log_delta"])
    return dataclasses.replace(build_problem(cfg), ladder=ladder)


# sha256 of repr(S.sites) for symmetrized and paired sets on the golden
# config's geometry ladder and on geometry_traj's (the geometry_problem
# fixture): two k each for lambda_sym, two labels for lambda_pair, k given
# as a share of the pair window 2 sigma(n0).  The symmetrized sets are the
# whole ball B(3 R^(2)) here.  The digests were taken with the full-window
# class scan and per-site subset bisection, before the phase bands and the
# merged set algebra.
MULTISCALE_PINS = [
    ("golden", "sym", 4e-15, None,
     "694a51fd2b2648542bc9e794205fa341ebb42ba155f39d17499d7e52032af66f"),
    ("golden", "sym", -1.1e-14, None,
     "694a51fd2b2648542bc9e794205fa341ebb42ba155f39d17499d7e52032af66f"),
    ("golden", "pair", 0.7, (1, 0),
     "95592a811f5760adf8b7515bc557503410464079906c7a69c4fedf8beef846c1"),
    ("golden", "pair", -0.6, (-1, -1),
     "1defc5acff0e5a1c3ae554a87d55a7e5e1b93e17badd4c071903def87c6ce290"),
    ("traj", "sym", -3e-15, None,
     "694a51fd2b2648542bc9e794205fa341ebb42ba155f39d17499d7e52032af66f"),
    ("traj", "sym", 1.2e-14, None,
     "694a51fd2b2648542bc9e794205fa341ebb42ba155f39d17499d7e52032af66f"),
    ("traj", "pair", -0.95, (0, -2),
     "b0e452c626a2bc723d05a6d3e4cf6685b804b114f0a1078adf5f24d79b06bfb8"),
    ("traj", "pair", 0.3, (1, 1),
     "cc9b839f366add9644b44dd9e780b6ee2efed0bc94f28a47efda9d2e6b00584f"),
]


@pytest.mark.default_blas("the symmetrized and paired sets, whose classification reads the "
                          "window's phases from a float matrix product, must keep their pins")
@pytest.mark.parametrize("ladder, kind, k, n0, digest", MULTISCALE_PINS)
def test_golden_and_traj_multiscale_sets_pinned(geometry_problem, ladder, kind, k, n0, digest):
    problem = _golden_geometry_problem() if ladder == "golden" else geometry_problem
    b = GeometryBuilder(problem)
    if kind == "sym":
        S = b.lambda_sym(k, 2)
    else:
        kn0 = k_point(problem.frequency, n0) + k * 2.0 * sigma(n0, problem.ladder)
        S = b.lambda_pair(kn0, 2, n0)
    assert hashlib.sha256(repr(S.sites).encode()).hexdigest() == digest
