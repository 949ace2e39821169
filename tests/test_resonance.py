import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpspec.errors import LadderRangeError, RegimeError
from qpspec.lattice import punctured_ball
from qpspec.model import Frequency, Potential, Problem, ScaleLadder
from qpspec.resonance import BOUNDARY_TOL, ResonanceProfile, interval, k_point, reset

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def reset_problem():
    """Narrow reset widths: (e^-70)^(3/4) and (e^-80)^(3/4)."""
    freq = Frequency((1.0, GOLDEN), 0.01, 3.0, window_n=250)
    lad = ScaleLadder.from_sequences(0.35, (1.2, 2.2), (-60.0, -70.0, -80.0))
    return Problem(freq, Potential({}, 1e-4, 0.5), lad)


def test_k_point_zero(golden_freq):
    assert k_point(golden_freq, (0, 0)) == 0.0


@given(st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_k_point_antisymmetric(m):
    freq = Frequency((1.0, GOLDEN), 0.1, 3.0)
    assert k_point(freq, tuple(-c for c in m)) == -k_point(freq, m)


def test_k_point_example():
    freq = Frequency((1.0, 0.618), 0.1, 3.0)
    assert k_point(freq, (1, -2)) == pytest.approx(0.118)


def test_interval_s0_is_sigma(golden_freq, geometry_ladder):
    iv = interval(golden_freq, (1, 0), 0, geometry_ladder)
    km = k_point(golden_freq, (1, 0))
    half = 32.0 * math.exp(-32.0 / 6.0)
    assert iv.k_minus == pytest.approx(km - half)
    assert iv.k_plus == pytest.approx(km + half)


def test_interval_width_monotone_in_s(golden_freq):
    lad = ScaleLadder.from_sequences(0.5, (2.0, 3.0), (-1.0, -1.5, -2.0))
    widths = []
    for s in (0, 1, 2):
        iv = interval(golden_freq, (1, 0), s, lad)
        widths.append(iv.k_plus - iv.k_minus)
    assert all(b >= a for a, b in zip(widths, widths[1:]))


def test_interval_widening_empty_when_roots_exceed_sigma(golden_freq):
    # scale-2 site: sigma(m) = 32 e^(-15), while (delta^(0))^(1/2) = e^-2
    # exceeds it, so the level-1 widening sum is empty
    lad = ScaleLadder.from_sequences(0.5, (math.log(5.0), math.log(31.0)),
                                     (-4.0, -90.0, -100.0))
    m = (80, 6)
    assert lad.scale_of(m) == 2
    iv0 = interval(golden_freq, m, 0, lad)
    iv1 = interval(golden_freq, m, 1, lad)
    iv2 = interval(golden_freq, m, 2, lad)
    assert (iv1.k_minus, iv1.k_plus) == (iv0.k_minus, iv0.k_plus)
    assert iv2.k_plus - iv0.k_plus == pytest.approx(64.0 * math.exp(-45.0), rel=1e-12)


def test_interval_widening_formula(golden_freq, geometry_ladder):
    m = (1, 0)
    km = k_point(golden_freq, m)
    sig = 32.0 * math.exp(-32.0 / 6.0)
    widen = 64.0 * sum(math.exp(0.5 * geometry_ladder.log_delta_at(r))
                       for r in range(0, 2)
                       if math.exp(0.5 * geometry_ladder.log_delta_at(r)) <= sig)
    iv = interval(golden_freq, m, 2, geometry_ladder)
    assert iv.k_plus == pytest.approx(km + sig + widen)


def test_reset_far_from_resonances(reset_problem):
    prof = reset(reset_problem, 10.0, 12)
    assert prof.reset == ()
    assert prof.regime[0] == "nonresonant"


def test_reset_single_resonance():
    freq = Frequency((1.0, GOLDEN), 0.01, 3.0, window_n=250)
    lad = ScaleLadder.from_sequences(0.35, (2.05, 2.98), (-7.0, -8.0, -8.6))
    prob = Problem(freq, Potential({}, 1e-4, 0.5), lad)
    n0 = (0, 1)
    k = k_point(freq, n0) + 1e-4  # inside the e^-6 reset width
    prof = reset(prob, k, 12)
    assert prof.reset == (n0,)
    assert prof.regime == ("simple_pair", n0)
    assert prof.principal_sets[0] == ((0, 0), n0)


def test_reset_radius_beyond_certificate(reset_problem):
    with pytest.raises(LadderRangeError):
        reset(reset_problem, 0.1, 260)


def test_reset_reflection(reset_problem):
    n0 = (0, 1)
    k = k_point(reset_problem.frequency, n0) + 1e-6
    plus = reset(reset_problem, k, 12)
    minus = reset(reset_problem, -k, 12)
    assert tuple(tuple(-c for c in n) for n in plus.reset) == minus.reset
    assert plus.regime[0] == minus.regime[0]


@pytest.fixture(scope="module")
def graded_problem():
    """Reset widths e^-6 at scale 1 and e^-6.45 at scale 2."""
    freq = Frequency((1.0, GOLDEN), 0.01, 3.0, window_n=250)
    lad = ScaleLadder.from_sequences(0.35, (2.05, 2.98), (-7.0, -8.0, -8.6))
    return Problem(freq, Potential({}, 1e-4, 0.5), lad)


def test_reset_graded_profile(graded_problem):
    # both k_(-34,55) = 0.00407 and k_(-89,144) = 0.00155 catch k = 0.003;
    # their mirrors stay out
    prof = reset(graded_problem, 0.003, 236)
    assert (-34, 55) in prof.reset and (-89, 144) in prof.reset
    assert prof.regime[0] == "graded"
    norms = [sum(map(abs, n)) for n in prof.reset]
    assert norms == sorted(norms)
    zero = (0, 0)
    for level, tier in enumerate(prof.principal_sets):
        assert len(tier) <= 2 ** (level + 1)
        assert zero in tier
        if level:
            assert set(prof.principal_sets[level - 1]).issubset(tier)


def test_reset_equal_norm_tie_is_a_regime_error():
    # reset widths of e^-1.5 and more break the Diophantine separation:
    # the mirrors (-3, 5) and (3, -5) both catch k = 0.1
    freq = Frequency((1.0, GOLDEN), 0.01, 3.0, window_n=250)
    lad = ScaleLadder.from_sequences(0.35, (2.05, 2.98), (-2.0, -2.5, -3.0))
    prob = Problem(freq, Potential({}, 1e-4, 0.5), lad)
    with pytest.raises(RegimeError, match=r"equal norm: \(-3, 5\), \(3, -5\)"):
        reset(prob, 0.1, 12)


def reset_by_loop(problem, k, search_radius):
    """reset as one scale_of and one exp per window point: the reference
    for the scan by norm."""
    ladder = problem.ladder
    pts = punctured_ball(search_radius, problem.nu)
    kn = -0.5 * (pts @ np.asarray(problem.frequency.omega, dtype=float))
    norms = np.abs(pts).sum(axis=1)
    hits, boundary = [], []
    for i in range(pts.shape[0]):
        n = tuple(int(c) for c in pts[i])
        half = math.exp(0.75 * ladder.log_delta_at(ladder.scale_of(n)))
        gap = abs(k - kn[i])
        tol = min(BOUNDARY_TOL, 0.25 * half)
        if gap < half - tol:
            hits.append((int(norms[i]), n))
        elif gap <= half + tol:
            boundary.append(n)
    hits.sort()
    for (r1, n1), (r2, n2) in zip(hits, hits[1:]):
        if r1 == r2:
            raise RegimeError(f"reset entries with equal norm: {n1}, {n2}")
    reset_pts = tuple(n for _, n in hits)
    principal = []
    if reset_pts:
        current = {(0,) * problem.nu, reset_pts[0]}
        principal.append(tuple(sorted(current)))
        for n_l in reset_pts[1:]:
            current = current | {tuple(a - b for a, b in zip(n_l, m)) for m in current}
            principal.append(tuple(sorted(current)))
    if not reset_pts:
        regime = ("nonresonant", ladder.u_max)
    elif len(reset_pts) == 1:
        regime = ("simple_pair", reset_pts[0])
    else:
        regime = ("graded", len(reset_pts) - 1)
    return ResonanceProfile(k, reset_pts, tuple(principal), regime, tuple(boundary))


def outcome(f, *args):
    try:
        prof = f(*args)
    except RegimeError as exc:
        return ("RegimeError", str(exc))
    return (prof.reset, prof.boundary_hits, prof.principal_sets, prof.regime)


@given(k=st.floats(-0.6, 0.6), radius=st.sampled_from([0, 1, 12, 40]))
@example(k=0.003, radius=236)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_reset_scan_matches_the_point_loop(graded_problem, k, radius):
    assert outcome(reset, graded_problem, k, radius) == outcome(
        reset_by_loop, graded_problem, k, radius)


@given(n=st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(any),
       side=st.sampled_from([-1.0, 1.0]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_reset_scan_matches_the_point_loop_on_a_boundary(graded_problem, n, side):
    lad = graded_problem.ladder
    k = k_point(graded_problem.frequency, n) + side * math.exp(
        0.75 * lad.log_delta_at(lad.scale_of(n)))
    want = outcome(reset_by_loop, graded_problem, k, 24)
    assert outcome(reset, graded_problem, k, 24) == want
    assert n in want[1]


def test_reset_point_in_own_interval(reset_problem):
    # k_{n0} lies in I_{n0} and n0 maximizes the norm over the reset set
    for n0 in ((0, 1), (1, -1), (1, -2)):
        k = k_point(reset_problem.frequency, n0)
        prof = reset(reset_problem, k, 12)
        assert n0 in prof.reset
        assert max(sum(map(abs, n)) for n in prof.reset) == sum(map(abs, n0))


def test_boundary_hit_flagged():
    freq = Frequency((1.0, GOLDEN), 0.01, 3.0, window_n=250)
    lad = ScaleLadder.from_sequences(0.35, (2.05, 2.98), (-7.0, -8.0, -8.6))
    prob = Problem(freq, Potential({}, 1e-4, 0.5), lad)
    n0 = (0, 1)
    half = math.exp(0.75 * lad.log_delta_at(1))
    k = k_point(freq, n0) + half
    prof = reset(prob, k, 12)
    assert n0 in prof.boundary_hits
    assert n0 not in prof.reset


def test_j_contains_i_at_faithful_scale(golden_freq, faithful_ladder):
    lad = faithful_ladder
    # (3/4) log delta^(s) <= log(a0 (1+|n|)^(-b0-3)) in log space
    for n, s in (((0, 1), 1), ((5, -8), 1)):
        log_i = 0.75 * lad.log_delta_at(s)
        log_j = math.log(golden_freq.a0) - (golden_freq.b0 + 3.0) * math.log(
            1.0 + sum(map(abs, n)))
        assert log_i <= log_j
