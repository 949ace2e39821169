import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpspec.errors import LadderRangeError
from qpspec.model import Frequency, Potential, Problem, ScaleLadder
from qpspec.resonance import interval, k_point, reset

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


def test_reset_graded_profile():
    freq = Frequency((1.0, GOLDEN), 0.01, 3.0, window_n=250)
    # widths e^-6 at scale 1, e^-6.45 at scale 2: both k_(-34,55) = 0.00407
    # and k_(-89,144) = 0.00155 catch k = 0.003; their mirrors stay out
    lad = ScaleLadder.from_sequences(0.35, (2.05, 2.98), (-7.0, -8.0, -8.6))
    prob = Problem(freq, Potential({}, 1e-4, 0.5), lad)
    prof = reset(prob, 0.003, 236)
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
