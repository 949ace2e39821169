import math

import numpy as np
import pytest

from qpspec.errors import LadderRangeError
from qpspec.model import (Frequency, Potential, ScaleLadder, build_ladder,
                          diophantine_margin, log_eps0_threshold, sigma,
                          validate_potential)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

FIBONACCI = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89}


def test_validate_decay_violation():
    p = Potential.from_harmonics({(0, 1): 1.0}, 1.0, 0.5)
    report = validate_potential(p)
    assert any("decay violation" in r for r in report)


def test_validate_hermitian_violation():
    p = Potential({(1, 0): 0.3j}, 1e-4, 0.5)
    report = validate_potential(p)
    assert any("Hermitian" in r for r in report)


def test_validate_empty_is_valid():
    assert validate_potential(Potential({}, 1e-4, 0.5)) == []


def test_validate_never_raises_on_zero_entry():
    p = Potential({(0, 0): 1.0}, 1e-4, 0.5)
    assert any("n = 0" in r for r in validate_potential(p))


def test_diophantine_golden_mean():
    freq = Frequency((1.0, GOLDEN), 0.01, 2.5, window_n=50)
    margin, witness = diophantine_margin(freq, 50)
    assert margin > 0
    assert abs(witness[1]) in FIBONACCI


def test_negative_diophantine_window_refused():
    with pytest.raises(ValueError, match="window"):
        Frequency((1.0, GOLDEN), 0.1, 3.0, window_n=-1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [0, 1])
def test_non_finite_omega_refused(bad, slot):
    # |nan| <= 1 compares False and max() skips a NaN after its first entry,
    # so each slot is tried; no solver may meet a non-finite diagonal
    omega = [1.0, GOLDEN]
    omega[slot] = bad
    with pytest.raises(ValueError, match="omega"):
        Frequency(tuple(omega), 0.1, 3.0)


def test_diophantine_resonant_frequency():
    freq = Frequency((1.0, 0.5), 0.1, 3.0)
    margin, witness = diophantine_margin(freq, 5)
    assert margin == 0.0
    assert witness in ((1, -2), (-1, 2))


def test_diophantine_window_one_exact():
    freq = Frequency((1.0, 0.618), 0.1, 3.0)
    margin, _ = diophantine_margin(freq, 1)
    expect = min(abs(1.0), abs(0.618))
    assert margin == pytest.approx(expect, abs=0)


def test_diophantine_monotone_in_window():
    freq = Frequency((1.0, GOLDEN), 0.01, 3.0)
    margins = [diophantine_margin(freq, N)[0] for N in (5, 10, 20, 40)]
    assert all(a >= b for a, b in zip(margins, margins[1:]))


def test_b0_must_exceed_dimension():
    with pytest.raises(ValueError):
        Frequency((1.0, GOLDEN), 0.1, 2.0)


def test_build_ladder_desk_example():
    lad = build_ladder(math.exp(-4.0), 1.0, 3)
    assert lad.log_R_at(1) == pytest.approx(4.0)
    assert lad.log_delta_at(1) == pytest.approx(-16.0)
    assert lad.u_max == 3
    # monotone
    assert lad.log_R == tuple(sorted(lad.log_R))
    assert lad.log_delta == tuple(sorted(lad.log_delta, reverse=True))


def test_ladder_recursion_exact():
    lad = build_ladder(math.exp(-3.2 / 0.35), 0.35, 3)
    for u in range(1, lad.u_max + 1):
        assert lad.log_R_at(u) == -lad.beta1 * lad.log_delta_at(u - 1)
        assert lad.log_delta_at(u) == -(lad.log_R_at(u) ** 2)


def test_desk_ladder_monotonicity_guard():
    with pytest.raises(ValueError):
        build_ladder(0.5, 0.5, 2)  # beta1 * log R1 < 1


def test_sigma_values():
    lad = ScaleLadder.from_sequences(0.5, (2.0, 4.0), (math.log(1e-6), -16.0, -20.0))
    assert sigma((0, 0), lad) == pytest.approx(3.2)
    assert sigma((1, 0), lad) == pytest.approx(3.2)  # scale-1 bracketing uses rung 0
    with pytest.raises(LadderRangeError):
        sigma((2000, 0), lad)


def test_scale_of_brackets():
    lad = ScaleLadder.from_sequences(0.5, (math.log(5.0), math.log(31.0)),
                                     (-32.0, -36.0, -40.0))
    assert lad.scale_of((0, 0)) == 0
    assert lad.scale_of((1, 0)) == 1
    assert lad.scale_of((50, 0)) == 1  # 12 R1 = 60
    assert lad.scale_of((100, 0)) == 2


def test_epsilon_threshold_is_the_cube_of_bar_eps0():
    lad = build_ladder(math.exp(-3.2 / 0.35), 0.35, 3)
    thr = log_eps0_threshold(lad, 0.5, 2)
    log_d0 = lad.log_delta_at(0)
    # nu = 2, kappa0 = 0.5: the three terms of log bar eps_0
    log_bar = min(-52 * math.log(2.0) + 8 * math.log(0.5), 512 * log_d0,
                  -30 * math.log(2.0) - 16 * math.log(2.0 * -log_d0))
    assert thr < 0
    assert thr == pytest.approx(3.0 * log_bar, rel=1e-15)


def test_epsilon_thresholds_faithful_log_space(faithful_ladder):
    lad = faithful_ladder
    thr = log_eps0_threshold(lad, 0.5, 2)
    assert np.isfinite(thr)
    assert thr < -1e5


def test_potential_epsilon_split():
    p = Potential.from_harmonics({(0, 1): 0.5}, 1e-3, 0.5)
    assert p.c0((0, 1)) == 0.5
    assert p.c((0, 1)) == pytest.approx(5e-4)
    assert p.c0((0, -1)) == 0.5  # conjugate completed
    assert p.c((2, 2)) == 0


def test_validity_invariant_under_relabeling():
    p = Potential.from_harmonics({(1, 2): 0.1 + 0.05j, (0, 1): 0.2}, 1e-4, 0.5)
    relabeled = Potential({tuple(-c for c in n): v.conjugate()
                           for n, v in p.coefficients.items()}, 1e-4, 0.5)
    assert validate_potential(p) == [] and validate_potential(relabeled) == []


def test_from_harmonics_rejects_conflicting_pair():
    with pytest.raises(ValueError):
        Potential.from_harmonics({(0, 1): 0.5 + 0.1j, (0, -1): 0.5 + 0.1j},
                                 1e-4, 0.5)


def test_three_dimensional_frequency():
    freq = Frequency((1.0, GOLDEN, 0.4142135623730951), 0.05, 3.5, window_n=8)
    margin, witness = diophantine_margin(freq, 8)
    assert margin > 0 and len(witness) == 3
