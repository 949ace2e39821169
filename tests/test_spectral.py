import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpspec import dual_operator, spectral
from qpspec.cli import build_problem, load_config
from qpspec.dual_operator import dense_spectrum, diagonal_value, restrict
from qpspec.errors import ConvergenceError, QPSpecError, ReconciliationError
from qpspec.inverse import verify_forward
from qpspec.lattice import SiteSet, ball
from qpspec.model import Frequency, Potential, Problem
from qpspec.resonance import k_point
from qpspec.schur import ReducedSolver, near_pivots
from qpspec.spectral import (band, decay_envelope, eigen_pair, eigen_simple,
                             feynman_derivative, gap_at, paired_box)

from conftest import GOLDEN, count_calls, pair_roots, random_potential

TWO_PI_SQ = (2 * math.pi) ** 2
GOLDEN_CONFIG = Path(__file__).resolve().parents[1] / "examples_config" / "golden_mean.json"


def test_eigen_simple_zero_potential(zero_problem):
    rec = eigen_simple(zero_problem, (0, 0), ball(2, 2), 0.3)
    assert rec.E == pytest.approx(TWO_PI_SQ * 0.09, rel=1e-14)
    i0 = rec.sites.index((0, 0))
    assert rec.phi[i0] == 1.0
    assert all(v == 0 for i, v in enumerate(rec.phi) if i != i0)


def test_eigen_simple_two_site_quadratic(golden_freq):
    pot = Potential.from_harmonics({(0, 1): 0.5}, 1e-3, 0.5)
    prob = Problem(golden_freq, pot)
    S = SiteSet([(0, 0), (0, 1)])
    k = 0.2
    rec = eigen_simple(prob, (0, 0), S, k)
    v0 = diagonal_value(prob, (0, 0), k)
    v1 = diagonal_value(prob, (0, 1), k)
    c = abs(pot.c((0, 1)))
    # branch of the 2x2 quadratic near v0
    disc = math.sqrt((v0 - v1) ** 2 + 4 * c * c)
    expect = 0.5 * (v0 + v1 + (disc if v0 > v1 else -disc))
    assert rec.E == pytest.approx(expect, rel=1e-12)


def test_eigen_simple_matches_oracle(generic_problem):
    rec = eigen_simple(generic_problem, (0, 0), ball(4, 2), 0.22)
    (gap,) = spectral._reconcile([rec], "simple root")
    assert gap <= 1e-9 * max(1.0, abs(rec.E))
    assert rec.residual <= 1e-11


def test_pair_branch_zero_potential(zero_problem):
    S = ball(2, 2)
    mp, mm = (0, 0), (0, 1)
    Ep, Em = (r.E for r in pair_roots(zero_problem, S, 0.2, mp, mm))
    vals = sorted([diagonal_value(zero_problem, mp, 0.2),
                   diagonal_value(zero_problem, mm, 0.2)])
    assert Em == pytest.approx(vals[0], rel=1e-12)
    assert Ep == pytest.approx(vals[1], rel=1e-12)
    # k = 0.2 is not resonant for this pair: the oracle's two eigenvalues
    # nearest the pivots' mean are other sites', and eigen_pair says so
    with pytest.raises(ReconciliationError):
        eigen_pair(zero_problem, S, 0.2, mp, mm)


def test_eigen_pair_two_site_closed_form(golden_freq):
    pot = Potential.from_harmonics({(0, 1): 0.7}, 1e-3, 0.5)
    prob = Problem(golden_freq, pot)
    S = SiteSet([(0, 0), (0, 1)])
    n0 = (0, 1)
    k = k_point(golden_freq, n0) + 1e-5
    Ep, Em = (r.E for r in pair_roots(prob, S, k, (0, 0), n0))
    v0 = diagonal_value(prob, (0, 0), k)
    v1 = diagonal_value(prob, n0, k)
    c = abs(pot.c(n0))
    disc = math.sqrt((v0 - v1) ** 2 + 4 * c * c)
    assert Ep == pytest.approx(0.5 * (v0 + v1 + disc), rel=1e-10)
    assert Em == pytest.approx(0.5 * (v0 + v1 - disc), rel=1e-10)


def test_eigen_pair_oracle_and_sandwich(harmonic_problem):
    n0 = (0, 1)
    k = k_point(harmonic_problem.frequency, n0) + 2e-5
    S = paired_box(harmonic_problem, n0, 6)
    Ep, Em = (r.E for r in eigen_pair(harmonic_problem, S, k, (0, 0), n0))
    # sandwich: E+ >= max(a1, a2 + |b|), E- <= min(a2, a1 - |b|)
    from qpspec.schur import ReducedSolver
    solver = ReducedSolver(harmonic_problem, S, k, [(0, 0), n0])
    for E, branch in ((Ep, "+"), (Em, "-")):
        q0 = solver.q((0, 0), E).real
        q1 = solver.q(n0, E).real
        g = abs(solver.g((0, 0), n0, E))
        a = sorted([diagonal_value(harmonic_problem, (0, 0), k) + q0,
                    diagonal_value(harmonic_problem, n0, k) + q1])
        a2, a1 = a
        if branch == "+":
            assert E >= max(a1, a2 + g) - 1e-12
            assert E <= a1 + g + 1e-12
        else:
            assert E <= min(a2, a1 - g) + 1e-12
            assert E >= a2 - g - 1e-12


def test_eigen_pair_residuals(harmonic_problem):
    n0 = (0, 1)
    k = k_point(harmonic_problem.frequency, n0) + 2e-5
    S = paired_box(harmonic_problem, n0, 5)
    H = restrict(harmonic_problem, S, k)
    for rec in eigen_pair(harmonic_problem, S, k, (0, 0), n0):
        assert rec.sites == H.sites
        E, vec = rec.E, rec.phi
        resid = np.max(np.abs(H.entries @ vec - E * vec)) / np.max(np.abs(vec))
        assert resid <= 1e-10 * max(1.0, abs(E))


_entry = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(a=_entry, b=_entry, re=_entry, im=_entry, side=st.integers(0, 1))
def test_two_pivot_amplitudes_are_an_eigenvector_nearest_E(a, b, re, im, side):
    # the closed form on [[a, conj c], [c, b]] is an eigenvector for eigh's
    # eigenvalue nearest E, to the backward error of a stable eigensolver
    M = np.array([[a, complex(re, -im)], [complex(re, im), b]])
    w, _ = np.linalg.eigh(M)
    x = spectral._nearest_eigenvector(M, w[side])
    resid = np.linalg.norm(M @ x - w[side] * x)
    assert resid <= 16 * np.finfo(float).eps * np.linalg.norm(M, 2) * np.linalg.norm(x)


@pytest.mark.parametrize("a, b, E", [(1.0, 2.0, 1.1), (1.0, 2.0, 1.9), (2.0, 1.0, 1.5),
                                     (1.0, 2.0, 1.5), (1.5, 1.5, 1.5), (1.5, 1.5, 0.0)])
def test_two_pivot_amplitudes_with_no_coupling_are_eighs(a, b, E):
    # c = 0 (a label of width exactly 0 when a = b): eigh's unit vector for
    # its eigenvalue nearest E, the first on a tie
    M = np.diag([a, b]).astype(complex)
    w, V = np.linalg.eigh(M)
    want = np.abs(V[:, np.argmin(np.abs(w - E))])
    assert np.array_equal(np.abs(spectral._nearest_eigenvector(M, E)), want)


def test_gap_zero_potential(zero_problem):
    rec = gap_at(zero_problem, (0, 1), 4)
    assert rec.width == 0.0


def test_gap_first_order_law(golden_freq):
    for eps in (1e-3, 1e-4):
        pot = Potential.from_harmonics({(0, 1): 1.0}, eps, 0.5)
        prob = Problem(golden_freq, pot)
        rec = gap_at(prob, (0, 1), 8)
        assert abs(rec.width - 2 * eps) <= 5 * eps * eps


def test_gap_forward_bound(generic_problem):
    pot = generic_problem.potential
    for m in ((0, 1), (1, 0), (1, 1)):
        rec = gap_at(generic_problem, m, 6)
        bound = 2 * pot.epsilon * math.exp(-0.5 * pot.kappa0 * sum(map(abs, m)))
        assert rec.width <= bound


def test_gap_reconciliation_guard(harmonic_problem, monkeypatch):
    monkeypatch.setattr(spectral, "RECONCILE_TOL", 1e-18)
    with pytest.raises(ReconciliationError):
        gap_at(harmonic_problem, (0, 1), 5)


def test_gap_at_the_zero_label_is_refused_before_the_oracle(harmonic_problem, monkeypatch):
    # n0 = 0 pairs the site 0 with itself: its solver refuses the repeated
    # pivot, so no dense oracle runs and no regime mismatch is reported
    def oracle(*args, **kwargs):
        raise AssertionError("the dense oracle ran")

    monkeypatch.setattr(spectral, "dense_spectrum", oracle)
    with pytest.raises(ValueError, match=r"pivot \(0, 0\) is repeated"):
        gap_at(harmonic_problem, (0, 0), 3)


def test_band_zero_potential(zero_problem):
    host = ball(3, 2)
    pts = band(zero_problem, [0.1, 0.2, 0.3], lambda k: host)
    for p in pts:
        assert p.E == pytest.approx(TWO_PI_SQ * p.k ** 2, rel=1e-12)
        assert p.regime == "nonresonant"


def test_band_symmetry_and_monotonicity(generic_problem):
    host = ball(5, 2)
    grid = np.linspace(0.05, 0.45, 21)
    E_plus = [eigen_simple(generic_problem, (0, 0), host, float(k)).E for k in grid]
    E_minus = [eigen_simple(generic_problem, (0, 0), host.reflect(), float(-k)).E for k in grid]
    assert max(abs(a - b) for a, b in zip(E_plus, E_minus)) <= 1e-11
    assert all(b > a for a, b in zip(E_plus, E_plus[1:]))


def test_phi_conjugate_symmetry(generic_problem):
    host = ball(4, 2)
    k = 0.2088
    plus = eigen_simple(generic_problem, (0, 0), host, k)
    minus = eigen_simple(generic_problem, (0, 0), host.reflect(), -k)
    mirrored = [minus.sites.index(tuple(-c for c in n)) for n in plus.sites]
    worst = np.max(np.abs(minus.phi[mirrored] - np.conj(plus.phi)))
    assert worst <= 1e-11


def test_pair_symmetry_through_resonance(harmonic_problem):
    n0 = (0, 1)
    kn0 = k_point(harmonic_problem.frequency, n0)
    S = paired_box(harmonic_problem, n0, 6)
    for theta in (1e-5, 5e-5):
        Ep1, Em1 = (r.E for r in pair_roots(harmonic_problem, S, kn0 + theta, (0, 0), n0))
        Ep2, Em2 = (r.E for r in pair_roots(harmonic_problem, S, kn0 - theta, n0, (0, 0)))
        assert abs(Ep1 - Ep2) <= 1e-10 and abs(Em1 - Em2) <= 1e-10


def test_splitting_growth(harmonic_problem):
    # E+(k') - E-(k') grows at least quadratically away from the gap floor
    n0 = (0, 1)
    kn0 = k_point(harmonic_problem.frequency, n0)
    S = paired_box(harmonic_problem, n0, 5)
    base = gap_at(harmonic_problem, n0, 5).width
    widths = []
    for theta in (1e-4, 2e-4, 4e-4):
        Ep, Em = (r.E for r in pair_roots(harmonic_problem, S, kn0 + theta, (0, 0), n0))
        widths.append(Ep - Em)
    assert all(w > base for w in widths)
    assert all(b > a for a, b in zip(widths, widths[1:]))


def test_eigenvector_decay_envelope(generic_problem):
    rec = eigen_simple(generic_problem, (0, 0), ball(5, 2), 0.22)
    ok, worst = decay_envelope(generic_problem, rec)
    assert ok, f"decay ratio {worst}"


def test_pair_eigenvector_decay(harmonic_problem):
    n0 = (0, 1)
    k = k_point(harmonic_problem.frequency, n0) + 2e-5
    S = paired_box(harmonic_problem, n0, 6)
    for rec in pair_roots(harmonic_problem, S, k, (0, 0), n0):
        ok, worst = decay_envelope(harmonic_problem, rec)
        assert ok, f"decay ratio {worst}"


def test_feynman_zero_potential(zero_problem):
    S = ball(2, 2)
    k = 0.19
    derivs, mask, evals = feynman_derivative(zero_problem, S, k)
    diag = sorted((diagonal_value(zero_problem, s, k), s) for s in S)
    for (v, s), d, ok in zip(diag, derivs, mask):
        if not ok:
            continue
        expect = 2 * TWO_PI_SQ * (zero_problem.frequency.dot(s) + k)
        assert d == pytest.approx(expect, rel=1e-12)


def test_feynman_matches_fd(generic_problem):
    S = ball(3, 2)
    k = 0.23
    derivs, mask, _ = feynman_derivative(generic_problem, S, k)
    h = 1e-5
    up, _ = dense_spectrum(restrict(generic_problem, S, k + h))
    dn, _ = dense_spectrum(restrict(generic_problem, S, k - h))
    fd = (up - dn) / (2 * h)
    sel = mask & (np.abs(derivs) > 1e-8)
    assert np.max(np.abs(derivs[sel] - fd[sel]) / np.abs(derivs[sel])) <= 1e-6


def test_feynman_bounded_near_resonance(harmonic_problem):
    n0 = (0, 1)
    k = k_point(harmonic_problem.frequency, n0) + 1e-3
    S = paired_box(harmonic_problem, n0, 5)
    derivs, mask, _ = feynman_derivative(harmonic_problem, S, k)
    # bounded by 2 in the normalized units H / (256 (2 pi)^2); gamma = 1 here
    assert np.max(np.abs(derivs[mask])) / (256.0 * TWO_PI_SQ) <= 2.0


def test_band_routes_resonant_points(harmonic_problem):
    # grid point inside the pair window near k_{(0,-1)} = 0.309 takes the
    # matching branch and is tagged; just above the resonance: plus branch
    n0m = (0, -1)
    km = k_point(harmonic_problem.frequency, n0m)
    host = ball(5, 2)
    grid = [km - 2e-5, km + 2e-5, 0.25]
    pts = band(harmonic_problem, grid, lambda k: host)
    assert [p.regime for p in pts] == ["paired", "paired", "nonresonant"]
    assert pts[1].E > pts[0].E  # branch switch across the gap
    rec = gap_at(harmonic_problem, n0m, 5)
    assert pts[1].E >= rec.E_plus - 1e-9
    assert pts[0].E <= rec.E_minus + 1e-9


@pytest.mark.parametrize("m", [(-1, 1), (1, -2)])
def test_band_next_to_a_resonance_point_is_an_eigenvalue(generic_problem, m):
    # 5e-10 from k_m the band is the pair branch at its own k, not the gap
    # edge solved at k_m
    host = ball(5, 2)
    km = k_point(generic_problem.frequency, m)
    for p in band(generic_problem, [km - 5e-10, km + 5e-10], lambda k: host):
        evals = np.linalg.eigvalsh(restrict(generic_problem, host, p.k).entries)
        assert np.min(np.abs(evals - p.E)) <= 1e-9 * max(1.0, abs(p.E))
        assert p.regime == "paired"


def test_band_reports_a_stalled_fixed_point(generic_problem, monkeypatch):
    # a one-pivot point whose fixed point stalls is an error row naming the
    # stall; no dense solve takes over
    host = ball(3, 2)
    (want,) = band(generic_problem, [0.25], lambda k: host)
    assert want.regime == "nonresonant"
    fixed_point = spectral._fixed_point

    def stalled(step, E0, scale):
        # a step that flips between two energies never settles
        return fixed_point(lambda E: 2.0 * E0 + scale - E, E0, scale)

    monkeypatch.setattr(spectral, "_fixed_point", stalled)
    (p,) = band(generic_problem, [0.25], lambda k: host)
    assert p.regime == "error" and math.isnan(p.E)
    assert f"stalled after {spectral.MAX_FIXED_POINT_STEPS} steps" in p.error


def test_band_at_a_split_resonance_is_the_labelled_eigenpair(golden_freq):
    # at k_(0,1) the split states weigh about 0.7 each on (0, 0); band
    # takes the sites near v(0) as pivots and prints rank
    # i(k) = #{n : v(n) < v(0)} = 2, not rank 3, whose eigenvector weighs a
    # bit more; that root's eigenvector solves H on the box
    eps = 10 ** np.random.default_rng(0).uniform(-4, -1)    # 8.14e-3
    prob = Problem(golden_freq, random_potential(np.random.default_rng(0), eps))
    n0 = (0, 1)
    k = k_point(prob.frequency, n0)
    S = paired_box(prob, n0, 3)
    (p,) = band(prob, [k], lambda k: S)
    H = restrict(prob, S, k).entries
    v, evals = H.diagonal().real, np.linalg.eigvalsh(H)
    assert p.regime == "graded", p.error
    assert np.count_nonzero(v < v[S.index((0, 0))]) == 2
    assert p.E == pytest.approx(evals[2], rel=1e-12)
    assert p.E == pytest.approx(3.76965214741, abs=1e-10)
    solver = ReducedSolver(prob, S, k, near_pivots(prob, S, k, (0, 0)))
    rec = spectral.branch(solver, sum(x < solver.v[0] for x in solver.v))
    assert rec.E == p.E
    assert np.max(np.abs(H @ rec.phi - rec.E * rec.phi)) <= 1e-10 * np.max(np.abs(H))


def _band_pair_points(problem, m):
    """k_m and the grid k_m - 1e-6, k_m, k_m + 1e-6 about it."""
    km = k_point(problem.frequency, m)
    return km, [km - 1e-6, km, km + 1e-6]


def test_band_pair_point_solves_one_branch(generic_problem, monkeypatch, solve_paths):
    # a pair-window point runs one fixed point: the branch it prints, on one
    # solver, every energy on the diagonal anchor and none factored
    host = ball(5, 2)
    _, grid = _band_pair_points(generic_problem, (0, 1))
    runs = []
    fixed_point = spectral._fixed_point

    def counting(*args):
        runs.append(1)
        return fixed_point(*args)

    monkeypatch.setattr(spectral, "_fixed_point", counting)
    for k in grid:
        runs.clear()
        solve_paths.clear()
        (p,) = band(generic_problem, [k], lambda k: host)
        assert p.regime == "paired"
        (paths,) = solve_paths.values()
        assert len(runs) == 1 and set(paths) == {"diagonal"} and paths["diagonal"] <= 3


@pytest.mark.parametrize("m", [(0, 1), (1, -2)])
def test_band_pair_point_is_its_eigen_pair_branch(generic_problem, m):
    # bit for bit the eigen_pair root band prints: plus where |k| > |k_m|,
    # minus where |k| <= |k_m| (k_(0,1) < 0, k_(1,-2) > 0)
    host = ball(5, 2)
    km, grid = _band_pair_points(generic_problem, m)
    for p in band(generic_problem, grid, lambda k: host):
        plus, minus = eigen_pair(generic_problem, host, p.k, (0, 0), m)
        assert p.regime == "paired"
        assert p.E == (plus.E if abs(p.k) > abs(km) else minus.E)


def test_band_skips_the_unprinted_branch(generic_problem, monkeypatch):
    # the branch band does not print cannot fail the point
    host = ball(5, 2)
    km, grid = _band_pair_points(generic_problem, (0, 1))
    want = band(generic_problem, grid, lambda k: host)
    branch = spectral.branch

    def only(printed):
        def one(solver, j):
            if j != printed:
                raise ConvergenceError("unprinted branch stalled")
            return branch(solver, j)
        return one

    for p in want:
        monkeypatch.setattr(spectral, "branch", only(1 if abs(p.k) > abs(km) else 0))
        (got,) = band(generic_problem, [p.k], lambda k: host)
        assert (got.E, got.regime, got.error) == (p.E, "paired", "")


@pytest.mark.parametrize("m", [(0, 1), (0, -1), (1, -2), (-1, 2)])
def test_band_is_even_in_k_through_a_pair_window(generic_problem, m):
    # E(k) = E(-k) on a reflection-symmetric host, so the branch printed in
    # a pair window is the one with |k| > |k_m|, also where k_m < 0
    host = ball(5, 2)
    km = k_point(generic_problem.frequency, m)
    grid = [km + d for d in (-1e-3, -1e-6, 1e-6, 1e-3)]
    got = band(generic_problem, grid, lambda k: host)
    mirrored = band(generic_problem, [-k for k in grid], lambda k: host)
    for p, q in zip(got, mirrored):
        assert p.regime == q.regime == "paired"
        assert p.E == q.E


def test_band_checks_the_printed_rank(generic_problem, monkeypatch):
    # a route patched to return a root across the nearest reduced diagonal
    # above E, midway to the next distinct one, is an error row naming both
    # counts: more reduced diagonals lie below E than below v(0)
    host = ball(5, 2)
    _, grid = _band_pair_points(generic_problem, (0, 1))
    branch = spectral.branch

    def across(solver, j):
        rec = branch(solver, j)
        foreign = solver.diag[solver.rest]
        above = np.unique(foreign[foreign > rec.E])
        return replace(rec, E=float(0.5 * (above[0] + above[1])))

    monkeypatch.setattr(spectral, "branch", across)
    for p in band(generic_problem, grid, lambda k: host):
        assert p.regime == "error" and math.isnan(p.E)
        below, label = map(int, re.search(r"(\d+) reduced diagonals lie below E and (\d+) "
                                          r"below v\(0\)", p.error).groups())
        assert below > label


def test_band_at_a_high_order_resonance_point_is_the_labelled_eigenvalue():
    # the golden potential on host ball(8): every label 4 <= |n| <= 8 with
    # |k_n| <= 1/2 (12 of them) lies outside band's pair table, so band
    # solves k_n by eigen_simple; the point must be eigenvalue
    # i(k) = #{n in S : v(n) < v(0)} of H on the host
    problem = build_problem(load_config(GOLDEN_CONFIG))
    host = ball(8, 2)
    labels = [n for n in host if sum(map(abs, n)) >= 4
              and abs(k_point(problem.frequency, n)) <= 0.5]
    assert len(labels) == 12
    points = band(problem, [k_point(problem.frequency, n) for n in labels], lambda k: host)
    for n, p in zip(labels, points):
        H = restrict(problem, host, p.k).entries
        v = H.diagonal().real
        v0 = v[host.index((0, 0))]
        assert v[host.index(n)] == v0
        want = np.linalg.eigvalsh(H)[np.count_nonzero(v < v0)]
        assert abs(p.E - want) <= spectral.RECONCILE_TOL * max(1.0, abs(v0)), (n, p.error)


def test_band_at_a_stalled_nu_3_point_is_the_labelled_eigenvalue():
    # a cubic-irrational nu = 3 potential at eps 1e-2 on ball(4, 3),
    # k = 0.13: a pair (0, (-1, 0, 0)) chosen by k stalled after 100 steps,
    # while (0, -1, 0)'s diagonal lies 8.1e-4 from v(0); the point takes
    # the 40 sites near v(0) as pivots and prints eigenvalue i(k) of H
    omega = (1.0, 2.0 ** (1 / 3) - 1.0, 4.0 ** (1 / 3) - 1.0)
    pot = Potential.from_harmonics({(0, 0, 1): 0.6, (0, 1, 0): 0.4, (1, 0, 0): 0.3}, 1e-2, 0.5)
    problem = Problem(Frequency(omega, 0.1, 4.0), pot)
    host = ball(4, 3)
    (p,) = band(problem, [0.13], lambda k: host)
    H = restrict(problem, host, p.k).entries
    v = H.diagonal().real
    v0 = v[host.index((0, 0, 0))]
    assert p.regime == "graded", p.error
    assert abs(p.E - np.linalg.eigvalsh(H)[np.count_nonzero(v < v0)]) <= (
        spectral.RECONCILE_TOL * max(1.0, abs(v0)))
    assert p.E == pytest.approx(0.6707905861896188, rel=1e-12)


def test_band_on_an_833_site_nu_3_host_is_the_labelled_eigenvalue():
    # the cubic-irrational nu = 3 potential at eps 1e-4 on ball(8, 3), whose
    # series multiply by the stencil: two graded points and two paired ones,
    # at k_(0,0,1) and k_(1,0,-1) exactly, each eigenvalue i(k) of H
    omega = (1.0, 2.0 ** (1 / 3) - 1.0, 4.0 ** (1 / 3) - 1.0)
    pot = Potential.from_harmonics({(0, 0, 1): 0.6, (0, 1, 0): 0.4, (1, 0, 0): 0.3}, 1e-4, 0.5)
    problem = Problem(Frequency(omega, 0.1, 4.0), pot)
    host, zero = ball(8, 3), (0, 0, 0)
    assert len(host) == 833 and ReducedSolver(problem, host, 0.13, [zero])._stencil is not None
    ks = [0.13, 0.27] + [k_point(problem.frequency, n) for n in [(0, 0, 1), (1, 0, -1)]]
    points = band(problem, ks, lambda k: host)
    assert [p.regime for p in points] == ["graded", "graded", "paired", "paired"]
    for p in points:
        H = restrict(problem, host, p.k).entries
        v = H.diagonal().real
        want = np.linalg.eigvalsh(H)[np.count_nonzero(v < v[host.index(zero)])]
        assert abs(p.E - want) <= 1e-9 * max(1.0, abs(p.E))


@given(nu=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 16),
       log_eps=st.floats(-4.0, -1.5), radius=st.integers(3, 6),
       k=st.floats(-0.5, 0.5), label=st.integers(0, 2 ** 16))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_band_is_the_labelled_eigenvalue_on_random_potentials(nu, seed, log_eps, radius,
                                                              k, label):
    # band prints eigenvalue i(k) = #{n in S : v(n) < v(0)} of H on its
    # host, at a random k and at k_n exactly for a label n in the host,
    # on ball(3..6) at nu = 2 and ball(3..4, 3) at nu = 3
    omega = (1.0, GOLDEN) if nu == 2 else (1.0, 2.0 ** (1 / 3) - 1.0, 4.0 ** (1 / 3) - 1.0)
    prob = Problem(Frequency(omega, 0.1, nu + 1.0),
                   random_potential(np.random.default_rng(seed), 10 ** log_eps, nu=nu))
    host, zero = ball(radius if nu == 2 else min(radius, 4), nu), tuple([0] * nu)
    labels = [n for n in host if any(n)]
    n = labels[label % len(labels)]
    for p in band(prob, [k, k_point(prob.frequency, n)], lambda k: host):
        H = restrict(prob, host, p.k).entries
        v = H.diagonal().real
        v0 = v[host.index(zero)]
        want = np.linalg.eigvalsh(H)[np.count_nonzero(v < v0)]
        assert abs(p.E - want) <= spectral.RECONCILE_TOL * max(1.0, abs(v0)), (n, p)


def _contraction_steps(r: float, scale: float) -> int:
    """The steps a one-pivot fixed point takes at most by eigen_simple's
    bound: its first move is at most r/998 and each later one at most
    998^-2 times the last, and it stops at the first move below
    FIXED_POINT_TOL * scale, here halved against rounding."""
    move, steps = r / 998.0, 1
    while move >= 0.5 * spectral.FIXED_POINT_TOL * scale:
        move, steps = move / 998.0 ** 2, steps + 1
    return steps


def test_contraction_steps_bound():
    assert [_contraction_steps(r, 1.0) for r in (1e-14, 1e-10, 1.0, 49.0, 50.0)] == [
        1, 2, 3, 3, 4]


@given(nu=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 16),
       log_eps=st.floats(-8.0, 0.0), radius=st.integers(3, 6),
       k=st.floats(-0.5, 0.5), label=st.integers(0, 2 ** 16))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_one_pivot_fixed_point_contracts_on_random_potentials(nu, seed, log_eps, radius,
                                                              k, label):
    # every nonresonant (one-pivot) band point converges within the steps
    # eigen_simple's contraction bound gives for the host's row sum r, at
    # a random k and at k_n exactly, eps up to 1
    omega = (1.0, GOLDEN) if nu == 2 else (1.0, 2.0 ** (1 / 3) - 1.0, 4.0 ** (1 / 3) - 1.0)
    prob = Problem(Frequency(omega, 0.1, nu + 1.0),
                   random_potential(np.random.default_rng(seed), 10 ** log_eps, nu=nu))
    host, zero = ball(radius if nu == 2 else min(radius, 4), nu), tuple([0] * nu)
    labels = [n for n in host if any(n)]
    n = labels[label % len(labels)]
    r = dual_operator.host(prob, host).row_sum
    fixed_point, steps = spectral._fixed_point, []

    def counting(step, E0, scale):
        def counted(E):
            steps.append(E)
            return step(E)
        return fixed_point(counted, E0, scale)

    for kk in (k, k_point(prob.frequency, n)):
        steps.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "_fixed_point", counting)
            (p,) = band(prob, [kk], lambda k: host)
        if p.regime == "nonresonant":
            scale = max(1.0, abs(diagonal_value(prob, zero, kk)))
            assert len(steps) <= _contraction_steps(r, scale), (n, p, r)


def test_gap_record_carries_forward_bound(generic_problem):
    rec = gap_at(generic_problem, (0, 1), 5)
    pot = generic_problem.potential
    expect = 2 * pot.epsilon * math.exp(-0.5 * pot.kappa0)
    (row,) = verify_forward({(0, 1): rec}, pot)
    assert row.bound == pytest.approx(expect)
    # binding only for decay-compliant tables, which this fixture is
    assert row.width == rec.width and rec.width <= row.bound and row.passed


def test_splitting_lower_bound_constant(harmonic_problem):
    # E+ - E- > (k0 |k - k_{n0}|)^2 / 2 with the parameterized k0 = k_{n0}/512
    n0 = (0, 1)
    kn0 = k_point(harmonic_problem.frequency, n0)
    S = paired_box(harmonic_problem, n0, 5)
    k0 = abs(kn0) / 512.0
    for theta in (1e-4, 1e-3):
        Ep, Em = (r.E for r in pair_roots(harmonic_problem, S, kn0 + theta, (0, 0), n0))
        assert Ep - Em > 0.5 * (k0 * theta) ** 2


def test_eigen_simple_stalls_near_resonance_and_band_does_not(golden_freq):
    # strong coupling at an exact resonance point: the scalar fixed point on
    # (0, 0) alone cannot settle between the split pair and raises; band
    # takes (0, 1) as a pivot too and prints eigenvalue i(k) of H
    pot = Potential.from_harmonics({(0, 1): 0.6}, 0.3, 0.5)
    prob = Problem(golden_freq, pot)
    n0 = (0, 1)
    k = k_point(golden_freq, n0)
    S = paired_box(prob, n0, 4)
    with pytest.raises(ConvergenceError, match="stalled"):
        eigen_simple(prob, (0, 0), S, k)
    (p,) = band(prob, [k], lambda k: S)
    H = restrict(prob, S, k).entries
    v = H.diagonal().real
    want = np.linalg.eigvalsh(H)[np.count_nonzero(v < v[S.index((0, 0))])]
    assert p.regime == "graded", p.error
    assert p.E == pytest.approx(want, rel=1e-12)


def test_eigen_simple_propagates_unexpected_errors(generic_problem, monkeypatch):
    # a broken self-energy is no solver failure: it reaches the caller
    def broken(self, E):
        raise TypeError("broken self-energy")

    monkeypatch.setattr(ReducedSolver, "block", broken)
    with pytest.raises(TypeError):
        eigen_simple(generic_problem, (0, 0), ball(3, 2), 0.22)


def test_band_propagates_unexpected_errors(zero_problem, monkeypatch):
    # band collects QPSpecErrors per point; anything else is a defect
    def broken(*args, **kwargs):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(spectral, "eigen_simple", broken)
    with pytest.raises(TypeError):
        band(zero_problem, [0.2], lambda k: ball(2, 2))


def test_eigen_pair_factorization_count(harmonic_problem, solve_paths):
    # both branches on one solver, every energy on the diagonal anchor
    n0 = (0, 1)
    k = k_point(harmonic_problem.frequency, n0) + 2e-5
    eigen_pair(harmonic_problem, paired_box(harmonic_problem, n0, 6), k, (0, 0), n0)
    (paths,) = solve_paths.values()
    assert set(paths) == {"diagonal"} and paths["diagonal"] <= 20


def test_eigen_pair_matches_dense_through_resonance(generic_problem):
    n0 = (0, 1)
    S = paired_box(generic_problem, n0, 6)
    for theta in (-4e-3, -1e-5, -1e-7, 1e-7, 1e-5, 4e-3):
        k = k_point(generic_problem.frequency, n0) + theta
        Ep, Em = (r.E for r in pair_roots(generic_problem, S, k, (0, 0), n0))
        center = 0.5 * (diagonal_value(generic_problem, (0, 0), k)
                        + diagonal_value(generic_problem, n0, k))
        evals = np.linalg.eigvalsh(restrict(generic_problem, S, k).entries)
        want = np.sort(evals[np.argsort(np.abs(evals - center))[:2]])
        assert Em == pytest.approx(want[0], rel=1e-12)
        assert Ep == pytest.approx(want[1], rel=1e-12)


@pytest.mark.parametrize("route", ["eigen_simple", "eigen_pair", "gap_at"])
def test_pair_root_off_by_the_tolerance_is_a_reconciliation_error(harmonic_problem,
                                                                  monkeypatch, route):
    # one oracle rule for every route: a root (the plus root of a pair)
    # placed just past tol = 1e-9 * max(1, |pivots' mean diagonal|) from its
    # labelled oracle eigenvalue is rejected by _reconcile, and one placed
    # just inside is accepted with that deviation
    n0 = (0, 1)
    k = k_point(harmonic_problem.frequency, n0) + (0.0 if route == "gap_at" else 2e-5)
    S = paired_box(harmonic_problem, n0, 5)
    pivots = [(0, 0)] if route == "eigen_simple" else [(0, 0), n0]
    solver = ReducedSolver(harmonic_problem, S, k, pivots)
    oracle = spectral._labelled(solver, len(pivots))[0][-1]
    tol = spectral.RECONCILE_TOL * max(1.0, abs(np.mean(solver.v)))
    branch = spectral.branch

    def solve():
        if route == "eigen_simple":
            rec = eigen_simple(harmonic_problem, (0, 0), S, k)
            return spectral._reconcile([rec], "simple root")[0]
        if route == "eigen_pair":
            plus, minus = eigen_pair(harmonic_problem, S, k, (0, 0), n0)
            return spectral._reconcile([minus, plus], "pair roots")[1]
        return gap_at(harmonic_problem, n0, 5).reconcile_dev

    for factor in (1.0 + 1e-6, 1.0 - 1e-6):
        E = oracle + factor * tol

        def placed(solver, j):
            rec = branch(solver, j)
            return rec if j == 0 else replace(rec, E=E)

        if route == "eigen_simple":
            monkeypatch.setattr(spectral, "_fixed_point", lambda step, E0, scale: E)
        else:
            monkeypatch.setattr(spectral, "branch", placed)
        if factor > 1.0:
            with pytest.raises(ReconciliationError, match="off the dense oracle"):
                solve()
        else:
            assert solve() == pytest.approx(factor * tol, rel=1e-6)


def test_eigen_pair_at_k_m_returns_the_gap_edges(golden_freq):
    # at eps 3 the plus root at k_(0,1) lies outside the pair windows;
    # eigen_pair used to raise RegimeError there although gap_at's edges on
    # the same box agree with the oracle
    pot = Potential.from_harmonics(
        {(0, 1): 0.55, (1, 0): 0.3 + 0.2j, (1, 1): 0.2 - 0.1j}, 3.0, 0.5)
    prob = Problem(golden_freq, pot)
    n0 = (0, 1)
    S = paired_box(prob, n0, 4)
    rec = gap_at(prob, n0, 4)
    plus, minus = eigen_pair(prob, S, rec.k_point, (0, 0), n0)
    assert (minus.E, plus.E) == (rec.E_minus, rec.E_plus)
    assert np.max(spectral._reconcile([minus, plus], "pair roots")) == rec.reconcile_dev


def _limit_edges(problem, n0, S):
    """The gap edges by the limit characterization E = v0 + Q(E) -+ |G(E)|,
    each self-energy from its own one-column solve: the step gap_at used
    before the gap path went through the paired closed form."""
    zero = (0, 0)
    k = k_point(problem.frequency, n0)
    solver = ReducedSolver(problem, S, k, [zero, n0])
    col_0, col_n = solver.coupling_column(zero), solver.coupling_column(n0)
    i, j = (solver.full.sites.index(p) for p in (zero, n0))
    direct = complex(solver.full.entries[i, j])
    v0 = diagonal_value(problem, zero, k)

    def step(sign):
        def edge(E):
            q = complex(np.conj(col_0) @ solver.solve(E, col_0))
            g = complex(direct + np.conj(col_0) @ solver.solve(E, col_n))
            return v0 + q.real + sign * abs(g)
        return edge

    return sorted(spectral._fixed_point(step(sign), v0, max(1.0, abs(v0)))
                  for sign in (+1.0, -1.0))


@given(st.integers(0, 2 ** 32 - 1), st.floats(-5.0, -1.5),
       st.sampled_from([(0, 1), (1, 0), (1, -1), (1, 1), (0, 2), (2, -1), (-1, 2)]),
       st.integers(1, 5))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_gap_at_edges_are_the_limit_characterization(golden_freq, seed, log_eps, n0, radius):
    # at k_{n0} on (0, n0) the pivots' diagonals agree, and the paired closed form's
    # step reduces to E = v0 + Q -+ |G| bit for bit
    prob = Problem(golden_freq, random_potential(np.random.default_rng(seed), 10.0 ** log_eps))
    S = paired_box(prob, n0, radius)
    rec = gap_at(prob, n0, radius)
    assert [rec.E_minus, rec.E_plus] == _limit_edges(prob, n0, S)


def test_three_dimensional_eigen_solve():
    from qpspec.model import Frequency
    freq = Frequency((1.0, 0.6180339887498949, 0.4142135623730951), 0.05, 3.5,
                     window_n=8)
    pot = Potential.from_harmonics({(0, 1, 0): 0.5, (0, 0, 1): 0.3j}, 1e-4, 0.5)
    prob = Problem(freq, pot)
    rec = eigen_simple(prob, (0, 0, 0), ball(2, 3), 0.21)
    (gap,) = spectral._reconcile([rec], "simple root")
    assert gap <= 1e-9 * max(1.0, abs(rec.E))
    assert rec.residual <= 1e-11


def _diagonal_off_by_rounding(problem, m):
    """A k within 64 eps of k_m at which diagonal_value(0 or m, k) differs
    from the diagonal of H on paired_box(m, 0), the two sites {0, m}."""
    S = paired_box(problem, m, 0)
    km = k_point(problem.frequency, m)
    window = 64.0 * problem.potential.epsilon
    for k in km + window * np.random.default_rng(5).uniform(-1.0, 1.0, 40000):
        H = restrict(problem, S, float(k)).entries
        if any(diagonal_value(problem, p, float(k)) != H[S.index(p), S.index(p)].real
               for p in ((0, 0), m)):
            return float(k)
    return None


@pytest.mark.parametrize("m", [(1, 0), (1, -2)])
def test_pair_branch_solves_the_matrix_it_factors(generic_problem, m):
    # diagonal_value and restrict round (m.omega + k)^2 apart in rare k; at
    # such a k the roots on {0, m}, where the reduced set is empty, are the
    # closed form of H's own 2x2 block, bit for bit
    k = _diagonal_off_by_rounding(generic_problem, m)
    assert k is not None
    S = paired_box(generic_problem, m, 0)
    H = restrict(generic_problem, S, k).entries
    i, j = S.index((0, 0)), S.index(m)
    a, b = H[i, i].real, H[j, j].real
    half = math.hypot(0.5 * (a - b), abs(H[i, j]))
    plus, minus = pair_roots(generic_problem, S, k, (0, 0), m)
    assert plus.solver.v == (a, b)
    assert (plus.E, minus.E) == (0.5 * (a + b) + half, 0.5 * (a + b) - half)


def test_eigenvectors_are_built_only_when_read(monkeypatch):
    # band and eigen_pair report energies without touching F; only .phi does
    problem = build_problem(load_config(GOLDEN_CONFIG))
    host = ball(8, 2)
    grid = [0.07, 0.19, 0.23, 0.31]          # the golden band's paired points: 0.05, 0.07, 0.19, 0.31
    want = band(problem, grid, lambda k: host)
    n0 = (0, 1)
    k = k_point(problem.frequency, n0) + 2e-5
    S = paired_box(problem, n0, 6)
    pair_want = [r.E for r in eigen_pair(problem, S, k, (0, 0), n0)]

    def unread(self, m0, E):
        raise AssertionError("eigenvector built but not read")

    monkeypatch.setattr(ReducedSolver, "f", unread)
    got = band(problem, grid, lambda k: host)
    assert [p.regime for p in got] == ["paired", "paired", "nonresonant", "paired"]
    assert [p.E for p in got] == [p.E for p in want]
    pair = eigen_pair(problem, S, k, (0, 0), n0)
    assert [r.E for r in pair] == pair_want
    simple = eigen_simple(problem, (0, 0), host, 0.07)
    for rec in (*pair, simple):
        with pytest.raises(AssertionError, match="not read"):
            rec.phi


# ---------------------------------------------------------------------------
# sized_gap: each label's box chosen by its truncation residual
# ---------------------------------------------------------------------------


def _random_problem(golden_freq, eps, seed=1):
    return Problem(golden_freq, random_potential(np.random.default_rng(seed), epsilon=eps))


def _tol(problem, rec):
    return spectral.FIXED_POINT_TOL * max(1.0, diagonal_value(problem, (0, 0), rec.k_point))


@pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2])
def test_sized_gap_edges_match_a_radius_12_box(golden_freq, eps):
    prob = _random_problem(golden_freq, eps)
    for m in [(0, 1), (1, -1), (2, 0)]:
        rec = spectral.sized_gap(prob, m, 8)
        ref = gap_at(prob, m, 12)
        assert rec.radius <= 8
        assert rec.truncation_residual <= _tol(prob, rec) or rec.capped
        assert abs(rec.E_minus - ref.E_minus) <= 2 * _tol(prob, ref)
        assert abs(rec.E_plus - ref.E_plus) <= 2 * _tol(prob, ref)


def test_sized_gap_rejects_the_first_radius_at_eps_1e_2(golden_freq):
    prob = _random_problem(golden_freq, 1e-2)
    start = max(2, max(sum(map(abs, d)) for d in prob.potential.support()))
    for m in [(0, 1), (1, 1)]:
        rec = spectral.sized_gap(prob, m, 8)
        assert start < rec.radius <= 8


def test_sized_gap_at_an_unmet_cap_is_the_cap_box(golden_freq):
    # acceptance 3's trial-0 potential: at cap 5 some labels keep a
    # truncation residual above FIXED_POINT_TOL * scale
    rng = np.random.default_rng(202)
    eps = float(10 ** -rng.uniform(4, 5))
    prob = Problem(golden_freq, random_potential(rng, epsilon=eps, kappa0=0.5))
    capped = 0
    for m in [m for m in ball(4, 2) if any(m)]:
        rec = spectral.sized_gap(prob, m, 5)
        assert rec.radius <= 5
        assert rec.capped == (rec.truncation_residual > _tol(prob, rec))
        if not rec.capped:
            continue
        capped += 1
        ref = gap_at(prob, m, 5)
        assert rec.radius == 5
        assert (rec.E_minus, rec.E_plus, rec.width, rec.reconcile_dev) == (
            ref.E_minus, ref.E_plus, ref.width, ref.reconcile_dev)
    assert capped


@pytest.mark.parametrize("cap", [0, 1])
def test_sized_gap_small_caps_solve_only_the_cap_box(golden_freq, generic_problem,
                                                     monkeypatch, cap):
    hosts = []

    class Recording(ReducedSolver):
        def __init__(self, problem, S, *args):
            hosts.append(S)
            super().__init__(problem, S, *args)

    # at eps = 30 three of the cap-1 boxes stall
    strong = Problem(golden_freq, Potential.from_harmonics({(0, 1): 0.6, (1, 0): 0.3}, 30.0, 0.5))
    errors = 0
    for prob in (generic_problem, _random_problem(golden_freq, 1e-4), strong):
        for m in [(0, 1), (1, 1), (1, -1), (0, 3)]:
            box = paired_box(prob, m, cap)
            try:
                ref = gap_at(prob, m, cap)
            except QPSpecError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    spectral.sized_gap(prob, m, cap)
                errors += 1
                continue
            monkeypatch.setattr(spectral, "ReducedSolver", Recording)
            hosts.clear()
            rec = spectral.sized_gap(prob, m, cap)
            monkeypatch.undo()
            assert hosts == [box]
            assert rec.radius == cap
            assert (rec.E_minus, rec.E_plus, rec.width, rec.reconcile_dev) == (
                ref.E_minus, ref.E_plus, ref.width, ref.reconcile_dev)
    assert errors == (3 if cap == 1 else 0)
    if cap == 1:
        # eps 30 at (1, -1) on an 8-site box: the edges -24.36 and -15.75 are
        # eigenvalues 0 and 1, the pair the diagonal count labels (i = 0),
        # though eigenvalues 12.13 and 18.19 lie nearer the centre 1.44
        rec = spectral.sized_gap(strong, (1, -1), cap)
        H = restrict(strong, paired_box(strong, (1, -1), cap), rec.k_point).entries
        assert [rec.E_minus, rec.E_plus] == pytest.approx(np.linalg.eigvalsh(H)[:2], rel=1e-12)


def test_sized_gap_runs_one_oracle_on_the_accepted_box(golden_freq, monkeypatch):
    prob = _random_problem(golden_freq, 1e-2)
    seen = []
    real = spectral.dense_spectrum

    def counting(M, *args, **kwargs):
        seen.append(M.sites)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(spectral, "dense_spectrum", counting)
    rec = spectral.sized_gap(prob, (0, 1), 8)
    assert seen == [paired_box(prob, (0, 1), rec.radius)]


@pytest.mark.parametrize("which", ["golden", "random"])
def test_gap_at_is_sized_gap_up_to_the_first_radius(golden_freq, which):
    # sized_gap's first radius is max(2, rho): up to it, sized_gap tries the
    # one box gap_at solves on, so the records agree field for field
    if which == "golden":
        prob = build_problem(load_config(GOLDEN_CONFIG))
    else:
        prob = _random_problem(golden_freq, 1e-4)
    rho = max(sum(map(abs, d)) for d in prob.potential.support())
    for m in [(0, 1), (1, -1), (1, 1), (0, 2)]:
        for R in range(max(2, rho) + 1):
            rec = gap_at(prob, m, R)
            assert rec.radius == R
            assert rec == spectral.sized_gap(prob, m, R)


# ---------------------------------------------------------------------------
# The truncation residual from the host lookup's coupling shell
# ---------------------------------------------------------------------------


def _nu_problem(nu: int, coefficients: dict, eps: float = 1e-3) -> Problem:
    omega = (1.0, (math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0)[:nu]
    pot = Potential.from_harmonics(coefficients, eps, 0.5)
    return Problem(Frequency(omega, 0.1, nu + 1.0), pot)


def _half_ball_coefficients(nu: int, rng, stride: int = 1) -> dict:
    """Random harmonics on half of ball(3), scaled by `stride`."""
    half = [n for n in ball(3, nu) if n > tuple(-c for c in n)]
    chosen = rng.choice(len(half), size=min(6, len(half)), replace=False)
    return {tuple(stride * c for c in half[i]): complex(rng.normal(), rng.normal())
            for i in chosen}


def _padded_residual(problem: Problem, rec) -> float:
    """||H_shell,S phi||_2 / ||phi||_2 from a dense restrict on S plus its
    shell, phi padded with zeros: the residual's rows off S."""
    S = rec.sites
    shell = {tuple(a + b for a, b in zip(s, d))
             for s in S for d in problem.potential.support()} - set(S)
    big = S.union(SiteSet(sorted(shell)))
    phi = np.zeros(len(big), dtype=complex)
    phi[[big.index(s) for s in S]] = rec.phi
    r = restrict(problem, big, rec.solver.k).entries @ phi - rec.E * phi
    return float(np.linalg.norm(r[[big.index(t) for t in shell]]) / np.linalg.norm(rec.phi))


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_truncation_residual_matches_a_dense_padded_restrict(nu):
    rng = np.random.default_rng(40 + nu)
    far = (9,) + (0,) * (nu - 1)   # a shift that leaves every box below
    one, five = ((c,) + (0,) * (nu - 1) for c in (1, 5))
    cases = [
        # a box with holes: two balls apart
        (_nu_problem(nu, {**_half_ball_coefficients(nu, rng), far: 0.5j}), five, 2),
        (_nu_problem(nu, {**_half_ball_coefficients(nu, rng), far: 0.5j}), one, 3),
        # even shifts never join 0 to an odd label: a gap of width 0
        (_nu_problem(nu, _half_ball_coefficients(nu, rng, stride=2)), one, 3),
    ]
    widths = []
    for prob, n0, R in cases:
        roots = spectral._pair_roots(prob, paired_box(prob, n0, R),
                                     k_point(prob.frequency, n0), [(0,) * nu, n0])
        widths.append(roots[1].E - roots[0].E)
        got = spectral._truncation_residual(roots)   # on the solve's own host
        want = max(_padded_residual(prob, rec) for rec in roots)
        assert 0 < want and abs(got - want) <= 64 * 2.0 ** -53 * want, (n0, R)
        # the dense restrict built another host; the residual reads the solver's
        assert spectral._truncation_residual(roots) == got
    assert widths[1] > 0 and widths[2] == 0


def test_band_points_derive_no_shell(generic_problem, monkeypatch):
    monkeypatch.setattr(dual_operator, "_last", None)
    lookups = count_calls(monkeypatch, dual_operator, "_coupling_lookup")
    shells = count_calls(monkeypatch, dual_operator.Host, "shell")
    S = ball(8, 2)
    points = band(generic_problem, np.linspace(-0.5, 0.5, 10), lambda k: S)
    assert all(p.regime != "error" for p in points)
    assert len(lookups) == 1 and not shells


def test_a_gap_label_makes_one_lookup_and_one_shell_per_box(golden_freq, monkeypatch):
    # at eps 1e-2 the first radius is rejected, so several boxes are tried
    prob = _random_problem(golden_freq, 1e-2)
    for m in [(0, 1), (1, 1)]:
        monkeypatch.setattr(dual_operator, "_last", None)
        boxes = count_calls(monkeypatch, spectral, "paired_box")
        lookups = count_calls(monkeypatch, dual_operator, "_coupling_lookup")
        shells = count_calls(monkeypatch, dual_operator.Host, "shell")
        spectral.sized_gap(prob, m, 8)
        assert len(boxes) > 1
        assert len(lookups) == len(shells) == len(boxes)
        monkeypatch.undo()


@given(nu=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 16),
       log_eps=st.floats(-5.0, -1.5), k=st.floats(-0.5, 0.5))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_the_labelled_rank_is_the_nearest_pair_and_the_largest_overlap(nu, seed, log_eps, k):
    # the rank rule against the two rules it replaced, both from np.linalg.eigh:
    # a gap box's ranked pair is the two eigenvalues nearest the pivots' mean
    # diagonal, and a simple root's ranked eigenvalue is the one whose
    # eigenvector weighs most on its pivot
    omega = (1.0, GOLDEN, math.sqrt(2.0) - 1.0)[:nu]
    prob = Problem(Frequency(omega, 0.1, nu + 1.0),
                   random_potential(np.random.default_rng(seed), 10 ** log_eps, nu=nu))
    for m in [m for m in ball(2, nu) if m > tuple(-c for c in m)]:
        solver = spectral.sized_gap(prob, m, 6 if nu == 2 else 3).roots[0].solver
        evals = np.linalg.eigh(solver.full.entries)[0]
        nearest = np.sort(evals[np.argsort(np.abs(evals - np.mean(solver.v)))[:2]])
        assert spectral._labelled(solver, 2)[0] == pytest.approx(nearest, rel=1e-12, abs=1e-12), m
    host, zero = ball(5, nu), tuple([0] * nu)
    v = restrict(prob, host, k).entries.diagonal().real
    v0 = v[host.index(zero)]
    if np.sort(np.abs(v - v0))[1] <= 1e-9 * max(1.0, abs(v0)):
        return   # k = k_m on the host: the two split states weigh 1/sqrt(2) each on 0
    rec = eigen_simple(prob, zero, host, k)
    spectral._reconcile([rec], "simple root")
    evals, evecs = np.linalg.eigh(rec.solver.full.entries)
    overlap = evals[np.argmax(np.abs(evecs[rec.solver.piv[0]]))]
    (ranked,), _ = spectral._labelled(rec.solver, 1)
    assert ranked == pytest.approx(overlap, rel=1e-12)


@pytest.mark.parametrize("q", [0.05, 0.3])
def test_gap_edges_on_one_line_are_mathieu_characteristic_values(q):
    # omega = 1 and c(+-1) = q pi^2 make H / pi^2 at k_r = -r / 2 the
    # Mathieu matrix on j = 2 m - r: diagonal j^2, q between j and j +- 2,
    # so gap r's edges are pi^2 b_r(q) and pi^2 a_r(q); each is held to the
    # code's own bounds, the fixed point's tolerance plus the accepted
    # box's truncation residual
    from scipy.special import mathieu_a, mathieu_b
    freq = Frequency((1.0,), 0.1, 2.0, window_n=50)
    problem = Problem(freq, Potential({(1,): 0.6, (-1,): 0.6}, q * math.pi ** 2 / 0.6, 0.5))
    for r in range(1, 6):
        rec = spectral.sized_gap(problem, (r,), 20)
        assert not rec.capped, r
        scale = max(1.0, diagonal_value(problem, (0,), rec.k_point))
        tol = spectral.FIXED_POINT_TOL * scale + rec.truncation_residual
        for E, want in ((rec.E_minus, mathieu_b(r, q)), (rec.E_plus, mathieu_a(r, q))):
            assert abs(E - math.pi ** 2 * want) <= tol, (r, E, math.pi ** 2 * want)
