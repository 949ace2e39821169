import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpspec.dual_operator import diagonal_value
from qpspec.errors import SingularBlockError
from qpspec.inverse import recovered_bound
from qpspec.lattice import SiteSet, ball
from qpspec.model import Potential, Problem
from qpspec.resonance import k_point
from qpspec.schur import THETA_MAX, UNIT_ROUNDOFF, ReducedSolver
from qpspec.spectral import band, eigen_simple, paired_box, sized_gap

from conftest import random_potential


def q_at(problem, m0, S, k, E):
    return ReducedSolver(problem, S, k, [m0]).q(m0, E)


def g_at(problem, mp, mm, S, k, E):
    return ReducedSolver(problem, S, k, [mp, mm]).g(mp, mm, E)


def test_q_zero_potential(zero_problem):
    S = ball(1, 2)
    assert q_at(zero_problem, (0, 0), S, 0.3, -5.0) == 0.0


def test_q_two_site_closed_form(golden_freq):
    pot = Potential.from_harmonics({(0, 1): 0.5}, 1e-3, 0.5)
    prob = Problem(golden_freq, pot)
    S = SiteSet([(0, 0), (0, 1)])
    E = -2.0
    vn = diagonal_value(prob, (0, 1), 0.2)
    expect = abs(pot.c((0, 1))) ** 2 / (E - vn)
    assert q_at(prob, (0, 0), S, 0.2, E) == pytest.approx(expect, rel=1e-12)


def test_q_real_for_real_E(generic_problem):
    S = ball(2, 2)
    val = q_at(generic_problem, (0, 0), S, 0.23, -4.0)
    assert abs(val.imag) <= 1e-9 * max(1.0, abs(val))


def test_g_zero_potential(zero_problem):
    S = ball(1, 2)
    assert g_at(zero_problem, (0, 0), (0, 1), S, 0.3, -5.0) == 0


def test_g_two_site_exact(golden_freq):
    pot = Potential.from_harmonics({(0, 1): 0.5 + 0.1j}, 1e-3, 0.5)
    prob = Problem(golden_freq, pot)
    S = SiteSet([(0, 0), (0, 1)])
    got = g_at(prob, (0, 0), (0, 1), S, 0.2, -2.0)
    assert got == pot.c((0, 1))  # empty correction sum


def test_g_conjugate_symmetry(generic_problem):
    S = ball(2, 2)
    a = g_at(generic_problem, (0, 0), (0, 1), S, 0.2, -4.0)
    b = g_at(generic_problem, (0, 1), (0, 0), S, 0.2, -4.0)
    assert a == pytest.approx(np.conj(b), abs=1e-15)


def test_f_zero_potential(zero_problem):
    S = ball(1, 2)
    F = ReducedSolver(zero_problem, S, 0.3, [(0, 0)]).f((0, 0), -5.0)
    assert np.all(F == 0)


def test_f_two_site_magnitude(golden_freq):
    pot = Potential.from_harmonics({(0, 1): 0.5}, 1e-3, 0.5)
    prob = Problem(golden_freq, pot)
    S = SiteSet([(0, 0), (0, 1)])
    E = -2.0
    solver = ReducedSolver(prob, S, 0.2, [(0, 0)])
    F = solver.f((0, 0), E)
    vn = diagonal_value(prob, (0, 1), 0.2)
    assert abs(F[solver.reduced_sites.index((0, 1))]) == pytest.approx(
        abs(pot.c((0, 1)) / (E - vn)), rel=1e-12)


def test_assembled_phi_residual(generic_problem):
    # phi(m0) = 1, phi(n) = -F(n) kills the residual when E solves E = v + Q
    rec = eigen_simple(generic_problem, (0, 0), ball(3, 2), 0.22, oracle_check=False)
    assert rec.residual <= 1e-12


def test_q_g_quadratic_in_eps(golden_freq):
    # Q/eps^2 and (G - eps c)/eps^2 stay bounded as eps -> 0
    S = ball(2, 2)
    ratios_q, ratios_g = [], []
    for eps in (1e-3, 1e-4, 1e-5):
        pot = Potential.from_harmonics({(0, 1): 0.5, (1, 0): 0.3, (0, 2): 0.2},
                                       eps, 0.5)
        prob = Problem(golden_freq, pot)
        q = q_at(prob, (0, 0), S, 0.21, -3.0).real
        g = g_at(prob, (0, 0), (0, 2), S, 0.21, -3.0)
        ratios_q.append(q / eps ** 2)
        ratios_g.append((g - pot.c((0, 2))) / eps ** 2)
    assert max(map(abs, ratios_q)) <= 2 * min(map(abs, ratios_q)) + 1e-12
    assert max(map(abs, ratios_g)) <= 2 * min(map(abs, ratios_g)) + 1e-12


def test_q_derivative_bounds(generic_problem):
    # |d_E Q| <= eps and |E - v(m0)| < eps, the small-coupling contraction
    S = ball(3, 2)
    k, E = 0.22, -5.0
    eps = generic_problem.potential.epsilon
    h = 1e-6
    solver = ReducedSolver(generic_problem, S, k, [(0, 0)])
    dq = (solver.q((0, 0), E + h).real - solver.q((0, 0), E - h).real) / (2 * h)
    assert abs(dq) <= eps


def test_eigenvalue_stays_within_eps_of_diagonal(generic_problem):
    eps = generic_problem.potential.epsilon
    for k in (0.13, 0.29):
        rec = eigen_simple(generic_problem, (0, 0), ball(4, 2), k,
                           oracle_check=False)
        v0 = diagonal_value(generic_problem, (0, 0), k)
        assert 0 < abs(rec.E - v0) < eps


@pytest.mark.parametrize("pivots", [[(0, 0)], [(0, 0), (0, 1)], [(1, -1), (0, 0)]])
def test_block_entries_are_single_column_solves(generic_problem, pivots):
    # entry (i, j): h(p_i, p_j) off the diagonal plus conj(h(., p_i)) . K h(., p_j).
    # One pivot's block is its one-column solve bit for bit.  A multi-column
    # getrs rounds like one-column solves with one BLAS thread, but a
    # threaded OpenBLAS may round it differently, so several pivots are
    # held to the dots' rounding bound instead.
    k = k_point(generic_problem.frequency, (0, 1)) + 1e-4
    solver = ReducedSolver(generic_problem, ball(4, 2), k, pivots)
    H, sites = solver.full.entries, solver.full.sites
    for E in (diagonal_value(generic_problem, (0, 0), k) + 1e-3, -3.0):
        block = solver.block(E)
        assert [len(row) for row in block] == [len(pivots)] * len(pivots)
        for i, p in enumerate(pivots):
            row = np.conj(solver.coupling_column(p))
            for j, p2 in enumerate(pivots):
                x = solver.solve(E, solver.coupling_column(p2))
                direct = 0j if i == j else complex(H[sites.index(p), sites.index(p2)])
                want = direct + row @ x
                if len(pivots) == 1:
                    assert block[i][j] == want
                else:
                    bound = 1e-14 * (abs(direct) + np.abs(row) @ np.abs(x))
                    assert abs(block[i][j] - want) <= bound
        assert solver.q(pivots[0], E) == block[0][0]
        assert solver.g(pivots[0], pivots[-1], E) == block[0][-1]


def test_empty_reduced_set(generic_problem):
    # paired_box(n0, 0) is the pair alone: every sum over the reduced set is empty
    zero, n0 = (0, 0), (0, 1)
    k = k_point(generic_problem.frequency, n0)
    solver = ReducedSolver(generic_problem, paired_box(generic_problem, n0, 0), k, [zero, n0])
    assert solver.reduced_sites == []
    E = diagonal_value(generic_problem, zero, k)
    assert solver.q(zero, E) == 0j
    i, j = (solver.full.sites.index(p) for p in (zero, n0))
    assert solver.g(zero, n0, E) == solver.full.entries[i, j]
    F = solver.f(zero, E)
    assert F.shape == (0,) and F.dtype == complex
    assert solver.solve(E, np.eye(0)).shape == (0, 0)


def test_eigen_simple_on_one_site(generic_problem):
    # with no reduced site Q is 0, so the fixed point is v(0, k) itself,
    # and the one-site oracle agrees
    zero, k = (0, 0), 0.22
    rec = eigen_simple(generic_problem, zero, SiteSet([zero]), k)
    assert rec.E == diagonal_value(generic_problem, zero, k)


def test_lu_failure_is_a_singular_block(generic_problem, monkeypatch):
    # getrf reports a zero pivot by info > 0 alone; that is a singular block
    solver = ReducedSolver(generic_problem, ball(2, 2), 0.13, [(0, 0)])
    getrf = solver._getrf

    def fails(A, **kwargs):
        lu, piv, _ = getrf(A, **kwargs)
        return lu, piv, 1

    monkeypatch.setattr(solver, "_getrf", fails)
    with pytest.raises(SingularBlockError):
        solver.q((0, 0), 1.0)


def test_lu_unexpected_error_propagates(generic_problem, monkeypatch):
    solver = ReducedSolver(generic_problem, ball(2, 2), 0.13, [(0, 0)])

    def broken(A, **kwargs):
        raise TypeError("not a factorization failure")

    monkeypatch.setattr(solver, "_getrf", broken)
    with pytest.raises(TypeError):
        solver.q((0, 0), 1.0)


@pytest.mark.parametrize("shift", [0.0, 1e-14])
def test_singular_block_on_the_real_path(zero_problem, shift):
    # zero potential: E - H_rest is diagonal, and E at a non-pivot diagonal
    # value zeroes one pivot exactly (getrf's info > 0); 1e-14 * scale above
    # it leaves a pivot below PIVOT_RTOL times the largest
    solver = ReducedSolver(zero_problem, ball(2, 2), 0.13, [(0, 0)])
    i = solver.full.sites.index((1, 0))
    v = solver.full.entries[i, i].real
    with pytest.raises(SingularBlockError):
        solver.q((0, 0), v + shift * max(1.0, abs(v)))


@pytest.mark.parametrize("pivots", [[(0, 0)], [(0, 0), (0, 1)], [(1, -1), (0, 0)]])
def test_solver_holds_the_matrix_it_factors(generic_problem, pivots):
    # v, the pivot columns, the direct couplings and -H_rest, gathered from
    # the memoized couplings and the diagonal, are full's entries exactly
    k = k_point(generic_problem.frequency, (0, 1)) + 1e-4
    solver = ReducedSolver(generic_problem, ball(4, 2), k, pivots)
    assert "full" not in vars(solver)     # built on first read only
    H, piv, rest = solver.full.entries, solver.piv, solver.rest
    assert solver._couplings is None and solver.full.entries is H
    assert solver.sites is solver.full.sites
    assert solver.v == tuple(float(H[i, i].real) for i in piv)
    assert np.array_equal(solver.diag, H.diagonal().real)
    assert np.array_equal(-solver._minus_rest, H[np.ix_(rest, rest)])
    assert np.array_equal(solver._cols, H[np.ix_(rest, piv)])
    assert solver._direct == [[0j if a == b else complex(H[a, b]) for b in piv] for a in piv]


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_non_finite_k_is_refused_at_construction(generic_problem, k):
    # getrf and getrs run without a finiteness scan, so no solver is built
    # on a non-finite matrix
    with pytest.raises(ValueError):
        ReducedSolver(generic_problem, ball(2, 2), k, [(0, 0)])


def test_non_finite_couplings_are_refused_at_construction(golden_freq):
    prob = Problem(golden_freq, Potential({(0, 1): math.nan, (0, -1): math.nan}, 1e-4, 0.5))
    with pytest.raises(ValueError):
        ReducedSolver(prob, ball(2, 2), 0.2, [(0, 0)])


@pytest.fixture
def getrf_calls(monkeypatch):
    """getrf calls per ReducedSolver built while the fixture is active, in
    the order the solvers were built."""
    calls = {}
    init = ReducedSolver.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        getrf, calls[self] = self._getrf, 0

        def counted(A, **kw):
            calls[self] += 1
            return getrf(A, **kw)

        self._getrf = counted

    monkeypatch.setattr(ReducedSolver, "__init__", counted_init)
    return calls


def _anchored(problem, S, k, pivots, E0):
    """A solver factored at E0, its Gershgorin gap g, and a list that
    records every later getrf."""
    solver = ReducedSolver(problem, S, k, pivots)
    solver.block(E0)
    later, getrf = [], solver._getrf
    solver._getrf = lambda A, **kw: later.append(1) or getrf(A, **kw)
    return solver, solver._anchor[3], later


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 6), st.integers(1, 2),
       st.floats(-12.0, math.log10(THETA_MAX), exclude_max=True),
       st.sampled_from([-1.0, 1.0]), st.floats(0.05, 0.45))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_corrected_solve_is_within_its_bound(golden_freq, seed, radius, n_piv, log_theta,
                                             sign, k):
    # block and f at E = E0 + delta, read from the LU at E0 without a new
    # factorization, against a solver factored at E: each column within
    # 2^-53 ||x0|| (the certified truncation, x0 = K(E0) h(., p)) plus a
    # rounding term of 64 u ||K(E) h(., p)||.  Over 300 random hosts the
    # two sides differed by at most 6.4 u ||K(E) h(., p)||, so a series cut
    # one term early, erring by theta^J ||x0||, shows when theta^J > 64 u.
    prob = Problem(golden_freq, random_potential(np.random.default_rng(seed)))
    S, pivots = ball(radius, 2), [(0, 0), (0, 1)][:n_piv]
    E0 = diagonal_value(prob, (0, 0), k)
    solver, g, later = _anchored(prob, S, k, pivots, E0)
    E = E0 + sign * 10.0 ** log_theta * g
    delta = E - E0
    assume(g > 0 and 0 < abs(delta) < THETA_MAX * g)
    fresh = ReducedSolver(prob, S, k, pivots)
    block, want = solver.block(E), fresh.block(E)
    n, x0 = len(solver.rest), solver._solved[E0]
    for j, p in enumerate(pivots):
        x, y = solver.f(p, E), fresh.f(p, E)
        bound = UNIT_ROUNDOFF * (np.linalg.norm(x0[:, j]) + 64 * np.linalg.norm(y))
        assert np.linalg.norm(x - y) <= bound
        for i, q in enumerate(pivots):
            # plus the rounding of the two dots with h(p_i, .)
            row = np.linalg.norm(solver.coupling_column(q))
            dots = 2 * n * UNIT_ROUNDOFF * row * np.linalg.norm(y)
            assert abs(block[i][j] - want[i][j]) <= row * bound + dots
    assert not later


def test_fresh_factorization_past_the_limit(generic_problem):
    # theta = |delta| / g at the limit or above, or a Gershgorin gap g <= 0
    # at the anchor, takes a fresh getrf, which becomes the anchor
    S, k, zero = ball(4, 2), 0.22, (0, 0)
    E0 = diagonal_value(generic_problem, zero, k)
    solver, g, later = _anchored(generic_problem, S, k, [zero], E0)
    assert g > 0
    solver.q(zero, E0 + 0.5 * THETA_MAX * g)
    assert not later
    E1 = E0 + 2.0 * THETA_MAX * g
    solver.q(zero, E1)
    assert later == [1] and solver._anchor[0] == E1
    # an anchor inside a Gershgorin disc of the reduced set: g <= 0
    n = solver.rest[np.argmin(np.abs(solver.diag[solver.rest] - E0))]
    E0 = solver.diag[n] + 0.5 * solver._row_sum
    solver, g, later = _anchored(generic_problem, S, k, [zero], E0)
    assert g == 0.0
    solver.f(zero, E0)            # the anchor itself needs no factorization
    assert not later
    solver.q(zero, E0 + 1e-12)
    assert later == [1]


@pytest.mark.parametrize("near", [False, True])
def test_eigenvalue_of_the_reduced_block_is_factored(zero_problem, generic_problem, near):
    # an eigenvalue of H_rest lies in a Gershgorin disc, so theta >= 1 from
    # any anchor: it is factored afresh, never corrected, whether the anchor
    # is the pivot's diagonal or just beside the eigenvalue.  With no
    # potential the eigenvalue is a diagonal entry, getrf meets a zero pivot
    # and the solve raises, as a first energy there does.
    S, k, zero = ball(3, 2), 0.13, (0, 0)
    v0 = diagonal_value(generic_problem, zero, k)
    for problem in (zero_problem, generic_problem):
        solver = ReducedSolver(problem, S, k, [zero])
        H = solver.full.entries[np.ix_(solver.rest, solver.rest)]
        evals = H.diagonal().real if problem is zero_problem else np.linalg.eigvalsh(H)
        lam = float(evals[np.argmin(np.abs(evals - v0))])
        E0 = lam + 1e-6 * max(1.0, abs(lam)) if near else v0
        solver, _, later = _anchored(problem, S, k, [zero], E0)
        if problem is zero_problem:
            with pytest.raises(SingularBlockError):
                solver.q(zero, lam)
        else:
            solver.q(zero, lam)
        assert later == [1]


def test_factorizations_per_band_point(generic_problem, getrf_calls):
    # one LU per non-resonant point, its fixed point's later energies
    # corrected; a pair-window point at most two, since its first step
    # leaves the pivots' mean diagonal by about |v+ - v-| / 2
    freq = generic_problem.frequency
    resonant = [k_point(freq, m) + d for m in [(0, 1), (1, -1), (1, 1)] for d in (-3e-3, 1e-5)]
    points = band(generic_problem, [0.13, 0.22, 0.27, 0.36, *resonant], lambda k: ball(8, 2))
    assert len(getrf_calls) == len(points)
    assert [p.regime for p in points] == ["nonresonant"] * 4 + ["paired"] * len(resonant)
    calls = list(getrf_calls.values())
    assert calls[:4] == [1] * 4 and max(calls[4:]) <= 2


def test_factorizations_per_gap_box(golden_freq, getrf_calls):
    # every box sized_gap tries is factored once, at the pair's centre; the
    # record's recovered_bound adds one, for its wide identity solve
    prob = Problem(golden_freq, random_potential(np.random.default_rng(11)))
    tried = 0
    for n0 in [(0, 1), (1, 0), (1, 1)]:
        getrf_calls.clear()
        rec = sized_gap(prob, n0, 6)
        assert set(getrf_calls.values()) == {1}
        tried += len(getrf_calls)
        recovered_bound(prob, rec)
        assert getrf_calls.pop(rec.roots[0].solver) == 2
        assert set(getrf_calls.values()) <= {1}
    assert tried > 3      # some label rejected a box
