import math

import numpy as np
import pytest
import scipy.linalg as sla
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

from conftest import count_solve_paths, random_potential


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
    # One pivot's block is its one-column solve bit for bit.  Several
    # columns may round otherwise: a multi-column getrs rounds like
    # one-column solves with one BLAS thread but not with a threaded
    # OpenBLAS, and the diagonal anchor's product with two columns sums in
    # another order than with one.  So several pivots are held to the dots'
    # rounding bound instead.
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
    # getrf reports a zero pivot by info > 0 alone; that is a singular block.
    # A right-hand side wider than the pivots' columns always factors.
    solver = ReducedSolver(generic_problem, ball(2, 2), 0.13, [(0, 0)])
    getrf = solver._getrf

    def fails(A, **kwargs):
        lu, piv, _ = getrf(A, **kwargs)
        return lu, piv, 1

    monkeypatch.setattr(solver, "_getrf", fails)
    with pytest.raises(SingularBlockError):
        solver.solve(1.0, np.eye(len(solver.rest)))


def test_lu_unexpected_error_propagates(generic_problem, monkeypatch):
    solver = ReducedSolver(generic_problem, ball(2, 2), 0.13, [(0, 0)])

    def broken(A, **kwargs):
        raise TypeError("not a factorization failure")

    monkeypatch.setattr(solver, "_getrf", broken)
    with pytest.raises(TypeError):
        solver.solve(1.0, np.eye(len(solver.rest)))


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


def test_singular_block_with_couplings_is_refused(generic_problem):
    # at the eigenvalue of H_rest nearest v(0) the matrix is singular to
    # rounding (smallest singular value 1.6e-14), yet partial pivoting
    # leaves every |U_ii| above the pivot floor (smallest 2.2e-5 of 325);
    # the condition estimate of that LU (gecon, 5e-17) sees it
    S, k, zero = ball(3, 2), 0.13, (0, 0)
    solver = ReducedSolver(generic_problem, S, k, [zero])
    evals = np.linalg.eigvalsh(solver.full.entries[np.ix_(solver.rest, solver.rest)])
    lam = float(evals[np.argmin(np.abs(evals - diagonal_value(generic_problem, zero, k)))])
    with pytest.raises(SingularBlockError):
        solver.q(zero, lam)


@pytest.mark.parametrize("pivots", [[(0, 0)], [(0, 0), (0, 1)], [(1, -1), (0, 0)]])
def test_solver_holds_the_matrix_it_factors(generic_problem, pivots):
    # v, the pivot columns, the direct couplings and -H_rest, gathered from
    # the memoized couplings and the diagonal, are full's entries exactly;
    # the solver keeps the couplings, which its diagonal anchor reads
    k = k_point(generic_problem.frequency, (0, 1)) + 1e-4
    solver = ReducedSolver(generic_problem, ball(4, 2), k, pivots)
    assert "full" not in vars(solver)     # built on first read only
    assert "_minus_rest" not in vars(solver)   # gathered on a first factorization only
    H, piv, rest = solver.full.entries, solver.piv, solver.rest
    assert solver.full.entries is H
    assert np.array_equal(solver._couplings + np.diag(solver.diag), H)
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


def _anchored(problem, S, k, pivots, E0):
    """A solver whose LU anchor is at E0 (a wide right-hand side there
    factors), its Gershgorin gap g, and the count of its later solve paths."""
    solver = ReducedSolver(problem, S, k, pivots)
    solver.solve(E0, np.eye(len(solver.rest)))
    return solver, solver._lu[3], count_solve_paths(solver)


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 6), st.integers(1, 2),
       st.floats(-12.0, math.log10(THETA_MAX), exclude_max=True),
       st.sampled_from([-1.0, 1.0]), st.floats(0.05, 0.45), st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_diagonal_solve_is_within_its_bound(golden_freq, seed, radius, n_piv, log_theta,
                                            sign, k, at):
    # block and f at an energy r / 10^log_theta from a reduced diagonal, so
    # theta_D = r / min_n |E - v(n)| < THETA_MAX, with no factorization,
    # against a fresh LU of E - H_rest: each column within 2^-53 ||x0|| (the
    # certified truncation, x0 = K_D h(., p)) plus a rounding term of
    # 64 u ||K(E) h(., p)||.  Over 300 random hosts the two sides differed by
    # at most 2.3 u ||K(E) h(., p)|| with one BLAS thread and 6.1 u with two,
    # so a series cut one term early, erring by theta^J ||x0||, shows when
    # theta^J > 65 u, as does, in most draws, one stopped at 1e-10.
    prob = Problem(golden_freq, random_potential(np.random.default_rng(seed)))
    S, pivots = ball(radius, 2), [(0, 0), (0, 1)][:n_piv]
    solver = ReducedSolver(prob, S, k, pivots)
    paths = count_solve_paths(solver)
    v, r = solver.diag[solver.rest], solver._row_sum
    E = v[at % len(v)] + sign * r / 10.0 ** log_theta
    assume(r < THETA_MAX * np.min(np.abs(E - v)))
    block = solver.block(E)
    assert paths == {"diagonal": 1} and "_minus_rest" not in vars(solver)
    cols, H = solver._cols, solver.full.entries[np.ix_(solver.rest, solver.rest)]
    y = sla.lu_solve(sla.lu_factor(E * np.eye(len(v)) - H), cols)   # a fresh LU
    x0 = cols / (E - v)[:, None]
    for j, p in enumerate(pivots):
        x = -solver.f(p, E)
        bound = UNIT_ROUNDOFF * (np.linalg.norm(x0[:, j]) + 64 * np.linalg.norm(y[:, j]))
        assert np.linalg.norm(x - y[:, j]) <= bound
        for i, q in enumerate(pivots):
            # plus the rounding of the two dots with h(p_i, .)
            row = np.linalg.norm(cols[:, i])
            dots = 2 * len(v) * UNIT_ROUNDOFF * row * np.linalg.norm(y[:, j])
            want = solver._direct[i][j] + np.conj(cols[:, i]) @ y[:, j]
            assert abs(block[i][j] - want) <= row * bound + dots


def test_diagonal_anchor_boundary(generic_problem, zero_problem):
    # theta_D just above THETA_MAX factors, just below it does not; with no
    # potential (theta_D = 0) g_D = min_n |E - v(n)| at or below the pivot
    # floor PIVOT_RTOL max(1, max_n |E - v(n)|) factors (and raises), just
    # above it the diagonal solve is K_D rhs exactly
    S, k, zero = ball(4, 2), 0.22, (0, 0)
    solver = ReducedSolver(generic_problem, S, k, [zero])
    paths = count_solve_paths(solver)
    v, r = solver.diag[solver.rest], solver._row_sum
    n = int(np.argmin(np.abs(v - diagonal_value(generic_problem, zero, k))))
    for step, path in ((1.0 - 1e-9, "getrf"), (1.0 + 1e-9, "diagonal")):
        E = v[n] - step * r / THETA_MAX
        near = np.min(np.abs(E - v))
        assert near == abs(E - v[n]) and (r < THETA_MAX * near) == (path == "diagonal")
        paths.clear()
        solver.q(zero, E)
        assert paths == {path: 1}
    solver = ReducedSolver(zero_problem, S, k, [zero])
    paths = count_solve_paths(solver)
    v = solver.diag[solver.rest]
    floor = 1e-12 * max(1.0, np.max(np.abs(v[n] - v)))
    rhs = np.ones(len(v))
    with pytest.raises(SingularBlockError):
        solver.solve(v[n] + 0.5 * floor, rhs)
    assert paths == {"getrf": 1}
    paths.clear()
    E = v[n] + 2.0 * floor
    assert np.array_equal(solver.solve(E, rhs), rhs / (E - v))
    assert paths == {"diagonal": 1}


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
    # two sides differed by at most 4.0 u ||K(E) h(., p)|| with one BLAS
    # thread and 8.0 u with two, so a series cut one term early, erring by
    # theta^J ||x0||, shows when theta^J > 65 u.  At eps 1e-2 the couplings
    # are too large for the diagonal anchor near v(0), so the LU anchor's
    # correction is the path that runs.
    prob = Problem(golden_freq, random_potential(np.random.default_rng(seed), epsilon=1e-2))
    S, pivots = ball(radius, 2), [(0, 0), (0, 1)][:n_piv]
    E0 = diagonal_value(prob, (0, 0), k)
    solver, g, later = _anchored(prob, S, k, pivots, E0)
    E = E0 + sign * 10.0 ** log_theta * g
    delta = E - E0
    assume(g > 0 and 0 < abs(delta) < THETA_MAX * g)
    fresh = ReducedSolver(prob, S, k, pivots)
    block, want = solver.block(E), fresh.block(E)
    n, x0 = len(solver.rest), solver.solve(E0, solver._cols)
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
    # from an LU anchor 100 r from a reduced diagonal, where theta_D = 1e-2
    # keeps the diagonal anchor out: theta = |delta| / g below the limit
    # corrects, at twice the limit factors afresh, which re-anchors, and a
    # Gershgorin gap g <= 0 at the anchor factors at any new energy
    S, k, zero = ball(4, 2), 0.22, (0, 0)
    probe = ReducedSolver(generic_problem, S, k, [zero])
    v, r = probe.diag[probe.rest], probe._row_sum
    n = int(np.argmin(np.abs(v - diagonal_value(generic_problem, zero, k))))
    E0 = v[n] + 100.0 * r
    assert np.min(np.abs(E0 - v)) == abs(E0 - v[n])
    solver, g, later = _anchored(generic_problem, S, k, [zero], E0)
    assert g > 0
    solver.q(zero, E0 + 0.5 * THETA_MAX * g)
    assert not later
    E1 = E0 + 2.0 * THETA_MAX * g
    solver.q(zero, E1)
    assert later == {"getrf": 1} and solver._lu[0] == E1
    # an anchor inside a Gershgorin disc of the reduced set: g <= 0
    E0 = v[n] + 0.5 * r
    solver, g, later = _anchored(generic_problem, S, k, [zero], E0)
    assert g == 0.0
    solver.f(zero, E0)            # the anchor itself needs no factorization
    assert not later
    solver.q(zero, E0 + 1e-12)
    assert later == {"getrf": 1}


@pytest.mark.parametrize("near", [False, True])
def test_eigenvalue_of_the_reduced_block_is_factored(zero_problem, generic_problem, near):
    # an eigenvalue of H_rest lies in a Gershgorin disc, so theta_D >= 1 and
    # theta >= 1 from any LU anchor: it is factored afresh, never corrected,
    # whether the anchor is the pivot's diagonal or just beside the
    # eigenvalue, and the solve raises, as a first energy there does.  With
    # no potential getrf meets a zero pivot; with couplings every |U_ii|
    # stays above the pivot floor and the condition estimate sees it.
    S, k, zero = ball(3, 2), 0.13, (0, 0)
    v0 = diagonal_value(generic_problem, zero, k)
    for problem in (zero_problem, generic_problem):
        solver = ReducedSolver(problem, S, k, [zero])
        H = solver.full.entries[np.ix_(solver.rest, solver.rest)]
        evals = H.diagonal().real if problem is zero_problem else np.linalg.eigvalsh(H)
        lam = float(evals[np.argmin(np.abs(evals - v0))])
        E0 = lam + 1e-6 * max(1.0, abs(lam)) if near else v0
        solver, _, later = _anchored(problem, S, k, [zero], E0)
        with pytest.raises(SingularBlockError):
            solver.q(zero, lam)
        assert later == {"getrf": 1}


def test_factorizations_per_band_point(generic_problem, solve_paths):
    # a point on ball(8) at eps 1e-4 factors nothing, non-resonant or in a
    # pair window: every energy of its fixed point is solved on the diagonal.
    # Except at k = 0.13, whose nearest reduced diagonal, v(1, -2), lies
    # 0.223 from v(0): theta_D = 1.02e-3 is just past the limit, so that
    # point factors once and corrects its later energies from the LU.
    freq = generic_problem.frequency
    resonant = [k_point(freq, m) + d for m in [(0, 1), (1, -1), (1, 1)] for d in (-3e-3, 1e-5)]
    points = band(generic_problem, [0.13, 0.22, 0.27, 0.36, *resonant], lambda k: ball(8, 2))
    assert len(solve_paths) == len(points)
    assert [p.regime for p in points] == ["nonresonant"] * 4 + ["paired"] * len(resonant)
    first, *others = solve_paths.items()
    assert first[1] == {"getrf": 1}
    assert all(set(c) == {"diagonal"} and c["diagonal"] >= 2 for _, c in others)
    assert all("_minus_rest" not in vars(solver) for solver, _ in others)


def test_factorizations_per_gap_box(golden_freq, solve_paths):
    # no box sized_gap tries factors: its edges are solved on the diagonal;
    # the record's recovered_bound factors once, for its wide identity solve
    prob = Problem(golden_freq, random_potential(np.random.default_rng(11)))
    tried = 0
    for n0 in [(0, 1), (1, 0), (1, 1)]:
        solve_paths.clear()
        rec = sized_gap(prob, n0, 6)
        assert all(set(c) == {"diagonal"} for c in solve_paths.values())
        tried += len(solve_paths)
        recovered_bound(prob, rec)
        assert solve_paths.pop(rec.roots[0].solver)["getrf"] == 1
        assert all(c["getrf"] == 0 for c in solve_paths.values())
    assert tried > 3      # some label rejected a box
