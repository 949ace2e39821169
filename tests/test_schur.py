import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpspec import spectral
from qpspec.dual_operator import diagonal_value
from qpspec.errors import SingularBlockError
from qpspec.inverse import recovered_bound
from qpspec.lattice import SiteSet, ball
from qpspec.model import Frequency, Potential, Problem
from qpspec.resonance import k_point
from qpspec.schur import PIVOT_RTOL, THETA_MAX, UNIT_ROUNDOFF, ReducedSolver
from qpspec.spectral import band, eigen_simple, paired_box, sized_gap

from conftest import GOLDEN, count_solve_paths, random_potential


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
    reduced = [solver.sites.sites[i] for i in solver.rest]
    assert abs(F[reduced.index((0, 1))]) == pytest.approx(
        abs(pot.c((0, 1)) / (E - vn)), rel=1e-12)


def test_assembled_phi_residual(generic_problem):
    # phi(m0) = 1, phi(n) = -F(n) kills the residual when E solves E = v + Q
    rec = eigen_simple(generic_problem, (0, 0), ball(3, 2), 0.22)
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
        rec = eigen_simple(generic_problem, (0, 0), ball(4, 2), k)
        v0 = diagonal_value(generic_problem, (0, 0), k)
        assert 0 < abs(rec.E - v0) < eps


@pytest.mark.parametrize("pivots", [[(0, 0)], [(0, 0), (0, 1)], [(1, -1), (0, 0)]])
def test_block_entries_are_single_column_solves(generic_problem, pivots):
    # entry (i, j): h(p_i, p_j) off the diagonal plus conj(h(., p_i)) . K h(., p_j).
    # One pivot's block is its one-column solve bit for bit.  Several
    # columns may round otherwise: the series' product with two columns
    # sums in another order than with one.  So several pivots are held to
    # the dots' rounding bound instead.
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
    assert [solver.sites.sites[i] for i in solver.rest] == []
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
    assert spectral._reconcile([rec], "one-site root") == pytest.approx([0.0], abs=1e-12)


def test_near_block_unexpected_error_propagates(generic_problem, monkeypatch):
    # only a near Schur block's eigenvalue within the floor is a
    # SingularBlockError; anything its eigh raises propagates
    solver = ReducedSolver(generic_problem, ball(2, 2), 0.13, [(0, 0)])
    paths = count_solve_paths(solver)

    def broken(A):
        raise TypeError("not a singular block")

    monkeypatch.setattr(np.linalg, "eigh", broken)
    with pytest.raises(TypeError):
        solver.solve(float(solver.diag[solver.rest[0]]), np.eye(len(solver.rest)))
    assert paths == {"near": 1}


@pytest.mark.parametrize("shift", [0.0, 1e-14])
def test_singular_block_on_the_real_path(zero_problem, shift):
    # zero potential: E - H_rest is diagonal and r = 0, so E at a non-pivot
    # diagonal value puts that site alone in the near block, whose one
    # eigenvalue, E - v, is 0 exactly, or 1e-14 * scale, below the pivot floor
    solver = ReducedSolver(zero_problem, ball(2, 2), 0.13, [(0, 0)])
    i = solver.full.sites.index((1, 0))
    v = solver.full.entries[i, i].real
    with pytest.raises(SingularBlockError):
        solver.q((0, 0), v + shift * max(1.0, abs(v)))


def test_singular_block_with_couplings_is_refused(generic_problem):
    # at the eigenvalue of H_rest nearest v(0) the matrix is singular to
    # rounding (smallest singular value 1.6e-14): one site is near, and its
    # 1x1 Schur block, 1.9e-14, is below the pivot floor
    S, k, zero = ball(3, 2), 0.13, (0, 0)
    solver = ReducedSolver(generic_problem, S, k, [zero])
    evals = np.linalg.eigvalsh(solver.full.entries[np.ix_(solver.rest, solver.rest)])
    lam = float(evals[np.argmin(np.abs(evals - diagonal_value(generic_problem, zero, k)))])
    with pytest.raises(SingularBlockError):
        solver.q(zero, lam)


@pytest.mark.parametrize("pivots", [[(0, 0)], [(0, 0), (0, 1)], [(1, -1), (0, 0)]])
def test_solver_holds_the_matrix_it_factors(generic_problem, pivots):
    # v, the pivot columns and the direct couplings, gathered from the
    # memoized couplings and the diagonal, are full's entries exactly; the
    # solver keeps the couplings, which its series and near block read
    k = k_point(generic_problem.frequency, (0, 1)) + 1e-4
    solver = ReducedSolver(generic_problem, ball(4, 2), k, pivots)
    assert "full" not in vars(solver)     # built on first read only
    H, piv, rest = solver.full.entries, solver.piv, solver.rest
    assert solver.full.entries is H
    assert np.array_equal(solver._couplings + np.diag(solver.diag), H)
    assert solver.sites is solver.full.sites
    assert solver.v == tuple(float(H[i, i].real) for i in piv)
    assert np.array_equal(solver.diag, H.diagonal().real)
    assert np.array_equal(solver._cols, H[np.ix_(rest, piv)])
    assert solver._direct == [[0j if a == b else complex(H[a, b]) for b in piv] for a in piv]


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_non_finite_k_is_refused_at_construction(generic_problem, k):
    # the solves run without a finiteness scan, so no solver is built on a
    # non-finite matrix
    with pytest.raises(ValueError):
        ReducedSolver(generic_problem, ball(2, 2), k, [(0, 0)])


def test_non_finite_couplings_are_refused_at_construction(golden_freq):
    prob = Problem(golden_freq, Potential({(0, 1): math.nan, (0, -1): math.nan}, 1e-4, 0.5))
    with pytest.raises(ValueError):
        ReducedSolver(prob, ball(2, 2), 0.2, [(0, 0)])


def _near_sites(solver, E):
    """The reduced sites near E by the solver's rule, as positions in
    `sites`: |E - v(n)| - r at or below the pivot floor, or r at or above
    THETA_MAX |E - v(n)|."""
    gap = np.abs(E - solver.diag)
    gap[solver.piv] = np.inf
    r = solver.row_sum
    floor = PIVOT_RTOL * max(1.0, float(np.max(np.abs(E - solver.diag[solver.rest]))))
    return np.flatnonzero((gap - r <= floor) | (r >= THETA_MAX * gap))


def _spy_near(solver):
    """The near sets that the solver's later near solves receive."""
    seen, near_solve = [], solver._near_solve

    def spied(*args):
        seen.append(list(args[2]))
        return near_solve(*args)

    solver._near_solve = spied
    return seen


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 6), st.integers(1, 2),
       st.floats(-12.0, math.log10(THETA_MAX), exclude_max=True),
       st.sampled_from([-1.0, 1.0]), st.floats(0.05, 0.45), st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_diagonal_solve_is_within_its_bound(golden_freq, seed, radius, n_piv, log_theta,
                                            sign, k, at):
    # block and f at an energy r / 10^log_theta from a reduced diagonal, so
    # theta_D = r / min_n |E - v(n)| < THETA_MAX, on the series alone,
    # against an LU of E - H_rest: each column within 2^-53 ||x0|| (the
    # certified truncation, x0 = K_D h(., p)) plus a rounding term of
    # 64 u ||K(E) h(., p)||.  Over 300 random hosts the two sides differed by
    # at most 2.3 u ||K(E) h(., p)|| with one BLAS thread and 6.1 u with two,
    # so a series cut one term early, erring by theta^J ||x0||, shows when
    # theta^J > 65 u, as does, in most draws, one stopped at 1e-10.
    prob = Problem(golden_freq, random_potential(np.random.default_rng(seed)))
    S, pivots = ball(radius, 2), [(0, 0), (0, 1)][:n_piv]
    solver = ReducedSolver(prob, S, k, pivots)
    paths = count_solve_paths(solver)
    v, r = solver.diag[solver.rest], solver.row_sum
    E = v[at % len(v)] + sign * r / 10.0 ** log_theta
    assume(r < THETA_MAX * np.min(np.abs(E - v)))
    block = solver.block(E)
    assert paths == {"diagonal": 1}
    cols, H = solver._cols, solver.full.entries[np.ix_(solver.rest, solver.rest)]
    y = sla.lu_solve(sla.lu_factor(E * np.eye(len(v)) - H), cols)
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
    # theta_D just above THETA_MAX puts the nearest reduced site, alone, in
    # the near block (no factorization), just below it the diagonal series
    # runs; with no potential (theta_D = 0) g_D = min_n |E - v(n)| at or
    # below the pivot floor PIVOT_RTOL max(1, max_n |E - v(n)|) puts that
    # site in the near block, whose eigenvalue within the floor raises, and
    # just above it the diagonal solve is K_D rhs exactly
    S, k, zero = ball(4, 2), 0.22, (0, 0)
    solver = ReducedSolver(generic_problem, S, k, [zero])
    paths, seen = count_solve_paths(solver), _spy_near(solver)
    v, r = solver.diag[solver.rest], solver.row_sum
    n = int(np.argmin(np.abs(v - diagonal_value(generic_problem, zero, k))))
    for step, path in ((1.0 - 1e-9, "near"), (1.0 + 1e-9, "diagonal")):
        E = v[n] - step * r / THETA_MAX
        near = np.min(np.abs(E - v))
        assert near == abs(E - v[n]) and (r < THETA_MAX * near) == (path == "diagonal")
        paths.clear()
        solver.q(zero, E)
        assert paths == {path: 1}
    assert seen == [[solver.rest[n]]]
    solver = ReducedSolver(zero_problem, S, k, [zero])
    paths, seen = count_solve_paths(solver), _spy_near(solver)
    v = solver.diag[solver.rest]
    floor = 1e-12 * max(1.0, np.max(np.abs(v[n] - v)))
    rhs = np.ones(len(v))
    with pytest.raises(SingularBlockError):
        solver.solve(v[n] + 0.5 * floor, rhs)
    assert paths == {"near": 1} and seen == [[solver.rest[n]]]
    paths.clear()
    E = v[n] + 2.0 * floor
    assert np.array_equal(solver.solve(E, rhs), rhs / (E - v))
    assert paths == {"diagonal": 1}


# A solve's backward error ||(E - H_rest) X - rhs|| is held to
# BACKWARD_C n u ||E - H_rest||_2 ||X||, n the reduced set's size and u the
# unit roundoff.  Over 4,000 random draws from the ranges of the test below
# (2-vCPU guest, OpenBLAS at one thread and at its default) the largest
# ratio to n u ||E - H_rest||_2 ||X|| was 0.10 with at most 8 near sites and
# 0.40 with more (14% of the draws);
# a near solve that drops H_NF K_F rhs_F from the block's right-hand side,
# or Y_N X_N from the far part, read up to 10^10 there and fails the test.
BACKWARD_C = 1.0


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]), st.integers(1, 2),
       st.floats(-5.0, -1.5), st.floats(-2.0, -0.01),
       st.sampled_from([-1.0, 1.0]), st.floats(0.05, 0.45), st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_near_solve_is_backward_stable(seed, nu, n_piv, log_eps, log_frac, sign, k, at):
    # E within r / THETA_MAX of the reduced diagonal v(at), so that at least
    # that site is near, and at least 10 r from it, so that no eigenvalue in
    # its Gershgorin disc is E by chance: the near sites, many of them at
    # large eps, go into the Schur block, which solves E - H_rest to the
    # backward error above, and an energy at an eigenvalue of H_rest (a
    # Gershgorin disc holds it, so some site is near) is a
    # SingularBlockError, with no potential and with this one.
    omega = (1.0, GOLDEN, math.sqrt(2.0) - 1.0)[:nu]
    freq = Frequency(omega, 0.1, nu + 1.0, window_n=0)
    rng = np.random.default_rng(seed)
    prob = Problem(freq, random_potential(rng, epsilon=10.0 ** log_eps, radius=2, nu=nu))
    S, pivots = ball(4 if nu == 2 else 2, nu), [(0,) * nu, (0,) * (nu - 1) + (1,)][:n_piv]
    solver = ReducedSolver(prob, S, k, pivots)
    paths = count_solve_paths(solver)
    v, r = solver.diag[solver.rest], solver.row_sum
    E = v[at % len(v)] + sign * 10.0 ** log_frac * r / THETA_MAX
    N = _near_sites(solver, E)
    assert solver.rest[at % len(v)] in N
    A = E * np.eye(len(v)) - solver.full.entries[np.ix_(solver.rest, solver.rest)]
    X = solver.solve(E, solver._cols)
    assert paths == {"near": 1}
    bound = BACKWARD_C * len(v) * UNIT_ROUNDOFF * np.linalg.norm(A, 2) * np.linalg.norm(X)
    assert np.linalg.norm(A @ X - solver._cols) <= bound
    for problem in (Problem(freq, Potential({}, 10.0 ** log_eps, 0.5)), prob):
        solver = ReducedSolver(problem, S, k, pivots)
        H = solver.full.entries[np.ix_(solver.rest, solver.rest)]
        evals = np.linalg.eigvalsh(H)
        lam = float(evals[np.argmin(np.abs(evals - v[at % len(v)]))])
        with pytest.raises(SingularBlockError):
            solver.solve(lam, solver._cols)


def _near_count_problem(freq, E_of, m):
    """generic_problem's harmonics at the eps that puts exactly m reduced
    sites near E_of(solver): r / THETA_MAX midway between the m-th and the
    (m+1)-th smallest |E - v(n)|, as r is linear in eps, or at twice the
    largest when m is every reduced site."""
    harmonics = {(0, 1): 0.55, (1, 0): 0.3 + 0.2j, (1, 1): 0.2 - 0.1j}
    unit = ReducedSolver(Problem(freq, Potential.from_harmonics(harmonics, 1.0, 0.5)),
                         ball(4, 2), 0.22, [(0, 0)])
    E = E_of(unit)
    gaps = np.sort(np.abs(E - unit.diag[unit.rest]))
    gaps = np.append(gaps, 3.0 * gaps[-1])
    eps = THETA_MAX * 0.5 * (gaps[m - 1] + gaps[m]) / unit.row_sum
    return Problem(freq, Potential.from_harmonics(harmonics, eps, 0.5)), E


@pytest.mark.parametrize("m", [9, 24, None])
def test_every_near_count_takes_the_schur_block(golden_freq, m):
    # 9 near sites, 24, and every reduced site (m None) go into the Schur
    # block, to the backward error above, and a right-hand side with no
    # column gives no column.  With every site near, F is empty:
    # theta = r / inf = 0, and the series returns 0 with no product.
    # An energy at an eigenvalue of H_rest is refused, whatever |N| is there.
    m = m or len(ball(4, 2)) - 1
    prob, E = _near_count_problem(golden_freq, lambda s: s.v[0] + 1e-3, m)
    solver = ReducedSolver(prob, ball(4, 2), 0.22, [(0, 0)])
    assert len(_near_sites(solver, E)) == m
    paths = count_solve_paths(solver)
    X = solver.solve(E, solver._cols)
    assert paths == {"near": 1}
    H = solver.full.entries[np.ix_(solver.rest, solver.rest)]
    A = E * np.eye(len(H)) - H
    bound = BACKWARD_C * len(A) * UNIT_ROUNDOFF * np.linalg.norm(A, 2) * np.linalg.norm(X)
    assert np.linalg.norm(A @ X - solver._cols) <= bound
    assert solver.solve(E, np.zeros((len(H), 0))).shape == (len(H), 0)
    evals = np.linalg.eigvalsh(H)
    with pytest.raises(SingularBlockError):
        solver.solve(float(evals[np.argmin(np.abs(evals - E))]), solver._cols)


@pytest.mark.parametrize("near", [False, True])
def test_eigenvalue_of_the_reduced_block_is_factored(zero_problem, generic_problem, near):
    # an eigenvalue of H_rest lies in a Gershgorin disc, so some reduced
    # site is near it: the energy is never summed by the diagonal series
    # alone, its near sites go into the Schur block, and that block's
    # eigendecomposition sees the singularity, whether the solve before it
    # was at the pivot's diagonal or just beside the eigenvalue.  With no
    # potential the block's eigenvalue is 0 exactly; with couplings it is
    # within rounding of 0, where a pivoted LU once missed it.
    S, k, zero = ball(3, 2), 0.13, (0, 0)
    v0 = diagonal_value(generic_problem, zero, k)
    for problem in (zero_problem, generic_problem):
        solver = ReducedSolver(problem, S, k, [zero])
        H = solver.full.entries[np.ix_(solver.rest, solver.rest)]
        evals = H.diagonal().real if problem is zero_problem else np.linalg.eigvalsh(H)
        lam = float(evals[np.argmin(np.abs(evals - v0))])
        solver.q(zero, lam + 1e-6 * max(1.0, abs(lam)) if near else v0)
        later = count_solve_paths(solver)
        with pytest.raises(SingularBlockError):
            solver.q(zero, lam)
        assert later == {"near": 1}


def test_factorizations_per_band_point(generic_problem, solve_paths):
    # no point on ball(8) at eps 1e-4 factors, non-resonant or in a pair
    # window, and none takes the near block: every energy of its fixed
    # point is solved on the diagonal.  At k = 0.13 the nearest reduced
    # diagonal, v(1, -2), lies 0.223 from v(0): theta_D = 1.02e-3 is just
    # past the limit, so (1, -2) is that point's second pivot.  At
    # k_(1, 1) - 3e-3, v(1, 1) lies beyond 1000 r of v(0): one pivot.
    freq = generic_problem.frequency
    resonant = [k_point(freq, m) + d for m in [(0, 1), (1, -1), (1, 1)] for d in (-3e-3, 1e-5)]
    points = band(generic_problem, [0.13, 0.22, 0.27, 0.36, *resonant], lambda k: ball(8, 2))
    assert len(solve_paths) == len(points)
    assert [p.regime for p in points] == (["paired"] + ["nonresonant"] * 3 + ["paired"] * 4
                                          + ["nonresonant", "paired"])
    first = next(iter(solve_paths))
    assert first.pivots == [(0, 0), (1, -2)]
    assert all(set(c) == {"diagonal"} and c["diagonal"] >= 2 for c in solve_paths.values())


def test_factorizations_per_gap_box(golden_freq, solve_paths):
    # no box sized_gap tries factors: its edges are solved on the diagonal,
    # and so are the record's recovered_bound solves: three prefactor
    # probes and one on the columns its quadratic term reads
    prob = Problem(golden_freq, random_potential(np.random.default_rng(11)))
    tried = 0
    for n0 in [(0, 1), (1, 0), (1, 1)]:
        solve_paths.clear()
        rec = sized_gap(prob, n0, 6)
        assert all(set(c) == {"diagonal"} for c in solve_paths.values())
        tried += len(solve_paths)
        before = Counter(solve_paths[rec.roots[0].solver])
        recovered_bound(prob, rec)
        assert solve_paths[rec.roots[0].solver] - before == {"diagonal": 4}
    assert tried > 3      # some label rejected a box
