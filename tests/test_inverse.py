import math
from dataclasses import replace

import numpy as np
import pytest

from qpspec import inverse, spectral
from qpspec.dual_operator import restrict
from qpspec.errors import ConvergenceError, RegimeError
from qpspec.inverse import (DecayBound, gap_table, improve_decay, recovered_bound,
                            verify_forward, verify_inverse)
from qpspec.lattice import ball
from qpspec.model import Frequency, Potential, Problem
from qpspec.resonance import k_point
from qpspec.schur import UNIT_ROUNDOFF, ReducedSolver
from qpspec.spectral import gap_at, paired_box, sized_gap

from conftest import random_potential

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def chain_problem(golden_freq, eps=1e-4):
    return Problem(golden_freq, Potential.from_harmonics({(0, 2): 1.0}, eps, 0.5))


def bound_at(problem, n0, radius):
    records, _ = gap_table(problem, [n0], radius)
    return recovered_bound(problem, records[n0])


def test_recovered_bound_on_the_pair_alone(harmonic_problem):
    # at cap 0 the box is {0, n0}: the reduced set is empty, so the desk
    # prefactor has no resolvent part and the quadratic sum no terms
    rb = recovered_bound(harmonic_problem, sized_gap(harmonic_problem, (0, 1), 0))
    assert rb.prefactor_desk == 1.0
    assert rb.quadratic_term == 0.0


@pytest.fixture(scope="module")
def compliant_problem(golden_freq):
    """True decay rate 1.2 > 4 kappa0 with support away from the origin."""
    entries = {p: math.exp(-1.2 * 4) for p in [(0, 4), (4, 0), (2, 2), (1, 3)]}
    return Problem(golden_freq, Potential.from_harmonics(entries, 1e-4, 0.1))


def test_gap_table_zero_potential(zero_problem):
    ms = [(0, 1), (1, 0), (1, -1)]
    records, failures = gap_table(zero_problem, ms, 4)
    assert not failures
    assert all(rec.width == 0.0 for rec in records.values())


def test_gap_table_single_harmonic(harmonic_problem):
    eps = harmonic_problem.potential.epsilon
    ms = [(0, 1), (0, -1), (1, 0), (1, 1)]
    records, failures = gap_table(harmonic_problem, ms, 6)
    assert not failures
    assert records[(0, 1)].width == pytest.approx(2 * eps, abs=5 * eps ** 2)
    assert records[(0, -1)].width == pytest.approx(records[(0, 1)].width, abs=1e-12)
    assert records[(1, 0)].width <= 10 * eps ** 2
    assert records[(1, 1)].width <= 10 * eps ** 2


def test_verify_forward_rows(generic_problem):
    ms = [m for m in ball(2, 2) if any(m)]
    records, failures = gap_table(generic_problem, ms, 5)
    assert not failures
    rows = verify_forward(records, generic_problem.potential)
    assert rows and all(r.passed for r in rows)


def test_verify_forward_reports_violations(golden_freq):
    # adversarial: epsilon far outside the smallness regime
    pot = Potential.from_harmonics({(0, 1): 0.6}, 0.5, 0.5)
    prob = Problem(golden_freq, pot)
    records, failures = gap_table(prob, [(0, 1)], 4)
    rows = verify_forward(records, pot)
    # table still reports; rows may fail but nothing raises
    assert isinstance(rows, list)


def test_recovered_bound_holds_and_reports_both(golden_freq):
    prob = chain_problem(golden_freq)
    rb = bound_at(prob, (0, 2), 6)
    assert rb.holds
    assert rb.bound_coarse >= rb.actual
    assert rb.prefactor_coarse > rb.prefactor_desk


def test_desk_prefactor_is_exact_derivative(golden_freq):
    # eps = 3 makes |d_E Q| ~ 1e-2, so prefactor - 1 carries 13 digits
    pot = Potential.from_harmonics(
        {(0, 1): 0.55, (1, 0): 0.3 + 0.2j, (1, 1): 0.2 - 0.1j}, 3.0, 0.5)
    prob, n0 = Problem(golden_freq, pot), (0, 1)
    rec = gap_table(prob, [n0], 4)[0][n0]
    rb = recovered_bound(prob, rec)
    H = restrict(prob, paired_box(prob, n0, rec.radius), rec.k_point)
    piv = [H.sites.index((0, 0)), H.sites.index(n0)]
    rest = [i for i in range(len(H.sites)) if i not in piv]
    H_rest = H.entries[np.ix_(rest, rest)]
    h0 = H.entries[rest, piv[0]]
    want = max(np.linalg.norm(np.linalg.solve(E * np.eye(len(rest)) - H_rest, h0)) ** 2
               for E in (rec.E_minus, 0.5 * (rec.E_minus + rec.E_plus), rec.E_plus))
    assert want > 1e-3
    assert rb.prefactor_desk - 1.0 == pytest.approx(want, rel=1e-12, abs=0)
    assert rb.quadratic_term > 0
    assert rb.bound_desk == rb.prefactor_desk * rb.gap_width + rb.quadratic_term
    assert rb.bound_coarse == rb.prefactor_coarse * rb.gap_width + rb.quadratic_term


def _solvers_read(monkeypatch):
    """Refuse any new ReducedSolver; return the list of solvers that solve."""
    used = []
    solve = ReducedSolver.solve

    def refuse(*args, **kwargs):
        raise AssertionError("recovered_bound must not build a solver")

    def recording(self, E, rhs):
        used.append(self)
        return solve(self, E, rhs)

    monkeypatch.setattr(ReducedSolver, "__init__", refuse)
    monkeypatch.setattr(ReducedSolver, "solve", recording)
    return used


def test_recovered_bound_reuses_the_gap_record(golden_freq, monkeypatch):
    prob = chain_problem(golden_freq)
    rec = gap_table(prob, [(0, 2)], 6)[0][(0, 2)]

    def refuse(*args, **kwargs):
        raise AssertionError("recovered_bound must not solve the gap again")

    used = _solvers_read(monkeypatch)
    monkeypatch.setattr(inverse, "sized_gap", refuse)
    monkeypatch.setattr(spectral, "dense_spectrum", refuse)
    rb = recovered_bound(prob, rec)
    assert used and all(solver is rec.roots[0].solver for solver in used)
    assert rb.gap_width == rec.width and rb.holds


def test_recovered_bound_builds_on_the_records_box(generic_problem, monkeypatch):
    # label (1, 1) is accepted at radius 3, below the cap
    rec = gap_table(generic_problem, [(1, 1)], 8)[0][(1, 1)]
    assert rec.radius == 3
    used = _solvers_read(monkeypatch)
    recovered_bound(generic_problem, rec)
    assert used and all(solver is rec.roots[0].solver for solver in used)
    assert rec.roots[0].solver.full.sites == paired_box(generic_problem, (1, 1), 3)


def test_gap_record_keeps_the_accepted_boxs_roots(generic_problem):
    # (1, 1) is accepted at radius 3 of cap 8; its roots are that box's
    # (minus, plus) records on one solver with pivots (0, n0) at k_{n0}
    rec = gap_table(generic_problem, [(1, 1)], 8)[0][(1, 1)]
    minus, plus = rec.roots
    assert minus.solver is plus.solver
    assert minus.sites == plus.sites == paired_box(generic_problem, (1, 1), rec.radius)
    assert (minus.E, plus.E) == (rec.E_minus, rec.E_plus)
    assert minus.solver.pivots == [(0, 0), (1, 1)] and minus.solver.k == rec.k_point


def test_recovered_bound_on_a_gap_at_record(generic_problem):
    # gap_at's record names its box, so recovered_bound takes it as it takes
    # the record gap_table accepts on that box
    rec = gap_at(generic_problem, (1, 1), 3)
    sized = gap_table(generic_problem, [(1, 1)], 8)[0][(1, 1)]
    assert sized.radius == rec.radius == 3
    assert recovered_bound(generic_problem, rec) == recovered_bound(generic_problem, sized)


def test_verify_inverse_one_gap_solve_per_label(compliant_problem, monkeypatch):
    gaps, oracles = [], []
    real_sized_gap, real_dense = inverse.sized_gap, spectral.dense_spectrum

    def counting_sized_gap(problem, n0, *args, **kwargs):
        gaps.append(tuple(n0))
        return real_sized_gap(problem, n0, *args, **kwargs)

    def counting_dense(*args, **kwargs):
        oracles.append(1)
        return real_dense(*args, **kwargs)

    monkeypatch.setattr(inverse, "sized_gap", counting_sized_gap)
    monkeypatch.setattr(spectral, "dense_spectrum", counting_dense)
    report = verify_inverse(compliant_problem, 6, window_norm=4)
    labels = [r.n0 for r in report.pointwise]
    # the 8 labels are 4 +- pairs: each pair's larger label is solved, and
    # meets the oracle, once
    assert len(labels) == 8
    assert sorted(gaps) == sorted(m for m in labels if m > tuple(-x for x in m))
    assert len(gaps) == len(oracles) == 4


def test_gap_table_propagates_unexpected_errors(harmonic_problem, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(inverse, "sized_gap", broken)
    with pytest.raises(TypeError):
        gap_table(harmonic_problem, [(0, 1)], 4)


# ---------------------------------------------------------------------------
# A label and its mirror are one gap
# ---------------------------------------------------------------------------


def _mirror(m):
    return tuple(-x for x in m)


MIRROR_CASES = [(2, seed, eps) for seed in (0, 1, 2) for eps in (1e-4, 1e-3)] + \
               [(3, seed, eps) for seed in (0, 1) for eps in (1e-4, 1e-3)]


@pytest.mark.default_blas("a label's mirror, which gap tables copy, must solve to its edges")
@pytest.mark.parametrize("nu, seed, eps", MIRROR_CASES,
                         ids=[f"nu{nu}-seed{seed}-eps{eps:g}" for nu, seed, eps in MIRROR_CASES])
def test_a_label_and_its_mirror_solve_bit_identically(nu, seed, eps):
    # H_{-k} on -S is conj H_k on S, so solving -m directly gives m's edges,
    # width, radius and cap flag bit for bit; gap_table's mirror rests on it.
    # The residuals and the oracle deviation may differ in their last bits.
    omega = (1.0, GOLDEN, math.sqrt(2.0) - 1.0)[:nu]
    prob = Problem(Frequency(omega, 0.1, nu + 1.0),
                   random_potential(np.random.default_rng(seed), eps, nu=nu))
    radius, cap = (3, 6) if nu == 2 else (2, 3)
    pairs = [m for m in ball(radius, nu) if m > _mirror(m)]
    assert len(pairs) == 12
    for m in pairs:
        a, b = sized_gap(prob, m, cap), sized_gap(prob, _mirror(m), cap)
        assert (a.E_minus, a.E_plus, a.width, a.radius, a.capped) == \
               (b.E_minus, b.E_plus, b.width, b.radius, b.capped), m


def test_gap_table_solves_each_pair_once(generic_problem, monkeypatch):
    solved = []
    real_sized_gap = inverse.sized_gap

    def counting_sized_gap(problem, n0, *args, **kwargs):
        solved.append(tuple(n0))
        return real_sized_gap(problem, n0, *args, **kwargs)

    monkeypatch.setattr(inverse, "sized_gap", counting_sized_gap)
    # a mirror listed before its label, a label whose mirror is not asked for
    ms = [(-1, -1), (0, 1), (1, 1), (0, -1), (1, 0)]
    records, failures = gap_table(generic_problem, ms, 8)
    assert not failures and list(records) == ms
    assert solved == [(1, 1), (0, 1), (1, 0)]
    freq = generic_problem.frequency
    for m in ((-1, -1), (0, -1)):
        rec, direct = records[m], records[_mirror(m)]
        assert rec.n0 == m and rec.k_point == k_point(freq, m) == -direct.k_point
        assert rec.roots is direct.roots
        assert replace(rec, n0=direct.n0, k_point=direct.k_point) == direct


def test_a_mirrored_failure_names_its_label(harmonic_problem, monkeypatch):
    def stalled(problem, n0, *args, **kwargs):
        raise ConvergenceError(f"fixed point at {tuple(n0)} stalled")

    monkeypatch.setattr(inverse, "sized_gap", stalled)
    records, failures = gap_table(harmonic_problem, [(0, -1), (0, 1)], 4)
    assert not records
    assert failures == {(0, -1): "solved as its mirror (0, 1): fixed point at (0, 1) stalled",
                        (0, 1): "fixed point at (0, 1) stalled"}


def test_recovered_bound_of_a_mirror_is_its_direct_solves(generic_problem):
    # the mirror's columns are its solver's pivot's, so no KeyError, and its
    # bound is the direct solve's up to the last bits of the quadratic term
    records, _ = gap_table(generic_problem, [(1, 1), (-1, -1)], 8)
    mirrored = recovered_bound(generic_problem, records[(-1, -1)])
    direct = recovered_bound(generic_problem, sized_gap(generic_problem, (-1, -1), 8))
    assert mirrored.n0 == direct.n0 == (-1, -1)
    assert mirrored.actual == direct.actual == abs(generic_problem.potential.c((-1, -1)))
    assert mirrored.gap_width == direct.gap_width
    for name in ("prefactor_desk", "quadratic_term", "bound_desk", "bound_coarse"):
        assert getattr(mirrored, name) == pytest.approx(getattr(direct, name), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 3])
def test_quadratic_term_matches_the_dense_inverse(golden_freq, seed):
    # the quadratic term reads K(E+) on the columns n' with h(n', n0) != 0
    # only: it is |h_0|^T |(E+ - H_rest)^-1| |h_n0| to rounding, with the
    # whole inverse taken densely
    prob, n0 = Problem(golden_freq, random_potential(np.random.default_rng(seed))), (0, 1)
    rec = sized_gap(prob, n0, 6)
    solver = rec.roots[0].solver
    H = solver.full.entries[np.ix_(solver.rest, solver.rest)]
    K = np.linalg.inv(rec.E_plus * np.eye(len(H)) - H)
    h0, hn0 = solver.coupling_column((0, 0)), solver.coupling_column(n0)
    assert 0 < np.count_nonzero(hn0) < len(H)
    want = float(np.abs(h0) @ np.abs(K) @ np.abs(hn0))
    got = recovered_bound(prob, rec).quadratic_term
    assert abs(got - want) <= len(H) * UNIT_ROUNDOFF * want


def test_quadratic_term_with_no_column_to_read(golden_freq, monkeypatch):
    # on the radius-1 box of n0 = (1, 0) no reduced site couples to n0 (the
    # one harmonic, (0, 2), leads out of the box): the term's solve has a
    # right-hand side with no column, returns no column, and the sum is 0
    prob, n0 = chain_problem(golden_freq), (1, 0)
    rec = gap_at(prob, n0, 1)
    solver = rec.roots[0].solver
    assert len(solver.rest) and not np.any(solver.coupling_column(n0))
    shapes, solve = [], ReducedSolver.solve

    def recording(self, E, rhs):
        X = solve(self, E, rhs)
        shapes.append((rhs.shape, X.shape))
        return X

    monkeypatch.setattr(ReducedSolver, "solve", recording)
    assert recovered_bound(prob, rec).quadratic_term == 0.0
    n = len(solver.rest)
    assert shapes[-1] == ((n, 0), (n, 0))


def test_quadratic_term_slope(golden_freq):
    vals = []
    eps_list = (1e-3, 1e-4, 1e-5)
    for eps in eps_list:
        rb = bound_at(chain_problem(golden_freq, eps), (0, 4), 6)
        vals.append(rb.quadratic_term)
    slope = np.polyfit(np.log(eps_list), np.log(vals), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def test_improve_zero_potential(golden_freq):
    pot = Potential({}, 1e-4, 0.3)
    step = improve_decay(DecayBound(1e-4, 0.3), pot)
    assert step.verified
    assert step.after.eps_hat == 5e-5
    assert step.after.kappa_hat == pytest.approx(0.35)


def test_improve_requires_valid_start(golden_freq):
    pot = Potential.from_harmonics({(0, 1): 0.6}, 1e-2, 0.5)
    with pytest.raises(RegimeError):
        improve_decay(DecayBound(1e-9, 5.0), pot)


def test_improvement_chain_five_rounds(compliant_problem):
    pot = compliant_problem.potential
    bound = DecayBound(pot.epsilon, pot.kappa0)
    for _ in range(5):
        step = improve_decay(bound, pot)
        assert step.verified
        assert step.after.kappa_hat > bound.kappa_hat
        bound = step.after
    assert bound.kappa_hat == pytest.approx((7.0 / 6.0) ** 5 * 0.1)


def test_verify_inverse_zero_potential(zero_problem):
    report = verify_inverse(zero_problem, 4, window_norm=2)
    assert report.hypothesis_ok
    assert report.final_ok
    assert "desk" in report.note


def test_verify_inverse_compliant(compliant_problem):
    report = verify_inverse(compliant_problem, 6, window_norm=4)
    assert report.hypothesis_ok
    assert all(r.holds for r in report.pointwise)
    assert all(s.verified for s in report.improvement)
    assert report.final_ok


def test_verify_inverse_hypothesis_failure(golden_freq):
    # gaps ~ 2 eps |c0(m)| cannot sit under sqrt(eps) e^{-2|m|}: at eps = 4e-2
    # and |m| = 1, 0.048 > 0.027; at eps = 1e-2 and |m| = 2, 0.0072 > 0.0018
    for n0, c0, eps, norm in (((0, 1), 0.6, 4e-2, 1), ((0, 2), 0.36, 1e-2, 2)):
        prob = Problem(golden_freq, Potential.from_harmonics({n0: c0}, eps, 0.5))
        assert not prob.validate()
        records, failures = gap_table(prob, [n0], 4)
        assert not failures
        assert records[n0].width > math.sqrt(eps) * math.exp(-2.0 * norm)
        report = verify_inverse(prob, 4, window_norm=norm)
        assert not report.hypothesis_ok
        assert report.pointwise == ()
