from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qpspec import checks, dual_operator, spectral
from qpspec.cli import build_problem, load_config
from qpspec.dual_operator import DualMatrix, reflection_conjugation_check
from qpspec.errors import ConvergenceError, ReconciliationError
from qpspec.lattice import ball
from qpspec.model import Frequency, Potential, Problem
from qpspec.resonance import k_point

from conftest import GOLDEN, random_potential

GOLDEN_CONFIG = Path(__file__).resolve().parents[1] / "examples_config" / "golden_mean.json"


def _nu_problem(nu: int, seed: int) -> Problem:
    omega = (1.0, GOLDEN, np.sqrt(2.0) - 1.0)[:nu]
    pot = random_potential(np.random.default_rng(seed), 1e-3, nu=nu)
    return Problem(Frequency(omega, 0.1, nu + 1.0), pot)


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_reflection_conjugation_is_exact(nu):
    # gap tables mirror one label of each +- pair, so the identity must hold
    # bit for bit: on balls and paired boxes, at k's of either sign
    for seed in range(2):
        problem = _nu_problem(nu, seed)
        n0 = (1,) + (0,) * (nu - 1)
        for S in (ball(2, nu), ball(3, nu), spectral.paired_box(problem, n0, 2),
                  spectral.paired_box(problem, (-1,) * nu, 3)):
            for k in (0.17, -0.31, k_point(problem.frequency, n0), 0.0):
                assert reflection_conjugation_check(problem, S, k) == 0.0
        result = checks._reflection(problem, 0)
        assert result.passed and result.detail == "max dev 0"


def test_reflection_check_fails_on_one_ulp(generic_problem, monkeypatch):
    # one coupling of the reflected block moved by one ulp: a deviation
    # inside any 1e-12 tolerance, which the exact check refuses
    real_restrict = dual_operator.restrict

    def nudged(problem, S, k):
        M = real_restrict(problem, S, k)
        if k > 0:
            return M
        entries = M.entries.copy()
        off = np.abs(entries - np.diag(entries.diagonal()))
        i, j = np.unravel_index(np.argmax(off), off.shape)
        entries[i, j] = complex(np.nextafter(entries[i, j].real, np.inf), entries[i, j].imag)
        return DualMatrix(M.sites, M.k, entries)

    monkeypatch.setattr(dual_operator, "restrict", nudged)
    dev = reflection_conjugation_check(generic_problem, ball(2, 2), 0.17)
    assert 0.0 < dev <= 1e-12
    result = checks._reflection(generic_problem, 0)
    assert not result.passed and result.detail == f"max dev {dev:.3g}"


def test_crashing_check_named_after_its_function(generic_problem, monkeypatch):
    # a package error is a FAIL line under the check's function name
    def boom(s):
        raise ReconciliationError("boom")

    monkeypatch.setattr(checks, "max_correct_length", boom)
    results = checks.run_selftest(generic_problem)
    crashed = [r for r in results if not r.passed]
    assert [r.name for r in crashed] == ["_words"]
    assert "ReconciliationError('boom')" in crashed[0].detail


def test_a_check_with_a_defect_propagates(generic_problem, monkeypatch):
    # any other error is a defect of the check, not a FAIL line
    def broken(s):
        raise TypeError("not a package error")

    monkeypatch.setattr(checks, "max_correct_length", broken)
    with pytest.raises(TypeError, match="not a package error"):
        checks.run_selftest(generic_problem)


def test_band_symmetry_check_is_band_on_the_golden_config():
    # the six points are one-pivot band points, each eigen_simple's root
    problem = build_problem(load_config(GOLDEN_CONFIG))
    host = ball(4, 2)
    for k, S in ((0.11, host), (0.23, host), (0.37, host), (-0.11, host.reflect()),
                 (-0.23, host.reflect()), (-0.37, host.reflect())):
        (p,) = spectral.band(problem, [k], lambda k: S)
        assert p.regime == "nonresonant"
        assert p.E == spectral.eigen_simple(problem, (0, 0), S, k).E
    result = checks._symmetry(problem, 0)
    assert result.passed and result.detail == "max |E(k)-E(-k)| 0"


def test_band_symmetry_check_fails_on_an_error_row(generic_problem, monkeypatch):
    # a point band cannot solve fails the check with the row's message
    def stalled(step, E0, scale):
        raise ConvergenceError("fixed point stalled")

    monkeypatch.setattr(spectral, "_fixed_point", stalled)
    result = checks._symmetry(generic_problem, 0)
    assert not result.passed and result.detail == "k=0.11: fixed point stalled"


ZETA_PAIR_BLAS = pytest.mark.default_blas(
    "the zeta-pair check, which compares heevr's eigenvalues at 1e-12 relative, "
    "must keep its margin at both thread counts")


@pytest.fixture(params=["golden_config", "generic", "harmonic", "eps_1e-2"])
def pair_problem(request, golden_freq, generic_problem, harmonic_problem):
    if request.param == "golden_config":
        return build_problem(load_config(GOLDEN_CONFIG))
    if request.param == "generic":
        return generic_problem
    if request.param == "harmonic":
        return harmonic_problem
    return Problem(golden_freq, Potential.from_harmonics(
        {(0, 1): 0.55, (1, 0): 0.3 + 0.2j, (1, 1): 0.2 - 0.1j}, 1e-2, 0.5))


@ZETA_PAIR_BLAS
def test_zeta_pair_matches_eigen_pair(pair_problem):
    result = checks._zeta_pair(pair_problem, 0)
    assert result.passed, result.detail


@ZETA_PAIR_BLAS
def test_zeta_pair_zero_potential_skipped(zero_problem):
    assert checks._zeta_pair(zero_problem, 0).passed


@ZETA_PAIR_BLAS
def test_zeta_pair_catches_a_shifted_root(generic_problem, monkeypatch):
    eigen_pair = checks.eigen_pair

    def shifted(*args, **kwargs):
        plus, minus = eigen_pair(*args, **kwargs)
        return replace(plus, E=plus.E + 1e-9 * max(1.0, abs(plus.E))), minus

    monkeypatch.setattr(checks, "eigen_pair", shifted)
    result = checks._zeta_pair(generic_problem, 0)
    assert not result.passed
    assert "eigen_pair" in result.detail


@ZETA_PAIR_BLAS
def test_zeta_pair_fails_on_a_third_eigenvalue_in_its_window(generic_problem, monkeypatch):
    # Gershgorin leaves H exactly two eigenvalues in the window; an oracle
    # with a third one at the window's midpoint fails the check by its count
    n0 = checks._lowest_harmonic(generic_problem)
    zero = (0, 0)
    solver = checks.ReducedSolver(generic_problem, spectral.paired_box(generic_problem, n0, 5),
                                  k_point(generic_problem.frequency, n0) + 1e-5, [zero, n0])
    mid = 0.5 * (solver.v[0] + solver.v[1])
    dense_spectrum = checks.dense_spectrum

    def one_more(M, ranks=None):
        evals, evecs = dense_spectrum(M, ranks)
        return np.sort(np.append(evals, mid)), evecs

    monkeypatch.setattr(checks, "dense_spectrum", one_more)
    result = checks._zeta_pair(generic_problem, 0)
    assert not result.passed
    assert result.detail == "3 oracle eigenvalues in the pair window"


@ZETA_PAIR_BLAS
def test_zeta_pair_fails_with_a_reduced_diagonal_in_its_window(golden_freq):
    # at eps 1 the window, the pivot diagonals' span widened by 2r, comes
    # within r of a reduced diagonal, where Q and G may have a pole
    prob = Problem(golden_freq, Potential.from_harmonics(
        {(0, 1): 0.55, (1, 0): 0.3 + 0.2j, (1, 1): 0.2 - 0.1j}, 1.0, 0.5))
    result = checks._zeta_pair(prob, 0)
    assert not result.passed
    assert result.detail == "a reduced diagonal lies within r of the window"


def test_trajectory_check_reads_the_config_kappa0(golden_freq, monkeypatch):
    # the selftest's trajectory-bounds check must bound the sums at the
    # problem's own decay rate, as traj-bound does
    prob = Problem(golden_freq, Potential.from_harmonics({(0, 1): 0.55}, 1e-4, 0.05))
    closed_bound = checks.closed_bound
    seen = []

    def spy(m, n, prof, eps0):
        seen.append(prof.kappa0)
        return closed_bound(m, n, prof, eps0)

    monkeypatch.setattr(checks, "closed_bound", spy)
    assert checks._trajectory(prob, 0).passed
    assert seen == [0.05, 0.05]


def test_reduced_oracle_matches_dense_inverse(pair_problem):
    result = checks._reduced_oracle(pair_problem, 0)
    assert result.name == "reduced-vs-dense"
    assert result.passed, result.detail


def test_reduced_oracle_zero_potential_skipped(zero_problem):
    assert checks._reduced_oracle(zero_problem, 0).passed


def test_reduced_oracle_catches_a_shifted_coupling(pair_problem, monkeypatch):
    g = checks.ReducedSolver.g

    def shifted(self, mp, mm, E):
        return g(self, mp, mm, E) * (1.0 + 1e-9)

    monkeypatch.setattr(checks.ReducedSolver, "g", shifted)
    result = checks._reduced_oracle(pair_problem, 0)
    assert not result.passed
    assert "rel dev" in result.detail


def test_gap_box_matches_the_cap(pair_problem):
    result = checks._gap_box(pair_problem, 0)
    assert result.name == "gap-box"
    assert result.passed, result.detail


def test_gap_box_zero_potential_skipped(zero_problem):
    assert checks._gap_box(zero_problem, 0).passed


def test_gap_box_catches_a_residual_that_accepts_too_soon(golden_freq, monkeypatch):
    # at eps = 3e-2 the first box tried moves the edges of the lowest
    # harmonic by about 5e-12, over the fixed point's tolerance
    prob = Problem(golden_freq, random_potential(np.random.default_rng(1), epsilon=3e-2))
    assert checks._gap_box(prob, 0).passed
    monkeypatch.setattr(spectral, "_truncation_residual", lambda *args: 0.0)
    result = checks._gap_box(prob, 0)
    assert not result.passed
    assert "edge dev" in result.detail
