import math

import numpy as np
import pytest

from qpspec.dual_operator import (NORMALIZED, RAW, DualMatrix, cocycle_check,
                                  dense_spectrum, reflection_conjugation_check,
                                  restrict)
from qpspec.errors import ConvergenceError, QPSpecError, ReconciliationError
from qpspec.lattice import SiteSet, ball
from qpspec.model import Potential, Problem

TWO_PI_SQ = (2 * math.pi) ** 2


def test_entry_zero_potential_offdiag(zero_problem):
    H = restrict(zero_problem, SiteSet.from_iterable([(0, 0), (1, 0)]), 0.3)
    assert H.entries[H.sites.index((0, 0)), H.sites.index((1, 0))] == 0


def test_entry_diagonal_raw(zero_problem):
    val = restrict(zero_problem, SiteSet.from_iterable([(0, 0)]), 0.3).entries[0, 0]
    assert val == pytest.approx(TWO_PI_SQ * 0.09)


def test_entry_hermitian_pairs(generic_problem):
    rng = np.random.default_rng(3)
    H = restrict(generic_problem, ball(3, 2), 0.2)
    n = len(H.sites)
    for _ in range(20):
        i = rng.integers(n)
        j = rng.integers(n)
        assert H.entries[i, j] == np.conj(H.entries[j, i])


def test_restrict_single_site(zero_problem):
    M = restrict(zero_problem, SiteSet.from_iterable([(0, 0)]), 0.4)
    assert M.entries.shape == (1, 1)
    assert M.entries[0, 0] == pytest.approx(TWO_PI_SQ * 0.16)


def test_restrict_zero_potential_diagonal(zero_problem):
    M = restrict(zero_problem, ball(1, 2), 0.2)
    off = M.entries - np.diag(np.diag(M.entries))
    assert np.all(off == 0)
    assert len(M.sites) == 5


def test_restrict_deterministic(generic_problem):
    S1 = SiteSet.from_iterable([(0, 0), (1, 0), (0, 1), (-1, 0)])
    S2 = SiteSet.from_iterable([(-1, 0), (0, 1), (1, 0), (0, 0)])
    A = restrict(generic_problem, S1, 0.3).entries
    B = restrict(generic_problem, S2, 0.3).entries
    assert np.array_equal(A, B)


def test_restrict_hermitian_exact(generic_problem):
    H = restrict(generic_problem, ball(2, 2), 0.27).entries
    assert np.max(np.abs(H - H.conj().T)) == 0.0


def test_cocycle_zero_potential_exact(zero_problem):
    assert cocycle_check(zero_problem, (2, -1), ball(2, 2), 0.3) <= 1e-13


def test_cocycle_random_potential(generic_problem):
    dev = cocycle_check(generic_problem, (1, 0), ball(2, 2), 0.31)
    assert dev <= 1e-12


def test_cocycle_zero_shift(generic_problem):
    assert cocycle_check(generic_problem, (0, 0), ball(2, 2), 0.3) == 0.0


def test_reflection_zero_potential(zero_problem):
    assert reflection_conjugation_check(zero_problem, ball(2, 2), 0.3) == 0.0


def test_reflection_real_even_coefficients(golden_freq):
    pot = Potential.from_harmonics({(0, 1): 0.4, (1, 0): 0.25}, 1e-4, 0.5)
    prob = Problem(golden_freq, pot)
    assert reflection_conjugation_check(prob, ball(2, 2), 0.23) == 0.0


def test_reflection_generic(generic_problem):
    assert reflection_conjugation_check(generic_problem, ball(2, 2), 0.19) <= 1e-12


def test_dense_spectrum_analytic_2x2():
    evals = np.linalg.eigvalsh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert evals == pytest.approx([1.0, 3.0])


def test_dense_spectrum_zero_potential(zero_problem):
    M = restrict(zero_problem, ball(1, 2), 0.17)
    evals, evecs = dense_spectrum(M)
    assert np.allclose(np.sort(np.real(np.diag(M.entries))), evals)
    # residual budget
    resid = np.linalg.norm(M.entries @ evecs - evecs * evals[None, :], axis=0)
    assert np.all(resid <= 1e-10 * max(1.0, np.linalg.norm(M.entries, 2)))


def test_dense_spectrum_bad_residual_is_typed(generic_problem, monkeypatch):
    eigh = np.linalg.eigh

    def off_by_a_bit(H):
        evals, evecs = eigh(H)
        return evals + 1e-6, evecs

    monkeypatch.setattr(np.linalg, "eigh", off_by_a_bit)
    with pytest.raises(ReconciliationError):
        dense_spectrum(restrict(generic_problem, ball(2, 2), 0.29))


def test_dense_spectrum_eigensolver_failure_is_typed(generic_problem, monkeypatch):
    def fails(H):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    with pytest.raises(ConvergenceError):
        dense_spectrum(restrict(generic_problem, ball(2, 2), 0.29))


def test_dense_spectrum_non_hermitian_is_typed():
    M = DualMatrix(ball(1, 2), 0.1, np.triu(np.ones((5, 5))), RAW)
    with pytest.raises(QPSpecError):
        dense_spectrum(M)


def test_dense_spectrum_order_invariant(generic_problem):
    S = ball(2, 2)
    M1 = restrict(generic_problem, S, 0.29)
    order = list(S)[::-1]
    M2 = restrict(generic_problem, S, 0.29, order=order)
    e1, _ = dense_spectrum(M1)
    e2, _ = dense_spectrum(M2)
    scale = max(1.0, float(np.max(np.abs(e1))))
    assert np.max(np.abs(e1 - e2)) <= 1e-9 * scale


def test_normalization_consistency(generic_problem):
    S = ball(2, 2)
    raw = restrict(generic_problem, S, 0.3, RAW)
    norm = restrict(generic_problem, S, 0.3, NORMALIZED)
    assert np.allclose(raw.entries, norm.scale() * norm.entries, rtol=1e-14)
