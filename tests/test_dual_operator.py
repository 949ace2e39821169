import gc
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import GOLDEN, random_potential, restrict_reference
from qpspec.cli import build_problem, load_config
from qpspec import dual_operator
from qpspec.dual_operator import (DualMatrix, _coupling_lookup, cocycle_check,
                                  dense_spectrum, diagonal_value, host_block,
                                  reflection_conjugation_check, restrict)
from qpspec.errors import ConvergenceError, QPSpecError, ReconciliationError, SiteBudgetError
from qpspec.lattice import SiteSet, ball
from qpspec.model import Frequency, Potential, Problem
from qpspec.resonance import k_point
from qpspec.spectral import paired_box

TWO_PI_SQ = (2 * math.pi) ** 2
GOLDEN_CONFIG = Path(__file__).resolve().parents[1] / "examples_config" / "golden_mean.json"


def _matrix(entries) -> DualMatrix:
    H = np.asarray(entries, dtype=complex)
    return DualMatrix(SiteSet(tuple((i,) for i in range(len(H)))), 0.0, H)


def _nearest_two(evals, center):
    return np.sort(evals[np.argsort(np.abs(evals - center))[:2]])


def test_entry_zero_potential_offdiag(zero_problem):
    H = restrict(zero_problem, SiteSet([(0, 0), (1, 0)]), 0.3)
    assert H.entries[H.sites.index((0, 0)), H.sites.index((1, 0))] == 0


def test_entry_diagonal_raw(zero_problem):
    val = restrict(zero_problem, SiteSet([(0, 0)]), 0.3).entries[0, 0]
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
    M = restrict(zero_problem, SiteSet([(0, 0)]), 0.4)
    assert M.entries.shape == (1, 1)
    assert M.entries[0, 0] == pytest.approx(TWO_PI_SQ * 0.16)


def test_restrict_zero_potential_diagonal(zero_problem):
    M = restrict(zero_problem, ball(1, 2), 0.2)
    off = M.entries - np.diag(np.diag(M.entries))
    assert np.all(off == 0)
    assert len(M.sites) == 5


def test_restrict_deterministic(generic_problem):
    S1 = SiteSet([(0, 0), (1, 0), (0, 1), (-1, 0)])
    S2 = SiteSet([(-1, 0), (0, 1), (1, 0), (0, 0)])
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
    M = _matrix([[2.0, 1.0], [1.0, 2.0]])
    for ranks, want in ((None, [1.0, 3.0]), (range(0, 2), [1.0, 3.0]),
                        (range(0, 1), [1.0]), (range(1, 2), [3.0])):
        evals, evecs = dense_spectrum(M, ranks)
        assert evals == pytest.approx(want) and evecs.shape == (2, len(want))
        assert np.allclose(M.entries @ evecs, evecs * evals)


def test_dense_spectrum_zero_potential(zero_problem):
    M = restrict(zero_problem, ball(1, 2), 0.17)
    evals, evecs = dense_spectrum(M)
    assert np.allclose(np.sort(np.real(np.diag(M.entries))), evals)
    # residual budget
    resid = np.linalg.norm(M.entries @ evecs - evecs * evals[None, :], axis=0)
    assert np.all(resid <= 1e-10 * max(1.0, np.linalg.norm(M.entries, 2)))


def test_dense_spectrum_bad_residual_is_typed(generic_problem, monkeypatch):
    # the full spectrum goes through the same heevr call and residual check
    heevr = dual_operator._heevr

    def off_by_a_bit(H, **kwargs):
        evals, *rest = heevr(H, **kwargs)
        return (evals + 1e-6, *rest)

    monkeypatch.setattr(dual_operator, "_heevr", off_by_a_bit)
    with pytest.raises(ReconciliationError, match="residual"):
        dense_spectrum(restrict(generic_problem, ball(2, 2), 0.29))


def test_dense_spectrum_non_hermitian_is_typed():
    M = DualMatrix(ball(1, 2), 0.1, np.triu(np.ones((5, 5))))
    with pytest.raises(QPSpecError):
        dense_spectrum(M)


def test_dense_spectrum_order_invariant(generic_problem):
    S = ball(2, 2)
    M1 = restrict(generic_problem, S, 0.29)
    perm = np.random.default_rng(3).permutation(len(S))
    M2 = DualMatrix(S, 0.29, M1.entries[np.ix_(perm, perm)])
    e1, _ = dense_spectrum(M1)
    e2, _ = dense_spectrum(M2)
    scale = max(1.0, float(np.max(np.abs(e1))))
    assert np.max(np.abs(e1 - e2)) <= 1e-9 * scale


def _labelled_ranks(M: DualMatrix, pivots) -> range:
    """The pair's ranks i, i + 1, i = #{n : v(n) < min_P v}, from M's diagonal."""
    diag = M.entries.diagonal().real
    i = int(np.count_nonzero(diag < min(diag[M.sites.index(p)] for p in pivots)))
    return range(i, i + 2)


@pytest.mark.parametrize("potential", ["golden", "random"])
def test_windowed_oracle_matches_full_nearest_two(potential):
    # the ranked pair is the full spectrum's pair at those ranks, and the
    # two eigenvalues nearest the pivots' mean diagonal
    golden = build_problem(load_config(GOLDEN_CONFIG))
    prob = golden if potential == "golden" else Problem(
        golden.frequency, random_potential(np.random.default_rng(7)))
    zero = (0, 0)
    for m in ball(4, 2):
        if not any(m):
            continue
        S = paired_box(prob, m, 5)
        # gap_at's k_m, and eigen_pair's just off it
        for k in (k_point(prob.frequency, m), k_point(prob.frequency, m) + 1e-5):
            M = restrict(prob, S, k)
            ranks = _labelled_ranks(M, (zero, m))
            evals, evecs = dense_spectrum(M, ranks)
            assert evecs.shape == (len(S), 2)
            full = np.linalg.eigvalsh(M.entries)
            center = 0.5 * (diagonal_value(prob, zero, k) + diagonal_value(prob, m, k))
            tol = len(S) * np.finfo(float).eps * max(1.0, float(np.max(np.abs(full))))
            assert np.max(np.abs(evals - full[ranks.start:ranks.stop])) <= tol, (m, k)
            assert np.max(np.abs(evals - _nearest_two(full, center))) <= tol, (m, k)


def test_windowed_oracle_1x1():
    evals, evecs = dense_spectrum(_matrix([[3.0]]), range(0, 1))
    assert np.array_equal(evals, [3.0]) and np.abs(evecs[0, 0]) == pytest.approx(1.0)


def test_windowed_oracle_bad_residual_is_typed(generic_problem, monkeypatch):
    heevr = dual_operator._heevr

    def off_by_a_bit(H, **kwargs):
        evals, *rest = heevr(H, **kwargs)
        return (evals + 1e-6, *rest)

    monkeypatch.setattr(dual_operator, "_heevr", off_by_a_bit)
    with pytest.raises(ReconciliationError, match="residual"):
        dense_spectrum(restrict(generic_problem, ball(2, 2), 0.29), range(3, 5))


def test_windowed_oracle_lapack_info_is_typed(generic_problem, monkeypatch):
    # heevr reports an internal failure through info, not by raising
    heevr = dual_operator._heevr

    def internal_error(H, **kwargs):
        *out, _ = heevr(H, **kwargs)
        return (*out, 1)

    monkeypatch.setattr(dual_operator, "_heevr", internal_error)
    for ranks in (range(0, 2), None):
        with pytest.raises(ConvergenceError, match="info 1"):
            dense_spectrum(restrict(generic_problem, ball(2, 2), 0.29), ranks)


@pytest.mark.parametrize("potential", ["golden", "random"])
def test_windowed_oracle_is_scipy_evr_bit_for_bit(potential):
    # the direct heevr call is the one scipy's eigh makes for a subset by
    # index: same driver, triangle and workspace, so the eigenpairs agree
    # exactly
    golden = build_problem(load_config(GOLDEN_CONFIG))
    prob = golden if potential == "golden" else Problem(
        golden.frequency, random_potential(np.random.default_rng(11)))
    for m in [(0, 1), (1, -1), (2, 1), (0, 3)]:
        M = restrict(prob, paired_box(prob, m, 4), k_point(prob.frequency, m))
        ranks = _labelled_ranks(M, ((0, 0), m))
        evals, evecs = dense_spectrum(M, ranks)
        want, want_vecs = sla.eigh(M.entries, subset_by_index=[ranks.start, ranks.stop - 1],
                                   driver="evr")
        assert np.array_equal(evals, want) and np.array_equal(evecs, want_vecs), m


def test_windowed_oracle_non_hermitian_is_typed():
    M = _matrix(np.triu(np.ones((5, 5))))
    with pytest.raises(ReconciliationError, match="not exactly Hermitian"):
        dense_spectrum(M, range(0, 2))


def _problem(nu: int, coefficients: dict) -> Problem:
    omega = (1.0, GOLDEN, math.sqrt(2.0) - 1.0)[:nu]
    freq = Frequency(omega, 0.1, nu + 1.0)
    return Problem(freq, Potential.from_harmonics(coefficients, 1e-4, 0.5))


def _random_coefficients(nu: int, seed: int) -> dict:
    """Harmonics on half of ball(3), plus one shift that leaves every host box."""
    rng = np.random.default_rng(seed)
    half = [n for n in ball(3, nu) if n > tuple(-c for c in n)]
    chosen = rng.choice(len(half), size=min(6, len(half)), replace=False)
    coefficients = {half[i]: complex(rng.normal(), rng.normal()) for i in chosen}
    coefficients[(9,) + (0,) * (nu - 1)] = 0.5j
    return coefficients


@pytest.mark.parametrize("nu", [1, 2, 3], ids=lambda nu: f"raw-{nu}")
def test_restrict_matches_reference(nu):
    # two balls apart: the sites' bounding box has holes, and most shifts
    # of the outer shells leave the set
    far = (5,) + (0,) * (nu - 1)
    S = ball(2, nu).union(ball(2, nu).translate(far))
    for prob in (_problem(nu, _random_coefficients(nu, nu)), _problem(nu, {})):
        for k in (0.13, -0.41):
            got = restrict(prob, S, k)
            assert np.array_equal(got.entries, restrict_reference(prob, S, k))
            assert got.sites == S


def test_restrict_refuses_a_box_too_large_for_int64_codes(generic_problem):
    with pytest.raises(ValueError):
        S = SiteSet([(0, 0), (2 ** 40, 2 ** 40)])
        restrict(generic_problem, S, 0.3)


def test_restrict_on_a_memo_hit_is_couplings_plus_diagonal(generic_problem):
    # later restrictions of one host copy its memoized block; each equals a
    # fresh build bit for bit
    S = ball(4, 2)
    for k in (0.21, -0.37, 0.21):
        got = restrict(generic_problem, S, k)
        assert np.array_equal(got.entries, restrict_reference(generic_problem, S, k))
        off = got.entries.copy()
        np.fill_diagonal(off, 0)
        assert np.array_equal(off, _coupling_lookup(generic_problem, S)[0])
    block, phases, _ = host_block(generic_problem, S)
    assert not block.flags.writeable and not phases.flags.writeable


def _one_harmonic(freq, c):
    return Problem(freq, Potential.from_harmonics({(0, 1): c, (1, 1): 0.5 * c}, 1e-3, 0.5))


def test_host_memo_keeps_problems_apart(golden_freq):
    # problems on one host with different potentials never share a block,
    # also when each is built after the last is freed (CPython tends to give
    # it the freed object's id)
    S = ball(3, 2)
    for i in range(1, 8):
        prob = _one_harmonic(golden_freq, 0.5 ** i)
        block, _, _ = host_block(prob, S)
        assert np.array_equal(block, _coupling_lookup(prob, S)[0])
        assert block[S.index((0, 0)), S.index((0, 1))] == 1e-3 * 0.5 ** i
        del prob, block
        gc.collect()


def test_host_memo_holds_one_host(generic_problem):
    # a hit returns the held arrays; another host replaces them
    S, T = ball(2, 2), ball(3, 2)
    first = host_block(generic_problem, S)
    assert all(a is b for a, b in zip(host_block(generic_problem, S), first))
    host_block(generic_problem, T)
    assert dual_operator._host[1] == T
    again = host_block(generic_problem, S)
    assert again[0] is not first[0] and np.array_equal(again[0], first[0])


def test_dual_matrix_refuses_non_finite_entries():
    # restrict skips the scan on checked parts; a matrix built directly does not
    H = np.eye(3, dtype=complex)
    H[0, 1] = H[1, 0] = math.nan
    with pytest.raises(ValueError):
        DualMatrix(ball(1, 1), 0.0, H)


def test_site_budget_fires_on_a_memo_hit(generic_problem):
    # the budget is checked on every call, before the memo is read
    prob = replace(generic_problem)
    S = ball(2, 2)
    restrict(prob, S, 0.3)
    assert dual_operator._host[0] is prob and dual_operator._host[1] == S
    object.__setattr__(prob, "site_budget", len(S) - 1)
    with pytest.raises(SiteBudgetError):
        restrict(prob, S, 0.3)
    with pytest.raises(SiteBudgetError):
        host_block(prob, S)
