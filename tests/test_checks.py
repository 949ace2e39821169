from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qpspec import checks, spectral
from qpspec.cli import build_problem, load_config
from qpspec.errors import ReconciliationError
from qpspec.model import Potential, Problem

from conftest import random_potential

GOLDEN_CONFIG = Path(__file__).resolve().parents[1] / "examples_config" / "golden_mean.json"


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


def test_zeta_pair_matches_eigen_pair(pair_problem):
    result = checks._zeta_pair(pair_problem, 0)
    assert result.passed, result.detail


def test_zeta_pair_zero_potential_skipped(zero_problem):
    assert checks._zeta_pair(zero_problem, 0).passed


def test_zeta_pair_catches_a_shifted_root(generic_problem, monkeypatch):
    eigen_pair = checks.eigen_pair

    def shifted(*args, **kwargs):
        plus, minus = eigen_pair(*args, **kwargs)
        return replace(plus, E=plus.E + 1e-9 * max(1.0, abs(plus.E))), minus

    monkeypatch.setattr(checks, "eigen_pair", shifted)
    result = checks._zeta_pair(generic_problem, 0)
    assert not result.passed
    assert "eigen_pair" in result.detail


def test_zeta_pair_fails_with_a_reduced_diagonal_in_its_window(golden_freq):
    # at eps 1 the window, the pivot diagonals' span widened by 2r, comes
    # within r of a reduced diagonal, where Q and G may have a pole
    prob = Problem(golden_freq, Potential.from_harmonics(
        {(0, 1): 0.55, (1, 0): 0.3 + 0.2j, (1, 1): 0.2 - 0.1j}, 1.0, 0.5))
    result = checks._zeta_pair(prob, 0)
    assert not result.passed
    assert result.detail == "a reduced diagonal lies within r of the window"


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
