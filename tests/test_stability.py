"""Multiscale stability laws at desk scale.

The whole inductive scheme rests on a few quantitative facts: the
self-energy and the eigenvalue stabilize exponentially as the host set
grows, the eigenvector concentrates on its principal site, a computed gap
is a spectral gap for every quasi-momentum, and the gap edges are the
one-sided limits of the band function.  Each is checked here against
explicit finite computations.
"""

import math

import numpy as np
import pytest

from qpspec.dual_operator import TWO_PI_SQ, dense_spectrum, restrict
from qpspec.lattice import ball
from qpspec.model import Potential, Problem
from qpspec.resonance import k_point
from qpspec.schur import ReducedSolver
from qpspec.spectral import eigen_simple, gap_at, paired_box

from conftest import pair_roots


def test_q_stabilizes_exponentially_in_radius(generic_problem):
    k, E = 0.22, -4.0
    zero = (0, 0)
    values = [ReducedSolver(generic_problem, ball(R, 2), k, [zero]).q(zero, E).real
              for R in (2, 3, 4, 5, 6)]
    devs = [abs(v - values[-1]) for v in values[:-1]]
    # each extra shell of radius cuts the deviation by at least e^{-kappa0}
    assert devs[0] > 0
    for a, b in zip(devs, devs[1:]):
        if b == 0:
            break
        assert b < a * math.exp(-0.5 * generic_problem.potential.kappa0)


def test_eigenvalue_stabilizes_in_radius(generic_problem):
    k = 0.2088
    energies = [eigen_simple(generic_problem, (0, 0), ball(R, 2), k).E for R in (3, 4, 5, 6)]
    devs = [abs(e - energies[-1]) for e in energies[:-1]]
    assert all(b <= a for a, b in zip(devs, devs[1:]))
    assert devs[0] <= generic_problem.potential.epsilon ** 2


def test_eigenvector_stabilizes_in_radius(generic_problem):
    k = 0.2088
    small = eigen_simple(generic_problem, (0, 0), ball(4, 2), k)
    large = eigen_simple(generic_problem, (0, 0), ball(6, 2), k)
    same = [large.sites.index(n) for n in small.sites]
    worst = np.max(np.abs(large.phi[same] - small.phi))
    assert worst <= generic_problem.potential.epsilon ** 2


def test_eigenvector_concentrates_on_principal_site(generic_problem):
    # overlap of the normalized dense eigenvector with the principal site
    # stays above 2/3 in the non-resonant regime
    for k in (0.11, 0.22, 0.41):
        H = restrict(generic_problem, ball(5, 2), k)
        evals, evecs = dense_spectrum(H)
        i0 = H.sites.index((0, 0))
        j = int(np.argmax(np.abs(evecs[i0, :])))
        assert abs(evecs[i0, j]) >= 2.0 / 3.0


def test_gap_is_spectral_gap_for_every_k(harmonic_problem):
    # no spectrum enters the computed gap along a shifted-k sample, the
    # finite-volume shadow of the inverted-resolvent statement
    n0 = (0, 1)
    rec = gap_at(harmonic_problem, n0, 6)
    E_mid = 0.5 * (rec.E_minus + rec.E_plus)
    host = ball(6, 2)
    rng = np.random.default_rng(7)
    for k in rec.k_point + rng.uniform(-0.5, 0.5, size=6):
        evals, _ = dense_spectrum(restrict(harmonic_problem, host, float(k)))
        assert np.min(np.abs(evals - E_mid)) >= 0.25 * rec.width


def test_gap_edges_are_band_limits(harmonic_problem):
    # E(k -> k_{n0} +- 0) converges to the directly-computed edges; the
    # deviation shrinks linearly with the offset (derivative bound ~ |2k| (2pi)^2)
    n0 = (0, 1)
    kn0 = k_point(harmonic_problem.frequency, n0)
    S = paired_box(harmonic_problem, n0, 6)
    rec = gap_at(harmonic_problem, n0, 6)
    slope_cap = 100.0
    prev = None
    for theta in (1e-4, 1e-5, 1e-6, 1e-7):
        Ep, Em = (r.E for r in pair_roots(harmonic_problem, S, kn0 + theta, (0, 0), n0))
        dev = max(abs(Ep - rec.E_plus), abs(Em - rec.E_minus))
        assert dev <= slope_cap * theta
        if prev is not None:
            assert dev <= prev + 1e-15
        prev = dev


# The bounds below are stated in the normalized units H / (lambda (2 pi)^2),
# lambda = 256 gamma, with gamma = 1 at every k they use.
NORMALIZED_SCALE = 256.0 * TWO_PI_SQ


def test_band_lipschitz_in_k(generic_problem):
    # |E(k1) - E(k)| < 3 |k - k1| in normalized units
    host = ball(5, 2)
    ks = np.linspace(0.1, 0.4, 13)
    energies = [eigen_simple(generic_problem, (0, 0), host, float(k)).E / NORMALIZED_SCALE
                for k in ks]
    for (k1, e1), (k2, e2) in zip(zip(ks, energies), zip(ks[1:], energies[1:])):
        assert abs(e2 - e1) < 3.0 * abs(k2 - k1)


def test_band_derivative_tracks_free_parabola(generic_problem):
    # d/dk E(0, .; k) stays within a small-coupling margin of d/dk v(0, k)
    host = ball(5, 2)
    h = 1e-6
    k = 0.27
    lam = 256.0
    eps = generic_problem.potential.epsilon
    up = eigen_simple(generic_problem, (0, 0), host, k + h).E / NORMALIZED_SCALE
    dn = eigen_simple(generic_problem, (0, 0), host, k - h).E / NORMALIZED_SCALE
    dE = (up - dn) / (2 * h)
    assert abs(dE - 2.0 * k / lam) <= math.sqrt(eps)


def test_band_increment_upper_bound(generic_problem):
    # E(k) - E(k1) < (2k/lambda)(k - k1) + slack on gap-free stretches
    host = ball(5, 2)
    lam = 256.0
    eps = generic_problem.potential.epsilon
    k1, k2 = 0.15, 0.30
    e1 = eigen_simple(generic_problem, (0, 0), host, k1).E / NORMALIZED_SCALE
    e2 = eigen_simple(generic_problem, (0, 0), host, k2).E / NORMALIZED_SCALE
    assert e2 - e1 < (2.0 * k2 / lam) * (k2 - k1) + eps
    assert e2 - e1 > 0


def test_eigenvalue_shift_conjugation(generic_problem):
    # E(m0 + l, S + l; k) = E(m0, S; k + l.omega): the lattice shift is a
    # unitary conjugation of the dual matrix
    host = ball(4, 2)
    k = 0.17
    for shift in ((1, 0), (0, 1), (1, -1)):
        k_shifted = k + generic_problem.frequency.dot(shift)
        base = eigen_simple(generic_problem, (0, 0), host, k_shifted)
        moved = eigen_simple(generic_problem, shift, host.translate(shift), k)
        assert abs(base.E - moved.E) <= 1e-9 * max(1.0, abs(base.E))
        # eigenvector transported by the shift
        shifted = [moved.sites.index(tuple(a + b for a, b in zip(n, shift)))
                   for n in base.sites]
        worst = np.max(np.abs(moved.phi[shifted] - base.phi))
        assert worst <= 1e-9
