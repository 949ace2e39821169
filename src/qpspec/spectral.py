"""Eigenvalues, gap edges and band functions for the dual matrices.

The non-resonant branch solves the scalar fixed point E = v(m0) + Q(E); the
paired branch solves the 2x2 effective characteristic equation
chi(E) = (E - v+ - Q+)(E - v- - Q-) - |G|^2 = 0 as the fixed points
E = lambda_max / lambda_min of the effective 2x2 matrix at E.  The
gap edges at k_{n0} come from the limit characterization
E = v(0, k_{n0}) + Q(E) -+ |G(E)|, solved directly to avoid cancellation.
Gap edges, and paired roots with the oracle check on, are reconciled with
the dense oracle's eigenpairs in a window about their centre, the window
chosen from H alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual_operator import TWO_PI_SQ, DualMatrix, dense_spectrum, diagonal_value, restrict
from .errors import ConvergenceError, QPSpecError, ReconciliationError, RegimeError
from .lattice import SiteSet, ball, l1_norm
from .model import Problem
from .resonance import k_point
from .schur import ReducedSolver

FIXED_POINT_TOL = 1e-13
MAX_FIXED_POINT_STEPS = 100
DEGENERACY_GAP = 1e-10
RESONANCE_RADIUS = 3
RESONANCE_POINT_TOL = 1e-9
RECONCILE_TOL = 1e-9                  # oracle agreement, relative to max(1, |E|)


@dataclass(frozen=True)
class EigenRecord:
    E: float
    phi: dict
    host: SiteSet
    k: float
    regime: str
    residual: float
    oracle_gap: float = None


@dataclass(frozen=True)
class GapRecord:
    n0: tuple
    k_point: float
    E_minus: float
    E_plus: float
    width: float
    reconcile_dev: float = 0.0

    def __post_init__(self):
        if self.E_plus < self.E_minus - 1e-15:
            raise ValueError("gap edges out of order")


def _phi_residual(H: np.ndarray, phi: np.ndarray, E: float) -> float:
    r = H @ phi - E * phi
    return float(np.max(np.abs(r)) / max(np.max(np.abs(phi)), 1e-300))


def _fixed_point(step, E0: float, scale: float) -> float:
    """Iterate E <- step(E) from E0 until a move falls below FIXED_POINT_TOL * scale."""
    E = E0
    for _ in range(MAX_FIXED_POINT_STEPS):
        E_next = step(E)
        if abs(E_next - E) < FIXED_POINT_TOL * scale:
            return E_next
        E = E_next
    raise ConvergenceError(
        f"fixed point from E={E0:.6g} stalled after {MAX_FIXED_POINT_STEPS} steps")


def _oracle_on(M: DualMatrix, m0):
    """The oracle eigenpair whose unit eigenvector weighs most on m0.

    Returns (E, vec, w): vec is that eigenvector scaled to 1 at m0, and
    w its weight |psi(m0)| before scaling.
    """
    evals, evecs = dense_spectrum(M)
    i0 = M.sites.index(m0)
    j = int(np.argmax(np.abs(evecs[i0, :])))
    return float(evals[j]), evecs[:, j] / evecs[i0, j], float(abs(evecs[i0, j]))


def _oracle_nearest(M: DualMatrix, center: float) -> np.ndarray:
    """The oracle's two eigenvalues nearest `center`, ascending."""
    evals, _ = dense_spectrum(M, center)
    return np.sort(evals[np.argsort(np.abs(evals - center))[:2]])


def eigen_simple(problem: Problem, m0, S: SiteSet, k: float,
                 oracle_check: bool = True) -> EigenRecord:
    """Fixed-point solve of E = v(m0, k) + Q(m0, S; E), eigenvector from F.

    Starts at E = v(m0, k); contraction is guaranteed by |d_E Q| <= |eps|
    in the small-coupling regime.  A stalled fixed point (ConvergenceError)
    falls back to the dense eigensolver with eigenvector-overlap selection;
    any other error propagates.  With the oracle check
    on, a converged value that disagrees with the overlap-selected dense
    eigenvalue flags a regime mismatch.
    """
    m0 = tuple(m0)
    solver = ReducedSolver(problem, S, k, [m0])
    v0 = diagonal_value(problem, m0, k)
    scale = max(1.0, abs(v0))
    try:
        E = _fixed_point(lambda E: v0 + solver.q(m0, E).real, v0, scale)
    except ConvergenceError:
        # dense fallback: take the eigenvalue whose eigenvector carries m0
        E, vec, weight = _oracle_on(solver.full, m0)
        if weight < 2.0 / 3.0:
            raise ConvergenceError(
                f"fixed point diverged at k={k}, m0={m0} and no dense eigenvector "
                "concentrates on m0 (regime mismatch)")
        phi = {s: complex(vec[i]) for i, s in enumerate(solver.full.sites)}
        residual = _phi_residual(solver.full.entries, vec, E)
        return EigenRecord(E, phi, solver.full.sites, k, "dense_fallback",
                           residual, 0.0)
    tail = solver.f(m0, E)
    phi = {s: 1.0 + 0j if s == m0 else -tail[s] for s in solver.full.sites}
    vec = np.array([phi[s] for s in solver.full.sites])
    residual = _phi_residual(solver.full.entries, vec, E)

    oracle_gap = None
    if oracle_check:
        oracle_gap = abs(_oracle_on(solver.full, m0)[0] - E)
        if oracle_gap > RECONCILE_TOL * scale:
            raise ReconciliationError(
                f"fixed point at k={k}, m0={m0} deviates from the dense oracle "
                f"by {oracle_gap:.3g} (regime mismatch)")
    return EigenRecord(float(E), phi, solver.full.sites, k, "nonresonant",
                       residual, oracle_gap)


# ---------------------------------------------------------------------------
# Paired resonance
# ---------------------------------------------------------------------------


def _pair_windows(solver: ReducedSolver, mp, mm):
    """E windows around each pivot's diagonal value that must hold the pair roots.

    Each half-width stays below the nearest foreign diagonal value, which
    keeps the windows clear of the reduced resolvent's poles; overlapping
    windows merge (the resonant case).
    """
    diag = solver.full.entries.diagonal().real
    vp, vm = (float(diag[solver.full.sites.index(p)]) for p in (mp, mm))
    foreign = solver.H_rest.diagonal().real
    windows = []
    for v in (vp, vm):
        rho = float(np.min(np.abs(foreign - v), initial=math.inf))
        half = 0.75 * min(rho, abs(vp - vm) + 1.0)
        windows.append((v - half, v + half))
    windows.sort()
    merged = [windows[0]]
    for a, b in windows[1:]:
        if a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _ordered_pair(problem: Problem, solver: ReducedSolver, mp, mm):
    """(mp, mm, v+, v-) with the plus pivot carrying the larger
    diagonal-plus-self-energy at the pivots' mean diagonal."""
    vp = diagonal_value(problem, mp, solver.k)
    vm = diagonal_value(problem, mm, solver.k)
    center = 0.5 * (vp + vm)
    if vp + solver.q(mp, center).real < vm + solver.q(mm, center).real:
        return mm, mp, vm, vp
    return mp, mm, vp, vm


def eigen_pair(problem: Problem, S: SiteSet, k: float, mp, mm,
               oracle_check: bool = True):
    """Both roots of the paired characteristic equation with eigenvectors.

    Each root is a fixed point of the effective 2x2 matrix
    M(E) = [[v+ + Q+(E), G(E)], [conj G(E), v- + Q-(E)]]: E+ is the larger
    eigenvalue of M(E+) and E- the smaller of M(E-), which are exactly the
    roots of chi(E) = det(E - M(E)).  |dM/dE| = O(eps), so both iterations
    contract in a few steps from the pivots' mean diagonal.  Orders the
    pivots so the plus branch carries the larger diagonal-plus-self-energy
    (the ordered-pair convention); returns (E_plus, E_minus, phi_plus,
    phi_minus).  A root outside the pair windows is a regime error.
    """
    solver = ReducedSolver(problem, S, k, [mp, mm])
    mp, mm, vp, vm = _ordered_pair(problem, solver, tuple(mp), tuple(mm))
    center = 0.5 * (vp + vm)

    def parts(E: float):
        return (vp + solver.q(mp, E).real, vm + solver.q(mm, E).real,
                solver.g(mp, mm, E))

    def root(sign: float) -> float:
        def step(E: float) -> float:
            a1, a2, g = parts(E)
            return 0.5 * (a1 + a2) + sign * math.hypot(0.5 * (a1 - a2), abs(g))
        return _fixed_point(step, center, max(1.0, abs(center)))

    E_plus, E_minus = root(+1.0), root(-1.0)
    windows = _pair_windows(solver, mp, mm)
    for E in (E_minus, E_plus):
        if not any(lo <= E <= hi for lo, hi in windows):
            raise RegimeError(
                f"pair root E={E:.6g} lies outside the pair windows "
                f"(regime misclassification at k={k})")

    def vector(E: float):
        a1, a2, g = parts(E)
        # null vector of [[E-a1, -g], [-conj(g), E-a2]] at a root of chi
        if abs(E - a2) >= abs(E - a1):
            amp_p, amp_m = E - a2, np.conj(g)
        else:
            amp_p, amp_m = g, E - a1
        norm = max(abs(amp_p), abs(amp_m), 1e-300)
        amp_p, amp_m = amp_p / norm, amp_m / norm
        phi = {mp: amp_p, mm: amp_m}
        if solver.reduced_sites:
            col_p = solver.coupling_column(mp)
            col_m = solver.coupling_column(mm)
            rest = solver.solve(E, col_p * amp_p + col_m * amp_m)
            phi.update({s: rest[i] for i, s in enumerate(solver.reduced_sites)})
        return {s: phi[s] for s in solver.full.sites}

    phi_plus, phi_minus = vector(E_plus), vector(E_minus)

    if oracle_check:
        got = np.sort(np.asarray([E_minus, E_plus]))
        want = _oracle_nearest(solver.full, center)
        dev = float(np.max(np.abs(got - want)))
        if dev > RECONCILE_TOL * max(1.0, float(np.max(np.abs(want)))):
            raise ReconciliationError(
                f"pair roots deviate from the dense oracle by {dev:.3g}")
    return E_plus, E_minus, phi_plus, phi_minus


def gap_at(problem: Problem, n0, S: SiteSet) -> GapRecord:
    """Gap edges at k = k_{n0} via E = v + Q -+ |G|, reconciled with the oracle.

    Route (i) solves the two scalar equations by fixed point; route (ii)
    takes the two dense eigenvalues nearest v(0, k_{n0}) from the oracle
    windowed about v0, the window chosen from H alone.  Disagreement
    beyond RECONCILE_TOL flags a regime misclassification.
    """
    n0 = tuple(n0)
    zero = tuple([0] * problem.nu)
    if zero not in S or n0 not in S:
        raise ValueError("paired set must contain 0 and n0")
    k = k_point(problem.frequency, n0)
    solver = ReducedSolver(problem, S, k, [zero, n0])
    v0 = diagonal_value(problem, zero, k)
    scale = max(1.0, abs(v0))

    def edge(sign: float) -> float:
        return _fixed_point(
            lambda E: v0 + solver.q(zero, E).real + sign * abs(solver.g(zero, n0, E)),
            v0, scale)

    E_plus = edge(+1.0)
    E_minus = edge(-1.0)
    if E_plus < E_minus:
        E_plus, E_minus = E_minus, E_plus

    nearest = _oracle_nearest(solver.full, v0)
    dev = float(max(abs(nearest[0] - E_minus), abs(nearest[1] - E_plus)))
    if dev > RECONCILE_TOL * scale:
        raise ReconciliationError(
            f"gap edges disagree with the dense oracle by {dev:.3g} at n0={n0}")
    return GapRecord(n0, k, float(E_minus), float(E_plus),
                     float(E_plus - E_minus), dev)


def paired_box(problem: Problem, n0, radius: float) -> SiteSet:
    """Dense fallback paired set B(radius) u (n0 + B(radius)); T-invariant."""
    base = ball(radius, problem.nu, budget=problem.site_budget)
    return base.union(base.translate(tuple(n0)))


# ---------------------------------------------------------------------------
# Band functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandPoint:
    k: float
    E: float
    regime: str
    error: str = ""


def band(problem: Problem, k_grid, S_builder):
    """E(k) along a grid; resonant points take the matching pair branch.

    S_builder maps k to the host set.  Points within RESONANCE_POINT_TOL of
    some k_m, |m| <= RESONANCE_RADIUS, are classified "resonance_point";
    points inside a pair window take the branch that continues E through
    the resonance (plus branch above k_m, minus branch below).  A
    QPSpecError is collected as that point's error; any other error
    propagates.
    """
    zero = tuple([0] * problem.nu)
    res_points = []
    B = ball(RESONANCE_RADIUS, problem.nu, budget=None)
    for m in B:
        if any(m):
            res_points.append((tuple(m), k_point(problem.frequency, m)))

    def solve(k: float) -> BandPoint:
        S = S_builder(k)
        hit = None
        for m, km in res_points:
            if abs(k - km) < RESONANCE_POINT_TOL:
                hit = (m, km, "resonance_point")
                break
            # pair handling window: strongest coupling heuristic
            if abs(k - km) < 64.0 * problem.potential.epsilon:
                hit = (m, km, "paired")
                break
        try:
            if hit is None:
                rec = eigen_simple(problem, zero, S, k, oracle_check=False)
                return BandPoint(k, rec.E, "nonresonant")
            if hit[2] == "resonance_point":
                record = gap_at(problem, hit[0], S if zero in S and hit[0] in S
                                else paired_box(problem, hit[0], 6))
                return BandPoint(k, record.E_plus if k >= hit[1] else record.E_minus,
                                 "resonance_point")
            m, km, _ = hit
            host = S if (zero in S and m in S) else paired_box(problem, m, 6)
            E_plus, E_minus, _, _ = eigen_pair(problem, host, k, zero, m,
                                               oracle_check=False)
            return BandPoint(k, E_plus if k > km else E_minus, "paired")
        except QPSpecError as exc:  # collected, not fatal
            return BandPoint(k, float("nan"), "error", str(exc))

    return [solve(float(k)) for k in k_grid]


def feynman_derivative(problem: Problem, S: SiteSet, k: float):
    """Per-eigenvalue dE/dk = sum_n |psi(n)|^2 dH(n,n)/dk, with validity mask.

    Eigenvalues closer than the degeneracy threshold to a neighbor are
    masked out (the formula needs simple eigenvalues).
    """
    H = restrict(problem, S, k)
    evals, evecs = dense_spectrum(H)
    phase = H.sites.array().astype(float) @ np.asarray(problem.omega) + k
    dH = 2.0 * TWO_PI_SQ * phase
    derivs = (np.abs(evecs) ** 2 * dH[:, None]).sum(axis=0)
    gaps = np.full(len(evals), np.inf)
    if len(evals) > 1:
        d = np.diff(evals)
        gaps[:-1] = np.minimum(gaps[:-1], d)
        gaps[1:] = np.minimum(gaps[1:], d)
    mask = gaps > DEGENERACY_GAP
    return derivs, mask, evals


def decay_envelope(problem: Problem, phi: dict, principal_sites,
                   kappa0: float = None, slack: float = 4.0):
    """Check |phi(n)| <= slack sqrt(eps) sum_{m in principal} e^{-(7/8) kappa0 |n-m|}.

    Returns (holds, worst_ratio).  Principal sites themselves are exempt
    (their amplitude is O(1) by design).
    """
    kappa0 = problem.potential.kappa0 if kappa0 is None else kappa0
    eps = problem.potential.epsilon
    principal = {tuple(m) for m in principal_sites}
    worst = 0.0
    for n, val in phi.items():
        if tuple(n) in principal:
            continue
        bound = slack * math.sqrt(eps) * sum(
            math.exp(-0.875 * kappa0 * l1_norm(tuple(a - b for a, b in zip(n, m))))
            for m in principal)
        if bound == 0:
            continue
        worst = max(worst, abs(val) / bound)
    return worst <= 1.0, worst
