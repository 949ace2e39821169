"""Eigenvalues, gap edges and band functions for the dual matrices.

The non-resonant branch solves the scalar fixed point E = v(m0) + Q(E).
The paired branch, pair_branch, is the one paired solve: it takes the
fixed points E = lambda_max / lambda_min of the effective 2x2 matrix at E,
the roots of chi(E) = (E - v+ - Q+)(E - v- - Q-) - |G|^2, reading Q+, Q-
and G from one Schur-block solve per energy.  Every route reads the pivot
diagonals v, the pivot positions and the Schur block from its
ReducedSolver, so it solves the matrix the oracle checks, and every record
keeps that solver.  The gap edges at k_{n0} are its two roots on the
pivots (0, n0), where v(0) = v(n0) and the step is
E = v(0, k_{n0}) + Q(E) -+ |G(E)|.  One loop solves them: on the first
paired box S of a list of radii whose truncation residual r (the edge
eigenvectors' residual padded with zeros onto S' = S plus its coupling
shell) is within the fixed point's tolerance, or on the last box.  By
Weyl's bound H on S' has an eigenvalue within r of each edge, plus the
fixed point's own residual (on Z^nu that identifies no edge; see
_truncation_residual).  gap_at runs it on one radius, sized_gap on radii
growing to a cap.  One labelling rule names every eigenvalue: a root on
pivots P is eigenvalue i = #{n in S : v(n) < min_P v} of H on S (i + 1
for the upper pair root), the finite-box gap label.  The oracle checks
gap edges, eigen_pair's roots and eigen_simple's root against those
ranks (_reconcile), the dense fallback takes that rank, and a band point
in a pair window prints the branch of that rank.  The gap loop runs the
oracle only on the box it accepts, and the GapRecord keeps that box's
two edge records.  A band point in a pair window solves only the branch
it prints, on the caller's host, and runs no oracle; its root must lie
in the pair windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .dual_operator import TWO_PI_SQ, dense_spectrum, diagonal_value, host_shell, restrict
from .errors import ConvergenceError, QPSpecError, ReconciliationError, RegimeError
from .lattice import SiteSet, ball, l1_ball_size, l1_norm
from .model import Frequency, Problem
from .resonance import k_point
from .schur import ReducedSolver

FIXED_POINT_TOL = 1e-13
MAX_FIXED_POINT_STEPS = 100
DEGENERACY_GAP = 1e-10
RESONANCE_RADIUS = 3
RECONCILE_TOL = 1e-9                  # oracle agreement, relative to max(1, |E|)


@dataclass(frozen=True, eq=False)
class EigenRecord:
    """An eigenvalue E of the solver's matrix, with its eigenvector on demand.

    `phi` (a complex array over `sites`, 1 at the principal pivot) and its
    `residual` max |H phi - E phi| / max |phi| are built on first read; the
    dense fallback carries the oracle's vector.
    """
    E: float
    regime: str
    solver: ReducedSolver = field(repr=False)
    oracle_gap: float = None
    dense_phi: np.ndarray = field(default=None, repr=False)

    @property
    def sites(self) -> SiteSet:
        return self.solver.sites

    @cached_property
    def phi(self) -> np.ndarray:
        if self.dense_phi is not None:
            return self.dense_phi
        solver, E = self.solver, self.E
        tails = np.column_stack([-solver.f(p, E) for p in solver.pivots])   # K h(., p)
        # pivot amplitudes: the null vector of E - M(E), M(E) = diag v + block(E)
        # the effective (Hermitian) pivot matrix, i.e. its eigenvector nearest E
        w, V = np.linalg.eigh(np.diag(solver.v) + np.array(solver.block(E)))
        amps = V[:, np.argmin(np.abs(w - E))]
        top = np.argmax(np.abs(amps))
        amps = amps / amps[top]
        amps[top] = 1.0
        phi = np.empty(len(self.sites), dtype=complex)
        phi[solver.piv], phi[solver.rest] = amps, tails @ amps
        return phi

    @cached_property
    def residual(self) -> float:
        r = self.solver.full.entries @ self.phi - self.E * self.phi
        return float(np.max(np.abs(r)) / max(np.max(np.abs(self.phi)), 1e-300))


@dataclass(frozen=True)
class GapRecord:
    """Gap edges at k_point = k_{n0} and their width.

    `radius` is the paired box S = paired_box(n0, radius) the edges were
    solved on and `truncation_residual` the edge eigenvectors' residual
    padded onto S' = S plus its coupling shell: H on S' has an eigenvalue
    within it, plus the fixed point's own residual, of each edge.
    `capped` says S is the last box tried and that residual is above
    FIXED_POINT_TOL * scale.  `roots` are the edges' records (minus, plus)
    on S; their one solver, with pivots (0, n0), is the box's for any
    later quantity.
    """
    n0: tuple
    k_point: float
    E_minus: float
    E_plus: float
    width: float
    reconcile_dev: float
    radius: float
    truncation_residual: float
    capped: bool
    roots: tuple = field(repr=False, compare=False)


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


def _labelled(solver: ReducedSolver, count: int):
    """The oracle's eigenpairs of ranks i .. i + count - 1 of the solver's
    matrix H on S, i = #{n in S : v(n) < min_P v} over its pivots P: the
    finite-box gap label, read from H's diagonal alone, never from a
    route's answer.  A root a route solves on P is eigenvalue i (one
    pivot) or the pair i, i + 1 (two)."""
    i = int(np.count_nonzero(solver.diag < min(solver.v)))
    return dense_spectrum(solver.full, range(i, i + count))


def _reconcile(roots, what: str) -> np.ndarray:
    """The distances of `roots`, one record or the pair (minus, plus) on
    one solver, from the oracle's labelled eigenvalues (_labelled).  A
    distance beyond RECONCILE_TOL * max(1, |c|), c the mean of the
    solver's pivot diagonals, is a ReconciliationError about `what`: a
    regime misclassification.
    """
    solver = roots[0].solver
    evals, _ = _labelled(solver, len(roots))
    gaps = np.abs(np.array([rec.E for rec in roots]) - evals)
    dev = float(np.max(gaps))
    if dev > RECONCILE_TOL * max(1.0, abs(sum(solver.v) / len(solver.v))):
        raise ReconciliationError(f"{what} off the dense oracle by {dev:.3g} (regime mismatch)")
    return gaps


def eigen_simple(problem: Problem, m0, S: SiteSet, k: float,
                 oracle_check: bool = True) -> EigenRecord:
    """Fixed-point solve of E = v(m0, k) + Q(m0, S; E); eigenvector from F on read.

    v(m0, k) is the solver's diagonal H(m0, m0).  Starts at E = v(m0, k);
    contraction is guaranteed by |d_E Q| <= |eps| in the small-coupling
    regime.  A stalled fixed point (ConvergenceError) falls back to the
    oracle's labelled eigenpair (_labelled), accepted only if its unit
    eigenvector weighs at least 2/3 on m0; any other error propagates.
    With the oracle check on, a converged value off the labelled
    eigenvalue (_reconcile) flags a regime mismatch.
    """
    m0 = tuple(m0)
    solver = ReducedSolver(problem, S, k, [m0])
    (v0,) = solver.v
    try:
        E = _fixed_point(lambda E: v0 + solver.q(m0, E).real, v0, max(1.0, abs(v0)))
    except ConvergenceError:
        (E,), vecs = _labelled(solver, 1)
        weight = vecs[solver.piv[0], 0]
        if abs(weight) < 2.0 / 3.0:
            raise ConvergenceError(
                f"fixed point diverged at k={k}, m0={m0} and the labelled dense "
                "eigenvector does not concentrate on m0 (regime mismatch)")
        return EigenRecord(float(E), "dense_fallback", solver, 0.0, vecs[:, 0] / weight)

    rec = EigenRecord(float(E), "nonresonant", solver)
    if oracle_check:
        (gap,) = _reconcile([rec], f"fixed point at k={k}, m0={m0}")
        rec = replace(rec, oracle_gap=float(gap))
    return rec


# ---------------------------------------------------------------------------
# Paired resonance
# ---------------------------------------------------------------------------


def _pair_windows(solver: ReducedSolver):
    """E windows around each of the solver's two pivot diagonals that must
    hold the pair roots.

    Each half-width stays below the nearest diagonal of the reduced set,
    which keeps the windows clear of the reduced resolvent's poles;
    overlapping windows merge (the resonant case).
    """
    vp, vm = solver.v
    foreign = solver.diag[solver.rest]
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


def pair_branch(solver: ReducedSolver, sign: float) -> EigenRecord:
    """One root of the paired characteristic equation on `solver`, whose
    pivots are the pair: the plus branch for sign +1, the minus for -1.

    The root is a fixed point of the effective 2x2 matrix
    M(E) = [[v+ + Q+(E), G(E)], [conj G(E), v- + Q-(E)]], v+- the solver's
    pivot diagonals: E+ is the larger eigenvalue of M(E+) and E- the
    smaller of M(E-), which are exactly the roots of chi(E) = det(E - M(E)).  Each step reads Q+, Q- and G from one
    solver.block(E).  |dM/dE| = O(eps), so the iteration contracts in a
    few steps from the pivots' mean diagonal.  The step is symmetric in
    the two pivots, so their order does not matter; when v+ + Q+ equals
    v- + Q-, as at k_{n0} on (0, n0), it is E = v + Q +- |G|.  The
    eigenvector is built on read.  The record is checked neither against
    the oracle nor against the pair windows; its callers do that.
    """
    vp, vm = solver.v
    center = 0.5 * (vp + vm)

    def step(E: float) -> float:
        (q1, g), (_, q2) = solver.block(E)
        a1, a2 = vp + q1.real, vm + q2.real
        return 0.5 * (a1 + a2) + sign * math.hypot(0.5 * (a1 - a2), abs(g))

    E = _fixed_point(step, center, max(1.0, abs(center)))
    return EigenRecord(float(E), "paired", solver)


def _pair_roots(problem: Problem, S: SiteSet, k: float, pivots):
    """Both pair_branch roots on one solver with these pivots, as records
    (minus, plus) sorted by E; not reconciled."""
    solver = ReducedSolver(problem, S, k, pivots)
    plus, minus = (pair_branch(solver, sign) for sign in (+1.0, -1.0))
    return tuple(sorted((minus, plus), key=lambda rec: rec.E))


def eigen_pair(problem: Problem, S: SiteSet, k: float, mp, mm):
    """Both roots of the paired characteristic equation, as records (plus, minus).

    Both branches are solved by pair_branch on one solver, so they share
    its solves, and reconciled with the oracle by _reconcile, as gap
    edges are; the records carry those oracle gaps.  No pair-window check
    runs: the oracle is the stronger one.
    """
    minus, plus = roots = _pair_roots(problem, S, k, [mp, mm])
    gap_minus, gap_plus = map(float, _reconcile(roots, f"pair roots at k={k}"))
    return replace(plus, oracle_gap=gap_plus), replace(minus, oracle_gap=gap_minus)


def _truncation_residual(problem: Problem, roots) -> float:
    """The edge records' residual on S' = S plus its coupling shell.

    Pad each edge's eigenvector phi on the solver's box S with zeros to
    the whole lattice.  On S its residual is the fixed point's own; off S
    it is nonzero only on the shell (S + supp c) minus S, where it is the
    shell-to-S couplings times phi, summed for both edges in one pass over
    the shell that S's host lookup found (host_shell).  For
    S = paired_box(n0, R) the shell lies in paired_box(n0, R + rho), rho
    the largest |d| in the support.  Returns the larger edge's
    ||H_shell,S phi||_2 / ||phi||_2.  By Weyl's bound H on S' has an
    eigenvalue within it, plus the fixed point's own residual, of each
    edge.  On Z^nu it identifies no edge: by the cocycle identity H_k has
    spectrum near E(k + n.omega) for every n, and those values are dense.
    """
    src, slot, h, size = host_shell(problem, roots[0].sites)
    phi = np.column_stack([r.phi for r in roots])
    off = np.zeros((size, len(roots)), dtype=complex)
    np.add.at(off, slot, h[:, None] * phi[src])
    return float(np.max(np.linalg.norm(off, axis=0) / np.linalg.norm(phi, axis=0)))


@lru_cache(maxsize=16)
def _box_radii(cap, start: int, nu: int) -> tuple:
    """Radii from min(start, cap) to cap, each ball holding at least 1.5
    times the last one's sites, so the rejected boxes cost a bounded share
    of the cap's; built once per (cap, start, nu)."""
    radii = [min(start, cap)]
    while radii[-1] < cap:
        want = 1.5 * l1_ball_size(radii[-1], nu)
        R = radii[-1] + 1
        while l1_ball_size(R, nu) < want:
            R += 1
        radii.append(min(R, cap))
    return tuple(radii)


def _first_accepted(problem: Problem, n0, radii) -> GapRecord:
    """Gap edges at k = k_{n0} on the first paired box, radius in `radii`,
    whose truncation residual is at most FIXED_POINT_TOL * scale, with
    scale = max(1, v(0, k_{n0})) as in the fixed point.

    Only the accepted box meets the oracle, on that box's own solver; a
    rejected box runs none.  The last box is accepted whatever its
    residual, and the record says so (`capped`).  A QPSpecError rejects a
    box before the last and propagates at the last.
    """
    n0, zero = tuple(n0), tuple([0] * problem.nu)
    k = k_point(problem.frequency, n0)
    scale = max(1.0, abs(diagonal_value(problem, zero, k)))   # the pair's centre, v0 = v(n0)
    for R in radii:
        last = R == radii[-1]
        try:
            roots = _pair_roots(problem, paired_box(problem, n0, R), k, [zero, n0])
            resid = _truncation_residual(problem, roots)
        except QPSpecError:
            if last:
                raise
            continue
        passed = resid <= FIXED_POINT_TOL * scale
        if passed or last:
            minus, plus = roots
            dev = float(np.max(_reconcile(roots, f"gap edges at n0={n0}")))
            return GapRecord(n0, k, minus.E, plus.E, plus.E - minus.E, dev, R, resid,
                             not passed, roots)


def gap_at(problem: Problem, n0, radius) -> GapRecord:
    """Gap edges at k = k_{n0} on paired_box(n0, radius): pair_branch's two
    roots on the pivots (0, n0), reconciled with the oracle on that box as
    eigen_pair's are.  The record is `capped` when the box's truncation
    residual is over tolerance.  For radius <= max(2, rho), rho the largest
    |d| in the support, it is sized_gap(problem, n0, radius)."""
    return _first_accepted(problem, n0, [radius])


def sized_gap(problem: Problem, n0, cap) -> GapRecord:
    """Gap edges at k = k_{n0} on the first paired box, radius at most cap,
    whose truncation residual passes (_first_accepted).

    The radii tried start at max(2, rho), rho the largest |d| in the
    support, and grow by _box_radii to the cap.  By Weyl's bound H on S'
    (the accepted box plus its coupling shell) has an eigenvalue within
    the tolerance of each edge, plus the fixed point's own residual.
    """
    # a radius below rho leaves out couplings of the pivots themselves
    rho = max(map(l1_norm, problem.potential.support()), default=0)
    return _first_accepted(problem, n0, _box_radii(cap, max(2, rho), problem.nu))


def paired_box(problem: Problem, n0, radius: float) -> SiteSet:
    """The gap path's box B(radius) u (n0 + B(radius)); T-invariant."""
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


@lru_cache(maxsize=1)
def _resonances(frequency: Frequency) -> tuple:
    """(m, k_m) for 0 < |m| <= RESONANCE_RADIUS, in ball order; built
    once per frequency."""
    return tuple((m, k_point(frequency, m))
                 for m in ball(RESONANCE_RADIUS, frequency.nu, budget=None) if any(m))


def band(problem: Problem, k_grid, S_builder):
    """E(k) along a grid; points inside a pair window take the pair branch.

    S_builder maps k to the host set.  A point within 64 eps of some k_m,
    |m| <= RESONANCE_RADIUS, solves by pair_branch at its own k only the
    branch that continues E through the resonance: the branch of rank
    i(k) = #{n in S : v(n) < v(0)}, E(k)'s own label, which is the plus
    branch where v(m) < v(0) and the minus branch elsewhere.  The other
    root is not solved, so it cannot fail the point, and no oracle runs:
    a printed root outside the pair windows is a RegimeError, and so is a
    partner m outside the host.  Every other point solves eigen_simple.
    Points on one host share its couplings (host_block).  Each point
    carries its record's regime; a QPSpecError is collected as that
    point's error, and any other error propagates.
    """
    zero = tuple([0] * problem.nu)
    res_points = _resonances(problem.frequency)
    window = 64.0 * problem.potential.epsilon  # strongest coupling heuristic

    def solve(k: float) -> BandPoint:
        S = S_builder(k)
        m = next((m for m, km in res_points if abs(k - km) < window), None)
        try:
            if m is None:
                rec = eigen_simple(problem, zero, S, k, oracle_check=False)
            else:
                if m not in S:
                    raise RegimeError(f"pair window of k_{m} at k={k}: "
                                      f"partner {m} lies outside the host")
                solver = ReducedSolver(problem, S, k, [zero, m])
                rec = pair_branch(solver, 1.0 if solver.v[1] < solver.v[0] else -1.0)
                if not any(lo <= rec.E <= hi for lo, hi in _pair_windows(solver)):
                    raise RegimeError(
                        f"pair root E={rec.E:.6g} lies outside the pair windows "
                        f"(regime misclassification at k={k})")
            return BandPoint(k, rec.E, rec.regime)
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


def decay_envelope(problem: Problem, record: EigenRecord):
    """Check |phi(n)| <= 4 sqrt(eps) sum_{m in pivots} e^{-(7/8) kappa0 |n-m|}.

    Returns (holds, worst_ratio).  The pivots themselves are exempt (their
    amplitude is O(1) by design), and so is any site whose bound underflows.
    """
    pot = problem.potential
    dist = np.abs(record.sites.array()[:, None, :] - np.asarray(record.solver.pivots)).sum(axis=2)
    bound = 4.0 * math.sqrt(pot.epsilon) * np.exp(-0.875 * pot.kappa0 * dist).sum(axis=1)
    free = (dist > 0).all(axis=1) & (bound > 0)
    worst = float(np.max(np.abs(record.phi[free]) / bound[free], initial=0.0))
    return worst <= 1.0, worst
