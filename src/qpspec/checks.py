"""Invariant checks shared by the CLI selftest and the acceptance suite."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cfracs import CFNode, zeta_roots, zeta_sandwich_ok, zeta_separation_ok
from .dual_operator import (cocycle_check, dense_spectrum, diagonal_value,
                            reflection_conjugation_check, restrict)
from .errors import QPSpecError
from .lattice import ball
from .mssets import is_correct_word, max_correct_length
from .model import Problem, build_ladder
from .resonance import k_point
from .schur import ReducedSolver
from .spectral import (FIXED_POINT_TOL, eigen_pair, eigen_simple, feynman_derivative,
                       gap_at, paired_box, sized_gap)
from .trajectories import WeightProfile, closed_bound, sum_enumerate


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _hermitian(problem: Problem, seed: int) -> CheckResult:
    S = ball(2, problem.nu, budget=None)
    H = restrict(problem, S, 0.13).entries
    dev = float(np.max(np.abs(H - H.conj().T)))
    return CheckResult("hermitian-restriction", dev == 0.0, f"max dev {dev:.3g}")


def _cocycle(problem: Problem, seed: int) -> CheckResult:
    S = ball(2, problem.nu, budget=None)
    shift = (1,) + (0,) * (problem.nu - 1)
    dev = cocycle_check(problem, shift, S, 0.21)
    return CheckResult("cocycle-identity", dev <= 1e-12, f"max dev {dev:.3g}")


def _reflection(problem: Problem, seed: int) -> CheckResult:
    S = ball(2, problem.nu, budget=None)
    dev = reflection_conjugation_check(problem, S, 0.17)
    return CheckResult("reflection-conjugation", dev <= 1e-12, f"max dev {dev:.3g}")


def _words(problem: Problem, seed: int) -> CheckResult:
    ok = True
    detail = []
    for s in (1, 2, 3):
        got = max_correct_length(s)
        ok &= got == 2 ** s - 1
        detail.append(f"s={s}:{got}")
    ok &= is_correct_word((1, 2, 1)) and not is_correct_word((1, 1))
    return CheckResult("correct-words", ok, " ".join(detail))


def _ladder(problem: Problem, seed: int) -> CheckResult:
    lad = problem.ladder or build_ladder(math.exp(-3.2 / 0.35), 0.35, 3)
    ok = True
    for u in range(1, lad.u_max + 1):
        ok &= abs(lad.log_R_at(u) + lad.beta1 * lad.log_delta_at(u - 1)) <= 1e-12 * max(
            1.0, abs(lad.log_R_at(u))) or not lad.exact_recursion
        ok &= lad.log_delta_at(u) == -(lad.log_R_at(u) ** 2) or not lad.exact_recursion
    return CheckResult("ladder-recursion", ok, f"u_max={lad.u_max}")


def _symmetry(problem: Problem, seed: int) -> CheckResult:
    S = ball(4, problem.nu, budget=None)
    zero = tuple([0] * problem.nu)
    worst = 0.0
    for k in (0.11, 0.23, 0.37):
        e_plus = eigen_simple(problem, zero, S, k)
        e_minus = eigen_simple(problem, zero, S.reflect(), -k)
        worst = max(worst, abs(e_plus.E - e_minus.E))
    return CheckResult("band-symmetry", worst <= 1e-11, f"max |E(k)-E(-k)| {worst:.3g}")


def _lowest_harmonic(problem: Problem):
    """The potential's harmonic of least |m| (None for a zero potential)."""
    pot = problem.potential
    support = [m for m in pot.support() if abs(pot.c0(m)) > 0]
    return min(support, key=lambda m: sum(map(abs, m))) if support else None


def _gap_first_order(problem: Problem, seed: int) -> CheckResult:
    pot = problem.potential
    n0 = _lowest_harmonic(problem)
    if n0 is None:
        return CheckResult("gap-first-order", True, "zero potential, skipped")
    rec = gap_at(problem, n0, 5)
    expect = 2.0 * abs(pot.c(n0))
    dev = abs(rec.width - expect)
    tol = 50.0 * pot.epsilon ** 2 * max(1.0, abs(pot.c0(n0))) + 1e-12
    return CheckResult("gap-first-order", dev <= tol,
                       f"width {rec.width:.6g} vs 2|c| {expect:.6g}")


GAP_BOX_CAP = 8   # the default box_radius


def _gap_box(problem: Problem, seed: int) -> CheckResult:
    """The truncation-residual rule against the cap's own box.

    For the lowest harmonic n0, the edges on the box that sized_gap accepts
    must equal gap_at's on paired_box(n0, GAP_BOX_CAP) to
    2 FIXED_POINT_TOL * scale: the fixed point's tolerance for each of
    the two solves.
    """
    n0 = _lowest_harmonic(problem)
    if n0 is None:
        return CheckResult("gap-box", True, "zero potential, skipped")
    rec = sized_gap(problem, n0, GAP_BOX_CAP)
    ref = gap_at(problem, n0, GAP_BOX_CAP)
    dev = max(abs(rec.E_minus - ref.E_minus), abs(rec.E_plus - ref.E_plus))
    zero = tuple([0] * problem.nu)
    tol = 2.0 * FIXED_POINT_TOL * max(1.0, diagonal_value(problem, zero, ref.k_point))
    return CheckResult("gap-box", dev <= tol,
                       f"radius {rec.radius} of {GAP_BOX_CAP}, edge dev {dev:.3g}")


def _reduced_oracle(problem: Problem, seed: int) -> CheckResult:
    """The Schur identity on ReducedSolver against the dense resolvent.

    On the lowest harmonic's paired box near k_{n0}, with pivots (0, n0),
    the inverse of E - (diag v + [[Q+, G], [G*, Q-]]) must be the pivot
    block of the dense (E - H)^-1: at E midway between the pivot diagonals,
    at E 10 r (r the host's row sum) above the reduced diagonal nearest it,
    a near site, and above the Gershgorin bound of H, all taken from H alone.
    """
    n0 = _lowest_harmonic(problem)
    if n0 is None:
        return CheckResult("reduced-vs-dense", True, "zero potential, skipped")
    zero = tuple([0] * problem.nu)
    k = k_point(problem.frequency, n0) + 1e-5
    solver = ReducedSolver(problem, paired_box(problem, n0, 5), k, [zero, n0])
    H, idx, v = solver.full.entries, solver.piv, solver.v
    n = len(H)
    top = float(np.max(np.abs(H).sum(axis=1) - np.abs(H.diagonal()) + H.diagonal().real))
    rest = solver.diag.take(solver.rest)
    near = float(rest[np.argmin(np.abs(rest - np.mean(v)))]) + 10.0 * solver.row_sum
    worst = 0.0
    for E in (float(np.mean(v)), near, top + 1.0):
        g = solver.g(zero, n0, E)
        pivot = np.array([[E - v[0] - solver.q(zero, E), -g],
                          [-np.conj(g), E - v[1] - solver.q(n0, E)]])
        dense = np.linalg.solve(E * np.eye(n) - H, np.eye(n)[:, idx])[idx]
        worst = max(worst, float(np.max(np.abs(np.linalg.inv(pivot) - dense))
                                 / np.max(np.abs(dense))))
    return CheckResult("reduced-vs-dense", worst <= 1e-10, f"worst rel dev {worst:.3g}")


def _ordered_pair(solver: ReducedSolver):
    """(mp, mm, v+, v-), the solver's two pivots and their diagonals, with
    the plus pivot carrying the larger diagonal-plus-self-energy at the
    pivots' mean diagonal."""
    (mp, mm), (vp, vm) = solver.pivots, solver.v
    center = 0.5 * (vp + vm)
    if vp + solver.q(mp, center).real < vm + solver.q(mm, center).real:
        return mm, mp, vm, vp
    return mp, mm, vp, vm


def _zeta_pair(problem: Problem, seed: int) -> CheckResult:
    """The continued-fraction roots zeta-+ against eigen_pair's fixed points.

    A level-1 node with leaves a1 = v+ + Q+, a2 = v- + Q- and b = |G| on
    the pivots (0, n0) near k_{n0}; its roots, found by the convex root
    finder in one window taken from H alone, must be eigen_pair's roots and
    satisfy the separation and sandwich lemmas.  The window is the pivot
    diagonals' span widened by 2r, r the host's row sum; a reduced diagonal
    within r of it fails the check, as H_rest's spectrum must lie over r
    from it (Gershgorin) for Q and G to hold both roots in it, pole-free.
    """
    n0 = _lowest_harmonic(problem)
    if n0 is None:
        return CheckResult("zeta-pair", True, "zero potential, skipped")
    zero = tuple([0] * problem.nu)
    S = paired_box(problem, n0, 5)
    k = k_point(problem.frequency, n0) + 1e-5
    solver = ReducedSolver(problem, S, k, [zero, n0])
    r = solver.row_sum
    lo, hi = min(solver.v) - 2.0 * r, max(solver.v) + 2.0 * r
    foreign = solver.diag.take(solver.rest)
    if np.any((foreign > lo - r) & (foreign < hi + r)):
        return CheckResult("zeta-pair", False, "a reduced diagonal lies within r of the window")
    mp, mm, vp, vm = _ordered_pair(solver)
    node = CFNode(lambda u: vp + solver.q(mp, u).real,
                  lambda u: vm + solver.q(mm, u).real,
                  lambda u: abs(solver.g(mp, mm, u)))
    roots = zeta_roots(node, (lo, hi))
    if len(roots) != 2:
        return CheckResult("zeta-pair", False, f"{len(roots)} roots in the pair window")
    zm, zp = roots
    E_plus, E_minus = (rec.E for rec in eigen_pair(problem, S, k, zero, n0))
    dev = max(abs(zp - E_plus) / max(1.0, abs(E_plus)),
              abs(zm - E_minus) / max(1.0, abs(E_minus)))
    ok = (dev <= 1e-12 and zeta_separation_ok(node, zm, zp)
          and zeta_sandwich_ok(node, zm, zp))
    return CheckResult("zeta-pair", ok, f"max rel dev from eigen_pair {dev:.3g}")


def trajectory_sums(problem: Problem, rng, kappa0: float):
    """Yield (n, SumResult, BoundResult) from the origin to n = 0 and n = e_1:
    eps0 = 1e-25, length 4, T = 8, D uniform in [1, 3) on ball(2) in ball(5)."""
    host = ball(2, problem.nu, budget=None)
    ambient = ball(5, problem.nu, budget=None)
    prof = WeightProfile({s: 1.0 + 2.0 * rng.random() for s in host}, T=8.0,
                         kappa0=kappa0, host=host, ambient=ambient)
    eps0 = 1e-25
    zero = tuple([0] * problem.nu)
    for n in (zero, (1,) + (0,) * (problem.nu - 1)):
        yield n, sum_enumerate(zero, n, prof, eps0, len_cap=4), closed_bound(zero, n, prof, eps0)


def _trajectory(problem: Problem, seed: int) -> CheckResult:
    ok = all(res.total <= bnd.value and bnd.threshold_ok for _, res, bnd
             in trajectory_sums(problem, np.random.default_rng(seed + 1), 0.5))
    return CheckResult("trajectory-bounds", ok, "enumeration under the closed bound")


def _feynman(problem: Problem, seed: int) -> CheckResult:
    S = ball(3, problem.nu, budget=None)
    k = 0.19
    derivs, mask, evals = feynman_derivative(problem, S, k)
    h = 1e-5
    up, _ = dense_spectrum(restrict(problem, S, k + h))
    dn, _ = dense_spectrum(restrict(problem, S, k - h))
    fd = (up - dn) / (2.0 * h)
    sel = mask & (np.abs(derivs) > 1e-8)
    rel = float(np.max(np.abs(derivs[sel] - fd[sel]) / np.abs(derivs[sel])))
    return CheckResult("feynman-vs-fd", rel <= 1e-6, f"max rel dev {rel:.3g}")


def run_selftest(problem: Problem, seed: int = 0):
    """Run the invariant suite; returns a list of CheckResult.

    Every check takes (problem, seed); a check that raises a QPSpecError
    is reported as failed under its function's name, and any other error
    propagates.
    """
    suite = (_hermitian, _cocycle, _reflection, _reduced_oracle, _words, _ladder,
             _symmetry, _gap_first_order, _gap_box, _zeta_pair, _trajectory, _feynman)
    return [_safe(check, problem, seed) for check in suite]


def _safe(check, problem: Problem, seed: int) -> CheckResult:
    try:
        return check(problem, seed)
    except QPSpecError as exc:
        return CheckResult(check.__name__, False, f"raised {exc!r}")
