"""Gap tables, the forward gap bound, and the coefficient-recovery direction.

Forward: with |c(n)| <= eps exp(-kappa0 |n|), every labeled gap obeys
width <= 2 eps exp(-kappa0 |m| / 2).  Inverse: the gap at k_{n0} bounds the
Fourier coefficient through

    |c(n0)| <= prefactor * width + sum |c(m')| |K(m', n')| |c(n' - n0)|

and the decay-improvement map (eps, kappa) -> (eps/2, 7 kappa/6) iterates to
the square-root conclusion; at desk scale every finite inequality in the
chain is verified pointwise rather than asymptotically.  The improvement
checks the plain window bound only; the paper's scaled window is not built.
Each label's gap is solved once per +- pair, on the box its truncation
residual accepts (box_radius is only a cap): H_{-k} on -S is conj H_k on
S, so the gap labelled -m is the gap labelled m, and a table asking for
both solves the larger in tuple order and mirrors its record.
recovered_bound takes the GapRecord that gap_table made and reads that
box's solver from the record's roots; this module builds no solver of
its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import QPSpecError, RegimeError
from .lattice import ball, l1_norm
from .model import Potential, Problem
from .spectral import GapRecord, sized_gap


def gap_table(problem: Problem, m_list, box_radius: float):
    """One GapRecord per m, each on the smallest tried paired box, radius at
    most box_radius, whose truncation residual passes (spectral.sized_gap).

    When m and -m are both asked for, only the larger in tuple order is
    solved: H_{-k} on -S is conj H_k on S, so the other's record is its
    mirror, with n0 and k_point negated (k_point is exactly antisymmetric)
    and the edges, width, radius, residuals and roots (the solved label's
    box) copied.  A QPSpecError is collected as that m's failure, a
    mirror's naming the label it was solved as; any other error
    propagates.  The returned dicts are insertion-ordered by the input list.
    """
    wanted = list(map(tuple, m_list))
    asked = set(wanted)
    solved = {}
    records = {}
    failures = {}
    for m in wanted:
        mirror = tuple(-x for x in m)
        label = max(m, mirror) if mirror in asked else m
        if label not in solved:
            try:
                solved[label] = sized_gap(problem, label, box_radius)
            except QPSpecError as exc:
                solved[label] = exc
        rec = solved[label]
        if isinstance(rec, QPSpecError):
            failures[m] = str(rec) if label == m else f"solved as its mirror {label}: {rec}"
        elif label == m:
            records[m] = rec
        else:
            records[m] = replace(rec, n0=m, k_point=-rec.k_point)
    return records, failures


@dataclass(frozen=True)
class ForwardRow:
    m: tuple
    width: float
    bound: float
    passed: bool


def verify_forward(records, potential: Potential):
    """Per-row check width <= 2 eps exp(-kappa0 |m| / 2)."""
    rows = []
    for m, rec in records.items():
        bound = 2.0 * potential.epsilon * math.exp(-0.5 * potential.kappa0 * l1_norm(m))
        rows.append(ForwardRow(m, rec.width, bound, rec.width <= bound * (1 + 1e-12)))
    return rows


# ---------------------------------------------------------------------------
# Coefficient recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveredBound:
    n0: tuple
    gap_width: float
    prefactor_desk: float
    prefactor_coarse: float
    quadratic_term: float
    bound_desk: float
    bound_coarse: float
    actual: float

    @property
    def holds(self) -> bool:
        return self.actual <= self.bound_desk * (1 + 1e-9) + 1e-300


def recovered_bound(problem: Problem, rec: GapRecord) -> RecoveredBound:
    """Both variants of the coefficient-recovery inequality at rec.n0.

    rec is a GapRecord from gap_table or gap_at; the solver its edges were
    solved on, rec.roots[0].solver on paired_box(n, rec.radius) with
    pivots (0, n), gives every quantity, so the width and the quadratic
    term share one box and one matrix.  n is rec.n0, or -rec.n0 for a
    record gap_table mirrored: the coupling columns are read at the
    solver's pivot n, whose bound is the mirror's by reflection-conjugation.
    Desk variant: prefactor
    sup |d_E (E - v - Q)| over [E-, E+], exactly 1 + ||(E - H_rest)^-1 h_0||^2
    since d_E Q = -||(E - H_rest)^-1 h_0||^2, taken at the edges and the
    midpoint; quadratic term from the reduced resolvent K = (E+ - H_rest)^-1,
    solved only on the columns n' that the sum reads, those with
    h(n', n0) != 0, at most one per point of the support.  Coarse variant:
    the worst-case prefactor eps^-1 exp(kappa0 |n0|).  The desk inequality
    is the one asserted; both are reported.
    """
    n0 = rec.n0
    solver = rec.roots[0].solver
    col_0 = solver.coupling_column(tuple([0] * problem.nu))
    probes = (rec.E_minus, 0.5 * (rec.E_minus + rec.E_plus), rec.E_plus)
    prefactor_desk = 1.0 + max(float(np.linalg.norm(solver.solve(E, col_0)) ** 2)
                               for E in probes)

    # quadratic term sum |c(m')| |K(m',n')| |c(n' - n0)|, K read on the
    # columns n' where c(n' - n0) is not 0
    col_n0 = solver.coupling_column(solver.pivots[-1])
    J = np.flatnonzero(col_n0)
    K = solver.solve(rec.E_plus, np.eye(len(col_n0))[:, J])
    quad = float(np.abs(col_0) @ np.abs(K) @ np.abs(col_n0[J]))

    pot = problem.potential
    actual = abs(pot.c(n0))
    prefactor_coarse = math.exp(pot.kappa0 * l1_norm(n0)) / pot.epsilon
    return RecoveredBound(
        n0, rec.width, prefactor_desk, prefactor_coarse, quad,
        prefactor_desk * rec.width + quad, prefactor_coarse * rec.width + quad,
        actual)


# ---------------------------------------------------------------------------
# Decay improvement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayBound:
    eps_hat: float
    kappa_hat: float

    def verify(self, potential: Potential):
        """First p violating |c(p)| <= eps_hat exp(-kappa_hat |p|), or None."""
        for p in sorted(potential.support(), key=l1_norm):
            if abs(potential.c(p)) > self.eps_hat * math.exp(-self.kappa_hat * l1_norm(p)) * (1 + 1e-12):
                return p
        return None


@dataclass(frozen=True)
class ImprovementStep:
    after: DecayBound
    verified: bool
    first_violation: tuple = None


def improve_decay(current: DecayBound, potential: Potential) -> ImprovementStep:
    """One step of the map (eps, kappa) -> (eps/2, 7 kappa/6), verified.

    Beyond |p| = 1.25 * 2^30, where the scaled window would relax the rate,
    a validated |c(p)| <= eps exp(-kappa0 |p|) is 0.0 for any kappa0 > 6e-7,
    and 0.0 passes either bound.
    """
    if current.verify(potential) is not None:
        raise RegimeError("current decay bound does not hold; nothing to improve")
    after = DecayBound(current.eps_hat / 2.0, 7.0 * current.kappa_hat / 6.0)
    worst = after.verify(potential)
    return ImprovementStep(after, worst is None, worst)


IMPROVEMENT_ROUNDS = 5


@dataclass(frozen=True)
class InverseReport:
    pointwise: tuple
    improvement: tuple
    final_bound: DecayBound
    final_ok: bool
    hypothesis_ok: bool
    note: str


def verify_inverse(problem: Problem, box_radius: float, window_norm: int = 4) -> InverseReport:
    """Desk-scale property report for the inverse direction.

    (a) coefficient-recovery inequality per m in the window, each on the
        box gap_table accepted for m with box_radius as the cap, run once
        per +- pair and mirrored with n0 -> -n0 and actual = |c(-n0)|,
    (b) IMPROVEMENT_ROUNDS decay-improvement iterates verify and tighten,
    (c) the final bound compared pointwise against |c(m)|.
    The full infinite-scale conclusion is out of desk reach by design; the
    report says so.
    """
    pot = problem.potential
    ms = [m for m in ball(window_norm, problem.nu, budget=None)
          if any(m) and abs(pot.c0(m)) > 0]
    # hypothesis: gaps decay at rate kappa^0 > 4 kappa0 with a sqrt(eps) budget
    eps0 = math.sqrt(pot.epsilon)
    records, failures = gap_table(problem, ms, box_radius)
    hyp_ok = not failures and all(
        rec.width <= eps0 * math.exp(-4.0 * pot.kappa0 * l1_norm(m))
        for m, rec in records.items())
    if not hyp_ok:
        return InverseReport((), (), DecayBound(pot.epsilon, pot.kappa0), False, False,
                             "gap hypothesis fails; no assertion made")

    by_label, pointwise = {}, []
    for m, rec in records.items():
        label = rec.roots[0].solver.pivots[-1]   # m, or -m for a mirrored record
        if label not in by_label:
            by_label[label] = recovered_bound(problem, rec)
        rb = by_label[label]
        pointwise.append(rb if rb.n0 == m else replace(rb, n0=m, actual=abs(pot.c(m))))
    steps = []
    bound = DecayBound(pot.epsilon, pot.kappa0)
    for _ in range(IMPROVEMENT_ROUNDS):
        step = improve_decay(bound, pot)
        steps.append(step)
        if not step.verified:
            break
        bound = step.after
    final_ok = bound.verify(pot) is None
    return InverseReport(
        tuple(pointwise), tuple(steps), bound, final_ok, True,
        "finite desk-scale verification only; the infinite-scale conclusion "
        "is out of reach by construction")
