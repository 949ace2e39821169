"""Resonance geometry on the k-axis.

Resonance points k_m = -m.omega/2 carry two families of intervals: the wide
exclusion zones of half-width sigma(m) (with their cumulative widenings
k_{m,s}) that gate the multiscale set constructions, and the narrow reset
intervals of half-width (delta^(s))^(3/4) whose membership defines the reset
set R(k) and the principal sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LadderRangeError, RegimeError
from .lattice import punctured_ball
from .model import Problem, ScaleLadder, sigma

BOUNDARY_TOL = 1e-14


@dataclass(frozen=True)
class ResonanceInterval:
    m: tuple
    s: int
    k_minus: float
    k_plus: float

    def contains(self, k: float) -> bool:
        return self.k_minus < k < self.k_plus


@dataclass(frozen=True)
class ResonanceProfile:
    k: float
    reset: tuple              # the n^(l)(k), ordered by |n|
    principal_sets: tuple     # m^(l)(k) as tuples of sites, l = 0..l(k)
    regime: tuple             # ("nonresonant", s) | ("simple_pair", n0) | ("graded", l)
    boundary_hits: tuple = ()


def k_point(freq, m) -> float:
    """k_m = -(m.omega)/2 for a Frequency freq; antisymmetric in m exactly."""
    return -0.5 * freq.dot(m)


def interval(freq, m, s: int, ladder: ScaleLadder) -> ResonanceInterval:
    """The widened exclusion interval (k^-_{m,s}, k^+_{m,s}).

    Half-width sigma(m) at s = 0, then widened by
    64 * sum of (delta^(r))^(1/2) over rungs r <= s-1 with
    (delta^(r))^(1/2) <= sigma(m).
    """
    km = k_point(freq, m)
    half = sigma(m, ladder)
    widen = 0.0
    for r in range(0, min(s, ladder.u_max + 1)):
        root = math.exp(0.5 * ladder.log_delta_at(r))
        if root <= half:
            widen += root
    widen *= 64.0
    return ResonanceInterval(tuple(m), s, km - half - widen, km + half + widen)


def reset(problem: Problem, k: float, search_radius: int) -> ResonanceProfile:
    """Reset set R(k), principal sets m^(l)(k), and the regime classification,
    on the problem's ladder.

    R(k) = {n != 0 : |k - k_n| < (delta^(s(n)))^(3/4)} over |n| <= radius,
    ordered by |n| (magnitudes are distinct under the Diophantine
    condition; a tie means it failed, and raises RegimeError).  Boundary
    hits within 1e-14 are reported separately instead of silently binned.
    """
    ladder = problem.ladder
    freq = problem.frequency
    if freq.window_n and search_radius > freq.window_n:
        raise LadderRangeError(
            f"search radius {search_radius} beyond the Diophantine certificate window "
            f"{freq.window_n}")
    pts = punctured_ball(search_radius, problem.nu)
    omega = np.asarray(freq.omega, dtype=float)
    kn = -0.5 * (pts @ omega)
    norms = np.abs(pts).sum(axis=1)
    # the half-width depends on n only through |n|: one per norm, taken at
    # the norm's first row, then indexed by norm
    _, first, by_norm = np.unique(norms, return_index=True, return_inverse=True)
    half = np.array([math.exp(0.75 * ladder.log_delta_at(ladder.scale_of(pts[i].tolist())))
                     for i in first])[by_norm]
    gap = np.abs(k - kn)
    tol = np.minimum(BOUNDARY_TOL, 0.25 * half)  # boundary band scales with narrow widths
    inside = gap < half - tol
    boundary = [tuple(n) for n in pts[~inside & (gap <= half + tol)].tolist()]
    # rows in canonical order, so the hits come ordered by norm
    hit_norms = norms[inside]
    reset_pts = tuple(tuple(n) for n in pts[inside].tolist())
    ties = np.flatnonzero(hit_norms[1:] == hit_norms[:-1])
    if len(ties):
        i = ties[0]
        raise RegimeError(f"reset entries with equal norm: {reset_pts[i]}, {reset_pts[i + 1]}")

    principal = []
    if reset_pts:
        zero = tuple([0] * problem.nu)
        current = {zero, reset_pts[0]}
        principal.append(tuple(sorted(current)))
        for n_l in reset_pts[1:]:
            mirrored = {tuple(a - b for a, b in zip(n_l, m)) for m in current}
            current = current | mirrored
            principal.append(tuple(sorted(current)))

    if not reset_pts:
        regime = ("nonresonant", ladder.u_max)
    elif len(reset_pts) == 1:
        regime = ("simple_pair", reset_pts[0])
    else:
        regime = ("graded", len(reset_pts) - 1)
    return ResonanceProfile(k, reset_pts, tuple(principal), regime, tuple(boundary))
