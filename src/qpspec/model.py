"""Problem data: frequency vector, potential coefficients, scale ladder.

The ladder and the smallness thresholds live in natural-log space, so the
recursions run unchanged from caller-chosen small seeds and materialize
only where a set construction or an eigensolve needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LadderRangeError, SiteBudgetError
from .lattice import DEFAULT_SITE_BUDGET, l1_ball_size, l1_norm, punctured_ball


@dataclass(frozen=True)
class Frequency:
    """Frequency vector with a finite-window Diophantine certificate.

    The certificate asserts |n.omega| >= a0 |n|^(-b0) for 0 < |n| <= window_n,
    where n.omega is the plain inner product (a linear form, not a distance
    to the nearest integer).
    """

    omega: tuple
    a0: float
    b0: float
    window_n: int = 0

    def __post_init__(self):
        if self.window_n < 0:
            raise ValueError("the Diophantine window must be >= 0")
        if not (self.omega and all(abs(w) <= 1 + 1e-15 for w in self.omega)):
            raise ValueError("normalization requires finite |omega_j| <= 1")
        if not (0 < self.a0 < 1):
            raise ValueError("a0 must lie in (0, 1)")
        nu = len(self.omega)
        # Section 1 asks only b0 > nu - 1; the construction uses b0 > nu.
        if not (self.b0 > nu):
            raise ValueError(f"b0 must exceed the lattice dimension nu={nu}")

    @property
    def nu(self) -> int:
        return len(self.omega)

    def dot(self, n) -> float:
        return float(np.dot(np.asarray(self.omega), np.asarray(n, dtype=float)))


def diophantine_margin(freq: Frequency, N: int):
    """Worst Diophantine constant |n.omega| * |n|^b0 over 0 < |n| <= N.

    Returns (margin, witness); the finite-window certificate is valid iff
    margin >= a0.  Exhaustive over the l1 ball, vectorized.
    """
    if N < 1:
        raise ValueError("window must contain at least the unit vectors")
    pts = punctured_ball(N, freq.nu)
    norms = np.abs(pts).sum(axis=1)
    vals = np.abs(pts @ np.asarray(freq.omega)) * norms.astype(float) ** freq.b0
    # exact ties (rational omega) go to the lexicographically first witness
    ties = np.flatnonzero(vals == vals.min())
    i = int(ties[np.lexsort(pts[ties].T[::-1])[0]])
    return float(vals[i]), tuple(int(c) for c in pts[i])


@dataclass(frozen=True)
class Potential:
    """Fourier data split as c(n) = epsilon * c0(n), |c0(n)| <= exp(-kappa0 |n|).

    `coefficients` stores the table c0 (no entry at n = 0); epsilon is kept
    separately so an epsilon sweep reuses one table.
    """

    coefficients: dict
    epsilon: float
    kappa0: float

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", {tuple(k): complex(v) for k, v in self.coefficients.items()}
        )

    @staticmethod
    def from_harmonics(entries, epsilon: float, kappa0: float) -> "Potential":
        """Build a Hermitian table from {n: value} by completing conjugates.

        If both n and -n are supplied they must already be conjugate.
        """
        table = {}
        for n, v in dict(entries).items():
            n = tuple(n)
            v = complex(v)
            neg = tuple(-c for c in n)
            if n in table and table[n] != v:
                raise ValueError(f"conflicting values at {n}")
            table[n] = v
            table.setdefault(neg, v.conjugate())
        return Potential(table, epsilon, kappa0)

    def c0(self, n) -> complex:
        return self.coefficients.get(tuple(n), 0j)

    def c(self, n) -> complex:
        """Physical Fourier coefficient epsilon * c0(n)."""
        return self.epsilon * self.c0(n)

    def support(self):
        return tuple(self.coefficients.keys())


def validate_potential(p: Potential):
    """Collect every violated constraint; an empty report means valid.

    Checks Hermitian pairing c0(-n) = conj c0(n) exactly and the decay
    budget |c0(n)| <= exp(-kappa0 |n|).  Never raises.
    """
    report = []
    if not (p.epsilon > 0):
        report.append("epsilon must be positive")
    if not (0 < p.kappa0 <= 0.5):
        report.append(f"kappa0={p.kappa0} outside (0, 1/2]")
    for n, v in p.coefficients.items():
        if all(c == 0 for c in n):
            report.append("coefficient stored at n = 0")
            continue
        neg = tuple(-c for c in n)
        partner = p.coefficients.get(neg)
        if partner is None:
            report.append(f"missing Hermitian partner for {n}")
        elif partner != v.conjugate():
            report.append(f"Hermitian mismatch at {n}: c0(-n) != conj c0(n)")
        bound = math.exp(-p.kappa0 * l1_norm(n))
        if abs(v) > bound * (1 + 1e-12):
            report.append(f"decay violation at {n}: |c0|={abs(v):.6g} > exp(-kappa0|n|)={bound:.6g}")
    return report


# ---------------------------------------------------------------------------
# Scale ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleLadder:
    """The (R^(u), delta0^(u)) recursion held in natural-log space.

    log_delta[0] is the seed rung delta0^(0); log_R[u-1] and log_delta[u]
    (u = 1..u_max) satisfy

        log R^(u)     = -beta1 * log delta0^(u-1)
        log delta^(u) = -(log R^(u))^2

    exactly in the stored representation.
    """

    beta1: float
    log_R: tuple          # length u_max, rungs 1..u_max
    log_delta: tuple      # length u_max + 1, rungs 0..u_max
    exact_recursion: bool = True

    @property
    def u_max(self) -> int:
        return len(self.log_R)

    def log_R_at(self, u: int) -> float:
        if u == 0:
            return float("-inf")  # R^(0) := 0
        if not (1 <= u <= self.u_max):
            raise LadderRangeError(f"rung {u} outside ladder range 1..{self.u_max}")
        return self.log_R[u - 1]

    def log_delta_at(self, u: int) -> float:
        if not (0 <= u <= self.u_max):
            raise LadderRangeError(f"rung {u} outside ladder range 0..{self.u_max}")
        return self.log_delta[u]

    def R(self, u: int) -> float:
        if u == 0:
            return 0.0
        return math.exp(self.log_R_at(u))

    def scale_of(self, m) -> int:
        """The rung s with 12 R^(s-1) < |m| <= 12 R^(s); s=0 reserved for m=0."""
        r = l1_norm(m)
        if r == 0:
            return 0
        logr = math.log(r / 12.0)
        for u in range(1, self.u_max + 1):
            if logr <= self.log_R[u - 1]:
                return u
        raise LadderRangeError(f"|m|={r} beyond rung u_max={self.u_max}")

    @staticmethod
    def from_sequences(beta1, log_R, log_delta) -> "ScaleLadder":
        """Synthetic ladder from explicit sequences (geometry experiments).

        Only monotonicity is validated; the exact recursion flag is cleared.
        """
        log_R = tuple(float(x) for x in log_R)
        log_delta = tuple(float(x) for x in log_delta)
        if len(log_delta) != len(log_R) + 1:
            raise ValueError("need log_delta rungs 0..u_max and log_R rungs 1..u_max")
        if any(b <= a for a, b in zip(log_R, log_R[1:])):
            raise ValueError("R must increase strictly")
        if any(b >= a for a, b in zip(log_delta, log_delta[1:])):
            raise ValueError("delta must decrease strictly")
        return ScaleLadder(beta1, log_R, log_delta, exact_recursion=False)


def build_ladder(delta0: float, beta1: float, u_max: int,
                 site_budget: int = DEFAULT_SITE_BUDGET, nu: int = 2) -> ScaleLadder:
    """Build the scale ladder from a seed delta0.

    log R^(1) = -beta1 log delta0, and R^(1) must fit the site budget, so
    that the sets the ladder sizes can be materialized.
    """
    if not (0 < delta0 < 1):
        raise ValueError("delta0 must lie in (0, 1)")
    if beta1 <= 0 or u_max < 1:
        raise ValueError("need beta1 > 0 and u_max >= 1")
    log_d0 = math.log(delta0)
    log_R = [-beta1 * log_d0]
    log_delta = [log_d0]
    if beta1 * log_R[0] <= 1.0:
        raise ValueError(
            "ladder not monotone: need beta1 * log R^(1) > 1 "
            f"(got beta1={beta1}, log R1={log_R[0]:.4g})")
    for _ in range(1, u_max):
        log_delta.append(-(log_R[-1] ** 2))
        log_R.append(-beta1 * log_delta[-1])
    log_delta.append(-(log_R[-1] ** 2))

    if log_R[0] > math.log(_radius_for_budget(site_budget, nu)):
        raise SiteBudgetError(
            f"R^(1)=exp({log_R[0]:.3g}) exceeds the materializable radius "
            f"for budget {site_budget}")
    return ScaleLadder(beta1, tuple(log_R), tuple(log_delta))


def _radius_for_budget(budget: int, nu: int) -> int:
    r = 1
    while l1_ball_size(r + 1, nu) <= budget:
        r += 1
    return r


def sigma(m, ladder: ScaleLadder) -> float:
    """Resonance half-width 32 (delta0^(s-1))^(1/6) at the bracketing scale of m.

    sigma(0) = 32 (delta0^(0))^(1/6).  Errors if |m| lies beyond the ladder.
    """
    s = ladder.scale_of(m)
    rung = 0 if s == 0 else s - 1
    return 32.0 * math.exp(ladder.log_delta_at(rung) / 6.0)


# ---------------------------------------------------------------------------
# Smallness thresholds
# ---------------------------------------------------------------------------


def log_smallness_ceiling(kappa0: float, nu: int, t: float) -> float:
    """log min(2^(-24 nu - 4) kappa0^(4 nu), 2^(-10 (nu+1)) t^(-8 nu)), the
    power-law part of the smallness ceiling."""
    return min((-24 * nu - 4) * math.log(2.0) + 4 * nu * math.log(kappa0),
               -10 * (nu + 1) * math.log(2.0) - 8 * nu * math.log(t))


def log_eps0_threshold(ladder: ScaleLadder, kappa0: float, nu: int) -> float:
    """log of the threshold epsilon_0 = (bar eps_0)^3, where

    bar eps_0 = min(2^(-24 nu - 4) kappa0^(4 nu), delta0^(2^9),
                    2^(-10 (nu+1)) (4 kappa0 log delta0^-1)^(-8 nu)).
    """
    log_d0 = ladder.log_delta_at(0)
    return 3.0 * min(log_smallness_ceiling(kappa0, nu, 4.0 * kappa0 * (-log_d0)),
                     (2 ** 9) * log_d0)


# ---------------------------------------------------------------------------
# Problem: bundled configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """Everything the operator and geometry modules need, in one place."""

    frequency: Frequency
    potential: Potential
    ladder: ScaleLadder = None
    site_budget: int = DEFAULT_SITE_BUDGET

    @property
    def nu(self) -> int:
        return self.frequency.nu

    @property
    def omega(self) -> tuple:
        return self.frequency.omega

    @cached_property
    def diophantine(self):
        """(margin, witness) over the recorded window, or None without one."""
        window = self.frequency.window_n
        return diophantine_margin(self.frequency, window) if window else None

    def validate(self):
        report = validate_potential(self.potential)
        if self.diophantine is not None:
            margin, witness = self.diophantine
            if margin < self.frequency.a0:
                report.append(
                    f"Diophantine certificate fails at n={witness}: margin {margin:.3g} < a0")
        return report
