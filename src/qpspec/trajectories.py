"""Trajectory sums with certified tails, and their closed-form ceilings.

A trajectory is a tuple of host sites with consecutive points distinct.
Its weight at the largest pair weight w(a, b) = exp(-kappa0 |a - b|) is

    w_D(gamma) = exp(-kappa0 ||gamma|| + sum_j D(n_j))

with ||gamma|| the total l1 path length.  The sum over every host path of
length k from m to n is (E (P E)^(k-1))[m, n], with E = diag(exp D) and P
the pair weights with a zero diagonal; each partial sum carries a certified
tail, so the inequality tests are sound rather than optimistic.

The class summed is every host path, not the paper's R-admissible class.
The two sums are equal when fewer than two host sites have D >= 4 T /
kappa0, which holds for every committed config and benchmark workload.
Otherwise the sum bounds the R-admissible sum from above, so a sum under
the closed bound is still a sound pass.  The paper's bounds hold for every
pair weight below exp(-kappa0 |a - b|), so the largest one dominates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EpsilonTooLargeError
from .lattice import SiteSet, l1_norm
from .model import log_smallness_ceiling

ADMISSIBILITY_EXPONENT = 0.2          # the 1/5 power of the profile cap and closed bound
HIGH_D_FACTOR = 4.0                   # threshold D >= 4 T / kappa0


@dataclass(frozen=True)
class WeightProfile:
    """D-profile on a host set inside an ambient set, with (T, kappa0).

    Membership in the admissible profile class requires
    D(m) <= T mu(m)^(1/5) whenever D(m) >= 4 T / kappa0, where
    mu(m) = dist(m, ambient \\ host).
    """

    D: dict
    T: float
    kappa0: float
    host: SiteSet
    ambient: SiteSet
    _complement: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "D", {tuple(k): float(v) for k, v in self.D.items()})
        comp = tuple(s for s in self.ambient if s not in self.host)
        object.__setattr__(self, "_complement", comp)

    @property
    def high_threshold(self) -> float:
        return HIGH_D_FACTOR * self.T / self.kappa0

    def mu(self, m) -> float:
        if not self._complement:
            return float("inf")
        m = tuple(m)
        return float(min(l1_norm(x - y for x, y in zip(m, c)) for c in self._complement))

    def dbar(self) -> float:
        return max(self.D.values()) if self.D else 1.0


def validate_profile(prof: WeightProfile):
    """Violations of the profile class; empty list means the profile is valid."""
    report = []
    if prof.kappa0 <= 0 or prof.kappa0 >= 1:
        report.append("kappa0 must lie in (0, 1)")
    for m in prof.host:
        d = prof.D.get(m)
        if d is None:
            report.append(f"missing D value at {m}")
            continue
        if d < 1.0:
            report.append(f"D({m}) = {d} below 1")
        if d >= prof.high_threshold and d > prof.T * prof.mu(m) ** ADMISSIBILITY_EXPONENT:
            report.append(f"D({m}) = {d} violates the mu^(1/5) cap")
    return report


@dataclass(frozen=True)
class SumResult:
    partial: float
    tail: float
    by_length: tuple

    @property
    def total(self) -> float:
        return self.partial + self.tail


def sum_enumerate(m, n, prof: WeightProfile, eps0: float, len_cap: int = 5) -> SumResult:
    """sum_k eps0^(k-1) sum over host paths gamma of length k of w_D(gamma),
    plus tail.

    The paths of length <= len_cap inside the host with endpoints (m, n)
    are summed by one vector-matrix product per length, v_1 = exp(D_m) e_m
    and v_k = (v_(k-1) P) * exp(D), whose n-th entry is the length-k sum
    (see the module docstring).  The tail bound sums eps0^(k-1) e^(k Dbar)
    (8/kappa0)^((k-1) nu) over k > len_cap and errors if that series
    diverges.
    """
    m, n = tuple(m), tuple(n)
    if m not in prof.host or n not in prof.host:
        raise ValueError("trajectory endpoints must lie in the host set")
    E = np.exp([prof.D[s] for s in prof.host])
    A = prof.host.array()
    P = np.exp(-prof.kappa0 * np.abs(A[:, None, :] - A[None, :, :]).sum(axis=2))
    np.fill_diagonal(P, 0.0)

    v = np.zeros(len(E))
    i, j = prof.host.index(m), prof.host.index(n)
    v[i] = E[i]
    by_length = []
    partial = 0.0
    for k in range(1, len_cap + 1):
        if k > 1:
            v = (v @ P) * E
        total_k = float(v[j])
        by_length.append(total_k)
        partial += (eps0 ** (k - 1)) * total_k

    if len(E) == 1:
        # no host trajectory of length >= 2 exists
        return SumResult(partial, 0.0, tuple(by_length))
    nu = prof.host.nu
    dbar = prof.dbar()
    ratio = eps0 * math.exp(dbar) * (8.0 / prof.kappa0) ** nu
    if ratio >= 1.0:
        raise EpsilonTooLargeError(
            f"tail series diverges: eps0 e^Dbar (8/kappa0)^nu = {ratio:.3g} >= 1")
    # sum_{k > K} eps0^(k-1) e^(k Dbar) q^(k-1) = e^Dbar ratio^K / (1 - ratio)
    tail = math.exp(dbar) * ratio ** len_cap / (1.0 - ratio)
    return SumResult(partial, tail, tuple(by_length))


@dataclass(frozen=True)
class BoundResult:
    value: float
    threshold_ok: bool


def closed_bound(m, n, prof: WeightProfile, eps0: float) -> BoundResult:
    """Closed-form ceiling for the weighted trajectory sum between m and n.

    Off-diagonal: min(3 sqrt(eps0) exp(-(7/8) kappa0 |m-n| + 2 T (min mu)^(1/5)),
                      2 sqrt(eps0) exp(-(1/4) kappa0 |m-n| + 2 Dbar)).
    Diagonal:     min(exp(D(m)) + 3 sqrt(eps0) exp(2 T mu(m)^(1/5)),
                      2 exp(2 Dbar)).

    threshold_ok records whether eps0 sits below the power-law part of the
    smallness ceiling, log_smallness_ceiling at t = T; its exponential third
    term exp(-(8 T / kappa0)^5) is below every positive float.
    """
    bad = validate_profile(prof)
    if bad:
        raise ValueError(f"invalid weight profile: {bad[0]}")
    m, n = tuple(m), tuple(n)
    ok = math.log(eps0) <= log_smallness_ceiling(prof.kappa0, prof.host.nu, prof.T)
    root = math.sqrt(eps0)
    k0 = prof.kappa0
    T = prof.T
    dbar = prof.dbar()
    if m == n:
        v1 = math.exp(prof.D[m]) + 3.0 * root * math.exp(2.0 * T * prof.mu(m) ** ADMISSIBILITY_EXPONENT)
        v2 = 2.0 * math.exp(2.0 * dbar)
    else:
        dist = l1_norm(x - y for x, y in zip(m, n))
        mu_min = min(prof.mu(m), prof.mu(n))
        v1 = 3.0 * root * math.exp(-0.875 * k0 * dist + 2.0 * T * mu_min ** ADMISSIBILITY_EXPONENT)
        v2 = 2.0 * root * math.exp(-0.25 * k0 * dist + 2.0 * dbar)
    return BoundResult(min(v1, v2), ok)
