"""Trajectory combinatorics: weights, R-admissibility, certified sums.

A trajectory is a tuple of lattice sites with consecutive points distinct.
Weights follow

    w_D(gamma) = [prod w(n_j, n_{j+1})] * exp(sum_j D(n_j))
    W_D(gamma) = exp(-kappa0 ||gamma|| + sum_j D(n_j))

with ||gamma|| the total l1 path length.  Enumeration is exact over a finite
host set and every partial sum carries a certified tail, so the inequality
tests are sound rather than optimistic.

The certified sum takes the R-admissible class and the largest pair weight
w(m, n) = exp(-kappa0 |m - n|).  The paper's trajectory bounds hold for its
plain class too, and for every w below that cap; but every plain-admissible
path is R-admissible, so this sum dominates every other choice.  It is the
one worth checking, and the R class is the only one built here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CombinatorialBudgetError, EpsilonTooLargeError
from .lattice import SiteSet
from .model import log_smallness_ceiling

ADMISSIBILITY_EXPONENT = 0.2          # the 1/5 in the pairwise norm bound
HIGH_D_FACTOR = 4.0                   # threshold D >= 4 T / kappa0
CAP_SLACK = 1 + 1e-12                 # rounding allowed above the pair-weight cap


def _dist(a, b) -> int:
    return sum(abs(x - y) for x, y in zip(a, b))


def path_norm(points) -> int:
    return sum(_dist(a, b) for a, b in zip(points, points[1:]))


@dataclass(frozen=True)
class Trajectory:
    points: tuple

    def __post_init__(self):
        pts = tuple(map(tuple, self.points))
        object.__setattr__(self, "points", pts)
        if len(pts) < 1:
            raise ValueError("trajectory needs at least one point")
        if any(a == b for a, b in zip(pts, pts[1:])):
            raise ValueError("consecutive trajectory points must differ")


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
        return float(min(_dist(m, c) for c in self._complement))

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


def weights(g: Trajectory, prof: WeightProfile, w):
    """Return (w_D(g), W_D(g), ||g||, Dbar(g)); validates the pair weight w.

    Requires w(m, m) = 1 and w(m, n) <= exp(-kappa0 |m - n|) along the path.
    """
    pts = g.points
    norm = path_norm(pts)
    dsum = 0.0
    dbar = 0.0
    for p in pts:
        d = prof.D[tuple(p)]
        dsum += d
        dbar = max(dbar, d)
    prod = 1.0
    for a, b in zip(pts, pts[1:]):
        val = w(a, b)
        cap = math.exp(-prof.kappa0 * _dist(a, b))
        if val > cap * CAP_SLACK:
            raise ValueError(f"pair weight w({a},{b}) = {val:.3g} above exp(-kappa0 d) = {cap:.3g}")
        prod *= val
    if len(pts) == 1 and abs(w(pts[0], pts[0]) - 1.0) > 1e-12:
        raise ValueError("pair weight must satisfy w(m, m) = 1")
    w_val = prod * math.exp(dsum)
    W_val = math.exp(-prof.kappa0 * norm + dsum)
    return w_val, W_val, norm, dbar


def _pair_ok(prof: WeightProfile, pts, i, j) -> bool:
    """The pairwise 1/5-power condition between positions i < j."""
    dm = min(prof.D[pts[i]], prof.D[pts[j]])
    return dm <= prof.T * path_norm(pts[i:j + 1]) ** ADMISSIBILITY_EXPONENT


def is_admissible(g: Trajectory, prof: WeightProfile):
    """R-admissibility per the pairwise norm-growth condition.

    Every non-adjacent pair i < j with both D-values at or above 4T/kappa0
    must satisfy min D <= T ||segment||^(1/5).  Adjacent pairs are exempt,
    but an exempt pair that actually violates the single-step bound imposes
    the four flanking conditions around it.  Returns (bool, reason).

    sum_enumerate asks it only of paths with two sites of D >= 4T/kappa0.
    A valid profile allows such a D only where T mu^(1/5) >= D, so where
    mu >= (4/kappa0)^5, or where the ambient set lies inside the host and
    mu is infinite; no committed config or benchmark workload draws one.
    """
    pts = g.points
    k = len(pts)
    hi = prof.high_threshold
    high = [prof.D[p] >= hi for p in pts]
    for i in range(k):
        if not high[i]:
            continue
        for j in range(i + 2, k):
            if high[j] and not _pair_ok(prof, pts, i, j):
                return False, f"pair ({i},{j}) violates the norm bound"
    for i in range(k - 1):
        if not (high[i] and high[i + 1]):
            continue
        dm = min(prof.D[pts[i]], prof.D[pts[i + 1]])
        if dm <= prof.T * _dist(pts[i], pts[i + 1]) ** ADMISSIBILITY_EXPONENT:
            continue
        # exempt adjacent pair in force: flanking conditions
        for jp in range(i):
            if not (_pair_ok(prof, pts, jp, i) and _pair_ok(prof, pts, jp, i + 1)):
                return False, f"flanking condition fails at ({jp},{i})"
        for jq in range(i + 2, k):
            if not (_pair_ok(prof, pts, i, jq) and _pair_ok(prof, pts, i + 1, jq)):
                return False, f"flanking condition fails at ({i},{jq})"
    return True, ""


# ---------------------------------------------------------------------------
# Exact enumeration with certified tails
# ---------------------------------------------------------------------------

ENUMERATION_CAP = 2_000_000
PATH_BLOCK = 1 << 14                  # paths evaluated together; bounds the memory


@dataclass(frozen=True)
class SumResult:
    partial: float
    tail: float
    by_length: tuple

    @property
    def total(self) -> float:
        return self.partial + self.tail


def sum_enumerate(m, n, prof: WeightProfile, eps0: float, len_cap: int = 5) -> SumResult:
    """sum_k eps0^(k-1) sum over R-admissible gamma of w_D(gamma), plus tail.

    w_D takes the largest pair weight (see the module docstring).  Enumerates
    every trajectory of length <= len_cap inside the host with endpoints
    (m, n); the tail bound sums eps0^(k-1) e^(k Dbar) (8/kappa0)^((k-1) nu)
    over k > len_cap and errors if that series diverges.

    Each length's paths are host-index arrays in itertools.product order,
    PATH_BLOCK at a time, summed with the float operations of ``weights``
    in its order and a running total, so the result is that of the path
    by path loop.  Paths with fewer than two high-D sites are admissible.
    """
    m, n = tuple(m), tuple(n)
    host = prof.host.sites
    if m not in prof.host or n not in prof.host:
        raise ValueError("trajectory endpoints must lie in the host set")
    if len(host) ** max(0, len_cap - 2) > ENUMERATION_CAP:
        raise CombinatorialBudgetError(
            f"host of {len(host)} sites with len_cap {len_cap} exceeds the enumeration cap")

    D = np.array([prof.D[s] for s in host])
    high = D >= prof.high_threshold
    w = lambda a, b: math.exp(-prof.kappa0 * _dist(a, b))
    pair_w = np.ones((len(host),) * 2)
    for (i, a), (j, b) in itertools.permutations(enumerate(host), 2):
        pair_w[i, j] = w(a, b)

    def block_total(P, total):
        """total plus the weights of the admissible paths among the rows of P."""
        P = P[np.all(P[:, 1:] != P[:, :-1], axis=1)]
        keep = np.ones(len(P), dtype=bool)
        for r in np.flatnonzero(high[P].sum(axis=1) >= 2):
            keep[r] = is_admissible(Trajectory([host[i] for i in P[r]]), prof)[0]
        P = P[keep]
        dsum = sum(D[col] for col in P.T)
        prod = math.prod(pair_w[a, b] for a, b in zip(P.T, P.T[1:]))
        vals = prod * np.fromiter(map(math.exp, dsum.tolist()), float, len(P))
        return float(np.cumsum(np.concatenate(([total], vals)))[-1])

    ends = prof.host.index(m), prof.host.index(n)
    by_length = []
    partial = 0.0
    for k in range(1, len_cap + 1):
        total_k = weights(Trajectory((m,)), prof, w)[0] if k == 1 and m == n else 0.0
        count = len(host) ** (k - 2) if k > 1 else 0
        for start in range(0, count, PATH_BLOCK):
            t = np.arange(start, min(start + PATH_BLOCK, count))
            P = np.empty((len(t), k), dtype=np.int64)
            P[:, 0], P[:, -1] = ends
            for j in range(k - 2, 0, -1):  # the last interior site varies fastest
                t, P[:, j] = np.divmod(t, len(host))
            total_k = block_total(P, total_k)
        by_length.append(total_k)
        partial += (eps0 ** (k - 1)) * total_k

    if len(host) == 1:
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
        dist = _dist(m, n)
        mu_min = min(prof.mu(m), prof.mu(n))
        v1 = 3.0 * root * math.exp(-0.875 * k0 * dist + 2.0 * T * mu_min ** ADMISSIBILITY_EXPONENT)
        v2 = 2.0 * root * math.exp(-0.25 * k0 * dist + 2.0 * dbar)
    return BoundResult(min(v1, v2), ok)
