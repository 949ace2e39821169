"""Multiscale set construction: site classes, plain/symmetrized/paired sets
and correct-word combinatorics.

The plain set at scale s is B(3 R^(s)) with every straddling lower-scale set
removed; the symmetrized and paired variants instead remove whole
reflection-equivalence classes through an iterated subtraction that
stabilizes in fewer than 2^s steps by the correct-word bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CombinatorialBudgetError, GeometryError, RegimeError
from .lattice import BOX_POINT_CAP, SiteSet, ball, straddles
from .model import Problem, sigma
from .resonance import interval, k_point

WORD_SEARCH_BUDGET = 500_000

# ---------------------------------------------------------------------------
# Correct words
# ---------------------------------------------------------------------------


def is_correct_word(letters) -> bool:
    """A word is correct when no sub-word returns to a letter over a strictly
    lower interior: there is no pair j < k with a_j = a_k and
    max interior < a_j.  One-letter words are correct; the empty interior
    maximum counts as -infinity, so immediate repeats are incorrect.
    """
    a = list(letters)
    return all(_extension_correct(a[:k + 1]) for k in range(len(a)))


def max_correct_length(s: int) -> int:
    """Longest correct word over {1..s}, by depth-first search over correct
    prefixes (prefixes of correct words are correct, so pruning is exact).
    """
    if s > 4:
        raise CombinatorialBudgetError("exhaustive word search supported for s <= 4 only")
    best = 0
    visited = 0
    stack = [()]
    while stack:
        prefix = stack.pop()
        best = max(best, len(prefix))
        for letter in range(1, s + 1):
            word = prefix + (letter,)
            visited += 1
            if visited > WORD_SEARCH_BUDGET:
                raise CombinatorialBudgetError("word enumeration budget exceeded")
            if _extension_correct(word):
                stack.append(word)
    return best


def _extension_correct(word) -> bool:
    # only sub-words ending at the new letter need checking
    a = word
    k = len(a) - 1
    for j in range(k):
        if a[j] == a[k] and all(a[i] < a[j] for i in range(j + 1, k)):
            return False
    return True


# ---------------------------------------------------------------------------
# Site classification and the Lambda sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiteClassification:
    """The sets M^(s')_{k, s-1} with their Lambda sets, for s' = 1..s-1."""

    members: dict            # s' -> tuple of lattice vectors
    lambda_sets: dict        # (s', m) -> SiteSet


class GeometryBuilder:
    """The recursive Lambda-set construction for one problem, on its ladder.

    A builder keeps no sets: every call builds its set afresh.  The balls
    and the classification window those sets are cut from do not depend on
    k; they are built once per process (lattice.ball, _window).  So are the
    window's phases m.omega, sorted (_phases, about 0.8 MB at radius 109):
    the first classification on a window pays for the sort, and each later
    one tests only the sites in two bands of phases (_near).
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self.ladder = problem.ladder
        if self.ladder is None:
            raise ValueError("geometry requires a scale ladder")
        self.budget = problem.site_budget

    def _candidates(self, window_radius: int) -> np.ndarray:
        nu = self.problem.nu
        count = (2 * window_radius + 1) ** nu
        if count > BOX_POINT_CAP:
            raise CombinatorialBudgetError(f"classification window of {count} points too large")
        return _window(window_radius, nu)

    def threshold(self, s_prime: int, s: int) -> float:
        """Class threshold at level s' inside the level-(s-1) classification."""
        base = (math.exp(self.ladder.log_delta_at(0)) / 16.0 if s_prime == 1
                else 0.75 * math.exp(self.ladder.log_delta_at(s_prime - 1)))
        shave = sum(math.exp(self.ladder.log_delta_at(s2 - 1))
                    for s2 in range(s_prime + 1, s))
        return base - shave

    def admissible_k(self, k: float, s: int, window_radius: int) -> bool:
        """k outside every (k^-_{m,s-1}, k^+_{m,s-1}) for 0 < |m| <= radius.

        Every m in the window is checked: an m beyond the ladder
        (LadderRangeError) or a window over the point cap
        (CombinatorialBudgetError) raises rather than answering.
        """
        for m in self._candidates(window_radius):
            if not m.any():
                continue
            iv = interval(self.problem.frequency, tuple(int(c) for c in m),
                          max(s - 1, 0), self.ladder)
            if iv.contains(k):
                return False
        return True

    def site_classes(self, k: float, s: int, pair=None) -> SiteClassification:
        """The classification M^(s')_{k, s-1}, s' = 1..s-1, with Lambda sets.

        Separation |m1 - m2| > 12 R^(s') is enforced within each class;
        a declared principal pair is exempt.  The sigma-interval
        admissibility of k is not part of the classification; admissible_k
        answers it on request.
        """
        if s < 2:
            raise ValueError("site classes exist for s >= 2")
        # the window must reach every potential straddler of B(3 R^(s))
        window_radius = int(math.floor(
            3.0 * self.ladder.R(s) + 3.0 * self.ladder.R(s - 1))) + 1
        pts = self._candidates(window_radius)
        mw, order = _phases(window_radius, tuple(self.problem.omega))
        members = {}
        lambda_sets = {}
        taken = SiteSet()
        pair_pts = {tuple(p) for p in pair} if pair else set()
        for s_prime in range(s - 1, 0, -1):
            thr = self.threshold(s_prime, s)
            near = pts[_near(mw, order, k, thr)] if thr > 0 else ()
            mem = SiteSet(near).difference(taken).sites
            # separation within the class (principal pair exempt)
            limit = 12.0 * self.ladder.R(s_prime)
            for i in range(len(mem)):
                for j in range(i + 1, len(mem)):
                    if mem[i] in pair_pts and mem[j] in pair_pts:
                        continue
                    gap = sum(abs(a - b) for a, b in zip(mem[i], mem[j]))
                    if gap <= limit:
                        raise GeometryError(
                            f"class separation violated at level {s_prime}: "
                            f"{mem[i]} and {mem[j]} are {gap} <= 12 R^({s_prime}) apart")
            members[s_prime] = mem
            for m in mem:
                lam = self.lambda_plain(k + self.problem.frequency.dot(m), s_prime)
                lambda_sets[(s_prime, m)] = lam.translate(m)
            taken = taken.union(*(lambda_sets[(s_prime, m)] for m in mem))
        return SiteClassification(members, lambda_sets)

    # -- the Lambda sets -----------------------------------------------------

    def lambda_plain(self, k: float, s: int) -> SiteSet:
        """Lambda^(s)_k(0): B(3 R^(s)) minus every straddling lower-scale set;
        B(2 R^(1)) at s = 1."""
        if s == 1:
            return ball(2.0 * self.ladder.R(1), self.problem.nu, budget=self.budget)
        return self._plain(k, s, self.site_classes(k, s))

    def _plain(self, k: float, s: int, classes: SiteClassification) -> SiteSet:
        """lambda_plain(k, s) for s >= 2, cut with classes = site_classes(k, s)."""
        big = ball(3.0 * self.ladder.R(s), self.problem.nu, budget=self.budget)
        drop = [lam for lam in classes.lambda_sets.values() if straddles(lam, big)]
        out = big.difference(SiteSet.union(*drop)) if drop else big
        self._require_sandwich(out, s, k, (0,) * self.problem.nu)
        self._require_dichotomy(out, classes)
        return out

    def lambda_sym(self, k: float, s: int) -> SiteSet:
        """Reflection-symmetrized Lambda set at small |k|: the symmetrization
        about 0 (_symmetrized), which must lie in the plain set."""
        if s < 2:
            raise ValueError("symmetrized sets start at s = 2")
        if abs(k) >= math.exp(self.ladder.log_delta_at(s - 2)):
            raise RegimeError(
                f"|k| = {abs(k):.3g} outside the small-k regime delta^(s-2)")
        classes = self.site_classes(k, s)
        _, out = self._symmetrized(k, s, (0,) * self.problem.nu, classes)
        if not out.issubset(self._plain(k, s, classes)):
            raise GeometryError("symmetrized set escapes the plain set")
        return out

    def lambda_pair(self, k: float, s: int, n0) -> SiteSet:
        """T-invariant paired set around the resonance pair {0, n0}: the
        symmetrization about n0 (_symmetrized), T(n) = n0 - n.  At s = 1
        there is no lower level to remove, so it is B(3 R^(1)) u T(B(3 R^(1)))."""
        n0 = tuple(n0)
        kn0 = k_point(self.problem.frequency, n0)
        if abs(k - kn0) > 2.0 * sigma(n0, self.ladder):
            raise RegimeError(
                f"k = {k:.6g} outside the pair window around k_n0 = {kn0:.6g}")
        classes = (SiteClassification({}, {}) if s == 1
                   else self.site_classes(k, s, pair=((0,) * self.problem.nu, n0)))
        start, out = self._symmetrized(k, s, n0, classes)
        if not out.issubset(start):
            raise GeometryError("paired set escapes its outer envelope")
        return out

    def _symmetrized(self, k: float, s: int, center, classes: SiteClassification):
        """(start, out): the level-s set symmetrized about center, T(n) = center - n.

        From start = B(3 R^(s)) u T(B(3 R^(s))), whole groups
        Lambda(m) u T(Lambda(m)) are removed while they straddle; this
        stabilizes in fewer than 2^s steps by the correct-word bound.  out
        must be T-invariant, keep B(2 R^(s)) and center + B(2 R^(s)), and
        straddle no Lambda set of the classification.
        """
        big = ball(3.0 * self.ladder.R(s), self.problem.nu, budget=self.budget)
        # a ball is symmetric: T(B) is center + B, and B itself at center 0
        start = big.union(big.translate(center)) if any(center) else big
        out, _ = _iterated_straddle_removal(start, _reflection_groups(classes, center), 2 ** s)
        # T is a bijection and out is finite: T(out) <= out iff T(out) == out
        if out.reflect_through(center) != out:
            raise GeometryError(f"level-{s} set is not T-invariant for T(n) = {center} - n "
                                "(not reflection invariant)")
        self._require_sandwich(out, s, k, center)
        self._require_dichotomy(out, classes)
        return start, out

    # -- validations ----------------------------------------------------------

    def _require_sandwich(self, out: SiteSet, s: int, k: float, center):
        inner = ball(2.0 * self.ladder.R(s), self.problem.nu, budget=self.budget)
        if not inner.issubset(out) or any(center) and not inner.translate(center).issubset(out):
            raise GeometryError(f"B(2 R^({s})) or {center} + B(2 R^({s})) not contained "
                                f"in the level-{s} set at k={k}")

    def _require_dichotomy(self, out: SiteSet, classes: SiteClassification):
        for (s_prime, m), lam in classes.lambda_sets.items():
            if straddles(lam, out):
                raise GeometryError(
                    f"set Lambda^({s_prime})({m}) straddles the constructed set")


@lru_cache(maxsize=4)
def _window(window_radius: int, nu: int):
    """The points of the (2 window_radius + 1)^nu box, read-only.

    Built once per process for each (window_radius, nu); callers check
    BOX_POINT_CAP first.
    """
    grids = np.meshgrid(*([np.arange(-window_radius, window_radius + 1)] * nu), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    pts.flags.writeable = False
    return pts


@lru_cache(maxsize=4)
def _phases(window_radius: int, omega: tuple):
    """(phases, order): the phases m.omega of the _window points, sorted,
    and the window indices in that order, read-only.

    The phases do not depend on k, so they are built once per process for
    each (window_radius, omega), by the same float product as a scan of the
    whole window; callers check BOX_POINT_CAP first.
    """
    mw = _window(window_radius, len(omega)).astype(float) @ np.asarray(omega, dtype=float)
    order = np.argsort(mw, kind="stable")
    mw = mw[order]
    for a in (mw, order):
        a.flags.writeable = False
    return mw, order


def _near(mw: np.ndarray, order: np.ndarray, k: float, thr: float) -> np.ndarray:
    """Window indices of the m with |v(m, k) - v(0, k)| <= thr, normalized
    units at lambda = 256: |mw (mw + 2k)| / 256 <= thr, mw = m.omega.  An m
    in both bands below is listed twice.

    mw (sorted) and order are _phases.  A product |x (x + 2k)| <= T forces
    min(|x|, |x + 2k|) <= sqrt(T), so only the two bands |mw| <= h and
    |mw + 2k| <= h, h = 16 sqrt(thr), are tested.  The test rounds
    mw + 2k and the product, and the band edges round too: each by a few
    ulps, relative to h or to |2k|.  Widening h by 1e-12 relative and
    1e-15 (1 + |k|) absolute covers that with room to spare.
    """
    h = 16.0 * math.sqrt(thr) * (1.0 + 1e-12) + 1e-15 * (1.0 + abs(k))
    idx = np.concatenate([np.arange(*np.searchsorted(mw, (c - h, c + h)))
                          for c in (0.0, -2.0 * k)])
    cand = mw[idx]
    return order[idx[np.abs(cand * (cand + 2.0 * k)) / 256.0 <= thr]]


def _reflection_groups(classes: SiteClassification, center):
    """The groups Lambda(m) = Lambda^(s')(m) u T(Lambda^(s')(m)), T(n) = center - n.

    T is an involution, so m and T(m) of one level form a group (or m
    alone); each group carries its level and the union of its sets and
    their mirrors.
    """
    out, done = [], set()
    for key in classes.lambda_sets:
        if key in done:
            continue
        s_prime, m = key
        members = {key, (s_prime, tuple(c - x for c, x in zip(center, m)))}
        members &= classes.lambda_sets.keys()
        done |= members
        lams = [classes.lambda_sets[k] for k in members]
        out.append((s_prime, SiteSet.union(*lams, *(lam.reflect_through(center) for lam in lams))))
    return out


def _iterated_straddle_removal(start: SiteSet, groups, cap: int):
    """B(l) = B(l-1) minus the union of straddling group sets; returns (set, steps)."""
    current = start
    steps = 0
    while True:
        drop = [gset for level, gset in groups if straddles(gset, current)]
        if not drop:
            return current, steps
        current = current.difference(SiteSet.union(*drop))   # each group meets it
        steps += 1
        if steps >= cap:
            raise GeometryError(f"straddle removal failed to stabilize within {cap} steps")

