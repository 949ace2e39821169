"""Integer lattice primitives: l1 norm, balls, reflections and set relations.

Sites are plain tuples of ints.  A SiteSet keeps its sites in a canonical
order (l1 norm, then lexicographic) so that every matrix restriction built
on top of it is reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, floor
from operator import add, neg, sub

import numpy as np

from .errors import SiteBudgetError

Site = tuple

DEFAULT_SITE_BUDGET = 20_000


def l1_norm(n) -> int:
    """Sum of absolute coordinates."""
    return sum(map(abs, n))


def l1_ball_size(radius: int, nu: int) -> int:
    """Number of integer points with l1 norm <= radius (radius >= 0)."""
    if radius < 0:
        return 0
    return sum((2 ** j) * comb(nu, j) * comb(radius, j) for j in range(0, min(nu, radius) + 1))


def canonical_order(sites) -> tuple:
    """Deterministic ordering: by l1 norm, then lexicographic."""
    return tuple(sorted(dict.fromkeys(map(tuple, sites)), key=lambda s: (sum(map(abs, s)), s)))


def _members(sites):
    """Membership table of a site collection; a SiteSet's own index when it is one."""
    return sites._index if isinstance(sites, SiteSet) else set(map(tuple, sites))


@dataclass(frozen=True)
class SiteSet:
    """Finite subset of Z^nu with canonical ordering.

    The canonical order is l1 norm, then lexicographic.  ``ball``,
    ``difference`` and ``intersection`` keep it by construction, with no
    sort; ``from_iterable``, ``union``, ``translate``, ``reflect`` and
    ``reflect_through`` sort once.  The one SiteSet that is not canonical
    is the one ``dual_operator.restrict(order=...)`` builds in caller order.

    Immutable after construction; all derived data is precomputed so
    concurrent reads are safe.
    """

    sites: tuple
    _index: dict = field(init=False, repr=False, compare=False)

    @staticmethod
    def from_iterable(sites) -> "SiteSet":
        return SiteSet(canonical_order(sites))

    def __post_init__(self):
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.sites)})

    def __len__(self):
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)

    def __contains__(self, site):
        return tuple(site) in self._index

    def index(self, site) -> int:
        return self._index[tuple(site)]

    @property
    def nu(self) -> int:
        return len(self.sites[0]) if self.sites else 0

    def array(self) -> np.ndarray:
        return np.asarray(self.sites, dtype=np.int64).reshape(len(self.sites), -1)

    def translate(self, m) -> "SiteSet":
        m = tuple(m)
        return SiteSet.from_iterable(tuple(map(add, s, m)) for s in self.sites)

    def reflect(self) -> "SiteSet":
        return SiteSet.from_iterable(tuple(map(neg, s)) for s in self.sites)

    def reflect_through(self, m) -> "SiteSet":
        m = tuple(m)
        return SiteSet.from_iterable(tuple(map(sub, m, s)) for s in self.sites)

    def union(self, other) -> "SiteSet":
        return SiteSet.from_iterable(itertools.chain(self.sites, other))

    def difference(self, other) -> "SiteSet":
        drop = _members(other)
        return SiteSet(tuple(s for s in self.sites if s not in drop))

    def intersection(self, other) -> "SiteSet":
        keep = _members(other)
        return SiteSet(tuple(s for s in self.sites if s in keep))

    def issubset(self, other) -> bool:
        keep = _members(other)
        return all(s in keep for s in self.sites)

    def issuperset(self, sites) -> bool:
        """True iff every site of `sites`, each a tuple, is in this set."""
        return all(s in self._index for s in sites)

    def isdisjoint(self, other) -> bool:
        if isinstance(other, SiteSet) and len(other) < len(self):
            return other.isdisjoint(self)
        keep = _members(other)
        return all(s not in keep for s in self.sites)


def _shell(r: int, nu: int) -> list:
    """The sites of l1 norm exactly r in Z^nu, in lexicographic order."""
    if nu == 1:
        return [(-r,), (r,)] if r else [(0,)]
    return [(c,) + rest for c in range(-r, r + 1) for rest in _shell(r - abs(c), nu - 1)]


def ball(R: float, nu: int, budget: int = DEFAULT_SITE_BUDGET) -> SiteSet:
    """All n in Z^nu with l1_norm(n) <= R.  Symmetric under n -> -n.

    Built shell by shell, lexicographic within a shell: canonical order
    with no sort.  Refuses to materialize more than `budget` sites; the
    budget guards desk-scale memory against faithful-constant radii.
    """
    if R < 0:
        raise ValueError("ball radius must be nonnegative")
    r = floor(R)
    size = l1_ball_size(r, nu)
    if budget is not None and size > budget:
        raise SiteBudgetError(f"ball(R={R}, nu={nu}) holds {size} sites, over budget {budget}")
    return SiteSet(tuple(itertools.chain.from_iterable(_shell(j, nu) for j in range(r + 1))))


def straddles(S1, S2) -> bool:
    """True iff S1 meets S2 and also meets the complement of S2."""
    inside = _members(S2)
    seen = set()
    for s in map(tuple, S1):
        seen.add(s in inside)
        if len(seen) == 2:
            return True
    return False
