"""Integer lattice primitives: l1 norm, balls, reflections and set relations.

Sites are plain tuples of ints.  A SiteSet stores its sites as int64 codes
whose numeric order is the canonical order (l1 norm, then lexicographic),
so that every matrix restriction built on top of it is reproducible bit
for bit and set algebra runs on integer arrays: unions and subset tests
merge sorted runs of codes, differences and straddles bisect, and maps
decode, map and encode one coordinate column at a time.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb, floor

import numpy as np

from .errors import CombinatorialBudgetError, SiteBudgetError

DEFAULT_SITE_BUDGET = 20_000
BOX_POINT_CAP = 4_000_000


def l1_norm(n) -> int:
    """Sum of absolute coordinates."""
    return sum(map(abs, n))


def l1_ball_size(radius: int, nu: int) -> int:
    """Number of integer points with l1 norm <= radius (radius >= 0)."""
    if radius < 0:
        return 0
    return sum((2 ** j) * comb(nu, j) * comb(radius, j) for j in range(0, min(nu, radius) + 1))


def _encode(cols) -> np.ndarray:
    """Codes of the sites whose i-th coordinates are cols[i], one int64 array
    per axis; ValueError outside the range.

    Column by column: numpy sums across the short axis of an (n, 2) array
    about 6x slower than it adds its two columns.
    """
    nu = len(cols)
    bits = 62 // (nu + 1)
    half = 1 << (bits - 1)
    if any(len(c) and (c.min() <= -half or c.max() >= half) for c in cols):
        raise ValueError(f"site coordinates must satisfy |x_i| < 2^{bits - 1} for nu = {nu}")
    code = np.abs(cols[0])
    for c in cols[1:]:
        code += np.abs(c)
    for c in cols:
        code <<= bits
        code += c
        code += half
    return code


def _decode(codes: np.ndarray, nu: int) -> list:
    """The coordinate columns of the sites with these codes, one per axis."""
    bits = 62 // (nu + 1)
    return [((codes >> (bits * (nu - 1 - i))) & ((1 << bits) - 1)) - (1 << (bits - 1))
            for i in range(nu)]


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct codes of a sorted code array."""
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    return codes[first]


def _canonical(codes: np.ndarray) -> np.ndarray:
    """The sorted, distinct codes.  Not np.unique: on int64 codes it hashes,
    about 20x slower than this sort on 40,000 shuffled codes (numpy 2.4)."""
    return codes if np.all(codes[1:] > codes[:-1]) else _distinct(np.sort(codes))


def _rows(sites) -> np.ndarray:
    """A plain site collection as an (n, nu) int64 array; (0, 1) when empty."""
    try:
        A = np.asarray(sites if isinstance(sites, np.ndarray) else list(sites), dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"site coordinates out of the int64 range: {exc}") from exc
    return A.reshape(len(A), -1) if len(A) else np.empty((0, 1), dtype=np.int64)


class SiteSet:
    """Finite subset of Z^nu, held as an int64 code array.

    A site x has the code ``l1(x) W^nu + sum_i (x_i + W/2) W^(nu-1-i)``
    with ``W = 2^floor(62 / (nu + 1))``, so numeric order is the
    canonical order, l1 norm then lexicographic.  Coordinates must satisfy
    ``|x_i| < W/2`` (2^19 for nu = 2); a site outside raises ValueError,
    never wraps.  ``SiteSet(sites)`` sorts and de-duplicates, and every
    operation returns a canonical set, sorted by code.  Set relations
    sort and bisect codes; ``==`` compares the codes, and a SiteSet is not
    hashable.

    Immutable: the code array is read-only and no method changes a set.
    The ``.sites`` tuples and the index behind ``in`` and ``index`` are
    caches built on first read; a racing first read builds an equal copy.
    """

    def __new__(cls, sites=()):
        if isinstance(sites, SiteSet):
            return sites
        A = _rows(sites)
        return cls._of(_canonical(_encode(A.T)), A.shape[1])

    @classmethod
    def _of(cls, codes: np.ndarray, nu: int) -> "SiteSet":
        """The set of sorted, distinct codes."""
        out = object.__new__(cls)
        codes.flags.writeable = False
        out._codes, out.nu = codes, nu if len(codes) else 0
        return out

    @cached_property
    def sites(self) -> tuple:
        return tuple(zip(*(c.tolist() for c in _decode(self._codes, self.nu))))

    @cached_property
    def _index(self) -> dict:
        return {s: i for i, s in enumerate(self.sites)}

    def __len__(self):
        return len(self._codes)

    def __iter__(self):
        return iter(self.sites)

    def __contains__(self, site):
        return tuple(site) in self._index

    def index(self, site) -> int:
        return self._index[tuple(site)]

    def __eq__(self, other):
        if not isinstance(other, SiteSet):
            return NotImplemented
        return self.nu == other.nu and np.array_equal(self._codes, other._codes)

    def array(self) -> np.ndarray:
        out = np.empty((len(self), self.nu), dtype=np.int64)
        for i, c in enumerate(_decode(self._codes, self.nu)):
            out[:, i] = c
        return out

    def _mapped(self, f) -> "SiteSet":
        """The canonical set of the sites whose coordinate columns are
        f(coordinate columns of this set)."""
        return (SiteSet._of(np.sort(_encode(f(_decode(self._codes, self.nu)))), self.nu)
                if len(self) else self)

    def translate(self, m) -> "SiteSet":
        return self._mapped(lambda cols: [c + x for c, x in zip(cols, _rows([m])[0], strict=True)])

    def reflect(self) -> "SiteSet":
        return self._mapped(lambda cols: [-c for c in cols])

    def reflect_through(self, m) -> "SiteSet":
        return self._mapped(lambda cols: [x - c for c, x in zip(cols, _rows([m])[0], strict=True)])

    def _in(self, other) -> np.ndarray:
        """Mask of this set's codes that lie in `other`."""
        keys = SiteSet(other)._codes
        if not len(keys):
            return np.zeros(len(self), dtype=bool)
        return keys[np.minimum(np.searchsorted(keys, self._codes), len(keys) - 1)] == self._codes

    def union(self, *others) -> "SiteSet":
        """This set and every one of `others`."""
        sets = [self, *map(SiteSet, others)]
        return SiteSet._of(_distinct(_merged(*(S._codes for S in sets))),
                           max(S.nu for S in sets))

    def difference(self, other) -> "SiteSet":
        return SiteSet._of(self._codes[~self._in(other)], self.nu)

    def issubset(self, other) -> bool:
        """Every site lies in `other`: merged, the two distinct code runs
        repeat exactly len(self) codes."""
        keys = SiteSet(other)._codes
        if len(self) > len(keys):
            return False
        merged = _merged(self._codes, keys)
        return bool(np.count_nonzero(merged[1:] == merged[:-1]) == len(self))


def _merged(*runs) -> np.ndarray:
    """The codes of sorted runs, sorted.  A stable sort of int64 is timsort,
    which finds the runs and merges them: 3 to 5x faster than the default
    sort on two runs of 17,000 codes, and about 10x slower on shuffled
    codes."""
    return np.sort(np.concatenate(runs), kind="stable")


def ball(R: float, nu: int, budget: int = DEFAULT_SITE_BUDGET) -> SiteSet:
    """All n in Z^nu with l1_norm(n) <= R.  Symmetric under n -> -n.

    The points of the (2r + 1)^nu box with l1 norm <= r, encoded and
    sorted.  Refuses to materialize more than `budget` sites; the budget
    guards memory against the radii the paper's constants give, and is
    checked on every call, before the box is built or looked up.  The
    read-only code array is built once per process for each (floor(R), nu);
    every call returns a fresh SiteSet on it, so no two callers share the
    `.sites` or index caches.
    """
    if R < 0:
        raise ValueError("ball radius must be nonnegative")
    r = floor(R)
    size = l1_ball_size(r, nu)
    if budget is not None and size > budget:
        raise SiteBudgetError(f"ball(R={R}, nu={nu}) holds {size} sites, over budget {budget}")
    return SiteSet._of(_ball_codes(r, nu), nu)


@lru_cache(maxsize=32)
def _ball_codes(r: int, nu: int) -> np.ndarray:
    """The sorted, read-only codes of ball(r, nu); callers check the budget."""
    box = np.indices((2 * r + 1,) * nu, dtype=np.int64).reshape(nu, -1) - r
    codes = np.sort(_encode(box[:, np.abs(box).sum(axis=0) <= r]))
    codes.flags.writeable = False
    return codes


def punctured_ball(radius: int, nu: int) -> np.ndarray:
    """The points of ball(radius, nu) other than 0, as rows in canonical order.

    Exhaustive scans over a window (Diophantine margins, reset sets) read
    these.  The (2 radius + 1)^nu box they are cut from is capped at
    BOX_POINT_CAP points, checked before anything is built.
    """
    r = max(radius, 0)
    count = (2 * r + 1) ** nu
    if count > BOX_POINT_CAP:
        raise CombinatorialBudgetError(
            f"enumeration of the {count}-point box of radius {radius} exceeds the cap")
    return ball(r, nu, budget=None).array()[1:]


def straddles(S1, S2) -> bool:
    """True iff S1 meets S2 and also meets the complement of S2."""
    inside = SiteSet(S1)._in(S2)
    return bool(inside.any() and not inside.all())
