"""The dual lattice matrix H_k, its finite restrictions, and its symmetries.

Entries:  h(m,n;k) = (2 pi)^2 (m.omega + k)^2 on the diagonal,
          eps * c0(n-m) off the diagonal.
The paper's normalized matrix is H_k / (lambda (2 pi)^2) with lambda = 256
gamma; every quantity here is in the raw units above.

The dense oracle, dense_spectrum, fetches LAPACK heevr from scipy on its
first call; the rest of the module runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConvergenceError, ReconciliationError, SiteBudgetError
from .lattice import SiteSet
from .model import Problem

TWO_PI_SQ = (2.0 * math.pi) ** 2

ORACLE_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class DualMatrix:
    """Finite Hermitian restriction of H_k to a site set."""

    sites: SiteSet
    k: float
    entries: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.entries).all():
            raise ValueError("non-finite matrix entries")


def diagonal_value(problem: Problem, n, k: float) -> float:
    return TWO_PI_SQ * (problem.frequency.dot(n) + k) ** 2


def restrict(problem: Problem, S: SiteSet, k: float) -> DualMatrix:
    """Hermitian restriction of H_k to S, in S's canonical order (Host.matrix)."""
    return host(problem, S).matrix(k)


@dataclass(frozen=True, eq=False)
class Host:
    """The part of H_k on `sites` that does not depend on k: the
    off-diagonal block h(m, n) = c(n - m), the phases n.omega, and the
    block's largest row sum max_m sum_n |h(m, n)|, which bounds every
    Gershgorin radius of H_k on the sites or on a subset of them.  `stencil`
    and `shell()` derive from _coupling_lookup's (t, hit, j, values), kept
    as `_lookup`.  Every array is read-only."""

    problem: Problem
    sites: SiteSet
    block: np.ndarray
    phases: np.ndarray
    row_sum: float
    _lookup: tuple

    def diagonal(self, k: float) -> np.ndarray:
        """H_k's diagonal over `sites`; a non-finite entry is a ValueError."""
        diag = TWO_PI_SQ * (self.phases + k) ** 2
        if not np.isfinite(diag).all():
            raise ValueError("non-finite matrix entries")
        return diag

    def matrix(self, k: float) -> DualMatrix:
        """H_k on `sites`, the block with diagonal(k), through DualMatrix's scan."""
        H = self.block.copy()
        np.fill_diagonal(H, self.diagonal(k))
        return DualMatrix(self.sites, k, H)

    @cached_property
    def stencil(self):
        """The block as a stencil (nbr, values) over the support's C shifts
        D[c] on a host of n >= 3 C + 60 sites, else None: values[c] =
        c(D[c]) and nbr[c, i] the position of sites[i] + D[c], or n where
        that is not a site, with one more column of n.  So for x over the
        sites with a 0 appended, values @ x[nbr] is block @ x with a 0
        appended, at most one term a shift.  Built on first read.

        The rule names the cheaper product for a solver's series: per
        correction the stencil costs about C n and a fixed cost per column,
        the dense product n^2 per column.  One series solve of three
        corrections, dense / stencil, median of 7 x 300 (7 x 10 at n = 833),
        in us, one BLAS thread, 2-vCPU KVM guest; near the line the two are
        within about 10%:
          n    C   width 1     width 2     width 3
          25   2   12 / 16     18 / 26     28 / 53
          61   2   16 / 17     30 / 27     37 / 38
          61   8   16 / 18     29 / 30     36 / 42
          63   6   16 / 18     30 / 29     36 / 39     (nu = 3)
          85   8   21 / 21     40 / 35     53 / 47
          85  10   21 / 21     40 / 37     53 / 48
          113 16   26 / 26     58 / 45     80 / 63
          129  6   30 / 21     70 / 38     101 / 56    (nu = 3)
          145  8   40 / 36     97 / 61     114 / 57
          145 24   34 / 32     84 / 62     109 / 79
          833  6   1436 / 56   3326 / 103  4709 / 170  (nu = 3)
        """
        n, (_, hit, j, values) = len(self.sites), self._lookup
        return _stencil(n, hit, j, values) if n >= 3 * len(values) + 60 else None

    def shell(self):
        """The sites' coupling shell, the sites t = s + d outside them, s a
        site and d in the support: (src, slot, h, size), one entry per such
        pair, with s = sites[src], t the slot-th of the shell's `size` sites
        and h = h(t, s) = c(-d) = conj c(d), H Hermitian."""
        t, hit, _, values = self._lookup
        c, src = np.nonzero(~hit)
        codes, slot = np.unique(t[c, src], return_inverse=True)
        return src, slot, values[c].conj(), len(codes)


_last = None   # the last Host built


def host(problem: Problem, S: SiteSet) -> Host:
    """The Host of S under `problem`.  The last host built is kept, so band
    points on one host share one block; another host replaces it.  A
    Problem is not hashable (its potential holds a dict), so the kept host
    is matched on the problem's identity and on S, by identity before
    content, and holds the problem: no other problem can take its id while
    it is kept.  The empty set and the site budget are checked on every
    call, non-finite couplings once, when the host is built; non-finite
    phases make every diagonal non-finite, which Host.diagonal refuses."""
    global _last
    if len(S) == 0:
        raise ValueError("cannot restrict to an empty site set")
    if problem.site_budget is not None and len(S) > problem.site_budget:
        raise SiteBudgetError(f"{len(S)} sites exceed budget {problem.site_budget}")
    if _last is not None and _last.problem is problem and (_last.sites is S or _last.sites == S):
        return _last
    block, *lookup = _coupling_lookup(problem, S)
    phases = S.array().astype(float) @ np.asarray(problem.omega, dtype=float)
    if not np.isfinite(block).all():
        raise ValueError("non-finite matrix entries")
    for a in (block, phases, *lookup):
        a.flags.writeable = False
    _last = Host(problem, S, block, phases, float(np.abs(block).sum(axis=1).max()), tuple(lookup))
    return _last


def _coupling_lookup(problem: Problem, S: SiteSet):
    """(block, t, hit, j, values): the off-diagonal block h(m, n) =
    c(n - m), m and n in S, in S's order and 0 where m = n, and its lookup
    of each S[i] + D[c], D[c] the c-th shift of the support: its mixed-radix
    code t[c, i] over S's bounding box padded by the largest shift
    (code(m + d) = code(m) + code(d)), whether bisection finds it among S's
    (hit[c, i]), its positions j in S where it does, in the order of
    np.nonzero(hit), and c(D[c]) = values[c]."""
    pot = problem.potential
    coeffs = {d: pot.epsilon * c0 for d, c0 in pot.coefficients.items() if any(d)}
    A = S.array()
    D = np.array(list(coeffs), dtype=np.int64).reshape(-1, A.shape[1])
    reach = np.abs(D).max(axis=0, initial=0)
    lo = A.min(axis=0) - reach
    dims = A.max(axis=0) + reach + 1 - lo
    codes = np.ravel_multi_index((A - lo).T, dims)  # raises if the box overflows
    by_code = np.argsort(codes)
    sorted_codes = codes[by_code]
    t = codes + (D @ np.cumprod([1, *dims[:0:-1]])[::-1])[:, None]
    pos = np.minimum(np.searchsorted(sorted_codes, t), len(A) - 1)
    hit = sorted_codes[pos] == t
    c, i = np.nonzero(hit)
    j = by_code[pos[c, i]]
    values = np.array(list(coeffs.values()), dtype=complex)
    H = np.zeros((len(A), len(A)), dtype=complex)
    H[i, j] = values[c]
    return H, t, hit, j, values


def _stencil(n: int, hit, j, values):
    """Host.stencil from the lookup of a host of n sites."""
    nbr = np.full((len(values), n + 1), n)
    nbr[np.nonzero(hit)] = j
    nbr.flags.writeable = False
    return nbr, values


def _permuted(M: DualMatrix, sites) -> np.ndarray:
    """M's entries with rows and columns in the order of `sites`."""
    idx = [M.sites.index(s) for s in sites]
    return M.entries[np.ix_(idx, idx)]


def cocycle_check(problem: Problem, m_shift, S: SiteSet, k: float) -> float:
    """Max deviation in H_{k + l.omega}(m, n) = H_k(m + l, n + l) over S x S."""
    l = tuple(m_shift)
    left = restrict(problem, S, k + problem.frequency.dot(l))
    right = _permuted(restrict(problem, S.translate(l), k),
                      [tuple(a + b for a, b in zip(s, l)) for s in S])
    return float(np.max(np.abs(left.entries - right)))


def reflection_conjugation_check(problem: Problem, S: SiteSet, k: float) -> float:
    """Max deviation in H_{S,k}(m,n) = conj H_{-S,-k}(-m,-n)."""
    left = restrict(problem, S, k)
    right = _permuted(restrict(problem, S.reflect(), -k), [tuple(-c for c in s) for s in S])
    return float(np.max(np.abs(left.entries - np.conj(right))))


def dense_spectrum(M: DualMatrix, ranks: range = None):
    """Hermitian eigenpairs of M by a dense LAPACK solve, ascending eigenvalues.

    `ranks` is a range of eigenvalue ranks (0 the smallest), every rank
    when None.  Those eigenpairs come from one call of LAPACK heevr with
    range "I", the call scipy's eigh(subset_by_index=..., driver="evr")
    makes, without its wrapper and with the workspace queried once per n;
    both routines are fetched from scipy on the first call.
    The residual ||M phi - E phi|| of every returned pair is checked
    against ORACLE_RESIDUAL_TOL * max(1, max |H_ii|), a scale no larger
    than ||M||_2; this is the oracle every spectral claim is compared
    against.  A non-Hermitian matrix or a residual over budget is a
    ReconciliationError, heevr's info != 0 a ConvergenceError.
    """
    H = M.entries
    if not np.array_equal(H, H.conj().T):
        herm = float(np.max(np.abs(H - H.conj().T)))
        raise ReconciliationError(f"matrix not exactly Hermitian (max dev {herm:.3g})")
    scale = max(1.0, float(np.max(np.abs(H.diagonal()))))
    ranks = range(len(H)) if ranks is None else ranks
    evals, evecs, found, _, info = _heevr(H, range="I", il=ranks.start + 1, iu=ranks.stop,
                                          lower=1, **_heevr_work(len(H)))
    if info != 0:
        raise ConvergenceError(f"dense eigensolver failed: heevr info {info}")
    evals, evecs = evals[:found], evecs[:, :found]
    resid = np.linalg.norm(H @ evecs - evecs * evals[None, :], axis=0)
    if np.any(resid > ORACLE_RESIDUAL_TOL * scale):
        raise ReconciliationError(f"eigensolver residual {resid.max():.3g} over budget")
    return evals, evecs


@lru_cache(maxsize=1)
def _lapack():
    """(heevr, heevr_lwork) for complex matrices, fetched on the oracle's
    first call, so a process that never calls it never imports scipy."""
    from scipy.linalg.lapack import get_lapack_funcs
    return get_lapack_funcs(("heevr", "heevr_lwork"), dtype=complex)


def _heevr(H, **kwargs):
    return _lapack()[0](H, **kwargs)


@lru_cache(maxsize=None)
def _heevr_work(n: int) -> dict:
    """heevr's optimal workspace sizes for order n, as eigh queries them."""
    *work, _ = _lapack()[1](n, lower=1)
    return dict(zip(("lwork", "lrwork", "liwork"), (int(x.real) for x in work)))
