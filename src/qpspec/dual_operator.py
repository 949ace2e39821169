"""The dual lattice matrix H_k, its finite restrictions, and its symmetries.

Entries:  h(m,n;k) = (2 pi)^2 (m.omega + k)^2 on the diagonal,
          eps * c0(n-m) off the diagonal.
The paper's normalized matrix is H_k / (lambda (2 pi)^2) with lambda = 256
gamma; every quantity here is in the raw units above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

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

    @classmethod
    def assemble(cls, sites: SiteSet, k: float, block: np.ndarray,
                 diag: np.ndarray) -> "DualMatrix":
        """A copy of a host's coupling block with `diag` on its diagonal,
        built by the constructor, whose finiteness scan it passes through."""
        H = block.copy()
        np.fill_diagonal(H, diag)
        return cls(sites, k, H)


def diagonal_value(problem: Problem, n, k: float) -> float:
    return TWO_PI_SQ * (problem.frequency.dot(n) + k) ** 2


def restrict(problem: Problem, S: SiteSet, k: float) -> DualMatrix:
    """Hermitian restriction of H_k to S, in S's canonical order: the
    host's couplings with host_diagonal(phases, k) on the diagonal."""
    block, phases, _ = host_block(problem, S)
    return DualMatrix.assemble(S, k, block, host_diagonal(phases, k))


_host = None   # (problem, S, block, phases, row_sum, shell) of the last host built


def host_block(problem: Problem, S: SiteSet):
    """The part of H_k on S that does not depend on k: (block, phases,
    row_sum), the off-diagonal block h(m, n) = c(n - m) and the phases
    n.omega over S, both read-only, and the block's largest row sum
    max_m sum_n |h(m, n)|, which bounds every Gershgorin radius of H_k on S
    or on a subset of S.  The code lookup that finds the block also finds
    S's coupling shell, which host_shell derives from it when first read.

    The last host built is kept, so band points on one host share one
    block; a call on another host replaces it.  A Problem is not hashable
    (its potential holds a dict), so the held host is matched on the
    problem's identity and S's content, and holds the problem: no other
    problem can take its id while it is held.  The empty set and the site
    budget are checked on every call, non-finite couplings once, when the
    host is built; non-finite phases make every diagonal non-finite, which
    host_diagonal refuses.
    """
    global _host
    if len(S) == 0:
        raise ValueError("cannot restrict to an empty site set")
    if problem.site_budget is not None and len(S) > problem.site_budget:
        raise SiteBudgetError(f"{len(S)} sites exceed budget {problem.site_budget}")
    if _host is not None and _host[0] is problem and _host[1] == S:
        return _host[2:5]
    block, *lookup = _coupling_lookup(problem, S)
    phases = S.array().astype(float) @ np.asarray(problem.omega, dtype=float)
    if not np.isfinite(block).all():
        raise ValueError("non-finite matrix entries")
    block.flags.writeable = phases.flags.writeable = False
    _host = (problem, S, block, phases, float(np.abs(block).sum(axis=1).max()),
             lru_cache(maxsize=1)(partial(_shell, *lookup)))
    return _host[2:5]


def host_shell(problem: Problem, S: SiteSet):
    """S's coupling shell, the sites t = s + d outside S, s in S and d in
    the support: (src, slot, h, size), one entry per such pair, with s =
    S[src], t the slot-th of the shell's `size` sites and h = h(t, s).
    Derived from host_block's lookup on the first read per host."""
    host_block(problem, S)
    return _host[5]()


def _shell(t, hit, values):
    """host_shell from a lookup; h(t, s) = c(-d) = conj c(d), H Hermitian."""
    c, src = np.nonzero(~hit)
    codes, slot = np.unique(t[c, src], return_inverse=True)
    return src, slot, values[c].conj(), len(codes)


def host_diagonal(phases: np.ndarray, k: float) -> np.ndarray:
    """H_k's diagonal (2 pi)^2 (n.omega + k)^2 from a host's phases; a
    non-finite entry (a non-finite or huge k) is a ValueError."""
    diag = TWO_PI_SQ * (phases + k) ** 2
    if not np.isfinite(diag).all():
        raise ValueError("non-finite matrix entries")
    return diag


def _coupling_lookup(problem: Problem, S: SiteSet):
    """(block, t, hit, values): the off-diagonal block h(m, n) = c(n - m),
    m and n in S, in S's order and 0 where m = n, and its lookup of each
    S[i] + D[c], D[c] the c-th shift of the support: its mixed-radix code
    t[c, i] over S's bounding box padded by the largest shift (code(m + d) =
    code(m) + code(d)), whether bisection finds it among S's (hit[c, i]),
    and c(D[c]) = values[c]."""
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
    values = np.array(list(coeffs.values()), dtype=complex)
    H = np.zeros((len(A), len(A)), dtype=complex)
    H[i, by_code[pos[c, i]]] = values[c]
    return H, t, hit, values


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
    makes, without its wrapper and with the workspace queried once per n.
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


_heevr, _heevr_lwork = get_lapack_funcs(("heevr", "heevr_lwork"), dtype=complex)


@lru_cache(maxsize=None)
def _heevr_work(n: int) -> dict:
    """heevr's optimal workspace sizes for order n, as eigh queries them."""
    *work, _ = _heevr_lwork(n, lower=1)
    return dict(zip(("lwork", "lrwork", "liwork"), (int(x.real) for x in work)))
