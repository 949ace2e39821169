"""Schur-complement block inversion and the Q/G/F self-energy functions.

The recursive multiscale inverse eliminates the non-resonant block first and
folds resonant clusters in one Schur step each; every assembled inverse is
measured against the dense solve, so elimination order is a performance
choice, not a correctness one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .dual_operator import RAW, restrict
from .errors import NonResonanceFloorError, SingularBlockError
from .lattice import SiteSet
from .model import Problem

PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class ResolventHandle:
    """An inverse together with the matrix it inverts and a condition estimate."""

    matrix: np.ndarray
    inverse: np.ndarray
    condition_estimate: float
    E: float = None
    sites: SiteSet = None

    def residual(self) -> float:
        n = self.matrix.shape[0]
        R = self.matrix @ self.inverse - np.eye(n)
        return float(np.max(np.abs(R)))


def _check_block(block: np.ndarray, block_id):
    svals = np.linalg.svd(block, compute_uv=False)
    norm = float(svals[0]) if svals.size else 0.0
    small = float(svals[-1]) if svals.size else 0.0
    if small < PIVOT_RTOL * max(norm, 1e-300):
        raise SingularBlockError(
            f"pivot block {block_id} singular: smallest singular value {small:.3g}",
            block_id=block_id)
    return norm / small


def block_inverse(M: np.ndarray, blocks) -> ResolventHandle:
    """Assemble M^{-1} by folding the given disjoint index blocks in order.

    Each fold applies the two-block Schur inversion formula; the running
    inverse G over the union of processed blocks is updated in place.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    blocks = [np.asarray(b, dtype=int) for b in blocks]
    blocks = [b for b in blocks if b.size]
    seen = np.concatenate(blocks) if blocks else np.array([], dtype=int)
    if len(np.unique(seen)) != n or seen.size != n:
        raise ValueError("blocks must partition the index range exactly")

    order = blocks[0]
    H0 = M[np.ix_(order, order)]
    cond = _check_block(H0, 0)
    G = np.linalg.inv(H0)
    for bi, b in enumerate(blocks[1:], start=1):
        G12 = M[np.ix_(order, b)]
        G21 = M[np.ix_(b, order)]
        S = M[np.ix_(b, b)] - G21 @ G @ G12
        cond = max(cond, _check_block(S, bi))
        Sinv = np.linalg.inv(S)
        GB = G @ G12
        BG = G21 @ G
        top_left = G + GB @ Sinv @ BG
        top_right = -GB @ Sinv
        bottom_left = -Sinv @ BG
        order = np.concatenate([order, b])
        G = np.block([[top_left, top_right], [bottom_left, Sinv]])
    # undo the processing order
    perm = np.empty(n, dtype=int)
    perm[order] = np.arange(n)
    G = G[np.ix_(perm, perm)]
    return ResolventHandle(M, G, condition_estimate=float(cond))


def multiscale_inverse(problem: Problem, E: float, S: SiteSet, k: float,
                       clusters=(), normalization: str = RAW,
                       floor: float = None) -> ResolventHandle:
    """Invert (E - H_S) by non-resonant elimination plus cluster Schur steps.

    Every site outside all clusters must satisfy |E - v(n,k)| >= floor;
    violations report the site.  Clusters are folded in increasing size.
    """
    H = restrict(problem, S, k, normalization)
    A = E * np.eye(len(S)) - H.entries
    cluster_sets = [SiteSet.from_iterable(c) for c in clusters]
    in_cluster = set()
    for c in cluster_sets:
        in_cluster.update(c.sites)
    if floor is None:
        floor = PIVOT_RTOL
    diag = np.real(np.diag(A))
    free = []
    for i, s in enumerate(H.sites):
        if s in in_cluster:
            continue
        if abs(diag[i]) < floor:
            raise NonResonanceFloorError(
                f"site {s} violates non-resonance floor: |E - v| = {abs(diag[i]):.3g}",
                site=s)
        free.append(i)
    blocks = []
    if free:
        blocks.append(np.asarray(free, dtype=int))
    for c in sorted(cluster_sets, key=len):
        idx = [H.sites.index(s) for s in c if s in H.sites]
        if idx:
            blocks.append(np.asarray(sorted(idx), dtype=int))
    handle = block_inverse(A, blocks)
    return ResolventHandle(A, handle.inverse, handle.condition_estimate, E=E, sites=H.sites)


# ---------------------------------------------------------------------------
# Reduced solves: Q, G, F
# ---------------------------------------------------------------------------


class ReducedSolver:
    """LU-backed evaluations of the self-energy functions over S minus pivots.

    One factorization of (E - H_{S \\ pivots}) is shared by Q, G and F at a
    fixed (S, k, E); spectral solvers rebuild per E-iterate.
    """

    def __init__(self, problem: Problem, S: SiteSet, k: float, pivots,
                 normalization: str = RAW):
        self.problem = problem
        self.k = k
        self.normalization = normalization
        self.pivots = [tuple(p) for p in pivots]
        self.full = restrict(problem, S, k, normalization)
        self.gamma = self.full.gamma
        pivots, sites = set(self.pivots), self.full.sites.sites
        keep = [i for i, s in enumerate(sites) if s not in pivots]
        self.reduced_sites = [sites[i] for i in keep]
        self._keep = np.asarray(keep, dtype=int)
        self._piv_idx = {p: self.full.sites.index(p) for p in self.pivots}
        self.H_rest = self.full.entries[np.ix_(self._keep, self._keep)]
        self._lu_cache = {}

    def coupling_column(self, m0) -> np.ndarray:
        """h(n, m0) for n in the reduced set."""
        j = self._piv_idx[tuple(m0)]
        return self.full.entries[self._keep, j]

    def _lu(self, E: float):
        key = float(E)
        if key not in self._lu_cache:
            if not self.reduced_sites:
                raise SingularBlockError("reduced set is empty")
            A = E * np.eye(len(self.reduced_sites)) - self.H_rest
            try:
                lu, piv = sla.lu_factor(A)
            except np.linalg.LinAlgError as exc:
                raise SingularBlockError(f"reduced matrix singular at E={E}") from exc
            if np.min(np.abs(np.diag(lu))) < PIVOT_RTOL * max(1.0, np.max(np.abs(np.diag(lu)))):
                raise SingularBlockError(f"reduced matrix singular at E={E}")
            if len(self._lu_cache) > 8:
                self._lu_cache.clear()
            self._lu_cache[key] = (lu, piv)
        return self._lu_cache[key]

    def solve(self, E: float, rhs: np.ndarray) -> np.ndarray:
        lu, piv = self._lu(E)
        return sla.lu_solve((lu, piv), rhs)

    def q(self, m0, E: float) -> complex:
        """Q(m0, S; E) = sum h(m0, m') K(m', n') h(n', m0); real for real E."""
        if not self.reduced_sites:
            return 0j
        col = self.coupling_column(m0)          # h(n, m0)
        row = np.conj(col)                      # h(m0, n)
        return complex(row @ self.solve(E, col))

    def g(self, mp, mm, E: float) -> complex:
        """G(mp, mm, S; E) = h(mp, mm) + sum h(mp, m') K(m', n') h(n', mm)."""
        jp, jm = self._piv_idx[tuple(mp)], self._piv_idx[tuple(mm)]
        direct = complex(self.full.entries[jp, jm])
        if not self.reduced_sites:
            return direct
        col = self.coupling_column(mm)          # h(n, mm)
        row = np.conj(self.coupling_column(mp))  # h(mp, n)
        return complex(direct + row @ self.solve(E, col))

    def f(self, m0, E: float) -> dict:
        """F(m0, n; E), the eigenvector tail: phi(n) = -F(n), phi(m0) = 1.

        The sign follows the Schur blocks of (E - H), whose couplings are
        -h; the assembled phi(n) = -F(n) = +K h(., m0) solves H phi = E phi.
        """
        col = self.coupling_column(m0)
        x = self.solve(E, col)
        return {s: -complex(x[i]) for i, s in enumerate(self.reduced_sites)}
