"""The reduced resolvent and the self-energy functions Q, G and F.

Eliminating the pivot sites P from E - H_S leaves on P the Schur
complement E - (diag v + [[Q+, G], [G*, Q-]]) (E - v - Q for one pivot),
built from K(E) C = (E - H_{S \\ P})^-1 C, C the pivots' coupling columns,
solved once per energy (ReducedSolver.block).  This is the one
representation of the resolvent; the selftest compares it with the dense
inverse.  A solver gathers its blocks from its host's couplings, which do
not depend on k and are kept for the last host (dual_operator.host_block), and
takes only the diagonal from k; the dense matrix H_S is built only when a
check reads it (ReducedSolver.full).

A solver factors E - H_rest once, at its first energy E0 (the anchor), and
reaches a later energy E = E0 + delta from that LU.  By Gershgorin's circle
theorem the Hermitian E0 - H_rest has no eigenvalue within
g = min_n |E0 - v(n)| - r of zero, n over the reduced set and r the host's
largest off-diagonal row sum, so ||K0||_2 <= 1/g.  With theta = |delta| / g
< 1, K(E) C is the fixed point of x = x0 - delta K0 x, x0 = K0 C, and the
j-th iterate is within theta^(j+1) / (1 - theta) ||x0|| of it.  The solver
iterates until that bound is at most 2^-53, the unit roundoff, so the
truncation lies below the rounding a fresh factorization leaves.  It
factors afresh (and anchors there) when theta >= 1e-3: below it at most
five corrections reach 2^-53, six getrs of O(n^2) work that cost less than
one O(n^3) getrf on a 143-site reduced set (two on a 23-site one), and
E - H_rest stays diagonally dominant by at least 0.999 g.  It also factors
afresh when g is not above the pivot check's floor.  An eigenvalue of
H_rest lies in a Gershgorin disc, where theta >= 1, so an energy where
E - H_rest is singular is factored, never corrected, and the pivot check
sees it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .dual_operator import DualMatrix, host_block, host_diagonal
from .errors import SingularBlockError
from .lattice import SiteSet
from .model import Problem

PIVOT_RTOL = 1e-12
THETA_MAX = 1e-3             # |delta| / g at or above which a solve factors afresh
UNIT_ROUNDOFF = 2.0 ** -53   # the corrected solve's certified truncation, relative


class ReducedSolver:
    """LU-backed evaluations of the self-energy functions over S minus pivots.

    One factorization of (E0 - H_{S \\ pivots}), at the solver's first
    energy E0, serves the later energies of a fixed point through the
    certified correction in the module docstring: a solve at E0 + delta
    iterates x <- x0 - delta K0 x until theta^(j+1) / (1 - theta) <= 2^-53,
    theta = |delta| / g and g the Gershgorin gap at E0: 2^-53 is the unit
    roundoff, below a fresh solve's own rounding.  A solve factors afresh,
    and anchors there, at theta >= THETA_MAX = 1e-3 (below it the
    corrections cost less than a getrf on a ball(8) host), when g is not
    above PIVOT_RTOL times the largest |U_ii|, and for a right-hand side
    wider than the pivots' columns.  Q and G are entries of block(E) and F
    a column of its solve, K(E) C for every pivot's coupling column at
    once, kept per energy, so block, f and an eigenvector read one solve.
    The LU comes from LAPACK getrf and the solves from getrs, fetched once
    per solver and called directly, without scipy's per-call wrappers or
    their finiteness scan: host_block refuses non-finite couplings and
    host_diagonal a non-finite diagonal, so a solver is never built on a
    non-finite matrix, and every E - H_rest with a finite E is finite.  A
    zero pivot (getrf's info > 0) or one below PIVOT_RTOL times the
    largest is a SingularBlockError.

    The couplings come from the host memo (host_block) and only the
    diagonal `diag` = H(n, n) over `sites` from k.  `piv` and `rest` are
    the pivots' and the reduced set's positions in `sites`, and `v` the
    pivots' diagonals, in pivot order: the routes read them here, so they
    solve the matrix that the oracle checks.  `full`, that matrix as a
    DualMatrix, is built on first read, by its readers only: the oracle and
    the checks.
    """

    def __init__(self, problem: Problem, S: SiteSet, k: float, pivots):
        self.sites, self.k = S, k
        self.pivots = [tuple(p) for p in pivots]
        couplings, phases, self._row_sum = host_block(problem, S)
        self._couplings = couplings   # read-only, shared with the memo
        self.diag = host_diagonal(phases, k)
        self._pos = {p: i for i, p in enumerate(self.pivots)}
        self.piv = [S.index(p) for p in self.pivots]
        rest = np.ones(len(S), dtype=bool)
        rest[self.piv] = False
        self.rest = np.flatnonzero(rest)
        self.v = tuple(float(self.diag[i]) for i in self.piv)
        # h(n, p) and h(p, n) over the reduced set, one per pivot; h(p, p') off p = p'
        self._cols = np.asfortranarray(couplings[:, self.piv][self.rest])
        self._rows = list(np.conj(self._cols).T)
        self._direct = [[0j if a == b else complex(couplings[a, b]) for b in self.piv]
                        for a in self.piv]
        sites = S.sites
        self.reduced_sites = [sites[i] for i in self.rest]
        # -H_rest, negated once: each energy's E - H_rest is a copy of it.
        # Negating the real and imaginary parts as floats flips the same
        # signs as complex negation, several times faster.
        self._minus_rest = np.asfortranarray(couplings[self.rest][:, self.rest])
        parts = self._minus_rest.T.view(float)
        np.negative(parts, out=parts)
        self._diag = np.diag_indices(len(self.rest))
        self._minus_rest[self._diag] = -self.diag[self.rest]
        self._getrf, self._getrs = get_lapack_funcs(("getrf", "getrs"), (self._minus_rest,))
        self._anchor = None   # (E0, lu, piv, g) of the last factorization
        self._solved = {}     # E -> K(E) C

    @cached_property
    def full(self) -> DualMatrix:
        """H_k restricted to `sites`, the matrix the routes solve: the
        host's couplings with the solver's own `diag`.  Once it is built
        the solver lets go of the couplings, which `full` holds."""
        M = DualMatrix.assemble(self.sites, self.k, self._couplings, self.diag)
        self._couplings = None
        return M

    def coupling_column(self, m0) -> np.ndarray:
        """h(n, m0) for n in the reduced set."""
        return self._cols[:, self._pos[tuple(m0)]]

    def _factor(self, E: float):
        """A fresh LU of E - H_rest, which becomes the anchor, with its
        Gershgorin gap g (0 unless above the pivot check's floor)."""
        A = self._minus_rest.copy(order="F")
        A[self._diag] += E
        lu, piv, info = self._getrf(A, overwrite_a=True)
        u = np.abs(lu.diagonal())
        floor = PIVOT_RTOL * max(1.0, u.max())
        if info > 0 or u.min() < floor:
            raise SingularBlockError(f"reduced matrix singular at E={E}")
        g = float(np.min(np.abs(E - self.diag[self.rest]))) - self._row_sum
        self._anchor = (E, lu, piv, g if g > floor else 0.0)
        return lu, piv

    def solve(self, E: float, rhs: np.ndarray) -> np.ndarray:
        """(E - H_rest)^-1 rhs.  On an empty reduced set it is a zero array of
        rhs's shape, so Q is 0, G the direct coupling and F empty."""
        if not self.reduced_sites:
            return np.zeros(rhs.shape, dtype=complex)
        if self._anchor is not None:
            E0, lu, piv, g = self._anchor
            delta = E - E0
            if delta == 0 or (rhs.size <= self._cols.size and abs(delta) < THETA_MAX * g):
                x0 = x = self._getrs(lu, piv, rhs)[0]
                theta = abs(delta) / g if delta else 0.0
                err = theta / (1.0 - theta)   # bound on ||x - K(E) rhs|| / ||x0||
                while err > UNIT_ROUNDOFF:
                    x = x0 - delta * self._getrs(lu, piv, x)[0]
                    err *= theta
                return x
        lu, piv = self._factor(E)
        return self._getrs(lu, piv, rhs)[0]

    def _coupling_solve(self, E: float) -> np.ndarray:
        """K(E) C, every pivot's coupling column solved, once per energy."""
        X = self._solved.get(E)
        if X is None:
            X = self._solved[E] = self.solve(E, self._cols)
        return X

    def block(self, E: float) -> list:
        """[[Q+, G], [G', Q-]] on the pivots, in their order, as rows of
        complex: entry (i, j) is h(p_i, p_j) (0 if i = j) plus
        sum h(p_i, m') K(m', n') h(n', p_j), K = (E - H_rest)^-1.  Every
        pivot's column is solved at once, once per energy, and each sum is
        one column dot, so G' is conj G only up to rounding."""
        X = self._coupling_solve(E)
        return [[d + complex(row @ x) for d, x in zip(direct, X.T)]
                for direct, row in zip(self._direct, self._rows)]

    def q(self, m0, E: float) -> complex:
        """Q(m0, S; E) = sum h(m0, m') K(m', n') h(n', m0); real for real E."""
        i = self._pos[tuple(m0)]
        return self.block(E)[i][i]

    def g(self, mp, mm, E: float) -> complex:
        """G(mp, mm, S; E) = h(mp, mm) + sum h(mp, m') K(m', n') h(n', mm)."""
        return self.block(E)[self._pos[tuple(mp)]][self._pos[tuple(mm)]]

    def f(self, m0, E: float) -> np.ndarray:
        """F(m0, n; E) over reduced_sites, the eigenvector tail: phi(n) = -F(n),
        phi(m0) = 1.

        The sign follows the Schur blocks of (E - H), whose couplings are
        -h; the assembled phi(n) = -F(n) = +K h(., m0) solves H phi = E phi.
        """
        return -self._coupling_solve(E)[:, self._pos[tuple(m0)]]
