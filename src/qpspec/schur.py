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

A solve splits the reduced set at each energy by Gershgorin's circle
theorem, with r, the host's largest off-diagonal row sum, which bounds
||B||_2 for the Hermitian coupling block B of H_rest, and the pivot floor
PIVOT_RTOL max(1, max_n |E - v(n)|), n over the reduced set.  A site is
near (in N) when |E - v(n)| - r is at or below the floor or
r >= THETA_MAX |E - v(n)| (_near; at E = v(0) it names a band point's
pivots, near_pivots), and far (in F) otherwise.  Far sites are
summed by the Neumann series x <- K_D b + K_D B x, K_D = (E - D)^-1 over F
and 0 elsewhere, D the diagonal: with theta = r / min_F |E - v(n)| <
THETA_MAX its j-th iterate lies within theta^(j+1) / (1 - theta) ||K_D b||
of (E - H_FF)^-1 b, and the solver iterates until that bound is at most
2^-53, the unit roundoff, which takes at most five products with the
host's shared block and factors nothing.  Then:

- N empty: the series over the whole reduced set is the solve.
- N not empty, of any size, with a right-hand side of any width: one
  series on [rhs | H_FN] gives Y = (E - H_FF)^-1 [rhs_F | H_FN], and the
  near sites are solved in the Hermitian Schur block
  S_N = E - H_NN - H_NF Y_N of order |N|:
  X_N = S_N^-1 (rhs_N + H_NF Y_rhs) and X_F = Y_rhs + Y_N X_N.  E - H_rest
  is congruent to diag(E - H_FF, S_N) (Haynsworth), and Gershgorin keeps
  E - H_FF off singular, so E - H_rest is singular exactly when S_N is:
  an eigenvalue of S_N within the floor of 0 is a SingularBlockError.
  With every reduced site near, F is empty and the series is 0.

An eigenvalue of H_rest lies in a Gershgorin disc, whose site is near, so
no energy where E - H_rest is singular is summed by the series alone.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .dual_operator import DualMatrix, host_block, host_diagonal
from .errors import SingularBlockError
from .lattice import SiteSet
from .model import Problem

PIVOT_RTOL = 1e-12
THETA_MAX = 1e-3             # a site with r >= THETA_MAX |E - v(n)| is near
UNIT_ROUNDOFF = 2.0 ** -53   # the series' certified truncation, relative


def _near(gap, r: float, floor: float):
    """The near test on distances |E - v(n)| (module docstring); monotone in
    the distance, so no site is near when the nearest is not."""
    return (gap - r <= floor) | (r >= THETA_MAX * gap)


def near_pivots(problem: Problem, S: SiteSet, k: float, p0) -> list:
    """p0, then each site of S, in S's order, that a solve on the pivot p0
    alone keeps near at E = v(p0, k) (_near, with that solve's floor): the
    sites whose diagonals lie within the coupling window of p0's."""
    _, phases, r = host_block(problem, S)
    diag = host_diagonal(phases, k)
    i = S.index(p0)
    gap = np.abs(diag[i] - diag)
    floor = PIVOT_RTOL * max(1.0, float(gap.max()))   # gap[i] = 0 is not the max
    gap[i] = np.inf
    if not _near(float(gap.min()), r, floor):
        return [tuple(p0)]
    return [tuple(p0), *(S.sites[j] for j in np.flatnonzero(_near(gap, r, floor)))]


def _neumann(x0: np.ndarray, step, theta: float) -> np.ndarray:
    """The fixed point of x = x0 + step(x), ||step||_2 <= theta < 1, to
    within theta^(j+1) / (1 - theta) ||x0|| <= 2^-53 ||x0|| after its j
    corrections; x0 itself when theta is 0."""
    x, err = x0, theta / (1.0 - theta)
    while err > UNIT_ROUNDOFF:
        x = x0 + step(x)
        err *= theta
    return x


class ReducedSolver:
    """Evaluations of the self-energy functions over S minus pivots.

    A solve takes the diagonal series or the near/far split of the module
    docstring and factors nothing.  The series' iterates run over all of
    `sites` with their pivot entries (and near ones) held at 0, so its
    corrections read the host's coupling block with no gather.  Q and G
    are entries of block(E) and F a column of its solve, K(E) C for every
    pivot's coupling column at once, kept per energy, so block, f and an
    eigenvector read one solve.

    The couplings come from the host memo (host_block) and only the
    diagonal `diag` = H(n, n) over `sites` from k.  `piv` and `rest` are
    the pivots' and the reduced set's positions in `sites`, and `v` the
    pivots' diagonals, in pivot order: the routes read them here, so they
    solve the matrix that the oracle checks; `row_sum` is the host's r.
    `full`, that matrix as a
    DualMatrix, is built on first read, by its readers only: the oracle and
    the checks.
    """

    def __init__(self, problem: Problem, S: SiteSet, k: float, pivots):
        self.sites, self.k = S, k
        self.pivots = [tuple(p) for p in pivots]
        couplings, phases, self.row_sum = host_block(problem, S)
        self._couplings = couplings   # read-only, shared with the memo
        self.diag = host_diagonal(phases, k)
        self._pos = {p: i for i, p in enumerate(self.pivots)}
        self.piv = [S.index(p) for p in self.pivots]
        rest = np.ones(len(S), dtype=bool)
        rest[self.piv] = False
        self.rest = np.flatnonzero(rest)
        # each site's row in the reduced set; a pivot's row is any, since
        # the series' K_D is 0 there
        self._slot = np.maximum(np.cumsum(rest) - 1, 0)
        self.v = tuple(float(self.diag[i]) for i in self.piv)
        v_rest = self.diag.take(self.rest)
        self._v_span = (v_rest.min(initial=np.inf), v_rest.max(initial=-np.inf))
        # h(n, p) and h(p, n) over the reduced set, one per pivot; h(p, p') off p = p'
        self._cols = np.asfortranarray(couplings[:, self.piv][self.rest])
        self._rows = list(np.conj(self._cols).T)
        self._direct = couplings[self.piv][:, self.piv].tolist()   # 0 on its diagonal
        self._solved = {}     # E -> K(E) C

    @cached_property
    def full(self) -> DualMatrix:
        """H_k restricted to `sites`, the matrix the routes solve: the
        host's couplings with the solver's own `diag`."""
        return DualMatrix.assemble(self.sites, self.k, self._couplings, self.diag)

    def coupling_column(self, m0) -> np.ndarray:
        """h(n, m0) for n in the reduced set."""
        return self._cols[:, self._pos[tuple(m0)]]

    def solve(self, E: float, rhs: np.ndarray) -> np.ndarray:
        """(E - H_rest)^-1 rhs: the diagonal series when no reduced site is
        near E, else the near/far split, for a right-hand side of any
        width.  On an empty reduced set it is a zero array of rhs's shape,
        so Q is 0, G the direct coupling and F empty."""
        if not len(self.rest):
            return np.zeros(rhs.shape, dtype=complex)
        d = E - self.diag
        d[self.piv] = np.inf            # so that K_D = 1 / d is 0 at the pivots
        gap, r = np.abs(d), self.row_sum
        nearest = float(gap.min())
        floor = PIVOT_RTOL * max(1.0, max(abs(E - v) for v in self._v_span))
        if not _near(nearest, r, floor):
            return self._diagonal_solve(1.0 / d, rhs, r / nearest)
        return self._near_solve(E, d, np.flatnonzero(_near(gap, r, floor)), rhs, floor)

    def _diagonal_solve(self, kd: np.ndarray, rhs: np.ndarray, theta: float) -> np.ndarray:
        """K(E) rhs from x0 = K_D rhs by x <- x0 + K_D B x, kd the diagonal
        of K_D over all of `sites`, 0 at the pivots: the iterates' pivot
        entries stay 0, so B is the host's coupling block itself."""
        kd = kd.reshape(kd.shape + (1,) * (rhs.ndim - 1))
        B = self._couplings
        x = _neumann(kd * rhs.take(self._slot, axis=0), lambda x: kd * (B @ x), theta)
        return x.take(self.rest, axis=0)

    def _near_solve(self, E: float, d: np.ndarray, N: np.ndarray, rhs: np.ndarray,
                    floor: float) -> np.ndarray:
        """K(E) rhs with the near sites N (positions in `sites`) kept in a
        dense Schur block and the far ones summed by the diagonal series,
        d = E - diag over `sites`, inf at the pivots; a SingularBlockError
        when an eigenvalue of that block is within the floor of 0."""
        w, near = rhs.size // len(rhs), self._slot[N]
        dN = d[N]
        d[N] = np.inf                       # K_D is 0 on N as well: the series runs on F
        cols = self._couplings.take(N, axis=1).take(self.rest, axis=0)   # H_.N
        b = np.hstack([rhs.reshape(len(rhs), w), cols])
        Y = self._diagonal_solve(1.0 / d, b, self.row_sum / float(np.abs(d).min()))
        rows = cols.conj().T                # H_N.
        Z = rows @ Y                        # H_NF K_F [rhs_F | H_FN]
        lam, V = np.linalg.eigh(np.diag(dN) - rows[:, near] - Z[:, w:])   # S_N
        if np.abs(lam).min() <= floor:
            raise SingularBlockError(f"reduced matrix singular at E={E}")
        XN = V @ ((V.conj().T @ (b[near, :w] + Z[:, :w])) / lam[:, None])
        X = Y[:, :w] + Y[:, w:] @ XN
        X[near] = XN
        return X.reshape(rhs.shape)

    def _coupling_solve(self, E: float) -> np.ndarray:
        """K(E) C, every pivot's coupling column solved, once per energy."""
        X = self._solved.get(E)
        if X is None:
            X = self._solved[E] = self.solve(E, self._cols)
        return X

    def block(self, E: float):
        """[[Q+, G], [G', Q-]] on the pivots, in their order: entry (i, j)
        is h(p_i, p_j) (0 if i = j) plus sum h(p_i, m') K(m', n') h(n', p_j),
        K = (E - H_rest)^-1, so G' is conj G only up to rounding.  Every
        pivot's column is solved at once, once per energy.  On one or two
        pivots it is rows of complex, each sum one column dot, which the
        closed-form steps read; on more, one array from one product."""
        X = self._coupling_solve(E)
        if len(self.piv) > 2:
            return self._couplings[self.piv][:, self.piv] + self._cols.conj().T @ X
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
        """F(m0, n; E) over the reduced set, in the order of `rest`, the
        eigenvector tail: phi(n) = -F(n), phi(m0) = 1.

        The sign follows the Schur blocks of (E - H), whose couplings are
        -h; the assembled phi(n) = -F(n) = +K h(., m0) solves H phi = E phi.
        """
        return -self._coupling_solve(E)[:, self._pos[tuple(m0)]]
