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

A solve reaches K(E) rhs from one of two anchors, by the Neumann series
x <- x0 + T x with ||T||_2 <= theta < 1, whose j-th iterate lies within
theta^(j+1) / (1 - theta) ||x0|| of K(E) rhs.  The solver iterates until
that bound is at most 2^-53, the unit roundoff, so the truncation lies
below the rounding a factorization leaves.  Both anchors rest on
Gershgorin's circle theorem with r, the host's largest off-diagonal row
sum, which bounds ||B||_2 for the Hermitian coupling block B of H_rest:

- the diagonal: E - H_rest = (E - D) - B, D the reduced set's diagonal, so
  x0 = K_D rhs and T = K_D B, K_D = (E - D)^-1, with
  theta_D = r / min_n |E - v(n)|, n over the reduced set.  Nothing is
  factored: a correction is one product with the host's shared block.
- the LU of E0 - H_rest at an earlier energy E0: x0 = K0 rhs and
  T = -(E - E0) K0, with theta = |E - E0| / g, since ||K0||_2 <= 1/g for
  g = min_n |E0 - v(n)| - r.

A right-hand side no wider than the pivots' coupling columns takes the
diagonal when theta_D < THETA_MAX and g_D = min_n |E - v(n)| - r is above
the pivot floor PIVOT_RTOL max(1, max_n |E - v(n)|), and else the LU anchor
when theta < THETA_MAX; any right-hand side reuses the LU at E = E0.  Every
other solve factors afresh at E, which becomes the LU anchor.  Below
THETA_MAX = 1e-3 at most five corrections reach 2^-53, and E - H_rest stays
diagonally dominant by at least 0.999 of its gap.  On a ball(8) host (143
reduced sites, two columns, one BLAS thread) a diagonal correction took
24 us and an LU correction 38 us, against 480 us for the copy, norm,
getrf and condition estimate of a fresh LU (7, 10 and 40 us on 23 reduced
sites).  So a narrow solve factors only within r / THETA_MAX = 1000 r
of a reduced-set diagonal, 0.23 for a ball(8) host at eps 1e-4.  An
eigenvalue of H_rest lies in a Gershgorin disc, where both ratios are at
least 1, so an energy where E - H_rest is singular is factored, never
corrected, and the LU's pivot and condition checks see it.
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
THETA_MAX = 1e-3             # an anchor's ratio theta at or above which it is not taken
UNIT_ROUNDOFF = 2.0 ** -53   # a corrected solve's certified truncation, relative


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

    A solve takes the diagonal or the LU anchor of the module docstring,
    both through one loop (_neumann), or factors afresh.  The diagonal's
    iterates run over all of `sites` with their pivot entries held at 0,
    so its corrections read the host's coupling block with no gather;
    -H_rest is gathered at the first factorization only.  Q and G are
    entries of block(E) and F a column of its solve, K(E) C for every
    pivot's coupling column at once, kept per energy, so block, f and an
    eigenvector read one solve.

    The LU comes from LAPACK getrf and the solves from getrs, fetched once
    per solver and called directly, without scipy's per-call wrappers or
    their finiteness scan: host_block refuses non-finite couplings and
    host_diagonal a non-finite diagonal, so a solver is never built on a
    non-finite matrix, and every E - H_rest with a finite E is finite.  A
    zero pivot (getrf's info > 0), one below PIVOT_RTOL times the largest,
    or a reciprocal condition number below PIVOT_RTOL (gecon's estimate
    from the LU, in the 1-norm) is a SingularBlockError.

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
        # each site's row in the reduced set; a pivot's row is any, since
        # the diagonal anchor's K_D is 0 there
        self._slot = np.maximum(np.cumsum(rest) - 1, 0)
        self.v = tuple(float(self.diag[i]) for i in self.piv)
        self._v_rest = self.diag.take(self.rest)
        self._v_span = (self._v_rest.min(initial=np.inf), self._v_rest.max(initial=-np.inf))
        # h(n, p) and h(p, n) over the reduced set, one per pivot; h(p, p') off p = p'
        self._cols = np.asfortranarray(couplings[:, self.piv][self.rest])
        self._rows = list(np.conj(self._cols).T)
        self._direct = [[0j if a == b else complex(couplings[a, b]) for b in self.piv]
                        for a in self.piv]
        self._getrf, self._getrs, self._gecon = get_lapack_funcs(
            ("getrf", "getrs", "gecon"), (self._cols,))
        self._lu = None       # (E0, lu, piv, g) of the last factorization
        self._solved = {}     # E -> K(E) C

    @cached_property
    def full(self) -> DualMatrix:
        """H_k restricted to `sites`, the matrix the routes solve: the
        host's couplings with the solver's own `diag`."""
        return DualMatrix.assemble(self.sites, self.k, self._couplings, self.diag)

    @cached_property
    def reduced_sites(self) -> list:
        """The reduced set's sites, in the order of `rest`."""
        sites = self.sites.sites
        return [sites[i] for i in self.rest]

    @cached_property
    def _minus_rest(self) -> np.ndarray:
        """-H_rest, gathered and negated at the first factorization: each
        factored energy's E - H_rest is a copy of it.  Negating the real
        and imaginary parts as floats flips the same signs as complex
        negation, several times faster."""
        M = np.asfortranarray(self._couplings[self.rest][:, self.rest])
        parts = M.T.view(float)
        np.negative(parts, out=parts)
        np.fill_diagonal(M, -self._v_rest)
        return M

    def coupling_column(self, m0) -> np.ndarray:
        """h(n, m0) for n in the reduced set."""
        return self._cols[:, self._pos[tuple(m0)]]

    def _factor(self, E: float):
        """A fresh LU of E - H_rest, which becomes the LU anchor, with its
        Gershgorin gap g (0 unless above the pivot check's floor)."""
        A = self._minus_rest.copy(order="F")
        A[np.diag_indices(len(A))] += E
        norm = float(np.abs(A).sum(axis=0).max())   # ||A||_1, which gecon reads
        lu, piv, info = self._getrf(A, overwrite_a=True)
        u = np.abs(lu.diagonal())
        floor = PIVOT_RTOL * max(1.0, u.max())
        if info > 0 or u.min() < floor or self._gecon(lu, norm)[0] < PIVOT_RTOL:
            raise SingularBlockError(f"reduced matrix singular at E={E}")
        g = float(np.min(np.abs(E - self._v_rest))) - self._row_sum
        self._lu = (E, lu, piv, g if g > floor else 0.0)
        return lu, piv

    def solve(self, E: float, rhs: np.ndarray) -> np.ndarray:
        """(E - H_rest)^-1 rhs, from the diagonal or the LU anchor when one
        certifies it, else from a fresh LU.  On an empty reduced set it is
        a zero array of rhs's shape, so Q is 0, G the direct coupling and F
        empty."""
        if not len(self.rest):
            return np.zeros(rhs.shape, dtype=complex)
        narrow = rhs.size <= self._cols.size
        if narrow:
            d = E - self.diag
            d[self.piv] = np.inf            # so that K_D = 1 / d is 0 at the pivots
            near, r = float(np.abs(d).min()), self._row_sum
            far = max(abs(E - v) for v in self._v_span)   # max_n |E - v(n)|
            if near - r > PIVOT_RTOL * max(1.0, far) and r < THETA_MAX * near:
                return self._diagonal_solve(1.0 / d, rhs, r / near)
        if self._lu is not None:
            E0, lu, piv, g = self._lu
            delta = E - E0
            if delta == 0 or (narrow and abs(delta) < THETA_MAX * g):
                getrs = self._getrs
                return _neumann(getrs(lu, piv, rhs)[0], lambda x: -delta * getrs(lu, piv, x)[0],
                                abs(delta) / g if delta else 0.0)
        lu, piv = self._factor(E)
        return self._getrs(lu, piv, rhs)[0]

    def _diagonal_solve(self, kd: np.ndarray, rhs: np.ndarray, theta: float) -> np.ndarray:
        """K(E) rhs from x0 = K_D rhs by x <- x0 + K_D B x, kd the diagonal
        of K_D over all of `sites`, 0 at the pivots: the iterates' pivot
        entries stay 0, so B is the host's coupling block itself."""
        kd = kd.reshape(kd.shape + (1,) * (rhs.ndim - 1))
        B = self._couplings
        x = _neumann(kd * rhs.take(self._slot, axis=0), lambda x: kd * (B @ x), theta)
        return x.take(self.rest, axis=0)

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
