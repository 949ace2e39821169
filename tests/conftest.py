import itertools
import math
from collections import Counter

import numpy as np
import pytest

from qpspec.dual_operator import TWO_PI_SQ
from qpspec.lattice import ball, l1_norm
from qpspec.model import Frequency, Potential, Problem, ScaleLadder, build_ladder
from qpspec.schur import ReducedSolver
from qpspec.spectral import branch

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="session")
def golden_freq():
    return Frequency((1.0, GOLDEN), 0.1, 3.0, window_n=50)


@pytest.fixture(scope="session")
def zero_problem(golden_freq):
    return Problem(golden_freq, Potential({}, 1e-4, 0.5))


@pytest.fixture(scope="session")
def harmonic_problem(golden_freq):
    """Single harmonic c0(+-(0,1)) = 1, eps = 1e-4, kappa0 = 1/2."""
    return Problem(golden_freq, Potential.from_harmonics({(0, 1): 1.0}, 1e-4, 0.5))


@pytest.fixture(scope="session")
def generic_problem(golden_freq):
    pot = Potential.from_harmonics(
        {(0, 1): 0.55, (1, 0): 0.3 + 0.2j, (1, 1): 0.2 - 0.1j}, 1e-4, 0.5)
    return Problem(golden_freq, pot)


@pytest.fixture(scope="session")
def desk_ladder():
    """Recursion-exact desk ladder: log R = (3.2, 3.584), representable deltas."""
    return build_ladder(math.exp(-3.2 / 0.35), 0.35, 2)


@pytest.fixture(scope="session")
def geometry_ladder():
    """Synthetic narrow-delta ladder for non-degenerate desk geometry.

    R growth fast enough that straddlers of B(3 R^(2)) clear the 12 R^(1)
    class separation: R1 = 5, R2 = 31.
    """
    return ScaleLadder.from_sequences(
        0.35, (math.log(5.0), math.log(31.0)), (-32.0, -36.0, -40.0))


@pytest.fixture(scope="session")
def faithful_ladder():
    """The paper's seed ladder, held in log space (beta1 = 1/96, kappa0 = 1/2).

    log R^(1) is the construction floor max(log(100/a0), 2^34 beta1^-1
    log kappa0^-1) at a0 = 0.1, delta0^(0) = R^(1)^(-1/beta1), and the
    recursion runs to u_max = 2.  No rung is representable outside log space.
    """
    beta1 = 1.0 / 96.0
    log_R1 = 2.0 ** 34 / beta1 * math.log(2.0)
    log_delta1 = -(log_R1 ** 2)
    log_R2 = -beta1 * log_delta1
    return ScaleLadder.from_sequences(
        beta1, (log_R1, log_R2), ((-1.0 / beta1) * log_R1, log_delta1, -(log_R2 ** 2)))


@pytest.fixture(scope="session")
def geometry_problem(golden_freq, geometry_ladder):
    freq = Frequency((1.0, GOLDEN), 0.1, 3.0, window_n=300)
    pot = Potential.from_harmonics({(0, 1): 0.6}, 1e-4, 0.5)
    return Problem(freq, pot, geometry_ladder, site_budget=20_000)


def canonical_order(sites) -> tuple:
    """Deterministic ordering: by l1 norm, then lexicographic.

    Order oracle for ``SiteSet``, whose int64 codes must sort this way.
    """
    return tuple(sorted(dict.fromkeys(map(tuple, sites)), key=lambda s: (sum(map(abs, s)), s)))


def count_solve_paths(solver) -> Counter:
    """From now on, count the solver's solves by the path they take:
    "diagonal" (the diagonal series, no near site) and "near" (near sites
    in a Schur block, far ones by the diagonal series, which is not
    counted again)."""
    paths, depth = Counter(), [0]
    for name, key in (("_diagonal_solve", "diagonal"), ("_near_solve", "near")):
        def counted(*args, method=getattr(solver, name), key=key):
            if not depth[0]:
                paths[key] += 1
            depth[0] += 1
            try:
                return method(*args)
            finally:
                depth[0] -= 1
        setattr(solver, name, counted)
    return paths


def count_calls(monkeypatch, owner, name) -> list:
    """From now on, record the arguments of every call of owner.name, a
    module's function or a class's method, in the list returned."""
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def solve_paths(monkeypatch):
    """count_solve_paths of every ReducedSolver built while the fixture is
    active, keyed by solver in the order they were built."""
    paths = {}
    init = ReducedSolver.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        paths[self] = count_solve_paths(self)

    monkeypatch.setattr(ReducedSolver, "__init__", counted_init)
    return paths


def pair_roots(problem, S, k, mp, mm):
    """Both paired roots (plus, minus) on one solver, not reconciled with
    the oracle: branch 1 and 0, as eigen_pair runs them before its check."""
    solver = ReducedSolver(problem, S, k, [mp, mm])
    return branch(solver, 1), branch(solver, 0)


def random_potential(rng, epsilon=1e-4, kappa0=0.5, radius=3, density=0.6, nu=2):
    """Hermitian-valid potential on Z^nu with |c0(n)| <= exp(-kappa0 |n|)."""
    entries = {}
    for n in ball(radius, nu, budget=None):
        if not any(n) or n in entries or tuple(-c for c in n) in entries:
            continue
        if rng.random() > density:
            continue
        cap = math.exp(-kappa0 * l1_norm(n))
        mag = cap * rng.random()
        phase = np.exp(2j * np.pi * rng.random())
        entries[n] = mag * phase
    return Potential.from_harmonics(entries, epsilon, kappa0)


def elementary_path_sum(m, n, k: int, host, alpha: float) -> float:
    """sum over gamma in Gamma(m, n; k, host) of exp(-alpha ||gamma||).

    Oracle for the (8 / alpha)^((k-1) nu) elementary bound; exact over the
    finite host, hence a lower bound for the lattice-wide sum.
    """
    m, n = tuple(m), tuple(n)
    sites = list(map(tuple, host))
    if k == 1:
        return 1.0 if m == n else 0.0
    total = 0.0
    for interior in itertools.product(sites, repeat=k - 2):
        pts = (m,) + interior + (n,)
        if any(a == b for a, b in zip(pts, pts[1:])):
            continue
        norm = sum(l1_norm(x - y for x, y in zip(a, b)) for a, b in zip(pts, pts[1:]))
        total += math.exp(-alpha * norm)
    return total


def restrict_reference(problem, S, k):
    """H_k restricted to S by a loop over sites times coefficients.

    Oracle for the vectorized ``dual_operator.restrict``: the entries it
    returns must be equal bit for bit.
    """
    n = len(S)
    A = S.array().astype(float)
    phase = A @ np.asarray(problem.omega, dtype=float) + k
    H = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(H, TWO_PI_SQ * phase ** 2)
    off = problem.potential.epsilon
    index = {s: i for i, s in enumerate(S)}
    for d, c0 in problem.potential.coefficients.items():
        if all(c == 0 for c in d):
            continue
        val = off * c0
        for s, i in index.items():
            j = index.get(tuple(a + b for a, b in zip(s, d)))
            if j is not None:
                H[i, j] = val  # h(m, n) = c(n - m) with n = m + d
    return H


def sum_enumerate_reference(m, n, prof, eps0, len_cap=5):
    """The weighted trajectory sum over every host path from m to n, path by
    path, at the largest pair weight, with its certified tail.

    Oracle for the matrix recursion of ``trajectories.sum_enumerate``.  A
    path's weight is the product of its factors exp(D(p)) and
    exp(-kappa0 |a - b|), and each length is summed by ``math.fsum``.
    """
    m, n = tuple(m), tuple(n)
    host = prof.host.sites
    site_w = {s: math.exp(prof.D[s]) for s in host}
    pair_w = lambda a, b: math.exp(-prof.kappa0 * l1_norm(x - y for x, y in zip(a, b)))
    by_length = []
    partial = 0.0
    for k in range(1, len_cap + 1):
        if k == 1:
            paths = [(m,)] if m == n else []
        else:
            paths = [(m,) + interior + (n,)
                     for interior in itertools.product(host, repeat=k - 2)]
        terms = [math.prod([site_w[p] for p in pts]
                           + [pair_w(a, b) for a, b in zip(pts, pts[1:])])
                 for pts in paths if all(a != b for a, b in zip(pts, pts[1:]))]
        total_k = math.fsum(terms)
        by_length.append(total_k)
        partial += (eps0 ** (k - 1)) * total_k
    if len(host) == 1:
        return partial, 0.0, tuple(by_length)
    dbar = prof.dbar()
    ratio = eps0 * math.exp(dbar) * (8.0 / prof.kappa0) ** prof.host.nu
    return partial, math.exp(dbar) * ratio ** len_cap / (1.0 - ratio), tuple(by_length)


def linear_leaf_roots(a1, s1, a2, s2, b):
    """The roots zeta- < zeta+ of chi for leaves a1 + s1 u, a2 + s2 u and a
    constant b, in closed form: chi is the quadratic
    ((1 - s1) u - a1)((1 - s2) u - a2) - b^2, whose roots are taken in the
    cancellation-free pair q / A, C / q."""
    A = (1.0 - s1) * (1.0 - s2)
    B = -((1.0 - s1) * a2 + (1.0 - s2) * a1)
    C = a1 * a2 - b * b
    q = -0.5 * (B + math.copysign(math.sqrt(B * B - 4.0 * A * C), B))
    return tuple(sorted((q / A, C / q)))
