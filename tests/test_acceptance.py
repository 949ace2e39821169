"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with -s or in captured
output) and then asserts, so the suite doubles as a report.
"""

import math
import time

import numpy as np

from qpspec.dual_operator import cocycle_check, dense_spectrum, restrict
from qpspec.cfracs import CFNode, zeta_sandwich_ok, zeta_separation_ok
from qpspec.inverse import (DecayBound, improve_decay, recovered_bound,
                            gap_table, verify_forward)
from qpspec.lattice import ball, straddles
from qpspec.model import Potential, Problem
from qpspec.mssets import GeometryBuilder, max_correct_length
from qpspec.resonance import k_point
from qpspec.schur import ReducedSolver
from qpspec.spectral import (decay_envelope, eigen_simple,
                             feynman_derivative, gap_at, paired_box)
from qpspec.trajectories import (WeightProfile, closed_bound, sum_enumerate,
                                 validate_profile)

from conftest import elementary_path_sum, linear_leaf_roots, pair_roots, random_potential


def report(num, name, failures):
    status = "PASS" if not failures else f"FAIL ({failures[0]})"
    print(f"ACCEPTANCE {num} {name}: {status}")
    assert not failures, failures[0]


# -- 1: oracle equivalence ----------------------------------------------------


def test_acceptance_1_oracle_equivalence(golden_freq):
    # the Schur identity: with P the pivots, the inverse of
    # E - (v + Q) on the diagonal and -G off it is the P block of (E - H)^-1
    failures = []
    rng = np.random.default_rng(101)
    t0 = time.time()
    for trial in range(50):
        R = trial % 3 + 1  # cycles through every box radius R <= 3
        S = ball(R, 2)
        n = len(S)
        pot = random_potential(rng, epsilon=10 ** -rng.uniform(3, 5))
        prob = Problem(golden_freq, pot)
        k = float(rng.uniform(-0.5, 0.5))
        H = restrict(prob, S, k)
        evals, _ = dense_spectrum(H)
        E = float(evals[-1] + 1.0 + rng.uniform(0, 5))

        idx = sorted(rng.choice(n, size=int(rng.integers(1, 4)), replace=False))
        pivots = [S.sites[i] for i in idx]
        solver = ReducedSolver(prob, S, k, pivots)
        v = H.entries.diagonal().real[idx]
        block = np.array([[E - v[i] - solver.q(p, E) if i == j else -solver.g(p, p2, E)
                           for j, p2 in enumerate(pivots)] for i, p in enumerate(pivots)])
        dense = np.linalg.inv(E * np.eye(n) - H.entries)[np.ix_(idx, idx)]
        rel = np.max(np.abs(np.linalg.inv(block) - dense)) / np.max(np.abs(dense))
        if rel > 1e-10:
            failures.append(f"reduced solver trial {trial}: rel dev {rel:.3g}")
    elapsed = time.time() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    report(1, "oracle equivalence (50 random boxes/pivot sets)", failures)


# -- 2: first-order gap law ----------------------------------------------------


def test_acceptance_2_first_order_gap_law(golden_freq):
    failures = []
    n0 = (0, 1)
    for eps in (1e-3, 1e-4):
        pot = Potential.from_harmonics({n0: 1.0}, eps, 0.5)
        prob = Problem(golden_freq, pot)
        rec = gap_at(prob, n0, 8)
        if abs(rec.width - 2.0 * eps) > 5.0 * eps * eps:
            failures.append(
                f"width(n0) at eps={eps}: {rec.width:.6e} vs 2eps +- 5eps^2")
    eps = 1e-3
    pot = Potential.from_harmonics({n0: 1.0}, eps, 0.5)
    prob = Problem(golden_freq, pot)
    for m in ball(3, 2):
        if not any(m) or m in (n0, (0, -1)):
            continue
        rec = gap_at(prob, m, 8)
        if rec.width > 10.0 * eps * eps:
            failures.append(f"width({m}) = {rec.width:.3e} above 10 eps^2")
    report(2, "first-order gap law", failures)


# -- 3: forward gap bound -------------------------------------------------------


def test_acceptance_3_forward_gap_bound(golden_freq):
    failures = []
    rng = np.random.default_rng(202)
    ms = [m for m in ball(4, 2) if any(m)]
    for trial in range(20):
        eps = float(10 ** -rng.uniform(4, 5))
        pot = random_potential(rng, epsilon=eps, kappa0=0.5)
        prob = Problem(golden_freq, pot)
        records, errs = gap_table(prob, ms, 5)
        for m, msg in errs.items():
            failures.append(f"trial {trial} gap at {m} failed: {msg}")
        for row in verify_forward(records, pot):
            if not row.passed:
                failures.append(
                    f"trial {trial} width({row.m}) = {row.width:.3e} over "
                    f"bound {row.bound:.3e}")
    report(3, "forward gap bound (20 random potentials)", failures)


# -- 4: symmetry suite ----------------------------------------------------------


def test_acceptance_4_symmetry_suite(generic_problem, harmonic_problem):
    failures = []
    host = ball(6, 2)
    mirror = host.reflect()
    grid = np.linspace(0.05, 0.45, 81)
    worst_E = worst_phi = 0.0
    for k in grid:
        plus = eigen_simple(generic_problem, (0, 0), host, float(k))
        minus = eigen_simple(generic_problem, (0, 0), mirror, float(-k))
        worst_E = max(worst_E, abs(plus.E - minus.E))
        mirrored = [minus.sites.index(tuple(-c for c in n)) for n in plus.sites]
        worst_phi = max(worst_phi,
                        np.max(np.abs(minus.phi[mirrored] - np.conj(plus.phi))))
    if worst_E > 1e-11:
        failures.append(f"E(k) vs E(-k): {worst_E:.3e} > 1e-11")
    if worst_phi > 1e-11:
        failures.append(f"phi conjugation: {worst_phi:.3e} > 1e-11")

    worst_c = 0.0
    for shift in ((1, 0), (0, 1), (2, -1)):
        worst_c = max(worst_c, cocycle_check(generic_problem, shift, ball(2, 2), 0.31))
    if worst_c > 1e-12:
        failures.append(f"cocycle: {worst_c:.3e} > 1e-12")

    n0 = (0, 1)
    kn0 = k_point(harmonic_problem.frequency, n0)
    S = paired_box(harmonic_problem, n0, 6)
    worst_pair = 0.0
    for theta in (1e-5, 5e-5, 2e-4):
        Ep1, Em1 = (r.E for r in pair_roots(harmonic_problem, S, kn0 + theta, (0, 0), n0))
        Ep2, Em2 = (r.E for r in pair_roots(harmonic_problem, S, kn0 - theta, n0, (0, 0)))
        worst_pair = max(worst_pair, abs(Ep1 - Ep2), abs(Em1 - Em2))
    if worst_pair > 1e-10:
        failures.append(f"pair symmetry: {worst_pair:.3e} > 1e-10")
    report(4, "symmetry suite", failures)


# -- 5: eigenvector decay --------------------------------------------------------


def test_acceptance_5_eigenvector_decay(generic_problem, harmonic_problem):
    failures = []
    for k in (0.11, 0.22, 0.41):
        rec = eigen_simple(generic_problem, (0, 0), ball(6, 2), k)
        ok, worst = decay_envelope(generic_problem, rec)
        if not ok:
            failures.append(f"simple branch at k={k}: ratio {worst:.3g}")
    n0 = (0, 1)
    kn0 = k_point(harmonic_problem.frequency, n0)
    S = paired_box(harmonic_problem, n0, 6)
    for theta in (1e-5, 1e-4):
        pair = pair_roots(harmonic_problem, S, kn0 + theta, (0, 0), n0)
        for tag, rec in zip(("plus", "minus"), pair):
            ok, worst = decay_envelope(harmonic_problem, rec)
            if not ok:
                failures.append(f"pair {tag} at theta={theta}: ratio {worst:.3g}")
    report(5, "eigenvector decay envelope (slack 4)", failures)


# -- 6: combinatorics -------------------------------------------------------------


def test_acceptance_6_combinatorics(geometry_problem):
    failures = []
    for s in (1, 2, 3, 4):
        got = max_correct_length(s)
        if got != 2 ** s - 1:
            failures.append(f"max correct length s={s}: {got}")

    builder = GeometryBuilder(geometry_problem)
    m_str = (80, 6)
    km = k_point(geometry_problem.frequency, m_str)
    for k, s in ((0.2088, 2), (km, 2)):
        lam = builder.lambda_plain(k, s)
        mirror = builder.lambda_plain(-k, s)
        if set(mirror.sites) != set(lam.reflect().sites):
            failures.append(f"reflection law fails at k={k}")
        cls = builder.site_classes(k, s)
        for (sp, m), sub in cls.lambda_sets.items():
            if straddles(sub, lam):
                failures.append(f"dichotomy fails at k={k}, level {sp}, m={m}")
    n0 = (0, 1)
    kn0 = k_point(geometry_problem.frequency, n0)
    lam_pair = builder.lambda_pair(kn0 + 1e-5, 2, n0)
    if set(lam_pair.reflect_through(n0).sites) != set(lam_pair.sites):
        failures.append("paired set not T-invariant")
    lam_sym = builder.lambda_sym(1e-15, 2)
    if set(lam_sym.reflect().sites) != set(lam_sym.sites):
        failures.append("symmetrized set not reflection-invariant")
    report(6, "combinatorics (words, Lambda sets)", failures)


# -- 7: trajectory bounds -----------------------------------------------------------


def test_acceptance_7_trajectory_bounds():
    failures = []
    rng = np.random.default_rng(404)
    host = ball(3, 2, budget=None)
    ambient = ball(6, 2, budget=None)
    eps0 = 1e-25
    for trial in range(50):
        prof = WeightProfile({s: 1.0 + 2.0 * rng.random() for s in host},
                             T=8.0, kappa0=float(0.3 + 0.2 * rng.random()),
                             host=host, ambient=ambient)
        if validate_profile(prof) != []:
            failures.append(f"profile {trial} invalid")
            continue
        for target in ((0, 0), (1, 0), (2, -1)):
            res = sum_enumerate((0, 0), target, prof, eps0, len_cap=4)
            bnd = closed_bound((0, 0), target, prof, eps0)
            if not bnd.threshold_ok:
                failures.append(f"profile {trial}: eps0 above ceiling")
            if res.total > bnd.value:
                failures.append(
                    f"profile {trial} target {target}: sum {res.total:.3g} over "
                    f"bound {bnd.value:.3g}")
    for kk in (2, 3):
        for alpha in (1.0, 2.0):
            val = elementary_path_sum((0, 0), (1, 0), kk, host, alpha)
            if val >= (8.0 / alpha) ** ((kk - 1) * 2):
                failures.append(f"elementary sum k={kk} alpha={alpha}")
    report(7, "trajectory sums under closed bounds", failures)


# -- 8: analytic utilities ------------------------------------------------------------


def test_acceptance_8_analytic_utilities(generic_problem):
    failures = []
    rng = np.random.default_rng(505)
    for trial in range(50):
        gap = 0.2 + 0.6 * rng.random()
        a1, a2 = 0.5 * gap, -0.5 * gap
        bcoup = 0.05 * gap * rng.random()
        s1, s2 = 0.02 * rng.random(), -0.02 * rng.random()
        leaf = CFNode(lambda u, a=a1, s=s1: a + s * u,
                      lambda u, a=a2, s=s2: a + s * u,
                      lambda u, bb=bcoup: bb)
        roots = linear_leaf_roots(a1, s1, a2, s2, bcoup)
        if not zeta_separation_ok(leaf, *roots):
            failures.append(f"zeta trial {trial}: separation bound fails")
        if not zeta_sandwich_ok(leaf, *roots):
            failures.append(f"zeta trial {trial}: sandwich fails")

    S = ball(3, 2)
    for k in (0.19, 0.33):
        derivs, mask, _ = feynman_derivative(generic_problem, S, k)
        h = 1e-5
        up, _ = dense_spectrum(restrict(generic_problem, S, k + h))
        dn, _ = dense_spectrum(restrict(generic_problem, S, k - h))
        fd = (up - dn) / (2 * h)
        sel = mask & (np.abs(derivs) > 1e-8)
        rel = float(np.max(np.abs(derivs[sel] - fd[sel]) / np.abs(derivs[sel])))
        if rel > 1e-6:
            failures.append(f"Feynman at k={k}: rel dev {rel:.3g}")
    report(8, "analytic utilities (zeta roots, Feynman)", failures)


# -- 9: inverse-direction properties ---------------------------------------------------


def test_acceptance_9_inverse_properties(golden_freq):
    failures = []
    # pointwise recovery on desk instances
    for table, n0 in (({(0, 2): 1.0}, (0, 2)),
                      ({(0, 1): 0.55, (1, 0): 0.3 + 0.2j}, (0, 1))):
        pot = Potential.from_harmonics(table, 1e-4, 0.5)
        prob = Problem(golden_freq, pot)
        rb = recovered_bound(prob, gap_table(prob, [n0], 6)[0][n0])
        if not rb.holds:
            failures.append(f"recovery at {n0}: |c| {rb.actual:.3e} over "
                            f"bound {rb.bound_desk:.3e}")

    # quadratic-remainder slope over eps
    eps_list = (1e-3, 1e-4, 1e-5)
    vals = []
    for eps in eps_list:
        pot = Potential.from_harmonics({(0, 2): 1.0}, eps, 0.5)
        prob = Problem(golden_freq, pot)
        rb = recovered_bound(prob, gap_table(prob, [(0, 4)], 6)[0][(0, 4)])
        vals.append(rb.quadratic_term)
    slope = float(np.polyfit(np.log(eps_list), np.log(vals), 1)[0])
    if abs(slope - 2.0) > 0.1:
        failures.append(f"quadratic slope {slope:.3f} outside 2.0 +- 0.1")

    # five verified improvement rounds on the compliant synthetic potential
    entries = {p: math.exp(-1.2 * 4) for p in [(0, 4), (4, 0), (2, 2), (1, 3)]}
    pot = Potential.from_harmonics(entries, 1e-4, 0.1)
    bound = DecayBound(1e-4, 0.1)
    for step_idx in range(5):
        step = improve_decay(bound, pot)
        if not step.verified:
            failures.append(f"improvement round {step_idx} failed at "
                            f"{step.first_violation}")
            break
        if step.after.kappa_hat <= bound.kappa_hat:
            failures.append(f"round {step_idx} did not tighten the rate")
        bound = step.after
    report(9, "inverse-direction properties", failures)
