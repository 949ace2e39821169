"""The benchmark's three workloads: seeded inputs, timed steps, output checks.

Unit ``i`` of a workload draws its inputs from
``numpy.random.default_rng([seed, i])``, so it is the same whatever ran
before it.  A run's batch is the workload's first ``BATCH_UNITS`` units.
A unit is a list of Steps.  A Step is one call into the public
``qpspec`` API and yields the outputs of ``n_items`` items, the things
latency is measured over.  Checks compare those outputs with independent
references; the runner calls them outside the timed region.

Why these workloads:

- ``band_sweep`` is the reduced-solve path of ``spectral.band`` with the
  oracle off.  A non-resonant point applies the reduced resolvent at a few
  energies, a paired point at about a hundred, so the median measures one
  use of ``schur`` and p90 the other.  Each unit draws its own potential
  and holds exactly 6 non-resonant and 4 paired points, so every batch has
  the same regime mix.  Non-resonant latencies
  have two modes (about 4 and 6 ms at one BLAS thread); with this mix p50
  lies inside the upper one rather than on the edge between them.
- ``gap_verify`` is the scaled-up forward / inverse verification.  The dense
  oracle dominates it and ``schur`` solves at only a few energies per
  solver, so a change that helps many-energy solves but costs per-solver
  set-up shows here as a loss.
- ``geometry_traj`` is pure-Python set algebra and trajectory enumeration
  with no BLAS: every linear-algebra change predicts no change here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qpspec import inverse, mssets, resonance, spectral, trajectories
from qpspec.dual_operator import restrict
from qpspec.lattice import ball, l1_norm
from qpspec.model import (Frequency, Potential, Problem, ScaleLadder,
                          sigma)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
KAPPA0 = 0.5
# a random potential has HARMONIC_PAIRS of the 12 pairs +-n in ball(HARMONIC_RADIUS);
# 12 is a multiple of HARMONIC_PAIRS
HARMONIC_PAIRS = 4
HARMONIC_RADIUS = 3


@dataclass(frozen=True)
class Step:
    """One timed call: ``run`` is timed, ``summarize`` turns its result into
    one digestible output per item, ``check`` gives one failure message (or
    None) per output."""

    kind: str
    n_items: int
    run: Callable[[], object]
    summarize: Callable[[object], list]
    check: Callable[[list], list]


def golden_frequency(window_n: int) -> Frequency:
    return Frequency((1.0, GOLDEN), 0.1, 3.0, window_n=window_n)


HALF_PAIRS = [n for n in ball(HARMONIC_RADIUS, 2, budget=None) if n > tuple(-c for c in n)]


def harmonic_sets(seed: int, n_units: int) -> list:
    """For each unit, the indices into HALF_PAIRS of its HARMONIC_PAIRS
    pairs.  The units take consecutive slices of seeded permutations, so
    over a batch every pair is used equally often (give or take one)."""
    rng = np.random.default_rng(seed)
    per_perm = len(HALF_PAIRS) // HARMONIC_PAIRS
    perms = [rng.permutation(len(HALF_PAIRS)).tolist()
             for _ in range(-(-n_units // per_perm))]
    order = [j for perm in perms for j in perm]
    return [sorted(order[HARMONIC_PAIRS * i:HARMONIC_PAIRS * (i + 1)])
            for i in range(n_units)]


def random_potential(rng, epsilon: float, pairs) -> Potential:
    """Hermitian potential with |c0(n)| <= exp(-kappa0 |n|) on the given
    HALF_PAIRS indices.

    The acceptance suite's recipe (magnitude uniform below the cap, uniform
    phase), with a fixed number of harmonic pairs instead of a random
    density, so every potential carries the same number of labels.
    """
    entries = {}
    for j in pairs:
        n = HALF_PAIRS[j]
        cap = math.exp(-KAPPA0 * l1_norm(n))
        entries[n] = cap * rng.random() * np.exp(2j * np.pi * rng.random())
    return Potential.from_harmonics(entries, epsilon, KAPPA0)


def _validated(problem: Problem) -> Problem:
    report = problem.validate()
    if report:
        raise ValueError(f"generated problem is invalid: {report[0]}")
    return problem


# ---------------------------------------------------------------------------
# band_sweep
# ---------------------------------------------------------------------------


class BandSweep:
    """spectral.band over host ball(8), one band point per item, one random
    potential (eps = 1e-4) per unit."""

    BATCH_UNITS = 10             # 100 points
    EPS = 1e-4
    K_RANGE = (0.05, 0.45)
    NONRESONANT, PAIRED = 6, 4   # points per unit
    RESONANCE_RADIUS = 3         # band's default resonance radius

    def __init__(self, seed: int):
        self.seed = seed
        self.frequency = golden_frequency(50)
        # the frequency's Diophantine certificate
        _validated(Problem(self.frequency, Potential({}, self.EPS, KAPPA0)))
        self.host = ball(8, 2)
        self.half_window = 64.0 * self.EPS  # band's pair window
        self.resonances = [resonance.k_point(self.frequency, m)
                           for m in ball(self.RESONANCE_RADIUS, 2, budget=None)
                           if any(m)]
        lo, hi = self.K_RANGE
        self.window_centers = sorted(km for km in self.resonances if lo <= km <= hi)
        self.harmonics = harmonic_sets(seed, self.BATCH_UNITS)

    def _nonresonant_k(self, rng) -> float:
        while True:
            k = float(rng.uniform(*self.K_RANGE))
            if all(abs(k - km) >= self.half_window for km in self.resonances):
                return k

    def _paired_k(self, rng) -> float:
        km = self.window_centers[int(rng.integers(len(self.window_centers)))]
        return float(km + self.half_window * rng.uniform(-1.0, 1.0))

    def unit(self, index: int):
        rng = np.random.default_rng([self.seed, index])
        pairs = self.harmonics[index % self.BATCH_UNITS]
        problem = Problem(self.frequency, random_potential(rng, self.EPS, pairs))
        ks = ([self._nonresonant_k(rng) for _ in range(self.NONRESONANT)]
              + [self._paired_k(rng) for _ in range(self.PAIRED)])
        order = rng.permutation(len(ks))
        return [self._step(problem, ks[i]) for i in order]

    def _step(self, problem: Problem, k: float) -> Step:
        host = self.host

        def run():
            return spectral.band(problem, [k], lambda _k: host)

        def summarize(points):
            return [(p.k, p.E, p.regime, p.error) for p in points]

        def check(outputs):
            _, E, regime, error = outputs[0]
            if regime == "error" or not math.isfinite(E):
                return [f"band point k={k!r} failed: {error}"]
            evals = np.linalg.eigvalsh(restrict(problem, host, k).entries)
            dev = float(np.min(np.abs(evals - E)))
            tol = 1e-9 * max(1.0, abs(E))
            if dev > tol:
                return [f"band point k={k!r} ({regime}): E={E!r} is {dev:.3g} "
                        f"from the nearest eigenvalue (tolerance {tol:.3g})"]
            return [None]

        return Step("band", 1, run, summarize, check)


# ---------------------------------------------------------------------------
# gap_verify
# ---------------------------------------------------------------------------


class GapVerify:
    """Forward gap table and inverse report for one random potential per unit.

    Items: one forward label (gap_table + verify_forward on that label), or
    one inverse label.  verify_inverse reports all its labels at once, so
    each of them is charged an equal share of the call.  Its cost depends
    on which labels carry harmonics, so the batch is stratified: the three
    potentials share out the 12 harmonic pairs between them, and unit i
    takes log10(1/eps) from the i-th third of LOG10_EPS.
    """

    BATCH_UNITS = 3   # 3 x (40 forward + 8 inverse) = 144 items
    RADIUS = 8
    # eps = 10^-U(5, 6): below about 3e-5 every label of a radius-3
    # potential meets the inverse hypothesis (width <= sqrt(eps) e^{-4 kappa0 |m|})
    LOG10_EPS = (5.0, 6.0)

    def __init__(self, seed: int):
        self.seed = seed
        self.frequency = golden_frequency(50)
        self.labels = [m for m in ball(4, 2, budget=None) if any(m)]
        # the frequency's Diophantine certificate
        _validated(Problem(self.frequency, Potential({}, 1e-5, KAPPA0)))
        self.harmonics = harmonic_sets(seed, self.BATCH_UNITS)

    def unit(self, index: int):
        rng = np.random.default_rng([self.seed, index])
        i, n = index % self.BATCH_UNITS, self.BATCH_UNITS
        lo, hi = self.LOG10_EPS
        eps = 10.0 ** -(lo + (hi - lo) * (i + float(rng.random())) / n)
        problem = Problem(self.frequency, random_potential(rng, eps, self.harmonics[i]))
        steps = [self._forward(problem, m) for m in self.labels]
        steps.append(self._inverse(problem))
        return steps

    def _forward(self, problem: Problem, m) -> Step:
        def run():
            records, failures = inverse.gap_table(problem, [m], self.RADIUS)
            return records, failures, inverse.verify_forward(records, problem.potential)

        def summarize(result):
            records, failures, rows = result
            if m in failures:
                return [(m, "failed", failures[m])]
            rec, row = records[m], rows[0]
            return [(m, rec.E_minus, rec.E_plus, rec.width, row.bound, row.passed)]

        def check(outputs):
            out = outputs[0]
            if out[1] == "failed":   # includes a disagreement with the dense oracle
                return [f"gap at m={m} failed: {out[2]}"]
            pot = problem.potential
            bound = 2.0 * pot.epsilon * math.exp(-0.5 * pot.kappa0 * l1_norm(m))
            if not out[5] or out[3] > bound * (1 + 1e-12):
                return [f"gap at m={m}: width {out[3]:.3e} over bound {bound:.3e}"]
            return [None]

        return Step("forward", 1, run, summarize, check)

    def _inverse(self, problem: Problem) -> Step:
        pot = problem.potential
        labels = [m for m in self.labels if abs(pot.c0(m)) > 0]

        def run():
            return inverse.verify_inverse(problem, self.RADIUS)

        def summarize(report):
            flags = (report.hypothesis_ok, report.final_ok)
            if len(report.pointwise) != len(labels):
                return [("missing", flags)] * len(labels)
            return [(r.n0, r.gap_width, r.bound_desk, r.actual, r.holds, flags)
                    for r in report.pointwise]

        def check(outputs):
            msgs = []
            for m, out in zip(labels, outputs):
                hypothesis_ok, final_ok = out[-1]
                if not hypothesis_ok:
                    msgs.append(f"inverse hypothesis fails (label {m})")
                elif out[0] != m:
                    msgs.append(f"inverse label {m} missing from the report")
                elif not out[4]:
                    msgs.append(f"recovery bound fails at {m}: |c| = {out[3]:.3e} "
                                f"over {out[2]:.3e}")
                elif not final_ok:
                    msgs.append(f"final decay bound fails (label {m})")
                else:
                    msgs.append(None)
            return msgs

        return Step("inverse", len(labels), run, summarize, check)


# ---------------------------------------------------------------------------
# geometry_traj
# ---------------------------------------------------------------------------


def _set_digest(S) -> tuple:
    # tuples of ints hash the same in every process
    return (len(S), hash(S.sites))


class GeometryTraj:
    """Multiscale set constructions and trajectory sums on a synthetic ladder.

    The problem and ladder are those of examples_config/golden_mean.json's
    geometry section.  Each unit makes five items: on fresh GeometryBuilders
    the plain set at a k in [0.05, 0.45], the reset profile at that k, a
    paired set near the resonance of a label 0 < |n0| <= 2 and the
    symmetrized set at |k| < delta^(0); and one trajectory sum to length 5
    with its closed bound.  Each kind is a fifth of the items.  By cost they
    rank reset, sum, plain, sym, pair, so p50 falls among the plain sets and
    p90 among the paired and symmetrized ones, away from the cheap kinds.

    The cost of a set depends on its k and label, so the batch is
    stratified: unit i takes its k from the i-th of BATCH_UNITS equal
    strata and each of the 12 labels serves exactly twice, in an order and
    at offsets drawn from the seed.  Every seed then has the same mix.
    """

    LADDER = ScaleLadder.from_sequences(
        0.35, (math.log(5.0), math.log(31.0)), (-32.0, -36.0, -40.0))
    BATCH_UNITS = 24  # 120 items; each pair label twice
    K_RANGE = (0.05, 0.45)
    SCALE = 2
    RESET_RADIUS = 12
    LEN_CAP = 5
    EPS0 = 1e-25

    def __init__(self, seed: int):
        self.seed = seed
        pot = Potential.from_harmonics({(0, 1): 0.6}, 1e-4, KAPPA0)
        self.problem = _validated(
            Problem(golden_frequency(300), pot, self.LADDER, site_budget=20_000))
        self.pair_labels = [m for m in ball(2, 2, budget=None) if any(m)]
        self.delta0 = math.exp(self.LADDER.log_delta_at(0))
        self.traj_host = ball(2, 2, budget=None)
        self.traj_ambient = ball(5, 2, budget=None)
        rng = np.random.default_rng(seed)
        n = self.BATCH_UNITS
        self.k_strata = rng.permutation(n).tolist()
        self.sym_strata = rng.permutation(n).tolist()
        self.label_order = (rng.permutation(n) % len(self.pair_labels)).tolist()
        self.target_order = (rng.permutation(n) % len(self.traj_host)).tolist()

    def unit(self, index: int):
        rng = np.random.default_rng([self.seed, index])
        i, n = index % self.BATCH_UNITS, self.BATCH_UNITS
        lo, hi = self.K_RANGE
        k = lo + (hi - lo) * (self.k_strata[i] + float(rng.random())) / n
        n0 = self.pair_labels[self.label_order[i]]
        k_pair = (resonance.k_point(self.problem.frequency, n0)
                  + 1.9 * sigma(n0, self.LADDER) * float(rng.uniform(-1.0, 1.0)))
        k_sym = 0.9 * self.delta0 * (2.0 * (self.sym_strata[i] + float(rng.random())) / n - 1.0)
        host = self.traj_host
        profile = trajectories.WeightProfile(
            {s: 1.0 + 2.0 * rng.random() for s in host}, T=8.0,
            kappa0=float(0.3 + 0.2 * rng.random()), host=host,
            ambient=self.traj_ambient)
        target = host.sites[self.target_order[i]]
        return [self._plain(k), self._reset(k), self._pair(k_pair, n0),
                self._sym(k_sym), self._sum(profile, target)]

    def _construction(self, kind: str, run, summarize) -> Step:
        # a construction fails only by raising; the builder checks its own laws
        return Step(kind, 1, run, lambda out: [summarize(out)],
                    lambda outputs: [None])

    def _plain(self, k: float) -> Step:
        problem = self.problem
        return self._construction(
            "plain",
            lambda: mssets.GeometryBuilder(problem).lambda_plain(k, self.SCALE),
            lambda lam: (k, _set_digest(lam)))

    def _reset(self, k: float) -> Step:
        problem = self.problem
        return self._construction(
            "reset",
            lambda: resonance.reset(problem, k, self.RESET_RADIUS),
            lambda profile: (k, profile.reset, profile.regime,
                             profile.principal_sets))

    def _pair(self, k: float, n0) -> Step:
        problem = self.problem
        return self._construction(
            "pair",
            lambda: mssets.GeometryBuilder(problem).lambda_pair(k, self.SCALE, n0),
            lambda lam: (k, n0, _set_digest(lam)))

    def _sym(self, k: float) -> Step:
        problem = self.problem
        return self._construction(
            "sym",
            lambda: mssets.GeometryBuilder(problem).lambda_sym(k, self.SCALE),
            lambda lam: (k, _set_digest(lam)))

    def _sum(self, profile, target) -> Step:
        origin = (0, 0)

        def run():
            res = trajectories.sum_enumerate(origin, target, profile, self.EPS0,
                                             len_cap=self.LEN_CAP)
            return res, trajectories.closed_bound(origin, target, profile, self.EPS0)

        def summarize(result):
            res, bnd = result
            return [(target, res.partial, res.tail, bnd.value, bnd.threshold_ok)]

        def check(outputs):
            _, partial, tail, bound, threshold_ok = outputs[0]
            if not threshold_ok:
                return [f"eps0 above the smallness ceiling (target {target})"]
            if partial + tail > bound:
                return [f"trajectory sum {partial + tail:.3g} over closed bound "
                        f"{bound:.3g} (target {target})"]
            return [None]

        return Step("sum", 1, run, summarize, check)


WORKLOADS = {
    "band_sweep": BandSweep,
    "gap_verify": GapVerify,
    "geometry_traj": GeometryTraj,
}
