"""Span tracing of the qpspec layers, installed from outside the package.

``Tracer.install`` wraps every traced callable in each ``qpspec`` module
namespace that holds it: ``from .dual_operator import restrict`` binds a
separate name in ``spectral``, ``schur`` and ``checks``, and each binding is
replaced.  Methods are wrapped on their class.  A span records
(name, start, end, parent span, item id); spans stay in memory until the
run writes them out.  ``uninstall`` restores every original binding.

Which end-to-end figure each layer should move, on which workload:

- dual_operator.restrict: items_per_s on band_sweep and gap_verify; none
  on geometry_traj.
- dual_operator.dense_spectrum: items_per_s and item_ms_p50 on
  gap_verify; almost none on band_sweep, which runs with the oracle off.
- schur.ReducedSolver.*: item_ms_p90 and items_per_s on band_sweep (paired
  points solve at ~100 energies); little on gap_verify (a few per solver).
- spectral.*: the band regime counts explain band_sweep's p50 / p90 split.
- inverse.*: items_per_s on gap_verify.
- mssets, resonance, lattice: items_per_s and item_ms_p50 on
  geometry_traj, setup_s elsewhere; none on the BLAS workloads.
- trajectories: item_ms_p90 on geometry_traj.
"""

from __future__ import annotations

import functools
import importlib
import math
import pkgutil
import sys
import time
import weakref
from collections import Counter, defaultdict

# layer name -> (module, attribute); the layer name is <module>.<callable>
FUNCTIONS = {
    "dual_operator.restrict": ("qpspec.dual_operator", "restrict"),
    "dual_operator.dense_spectrum": ("qpspec.dual_operator", "dense_spectrum"),
    "spectral.band": ("qpspec.spectral", "band"),
    "spectral.eigen_simple": ("qpspec.spectral", "eigen_simple"),
    "spectral.eigen_pair": ("qpspec.spectral", "eigen_pair"),
    "spectral.gap_at": ("qpspec.spectral", "gap_at"),
    "inverse.gap_table": ("qpspec.inverse", "gap_table"),
    "inverse.verify_forward": ("qpspec.inverse", "verify_forward"),
    "inverse.verify_inverse": ("qpspec.inverse", "verify_inverse"),
    "inverse.recovered_bound": ("qpspec.inverse", "recovered_bound"),
    "resonance.reset": ("qpspec.resonance", "reset"),
    "resonance.interval": ("qpspec.resonance", "interval"),
    "lattice.ball": ("qpspec.lattice", "ball"),
    "lattice.straddles": ("qpspec.lattice", "straddles"),
    "trajectories.sum_enumerate": ("qpspec.trajectories", "sum_enumerate"),
    "trajectories.closed_bound": ("qpspec.trajectories", "closed_bound"),
}

# layer name -> (module, class, method)
METHODS = {
    "schur.ReducedSolver.init": ("qpspec.schur", "ReducedSolver", "__init__"),
    "schur.ReducedSolver.q": ("qpspec.schur", "ReducedSolver", "q"),
    "schur.ReducedSolver.g": ("qpspec.schur", "ReducedSolver", "g"),
    "schur.ReducedSolver.f": ("qpspec.schur", "ReducedSolver", "f"),
    "schur.ReducedSolver.solve": ("qpspec.schur", "ReducedSolver", "solve"),
    "mssets.GeometryBuilder.lambda_plain": ("qpspec.mssets", "GeometryBuilder", "lambda_plain"),
    "mssets.GeometryBuilder.lambda_sym": ("qpspec.mssets", "GeometryBuilder", "lambda_sym"),
    "mssets.GeometryBuilder.lambda_pair": ("qpspec.mssets", "GeometryBuilder", "lambda_pair"),
    "mssets.GeometryBuilder.site_classes": ("qpspec.mssets", "GeometryBuilder", "site_classes"),
    "mssets.GeometryBuilder.admissible_k": ("qpspec.mssets", "GeometryBuilder", "admissible_k"),
}

LAYERS = tuple(FUNCTIONS) + tuple(METHODS)
BAND_REGIMES = ("nonresonant", "paired", "resonance_point", "error")
COUNTERS = (("dual_operator.restrict.sites", "count"),
            ("spectral.eigen_simple.dense_fallback", "count"),
            *((f"spectral.band.points.{r}", "count") for r in BAND_REGIMES))


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted(intervals):
        a, b = max(a, start), min(b, end)
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, item in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered(start, end, children.get(i, ()))
            for i, (name, start, end, parent, item) in enumerate(spans)]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, item id]
        self.counters = Counter()
        self.item = None
        self._stack = []
        self._undo = []
        self._solver_energies = weakref.WeakKeyDictionary()
        self._energy_sets = []   # one set of distinct E per ReducedSolver

    # -- hooks: counts taken from what a layer returns or is called with -----

    def _on_restrict(self, args, kwargs, result):
        self.counters["dual_operator.restrict.sites"] += len(result.sites)

    def _on_eigen_simple(self, args, kwargs, result):
        # band relabels these points "nonresonant", so only this count sees them
        if result.regime == "dense_fallback":
            self.counters["spectral.eigen_simple.dense_fallback"] += 1

    def _on_band(self, args, kwargs, result):
        for point in result:
            self.counters[f"spectral.band.points.{point.regime}"] += 1

    def _on_solver_init(self, args, kwargs, result):
        energies = set()
        self._energy_sets.append(energies)
        self._solver_energies[args[0]] = energies

    def _on_solve(self, args, kwargs, result):
        solver, E = args[0], args[1] if len(args) > 1 else kwargs["E"]
        self._solver_energies[solver].add(float(E))

    HOOKS = {
        "dual_operator.restrict": _on_restrict,
        "spectral.eigen_simple": _on_eigen_simple,
        "spectral.band": _on_band,
        "schur.ReducedSolver.init": _on_solver_init,
        "schur.ReducedSolver.solve": _on_solve,
    }

    # -- installation -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = self.HOOKS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        import qpspec
        for info in pkgutil.iter_modules(qpspec.__path__):
            importlib.import_module(f"qpspec.{info.name}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qpspec" or n.startswith("qpspec.")]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            traced = self._wrap(name, original)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, traced)
                        self._undo.append((mod, binding, original))
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        while self._undo:
            obj, binding, original = self._undo.pop()
            setattr(obj, binding, original)

    # -- results ------------------------------------------------------------------

    def coverage(self, windows) -> float:
        """Share of the (start, end, item) windows covered by the top-level
        spans of their item."""
        top = defaultdict(list)
        for name, start, end, parent, item in self.spans:
            if parent < 0:
                top[item].append((start, end))
        total = sum(end - start for start, end, _ in windows)
        return sum(covered(start, end, top[item]) for start, end, item in windows) / total

    def layer_metrics(self) -> dict:
        """{metric name: (value, unit)} for every layer and counter."""
        calls, own = Counter(), defaultdict(float)
        intervals = defaultdict(list)
        for span, self_s in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            own[span[0]] += self_s
            intervals[span[0]].append((span[1], span[2]))
        out = {}
        for name in LAYERS:
            # .s is the time the layer was on the stack, so recursive calls
            # (lambda_plain -> site_classes -> lambda_plain) count once
            busy = covered(-math.inf, math.inf, intervals[name])
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.s"] = (busy, "s")
            out[f"{name}.self_s"] = (own[name], "s")
        for name, unit in COUNTERS:
            out[name] = (self.counters[name], unit)
        used = [len(e) for e in self._energy_sets]
        out["schur.ReducedSolver.energies_per_solver"] = (
            sum(used) / len(used) if used else 0.0, "E/solver")
        return out
