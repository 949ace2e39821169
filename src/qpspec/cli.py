"""Command-line front end: config loading, dispatch, machine-readable output.

Commands: validate, band, gaps, geometry, traj-bound, verify-forward,
verify-inverse, selftest.  All outputs are deterministic given
(config, seed); floats are serialized with 17 significant digits.

Exit codes: 0 ok, 1 validation failure, 2 regime/budget error,
3 assertion failure in a verify command.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import checks
from .errors import (CombinatorialBudgetError, EpsilonTooLargeError,
                     GeometryError, LadderRangeError, QPSpecError, RegimeError,
                     SiteBudgetError)
from .inverse import gap_table, verify_forward, verify_inverse
from .lattice import DEFAULT_SITE_BUDGET, ball, l1_norm
from .model import (Frequency, Potential, Problem, ScaleLadder, build_ladder,
                    log_eps0_threshold)
from .mssets import GeometryBuilder
from .resonance import reset
from .spectral import band

FLOAT_FMT = "%.17g"

# An optional key: checked against `spec` when given, `value` when absent.
Default = namedtuple("Default", "spec value")

# The config, one entry per key at every level; load_config refuses any other
# key, and reads an absent key and a null one alike.  A type marks a required
# key.  Any other scalar is the key's default, and its type is the one
# accepted: a float default takes any finite number (json.load also reads NaN
# and Infinity), an int default an int >= 0.  A dict is a nested table, and a
# one-item list a list of that item.
CONFIG = {
    "omega": [float], "a0": float, "b0": float, "epsilon": float, "kappa0": float,
    "nu": Default(int, None),
    "coefficients": Default([{"n": [int], "re": 0.0, "im": 0.0}], []),
    "ladder": Default({"delta0": float, "beta1": float, "u_max": 2}, None),
    "site_budget": DEFAULT_SITE_BUDGET,
    "diophantine_window": 50, "box_radius": 8, "gap_m_radius": 3,
    "k_grid": {"min": 0.05, "max": 0.45, "points": 81},
    "geometry_ladder": Default({"beta1": 0.5, "log_R": [float], "log_delta": [float]}, None),
    "geometry_k": 0.0, "geometry_s": 2, "seed": 0,
}

_BUDGET_ERRORS = (SiteBudgetError, CombinatorialBudgetError, RegimeError,
                  LadderRangeError, GeometryError, EpsilonTooLargeError)


def fmt(x) -> str:
    return FLOAT_FMT % float(x)


def _check(spec, value, path, faults):
    """`value` checked against `spec`, with absent defaults filled in; each
    fault is appended to `faults`, named by its path."""
    if isinstance(spec, Default):
        return spec.value if value is None else _check(spec.spec, value, path, faults)
    if value is None:
        if isinstance(spec, (type, list)):
            faults.append(f"missing config key {path}")
            return None
        if not isinstance(spec, dict):
            return spec
        value = {}
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            faults.append(f"{path or 'the config'} must be a table")
            return None
        at = f"{path}." if path else ""
        faults.extend(f"unknown config key {at}{key}" for key in sorted(value.keys() - spec.keys()))
        return {key: _check(item, value.get(key), at + key, faults) for key, item in spec.items()}
    if isinstance(spec, list):
        if not isinstance(value, list):
            faults.append(f"{path} must be a list")
            return None
        return [_check(spec[0], item, f"{path}[{i}]", faults) for i, item in enumerate(value)]
    number = int if int in (spec, type(spec)) else (int, float)
    floor = 0 if type(spec) is int else float("-inf")
    if (isinstance(value, bool) or not isinstance(value, number) or value < floor
            or isinstance(value, float) and not math.isfinite(value)):
        want = "a number" if number is not int else "an int >= 0" if floor == 0 else "an int"
        faults.append(f"{path} must be {want}, got {json.dumps(value)}")
    return value


def load_config(path, seed=None):
    """The config at `path`, with `seed` (when given) in place of its own,
    checked against CONFIG, with every absent optional key at its default."""
    with open(path) as fh:
        raw = json.load(fh)
    if seed is not None and isinstance(raw, dict):
        raw["seed"] = seed
    faults = []
    cfg = _check(CONFIG, raw, "", faults)
    if faults:
        raise ValueError("; ".join(faults))
    return cfg


def build_problem(cfg) -> Problem:
    if cfg["nu"] is not None and cfg["nu"] != len(cfg["omega"]):
        raise ValueError(f"nu={cfg['nu']} disagrees with omega of length {len(cfg['omega'])}")
    freq = Frequency(tuple(cfg["omega"]), cfg["a0"], cfg["b0"],
                     window_n=cfg["diophantine_window"])
    table = {tuple(item["n"]): complex(item["re"], item["im"]) for item in cfg["coefficients"]}
    if any(len(n) != len(cfg["omega"]) for n in table):
        raise ValueError("every coefficients[i].n needs one entry per omega component")
    pot = Potential.from_harmonics(table, cfg["epsilon"], cfg["kappa0"])
    lad = cfg["ladder"]
    ladder = None if lad is None else build_ladder(
        lad["delta0"], lad["beta1"], lad["u_max"],
        site_budget=cfg["site_budget"], nu=len(cfg["omega"]))
    return Problem(freq, pot, ladder, site_budget=cfg["site_budget"])


def _error_json(kind, exc):
    sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")


def cmd_validate(cfg, problem, out_dir):
    report = problem.validate()
    margin, witness = problem.diophantine or (None, None)
    cert = {
        "potential_violations": report,
        "diophantine_margin": None if margin is None else float(margin),
        "diophantine_witness": None if witness is None else list(witness),
        "certificate_ok": margin is not None and margin >= problem.frequency.a0 and not report,
    }
    print(json.dumps(cert, indent=2, sort_keys=True))
    if problem.ladder is not None and not report:  # the thresholds need a valid kappa0
        log_eps0 = log_eps0_threshold(problem.ladder, problem.potential.kappa0, problem.nu)
        print(f"log eps0 threshold: {fmt(log_eps0)}")
    return 0 if cert["certificate_ok"] else 1


def cmd_band(cfg, problem, out_dir):
    host = ball(cfg["box_radius"], problem.nu, budget=problem.site_budget)
    grid = np.linspace(cfg["k_grid"]["min"], cfg["k_grid"]["max"], cfg["k_grid"]["points"])
    points = band(problem, grid, lambda k: host)
    path = out_dir / "band.csv"
    with open(path, "w") as fh:
        fh.write("# k: quasi-momentum; E: band energy (raw units); regime: branch tag\n")
        fh.write("k,E,regime\n")
        for p in points:
            fh.write(f"{fmt(p.k)},{fmt(p.E)},{p.regime}\n")
    errors = [p for p in points if p.regime == "error"]
    print(f"wrote {path} ({len(points)} points, {len(errors)} failures)")
    return 0


def _forward_rows(cfg, problem):
    """Gap records and failures over the label window, and the forward rows
    ordered by (|m|, m).  Prints one line for each label whose box reached
    the box_radius cap without its truncation residual passing."""
    ms = [m for m in ball(cfg["gap_m_radius"], problem.nu, budget=None) if any(m)]
    records, failures = gap_table(problem, ms, cfg["box_radius"])
    rows = sorted(verify_forward(records, problem.potential),
                  key=lambda r: (l1_norm(r.m), r.m))
    for row in rows:
        rec = records[row.m]
        if rec.capped:
            print(f"gap at {row.m} reached the box_radius cap {rec.radius} with "
                  f"truncation residual {rec.truncation_residual:.3g} over tolerance")
    return records, failures, rows


def cmd_gaps(cfg, problem, out_dir):
    records, failures, rows = _forward_rows(cfg, problem)
    path = out_dir / "gaps.csv"
    with open(path, "w") as fh:
        fh.write("# m: resonance label; k_m: resonance point; E_minus/E_plus: gap edges"
                 " (raw units); width: E_plus - E_minus;"
                 " theoremB_bound: 2 eps exp(-kappa0 |m|/2); pass: width <= bound\n")
        fh.write("m,k_m,E_minus,E_plus,width,theoremB_bound,pass\n")
        for row in rows:
            rec = records[row.m]
            fh.write(",".join([
                '"' + " ".join(map(str, row.m)) + '"', fmt(rec.k_point),
                fmt(rec.E_minus), fmt(rec.E_plus), fmt(row.width),
                fmt(row.bound), str(row.passed).lower()]) + "\n")
    for m, msg in sorted(failures.items()):
        print(f"gap at {m} failed: {msg}")
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_geometry(cfg, problem, out_dir):
    problem = dataclasses.replace(problem, ladder=cfg["geometry_ladder"] or problem.ladder)
    if problem.ladder is None:
        raise RegimeError("geometry requires a ladder in the config")
    k = cfg["geometry_k"]
    s = cfg["geometry_s"]
    builder = GeometryBuilder(problem)
    if s >= 2:       # one classification, for the plain set and the classes key
        classes = builder.site_classes(k, s)
        plain = builder._plain(k, s, classes)
    else:
        classes, plain = None, builder.lambda_plain(k, s)
    # radius 12, or the certificate window if smaller; window 0 sets no limit
    profile = reset(problem, k, min(problem.frequency.window_n or 12, 12))
    doc = {
        "k": k,
        "s": s,
        "lambda_plain": [list(p) for p in plain],
        "classes": {
            str(sp): [list(m) for m in mem]
            for sp, mem in classes.members.items()
        } if classes is not None else {},
        "reset": [list(n) for n in profile.reset],
        "principal_sets": [[list(m) for m in tier] for tier in profile.principal_sets],
        "regime": list(map(str, profile.regime)),
    }
    path = out_dir / "geometry.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    print(f"wrote {path}")
    return 0


def cmd_traj_bound(cfg, problem, out_dir):
    rng = np.random.default_rng(cfg["seed"])
    zero = tuple([0] * problem.nu)
    print("m,n,partial,tail,closed_bound,ok")
    all_ok = True
    for n, res, bnd in checks.trajectory_sums(problem, rng):
        ok = res.total <= bnd.value and bnd.threshold_ok
        all_ok &= ok
        print(",".join(['"' + " ".join(map(str, zero)) + '"',
                        '"' + " ".join(map(str, n)) + '"',
                        fmt(res.partial), fmt(res.tail), fmt(bnd.value),
                        str(ok).lower()]))
    return 0 if all_ok else 3


def cmd_verify_forward(cfg, problem, out_dir):
    _, failures, rows = _forward_rows(cfg, problem)
    bad = [r for r in rows if not r.passed]
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        print(f"m={row.m} width={fmt(row.width)} bound={fmt(row.bound)} {status}")
    if failures:
        print(f"{len(failures)} gap computations failed")
        return 2
    return 0 if not bad else 3


def cmd_verify_inverse(cfg, problem, out_dir):
    report = verify_inverse(problem, cfg["box_radius"], window_norm=cfg["gap_m_radius"])
    doc = {
        "hypothesis_ok": report.hypothesis_ok,
        "note": report.note,
        "pointwise": [
            {"n0": list(r.n0), "width": r.gap_width, "bound_desk": r.bound_desk,
             "bound_coarse": r.bound_coarse, "actual": r.actual, "holds": r.holds}
            for r in report.pointwise],
        "improvement": [
            {"eps": s.after.eps_hat, "kappa": s.after.kappa_hat, "verified": s.verified}
            for s in report.improvement],
        "final": {"eps": report.final_bound.eps_hat,
                  "kappa": report.final_bound.kappa_hat, "ok": report.final_ok},
    }
    path = out_dir / "inverse-report.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    print(f"wrote {path}")
    if not report.hypothesis_ok:
        return 2
    ok = all(r.holds for r in report.pointwise) and report.final_ok
    return 0 if ok else 3


def cmd_selftest(cfg, problem, out_dir):
    results = checks.run_selftest(problem, seed=cfg["seed"])
    failed = 0
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    return 0 if failed == 0 else 3


COMMANDS = {
    "validate": cmd_validate,
    "band": cmd_band,
    "gaps": cmd_gaps,
    "geometry": cmd_geometry,
    "traj-bound": cmd_traj_bound,
    "verify-forward": cmd_verify_forward,
    "verify-inverse": cmd_verify_inverse,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qpspec",
        description="Quasi-periodic dual-operator spectra: bands, gaps, geometry.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.seed)
        problem = build_problem(cfg)
        gl = cfg["geometry_ladder"]
        if gl is not None:  # built here, so that a malformed one is a config error
            cfg["geometry_ladder"] = ScaleLadder.from_sequences(
                gl["beta1"], gl["log_R"], gl["log_delta"])
        if cfg["geometry_s"] == 0:  # the scales start at s = 1
            raise ValueError("geometry_s must be an int >= 1, got 0")
    except _BUDGET_ERRORS as exc:
        _error_json("regime", exc)
        return 2
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        _error_json("config", exc)
        return 1

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = [] if args.command == "validate" else problem.validate()
        if report:  # validate reports its own violations
            _error_json("validation", "; ".join(report))
            return 1
        return COMMANDS[args.command](cfg, problem, out_dir)
    except _BUDGET_ERRORS as exc:
        _error_json("regime", exc)
        return 2
    except QPSpecError as exc:
        _error_json("error", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
