import hashlib
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qpspec import checks, cli, inverse, model
from qpspec.cli import build_problem, load_config, main
from qpspec.inverse import gap_table
from qpspec.lattice import ball
from qpspec.mssets import GeometryBuilder

from conftest import random_potential

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_CONFIG = ROOT / "examples_config" / "golden_mean.json"


def write_config(tmp_path, **overrides):
    cfg = json.loads(GOLDEN_CONFIG.read_text())
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.default_blas("a pinned output must not depend on the BLAS thread count")
def test_validate_golden(tmp_path, capsys):
    rc = main(["validate", "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert '"certificate_ok": true' in out


def test_validate_rejects_bad_potential(tmp_path, capsys):
    path = write_config(tmp_path, coefficients=[{"n": [0, 1], "re": 2.0, "im": 0.0},
                                                {"n": [0, -1], "re": 2.0, "im": 0.0}])
    rc = main(["validate", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1


def test_commands_gate_on_validation(tmp_path, capsys):
    path = write_config(tmp_path, coefficients=[{"n": [0, 1], "re": 2.0, "im": 0.0},
                                                {"n": [0, -1], "re": 2.0, "im": 0.0}])
    rc = main(["gaps", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "validation"


def test_gaps_zero_potential(tmp_path, capsys):
    path = write_config(tmp_path, coefficients=[], gap_m_radius=1)
    rc = main(["gaps", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "gaps.csv").read_text().splitlines()
    assert lines[0].startswith("#")  # documented header
    rows = [l.split(",") for l in lines[2:]]
    assert rows and all(r[-1] == "true" for r in rows)
    widths = [float(r[4]) for r in rows]
    assert all(w == 0.0 for w in widths)


def test_gaps_deterministic(tmp_path):
    path = write_config(tmp_path, gap_m_radius=1)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["gaps", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["gaps", "--config", str(path), "--out", str(out2)]) == 0
    assert (out1 / "gaps.csv").read_bytes() == (out2 / "gaps.csv").read_bytes()


def test_band_csv(tmp_path, capsys):
    path = write_config(tmp_path, k_grid={"min": 0.05, "max": 0.45, "points": 5},
                        box_radius=4)
    rc = main(["band", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "band.csv").read_text().splitlines()
    assert len(lines) == 2 + 5
    k0, E0, regime = lines[2].split(",")
    assert float(E0) > 0 and regime in ("nonresonant", "paired", "graded")


def test_gap_commands_name_each_label_at_the_cap(tmp_path, capsys):
    # acceptance 3's trial-0 potential: at box_radius 5 some labels keep a
    # truncation residual above FIXED_POINT_TOL * scale
    rng = np.random.default_rng(202)
    eps = float(10 ** -rng.uniform(4, 5))
    pot = random_potential(rng, epsilon=eps, kappa0=0.5)
    coeffs = [{"n": list(n), "re": v.real, "im": v.imag} for n, v in pot.coefficients.items()]
    path = write_config(tmp_path, epsilon=eps, kappa0=0.5, coefficients=coeffs,
                        box_radius=5, gap_m_radius=4)
    labels = [m for m in ball(4, 2) if any(m)]
    records, _ = gap_table(build_problem(load_config(path)), labels, 5)
    want = sorted(f"gap at {m} reached the box_radius cap 5 with truncation residual "
                  f"{rec.truncation_residual:.3g} over tolerance"
                  for m, rec in records.items() if rec.capped)
    assert want
    for command in ("gaps", "verify-forward"):
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert sorted(line for line in out if "cap" in line) == want


def test_traj_bound_command(tmp_path, capsys):
    rc = main(["traj-bound", "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "true" in out


# a cubic-irrational nu = 3 problem, whose smallness ceiling at kappa0 = 0.5
# (1.9e-34) and golden's at kappa0 = 0.05 (8.7e-27) lie below eps0 = 1e-25
NU3_OVERRIDES = {
    "nu": 3, "omega": [1.0, 2 ** (1 / 3) - 1, 4 ** (1 / 3) - 1], "b0": 4.0,
    "coefficients": [{"n": n, "re": c, "im": 0.0}
                     for n, c in (([0, 0, 1], 0.6), ([0, 0, -1], 0.6), ([0, 1, 0], 0.4),
                                  ([0, -1, 0], 0.4), ([1, 0, 0], 0.3), ([-1, 0, 0], 0.3))]}


@pytest.mark.parametrize("overrides", [NU3_OVERRIDES, {"kappa0": 0.05}],
                         ids=["nu3", "kappa0-0.05"])
def test_trajectory_checks_keep_eps0_under_the_ceiling(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    problem = build_problem(load_config(path))
    rng = np.random.default_rng(0)
    assert all(bnd.threshold_ok for _, _, bnd
               in checks.trajectory_sums(problem, rng))
    assert main(["traj-bound", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2 and all(row.endswith(",true") for row in rows)
    main(["selftest", "--config", str(path), "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if "trajectory-bounds" in line] == [
        "PASS trajectory-bounds"]


def test_verify_forward_exit(tmp_path, capsys):
    path = write_config(tmp_path, gap_m_radius=1, box_radius=5)
    rc = main(["verify-forward", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    assert "pass" in capsys.readouterr().out


def test_geometry_budget_error(tmp_path, capsys):
    path = write_config(tmp_path, site_budget=50)
    rc = main(["geometry", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "regime"


@pytest.mark.parametrize("ladders, message", [
    # without geometry_ladder the command runs on the config's ladder, whose
    # level-1 classes are too wide at geometry_k
    ({"geometry_ladder": None}, "class separation violated at level 1"),
    ({"geometry_ladder": None, "ladder": None}, "geometry requires a ladder in the config"),
])
def test_geometry_ladder_falls_back_to_the_ladder(tmp_path, capsys, ladders, message):
    path = write_config(tmp_path, **ladders)
    assert main(["geometry", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "regime" and message in err["message"]


def test_geometry_reset_tie_is_one_json_error(tmp_path, capsys):
    # reset widths so wide that two mirrors of equal norm catch k = 0.1
    path = write_config(tmp_path, geometry_k=0.1, geometry_s=1, geometry_ladder={
        "beta1": 0.35, "log_R": [2.05, 2.98], "log_delta": [-2.0, -2.5, -3.0]})
    rc = main(["geometry", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "regime" and "equal norm" in err["message"]


@pytest.mark.parametrize("window", [50, 0])
def test_geometry_reset_searches_radius_12_at_any_window(tmp_path, window):
    # at k = k_(0,1) the reset set is {(0, 1)}; window 0 sets no certificate
    # limit, so it must not shrink the search to radius 0
    k01 = -0.5 * json.loads(GOLDEN_CONFIG.read_text())["omega"][1]
    path = write_config(tmp_path, geometry_k=k01, geometry_s=1, diophantine_window=window)
    assert main(["geometry", "--config", str(path), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "geometry.json").read_text())
    assert doc["reset"] == [[0, 1]]
    assert doc["regime"] == ["simple_pair", "(0, 1)"]


def test_geometry_output(tmp_path, monkeypatch):
    # the plain set and the classes key read one classification
    classify, calls = GeometryBuilder.site_classes, []

    def counted(self, *args):
        calls.append(args)
        return classify(self, *args)

    monkeypatch.setattr(GeometryBuilder, "site_classes", counted)
    rc = main(["geometry", "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path)])
    assert rc == 0
    assert calls == [(0.2088, 2)]
    doc = json.loads((tmp_path / "geometry.json").read_text())
    assert doc["classes"]["1"] == [[0, 0]]
    assert len(doc["lambda_plain"]) > 1000


def test_huge_diophantine_window_is_a_budget_error(tmp_path, capsys, monkeypatch):
    # every command validates the certificate window first; an over-cap
    # window is refused as JSON with exit 2 before any point is built
    def refuse(*args, **kwargs):
        raise AssertionError("an over-cap window must not build any point")

    monkeypatch.setattr(np, "indices", refuse)
    monkeypatch.setattr(np, "meshgrid", refuse)
    path = write_config(tmp_path, diophantine_window=10 ** 6)
    for command in ("validate", "gaps"):
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "regime" and "exceeds the cap" in err["message"]


def test_validate_without_certificate_window_fails_cleanly(tmp_path, capsys):
    # a window of 0 records no Diophantine certificate: reported, not raised
    path = write_config(tmp_path, diophantine_window=0)
    assert main(["validate", "--config", str(path), "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    cert = json.loads(captured.out[:captured.out.rindex("}") + 1])
    assert cert["diophantine_margin"] is None and cert["diophantine_witness"] is None
    assert cert["certificate_ok"] is False


def test_validate_computes_the_margin_once(tmp_path, capsys, monkeypatch):
    calls = {"margin": 0, "validate": 0}
    real_margin, real_validate = model.diophantine_margin, model.Problem.validate

    def margin(*args, **kwargs):
        calls["margin"] += 1
        return real_margin(*args, **kwargs)

    def validate(self):
        calls["validate"] += 1
        return real_validate(self)

    monkeypatch.setattr(model, "diophantine_margin", margin)
    monkeypatch.setattr(model.Problem, "validate", validate)
    assert main(["validate", "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path)]) == 0
    assert calls == {"margin": 1, "validate": 1}


GOLDEN = json.loads(GOLDEN_CONFIG.read_text())
LADDER, GEOMETRY_LADDER = GOLDEN["ladder"], GOLDEN["geometry_ladder"]

# (command, top-level overrides, a fragment of the config error's message);
# each config is malformed in one nested key, value or shape
MALFORMED = {
    "coefficient-typo": ("verify-forward", {"coefficients": [{"n": [0, 1], "real": 0.6},
                                                             {"n": [0, -1], "real": 0.6}]},
                         "unknown config key coefficients[0].real"),
    "coefficient-of-wrong-dimension": ("gaps", {"coefficients": [{"n": [0, 1, 2], "re": 0.1}]},
                                       "one entry per omega component"),
    "ladder-typo": ("validate", {"ladder": {**LADDER, "u_mx": 3}},
                    "unknown config key ladder.u_mx"),
    "k-grid-typo": ("validate", {"k_grid": {**GOLDEN["k_grid"], "pionts": 5}},
                    "unknown config key k_grid.pionts"),
    "ladder-regime": ("validate", {"ladder": {**LADDER, "regime": "desk"}},
                      "unknown config key ladder.regime"),
    "ladder-not-a-table": ("validate", {"ladder": 3}, "ladder must be a table"),
    "geometry-ladder-without-log-R": (
        "geometry", {"geometry_ladder": {"beta1": 0.35, "log_delta": GEOMETRY_LADDER["log_delta"]}},
        "missing config key geometry_ladder.log_R"),
    "geometry-ladder-not-monotone": (
        "geometry", {"geometry_ladder": {**GEOMETRY_LADDER,
                                         "log_R": GEOMETRY_LADDER["log_R"][::-1]}},
        "R must increase strictly"),
    "geometry-ladder-wrong-length": (
        "geometry", {"geometry_ladder": {**GEOMETRY_LADDER,
                                         "log_delta": GEOMETRY_LADDER["log_delta"][:2]}},
        "need log_delta rungs"),
    "negative-box-radius": ("gaps", {"box_radius": -1}, "box_radius must be an int >= 0"),
    "negative-gap-m-radius": ("gaps", {"gap_m_radius": -1}, "gap_m_radius must be an int >= 0"),
    "negative-seed": ("traj-bound", {"seed": -1}, "seed must be an int >= 0"),
    "negative-diophantine-window": ("gaps", {"diophantine_window": -1},
                                    "diophantine_window must be an int >= 0"),
    "negative-geometry-s": ("geometry", {"geometry_s": -1}, "geometry_s must be an int >= 0"),
    "zero-geometry-s": ("geometry", {"geometry_s": 0}, "geometry_s must be an int >= 1, got 0"),
    # json.load reads the NaN and Infinity literals that json.dumps writes
    "nan-k-grid-min": ("band", {"k_grid": {**GOLDEN["k_grid"], "min": math.nan}},
                       "k_grid.min must be a number, got NaN"),
    "infinite-k-grid-max": ("band", {"k_grid": {**GOLDEN["k_grid"], "max": math.inf}},
                            "k_grid.max must be a number, got Infinity"),
    "nan-geometry-k": ("geometry", {"geometry_k": math.nan}, "geometry_k must be a number, got NaN"),
    "infinite-geometry-k": ("geometry", {"geometry_k": -math.inf},
                            "geometry_k must be a number, got -Infinity"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_is_one_json_error(tmp_path, capsys, case):
    command, overrides, message = MALFORMED[case]
    path = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["error"] == "config" and message in err["message"]


def test_negative_seed_flag_is_one_json_error(tmp_path, capsys):
    # --seed passes the same check as the config's "seed"
    argv = ["traj-bound", "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path)]
    assert main(argv + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["error"] == "config" and "seed must be an int >= 0" in err["message"]


def test_validate_skips_thresholds_for_an_invalid_kappa0(tmp_path, capsys):
    # the golden config has a ladder; its thresholds need kappa0 > 0
    path = write_config(tmp_path, kappa0=-1)
    assert main(["validate", "--config", str(path), "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    cert = json.loads(captured.out)
    assert not cert["certificate_ok"]
    assert any("kappa0" in v for v in cert["potential_violations"])
    assert "threshold" not in captured.out and captured.err == ""


def test_partial_k_grid_takes_its_defaults(tmp_path):
    path = write_config(tmp_path, k_grid={"points": 3}, box_radius=4)
    assert main(["band", "--config", str(path), "--out", str(tmp_path)]) == 0
    ks = [float(line.split(",")[0]) for line in
          (tmp_path / "band.csv").read_text().splitlines()[2:]]
    assert ks == [0.05, 0.25, 0.45]


@pytest.mark.parametrize("key", ["traj_eps0", "box_radus"])
def test_unknown_config_key_rejected(tmp_path, capsys, key):
    path = write_config(tmp_path, **{key: 1})
    assert main(["gaps", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and key in err["message"]


def test_verify_inverse_report(tmp_path):
    path = write_config(tmp_path, gap_m_radius=2, box_radius=5)
    rc = main(["verify-inverse", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "inverse-report.json").read_text())
    assert doc["hypothesis_ok"] is True
    assert all(row["holds"] for row in doc["pointwise"])


def test_verify_inverse_at_box_radius_zero(tmp_path, capsys):
    # every label's box is the pair {0, n0} alone, whose reduced set is empty
    path = write_config(tmp_path, box_radius=0)
    assert main(["verify-inverse", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_entrypoint_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qpspec.cli", "validate",
         "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0


# only the commands that call the dense oracle import scipy, on its first
# call; gaps is the control, so the probe cannot pass vacuously
@pytest.mark.parametrize("command, loads_scipy", [
    ("validate", False), ("band", False), ("geometry", False), ("traj-bound", False),
    ("gaps", True)])
def test_only_oracle_commands_import_scipy(tmp_path, command, loads_scipy):
    args = [command, "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path)]
    probe = ("import sys\nfrom qpspec.cli import main\n"
             f"rc = main({args!r})\nprint(rc, 'scipy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=300)
    assert proc.stdout.splitlines()[-1] == f"0 {loads_scipy}", proc.stderr


def test_regime_flags_are_gone(tmp_path):
    for flag in ("--desk", "--faithful"):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path), flag])
        assert exc.value.code == 2  # argparse's usage error


def test_nu_mismatch_rejected(tmp_path, capsys):
    path = write_config(tmp_path, nu=3)
    rc = main(["validate", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


# sha256 of each command's output on the golden config: the file it writes,
# or its stdout with the output directory masked.  selftest is left out on
# purpose; its detail strings name the checks and their measured deviations.
GOLDEN_SHA256 = {
    "band": ("band.csv", "7b5861cde7189f47e84819856dfbdfba29323bf3c4fbe517c12ea902fb36e1d7"),
    "gaps": ("gaps.csv", "e37d9858c37016fb0e847c619e0fb42871dc46930880677758511873f3ceb394"),
    "geometry": ("geometry.json",
                 "e3274622790324dc27c9b3a104b10329596c75336127fce4d33f508da3596a3c"),
    "verify-inverse": ("inverse-report.json",
                       "952247736d51b31f117587bc0ec12e6f45e62b463021e1d5cbae0f3961be8b6e"),
    "validate": (None, "a6bb7f05682edadad42131d77a23fbb24dee39d23eab3f8b3e61157a2ef1cd07"),
    "traj-bound": (None, "dfe3b89b17a3359b9d5718d2d2ae801e3de5c902cff56d7587ac96bd56777992"),
    "verify-forward": (None, "066485c87f64447713563587da483829cd09a08775d2eb2dc36c5d6fe6bd54a7"),
}


@pytest.mark.default_blas("a pinned output must not depend on the BLAS thread count")
@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_golden_output_pinned(tmp_path, capsys, command):
    name, digest = GOLDEN_SHA256[command]
    assert main([command, "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.replace(str(tmp_path), "<out>")
    data = (tmp_path / name).read_bytes() if name else out.encode()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.default_blas("a golden gap command must make the same solves at any BLAS thread count")
@pytest.mark.parametrize("command, labels, solves", [
    ("gaps", 12, 6), ("verify-forward", 12, 6), ("verify-inverse", 2, 1)])
def test_golden_gap_commands_solve_each_pair_once(tmp_path, capsys, monkeypatch,
                                                  command, labels, solves):
    # the golden labels come in +- pairs, and each pair is one gap solve
    asked, solved = [], []
    real_gap_table, real_sized_gap = inverse.gap_table, inverse.sized_gap

    def counting_gap_table(problem, m_list, box_radius):
        asked.extend(map(tuple, m_list))
        return real_gap_table(problem, m_list, box_radius)

    def counting_sized_gap(problem, n0, cap):
        solved.append(tuple(n0))
        return real_sized_gap(problem, n0, cap)

    monkeypatch.setattr(cli, "gap_table", counting_gap_table)
    monkeypatch.setattr(inverse, "gap_table", counting_gap_table)
    monkeypatch.setattr(inverse, "sized_gap", counting_sized_gap)
    assert main([command, "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path)]) == 0
    assert len(asked) == labels and len(solved) == solves
    assert sorted(solved) == sorted(m for m in asked if m > tuple(-x for x in m))


@pytest.mark.default_blas("a golden band point must take the same solve path at any BLAS thread count")
def test_golden_band_factors_nothing(tmp_path, solve_paths):
    # every golden band energy is solved by the diagonal series alone: the
    # sites within 1000 r of v(0) (at k = 0.05 and 0.07, (3, -5) and
    # (-2, 3)) are pivots of their points, so no solve has a near site
    assert main(["band", "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path)]) == 0
    total = sum(solve_paths.values(), Counter())
    assert set(total) == {"diagonal"}


@pytest.mark.default_blas("a golden band point must take the same solve path at any BLAS thread count")
def test_golden_paired_band_points_solve_two_energies(tmp_path, solve_paths):
    # a paired point's fixed point starts from its own pivot diagonal, the
    # root with no coupling: one energy to step from, one to confirm the root
    assert main(["band", "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path)]) == 0
    energies = {round(solver.k, 2): sum(paths.values())
                for solver, paths in solve_paths.items() if len(solver.pivots) == 2}
    assert energies == {0.05: 2, 0.07: 2, 0.19: 2, 0.31: 2}


# the selftest suite in run order; gap-first-order and gap-box are the CLI's
# paths through spectral.gap_at
SELFTEST_CHECKS = ("hermitian-restriction", "cocycle-identity", "reflection-conjugation",
                   "reduced-vs-dense", "correct-words", "ladder-recursion", "band-symmetry",
                   "gap-first-order", "gap-box", "zeta-pair", "trajectory-bounds",
                   "feynman-vs-fd")


def test_selftest_passes_every_check(tmp_path, capsys):
    # names and PASS only; the detail strings stay unpinned, as above
    assert main(["selftest", "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name in SELFTEST_CHECKS]
