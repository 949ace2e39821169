#!/usr/bin/env python3
"""Benchmark of the qpspec verifier: three seeded workloads, one result line.

Run from the root of a checkout:

    python3 bench/run.py --workload band_sweep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each was chosen): band_sweep,
gap_verify, geometry_traj.  Everything runs in one process with jobs=1 and
OPENBLAS_NUM_THREADS=1.  At the host default OpenBLAS starts one thread per
CPU; on a 2-vCPU VM that made gap_verify 3.7x slower than one thread.  The
traced run reports the host-default rate beside it.

A run's work is a fixed batch: the first units of the workload, drawn
from the seed, at least MIN_ITEMS items.  The run passes over the batch
until --seconds have passed, and checks every output afterwards; every pass
over a step must give the same output.  Between steps, outside the timed
region, garbage is collected and what survives is frozen (gc.freeze), so
the collector's work inside a step is on that step's objects alone.

Times are scaled to a reference speed.  On a 2-vCPU KVM guest of a shared
Xeon (Sapphire Rapids) host, the work a vCPU does per second changes with
the load of other guests, by 1.5x from one second to the next and by more
than 2x over minutes, with no stolen time visible to the guest; no run
length averages that out.  So a fixed reference kernel
(measure.reference_kernel, about 1 ms of tuple, set, dict and LAPACK work)
runs before every step and after the last, and a step's wall time t is
reported as t * REFERENCE_S / r, where r is the mean of the two reference
times around it: the time the step would take on a CPU that runs the
reference kernel in REFERENCE_S (1 ms; such a guest, when its host is
quiet, takes 0.90-0.95 ms).  A step's time is the median over the passes.
On that guest, with the host's load changing, the quartile spread over
seeds of the scaled figures was 0.02-0.05 of their median where the
unscaled wall time spread 0.16-0.24.  The traced run reports the unscaled
wall-time figures and the reference time itself.

--trace 0 reports the end-to-end metrics: setup_s (median over several
set-ups, each in a fresh interpreter: import plus building the problems,
hosts and ladders, scaled by a reference time taken right after),
items_per_s, item_ms_p50, item_ms_p90 and peak_rss_mb.  --trace 1 is the
separate traced run.  It passes over the batch untraced and traced in
turn, with every layer call of the first traced pass recorded as a span,
passes over it once more in a child process with BLAS threads at the host
default, and times the eight CLI commands on
examples_config/golden_mean.json; it reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A record of the run (manifest, failures,
and in a traced run every span) is written to bench/out/ as gzipped JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from measure import (MIN_ITEMS, REFERENCE_S, digest, failed_frac, percentile,
                     reference_seconds)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
CLI_CONFIG = ROOT / "examples_config" / "golden_mean.json"
CLI_COMMANDS = ("validate", "band", "gaps", "geometry", "traj-bound",
                "verify-forward", "verify-inverse", "selftest")
WORKLOAD_NAMES = ("band_sweep", "gap_verify", "geometry_traj")
SETUP_SAMPLES = 5
WARM_UP_STEPS = 5     # steps of unit 0 run once, untimed, before the passes
CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass
class StepRecord:
    unit: int
    index: int
    step: object
    runs: list        # (seconds, outputs, error) of each pass over the step
    refs: list        # reference kernel seconds around the step, per pass

    @property
    def key(self):
        return (self.unit, self.index)

    @property
    def seconds(self) -> float:
        """Median over the passes of the step's time at reference speed."""
        return statistics.median(seconds * REFERENCE_S / ref
                                 for (seconds, _, _), ref in zip(self.runs, self.refs))

    @property
    def wall_seconds(self) -> float:
        """Median over the passes of the step's wall time, unscaled."""
        return statistics.median(seconds for seconds, _, _ in self.runs)

    @property
    def outputs(self):
        return self.runs[0][1]

    @property
    def error(self):
        """The first pass's error, or None when every pass succeeded."""
        return next((error for _, _, error in self.runs if error is not None), None)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_step(step):
    """Time one step; returns (seconds, outputs, error)."""
    start = time.perf_counter()
    try:
        raw = step.run()
    except Exception as exc:   # a failed item: counted, reported, never dropped
        return time.perf_counter() - start, None, _describe(exc)
    seconds = time.perf_counter() - start
    try:
        outputs = step.summarize(raw)
    except Exception as exc:
        return seconds, None, _describe(exc)
    if len(outputs) != step.n_items:
        return seconds, None, f"{len(outputs)} outputs for {step.n_items} items"
    return seconds, outputs, None


def batch(workload) -> list:
    """The run's fixed work: every step of the workload's first BATCH_UNITS
    units, as (unit, index, step)."""
    steps = [(unit, index, step)
             for unit in range(workload.BATCH_UNITS)
             for index, step in enumerate(workload.unit(unit))]
    if sum(step.n_items for _, _, step in steps) < MIN_ITEMS:
        raise ValueError(f"a batch of fewer than {MIN_ITEMS} items")
    return steps


def run_pass(steps, records=None, tracer=None) -> tuple:
    """One timed pass over the batch; appends to `records` (made when None)
    and returns them together with the (start, end, item) window of each step.
    The reference kernel runs before every step and after the last."""
    if records is None:
        records = [StepRecord(unit, index, step, [], []) for unit, index, step in steps]
    windows, refs = [], []
    for rec in records:
        item = f"{rec.unit}.{rec.index}"
        if tracer is not None:
            tracer.item = item
        # untimed: collect what earlier steps left and freeze the survivors,
        # so that the collector's work inside the step is the step's own
        gc.collect()
        gc.freeze()
        refs.append(reference_seconds())
        start = time.perf_counter()
        rec.runs.append(run_step(rec.step))
        windows.append((start, start + rec.runs[-1][0], item))
    refs.append(reference_seconds())
    for rec, before, after in zip(records, refs, refs[1:]):
        rec.refs.append(0.5 * (before + after))
    return records, windows


def run_passes(steps, seconds: float) -> list:
    """Pass over the batch until `seconds` have passed (at least once)."""
    start = time.perf_counter()
    records, _ = run_pass(steps)
    while time.perf_counter() - start < seconds:
        run_pass(steps, records)
    return records


def warm_up(workload) -> None:
    """Run the first steps of unit 0 once, untimed: first calls fill
    import-time and library caches."""
    for step in workload.unit(0)[:WARM_UP_STEPS]:
        run_step(step)


def item_verdicts(rec: StepRecord) -> list:
    """One failure message (or None) per item of a step.  Every pass over a
    step must give outputs with the same digest."""
    n = rec.step.n_items
    if rec.error is not None:
        return [rec.error] * n
    try:
        messages = list(rec.step.check(rec.outputs))
    except Exception as exc:
        return [f"check raised {_describe(exc)}"] * n
    if len(messages) != n:
        return [f"check gave {len(messages)} verdicts for {n} items"] * n
    if len({digest(outputs) for _, outputs, _ in rec.runs}) > 1:
        return [msg or f"step {rec.key} ({rec.step.kind}) output differs on repeat"
                for msg in messages]
    return messages


def check_records(records) -> list:
    """One verdict per item: None, or why it failed."""
    return [msg for rec in records for msg in item_verdicts(rec)]


def items_per_s(records, wall=False) -> float:
    """Items of the batch over the sum of their steps' times."""
    seconds = sum(rec.wall_seconds if wall else rec.seconds for rec in records)
    return sum(rec.step.n_items for rec in records) / seconds


def item_latencies_ms(records, wall=False) -> list:
    # a step that yields several items charges each an equal share
    return [1000.0 * (rec.wall_seconds if wall else rec.seconds) / rec.step.n_items
            for rec in records for _ in range(rec.step.n_items)]


def reference_ms(records) -> float:
    """Median reference kernel time over all steps and passes."""
    return 1000.0 * statistics.median(ref for rec in records for ref in rec.refs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def _child(args, extra, env=None) -> str:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(workload_name: str, seed: int) -> tuple:
    """Import of the package plus construction of the workload's inputs,
    and the reference kernel's time right after it."""
    start = time.perf_counter()
    import workloads
    workloads.WORKLOADS[workload_name](seed)
    seconds = time.perf_counter() - start
    return seconds, reference_seconds()


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def _blas_info() -> dict:
    import ctypes

    import numpy
    import scipy
    info = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["numpy_blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        info["numpy_blas"] = None
    threads = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[f"{pkg.__name__}:{path.name}"] = fn()
                    break
    info["threads"] = threads
    info["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def _git_commit():
    """HEAD of the checkout, or None outside a git repository.  The ceiling
    keeps git from looking above the checkout for a repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qpspec").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": platform.node(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": _blas_info(),
        "commit": _git_commit(), "src_sha256": _source_digest(),
        "jobs": 1,
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def untraced_run(args, workload, full=True):
    """The end-to-end run; with full=False, only the throughput of one pass
    (the host-default BLAS child of a traced run)."""
    setups = []
    if full:
        for _ in range(SETUP_SAMPLES):
            seconds, ref = json.loads(_child(args, ["--setup-probe"]))
            setups.append(seconds * REFERENCE_S / ref)
    warm_up(workload)
    steps = batch(workload)
    if full:
        records = run_passes(steps, args.seconds)
    else:
        records, _ = run_pass(steps)
    rss = peak_rss_mb()
    verdicts = check_records(records)
    metrics = {"items_per_s": (items_per_s(records), "1/s")}
    if full:
        latencies = item_latencies_ms(records)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            **metrics,
            "item_ms_p50": (percentile(latencies, 50), "ms"),
            "item_ms_p90": (percentile(latencies, 90), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
    record = {"setup_samples_s": setups, "steps": step_log(records)}
    return verdicts, metrics, record


def step_log(records) -> list:
    """Per step: unit, kind, and the wall and reference seconds of each pass."""
    return [[r.unit, r.step.kind, [t for t, _, _ in r.runs], r.refs] for r in records]


def cli_timings():
    """Wall time and verdict of each CLI command on the golden config."""
    from qpspec import cli
    times, verdicts = {}, []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="cli-", dir=OUT_DIR) as tmp:
        for command in CLI_COMMANDS:
            sink = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main([command, "--config", str(CLI_CONFIG), "--out", tmp])
            except Exception as exc:
                code = _describe(exc)
            times[command] = time.perf_counter() - start
            verdicts.append(None if code == 0 else
                            f"cli {command} ended with {code}: {sink.getvalue()[-300:]}")
    return times, verdicts


def traced_run(args, workload):
    """Untraced and traced passes over the batch, in turn, until --seconds
    have passed.  The layer metrics and spans are those of the first traced
    pass; the overhead compares the untraced and traced passes' times."""
    from tracing import Tracer
    warm_up(workload)
    steps = batch(workload)
    base = traced = first = None
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < args.seconds:
        base, _ = run_pass(steps, base)
        tracer = Tracer()
        tracer.install()
        try:
            traced, windows = run_pass(steps, traced, tracer)
        finally:
            tracer.uninstall()
        if first is None:
            first, first_windows = tracer, windows
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in base) - 1.0
    latencies = item_latencies_ms(base, wall=True)
    wall = {
        "wall.items_per_s": (items_per_s(base, wall=True), "1/s"),
        "wall.item_ms_p50": (percentile(latencies, 50), "ms"),
        "wall.item_ms_p90": (percentile(latencies, 90), "ms"),
        "host.reference_ms": (reference_ms(base), "ms"),
    }
    # both kinds of pass must give the same outputs
    for b_rec, t_rec in zip(base, traced):
        b_rec.runs.extend(t_rec.runs)
    verdicts = check_records(base)

    host_default = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    child = json.loads(_child(args, ["--host-blas-child"], env=host_default))
    verdicts += [None] * (child["attempted"] - child["failed"])
    verdicts += ["host-default BLAS child: item failed"] * child["failed"]

    cli_times, cli_verdicts = cli_timings()
    verdicts += cli_verdicts

    metrics = first.layer_metrics()
    metrics["trace.overhead_frac"] = (overhead, "frac")
    metrics["trace.top_coverage"] = (first.coverage(first_windows), "frac")
    metrics["trace.blas_default.items_per_s"] = (
        child["metrics"]["items_per_s"]["value"], "1/s")
    metrics.update(wall)
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}.s"] = (cli_times[command], "s")
    n_failed = sum(msg is not None for msg in verdicts)
    metrics["check.failed_frac"] = (failed_frac(n_failed, len(verdicts)), "frac")
    origin = first_windows[0][0]
    record = {
        "steps": step_log(base),
        "spans": [[name, s - origin, e - origin, parent, item]
                  for name, s, e, parent, item in first.spans],
    }
    return verdicts, metrics, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the child processes a run starts
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--host-blas-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qpspec" / "__init__.py").is_file():
        print(f"bench: no qpspec sources under {SRC}", file=sys.stderr)
        return 2
    if not args.host_blas_child:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"   # before numpy loads OpenBLAS
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps(setup_seconds(args.workload, args.seed)))
        return 0

    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        verdicts, metrics, record = traced_run(args, workload)
    else:
        verdicts, metrics, record = untraced_run(args, workload,
                                                 full=not args.host_blas_child)

    messages = [msg for msg in verdicts if msg is not None]
    result = {
        "correct": not messages,
        "attempted": len(verdicts),
        "failed": len(messages),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if not args.host_blas_child:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json.gz"
        with gzip.open(path, "wt") as fh:
            json.dump({"manifest": manifest(args), "result": result,
                       "failures": messages[:200], **record}, fh)
    print(f"{args.workload} seed {args.seed}: {len(verdicts)} items, {len(messages)} failed",
          file=sys.stderr)
    for msg in messages[:20]:
        print(f"  FAILED {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
