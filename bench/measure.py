"""Arithmetic of the benchmark's figures: percentiles, failure share, digests."""

from __future__ import annotations

import functools
import hashlib
import math
import time

# items a run must reach so that ten samples lie beyond its p90
MIN_ITEMS = 100


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it.  At least 100 - q percent of them, and with
    MIN_ITEMS samples at least ten for p90, lie at or above it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def failed_frac(failed: int, attempted: int) -> float:
    """Failed items as a share of those attempted."""
    if attempted < 1:
        raise ValueError("no items attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


def _canonical(value):
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, complex):
        return "(%.17g%+.17gj)" % (value.real, value.imag)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canonical(v) for v in value) + ")"
    if isinstance(value, dict):
        return "{" + ",".join(f"{_canonical(k)}:{_canonical(v)}"
                              for k, v in sorted(value.items())) + "}"
    if hasattr(value, "item"):   # numpy scalar
        return _canonical(value.item())
    return repr(value)


def digest(value) -> str:
    """sha256 of a value with every float written to 17 significant digits."""
    return hashlib.sha256(_canonical(value).encode()).hexdigest()


# the reference kernel's time that reported times are scaled to
REFERENCE_S = 1e-3


@functools.cache
def _reference_matrix():
    import numpy as np
    m = np.random.default_rng(0).standard_normal((40, 40))
    return m + m.T


def reference_kernel() -> None:
    """About a millisecond of fixed work: tuple, set and dict churn like the
    geometry layer's, then a small LAPACK eigensolve like the oracle's."""
    import numpy as np
    sites = set()
    for i in range(1500):
        sites.add((i % 37, i * 7 % 101))
    sorted({site: site[0] + site[1] for site in sites})
    np.linalg.eigvalsh(_reference_matrix())


def reference_seconds() -> float:
    """Best of three runs of the reference kernel: the host's speed now."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best
