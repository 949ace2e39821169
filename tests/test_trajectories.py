import math

import numpy as np
import pytest

from qpspec.errors import EpsilonTooLargeError
from qpspec.lattice import SiteSet, ball
from qpspec.model import log_smallness_ceiling
from qpspec.trajectories import (WeightProfile, closed_bound, sum_enumerate,
                                 validate_profile)

from conftest import elementary_path_sum, sum_enumerate_reference


def flat_profile(host_r=2, ambient_r=5, d=1.0, T=8.0, kappa0=0.5):
    host = ball(host_r, 2, budget=None)
    return WeightProfile({s: d for s in host}, T=T, kappa0=kappa0,
                         host=host, ambient=ball(ambient_r, 2, budget=None))


def _random_profile(rng, high: bool, host=None):
    """A D-profile on `host` (default ball(2) in Z^2); with `high`, T = 1 puts
    the high threshold 4 T / kappa0 at 8 to 13 and D in [8, 16), so most
    sites are above it."""
    host = ball(2, 2, budget=None) if host is None else host
    lo, hi = (8.0, 16.0) if high else (1.0, 3.0)
    return WeightProfile({s: lo + (hi - lo) * rng.random() for s in host},
                         T=1.0 if high else 8.0, kappa0=0.3 + 0.2 * rng.random(),
                         host=host, ambient=ball(5, host.nu, budget=None))


def by_length(m, n, prof, len_cap):
    return sum_enumerate(m, n, prof, 1e-25, len_cap=len_cap).by_length


def test_weights_single_point():
    # the one path of length 1 weighs exp(D(m))
    prof = flat_profile(d=1.7)
    assert by_length((0, 0), (0, 0), prof, 1) == (pytest.approx(math.exp(1.7)),)
    assert by_length((0, 0), (1, 0), prof, 1) == (0.0,)


def test_weights_two_point_example():
    # on a two-site host the one path of each length alternates between them
    host = SiteSet([(0, 0), (1, 0)])
    prof = WeightProfile({s: 1.0 for s in host}, T=8.0, kappa0=0.5, host=host,
                         ambient=ball(3, 2, budget=None))
    step = math.exp(-0.5) * math.exp(1.0)
    assert by_length((0, 0), (1, 0), prof, 4) == pytest.approx(
        (0.0, math.exp(1.0) * step, 0.0, math.exp(1.0) * step ** 3))


def _sums_through(prof, m, n, k1, k2):
    """{j: (length-k1 sum from m to j, length-k2 sum from j to n)} over the host."""
    return {j: (by_length(m, j, prof, k1)[-1], by_length(j, n, prof, k2)[-1])
            for j in prof.host}


def test_multiplicativity_under_merge():
    # a path of length k1 + k2 - 1 merges one of length k1 into one of length
    # k2 at their shared site j, whose exp(D(j)) the product of the two
    # weights counts twice
    prof = _random_profile(np.random.default_rng(11), high=False)
    m, n = (0, 0), (1, 1)
    merged = sum(a * b / math.exp(prof.D[j])
                 for j, (a, b) in _sums_through(prof, m, n, 2, 3).items())
    assert by_length(m, n, prof, 4)[-1] == pytest.approx(merged)


def test_multiplicativity_bridged_concatenation():
    # a path of length k1 + k2 is one of length k1 ending at a, the bridging
    # pair weight w(a, b) and one of length k2 starting at b != a
    prof = _random_profile(np.random.default_rng(12), high=False)
    m, n = (0, 0), (1, 1)
    ends = _sums_through(prof, m, n, 2, 2)
    bridged = sum(ends[a][0] * math.exp(-prof.kappa0 * sum(abs(x - y) for x, y in zip(a, b)))
                  * ends[b][1] for a in prof.host for b in prof.host if a != b)
    assert by_length(m, n, prof, 4)[-1] == pytest.approx(bridged)


def test_sum_singleton_host():
    host = SiteSet([(0, 0)])
    prof = WeightProfile({(0, 0): 1.5}, T=8.0, kappa0=0.5, host=host,
                         ambient=ball(3, 2, budget=None))
    res = sum_enumerate((0, 0), (0, 0), prof, 1e-4)
    assert res.partial == pytest.approx(math.exp(1.5))
    assert res.tail == 0.0


def test_tail_divergence_guard():
    prof = flat_profile(d=8.0)
    with pytest.raises(EpsilonTooLargeError):
        sum_enumerate((0, 0), (1, 0), prof, 0.5)


def test_closed_bound_diagonal_formula():
    prof = flat_profile(d=1.5)
    eps0 = 1e-25
    out = closed_bound((0, 0), (0, 0), prof, eps0)
    mu = prof.mu((0, 0)) ** 0.2
    v1 = math.exp(1.5) + 3 * math.sqrt(eps0) * math.exp(2 * 8.0 * mu)
    assert out.value == pytest.approx(min(v1, 2 * math.exp(3.0)))
    assert out.threshold_ok


def test_closed_bound_decay_rate():
    # D large enough that the (7/8) kappa0 branch is the active minimum;
    # endpoints share min(mu) = 1 so the ratio isolates the decay rate
    prof = flat_profile(host_r=4, ambient_r=5, d=8.5)
    eps0 = 1e-25
    near = closed_bound((4, 0), (3, 0), prof, eps0).value
    far = closed_bound((4, 0), (-2, 0), prof, eps0).value
    assert far / near == pytest.approx(math.exp(-0.875 * 0.5 * 5), rel=1e-6)


def test_closed_bound_flags_eps0_above_threshold():
    prof = flat_profile()
    out = closed_bound((0, 0), (1, 0), prof, 1e-4)
    assert not out.threshold_ok


def test_smallness_threshold_log_space():
    prof = flat_profile()
    thr = log_smallness_ceiling(prof.kappa0, prof.host.nu, prof.T)
    assert math.log(1e-25) <= thr < math.log(1e-20)


def test_enumeration_below_closed_bound_random():
    rng = np.random.default_rng(5)
    host = ball(2, 2, budget=None)
    ambient = ball(5, 2, budget=None)
    for _ in range(10):
        prof = WeightProfile({s: 1.0 + 2.0 * rng.random() for s in host},
                             T=8.0, kappa0=0.3 + 0.2 * rng.random(),
                             host=host, ambient=ambient)
        assert validate_profile(prof) == []
        eps0 = 1e-25
        for target in ((0, 0), (1, 0), (1, -1)):
            res = sum_enumerate((0, 0), target, prof, eps0, len_cap=4)
            bnd = closed_bound((0, 0), target, prof, eps0)
            assert res.total <= bnd.value


def test_elementary_sum_bound():
    host = ball(3, 2, budget=None)
    for k in (2, 3):
        for alpha in (1.0, 2.0):
            s = elementary_path_sum((0, 0), (1, 0), k, host, alpha)
            assert s < (8.0 / alpha) ** ((k - 1) * 2)


def _gamma(count):
    u = 2.0 ** -53
    return count * u / (1 - count * u)


@pytest.mark.default_blas("trajectory sums, which are BLAS vector-matrix products, must stay "
                          "within their rounding bound of the path-by-path sum")
@pytest.mark.parametrize("high", [False, True])
@pytest.mark.parametrize("longest", [None, 7])
def test_sum_enumerate_equals_path_by_path_sum(high, longest):
    # Rounding bound for positive terms (Higham, Accuracy and Stability of
    # Numerical Algorithms, Lemma 3.1 and (3.5)): a product of c factors or
    # a sum of c positive terms, each off by at most u = 2^-53 relative,
    # is off by at most gamma(c) = c u / (1 - c u), in any order.  Take every
    # exp to within 4 ulp (8u).  The reference's length-k term is 2k - 1
    # exps and 2k - 2 products, and fsum rounds once: 18k u.  The
    # recursion's length-k entry takes 8u for v_1 and then k - 1 steps, each
    # a dot product of N positive terms (gamma(N)), an exp in P and one in E
    # (8u each) and a product: (N + 17) u a step.  So by_length[k - 1]
    # agrees to gamma(k (N + 35) + 8); `partial` adds a product and a sum
    # per length on each side, 4 len_cap u more.  The tail is one formula.
    # `longest` None runs len_cap 1 to 5 (the default); 7 runs 1 to 7 on the
    # hosts of at most 7 sites, where the reference stays cheap.
    rng = np.random.default_rng([high, True] + ([longest] if longest else []))
    hosts = (ball(1, 2, budget=None), ball(2, 2, budget=None), ball(1, 3, budget=None))
    for host in hosts if longest is None else (h for h in hosts if len(h) <= 7):
        N = len(host)
        for _ in range(2):
            prof = _random_profile(rng, high, host)
            assert any(d >= prof.high_threshold for d in prof.D.values()) == high
            i = int(rng.integers(N))
            m = host.sites[i]
            for n in (m, host.sites[(i + 1 + int(rng.integers(N - 1))) % N]):
                for len_cap in range(1, (longest or 5) + 1):
                    got = sum_enumerate(m, n, prof, 1e-25, len_cap=len_cap)
                    partial, tail, want = sum_enumerate_reference(m, n, prof, 1e-25,
                                                                  len_cap=len_cap)
                    assert len(got.by_length) == len_cap
                    for k, (g, w) in enumerate(zip(got.by_length, want), start=1):
                        assert abs(g - w) <= _gamma(k * (N + 35) + 8) * w
                    assert (abs(got.partial - partial)
                            <= _gamma(len_cap * (N + 39) + 8) * partial)
                    assert got.tail == tail
