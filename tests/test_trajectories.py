import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpspec import trajectories
from qpspec.errors import EpsilonTooLargeError
from qpspec.lattice import SiteSet, ball
from qpspec.model import log_smallness_ceiling
from qpspec.trajectories import (Trajectory, WeightProfile, closed_bound,
                                 is_admissible, path_norm, sum_enumerate, validate_profile,
                                 weights)

from conftest import elementary_path_sum, sum_enumerate_reference


def flat_profile(host_r=2, ambient_r=5, d=1.0, T=8.0, kappa0=0.5):
    host = ball(host_r, 2, budget=None)
    return WeightProfile({s: d for s in host}, T=T, kappa0=kappa0,
                         host=host, ambient=ball(ambient_r, 2, budget=None))


def exp_weight(kappa0):
    return lambda a, b: math.exp(-kappa0 * sum(abs(x - y) for x, y in zip(a, b)))


def test_norm_additive_under_merge():
    g1 = Trajectory(((0, 0), (1, 0), (1, 1)))
    g2 = Trajectory(((1, 1), (0, 1)))
    merged = Trajectory(((0, 0), (1, 0), (1, 1), (0, 1)))
    assert path_norm(merged.points) == path_norm(g1.points) + path_norm(g2.points)


def test_weights_single_point():
    prof = flat_profile(d=1.7)
    w, W, norm, dbar = weights(Trajectory(((0, 0),)), prof, exp_weight(0.5))
    assert w == W == pytest.approx(math.exp(1.7))
    assert norm == 0 and dbar == 1.7


def test_weights_two_point_example():
    prof = flat_profile(d=1.0)
    w, W, norm, dbar = weights(Trajectory(((0, 0), (1, 0))), prof, exp_weight(0.5))
    assert w == pytest.approx(math.exp(-0.5) * math.exp(2.0))
    assert W == pytest.approx(w)  # saturated pair weight
    assert norm == 1


def test_weight_bound_validated():
    prof = flat_profile()
    bad = lambda a, b: 1.0  # exceeds exp(-kappa0 |a-b|) off the diagonal
    with pytest.raises(ValueError):
        weights(Trajectory(((0, 0), (1, 0))), prof, bad)


@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                min_size=1, max_size=5))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_w_below_W(points):
    pts = [points[0]]
    for p in points[1:]:
        if p != pts[-1]:
            pts.append(p)
    prof = flat_profile(host_r=4, ambient_r=7, d=1.3)
    w, W, _, _ = weights(Trajectory(tuple(pts)), prof, exp_weight(0.5))
    assert w <= W * (1 + 1e-12)


def test_multiplicativity_under_merge():
    # the junction site's exp(D) appears once in the merged weight, so the
    # product of the factors overcounts it by exactly that factor
    prof = flat_profile(d=1.1)
    wfun = exp_weight(0.5)
    g1 = Trajectory(((0, 0), (1, 0)))
    g2 = Trajectory(((1, 0), (1, 1), (0, 1)))
    w12 = weights(Trajectory(((0, 0), (1, 0), (1, 1), (0, 1))), prof, wfun)[0]
    prod = weights(g1, prof, wfun)[0] * weights(g2, prof, wfun)[0]
    assert w12 == pytest.approx(prod / math.exp(prof.D[(1, 0)]))


def test_multiplicativity_bridged_concatenation():
    # non-merging concatenation is exactly multiplicative through the
    # bridging pair weight: w(g1 u g2) = w(g1) w(last, first) w(g2)
    prof = flat_profile(d=1.1)
    wfun = exp_weight(0.5)
    g1 = Trajectory(((0, 0), (1, 0)))
    g2 = Trajectory(((1, 1), (0, 1)))
    w12 = weights(Trajectory(((0, 0), (1, 0), (1, 1), (0, 1))), prof, wfun)[0]
    prod = (weights(g1, prof, wfun)[0] * wfun((1, 0), (1, 1))
            * weights(g2, prof, wfun)[0])
    assert w12 == pytest.approx(prod)


def test_admissible_single_point():
    prof = flat_profile()
    ok, _ = is_admissible(Trajectory(((0, 0),)), prof)
    assert ok


def test_admissible_vacuous_low_D():
    prof = flat_profile(d=2.0)  # all D below 4 T / kappa0 = 64
    g = Trajectory(((0, 0), (2, 0), (-2, 0)))
    assert is_admissible(g, prof)[0]


def high_pair_profile():
    """Two high-D points whose pair violates the 1/5 bound.

    ambient = host makes mu infinite, so any D profile is admissible and
    the construction isolates the trajectory-side condition.
    """
    host = ball(4, 2, budget=None)
    D = {s: 1.0 for s in host}
    D[(-4, 0)] = D[(4, 0)] = 41.0  # above 4 T / kappa0 = 40, above T ||.||^(1/5)
    return WeightProfile(D, T=8.0, kappa0=0.8, host=host, ambient=host)


def test_high_pair_R_exempts_adjacent_only():
    prof = high_pair_profile()
    assert validate_profile(prof) == []
    adjacent = Trajectory(((-4, 0), (4, 0)))
    # ||gamma|| = 8, T ||.||^(1/5) = 8 * 8^0.2 = 12.1 < 41
    assert is_admissible(adjacent, prof)[0]
    separated = Trajectory(((-4, 0), (0, 1), (4, 0)))
    assert not is_admissible(separated, prof)[0]


def test_R_exempt_pair_imposes_flanking_conditions():
    # three high sites on a line, 2000 apart: each adjacent pair violates the
    # single-step bound (8 * 2000^0.2 = 36.6 < 41), the outer pair meets it
    # (8 * 4000^0.2 = 42.0), so only the flanking condition rejects the path
    pts = ((0, 0), (2000, 0), (4000, 0))
    host = SiteSet(pts)
    prof = WeightProfile({s: 41.0 for s in pts}, T=8.0, kappa0=0.8, host=host, ambient=host)
    assert is_admissible(Trajectory(pts[:2]), prof) == (True, "")
    assert is_admissible(Trajectory(pts), prof) == (False, "flanking condition fails at (0,2)")


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


def test_admissible_R_weight_cap_in_logs():
    # log W <= -kappa0 ||gamma|| + k M^5 whenever t_D <= 5, checked in logs
    prof = flat_profile(d=2.0)
    wfun = exp_weight(0.5)
    g = Trajectory(((0, 0), (1, 0), (1, 1)))
    _, W, norm, dbar = weights(g, prof, wfun)
    M = 4 * prof.T / prof.kappa0
    assert dbar <= M ** 5
    assert math.log(W) <= -prof.kappa0 * norm + len(g.points) * M ** 5


def _random_profile(rng, high: bool):
    """A D-profile on ball(2); with `high`, T = 1 puts the high threshold
    4 T / kappa0 at 8 to 13 and about a third of the sites above it."""
    host = ball(2, 2, budget=None)
    top = 16.0 if high else 3.0
    return WeightProfile({s: 1.0 + (top - 1.0) * rng.random() for s in host},
                         T=1.0 if high else 8.0, kappa0=0.3 + 0.2 * rng.random(),
                         host=host, ambient=ball(5, 2, budget=None))


@pytest.mark.parametrize("high", [False, True])
@pytest.mark.parametrize("block", [None, 7])
def test_sum_enumerate_equals_path_by_path_sum(high, block, monkeypatch):
    # block 7 splits each length into many blocks, so the running total crosses them
    if block:
        monkeypatch.setattr(trajectories, "PATH_BLOCK", block)
    rng = np.random.default_rng([high, True, False])
    for _ in range(3):
        prof = _random_profile(rng, high)
        assert any(d >= prof.high_threshold for d in prof.D.values()) == high
        host = prof.host.sites
        m = host[rng.integers(len(host))]
        for n in (m, host[rng.integers(len(host))]):
            got = sum_enumerate(m, n, prof, 1e-25, len_cap=4)
            want = sum_enumerate_reference(m, n, prof, 1e-25, len_cap=4)
            assert (got.partial, got.tail, got.by_length) == want


def test_sum_enumerate_admissibility_removes_paths():
    # with high sites the R-variant sum is not the all-paths sum, so the
    # comparison above exercises is_admissible
    prof = _random_profile(np.random.default_rng(3), high=True)
    flat = WeightProfile(prof.D, T=1e9, kappa0=prof.kappa0, host=prof.host,
                         ambient=prof.ambient)
    got = sum_enumerate((0, 0), (1, 0), prof, 1e-25, len_cap=4)
    assert got.by_length[3] < sum_enumerate((0, 0), (1, 0), flat, 1e-25, len_cap=4).by_length[3]


def _peak_bytes(host_radius):
    host = ball(host_radius, 2, budget=None)
    prof = WeightProfile({s: 1.0 for s in host}, T=8.0, kappa0=0.5, host=host,
                         ambient=ball(host_radius + 3, 2, budget=None))
    tracemalloc.start()
    try:
        sum_enumerate((0, 0), (1, 0), prof, 1e-25, len_cap=5)
        return len(host) ** 3, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sum_enumerate_memory_is_bounded_by_one_block():
    small_paths, small = _peak_bytes(3)   # 25 sites: about one block of length-5 paths
    large_paths, large = _peak_bytes(5)   # 61 sites: about 14 blocks
    assert small_paths <= trajectories.PATH_BLOCK < large_paths / 10
    assert large < 1.5 * small
