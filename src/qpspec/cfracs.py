"""The continued-fraction root pair of the paired eigenvalue problem.

A level-1 node is f(u) = (u - a1) - b^2/(u - a2).  Its product form

    chi(f) = (u - a1)(u - a2) - b^2

is finite even where f has a pole, strictly convex in u on the class, and
its two roots zeta- < zeta+ are the branch energies.  ``checks`` builds a
node from the reduced resolvent and compares these roots with the fixed
points of ``spectral.eigen_pair``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

_DERIV_STEP = 1e-7
SANDWICH_SLACK = 1e-10


@dataclass(frozen=True)
class CFNode:
    """A level-1 node; a1, a2 and b are callables of u."""

    a1: Callable
    a2: Callable
    b: Callable


def chi(node: CFNode, u: float) -> float:
    """chi at u in product form (u - a1)(u - a2) - b^2, finite even at the
    pole u = a2 of f."""
    b = node.b(u)
    return (u - node.a1(u)) * (u - node.a2(u)) - b * b


def d_chi_du(node: CFNode, u: float) -> float:
    return (chi(node, u + _DERIV_STEP) - chi(node, u - _DERIV_STEP)) / (2.0 * _DERIV_STEP)


def _bisect_root(fun, a: float, b: float, fa: float) -> float:
    """Bisect the sign change on [a, b] to 1e-15 relative, or until no
    float lies strictly inside the bracket."""
    for _ in range(200):
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return mid
        fm = fun(mid)
        if fm == 0.0 or (b - a) < 1e-15 * abs(mid):
            return mid
        if (fa < 0) == (fm < 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


_GOLDEN_SECTION = 0.5 * (math.sqrt(5.0) - 1.0)


def convex_roots(fun, lo: float, hi: float):
    """Roots of a convex function on [lo, hi]: 0, 1 (edge sign change) or 2.

    Golden-section locates the minimizer, so root pairs far closer than the
    window width are still resolved; bisection then refines each root.
    """
    flo, fhi = fun(lo), fun(hi)
    if flo == 0.0:
        return [lo]
    if fhi == 0.0:
        return [hi]
    if (flo < 0) != (fhi < 0):
        return [_bisect_root(fun, lo, hi, flo)]
    if flo < 0 and fhi < 0:
        return []  # both ends below: no convex root inside
    a, b = lo, hi
    c = b - _GOLDEN_SECTION * (b - a)
    d = a + _GOLDEN_SECTION * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(200):
        if not a < 0.5 * (a + b) < b or (b - a) < 1e-15 * max(abs(a), abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN_SECTION * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN_SECTION * (b - a)
            fd = fun(d)
        if min(fc, fd) < 0:
            break  # negative value found: the two sign changes are bracketed
    m = c if fc <= fd else d
    fm = fun(m)
    if fm > 0:
        return []
    if fm == 0.0:
        return [m]
    return [_bisect_root(fun, lo, m, flo),
            _bisect_root(fun, m, hi, fm)]


def zeta_roots(node: CFNode, u_window):
    """The roots of chi = 0 in the window, by the convex root finder.

    chi is strictly convex in u on the class, so the window holds two roots
    (zeta_minus, zeta_plus), one when it cuts the pair, or none.
    """
    return tuple(convex_roots(lambda u: chi(node, u), float(u_window[0]),
                              float(u_window[1])))


def zeta_separation_ok(node: CFNode, zminus: float, zplus: float) -> bool:
    """zeta+ - zeta- >= (1/8) (|d_u chi(zeta-)| + |d_u chi(zeta+)|)."""
    dm = d_chi_du(node, zminus)
    dp = d_chi_du(node, zplus)
    return (zplus - zminus) >= 0.125 * (abs(dm) + abs(dp)) - 1e-12


def zeta_sandwich_ok(node: CFNode, zminus: float, zplus: float) -> bool:
    """The two-sided envelopes at the roots, to SANDWICH_SLACK.

    At zeta+: max(a1, a2 + |b|) <= zeta+ <= a1 + |b|;
    at zeta-: a2 - |b| <= zeta- <= min(a2, a1 - |b|);
    a1, a2 and b are evaluated at the root in question.
    """

    def parts(u):
        return node.a1(u), node.a2(u), abs(node.b(u))

    slack = SANDWICH_SLACK
    a1p, a2p, bp = parts(zplus)
    a1m, a2m, bm = parts(zminus)
    ok_plus = (max(a1p, a2p + bp) <= zplus + slack) and (zplus <= a1p + bp + slack)
    ok_minus = (a2m - bm - slack <= zminus) and (zminus <= min(a2m, a1m - bm) + slack)
    return ok_plus and ok_minus
