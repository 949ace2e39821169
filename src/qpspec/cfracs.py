"""The continued-fraction node of the paired eigenvalue problem.

A level-1 node is f(u) = (u - a1) - b^2/(u - a2).  Its product form

    chi(f) = (u - a1)(u - a2) - b^2

is finite even where f has a pole, strictly convex in u on the class, and
its two roots zeta- < zeta+ are the branch energies.  The module finds no
roots: ``checks`` builds a node from the reduced resolvent and evaluates
the separation and sandwich lemmas at ``spectral.eigen_pair``'s roots,
which it compares with the dense oracle.
"""

from __future__ import annotations

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
