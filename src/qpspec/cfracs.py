"""Continued-fraction-function hierarchy and the analytic root machinery.

A level-1 node is f(x, u) = (u - a1) - b^2/(u - a2); a level-l node couples
two level-(l-1) nodes through f = f1 - b^2/f2.  The bookkeeping functions

    mu(f)  = mu(f1) mu(f2) f2          (leaf: u - a2)
    chi(f) = mu(f) f                   (product form, polynomial in leaves)
    tau(f) = (chi(f2) - chi(f1)) tau(f1) tau(f2)   (leaf: a1 - a2)

carry the eigenvalue equation through resonant scales: chi is finite even
where f has poles, chi is strictly convex in u, and its two roots are the
branch energies.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConvergenceError

_DERIV_STEP = 1e-7


@dataclass(frozen=True)
class CFValue:
    f: float
    chi: float
    mu: float
    tau: float
    f_defined: bool


class CFNode:
    """One node of the continued-fraction hierarchy.

    Leaves carry callables a1(x, u), a2(x, u), b(x, u); internal nodes carry
    two children and a coupling b(x, u).  sign is the +1/-1 dichotomy tag;
    siblings must agree.
    """

    def __init__(self, a1=None, a2=None, b=None, children=None, sign=+1):
        self.sign = sign
        self.b = b if b is not None else (lambda x, u: 0.0)
        if children is None:
            if a1 is None or a2 is None:
                raise ValueError("leaf nodes need a1 and a2")
            self.a1, self.a2 = a1, a2
            self.children = None
            self.level = 1
        else:
            f1, f2 = children
            if f1.level != f2.level:
                raise ValueError("children must sit at the same level")
            if f1.sign != f2.sign:
                raise ValueError("sibling signs must agree")
            self.children = (f1, f2)
            self.level = f1.level + 1

    @staticmethod
    def leaf(a1, a2, b, sign=+1) -> "CFNode":
        return CFNode(a1=a1, a2=a2, b=b, sign=sign)

    @staticmethod
    def couple(f1: "CFNode", f2: "CFNode", b, sign=+1) -> "CFNode":
        return CFNode(children=(f1, f2), b=b, sign=sign)


def cf_evaluate(node: CFNode, x: float, u: float) -> CFValue:
    """Evaluate (f, chi, mu, tau) at (x, u).

    chi is assembled in product form chi(f1) chi(f2) - mu(f1) mu(f2) b^2,
    so it is always finite; f = chi/mu is flagged undefined when mu = 0.
    """
    b = node.b(x, u)
    if node.children is None:
        f1 = u - node.a1(x, u)
        f2 = u - node.a2(x, u)
        mu = f2
        chi = f1 * f2 - b * b
        tau = node.a1(x, u) - node.a2(x, u)
    else:
        v1 = cf_evaluate(node.children[0], x, u)
        v2 = cf_evaluate(node.children[1], x, u)
        # mu(f) = mu(f1) mu(f2) f2 = mu(f1) chi(f2)
        mu = v1.mu * v2.chi
        chi = v1.chi * v2.chi - v1.mu * v2.mu * b * b
        tau = (v2.chi - v1.chi) * v1.tau * v2.tau
    defined = abs(mu) > 0
    f = chi / mu if defined else math.inf
    return CFValue(f, chi, mu, tau, defined)


def chi_of(node: CFNode):
    return lambda x, u: cf_evaluate(node, x, u).chi


def d_chi_du(node: CFNode, x: float, u: float, step: float = _DERIV_STEP) -> float:
    c = chi_of(node)
    return (c(x, u + step) - c(x, u - step)) / (2.0 * step)


def d2_chi_du2(node: CFNode, x: float, u: float, step: float = 1e-5) -> float:
    c = chi_of(node)
    return (c(x, u + step) - 2.0 * c(x, u) + c(x, u - step)) / (step * step)


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


def zeta_roots(node: CFNode, x: float, u_window):
    """The roots of chi(x, .) = 0 in the window, by the convex root finder.

    chi is strictly convex in u on the class, so the window holds two roots
    (zeta_minus, zeta_plus), one when it cuts the pair, or none.
    """
    c = chi_of(node)
    return tuple(convex_roots(lambda u: c(x, u), float(u_window[0]),
                              float(u_window[1])))


def zeta_separation_ok(node: CFNode, x: float, zminus: float, zplus: float) -> bool:
    """zeta+ - zeta- >= (1/8) (|d_u chi(zeta-)| + |d_u chi(zeta+)|)."""
    dm = d_chi_du(node, x, zminus)
    dp = d_chi_du(node, x, zplus)
    return (zplus - zminus) >= 0.125 * (abs(dm) + abs(dp)) - 1e-12


def zeta_sandwich_ok(node: CFNode, x: float, zminus: float, zplus: float,
                     slack: float = 1e-10) -> bool:
    """The two-sided envelopes at the roots.

    At zeta+: max(a1, a2 + |b|) <= zeta+ <= a1 + |b|;
    at zeta-: a2 - |b| <= zeta- <= min(a2, a1 - |b|);
    a_i = u - f_i evaluated at the root for internal nodes.
    """

    def parts(u):
        if node.children is None:
            a1 = node.a1(x, u)
            a2 = node.a2(x, u)
        else:
            a1 = u - cf_evaluate(node.children[0], x, u).f
            a2 = u - cf_evaluate(node.children[1], x, u).f
        return a1, a2, abs(node.b(x, u))

    a1p, a2p, bp = parts(zplus)
    a1m, a2m, bm = parts(zminus)
    ok_plus = (max(a1p, a2p + bp) <= zplus + slack) and (zplus <= a1p + bp + slack)
    ok_minus = (a2m - bm - slack <= zminus) and (zminus <= min(a2m, a1m - bm) + slack)
    return ok_plus and ok_minus


def quadratic_dichotomy_case(u: float, a1: float, a2: float, b: float):
    """Classify u against the general quadratic inequality.

    For |(u-a1)(u-a2) - b^2| < (a1-a2)^2/4, u falls in the + case
    (u >= a2 + (a1-a2)/2 + |b|) or the - case (u <= a1 - (a1-a2)/2 - |b|);
    returns "+", "-", or None when the inequality itself fails.
    """
    if a1 <= a2:
        raise ValueError("requires a1 > a2")
    lam = ((u - a1) * (u - a2) - b * b) / (a1 - a2) ** 2
    if abs(lam) >= 0.25:
        return None
    if u >= a2 + 0.5 * (a1 - a2) + abs(b):
        return "+"
    if u <= a1 - 0.5 * (a1 - a2) - abs(b):
        return "-"
    return "gap"  # forbidden middle band


def convex_two_point_gap(f, v1: float, v2: float, sigma0: float) -> bool:
    """(v2 - v1)^2 <= 2/sigma0 |f(v1) - f(v2)| for same-sign-derivative points."""
    return (v2 - v1) ** 2 <= 2.0 / sigma0 * abs(f(v1) - f(v2)) + 1e-12


# ---------------------------------------------------------------------------
# Quantitative implicit function theorem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IFTResult:
    radius: float
    root_radius: float
    tau: float
    M0: float

    def __iter__(self):
        yield self.radius
        yield self.root_radius


def quantitative_ift(F, z0: complex, w0: complex, r0: float, p0: float = None,
                     samples: int = 48):
    """Guaranteed implicit-function radius r = tau^2 r0^3 / (16 M0).

    F must be analytic on the polydisk D(z0, p0) x D(w0, r0) with
    F(z0, w0) = 0 and tau = |d_w F(z0, w0)| > 0.  Returns (result, locator)
    where locator(z) produces the unique root w(z) for |z - z0| < r,
    verified to |F| <= 1e-12 M0.
    """
    p0 = r0 if p0 is None else p0
    if abs(F(z0, w0)) > 1e-12:
        raise ValueError("F(z0, w0) must vanish")
    h = 1e-6 * r0
    tau = abs((F(z0, w0 + h) - F(z0, w0 - h)) / (2.0 * h))
    if tau <= 1e-12:
        raise ArithmeticError("tau = |d_w F| vanishes at the center")
    M0 = 0.0
    for i in range(samples):
        for j in range(samples):
            z = z0 + p0 * cmath.exp(2j * math.pi * i / samples)
            w = w0 + r0 * cmath.exp(2j * math.pi * j / samples)
            M0 = max(M0, abs(F(z, w)))
    M0 = max(M0, abs(F(z0, w0 + r0)), 1e-12)
    radius = tau * tau * r0 ** 3 / (16.0 * M0)
    root_radius = tau * r0 * r0 / (2.0 * M0)

    def locator(z):
        if abs(z - z0) >= radius:
            raise ValueError(f"|z - z0| = {abs(z - z0):.3g} outside the guaranteed radius")
        w = w0
        for _ in range(200):
            dw = (F(z, w + h) - F(z, w - h)) / (2.0 * h)
            if abs(dw) < 1e-14:
                raise ConvergenceError("Newton derivative vanished")
            step = F(z, w) / dw
            w = w - step
            if abs(step) < 1e-15 * max(1.0, abs(w)):
                break
        if abs(F(z, w)) > 1e-12 * M0:
            raise ConvergenceError(f"root residual {abs(F(z, w)):.3g} above 1e-12 M0")
        return w

    return IFTResult(radius, root_radius, tau, M0), locator


def harnack_comparable(f, z0: complex, r0: float, r1: float, samples: int = 64):
    """Check |f(zeta)| <= e^4 |f(z)| on the Harnack disk r2 = r1/(1+log max(100,K))^2.

    K is the sampled sup of |f| on D(z0, r0); requires |f(z0)| >= 1/K.
    Returns (holds, r2).
    """
    K = 0.0
    for i in range(samples):
        K = max(K, abs(f(z0 + r0 * cmath.exp(2j * math.pi * i / samples))))
    K = max(K, abs(f(z0)))
    if abs(f(z0)) < 1.0 / K:
        raise ValueError("Harnack normalization |f(z0)| >= 1/K fails")
    r2 = r1 / (1.0 + math.log(max(100.0, K))) ** 2
    vals = [abs(f(z0 + r2 * t * cmath.exp(2j * math.pi * i / samples)))
            for i in range(samples) for t in (0.25, 0.5, 0.75, 1.0)]
    vals.append(abs(f(z0)))
    hi, lo = max(vals), min(vals)
    return hi <= math.exp(4.0) * lo + 1e-300, r2
