"""Products of *-exponentials (closed-form BCH) and the derivative of exp_*.

For quaternions, exp(p)exp(q) = exp(w) with w0 = p0 + q0 and w_v solved
from the cos/sin system of the product; the same closed form holds
verbatim in C (x) H with |.| replaced by sqrt of the vector
symmetrization.  At stem level, with (cf, sf) = even_trig(f_v^s) and
(cg, sg) = even_trig(g_v^s), the product of the exponential stems is
e^{f0+g0} (C + W) where

    C = cf*cg - sf*sg*<f_v, g_v>_*
    W = cf*sg*g_v + cg*sf*f_v + sf*sg*(f_v ^ g_v),

and C^2 + n(W) = 1 identically.  With s = f0 + g0 the product
P = exp(F) exp(G) is e^s Q, where Q = exp(F_v) exp(G_v) = C + W has
Q_v^s = sin^2(theta) for cos(theta) = C, so Q0 +- i sqrt(Q_v^s) =
e^{+- i theta}.  h is s plus the *-logarithm of Q: ``starlog.continued_log``
continues that logarithm as it continues any other, and its
s + u0 + (u1/m) * vec Q is

    h = s + W * theta / sin(theta)

on the branch seeded at the domain anchor with u0 = 0, u1 the principal
arccos of Q0 = C, and L = log Q_v^s on the turn whose root m is nearer
sin(theta) (a Q_v^s of exactly 0 there raises HitsVLocus at once).  The
walk never evaluates e^s, so neither its refusal nor its range depends
on the scalar parts: where |Q_v^s| = |sin^2(theta)| <= TAU_CLASSIFY the
vector part is not recoverable and the read raises HitsVLocus.  The
solver builds no W: Q is the product of two cq_exp.  The obstruction to
the product being a *-exponential is

    Theta = f_v^s * n(W) = f_v^s * (1 - C^2),

which equals f_v^s e^{-2(f0+g0)} (exp_* f * exp_* g)_v^s and is entire: it
needs no division by f_v^s.  The admissibility scan computes C, f_v^s,
g_v^s and |f_v ^ g_v| at each of its points.

The slice derivative of exp_*(f) has the closed form

    d(exp_* f) = exp_*(f) * { df + A(w) [<f_v, df_v>_* f_v - w df_v]
                                   - B(w) (f_v ^ df_v) },   w = f_v^s,

with the entire coefficients A(w) = (1 - sin(2 sqrt w)/(2 sqrt w))/w and
B(w) = (1 - cos(2 sqrt w))/(2w) = (sin(sqrt w)/sqrt w)^2, the square of
even_trig's sincr; A(0) = 2/3 and B(0) = 1 reproduce the
degenerate-point formula, so the expression is smooth across f_v^s = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .continuation import locus_scan, log_sqrt, root_log
from .cquaternion import (CQuaternion, cq_dot, cq_exp, cq_mul, cq_wedge,
                          even_trig)
from .errors import BadExampleInput, HitsVLocus, NotExponential, VanishingVectorPart
from .quaternion import J_UNIT, Quaternion
from .slicefn import (ContinuedFunction, SliceFunction, constant, idempotent_plus,
                      induce_value)
from .starlog import _anchor, continued_log

#: admissibility threshold on the obstruction value
TAU_BCH = 1e-8

#: clearance required of f_v^s, g_v^s from the lattice {n^2 pi^2}
TAU_LATTICE = 1e-8

#: points of the deterministic condition scan
CONDITION_SAMPLES = 64


@dataclass
class BCHReport:
    """Outcome of the exponential-product admissibility scan."""

    points: list[complex]
    values: list[complex]
    min_abs: float
    lattice_ok: bool
    commuting: bool
    admissible: bool
    tol: float = TAU_BCH


def _on_lattice(v: complex) -> bool:
    """v lies within TAU_LATTICE of the real lattice {n^2 pi^2 : n = 0, 1, 2, ...}.

    Only the lattice point nearest sqrt(Re v) / pi can be that close: the
    neighbours n +- 1 are at least pi^2 away from it."""
    if v.real > 0:
        return abs(v - (round(math.sqrt(v.real) / math.pi) * math.pi) ** 2) < TAU_LATTICE
    return abs(v) < TAU_LATTICE


def product_vsym(f: SliceFunction, g: SliceFunction, q: Quaternion) -> complex:
    """(f*g)_v^s at q in closed form:

        (f0 g1 + g0)^2 f_v^s + f^s (g_perp)_v^s,

    with g = g1 f_v + g_perp the orthogonal split along f_v, read at q's
    own point: g1 = <g_v, f_v>_* / f_v^s, the quotient ``orth_decompose``
    gives away from the zeros of f_v^s.  Equals the directly computed
    (f*g)_v^s; raises VanishingVectorPart where |f_v^s(q)| < 1e-12.
    """
    z = f.slice_point(q)
    fz = f.stem_at(z)
    gz = g.stem_at(z)
    fvs = fz.vec_norm2()
    if abs(fvs) < 1e-12:
        raise VanishingVectorPart(f"f_v^s({q}) ~ 0; decomposition undefined")
    g1z = cq_dot(gz, fz) / fvs
    perp = gz.vec() - g1z * fz.vec()
    return (fz.z0 * g1z + gz.z0) ** 2 * fvs + fz.csym() * perp.vec_norm2()


def vanishing_vsym_partner(f: SliceFunction) -> SliceFunction:
    """Build g with (f*g)_v^s identically zero but g^s != 0.

    Requires a domain off R and f preserving the slice C_i, i.e.
    f = f0 + f1 i with f0^2 + f1^2 != 0 != f1; then g = -f^c + l_+ * j
    works because (f * l_+ * j) has zero-divisor symmetrization.
    """
    dom = f.domain
    if dom.real_intersecting:
        raise BadExampleInput("the construction needs a domain off the real axis")
    # the components are holomorphic, so their boundary maxima bound them on
    # the disk, and the zeros of f^s inside are counted exactly
    stem = f._stem

    def components(z: complex) -> tuple:
        fz = stem(z)
        return (*fz, fz.csym())

    f0, f1, f2, f3, sym = locus_scan(components, dom.center, dom.radius)
    scale = max(f0.max_abs, f1.max_abs, f2.max_abs, f3.max_abs) or 1.0
    if f2.max_abs + f3.max_abs > 1e-10 * scale:
        raise BadExampleInput("f must be C_i-preserving (components j, k vanish)")
    if f1.max_abs < 1e-10 * scale:
        raise BadExampleInput("f must have non-vanishing i component")
    if sym.zeros != 0 or sym.min_abs < 1e-10 * scale ** 2:
        raise BadExampleInput("f^s must not vanish")
    return -f.conj() + idempotent_plus(dom).star(constant(J_UNIT, dom))


def bch_condition(f: SliceFunction, g: SliceFunction, *,
                  tol: float = TAU_BCH) -> BCHReport:
    """Scan the obstruction Theta = f_v^s (1 - C^2) on CONDITION_SAMPLES mesh
    points; the product of the *-exponentials is a *-exponential when Theta
    stays away from zero (and the vector symmetrizations keep clear of the
    lattice {n^2 pi^2})."""
    f._require_same_domain(g)
    fstem, gstem = f._stem, g._stem
    pts = f.domain.mesh_points(CONDITION_SAMPLES)
    values = []
    lattice_ok = True
    wedge_max = 0.0
    scale_max = 1.0
    for z in pts:
        fz, gz = fstem(z), gstem(z)
        fvs, gvs = fz.vec_norm2(), gz.vec_norm2()
        cf, sf = even_trig(fvs)
        cg, sg = even_trig(gvs)
        c = cf * cg - sf * sg * cq_dot(fz, gz)
        values.append(fvs * (1 - c * c))
        wedge_max = max(wedge_max, cq_wedge(fz, gz).norm())
        scale_max = max(scale_max, fz.norm(), gz.norm())
        if _on_lattice(fvs) or _on_lattice(gvs):
            lattice_ok = False
    min_abs = min(abs(v) for v in values)
    commuting = wedge_max < 1e-12 * scale_max ** 2
    return BCHReport(points=pts, values=values, min_abs=min_abs,
                     lattice_ok=lattice_ok, commuting=commuting,
                     admissible=lattice_ok and min_abs >= tol, tol=tol)


def bch_combine(f: SliceFunction, g: SliceFunction, *,
                report: Optional[BCHReport] = None) -> ContinuedFunction:
    """Solve exp_*(f) * exp_*(g) = exp_*(h) for h; ``with_inputs_at(zs)``
    of the result is the list of (H(z), Q(z), F(z), G(z)), with
    Q = exp(F_v) exp(G_v), so that exp(F) exp(G) = e^s Q for s = f0 + g0.

    Commuting pairs (f_v ^ g_v = 0) give h = f + g.  Otherwise h is
    s plus the *-logarithm of Q, continued by ``starlog.continued_log``
    from the branch with the principal arccos of C at the domain anchor,
    which is real on domains meeting R, so the result is a stem function.
    Neither path evaluates e^s.
    """
    f._require_same_domain(g)
    if report is None:
        report = bch_condition(f, g)
    dom = f.domain
    fstem, gstem = f._stem, g._stem

    # (s, Q, Q, F, G): the walk continues the logarithm of Q, and its read
    # adds s back and passes (Q, F, G) on
    def parts(z: complex) -> tuple:
        fz, gz = fstem(z), gstem(z)
        q = cq_mul(cq_exp(fz.vec()), cq_exp(gz.vec()))
        return fz.z0 + gz.z0, q, q, fz, gz

    if report.commuting:
        total = f + g

        def summed_at(zs: list) -> list:
            return [(fz + gz, q, fz, gz) for _, q, _, fz, gz in map(parts, zs)]

        return ContinuedFunction(total._stem, summed_at, dom, None, total.node)
    if not report.admissible:
        raise NotExponential(
            f"obstruction reaches {report.min_abs:.3e} (tol {report.tol:.1e}); "
            "the product is not a *-exponential on this domain")
    # the seed is the branch h = s + W theta / sin(theta) at the anchor:
    # there Q0 +- i sin(theta) = e^{+- i theta} with theta = arccos Q0.  L is
    # log Q_v^s on the turn whose root is nearer sin(theta), never log of
    # sin^2(theta), which can miss a tiny Q_v^s by orders of magnitude
    anchor = _anchor(dom, dom.center)
    pa = parts(anchor)
    theta = cmath.acos(pa[1].z0)
    w = pa[1].vec_norm2()
    if w == 0:
        raise HitsVLocus(f"Q_v^s = 0 at the anchor {anchor}: no vector part of h")
    big_l = root_log(w, cmath.sin(theta))
    return continued_log(parts, anchor,
                         (big_l, log_sqrt(w, big_l), 1j * theta, -1j * theta, pa), (0, 0), dom)


# -- derivative of the *-exponential -----------------------------------------


def _coeff_a(w: complex) -> complex:
    """(1 - sin(2 sqrt w)/(2 sqrt w))/w, entire; A(0) = 2/3."""
    if abs(w) < 1.0:
        total = 0j
        term = 2.0 / 3.0          # h = 1: 4/3! = 2/3
        for h in range(1, 30):
            total += term
            term *= -4.0 * w / ((2 * h + 2) * (2 * h + 3))
            if abs(term) < 1e-18:
                break
        return total
    r = cmath.sqrt(w)
    return (1 - cmath.sin(2 * r) / (2 * r)) / w


def exp_derivative_bracket(fz: CQuaternion, dz: CQuaternion) -> CQuaternion:
    """The bracket { df + A(w)[<f_v,df_v> f_v - w df_v] - B(w) f_v ^ df_v }."""
    w = fz.vec_norm2()
    dot = cq_dot(fz, dz)
    a = _coeff_a(w)
    b = even_trig(w).sincr ** 2
    radial = fz.vec() * (a * dot) - dz.vec() * (a * w)
    return dz + radial - cq_wedge(fz, dz) * b


def star_exp_derivative_stem(f: SliceFunction, z: complex) -> CQuaternion:
    """Stem value of the slice derivative of exp_*(f) at z (closed form)."""
    fz = f.stem_at(z)
    dz = f.stem_derivative_at(z)
    return cq_mul(cq_exp(fz), exp_derivative_bracket(fz, dz))


def star_exp_derivative(f: SliceFunction, q: Quaternion) -> Quaternion:
    """Slice derivative of exp_*(f) at q, via the closed commutator form.

    The coefficient functions are evaluated through even series in
    w = f_v^s, so the formula is branch-free and smooth across w = 0,
    where it reduces to df - f_v ^ df_v + (2/3) <f_v, df_v>_* f_v.
    """
    z = f.slice_point(q)
    return induce_value(star_exp_derivative_stem(f, z), q)
