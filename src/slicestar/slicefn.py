"""Stem functions, slice functions, the *-product and first-order operators.

A slice function f on a circular quaternionic domain is induced by a stem
function F : U -> C (x) H with the conjugate symmetry F(conj z) = bar(F(z)),
via

    f(alpha + I*beta) = F_ev(alpha + i beta) + I * F_od(alpha + i beta),

where F = F_ev + sqrt(-1) F_od splits into the componentwise real and
imaginary (quaternion-valued) parts.  The *-product is the pointwise
product of stems, the regular conjugate f^c comes from z -> F(z)^c, the
symmetrization f^s = f * f^c is slice preserving and multiplicative, and
the slice derivative is induced by dF/dz, here computed with trapezoidal
Cauchy quadrature on a circle (spectrally accurate for holomorphic F).

Stems are closed-form evaluators, never grids, so holomorphy and
conjugate symmetry are inherited by construction.  ``KINDS`` is their node
algebra, the JSON members and stem rule of ``poly``, ``const``, ``add``,
``mul``, ``exp``, ``neg``, ``scale``, ``conj``, ``scalar``, ``vec``,
``sym``, ``vsym``, ``dot`` and ``wedge``; every operator builds through
``derive``.  Continued branches, ``slice_preserving``, the unit-vector
function, the idempotents and ``derivative()`` have opaque stems, without
a node, and so does every function built from one or scaled by a number
that is not finite.

Domains are "basic": a single disk centered on R, or the union of two
conjugate disks that avoid R.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .continuation import locus_scan
from .cquaternion import CQuaternion, cq_dot, cq_exp, cq_mul, cq_wedge, require_order
from .errors import (DegenerateUnits, DomainMismatch, JNotDefined,
                     NearBoundary, NonIsolatedZero, OutOfDomain, RealAxis,
                     VanishingVectorPart)
from .quaternion import ImagUnit, Quaternion, _new, quat_mul

#: trapezoid points for Cauchy quadrature of stem derivatives
QUAD_POINTS = 32

#: the quadrature nodes (w_k, conj w_k), w_k = exp(2 pi i k / QUAD_POINTS)
QUAD_NODES = tuple((w, w.conjugate()) for w in (
    cmath.exp(1j * (2 * math.pi * k / QUAD_POINTS)) for k in range(QUAD_POINTS)))

#: quadrature radius cap; the effective radius is min of this and half the
#: distance to the domain boundary
QUAD_RADIUS = 0.1

#: minimum boundary distance at which derivatives are still attempted
BOUNDARY_FLOOR = 1e-6

#: |f_v^s| below this fraction of its maximum on the disk counts as a zero,
#: and so does a Fourier coefficient of g1 on a ring below this fraction of
#: g1's largest value there (``orth_decompose``)
ORTH_REL_TOL = 1e-8

#: largest difference of centres and of radii of domains that match
DOMAIN_MATCH_TOL = 1e-12

#: fraction of the radius that domain meshes keep clear of the boundary
MESH_MARGIN = 0.08


@dataclass(frozen=True)
class Domain:
    """Conjugate-symmetric basic domain in C: one disk centered on R, or a
    pair of conjugate disks off R (center stored with Im >= 0)."""

    center: complex
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"domain radius must be positive and finite, got {self.radius}")
        c = complex(self.center)
        if not cmath.isfinite(c):
            raise ValueError(f"domain center must be finite, got {c}")
        if c.imag < 0:
            c = c.conjugate()
        object.__setattr__(self, "center", c)
        if c.imag != 0.0 and c.imag <= self.radius:
            raise ValueError(
                "off-axis domain must clear the real axis: need Im(center) > radius")

    @property
    def real_intersecting(self) -> bool:
        return self.center.imag == 0.0

    @property
    def two_sided(self) -> bool:
        """True when the domain is a pair of conjugate disks off R."""
        return not self.real_intersecting

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        d = min(abs(z - self.center), abs(z - self.center.conjugate()))
        return d < self.radius - margin

    def boundary_distance(self, z: complex) -> float:
        """Distance from z to the boundary of its nearest component (can be < 0)."""
        d = min(abs(z - self.center), abs(z - self.center.conjugate()))
        return self.radius - d

    def matches(self, other: "Domain") -> bool:
        return (abs(self.center - other.center) <= DOMAIN_MATCH_TOL
                and abs(self.radius - other.radius) <= DOMAIN_MATCH_TOL)

    def mesh_points(self, n: int) -> list[complex]:
        """Deterministic points covering the domain (rings around each center)."""
        pts: list[complex] = []
        centers = [self.center]
        if self.two_sided:
            centers.append(self.center.conjugate())
        per = max(1, n // len(centers))
        rings = max(1, int(math.sqrt(per / 4)))
        rmax = self.radius * (1.0 - MESH_MARGIN)
        for c in centers:
            pts.append(c)
            remaining = per - 1
            for i in range(rings):
                r = rmax * (i + 1) / rings
                m = max(4, remaining // (rings - i)) if i < rings - 1 else remaining
                m = max(4, m)
                for k in range(m):
                    th = 2 * math.pi * (k + 0.5 * (i % 2)) / m
                    pts.append(c + r * cmath.exp(1j * th))
                remaining -= m
        if self.real_intersecting:
            # make sure the real trace is represented
            for t in (-0.9, -0.45, 0.0, 0.45, 0.9):
                pts.append(complex(self.center.real + t * rmax, 0.0))
        return pts

    def sample_points(self, rng, n: int, margin_frac: float = 0.05) -> list[complex]:
        """n random points, uniform in each component (both components used).

        One call draws k uniforms per point (radius, angle and, on two-sided
        domains, the side), in the order k scalar draws per point would take
        them, so points and generator state match a scalar-draw loop.
        """
        rmax = self.radius * (1.0 - margin_frac)
        k = 3 if self.two_sided else 2
        u = rng.uniform(size=k * n).tolist()
        out = []
        for i in range(0, k * n, k):
            r = rmax * math.sqrt(u[i])
            th = u[i + 1] * 2 * math.pi
            z = self.center + r * cmath.exp(1j * th)
            if k == 3 and u[i + 2] < 0.5:
                z = z.conjugate()
            out.append(z)
        return out

    def to_json(self) -> dict:
        return {"center": [self.center.real, self.center.imag],
                "radius": self.radius,
                "realIntersecting": self.real_intersecting}

    @staticmethod
    def from_json(obj: dict) -> "Domain":
        shaped = (isinstance(obj, dict) and isinstance(obj.get("center"), (list, tuple))
                  and len(obj["center"]) == 2
                  and all(map(_finite_number, (*obj["center"], obj.get("radius")))))
        if not shaped:
            raise ValueError(f'domain must be {{"center": [re, im], "radius": r}}, got {obj!r}')
        c = complex(obj["center"][0], obj["center"][1])
        dom = Domain(c, float(obj["radius"]))
        if "realIntersecting" in obj and bool(obj["realIntersecting"]) != dom.real_intersecting:
            raise ValueError("realIntersecting flag inconsistent with center/radius")
        return dom


def _finite_number(x) -> bool:
    """x is a JSON number, not a boolean, that a float holds as a finite value."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:           # an int too large for a float
        return False


def star_pow_value(v: CQuaternion, n: int) -> CQuaternion:
    """v^n multiplied left to right, ((v v) v) ... v: the stem value of
    ``star_pow(n)`` from its base's."""
    out = v
    for _ in range(n - 1):
        out = cq_mul(out, v)
    return out


def induce_value(value: CQuaternion, q: Quaternion) -> Quaternion:
    """Evaluate the slice function with stem value ``value`` at q = alpha + I*beta."""
    beta = q.vec_norm()
    if beta == 0.0:
        return value.real_part()
    axis = q.vec() / beta
    return value.real_part() + quat_mul(axis, value.imag_part())


class SliceFunction:
    """Slice function induced by a holomorphic stem evaluator on a basic domain."""

    __slots__ = ("_stem", "domain", "node")

    def __init__(self, stem: Callable[[complex], CQuaternion], domain: Domain,
                 node: Optional[dict] = None):
        self._stem = stem
        self.domain = domain
        self.node = node

    # -- evaluation ------------------------------------------------------

    def stem_at(self, z: complex) -> CQuaternion:
        if not self.domain.contains(z, margin=-1e-12):
            raise OutOfDomain(f"{z} outside domain "
                              f"(center {self.domain.center}, radius {self.domain.radius})")
        return self._stem(z)

    def slice_point(self, q: Quaternion) -> complex:
        alpha, beta, _ = q.slice_coords()
        return complex(alpha, beta)

    def __call__(self, q: Quaternion) -> Quaternion:
        z = self.slice_point(q)
        return induce_value(self.stem_at(z), q)

    # -- algebra ---------------------------------------------------------

    def _require_same_domain(self, other: "SliceFunction") -> None:
        if not self.domain.matches(other.domain):
            raise DomainMismatch("slice functions live on different domains")

    def __add__(self, other: "SliceFunction") -> "SliceFunction":
        return derive("add", self.domain, (self, other))

    def __sub__(self, other: "SliceFunction") -> "SliceFunction":
        return self + (-other)

    def __neg__(self) -> "SliceFunction":
        return derive("neg", self.domain, self)

    def star(self, other: "SliceFunction") -> "SliceFunction":
        """*-product: the slice function induced by the pointwise stem product."""
        return derive("mul", self.domain, (self, other))

    def __mul__(self, other):
        if isinstance(other, SliceFunction):
            return self.star(other)
        return self.scale(float(other))

    def __rmul__(self, other) -> "SliceFunction":
        return self.scale(float(other))

    def __truediv__(self, scalar) -> "SliceFunction":
        return self.scale(1.0 / float(scalar))

    def scale(self, r: float) -> "SliceFunction":
        return derive("scale", self.domain, self, r)

    def star_pow(self, n: int) -> "SliceFunction":
        """f * ... * f (n factors), from one evaluation of f per point, with
        the node of the n - 1 nested *-products."""
        require_order("star power", n)
        power = self
        for _ in range(n - 1):
            power = power.star(self)
        f = self._stem
        return SliceFunction(lambda z: star_pow_value(f(z), n), self.domain, power.node)

    # -- derived functions -------------------------------------------------

    def conj(self) -> "SliceFunction":
        """Regular conjugate f^c, induced by z -> F(z)^c."""
        return derive("conj", self.domain, self)

    def scalar_part(self) -> "SliceFunction":
        return derive("scalar", self.domain, self)

    def vector_part(self) -> "SliceFunction":
        return derive("vec", self.domain, self)

    def sym(self) -> "SliceFunction":
        """Symmetrization f^s = f * f^c (slice preserving)."""
        return derive("sym", self.domain, self)

    def vsym(self) -> "SliceFunction":
        """Vector-part symmetrization f_v^s = F1^2 + F2^2 + F3^2 (slice preserving)."""
        return derive("vsym", self.domain, self)

    def star_dot(self, other: "SliceFunction") -> "SliceFunction":
        """<f, g>_* = f1 g1 + f2 g2 + f3 g3, equal to (f*g^c + g*f^c)/2."""
        return derive("dot", self.domain, (self, other))

    def star_wedge(self, other: "SliceFunction") -> "SliceFunction":
        """f ^ g = [f, g]/2, the formal cross product of the vector parts."""
        return derive("wedge", self.domain, (self, other))

    def scalar_value(self, z: complex) -> complex:
        """Stem z0-component; the natural value of a slice-preserving function."""
        return self.stem_at(z).z0

    # -- derivatives -------------------------------------------------------

    def stem_derivative_at(self, z: complex) -> CQuaternion:
        """dF/dz by trapezoidal Cauchy quadrature on a safe circle around z.

        The mean of F(z + r w) conj(w) over the QUAD_POINTS-th roots of
        unity w (``QUAD_NODES``), divided by r, accumulated per component
        in the order of ``acc = acc + F(z + r w) * conj(w)`` on
        CQuaternions, so the result is that sum's bit for bit.
        """
        dom = self.domain
        d = dom.boundary_distance(z)
        if d <= BOUNDARY_FLOOR:
            raise NearBoundary(f"{z} too close to the domain boundary for quadrature")
        r = min(QUAD_RADIUS, d / 2)
        # every node lies within r of z, so one check keeps them all inside
        if not dom.contains(z, margin=r - 1e-12):
            raise OutOfDomain(f"quadrature circle of radius {r} around {z} leaves the "
                              f"domain (center {dom.center}, radius {dom.radius})")
        stem = self._stem
        a0 = a1 = a2 = a3 = 0j
        for w, wc in QUAD_NODES:
            f0, f1, f2, f3 = stem(z + r * w)
            a0 = a0 + f0 * wc
            a1 = a1 + f1 * wc
            a2 = a2 + f2 * wc
            a3 = a3 + f3 * wc
        s = QUAD_POINTS * r
        return _new(CQuaternion, (a0 / s, a1 / s, a2 / s, a3 / s))

    def derivative(self) -> "SliceFunction":
        """Slice derivative as a slice function (quadrature-backed stem)."""
        return SliceFunction(self.stem_derivative_at, self.domain)

    def derivative_at(self, q: Quaternion) -> Quaternion:
        z = self.slice_point(q)
        return induce_value(self.stem_derivative_at(z), q)

    def spherical_derivative_at(self, q: Quaternion) -> Quaternion:
        """F_od(alpha + i beta)/beta; constant on spheres, undefined on R."""
        beta = q.vec_norm()
        if beta == 0.0:
            raise RealAxis("spherical derivative undefined on the real axis")
        z = complex(q.q0, beta)
        return self.stem_at(z).imag_part() / beta


# -- the node algebra ---------------------------------------------------------


def _poly_stem(coeffs: list) -> Callable[[complex], CQuaternion]:
    """Horner's rule run on each of the four components, with the arithmetic
    of ``acc = acc * z + a`` on CQuaternions, so its values are those bit
    for bit; it builds one CQuaternion per call."""
    cs = [CQuaternion(*map(complex, row)) for row in coeffs] or [CQuaternion.zero()]
    # the leading coefficient's components, then the others from degree n-1 down
    top0, top1, top2, top3 = cs[-1]
    lower = tuple(reversed(cs[:-1]))

    def stem(z: complex) -> CQuaternion:
        a0, a1, a2, a3 = top0, top1, top2, top3
        for c0, c1, c2, c3 in lower:
            a0 = a0 * z + c0
            a1 = a1 * z + c1
            a2 = a2 * z + c2
            a3 = a3 * z + c3
        return _new(CQuaternion, (a0, a1, a2, a3))

    return stem


def _const_stem(row: list) -> Callable[[complex], CQuaternion]:
    value = CQuaternion(*map(complex, row))
    return lambda z: value


#: member types: a child node, an array of one or more or of exactly two
#: child nodes, a quaternion row, an array of them, a finite number
NODE, NODES, PAIR, QUAT, QUATS, NUMBER = "node", "nodes", "pair", "quat", "quats", "number"

#: each kind's members in JSON order, as (key, type), and the rule that
#: builds its stem from their values, a child's stem in a child's place;
#: an array of NODES is folded from the left, as repeated + and star fold
KINDS: dict[str, tuple[tuple[tuple[str, str], ...], Callable]] = {
    "poly": ((("coeffs", QUATS),), _poly_stem),
    "const": ((("value", QUAT),), _const_stem),
    "add": ((("args", NODES),), lambda f, g: lambda z: f(z) + g(z)),
    "mul": ((("args", NODES),), lambda f, g: lambda z: cq_mul(f(z), g(z))),
    "exp": ((("arg", NODE),), lambda f: lambda z: cq_exp(f(z))),
    "neg": ((("arg", NODE),), lambda f: lambda z: -f(z)),
    "scale": ((("arg", NODE), ("by", NUMBER)), lambda f, r: lambda z: f(z) * r),
    "conj": ((("arg", NODE),), lambda f: lambda z: f(z).conj()),
    "scalar": ((("arg", NODE),), lambda f: lambda z: CQuaternion(f(z).z0, 0j, 0j, 0j)),
    "vec": ((("arg", NODE),), lambda f: lambda z: f(z).vec()),
    "sym": ((("arg", NODE),), lambda f: lambda z: CQuaternion(f(z).csym(), 0j, 0j, 0j)),
    "vsym": ((("arg", NODE),),
             lambda f: lambda z: CQuaternion(f(z).vec_norm2(), 0j, 0j, 0j)),
    "dot": ((("args", PAIR),),
            lambda f, g: lambda z: CQuaternion(cq_dot(f(z), g(z)), 0j, 0j, 0j)),
    "wedge": ((("args", PAIR),), lambda f, g: lambda z: cq_wedge(f(z), g(z))),
}


def derive(kind: str, domain: Domain, *members) -> SliceFunction:
    """The function of a ``kind`` node on ``domain``, from the members of
    ``KINDS[kind]``: a SliceFunction per child node (a sequence of them for
    an array), the JSON value otherwise; its node is kept when every child
    has one and every number, quaternion entries too, is finite, which is
    what the loader reads back, and children on different domains raise
    DomainMismatch."""
    shape, rule = KINDS[kind]
    node, args, children, numbers = {"kind": kind}, [], [], []
    for (key, typ), member in zip(shape, members):
        if typ == NODE:
            children.append(member)
            node[key] = member.node
            args.append(member._stem)
        elif typ == NODES or typ == PAIR:
            children += member
            node[key] = [f.node for f in member]
            args += [f._stem for f in member]
        else:
            node[key] = member
            args.append(member)
            if typ == NUMBER:
                numbers.append(member)
            elif typ == QUAT:
                numbers += member
            else:
                numbers += [x for q in member for x in q]
    for f in children[1:]:
        children[0]._require_same_domain(f)
    stem = functools.reduce(rule, args) if shape[0][1] == NODES else rule(*args)
    opaque = any(f.node is None for f in children) or not all(map(_finite_number, numbers))
    return SliceFunction(stem, domain, None if opaque else node)


# -- constructors -----------------------------------------------------------


def constant(c: Quaternion, domain: Domain) -> SliceFunction:
    return derive("const", domain, list(c.components()))


def polynomial(coeffs: Sequence[Quaternion], domain: Domain) -> SliceFunction:
    """Polynomial q -> sum q^n a_n with right quaternion coefficients a_n."""
    return derive("poly", domain, [list(a.components()) for a in coeffs])


def identity(domain: Domain) -> SliceFunction:
    return polynomial([Quaternion.zero(), Quaternion.one()], domain)


def slice_preserving(fn: Callable[[complex], complex], domain: Domain) -> SliceFunction:
    """Slice-preserving function from a scalar stem with f(conj z) = conj f(z)."""
    return SliceFunction(lambda z: _new(CQuaternion, (fn(z), 0j, 0j, 0j)), domain)


def _sided(domain: Domain, needs: str, above: CQuaternion,
           below: CQuaternion) -> SliceFunction:
    """The function with stem ``above`` where Im z > 0, ``below`` elsewhere;
    JNotDefined on a domain meeting R, where the two would meet."""
    if domain.real_intersecting:
        raise JNotDefined(f"{needs} a domain avoiding the real axis")
    return SliceFunction(lambda z: above if z.imag > 0 else below, domain)


def unit_vector_part(domain: Domain) -> SliceFunction:
    """The slice-preserving function q -> q_v/|q_v| (value I on each C_I^+).

    Its stem is (i*sign(Im z), 0, 0, 0), locally constant, so the domain
    must avoid the real axis.
    """
    return _sided(domain, "q -> q_v/|q_v| needs", CQuaternion(1j, 0j, 0j, 0j),
                  CQuaternion(-1j, 0j, 0j, 0j))


def idempotent_plus(domain: Domain) -> SliceFunction:
    """(1 - J*i)/2 where J = q_v/|q_v|; a slice regular idempotent zero divisor."""
    # complex(0, -0.5): the literal -0.5j has the real part -0.0
    return _sided(domain, "idempotents need", CQuaternion(0.5 + 0j, complex(0, -0.5), 0j, 0j),
                  CQuaternion(0.5 + 0j, 0.5j, 0j, 0j))


def idempotent_minus(domain: Domain) -> SliceFunction:
    """(1 + J*i)/2; the complementary idempotent (plus * minus = 0)."""
    return _sided(domain, "idempotents need", CQuaternion(0.5 + 0j, 0.5j, 0j, 0j),
                  CQuaternion(0.5 + 0j, complex(0, -0.5), 0j, 0j))


# -- the classical operators --------------------------------------------------


def representation_formula(vJ: Quaternion, vK: Quaternion,
                           J: ImagUnit, K: ImagUnit, I: ImagUnit) -> Quaternion:
    """Reconstruct f(alpha + I beta) from f(alpha + J beta) and f(alpha + K beta):

        (I - K) (J - K)^{-1} vJ  -  (I - J) (J - K)^{-1} vK.
    """
    Jq, Kq, Iq = J.as_quaternion(), K.as_quaternion(), I.as_quaternion()
    diff = Jq - Kq
    if diff.norm() < 1e-12:
        raise DegenerateUnits("representation formula needs J != K")
    inv = diff.inverse()
    left = quat_mul(Iq - Kq, quat_mul(inv, vJ))
    right = quat_mul(Iq - Jq, quat_mul(inv, vK))
    return left - right


def star_decompose(f: SliceFunction):
    """The five derived functions (f0, f_v, f^c, f^s, f_v^s)."""
    return f.scalar_part(), f.vector_part(), f.conj(), f.sym(), f.vsym()


def stem_symmetry_defect(f: SliceFunction, points: Sequence[complex]) -> float:
    """max over points of |F(conj z) - bar(F(z))| (should vanish for stems)."""
    worst = 0.0
    for z in points:
        worst = max(worst, (f.stem_at(z.conjugate()) - f.stem_at(z).bar()).norm())
    return worst


class ContinuedFunction(SliceFunction):
    """A slice function whose stem comes with the stems it was built from:
    ``with_inputs_at(zs)`` is, for each z, the tuple of its stem at z and
    then those stems at z, all read from one state, so a caller checking
    the result against its inputs evaluates them no further.  ``branch``
    is the ``BranchContinuation`` the values are read from, or None for a
    closed form."""

    __slots__ = ("with_inputs_at", "branch")

    def __init__(self, stem, with_inputs_at: Callable[[list], list], domain: Domain,
                 branch, node: Optional[dict] = None):
        super().__init__(stem, domain, node)
        self.with_inputs_at = with_inputs_at
        self.branch = branch

    @classmethod
    def from_branch(cls, read: Callable, branch) -> "ContinuedFunction":
        """The function on ``branch.domain`` whose stem at z is the first
        value of ``read(z, branch.at(z))``; ``with_inputs_at`` reads a
        batch's states from one ``branch.at_many`` walk.

        The branch runs on the disk holding its anchor (on R or in the
        upper disk), cut to Im z >= 0: on every domain, a point z with
        Im z < 0 gets the ``bar`` of each value read at conj z.  So the
        result has the stem symmetry F(conj z) = bar(F(z)) by construction,
        and a disk meeting R fills only the upper half of its grid.
        """
        at, at_many, domain = branch.at, branch.at_many, branch.domain
        bar = CQuaternion.bar

        def stem(z: complex) -> CQuaternion:
            if z.imag < 0:
                z = z.conjugate()
                return bar(read(z, at(z))[0])
            return read(z, at(z))[0]

        def with_inputs_at(zs) -> list:
            uppers = [z.conjugate() if z.imag < 0 else z for z in zs]
            return [tuple(map(bar, read(u, state))) if z.imag < 0 else read(u, state)
                    for z, u, state in zip(zs, uppers, at_many(uppers))]

        return cls(stem, with_inputs_at, domain, branch)


# -- orthogonal decomposition along f_v ---------------------------------------


def orth_decompose(f: SliceFunction, g: SliceFunction):
    """Split g = g1 * f_v + g_perp with g1 slice preserving and <f_v, g_perp>_* = 0.

    g1 = <g_v, f_v>_* / f_v^s where |f_v^s| exceeds ORTH_REL_TOL of its
    maximum on the disk, read by one ``locus_scan`` of the boundary circle.
    Nearer a zero z of f_v^s, g1(z) is the Cauchy mean of the quotient on a
    ring round z, halved until the ring's own scan counts N < QUAD_POINTS/2
    zeros inside, which bound the order of any pole, and the ring values'
    modes -1 .. -N (the Laurent coefficients a_{-k} eps^{-k}) and
    QUAD_POINTS/2 (convergence) vanish (Trefethen & Weideman, SIAM Review
    56, 2014).  Where a ring shows a pole, f_v^s vanishes to a higher order
    than <g_v, f_v>_* and g1(z) raises VanishingVectorPart naming z; where
    no ring clears the zeros, NonIsolatedZero.  With f_v^s not identically
    zero, (f_v ^ g_perp)^s = f_v^s * g_perp_v^s.
    """
    f._require_same_domain(g)
    dom = f.domain
    fs = f._stem
    gs = g._stem

    def vsym(z: complex) -> tuple[complex]:
        return (fs(z).vec_norm2(),)

    scale = locus_scan(vsym, dom.center, dom.radius)[0].max_abs
    if scale < 1e-14:
        raise VanishingVectorPart("f_v^s vanishes identically (within tolerance)")
    zero_thresh = ORTH_REL_TOL * scale
    half = QUAD_POINTS // 2

    def raw_g1(z: complex) -> complex:
        fz = fs(z)
        return cq_dot(gs(z), fz) / fz.vec_norm2()

    def mode(vals: list, k: int) -> float:
        return abs(sum(v * QUAD_NODES[j * k % QUAD_POINTS][0] for j, v in enumerate(vals)))

    def g1_value(z: complex) -> complex:
        if abs(fs(z).vec_norm2()) > zero_thresh:
            return raw_g1(z)
        d = dom.boundary_distance(z)
        eps, pole = min(d / 2, QUAD_RADIUS), None
        for _ in range(6):
            # a zero at z keeps |f_v^s| below scale * eps / d on the ring
            # (Schwarz's lemma); the ring must stay above ORTH_REL_TOL of that,
            # and no ring fits round a point of the boundary (d = 0)
            n, low, _ = locus_scan(vsym, z, eps)[0]
            if n is not None and n < half and low * d > zero_thresh * eps:
                vals = [raw_g1(z + eps * w) for w, _ in QUAD_NODES]
                tol = ORTH_REL_TOL * QUAD_POINTS * max(map(abs, vals))
                if any(mode(vals, k) > tol for k in range(1, n + 1)):
                    pole = eps
                elif mode(vals, half) <= tol:
                    return sum(vals) / QUAD_POINTS
            eps /= 2
        if pole is not None:
            raise VanishingVectorPart(
                f"g1 = <g_v, f_v>_*/f_v^s has a pole within {pole:.3g} of {z}: f_v^s "
                "vanishes there to a higher order than <g_v, f_v>_*")
        raise NonIsolatedZero(f"no isolated-zero circle around {z}")

    g1 = slice_preserving(g1_value, dom)
    g_perp = g - g1.star(f.vector_part())
    return g1, g_perp
