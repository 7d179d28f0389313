"""The complexified algebra C (x) H, identified with C^4.

Elements z = z0 + z1*i + z2*j + z3*k with complex coordinates multiply by
the same scalar/vector formula as quaternions.  Two commuting conjugations
exist: z^c negates the vector part, bar(z) conjugates each component.
The scalar z*z^c = z0^2 + n(z) with n(z) = z1^2 + z2^2 + z3^2 plays the
role of the squared norm and is multiplicative:

    (zw)(zw)^c = (z z^c)(w w^c).

Unlike H, the algebra has zero divisors; they live on the quadric loci
V_-1 = {z0^2 + n(z) = 0} and V_inf = {n(z) = 0}, which are exactly the
values the exponential cannot take.

All trigonometric evaluations of sqrt(n(z)) go through the even pair
(cos(sqrt w), sin(sqrt w)/sqrt w), which depends on w only, so no square
root branch is ever chosen.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import NamedTuple

from .quaternion import Quaternion, _new, value_type

#: absolute tolerance for membership in the V_-1 / V_inf loci
TAU_CLASSIFY = 1e-10

#: |w| below which the even trig pair is summed as a series
_SERIES_RADIUS = 1.0
_SERIES_MAX_TERMS = 25

#: the integer denominators (2m-1)(2m) and (2m)(2m+1) of the series terms
#: of cos(sqrt w) and sin(sqrt w)/sqrt w, m = 1 .. _SERIES_MAX_TERMS
_SERIES_DENOMS = tuple(((2 * m - 1) * (2 * m), (2 * m) * (2 * m + 1))
                       for m in range(1, _SERIES_MAX_TERMS + 1))


@value_type
class CQuaternion(NamedTuple):
    """An element z0 + z1*i + z2*j + z3*k of C (x) H: an immutable tuple of
    four complex numbers, equal only to another CQuaternion with equal
    entries, which a numpy scalar multiplies through ``__rmul__`` (see
    :func:`slicestar.quaternion.value_type`).
    """

    z0: complex
    z1: complex
    z2: complex
    z3: complex

    # -- algebra -------------------------------------------------------

    # The kernels unpack their operands: a tuple unpack is cheaper than
    # four field reads through the class's attribute descriptors.  They
    # build results with ``_new(CQuaternion, (...))``, the tuple.__new__
    # that the class's own constructor calls, without its Python frame.

    def __add__(self, other: "CQuaternion") -> "CQuaternion":
        a0, a1, a2, a3 = self
        b0, b1, b2, b3 = other
        return _new(CQuaternion, (a0 + b0, a1 + b1, a2 + b2, a3 + b3))

    def __sub__(self, other: "CQuaternion") -> "CQuaternion":
        a0, a1, a2, a3 = self
        b0, b1, b2, b3 = other
        return _new(CQuaternion, (a0 - b0, a1 - b1, a2 - b2, a3 - b3))

    def __neg__(self) -> "CQuaternion":
        a0, a1, a2, a3 = self
        return _new(CQuaternion, (-a0, -a1, -a2, -a3))

    def __mul__(self, other):
        if isinstance(other, CQuaternion):
            return cq_mul(self, other)
        a0, a1, a2, a3 = self
        return _new(CQuaternion, (a0 * other, a1 * other, a2 * other, a3 * other))

    def __rmul__(self, other) -> "CQuaternion":
        a0, a1, a2, a3 = self
        return _new(CQuaternion, (a0 * other, a1 * other, a2 * other, a3 * other))

    def __truediv__(self, scalar: complex) -> "CQuaternion":
        a0, a1, a2, a3 = self
        return _new(CQuaternion, (a0 / scalar, a1 / scalar, a2 / scalar, a3 / scalar))

    # -- conjugations and invariants ------------------------------------

    def conj(self) -> "CQuaternion":
        """Quaternionic conjugation z^c = z0 - vec(z)."""
        a0, a1, a2, a3 = self
        return _new(CQuaternion, (a0, -a1, -a2, -a3))

    def bar(self) -> "CQuaternion":
        """Componentwise complex conjugation."""
        a0, a1, a2, a3 = self
        return _new(CQuaternion, (a0.conjugate(), a1.conjugate(),
                                  a2.conjugate(), a3.conjugate()))

    def vec(self) -> "CQuaternion":
        _, a1, a2, a3 = self
        return _new(CQuaternion, (0j, a1, a2, a3))

    def vec_norm2(self) -> complex:
        """n(z) = z1^2 + z2^2 + z3^2 (a complex scalar, not a norm)."""
        _, a1, a2, a3 = self
        return a1 * a1 + a2 * a2 + a3 * a3

    def csym(self) -> complex:
        """z z^c = z0^2 + n(z)."""
        a0, a1, a2, a3 = self
        return a0 * a0 + (a1 * a1 + a2 * a2 + a3 * a3)

    def norm(self) -> float:
        """Euclidean norm of C^4, used for all tolerances.

        ``abs(a) ** 2``, not ``x * x``: a float power raises OverflowError
        where a product would return inf, and callers rely on that."""
        a0, a1, a2, a3 = self
        return math.sqrt(abs(a0) ** 2 + abs(a1) ** 2 + abs(a2) ** 2 + abs(a3) ** 2)

    def components(self) -> tuple[complex, complex, complex, complex]:
        return tuple(self)

    # -- embedding of H --------------------------------------------------

    @staticmethod
    def from_quaternion(q: Quaternion) -> "CQuaternion":
        return CQuaternion(complex(q.q0), complex(q.q1), complex(q.q2), complex(q.q3))

    def real_part(self) -> Quaternion:
        a0, a1, a2, a3 = self
        return _new(Quaternion, (a0.real, a1.real, a2.real, a3.real))

    def imag_part(self) -> Quaternion:
        a0, a1, a2, a3 = self
        return _new(Quaternion, (a0.imag, a1.imag, a2.imag, a3.imag))

    @staticmethod
    def zero() -> "CQuaternion":
        return CQuaternion(0j, 0j, 0j, 0j)

    @staticmethod
    def one() -> "CQuaternion":
        return CQuaternion(1 + 0j, 0j, 0j, 0j)


def cq_mul(z: CQuaternion, w: CQuaternion) -> CQuaternion:
    """Product in C (x) H (formally the quaternion product over C)."""
    z0, z1, z2, z3 = z
    w0, w1, w2, w3 = w
    return _new(CQuaternion, (
        z0 * w0 - z1 * w1 - z2 * w2 - z3 * w3,
        z0 * w1 + z1 * w0 + z2 * w3 - z3 * w2,
        z0 * w2 - z1 * w3 + z2 * w0 + z3 * w1,
        z0 * w3 + z1 * w2 - z2 * w1 + z3 * w0,
    ))


def cq_dot(z: CQuaternion, w: CQuaternion) -> complex:
    """Formal Euclidean product of the vector parts: z1 w1 + z2 w2 + z3 w3."""
    _, z1, z2, z3 = z
    _, w1, w2, w3 = w
    return z1 * w1 + z2 * w2 + z3 * w3


def cq_wedge(z: CQuaternion, w: CQuaternion) -> CQuaternion:
    """Formal cross product of the vector parts (a pure vector element)."""
    _, z1, z2, z3 = z
    _, w1, w2, w3 = w
    return _new(CQuaternion, (
        0j,
        z2 * w3 - z3 * w2,
        z3 * w1 - z1 * w3,
        z1 * w2 - z2 * w1,
    ))


class Locus(Enum):
    GENERIC = "generic"
    V_MINUS1 = "v_minus1"
    V_INF = "v_inf"
    BOTH = "both"


def classify(z: CQuaternion) -> Locus:
    """Membership of z in the zero-divisor loci V_-1 and V_inf."""
    in_vm1 = abs(z.csym()) <= TAU_CLASSIFY
    in_vinf = abs(z.vec_norm2()) <= TAU_CLASSIFY
    if in_vm1 and in_vinf:
        return Locus.BOTH
    if in_vm1:
        return Locus.V_MINUS1
    if in_vinf:
        return Locus.V_INF
    return Locus.GENERIC


@value_type
class EvenTrigPair(NamedTuple):
    """Values of cos(sqrt w) and sin(sqrt w)/sqrt w; satisfies cosr^2 + w*sincr^2 = 1.

    An immutable tuple of two complex numbers, equal only to another
    EvenTrigPair with equal entries, over which numpy does not broadcast
    (see :func:`slicestar.quaternion.value_type`).
    """

    cosr: complex
    sincr: complex


def even_trig(w: complex) -> EvenTrigPair:
    """Branch-free evaluation of (cos(sqrt w), sin(sqrt w)/sqrt w).

    Both functions are even in sqrt(w), hence single-valued in w.  Near
    w = 0 the power series avoids the 0/0 cancellation of sin(sqrt w)/sqrt w.
    """
    w = complex(w)
    if abs(w) < _SERIES_RADIUS:
        cosr = 1 + 0j
        sincr = 1 + 0j
        term_c = 1 + 0j
        term_s = 1 + 0j
        neg_w = -w
        for den_c, den_s in _SERIES_DENOMS:
            term_c *= neg_w / den_c
            term_s *= neg_w / den_s
            cosr += term_c
            sincr += term_s
            if abs(term_c) < 1e-18 and abs(term_s) < 1e-18:
                break
        return _new(EvenTrigPair, (cosr, sincr))
    r = cmath.sqrt(w)
    return _new(EvenTrigPair, (cmath.cos(r), cmath.sin(r) / r))


def require_order(what: str, n: int) -> None:
    """ValueError unless n is a positive int; a bool or a float that
    happens to be whole is not one."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"{what} must be a positive integer, got {n!r}")


def cq_pow(z: CQuaternion, n: int) -> CQuaternion:
    """n-th power of z in C (x) H, via the two-term polynomial recurrence.

    z^m = p0 + p1 * vec(z) with p0, p1 polynomials in (z0, n(z)); the
    recurrence p0' = z0*p0 - n(z)*p1, p1' = p0 + z0*p1 follows from
    z^{m+1} = z * z^m and is numerically stable.
    """
    require_order("power", n)
    x, z1, z2, z3 = z
    w = z1 * z1 + z2 * z2 + z3 * z3
    p0, p1 = 1 + 0j, 0j
    for _ in range(n):
        p0, p1 = x * p0 - w * p1, p0 + x * p1
    return _new(CQuaternion, (p0, p1 * z1, p1 * z2, p1 * z3))


def cq_exp(z: CQuaternion) -> CQuaternion:
    """Exponential of C (x) H: e^{z0} (cos(sqrt n(z)) + sin(sqrt n(z))/sqrt n(z) * vec z).

    Restricts to quat_exp on real-embedded inputs and is invariant under
    adding 2*pi*1j to z0 (the scalar deck shift).
    """
    z0, z1, z2, z3 = z
    cosr, sincr = even_trig(z1 * z1 + z2 * z2 + z3 * z3)
    e0 = cmath.exp(z0)
    c = e0 * cosr
    s = e0 * sincr
    return _new(CQuaternion, (c, s * z1, s * z2, s * z3))


def cq_sinc(z: CQuaternion) -> CQuaternion:
    """The entire function sum_m (-1)^m z^m / (2m+1)! on the algebra.

    On complex scalars this is sin(sqrt z)/sqrt z; on the algebra it
    satisfies cq_sinc(z*z) * z = sin(z), the power-series sine.  Summed
    through the same scalar/vector recurrence as cq_pow, so no branch of
    sqrt is involved; cq_sinc(0) = 1.
    """
    x, z1, z2, z3 = z
    w = z1 * z1 + z2 * z2 + z3 * z3
    a, b = 1 + 0j, 0j            # z^m = a + b*vec(z)
    coeff = 1.0                  # (-1)^m / (2m+1)!
    sum_a, sum_b = 1 + 0j, 0j
    scale = max(1.0, abs(x) + math.sqrt(abs(w)))
    for m in range(1, 90):
        a, b = x * a - w * b, a + x * b
        coeff /= -((2 * m) * (2 * m + 1))
        ta = coeff * a
        tb = coeff * b
        sum_a += ta
        sum_b += tb
        if (abs(ta) + abs(tb) * scale) < 1e-18:
            break
    return _new(CQuaternion, (sum_a, sum_b * z1, sum_b * z2, sum_b * z3))
