"""Real quaternion algebra H, its exponential, and the strata where exp is regular.

Quaternions q = q0 + q1*i + q2*j + q3*k are stored as four 64-bit floats.
The product follows the scalar/vector split

    pq = p0*q0 - <p_v, q_v> + p0*q_v + q0*p_v + p_v ^ q_v,

from which |pq| = |p||q| and q_v^2 = -|q_v|^2.  exp is slice preserving:
exp(q) = e^{q0} (cos|q_v| + sinc(|q_v|) q_v), and restricted to the open
strata k*pi < |q_v| < (k+1)*pi it is a diffeomorphism onto H \\ R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import RealAxis

#: the constructor of every value type: ``_new(cls, (fields...))`` builds
#: what ``cls(fields...)`` builds, without the NamedTuple's Python frame
_new = tuple.__new__

#: absolute tolerance for detecting |q_v| on the singular lattice h*pi
TAU_STRATUM = 1e-9

#: below this vector norm, sin(t)/t and cos(t) switch to Taylor series
_SMALL_ANGLE = 1e-4


def value_type(cls):
    """Give a NamedTuple class the contract of the algebra's values.

    Instances stay immutable tuples: assigning a field raises
    AttributeError.  They compare and hash as tuples, but only with
    instances of the same class, so a Quaternion never equals a
    CQuaternion or a plain tuple with the same entries.
    ``__array_ufunc__ = None`` makes a numpy scalar on the left of ``*``
    defer to the class's ``__rmul__``; without it, numpy would broadcast
    over the tuple and return an ndarray.
    """
    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    cls.__eq__, cls.__ne__, cls.__hash__ = __eq__, __ne__, tuple.__hash__
    cls.__array_ufunc__ = None
    return cls


@value_type
class Quaternion(NamedTuple):
    """A quaternion q0 + q1*i + q2*j + q3*k: an immutable tuple of four
    floats, equal only to another Quaternion with equal entries, which a
    numpy scalar multiplies through ``__rmul__`` (see :func:`value_type`).
    """

    q0: float
    q1: float
    q2: float
    q3: float

    # -- algebra -------------------------------------------------------

    # The kernels unpack their operands: a tuple unpack is cheaper than
    # four field reads through the class's attribute descriptors.  They
    # build results with ``_new(Quaternion, (...))``, the tuple.__new__
    # that the class's own constructor calls, without its Python frame.

    def __add__(self, other: "Quaternion") -> "Quaternion":
        p0, p1, p2, p3 = self
        q0, q1, q2, q3 = other
        return _new(Quaternion, (p0 + q0, p1 + q1, p2 + q2, p3 + q3))

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        p0, p1, p2, p3 = self
        q0, q1, q2, q3 = other
        return _new(Quaternion, (p0 - q0, p1 - q1, p2 - q2, p3 - q3))

    def __neg__(self) -> "Quaternion":
        p0, p1, p2, p3 = self
        return _new(Quaternion, (-p0, -p1, -p2, -p3))

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return quat_mul(self, other)
        p0, p1, p2, p3 = self
        return _new(Quaternion, (p0 * other, p1 * other, p2 * other, p3 * other))

    def __rmul__(self, other) -> "Quaternion":
        # scalar * q; quaternion * quaternion is handled by __mul__
        p0, p1, p2, p3 = self
        return _new(Quaternion, (p0 * other, p1 * other, p2 * other, p3 * other))

    def __truediv__(self, scalar: float) -> "Quaternion":
        p0, p1, p2, p3 = self
        return _new(Quaternion, (p0 / scalar, p1 / scalar, p2 / scalar, p3 / scalar))

    # -- structure -----------------------------------------------------

    def conj(self) -> "Quaternion":
        p0, p1, p2, p3 = self
        return _new(Quaternion, (p0, -p1, -p2, -p3))

    def vec(self) -> "Quaternion":
        _, p1, p2, p3 = self
        return _new(Quaternion, (0.0, p1, p2, p3))

    def vec_norm(self) -> float:
        _, p1, p2, p3 = self
        return math.sqrt(p1 * p1 + p2 * p2 + p3 * p3)

    def norm2(self) -> float:
        p0, p1, p2, p3 = self
        return p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def inverse(self) -> "Quaternion":
        n2 = self.norm2()
        if n2 == 0.0:
            raise ZeroDivisionError("inverse of zero quaternion")
        return self.conj() / n2

    def components(self) -> tuple[float, float, float, float]:
        return tuple(self)

    # -- slice form q = alpha + I*beta ----------------------------------

    def slice_coords(self) -> tuple[float, float, "ImagUnit | None"]:
        """Return (alpha, beta, I) with beta = |q_v| >= 0; I is None for real q."""
        beta = self.vec_norm()
        if beta == 0.0:
            return self.q0, 0.0, None
        return self.q0, beta, ImagUnit(self.q1 / beta, self.q2 / beta, self.q3 / beta)

    @staticmethod
    def from_slice_coords(alpha: float, beta: float, axis: "ImagUnit") -> "Quaternion":
        return Quaternion(alpha, beta * axis.x1, beta * axis.x2, beta * axis.x3)

    @staticmethod
    def zero() -> "Quaternion":
        return Quaternion(0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def one() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)


I_UNIT = Quaternion(0.0, 1.0, 0.0, 0.0)
J_UNIT = Quaternion(0.0, 0.0, 1.0, 0.0)
K_UNIT = Quaternion(0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class ImagUnit:
    """Point of the sphere S = {I in H | I^2 = -1} of imaginary units."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        n2 = self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3
        if abs(n2 - 1.0) > 1e-9:
            raise ValueError(f"imaginary unit must have unit norm, got |I|^2 = {n2}")

    @staticmethod
    def from_vector(x1: float, x2: float, x3: float) -> "ImagUnit":
        n = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector to an imaginary unit")
        return ImagUnit(x1 / n, x2 / n, x3 / n)

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.x1, self.x2, self.x3)


def quat_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Quaternion product p*q (scalar/vector form; |pq| = |p||q|)."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return _new(Quaternion, (
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
        p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
        p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
        p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
    ))


def _sinc(t: float) -> float:
    # sin(t)/t, Taylor below the cancellation threshold
    if abs(t) < _SMALL_ANGLE:
        t2 = t * t
        return 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    return math.sin(t) / t


def _cos_small(t: float) -> float:
    if abs(t) < _SMALL_ANGLE:
        t2 = t * t
        return 1.0 - t2 / 2.0 + t2 * t2 / 24.0
    return math.cos(t)


def quat_exp(q: Quaternion) -> Quaternion:
    """exp(q) = e^{q0} (cos|q_v| + sinc(|q_v|) q_v); smooth across the real axis."""
    q0, q1, q2, q3 = q
    beta = math.sqrt(q1 * q1 + q2 * q2 + q3 * q3)
    ea = math.exp(q0)
    c = ea * _cos_small(beta)
    s = ea * _sinc(beta)
    return _new(Quaternion, (c, s * q1, s * q2, s * q3))


def exp_stratum(q: Quaternion) -> int | None:
    """Stratum index of q for the exponential.

    Returns k with k*pi < |q_v| < (k+1)*pi when q lies in an open stratum,
    or None when |q_v| is within TAU_STRATUM of h*pi for some integer h >= 0
    (the singular set of exp, which includes the real axis h = 0).
    """
    beta = q.vec_norm()
    h = round(beta / math.pi)
    if abs(beta - h * math.pi) <= TAU_STRATUM:
        return None
    return int(math.floor(beta / math.pi))


def stratum_shift(q: Quaternion) -> Quaternion:
    """Map alpha + I*beta to alpha + I*(beta + pi) (stratum k -> k+1).

    Uses the canonical slice form with beta = |q_v| > 0.  Raises
    :class:`RealAxis` for real q, where the slice axis is undefined.
    """
    beta = q.vec_norm()
    if beta == 0.0:
        raise RealAxis("stratum shift undefined for real quaternions")
    scale = (beta + math.pi) / beta
    return Quaternion(q.q0, scale * q.q1, scale * q.q2, scale * q.q3)
