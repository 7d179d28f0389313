"""The lift space C^2 x S, its exponential covering, deck maps and monodromy.

S is the set of pure-vector elements s of C (x) H with s*s = -1, i.e.
n(s) = 1.  Two maps organize everything:

    project((u0,u1),s) = u0 + u1*s            (2:1 onto {n(z) != 0} for u1 != 0)
    lifted_exp((u0,u1),s) = ((e^{u0} cos u1, e^{u0} sin u1), s)

They intertwine the algebra exponential: cq_exp(project(p)) = project(lifted_exp(p)).
lifted_exp covers (C^2 \\ W) x S, W = {w0^2 + w1^2 = 0}; its fibers are the
lattice translates (u0 + a*i*pi, u1 + b*pi) with a = b (mod 2), so the
monodromy group is Z^2, indexed here by BranchIndex (h1, h2) acting as
(a, b) = (h1+h2, h1-h2).  Paths avoiding W are lifted by continuing the
logarithms la, lb of alpha = w0 + i w1 and beta = w0 - i w1, each step
by ``continuation.log_step`` (principal Log + 2 pi i k nearest the
previous value), the step every walk takes, so every lifted point is
exact, not a sum of increments; (u0, u1) = ((la + lb)/2, (la - lb)/(2i)).
The loop monodromy is then (h1, h2) = (winding of alpha, winding of beta).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .continuation import continue_along, log_step
from .cquaternion import CQuaternion
from .errors import (BadOrder, BadStart, NotALoop, NotDeck, OnVinf, OnW,
                     PathTooWild)
from .quaternion import _new, value_type

#: tolerance for n(z) ~ 0 when splitting fibers of the double cover
TAU_FIBER = 1e-10

#: pre-rounding tolerance for integral monodromy
TAU_MONODROMY = 1e-6

#: absolute tolerance to which s lies on S, a loop closes, joined paths meet
#: and a lift's start lies on the fiber over the path's first sample
TAU_PATH = 1e-9

_IPI = 1j * math.pi


def unit_imaginary(v: CQuaternion) -> CQuaternion:
    """Normalize a pure vector to S via the principal root of n(v)."""
    n = v.vec_norm2()
    if abs(n) <= TAU_FIBER:
        raise OnVinf(f"cannot normalize: n(v) = {n} ~ 0")
    r = cmath.sqrt(n)
    _, v1, v2, v3 = v
    return _new(CQuaternion, (0j, v1 / r, v2 / r, v3 / r))


class _LiftFields(NamedTuple):
    u0: complex
    u1: complex
    s: CQuaternion


@value_type
class LiftPoint(_LiftFields):
    """Point ((u0, u1), s) of C^2 x S: an immutable tuple, equal only to
    another LiftPoint with equal entries (see
    :func:`slicestar.quaternion.value_type`).  Building one checks that s
    is a pure vector with n(s) = 1."""

    __slots__ = ()

    def __new__(cls, u0: complex, u1: complex, s: CQuaternion):
        if abs(s.z0) > TAU_PATH or abs(s.vec_norm2() - 1.0) > TAU_PATH:
            raise ValueError(f"s must be a pure vector with n(s) = 1, got {s}")
        return _new(cls, (u0, u1, s))

    @classmethod
    def _make(cls, iterable) -> "LiftPoint":
        # NamedTuple's _make, and through it _replace, would skip the check
        return cls(*iterable)


@dataclass(frozen=True)
class BranchIndex:
    """Monodromy index (h1, h2) in Z^2 selecting a logarithm branch."""

    h1: int
    h2: int

    def lattice(self) -> tuple[int, int]:
        """Translation coordinates (a, b) = (h1+h2, h1-h2); always a = b (mod 2)."""
        return self.h1 + self.h2, self.h1 - self.h2

    def __add__(self, other: "BranchIndex") -> "BranchIndex":
        return BranchIndex(self.h1 + other.h1, self.h2 + other.h2)

    def __neg__(self) -> "BranchIndex":
        return BranchIndex(-self.h1, -self.h2)


def project(p: LiftPoint) -> CQuaternion:
    """project((u0,u1),s) = u0 + u1*s."""
    u0, u1, (_, s1, s2, s3) = p
    return _new(CQuaternion, (u0, u1 * s1, u1 * s2, u1 * s3))


def project_fibers(z: CQuaternion) -> tuple[LiftPoint, LiftPoint]:
    """The two preimages ((z0, +-sqrt(n(z))), +-vec(z)/sqrt(n(z))) of z.

    Requires n(z) != 0; the two points are exchanged by sheet_swap.
    """
    n = z.vec_norm2()
    if abs(n) <= TAU_FIBER:
        raise OnVinf(f"point lies on V_inf: n(z) = {n}")
    r = cmath.sqrt(n)
    s = CQuaternion(0j, z.z1 / r, z.z2 / r, z.z3 / r)
    return LiftPoint(z.z0, r, s), LiftPoint(z.z0, -r, -s)


def lifted_exp(p: LiftPoint) -> LiftPoint:
    """((u0,u1),s) -> ((e^{u0} cos u1, e^{u0} sin u1), s).

    Note the result is a point of C^2 x S again; its C^2 part always
    avoids W since w0^2 + w1^2 = e^{2 u0} != 0.
    """
    e0 = cmath.exp(p.u0)
    return LiftPoint(e0 * cmath.cos(p.u1), e0 * cmath.sin(p.u1), p.s)


def from_log_pair(la: complex, lb: complex) -> tuple[complex, complex]:
    """(u0, u1) = ((la + lb)/2, (la - lb)/(2i)) from logs of alpha, beta."""
    return (la + lb) / 2, (la - lb) / 2j


def lifted_exp_preimage(w0: complex, w1: complex, s: CQuaternion,
                        branch: BranchIndex = BranchIndex(0, 0)) -> LiftPoint:
    """The branch-indexed solution of e^{u0} cos u1 = w0, e^{u0} sin u1 = w1.

    With principal logarithms of alpha = w0 + i w1 and beta = w0 - i w1:

        u0 = (Log alpha + Log beta)/2 + (h1+h2) i pi
        u1 = (Log alpha - Log beta)/(2i) + (h1-h2) pi

    Solvable iff w0^2 + w1^2 != 0.
    """
    alpha = w0 + 1j * w1
    beta = w0 - 1j * w1
    if abs(alpha) <= TAU_FIBER or abs(beta) <= TAU_FIBER:
        raise OnW(f"no preimage: w0^2 + w1^2 = {w0 * w0 + w1 * w1}")
    u0, u1 = from_log_pair(cmath.log(alpha), cmath.log(beta))
    return LiftPoint(u0 + (branch.h1 + branch.h2) * _IPI,
                     u1 + (branch.h1 - branch.h2) * math.pi, s)


# -- deck transformations ------------------------------------------------

def deck_translate(p: LiftPoint, a: int, b: int) -> LiftPoint:
    """Lattice translation (u0, u1) -> (u0 + a*i*pi, u1 + b*pi), s fixed.

    It is a deck map of lifted_exp iff a = b (mod 2); with odd parity it
    flips the sign of the image instead.
    """
    return LiftPoint(p.u0 + a * _IPI, p.u1 + b * math.pi, p.s)


def is_exp_deck(a: int, b: int) -> bool:
    """Whether the (a, b) translation fixes the fibers of lifted_exp."""
    return (a - b) % 2 == 0


def require_exp_deck(a: int, b: int) -> None:
    """Assert the parity condition a = b (mod 2); raise NotDeck otherwise."""
    if not is_exp_deck(a, b):
        raise NotDeck(f"translation ({a}, {b}) has odd parity and flips "
                      "the sign of the covering image")


def branch_translate(p: LiftPoint, branch: BranchIndex) -> LiftPoint:
    """Action of the monodromy index (h1, h2): translation by (h1+h2, h1-h2)."""
    return deck_translate(p, *branch.lattice())


def sheet_swap(p: LiftPoint) -> LiftPoint:
    """The involution ((u0,u1),s) -> ((u0,-u1),-s) generating the decks of project."""
    return LiftPoint(p.u0, -p.u1, -p.s)


def scalar_deck(z: CQuaternion, k: int = 1) -> CQuaternion:
    """Deck map of cq_exp: shift the scalar slot by 2*pi*i*k."""
    return CQuaternion(z.z0 + 2 * k * _IPI, z.z1, z.z2, z.z3)


# -- sampled paths and lifting ---------------------------------------------

@value_type
class PathSample(NamedTuple):
    """One sample (t, w0, w1, s) of a path: an immutable tuple, equal only
    to another PathSample with equal entries."""

    t: float
    w0: complex
    w1: complex
    s: CQuaternion


@dataclass(frozen=True)
class SampledPath:
    """Polyline in (C^2 \\ W) x S, sampled at increasing times in [0, 1]."""

    samples: tuple[PathSample, ...]

    def __post_init__(self):
        if len(self.samples) < 2:
            raise ValueError("a sampled path needs at least two samples")

    @staticmethod
    def from_points(points) -> "SampledPath":
        """Build from an iterable of (t, w0, w1, s) tuples."""
        return SampledPath(tuple(PathSample(t, w0, w1, s) for t, w0, w1, s in points))

    def start(self) -> PathSample:
        return self.samples[0]

    def end(self) -> PathSample:
        return self.samples[-1]

    def is_loop(self) -> bool:
        a, b = self.samples[0], self.samples[-1]
        return (abs(a.w0 - b.w0) <= TAU_PATH and abs(a.w1 - b.w1) <= TAU_PATH
                and (a.s - b.s).norm() <= TAU_PATH)


def concatenate(first: SampledPath, second: SampledPath) -> SampledPath:
    """Join two paths with second.start == first.end, reparametrized to [0, 1]."""
    a, b = first.end(), second.start()
    if (abs(a.w0 - b.w0) > TAU_PATH or abs(a.w1 - b.w1) > TAU_PATH
            or (a.s - b.s).norm() > TAU_PATH):
        raise ValueError("paths do not meet: end of first != start of second")
    samples = [PathSample(0.5 * p.t, p.w0, p.w1, p.s) for p in first.samples]
    samples += [PathSample(0.5 + 0.5 * p.t, p.w0, p.w1, p.s)
                for p in second.samples[1:]]
    return SampledPath(tuple(samples))


def _mid_sample(a: PathSample, b: PathSample) -> PathSample:
    """Midpoint in (t, w0, w1); s renormalized back to S."""
    half = lambda x, y: x + (y - x) * 0.5
    sv = half(a.s, b.s)
    if abs(sv.vec_norm2()) <= TAU_FIBER:
        raise PathTooWild("s-interpolation crossed n(s) = 0; refine the input path")
    return PathSample(half(a.t, b.t), half(a.w0, b.w0), half(a.w1, b.w1),
                      unit_imaginary(sv))


def lift_path(path: SampledPath, start: LiftPoint) -> list[LiftPoint]:
    """Lift a path through lifted_exp, one LiftPoint per input sample.

    ``start`` must lie on the fiber over path.start().  The lift continues
    the logarithms of alpha = w0 + i w1 and beta = w0 - i w1 by
    ``log_step``, halving a segment where either refuses (PathTooWild at
    the depth limit); the s component is carried along unchanged by the
    covering and follows the input samples.
    """
    p0 = path.start()
    img = lifted_exp(start)
    scale = max(1.0, abs(p0.w0), abs(p0.w1))
    if (abs(img.u0 - p0.w0) > TAU_PATH * scale or abs(img.u1 - p0.w1) > TAU_PATH * scale
            or (start.s - p0.s).norm() > TAU_PATH):
        raise BadStart("start point is not on the fiber over path(0)")

    def step(a: PathSample, pair: tuple[complex, complex], b: PathSample):
        t, w0, w1, _ = b
        alpha = w0 + 1j * w1
        beta = w0 - 1j * w1
        if abs(alpha) <= TAU_FIBER or abs(beta) <= TAU_FIBER:
            raise OnW(f"path sample on W at t = {t}")
        la = log_step(alpha, pair[0])
        lb = log_step(beta, pair[1])
        return PathTooWild if la is None or lb is None else (la, lb)

    pair = (start.u0 + 1j * start.u1, start.u0 - 1j * start.u1)
    lifted = [start]
    samples = path.samples
    for a, b in zip(samples, samples[1:]):
        la, lb = pair = continue_along(step, _mid_sample, a, pair, b)
        # from_log_pair's arithmetic
        lifted.append(LiftPoint((la + lb) / 2, (la - lb) / 2j, b.s))
    return lifted


def loop_monodromy(loop: SampledPath, start: LiftPoint) -> BranchIndex:
    """Monodromy index of a loop: lift(1) = branch_translate(lift(0), result).

    Equals (winding number of alpha, winding number of beta) around 0.
    """
    if not loop.is_loop():
        raise NotALoop("path endpoints differ; not a loop")
    lifted = lift_path(loop, start)
    du0 = lifted[-1].u0 - lifted[0].u0
    du1 = lifted[-1].u1 - lifted[0].u1
    a = du0 / _IPI
    b = du1 / math.pi
    h1 = (a + b) / 2
    h2 = (a - b) / 2
    result = []
    for h in (h1, h2):
        n = round(h.real)
        if abs(h.imag) > TAU_MONODROMY or abs(h.real - n) > TAU_MONODROMY:
            raise NotALoop(f"non-integral monodromy {h1}, {h2}")
        result.append(n)
    return BranchIndex(result[0], result[1])


# -- monodromy generators of the n-th root cover -----------------------------

@dataclass(frozen=True)
class RootDeckGenerator:
    """Generator of the deck group of the degree-n^2 root cover.

    ``branch`` is the generating monodromy class mod n; the action on the
    base coordinates (w0, w1) is w -> xi * R_eta(w) with R_eta the rotation
    by the complex unit eta acting linearly on the pair.
    """

    branch: BranchIndex
    xi: complex
    eta: complex


def root_monodromy_generators(n: int) -> list[RootDeckGenerator]:
    """Deck generators of the n-th root covering.

    For odd n, the classes [(1,1)] and [(1,-1)] with xi, eta primitive
    n-th roots of unity; for even n additionally [(1,0)] with primitive
    2n-th roots.  xi = e^{(h1+h2) i pi / n}, eta = e^{(h1-h2) i pi / n}.
    """
    if n < 2:
        raise BadOrder(f"root order must be >= 2, got {n}")
    classes = [BranchIndex(1, 1), BranchIndex(1, -1)]
    if n % 2 == 0:
        classes.append(BranchIndex(1, 0))
    gens = []
    for cls in classes:
        a, b = cls.lattice()
        gens.append(RootDeckGenerator(cls,
                                      cmath.exp(1j * math.pi * a / n),
                                      cmath.exp(1j * math.pi * b / n)))
    return gens


def root_deck_action(gen: RootDeckGenerator, w0: complex, w1: complex) -> tuple[complex, complex]:
    """Apply xi * R_eta to the pair (w0, w1)."""
    c, s = gen.eta.real, gen.eta.imag
    return gen.xi * (c * w0 - s * w1), gen.xi * (s * w0 + c * w1)
