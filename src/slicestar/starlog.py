"""*-exponential, the two-parameter family of *-logarithms, and *-roots.

exp_*(f) is induced by z -> cq_exp(F(z)) and equals the *-power series
sum f^{*n}/n!.  When F avoids the loci V_-1 and V_inf (equivalently
f^s != 0 != f_v^s), the exponential of the algebra is a covering map with
Z^2 monodromy, so f has a two-parameter family of *-logarithms indexed by
(h1, h2): writing the fiber coordinates alpha = F0 + i m and
beta = F0 - i m with m a continuous branch of sqrt(f_v^s), continue
la = log(alpha) and lb = log(beta) from their principal values at the
anchor (the (0, 0) lift); the branch (h1, h2) is its deck translation
(la, lb) -> (la + 2 pi i h1, lb + 2 pi i h2), applied at the read, and
induces

    G = u0 + (u1/m) * vec F,   u0 = (la + lb)/2,  u1 = (la - lb)/(2i).

This is the lift of z -> F(z) through the covering exponential:
``continued_log`` carries L = log f_v^s, m = +-sqrt(f_v^s) read off L,
and la, lb over one grid, each step by ``continuation.log_step``, so
every value is exact at its own point and the walk depends on f and the
anchor alone, never on (h1, h2).  ``star_log`` seeds it with the (0, 0)
lift and reads the (h1, h2) translation; ``bch.bch_combine`` runs it on
the product of the exponentials of two vector parts.

On a domain meeting R the anchor is real, forcing h2 = -h1 (one-parameter
family, real values on R).  On every domain the lift is built where
Im z >= 0 and mirrored below R by G(z) = bar(G(conj z)),
which makes the result a stem function by construction.  Any two branches
differ by the translation

    g  ->  g + [(h1+h2) * (q_v/|q_v|) + (h1-h2) * g_v/sqrt(g_v^s)] * pi,

and the n-th *-root is exp_*(log_*(f)/n).  exp_*(G/n) lies over the
fiber pair (e^{la/n}, e^{lb/n}) of the translated pair, so ``star_root``
reads

    R = (e^{la/n} + e^{lb/n})/2 + (e^{la/n} - e^{lb/n})/(2i m) * vec F

from the (0, 0) walk state, translated by 2 pi i (h1 mod n) and
2 pi i (h2 mod n), by the map that reads G from (la, lb): two scalar
exponentials per point, no G and no exponential of the algebra.
Branches congruent mod n give the same root bit for bit, and its
accuracy does not depend on |h1|, |h2|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .continuation import BranchContinuation, ZeroCount, locus_scan, log_sqrt, log_step
from .cquaternion import TAU_CLASSIFY, CQuaternion, require_order
from .errors import (BranchIndexTooLarge, BranchObstruction, HitsVLocus, JNotDefined,
                     OutOfDomain, PathTooWild)
from .quaternion import _new
from .slicefn import ContinuedFunction, Domain, SliceFunction, derive

#: largest |h1|, |h2| of a *-logarithm branch.  Adding 2 pi i h to a
#: principal logarithm costs about |h| ulps of it: the round trip
#: exp_*(log_*(f)) = f measured 2.4e-11 at |h| = 1e4, 3.3e-9 at 1e6 and
#: 2.7e-8 at 1e7, so this bound keeps every accepted branch within the
#: suites' 1e-8 with a margin of three.  The accuracy reason holds for
#: logs only: a root reads h mod n, so no root loses digits to |h|; roots
#: keep the refusal so that one rule governs every LogBranch.
MAX_BRANCH_INDEX = 10 ** 6


@dataclass(frozen=True)
class LogBranch:
    """Branch selector for *-logarithms: monodromy index plus anchor basepoint."""

    h1: int
    h2: int
    basepoint: complex


def _require_index(what: str, h1: int, h2: int) -> None:
    """ValueError unless h1 and h2 are ints (a bool or a float that happens
    to be whole is not one); BranchIndexTooLarge when |h1| or |h2| exceeds
    MAX_BRANCH_INDEX."""
    for h in (h1, h2):
        if not isinstance(h, int) or isinstance(h, bool):
            raise ValueError(f"{what} must be a pair of integers, got ({h1!r}, {h2!r})")
    if max(abs(h1), abs(h2)) > MAX_BRANCH_INDEX:
        raise BranchIndexTooLarge(
            f"{what} ({h1}, {h2}) exceeds {MAX_BRANCH_INDEX} in "
            "modulus; floats cannot keep exp_*(log_*(f)) = f within 1e-8 there")


def _anchor(domain: Domain, basepoint: complex) -> complex:
    """Continuation anchor: for domains meeting R the real point nearest
    the basepoint, kept a tenth of the radius clear of the boundary,
    otherwise the basepoint reflected into the upper component."""
    if not domain.contains(basepoint):
        raise OutOfDomain(f"basepoint {basepoint} outside the domain")
    if domain.real_intersecting:
        c = domain.center.real
        pull = 0.9 * domain.radius
        return complex(min(max(basepoint.real, c - pull), c + pull), 0.0)
    return basepoint if basepoint.imag > 0 else basepoint.conjugate()


def star_exp(f: SliceFunction) -> SliceFunction:
    """exp_*(f), induced by the algebra exponential of the stem."""
    return derive("exp", f.domain, f)


def _require_root(vsym: ZeroCount) -> None:
    """BranchObstruction unless f_v^s has no zero in the disk and keeps
    above 1e-12 of its largest modulus on the boundary circle."""
    if vsym.zeros != 0 or not vsym.min_abs > 1e-12 * vsym.max_abs:
        n = "an unresolved number of" if vsym.zeros is None else vsym.zeros
        raise BranchObstruction(
            f"f_v^s has {n} zero(s) in the disk, |f_v^s| in "
            f"[{vsym.min_abs:.3e}, {vsym.max_abs:.3e}] on its boundary; "
            "no continuous square root")


def sqrt_vsym(f: SliceFunction, basepoint: complex, sign: int = +1) -> ContinuedFunction:
    """Continuous branch of sqrt(f_v^s), slice preserving; its
    ``with_inputs_at(zs)`` is the list of 1-tuples of its stem at each z.

    The branch takes the value sign * principal_sqrt(f_v^s(basepoint)) at
    the basepoint (moved to R on domains meeting R, reflected to the upper
    component off R); below R it is filled in by conjugate symmetry.  Its
    state is (L, m): L = log f_v^s, a turn on for sign -1, m = ``log_sqrt``.
    Requires f_v^s to avoid 0 on the domain: its zeros are counted
    exactly on the boundary circle (``locus_scan``).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    dom = f.domain
    anchor = _anchor(dom, basepoint)
    stem = f._stem

    def value(z: complex) -> complex:
        return stem(z).vec_norm2()

    _require_root(*locus_scan(lambda z: (value(z),), dom.center, dom.radius))
    w = value(anchor)
    big_l = cmath.log(w) + (1 - sign) * 1j * math.pi
    seed = big_l, log_sqrt(w, big_l)

    def stepper(z0: complex, v0: tuple, z1: complex):
        w = value(z1)
        big_l = log_step(w, v0[0])
        return BranchObstruction if big_l is None else (big_l, log_sqrt(w, big_l))

    def read(z: complex, state: tuple) -> tuple[CQuaternion]:
        return (_new(CQuaternion, (state[1], 0j, 0j, 0j)),)

    cont = BranchContinuation(anchor, seed, stepper, dom)
    return ContinuedFunction.from_branch(read, cont)


def _fiber_pair(f0: complex, m: complex, z: complex) -> tuple[complex, complex]:
    """The fiber coordinates alpha = F0 + i m, beta = F0 - i m at z."""
    alpha = f0 + 1j * m
    beta = f0 - 1j * m
    if abs(alpha) < 1e-13 or abs(beta) < 1e-13:
        raise HitsVLocus(f"f^s vanishes near z = {z}")
    return alpha, beta


def _pair_read(z: complex, m: complex, a: complex, b: complex, pz: tuple) -> tuple:
    """(s + (a + b)/2 + (a - b)/(2i m) * vec F, *inputs) for the parts
    pz = (s, F, *inputs) at z, s = None adding nothing: the map that reads
    a *-logarithm from (a, b) = (la, lb) and a *-root from (e^{la/n},
    e^{lb/n}).  HitsVLocus where |m^2| = |F_v^s| <= TAU_CLASSIFY: there
    the vector part is not recoverable."""
    if abs(m * m) <= TAU_CLASSIFY:
        raise HitsVLocus(f"|F_v^s| = {abs(m * m):.3e} at z = {z}; "
                         "the vector part of the logarithm is not recoverable")
    s = pz[0]
    u0 = (a + b) / 2 if s is None else (a + b) / 2 + s
    c = (a - b) / 2j / m
    _, f1, f2, f3 = pz[1]
    return (_new(CQuaternion, (u0, c * f1, c * f2, c * f3)),) + pz[2:]


def continued_log(parts: Callable[[complex], tuple], anchor: complex,
                  seed: tuple, turns: tuple[int, int], domain: Domain) -> ContinuedFunction:
    """The *-logarithm continued from ``seed`` = (L, m, la, lb,
    parts(anchor)): a logarithm L of F_v^s and its root m =
    ``log_sqrt(F_v^s, L)``, and logarithms of alpha and beta, at the anchor,
    read on the branch ``turns`` = (h1, h2): the walk's lift translated by
    h1 turns of la and h2 turns of lb.

    ``parts(z)`` is (s, F, *inputs): the walk continues the logarithm G of
    F, and ``with_inputs_at(zs)`` of the result is the list of
    (s + G(z), *inputs(z)); s = None adds nothing.  Each step evaluates
    ``parts`` once, continues L by ``log_step`` (BranchObstruction when it
    refuses), reads m from it, continues la and lb by ``log_step``
    (PathTooWild), and keeps the parts for the read: G = u0 + (u1/m) * vec F
    from (la + 2 pi i h1, lb + 2 pi i h2).  A read where |m^2| = |F_v^s| <=
    TAU_CLASSIFY raises HitsVLocus: there u1/m cannot recover the vector
    part.
    """

    # the state (L, m, la, lb, parts) keeps the parts of the last step.  The
    # stepper and the read run once per point: they index instead of
    # star-unpacking and inline vec_norm2 and from_log_pair's arithmetic
    def stepper(z0: complex, v0: tuple, z1: complex):
        pz = parts(z1)
        f0, f1, f2, f3 = pz[1]
        w = f1 * f1 + f2 * f2 + f3 * f3
        big_l = log_step(w, v0[0])
        if big_l is None:
            return BranchObstruction
        m = log_sqrt(w, big_l)
        alpha, beta = _fiber_pair(f0, m, z1)
        la = log_step(alpha, v0[2])
        lb = None if la is None else log_step(beta, v0[3])
        return PathTooWild if lb is None else (big_l, m, la, lb, pz)

    t1, t2 = (2j * math.pi * h for h in turns)

    def read(z: complex, state: tuple) -> tuple:
        return _pair_read(z, state[1], state[2] + t1, state[3] + t2, state[4])

    cont = BranchContinuation(anchor, seed, stepper, domain)
    return ContinuedFunction.from_branch(read, cont)


def star_log(f: SliceFunction, branch: LogBranch) -> ContinuedFunction:
    """The (h1, h2) branch of the *-logarithm: exp_*(result) = f; its
    ``with_inputs_at(zs)`` is the list of (G(z), F(z)) from one walk.

    The walk continues the (0, 0) lift from the anchor, so every branch of
    one f and anchor walks the same states; the read adds 2 pi i h1 and
    2 pi i h2 to la and lb.

    Preconditions: the stem avoids V_-1 and V_inf on the whole domain
    (f^s and f_v^s have no zeros, counted exactly on the boundary circle
    by ``locus_scan``), and on domains meeting R only h2 = -h1 is
    admissible.  Indices that are not ints (or are bools) raise ValueError;
    indices beyond MAX_BRANCH_INDEX are refused: floats cannot keep those
    branches accurate.
    """
    dom = f.domain
    anchor = _anchor(dom, branch.basepoint)
    if dom.real_intersecting and branch.h1 + branch.h2 != 0:
        raise JNotDefined("on a domain meeting R only branches with h2 = -h1 exist")
    _require_index("branch index", branch.h1, branch.h2)
    stem = f._stem

    def loci(z: complex) -> tuple[complex, complex]:
        fz = stem(z)
        return fz.vec_norm2(), fz.csym()

    # with no zeros inside, the boundary bound holds on the whole disk
    # (minimum modulus principle), so the continuation's read never refuses
    vsym, sym = locus_scan(loci, dom.center, dom.radius)
    if min(vsym.min_abs, sym.min_abs) <= TAU_CLASSIFY:
        raise HitsVLocus("f^s or f_v^s meets the loci on the boundary circle "
                         f"(min |f_v^s| {vsym.min_abs:.3e}, min |f^s| "
                         f"{sym.min_abs:.3e}); no *-logarithm branch")
    _require_root(vsym)
    if sym.zeros != 0:
        n = "an unresolved number of" if sym.zeros is None else sym.zeros
        raise HitsVLocus(f"f^s has {n} zero(s) in the disk; "
                         "no *-logarithm branch")

    def parts(z: complex) -> tuple:
        fz = stem(z)
        return None, fz, fz

    fa = stem(anchor)
    w = fa.vec_norm2()
    m0 = cmath.sqrt(w)
    a0, b0 = _fiber_pair(fa.z0, m0, anchor)
    seed = cmath.log(w), m0, cmath.log(a0), cmath.log(b0), (None, fa, fa)
    return continued_log(parts, anchor, seed, (branch.h1, branch.h2), dom)


def log_translate(g: SliceFunction, h1: int, h2: int) -> SliceFunction:
    """Translate a *-logarithm to another branch:

        g + [(h1+h2) * (q_v/|q_v|) + (h1-h2) * g_v/sqrt(g_v^s)] * pi.

    exp_* of the result equals exp_*(g).  On domains meeting R the
    unit-vector function does not exist, so h1 + h2 must vanish there;
    the square-root branch is anchored at the domain center.  Shifts that
    are not ints, or lie beyond MAX_BRANCH_INDEX, are refused, as
    ``star_log`` refuses them.
    """
    _require_index("translation", h1, h2)
    dom = g.domain
    if h1 == 0 and h2 == 0:
        return g
    t1 = (h1 + h2) * math.pi
    t2 = (h1 - h2) * math.pi
    if dom.real_intersecting and t1 != 0.0:
        raise JNotDefined("on a domain meeting R only translations with h2 = -h1 exist")
    mg = sqrt_vsym(g, dom.center, +1)
    mg_scalar = mg.scalar_value
    stem = g._stem

    def translated(z: complex) -> CQuaternion:
        val = stem(z)
        factor = 1.0 + (t2 / mg_scalar(z) if t2 != 0.0 else 0.0)
        z0 = val.z0
        if t1 != 0.0:
            z0 = z0 + t1 * (1j if z.imag > 0 else -1j)
        _, v1, v2, v3 = val
        return _new(CQuaternion, (z0, factor * v1, factor * v2, factor * v3))

    return SliceFunction(translated, dom)


def star_root(f: SliceFunction, n: int, branch: LogBranch) -> ContinuedFunction:
    """n-th *-root exp_*(log_*(f)/n); its n-th *-power gives back f, and
    its ``with_inputs_at(zs)`` is (R(z), F(z)) from the log's one walk.

    exp_*(G/n) lies over the fiber pair (e^{la/n}, e^{lb/n}) of the
    translated pair, so R = (e^{la/n} + e^{lb/n})/2 + (e^{la/n} -
    e^{lb/n})/(2i m) * vec F is read as the log is read from (la, lb), from
    the (0, 0) walk state translated by 2 pi i (h1 mod n) and
    2 pi i (h2 mod n).  Branch indices congruent mod n (componentwise) give
    the same root bit for bit.  An order that is not a positive int (or is
    a bool) raises ValueError.
    """
    require_order("root order", n)
    walk = star_log(f, branch).branch
    exp = cmath.exp
    t1, t2 = (2j * math.pi * (h % n) for h in (branch.h1, branch.h2))

    def read(z: complex, state: tuple) -> tuple:
        return _pair_read(z, state[1], exp((state[2] + t1) / n),
                          exp((state[3] + t2) / n), state[4])

    return ContinuedFunction.from_branch(read, walk)
