"""Seeded property-verification suites behind the ``verify`` CLI verb.

One ordered table, ``PROPERTIES``, declares every property once, next to
the loop that measures it: the loop's suite, the index k of its generator
(the child seed [seed, k], or None for a loop that draws nothing), and the
name and default tolerance of each property it reports.  ``run_suite``
checks the ``--tol`` keys against the table before any loop runs, then runs
the loops of the requested suites in table order and reports one row per
property: name, sample count, worst residual, tolerance, pass/fail.  The
same seed always produces a byte-identical report.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import bch as bchmod
from .covering import (BranchIndex, LiftPoint, SampledPath, concatenate,
                       deck_translate, lifted_exp, lifted_exp_preimage,
                       loop_monodromy, project, project_fibers, scalar_deck,
                       sheet_swap, unit_imaginary)
from .cquaternion import CQuaternion, cq_exp, cq_mul, cq_pow, cq_sinc, even_trig
from .quaternion import Quaternion, _new, quat_exp, quat_mul
from .slicefn import Domain, constant, polynomial, stem_symmetry_defect
from .starlog import LogBranch, star_exp, star_log, star_root, log_translate


@dataclass
class SuiteConfig:
    seed: int = 1
    samples: int = 200
    tolerances: dict = field(default_factory=dict)
    suite: str = "all"

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.suite not in SUITE_NAMES + ("all",):
            raise ValueError(f"unknown suite {self.suite!r}; "
                             f"choose from {SUITE_NAMES + ('all',)}")
        for k, v in self.tolerances.items():
            if not v > 0:
                raise ValueError(f"tolerance {k} must be positive, got {v}")


def _rng(cfg: SuiteConfig, index: int):
    return np.random.default_rng([cfg.seed, index])


#: every loop, in report order: (suite, generator index or None,
#: ((property name, default tolerance), ...), loop).  ``loop(rng, samples)``
#: yields (sample count, worst residual) once per property, in order.
PROPERTIES: list = []


def _measures(suite: str, index: int | None, *properties):
    """Append the decorated loop to PROPERTIES."""
    def add(loop):
        PROPERTIES.append((suite, index, properties, loop))
        return loop
    return add


# The draws are Python numbers, not numpy scalars: numpy's complex
# arithmetic differs from CPython's in the last bits, and the reports must
# not depend on it.

def rand_quat(rng, scale=1.0) -> Quaternion:
    return Quaternion(*(scale * rng.standard_normal(4)).tolist())


def rand_cq(rng, scale=1.0) -> CQuaternion:
    v = scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    return CQuaternion(*v.tolist())


def _rand_unit(rng) -> CQuaternion:
    v = rng.standard_normal(3) + 0.3j * rng.standard_normal(3)
    return unit_imaginary(CQuaternion(0j, *v.tolist()))


def rand_poly(rng, dom: Domain, scale=0.6, deg=1, extra=0.15):
    coeffs = [rand_quat(rng, scale)]
    for _ in range(deg):
        coeffs.append(rand_quat(rng, extra * scale))
    return polynomial(coeffs, dom)


def generic_poly(rng, dom: Domain, deg=2, tries=60):
    """Random polynomial whose stem stays clear of V_-1 and V_inf."""
    for _ in range(tries):
        base = rand_quat(rng, 1.0)
        base = Quaternion(base.q0, *(v + math.copysign(0.6, v)
                                     for v in (base.q1, base.q2, base.q3)))
        f = constant(base, dom) + rand_poly(rng, dom, scale=1.0, deg=deg,
                                            extra=0.08) * 0.2
        vals = [f.stem_at(z) for z in dom.mesh_points(80)]
        if min(abs(v.csym()) for v in vals) > 0.05 and \
           min(abs(v.vec_norm2()) for v in vals) > 0.05:
            return f
    raise RuntimeError("no generic polynomial found")


# The series oracles sum on flat components, in the operation order of
# quat_mul and cq_mul, so they equal the kernel-built loops bit for bit.

def quat_exp_series(q: Quaternion, terms: int = 40) -> Quaternion:
    """Truncated series sum q^n / n!, an oracle independent of quat_exp."""
    q0, q1, q2, q3 = q
    a0, a1, a2, a3 = 1.0, 0.0, 0.0, 0.0
    p0, p1, p2, p3 = 1.0, 0.0, 0.0, 0.0
    fact = 1.0
    for n in range(1, terms):
        p0, p1, p2, p3 = (p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
                          p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
                          p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
                          p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0)
        fact *= n
        a0, a1, a2, a3 = a0 + p0 / fact, a1 + p1 / fact, a2 + p2 / fact, a3 + p3 / fact
    return _new(Quaternion, (a0, a1, a2, a3))


def cq_exp_series(z: CQuaternion, terms: int = 60) -> CQuaternion:
    """Truncated series sum z^n / n!, an oracle independent of cq_exp."""
    z0, z1, z2, z3 = z
    a0, a1, a2, a3 = 1 + 0j, 0j, 0j, 0j
    p0, p1, p2, p3 = 1 + 0j, 0j, 0j, 0j
    fact = 1.0
    for n in range(1, terms):
        p0, p1, p2, p3 = (p0 * z0 - p1 * z1 - p2 * z2 - p3 * z3,
                          p0 * z1 + p1 * z0 + p2 * z3 - p3 * z2,
                          p0 * z2 - p1 * z3 + p2 * z0 + p3 * z1,
                          p0 * z3 + p1 * z2 - p2 * z1 + p3 * z0)
        fact *= n
        a0, a1, a2, a3 = a0 + p0 / fact, a1 + p1 / fact, a2 + p2 / fact, a3 + p3 / fact
    return _new(CQuaternion, (a0, a1, a2, a3))


#: the coefficients (-1)^m / (2m+1)! of cq_sinc_series, m = 0 .. 29
_SINC_COEFFS = tuple((-1) ** m / math.factorial(2 * m + 1) for m in range(30))


def cq_sinc_series(z: CQuaternion) -> CQuaternion:
    """Truncated series sum (-1)^m z^m / (2m+1)!, an oracle independent of
    cq_sinc."""
    z0, z1, z2, z3 = z
    a0, a1, a2, a3 = 0j, 0j, 0j, 0j
    p0, p1, p2, p3 = 1 + 0j, 0j, 0j, 0j
    for c in _SINC_COEFFS:
        a0, a1, a2, a3 = a0 + p0 * c, a1 + p1 * c, a2 + p2 * c, a3 + p3 * c
        p0, p1, p2, p3 = (p0 * z0 - p1 * z1 - p2 * z2 - p3 * z3,
                          p0 * z1 + p1 * z0 + p2 * z3 - p3 * z2,
                          p0 * z2 - p1 * z3 + p2 * z0 + p3 * z1,
                          p0 * z3 + p1 * z2 - p2 * z1 + p3 * z0)
    return _new(CQuaternion, (a0, a1, a2, a3))


def left_mul_matrix(p: Quaternion) -> np.ndarray:
    """4x4 real matrix of left multiplication by p."""
    return np.array([
        [p.q0, -p.q1, -p.q2, -p.q3],
        [p.q1, p.q0, -p.q3, p.q2],
        [p.q2, p.q3, p.q0, -p.q1],
        [p.q3, -p.q2, p.q1, p.q0],
    ])


# -- algebra -----------------------------------------------------------------


@_measures("algebra", 0, ("quat_mul_vs_matrix_oracle", 1e-11))
def _(rng, n):
    worst = 0.0
    for _ in range(n):
        p, q = rand_quat(rng), rand_quat(rng)
        direct = np.array(quat_mul(p, q).components())
        oracle = left_mul_matrix(p) @ np.array(q.components())
        scale = max(1.0, float(np.linalg.norm(oracle)))
        worst = max(worst, float(np.linalg.norm(direct - oracle)) / scale)
    yield n, worst


@_measures("algebra", 1, ("quat_norm_multiplicative", 1e-11))
def _(rng, n):
    worst = 0.0
    for _ in range(n):
        p, q = rand_quat(rng), rand_quat(rng)
        worst = max(worst, abs(quat_mul(p, q).norm() - p.norm() * q.norm())
                    / max(1.0, p.norm() * q.norm()))
    yield n, worst


@_measures("algebra", 2, ("quat_mul_associative", 1e-12))
def _(rng, n):
    worst = 0.0
    for _ in range(n):
        p, q, r = (rand_quat(rng) for _ in range(3))
        a = quat_mul(quat_mul(p, q), r)
        b = quat_mul(p, quat_mul(q, r))
        worst = max(worst, (a - b).norm() / max(1.0, a.norm()))
    yield n, worst


@_measures("algebra", 3, ("quat_exp_vs_series", 1e-12))
def _(rng, n):
    worst = 0.0
    for _ in range(min(n, 100)):
        q = rand_quat(rng, 1.2)
        worst = max(worst, (quat_exp(q) - quat_exp_series(q)).norm())
    yield min(n, 100), worst


@_measures("algebra", 4, ("csym_multiplicative_formula", 1e-11))
def _(rng, n):
    worst = 0.0
    for _ in range(n):
        z, w = rand_cq(rng), rand_cq(rng)
        zw = cq_mul(z, w)
        lhs = zw.csym()
        rhs = z.csym() * w.csym()
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    yield n, worst


@_measures("algebra", 5, ("even_trig_pythagoras", 1e-12))
def _(rng, n):
    worst = 0.0
    for _ in range(n):
        w = complex(4 * rng.standard_normal(), 4 * rng.standard_normal())
        et = even_trig(w)
        worst = max(worst, abs(et.cosr ** 2 + w * et.sincr ** 2 - 1.0))
    yield n, worst


@_measures("algebra", 6, ("power_recurrence_vs_repeated_mul", 1e-12))
def _(rng, n):
    worst = 0.0
    count = 0
    for _ in range(min(n, 80)):
        z = rand_cq(rng, 0.8)
        power = z
        for k in range(2, 7):
            power = cq_mul(power, z)
            worst = max(worst, (cq_pow(z, k) - power).norm()
                        / max(1.0, power.norm()))
            count += 1
    yield count, worst


@_measures("algebra", 7, ("cq_exp_vs_series", 1e-10))
def _(rng, n):
    worst = 0.0
    for _ in range(min(n, 60)):
        z = rand_cq(rng, 0.5)
        worst = max(worst, (cq_exp(z) - cq_exp_series(z)).norm())
    yield min(n, 60), worst


@_measures("algebra", 8, ("cq_sinc_vs_series", 1e-12))
def _(rng, n):
    worst = 0.0
    for _ in range(min(n, 60)):
        z = rand_cq(rng, 0.4)
        worst = max(worst, (cq_sinc(z) - cq_sinc_series(z)).norm())
    yield min(n, 60), worst


@_measures("algebra", 9, ("cq_exp_inverse", 1e-12))
def _(rng, n):
    worst = 0.0
    for _ in range(n):
        z = rand_cq(rng, 0.8)
        worst = max(worst, (cq_mul(cq_exp(z), cq_exp(-z)) - CQuaternion.one()).norm())
    yield n, worst


# -- covering ----------------------------------------------------------------


@_measures("covering", 10, ("exp_intertwines_projection", 1e-12))
def _(rng, n):
    worst = 0.0
    for _ in range(n):
        p = LiftPoint(complex(*rng.standard_normal(2)),
                      complex(*rng.standard_normal(2)), _rand_unit(rng))
        worst = max(worst, (cq_exp(project(p)) - project(lifted_exp(p))).norm())
    yield n, worst


@_measures("covering", 11, ("deck_parity_even_fixes_exp", 1e-12),
           ("deck_parity_odd_moves_exp", 100.0))
def _(rng, n):
    worst_even = 0.0
    best_odd = math.inf
    for _ in range(n):
        p = LiftPoint(complex(rng.uniform(-1, 1), rng.uniform(-2, 2)),
                      complex(*rng.standard_normal(2)), _rand_unit(rng))
        a, b = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
        img = lifted_exp(p)
        moved = lifted_exp(deck_translate(p, a, b))
        delta = abs(moved.u0 - img.u0) + abs(moved.u1 - img.u1)
        if (a - b) % 2 == 0:
            worst_even = max(worst_even, delta)
        else:
            best_odd = min(best_odd, delta)
    yield n, worst_even
    # 1 / the smallest move of exp_* by an odd translation (0 with none
    # drawn, inf when one fixes it): the default tolerance asks for 1e-2
    yield n, 1 / best_odd if best_odd else math.inf


@_measures("covering", 12, ("scalar_deck_fixes_cq_exp", 1e-12))
def _(rng, n):
    worst = 0.0
    for _ in range(n):
        z = rand_cq(rng)
        ez = cq_exp(z)
        worst = max(worst, (cq_exp(scalar_deck(z)) - ez).norm() / max(1.0, ez.norm()))
    yield n, worst


@_measures("covering", 13, ("power_of_exp_is_exp_of_multiple", 1e-10))
def _(rng, n):
    worst = 0.0
    count = 0
    for _ in range(min(n, 100)):
        z = rand_cq(rng, 0.5)
        ez = cq_exp(z)
        for k in range(1, 7):
            ezk = cq_exp(z * k)
            worst = max(worst, (cq_pow(ez, k) - ezk).norm() / max(1.0, ezk.norm()))
            count += 1
    yield count, worst


@_measures("covering", 14, ("double_cover_fibers_and_swap", 1e-12))
def _(rng, n):
    worst = 0.0
    for _ in range(n):
        z = rand_cq(rng)
        if abs(z.vec_norm2()) < 1e-3:
            continue
        f1, f2 = project_fibers(z)
        worst = max(worst, (project(f1) - z).norm(), (project(f2) - z).norm())
        sw = sheet_swap(f1)
        worst = max(worst, abs(sw.u0 - f2.u0), abs(sw.u1 - f2.u1),
                    (sw.s - f2.s).norm())
    yield n, worst


@_measures("covering", 15, ("preimage_round_trip", 1e-12))
def _(rng, n):
    worst = 0.0
    for _ in range(n):
        w0, w1 = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        if abs(w0 + 1j * w1) < 1e-3 or abs(w0 - 1j * w1) < 1e-3:
            continue
        h = BranchIndex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        s = _rand_unit(rng)
        p = lifted_exp_preimage(w0, w1, s, h)
        img = lifted_exp(p)
        worst = max(worst, abs(img.u0 - w0), abs(img.u1 - w1))
    yield n, worst


def _loop(point, s: CQuaternion, npts: int) -> SampledPath:
    """The closed path t -> (*point(2 pi t), s), sampled at t = k / npts."""
    return SampledPath.from_points(
        [(k / npts, *point(2 * math.pi * k / npts), s) for k in range(npts + 1)])


def _additivity_loops(rng, pairs: int, s: CQuaternion, npts: int):
    """``pairs`` pairs of loops (alpha, beta) = (ra e^{i na t}, rb e^{i nb t}),
    each with its winding numbers BranchIndex(na, nb); the two loops of a
    pair share the base point (alpha, beta) = (ra, rb).  ``rng.uniform``
    returns Python floats, so every point holds Python numbers."""
    for _ in range(pairs):
        ra, rb = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        loops = []
        for _ in range(2):
            na, nb = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))

            def point(t):
                alpha = ra * cmath.exp(1j * na * t)
                beta = rb * cmath.exp(1j * nb * t)
                return (alpha + beta) / 2, (alpha - beta) / 2j
            loops.append((_loop(point, s, npts), BranchIndex(na, nb)))
        yield loops


@_measures("covering", 16, ("loop_circle_gives_1_m1", 0.5),
           ("loop_scalar_gives_1_1", 0.5), ("loop_contractible_gives_0_0", 0.5),
           ("loop_monodromy_additive", 0.5))
def _(rng, n):
    s = unit_imaginary(CQuaternion(0j, 1 + 0j, 0j, 0j))
    npts = 48
    for point, expect in (
            (lambda t: (cmath.cos(t), cmath.sin(t)), BranchIndex(1, -1)),
            (lambda t: (cmath.exp(1j * t), 0j), BranchIndex(1, 1)),
            (lambda t: (2.0 + 0.3 * cmath.cos(t), 0.3 * cmath.sin(t)), BranchIndex(0, 0))):
        path = _loop(point, s, npts)
        start = lifted_exp_preimage(path.start().w0, path.start().w1, s)
        got = loop_monodromy(path, start)
        yield 1, abs(got.h1 - expect.h1) + abs(got.h2 - expect.h2)

    worst = 0.0
    pairs = min(max(n // 10, 4), 20)
    for (p1, h1), (p2, h2) in _additivity_loops(rng, pairs, s, npts):
        start1 = lifted_exp_preimage(p1.start().w0, p1.start().w1, s)
        got = loop_monodromy(concatenate(p1, p2), start1)
        worst = max(worst, abs(got.h1 - (h1.h1 + h2.h1)) + abs(got.h2 - (h1.h2 + h2.h2)))
    yield pairs, worst


# -- logarithms ----------------------------------------------------------------


def _log_setup(rng, two_sided: bool):
    dom = Domain(1.5j, 0.8) if two_sided else Domain(0.0, 1.0)
    return dom, generic_poly(rng, dom)


def _log_points(n: int) -> int:
    """The sample points per function of a log loop of n samples."""
    return max(10, min(60, n // 4))


@_measures("log", 20, ("exp_of_log_round_trip", 1e-8))
def _(rng, n):
    worst = 0.0
    checked = 0
    for k in range(max(2, min(8, n // 25))):
        two_sided = bool(k % 2)
        dom, f = _log_setup(rng, two_sided)
        bp = dom.center + 0.2 if not two_sided else dom.center
        branches = [(0, 0), (1, -1), (-2, 2)] if not two_sided else \
                   [(0, 0), (1, 1), (1, -1)]
        for h1, h2 in branches:
            g = star_log(f, LogBranch(h1, h2, bp))
            eg = star_exp(g)
            for z in dom.sample_points(rng, _log_points(n)):
                r = (eg.stem_at(z) - f.stem_at(z)).norm() \
                    / max(1.0, f.stem_at(z).norm())
                worst = max(worst, r)
                checked += 1
    yield checked, worst


@_measures("log", 21, ("branches_differ_by_translation", 1e-8))
def _(rng, n):
    dom, f = _log_setup(rng, True)
    bp = dom.center
    g0 = star_log(f, LogBranch(0, 0, bp))
    worst = 0.0
    checked = 0
    for h1, h2 in ((1, 0), (0, 1), (1, -1), (2, 1)):
        gh = star_log(f, LogBranch(h1, h2, bp))
        # the translated family is the same for either orientation of
        # sqrt(g_v^s); swapping (h1, h2) realizes the other orientation
        cands = [log_translate(g0, h1, h2), log_translate(g0, h2, h1)]
        pts = dom.sample_points(rng, _log_points(n))
        worst_pair = min(max((gh.stem_at(z) - th.stem_at(z)).norm() for z in pts)
                         for th in cands)
        worst = max(worst, worst_pair)
        checked += len(pts)
    yield checked, worst


@_measures("log", 22, ("real_domain_log_real_on_axis", 1e-10))
def _(rng, n):
    dom, f = _log_setup(rng, False)
    g = star_log(f, LogBranch(1, -1, dom.center + 0.1))
    reals = [complex(dom.center.real + t * 0.8 * dom.radius, 0.0)
             for t in np.linspace(-1, 1, 21)]
    yield len(reals), max(g.stem_at(x).imag_part().norm() for x in reals)


@_measures("log", 23, ("log_stem_symmetry", 1e-10))
def _(rng, n):
    worst = 0.0
    checked = 0
    for two_sided in (False, True):
        dom, f = _log_setup(rng, two_sided)
        g = star_log(f, LogBranch(1, -1, dom.center if two_sided
                                  else dom.center + 0.15))
        pts = dom.sample_points(rng, 32)
        worst = max(worst, stem_symmetry_defect(g, pts))
        checked += len(pts)
    yield checked, worst


@_measures("log", 24, ("root_power_returns_f", 1e-8))
def _(rng, n):
    worst = 0.0
    checked = 0
    for nroot in (2, 3):
        dom, f = _log_setup(rng, nroot == 3)
        bp = dom.center if nroot == 3 else dom.center + 0.1
        root = star_root(f, nroot, LogBranch(0, 0, bp))
        back = root.star_pow(nroot)
        for z in dom.sample_points(rng, _log_points(n)):
            worst = max(worst, (back.stem_at(z) - f.stem_at(z)).norm()
                        / max(1.0, f.stem_at(z).norm()))
            checked += 1
    yield checked, worst


@_measures("log", 25, ("root_branches_congruent_mod_n", 1e-8))
def _(rng, n):
    dom, f = _log_setup(rng, True)
    nroot = 3
    r1 = star_root(f, nroot, LogBranch(1, 0, dom.center))
    r2 = star_root(f, nroot, LogBranch(1 + nroot, nroot, dom.center))
    pts = dom.sample_points(rng, _log_points(n))
    yield len(pts), max((r1.stem_at(z) - r2.stem_at(z)).norm() for z in pts)


# -- bch -----------------------------------------------------------------------


@_measures("bch", 30, ("product_vsym_closed_form", 1e-10))
def _(rng, n):
    dom = Domain(0.0, 1.0)
    worst = 0.0
    checked = 0
    for _ in range(max(4, min(20, n // 50))):
        f = rand_poly(rng, dom, scale=0.7, deg=1)
        g = rand_poly(rng, dom, scale=0.7, deg=1)
        fg_vs = f.star(g).vsym()
        for z in dom.sample_points(rng, 50):
            q = Quaternion(z.real, abs(z.imag), 0.0, 0.0)
            zq = f.slice_point(q)
            if abs(f.stem_at(zq).vec_norm2()) < 1e-6:
                continue
            lhs = bchmod.product_vsym(f, g, q)
            rhs = fg_vs.scalar_value(zq)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
            checked += 1
    yield checked, worst


@_measures("bch", 31, ("vanishing_partner_kills_vsym", 1e-10))
def _(rng, n):
    dom = Domain(1.5j, 0.8)
    f = polynomial([Quaternion(1.0, 2.0, 0, 0), Quaternion(0.15, 0.3, 0, 0)], dom)
    fg_vs = f.star(bchmod.vanishing_vsym_partner(f)).vsym()
    pts = dom.sample_points(rng, 50)
    yield len(pts), max(abs(fg_vs.scalar_value(z)) for z in pts)


@_measures("bch", 32, ("bch_combine_exponential_product", 1e-8))
def _(rng, n):
    dom = Domain(0.0, 1.0)
    worst = 0.0
    built = 0
    checked = 0
    attempts = 0
    while built < max(4, min(20, n // 40)) and attempts < 200:
        attempts += 1
        f = rand_poly(rng, dom, scale=0.6, deg=1)
        g = rand_poly(rng, dom, scale=0.6, deg=1)
        rep = bchmod.bch_condition(f, g)
        if not rep.admissible or rep.commuting:
            continue
        built += 1
        h = bchmod.bch_combine(f, g, report=rep)
        ef, eg, eh = star_exp(f), star_exp(g), star_exp(h)
        for z in dom.sample_points(rng, 32):
            lhs = cq_mul(ef.stem_at(z), eg.stem_at(z))
            worst = max(worst, (lhs - eh.stem_at(z)).norm()
                        / max(1.0, lhs.norm()))
            checked += 1
    yield checked, worst


@_measures("bch", 33, ("bch_constant_vs_series_oracle", 1e-10))
def _(rng, n):
    dom = Domain(0.0, 1.0)
    worst = 0.0
    trials = 0
    attempts = 0
    while trials < 12 and attempts < 200:
        attempts += 1
        p = rand_quat(rng, 0.6)
        q = rand_quat(rng, 0.6)
        f = constant(p, dom)
        g = constant(q, dom)
        rep = bchmod.bch_condition(f, g)
        if not rep.admissible or rep.commuting:
            continue
        trials += 1
        h = bchmod.bch_combine(f, g, report=rep)
        hq = h(Quaternion(0, 0, 0, 0))
        oracle = quat_mul(quat_exp_series(p), quat_exp_series(q))
        worst = max(worst, (quat_exp(hq) - oracle).norm()
                    / max(1.0, oracle.norm()))
    yield trials, worst


# -- derivative ------------------------------------------------------------------


def _ladder_bracket(fz: CQuaternion, dz: CQuaternion, terms: int = 34) -> CQuaternion:
    """Partial sums of dX + sum_m (-1)^{m-1}/m! [X^{(m-1)}, dX] via nested
    commutators fz*N - N*fz, summed on flat components in cq_mul's order."""
    f0, f1, f2, f3 = fz
    a0, a1, a2, a3 = n0, n1, n2, n3 = dz
    fact = 1.0
    for m in range(2, terms + 1):
        n0, n1, n2, n3 = (
            (f0 * n0 - f1 * n1 - f2 * n2 - f3 * n3) - (n0 * f0 - n1 * f1 - n2 * f2 - n3 * f3),
            (f0 * n1 + f1 * n0 + f2 * n3 - f3 * n2) - (n0 * f1 + n1 * f0 + n2 * f3 - n3 * f2),
            (f0 * n2 - f1 * n3 + f2 * n0 + f3 * n1) - (n0 * f2 - n1 * f3 + n2 * f0 + n3 * f1),
            (f0 * n3 + f1 * n2 - f2 * n1 + f3 * n0) - (n0 * f3 + n1 * f2 - n2 * f1 + n3 * f0))
        fact *= m
        c = (-1) ** (m - 1) / fact
        a0, a1, a2, a3 = a0 + n0 * c, a1 + n1 * c, a2 + n2 * c, a3 + n3 * c
    return _new(CQuaternion, (a0, a1, a2, a3))


@_measures("derivative", 40, ("closed_form_vs_quadrature", 1e-8))
def _(rng, n):
    dom = Domain(0.0, 1.5)
    worst = 0.0
    checked = 0
    for _ in range(max(4, min(20, n // 20))):
        f = rand_poly(rng, dom, scale=0.8, deg=3, extra=0.2)
        ef = star_exp(f)
        for z in dom.sample_points(rng, 10, margin_frac=0.3):
            closed = bchmod.star_exp_derivative_stem(f, z)
            quad = ef.stem_derivative_at(z)
            worst = max(worst, (closed - quad).norm() / max(1.0, quad.norm()))
            checked += 1
    yield checked, worst


@_measures("derivative", 41, ("slice_preserving_reduction", 1e-12))
def _(rng, n):
    dom = Domain(0.0, 1.5)
    worst = 0.0
    for _ in range(20):
        scalars = [Quaternion(float(rng.standard_normal()), 0, 0, 0)
                   for _ in range(3)]
        f = polynomial(scalars, dom)
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0, 0.8))
        closed = bchmod.star_exp_derivative_stem(f, z)
        expected = cq_mul(cq_exp(f.stem_at(z)), f.stem_derivative_at(z))
        worst = max(worst, (closed - expected).norm() / max(1.0, expected.norm()))
    yield 20, worst


@_measures("derivative", 42, ("commutator_ladder_vs_closed_form", 1e-9))
def _(rng, n):
    worst = 0.0
    checked = 0
    for _ in range(40):
        fz = rand_cq(rng, 0.9)
        if abs(fz.vec_norm2()) > 4.0:
            continue
        dz = rand_cq(rng, 0.9)
        closed = bchmod.exp_derivative_bracket(fz, dz)
        ladder = _ladder_bracket(fz, dz)
        worst = max(worst, (closed - ladder).norm() / max(1.0, ladder.norm()))
        checked += 1
    yield checked, worst


@_measures("derivative", None, ("degenerate_branch_continuity", 1e-9))
def _(rng, n):
    worst = 0.0
    # A(w) and B(w) at the series switch |w| = 1 and near w = f_v^s = 0
    for w0 in (1.0, 1e-6):
        lo = bchmod._coeff_a(w0 * (1 - 1e-9)) - bchmod._coeff_a(w0 * (1 + 1e-9))
        hi = even_trig(w0 * (1 - 1e-9)).sincr ** 2 - even_trig(w0 * (1 + 1e-9)).sincr ** 2
        worst = max(worst, abs(lo), abs(hi))
    yield 4, worst


# -- the runner ------------------------------------------------------------------


#: the suites, in table order
SUITE_NAMES = tuple(dict.fromkeys(suite for suite, *_ in PROPERTIES))


def run_suite(cfg: SuiteConfig) -> dict:
    """Run the configured suite(s); deterministic given the seed.  A
    ValueError, before any loop runs, when a tolerance key names no
    property of the suites asked for."""
    loops = [entry for entry in PROPERTIES if cfg.suite in ("all", entry[0])]
    unknown = sorted(set(cfg.tolerances)
                     - {name for _, _, props, _ in loops for name, _ in props})
    if unknown:
        raise ValueError(f"unknown tolerance key(s) {', '.join(unknown)}: no property "
                         f"of suite {cfg.suite!r} has that name")
    results = {}
    for suite, index, props, loop in loops:
        rows = results.setdefault(suite, [])
        rng = None if index is None else _rng(cfg, index)
        for (name, tol), (samples, worst) in zip(props, loop(rng, cfg.samples),
                                                 strict=True):
            tol = float(cfg.tolerances.get(name, tol))
            worst = float(worst)
            rows.append({"name": name, "samples": int(samples), "max_residual": worst,
                         "tol": tol, "pass": worst < tol})
    all_pass = all(r["pass"] for rs in results.values() for r in rs)
    return {"suite": cfg.suite, "seed": cfg.seed, "samples": cfg.samples,
            "results": results, "pass": all_pass}
