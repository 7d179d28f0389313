"""Seeded property-verification suites behind the ``verify`` CLI verb.

Each suite samples its module's identities with a deterministic generator
(per-property child seeds of the configured seed) and reports one line per
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

SUITE_NAMES = ("algebra", "covering", "log", "bch", "derivative")


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


@dataclass
class PropertyResult:
    name: str
    samples: int
    max_residual: float
    tol: float
    passed: bool

    def to_json(self) -> dict:
        return {"name": self.name, "samples": self.samples,
                "max_residual": self.max_residual, "tol": self.tol,
                "pass": self.passed}


def _rng(cfg: SuiteConfig, index: int):
    return np.random.default_rng([cfg.seed, index])


def _tol(cfg: SuiteConfig, name: str, default: float) -> float:
    return float(cfg.tolerances.get(name, default))


def _result(cfg, name, default_tol, samples, residual) -> PropertyResult:
    tol = _tol(cfg, name, default_tol)
    residual = float(residual)
    return PropertyResult(name, int(samples), residual, tol, bool(residual < tol))


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


#: the properties run_algebra reports, in its order
ALGEBRA_PROPERTIES = (
    "quat_mul_vs_matrix_oracle", "quat_norm_multiplicative",
    "quat_mul_associative", "quat_exp_vs_series", "csym_multiplicative_formula",
    "even_trig_pythagoras", "power_recurrence_vs_repeated_mul", "cq_exp_vs_series",
    "cq_sinc_vs_series", "cq_exp_inverse",
)


def run_algebra(cfg: SuiteConfig) -> list[PropertyResult]:
    out = []
    n = cfg.samples

    rng = _rng(cfg, 0)
    worst = 0.0
    for _ in range(n):
        p, q = rand_quat(rng), rand_quat(rng)
        direct = np.array(quat_mul(p, q).components())
        oracle = left_mul_matrix(p) @ np.array(q.components())
        scale = max(1.0, float(np.linalg.norm(oracle)))
        worst = max(worst, float(np.linalg.norm(direct - oracle)) / scale)
    out.append(_result(cfg, "quat_mul_vs_matrix_oracle", 1e-11, n, worst))

    rng = _rng(cfg, 1)
    worst = 0.0
    for _ in range(n):
        p, q = rand_quat(rng), rand_quat(rng)
        worst = max(worst, abs(quat_mul(p, q).norm() - p.norm() * q.norm())
                    / max(1.0, p.norm() * q.norm()))
    out.append(_result(cfg, "quat_norm_multiplicative", 1e-11, n, worst))

    rng = _rng(cfg, 2)
    worst = 0.0
    for _ in range(n):
        p, q, r = (rand_quat(rng) for _ in range(3))
        a = quat_mul(quat_mul(p, q), r)
        b = quat_mul(p, quat_mul(q, r))
        worst = max(worst, (a - b).norm() / max(1.0, a.norm()))
    out.append(_result(cfg, "quat_mul_associative", 1e-12, n, worst))

    rng = _rng(cfg, 3)
    worst = 0.0
    for _ in range(min(n, 100)):
        q = rand_quat(rng, 1.2)
        worst = max(worst, (quat_exp(q) - quat_exp_series(q)).norm())
    out.append(_result(cfg, "quat_exp_vs_series", 1e-12, min(n, 100), worst))

    rng = _rng(cfg, 4)
    worst = 0.0
    for _ in range(n):
        z, w = rand_cq(rng), rand_cq(rng)
        zw = cq_mul(z, w)
        lhs = zw.csym()
        rhs = z.csym() * w.csym()
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    out.append(_result(cfg, "csym_multiplicative_formula", 1e-11, n, worst))

    rng = _rng(cfg, 5)
    worst = 0.0
    for _ in range(n):
        w = complex(4 * rng.standard_normal(), 4 * rng.standard_normal())
        et = even_trig(w)
        worst = max(worst, abs(et.cosr ** 2 + w * et.sincr ** 2 - 1.0))
    out.append(_result(cfg, "even_trig_pythagoras", 1e-12, n, worst))

    rng = _rng(cfg, 6)
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
    out.append(_result(cfg, "power_recurrence_vs_repeated_mul", 1e-12, count, worst))

    rng = _rng(cfg, 7)
    worst = 0.0
    for _ in range(min(n, 60)):
        z = rand_cq(rng, 0.5)
        worst = max(worst, (cq_exp(z) - cq_exp_series(z)).norm())
    out.append(_result(cfg, "cq_exp_vs_series", 1e-10, min(n, 60), worst))

    rng = _rng(cfg, 8)
    worst = 0.0
    for _ in range(min(n, 60)):
        z = rand_cq(rng, 0.4)
        worst = max(worst, (cq_sinc(z) - cq_sinc_series(z)).norm())
    out.append(_result(cfg, "cq_sinc_vs_series", 1e-12, min(n, 60), worst))

    rng = _rng(cfg, 9)
    worst = 0.0
    for _ in range(n):
        z = rand_cq(rng, 0.8)
        worst = max(worst, (cq_mul(cq_exp(z), cq_exp(-z)) - CQuaternion.one()).norm())
    out.append(_result(cfg, "cq_exp_inverse", 1e-12, n, worst))

    return out


# -- covering ----------------------------------------------------------------


#: the properties run_covering reports, in its order
COVERING_PROPERTIES = (
    "exp_intertwines_projection", "deck_parity_even_fixes_exp",
    "deck_parity_odd_moves_exp", "scalar_deck_fixes_cq_exp",
    "power_of_exp_is_exp_of_multiple", "double_cover_fibers_and_swap",
    "preimage_round_trip", "loop_circle_gives_1_m1", "loop_scalar_gives_1_1",
    "loop_contractible_gives_0_0", "loop_monodromy_additive",
)


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
            pts = []
            for k in range(npts + 1):
                t = 2 * math.pi * k / npts
                alpha = ra * cmath.exp(1j * na * t)
                beta = rb * cmath.exp(1j * nb * t)
                pts.append((k / npts, (alpha + beta) / 2, (alpha - beta) / 2j, s))
            loops.append((SampledPath.from_points(pts), BranchIndex(na, nb)))
        yield loops


def run_covering(cfg: SuiteConfig) -> list[PropertyResult]:
    out = []
    n = cfg.samples

    rng = _rng(cfg, 10)
    worst = 0.0
    for _ in range(n):
        p = LiftPoint(complex(*rng.standard_normal(2)),
                      complex(*rng.standard_normal(2)), _rand_unit(rng))
        worst = max(worst, (cq_exp(project(p)) - project(lifted_exp(p))).norm())
    out.append(_result(cfg, "exp_intertwines_projection", 1e-12, n, worst))

    rng = _rng(cfg, 11)
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
    out.append(_result(cfg, "deck_parity_even_fixes_exp", 1e-12, n, worst_even))
    sep = 0.0 if (best_odd is math.inf or best_odd >= 1e-2) else 1.0
    out.append(_result(cfg, "deck_parity_odd_moves_exp", 0.5, n, sep))

    rng = _rng(cfg, 12)
    worst = 0.0
    for _ in range(n):
        z = rand_cq(rng)
        ez = cq_exp(z)
        worst = max(worst, (cq_exp(scalar_deck(z)) - ez).norm() / max(1.0, ez.norm()))
    out.append(_result(cfg, "scalar_deck_fixes_cq_exp", 1e-12, n, worst))

    rng = _rng(cfg, 13)
    worst = 0.0
    count = 0
    for _ in range(min(n, 100)):
        z = rand_cq(rng, 0.5)
        ez = cq_exp(z)
        for k in range(1, 7):
            ezk = cq_exp(z * k)
            worst = max(worst, (cq_pow(ez, k) - ezk).norm() / max(1.0, ezk.norm()))
            count += 1
    out.append(_result(cfg, "power_of_exp_is_exp_of_multiple", 1e-10, count, worst))

    rng = _rng(cfg, 14)
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
    out.append(_result(cfg, "double_cover_fibers_and_swap", 1e-12, n, worst))

    rng = _rng(cfg, 15)
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
    out.append(_result(cfg, "preimage_round_trip", 1e-12, n, worst))

    # canonical loops and additivity
    s = unit_imaginary(CQuaternion(0j, 1 + 0j, 0j, 0j))
    npts = 48

    def circle_loop():
        return SampledPath.from_points(
            [(k / npts, cmath.cos(2 * math.pi * k / npts),
              cmath.sin(2 * math.pi * k / npts), s) for k in range(npts + 1)])

    def exp_loop():
        return SampledPath.from_points(
            [(k / npts, cmath.exp(2j * math.pi * k / npts), 0j, s)
             for k in range(npts + 1)])

    def small_loop():
        return SampledPath.from_points(
            [(k / npts, 2.0 + 0.3 * cmath.cos(2 * math.pi * k / npts),
              0.3 * cmath.sin(2 * math.pi * k / npts), s) for k in range(npts + 1)])

    cases = [(circle_loop(), BranchIndex(1, -1), "loop_circle_gives_1_m1"),
             (exp_loop(), BranchIndex(1, 1), "loop_scalar_gives_1_1"),
             (small_loop(), BranchIndex(0, 0), "loop_contractible_gives_0_0")]
    for path, expect, name in cases:
        start = lifted_exp_preimage(path.start().w0, path.start().w1, s)
        got = loop_monodromy(path, start)
        residual = abs(got.h1 - expect.h1) + abs(got.h2 - expect.h2)
        out.append(_result(cfg, name, 0.5, 1, float(residual)))

    worst = 0.0
    pairs = min(max(cfg.samples // 10, 4), 20)
    for (p1, h1), (p2, h2) in _additivity_loops(_rng(cfg, 16), pairs, s, npts):
        start1 = lifted_exp_preimage(p1.start().w0, p1.start().w1, s)
        joined = concatenate(p1, p2)
        got = loop_monodromy(joined, start1)
        residual = abs(got.h1 - (h1.h1 + h2.h1)) + abs(got.h2 - (h1.h2 + h2.h2))
        worst = max(worst, float(residual))
    out.append(_result(cfg, "loop_monodromy_additive", 0.5, pairs, worst))

    return out


# -- logarithms ----------------------------------------------------------------


def _log_setup(rng, two_sided: bool):
    dom = Domain(1.5j, 0.8) if two_sided else Domain(0.0, 1.0)
    for _ in range(40):
        f = rand_poly(rng, dom, scale=1.0, deg=2, extra=0.08)
        base = rand_quat(rng, 1.0)
        base = Quaternion(base.q0, *(v + math.copysign(0.6, v) for v in
                                     (base.q1, base.q2, base.q3)))
        f = constant(base, dom) + f * 0.2
        try:
            vals = [f.stem_at(z) for z in dom.mesh_points(60)]
        except Exception:
            continue
        if min(abs(v.csym()) for v in vals) > 0.05 and \
           min(abs(v.vec_norm2()) for v in vals) > 0.05:
            return dom, f
    raise RuntimeError("could not draw a generic polynomial off the loci")


#: the properties run_log reports, in its order
LOG_PROPERTIES = (
    "exp_of_log_round_trip", "branches_differ_by_translation",
    "real_domain_log_real_on_axis", "log_stem_symmetry", "root_power_returns_f",
    "root_branches_congruent_mod_n",
)


def run_log(cfg: SuiteConfig) -> list[PropertyResult]:
    out = []
    funcs = max(2, min(8, cfg.samples // 25))
    pts_per = max(10, min(60, cfg.samples // 4))

    rng = _rng(cfg, 20)
    worst = 0.0
    checked = 0
    for k in range(funcs):
        two_sided = bool(k % 2)
        dom, f = _log_setup(rng, two_sided)
        bp = dom.center + 0.2 if not two_sided else dom.center
        branches = [(0, 0), (1, -1), (-2, 2)] if not two_sided else \
                   [(0, 0), (1, 1), (1, -1)]
        for h1, h2 in branches:
            g = star_log(f, LogBranch(h1, h2, bp))
            eg = star_exp(g)
            for z in dom.sample_points(rng, pts_per):
                r = (eg.stem_at(z) - f.stem_at(z)).norm() \
                    / max(1.0, f.stem_at(z).norm())
                worst = max(worst, r)
                checked += 1
    out.append(_result(cfg, "exp_of_log_round_trip", 1e-8, checked, worst))

    rng = _rng(cfg, 21)
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
        pts = dom.sample_points(rng, pts_per)
        worst_pair = min(max((gh.stem_at(z) - th.stem_at(z)).norm() for z in pts)
                         for th in cands)
        worst = max(worst, worst_pair)
        checked += len(pts)
    out.append(_result(cfg, "branches_differ_by_translation", 1e-8, checked, worst))

    rng = _rng(cfg, 22)
    dom, f = _log_setup(rng, False)
    g = star_log(f, LogBranch(1, -1, dom.center + 0.1))
    worst = 0.0
    reals = [complex(dom.center.real + t * 0.8 * dom.radius, 0.0)
             for t in np.linspace(-1, 1, 21)]
    for x in reals:
        worst = max(worst, g.stem_at(x).imag_part().norm())
    out.append(_result(cfg, "real_domain_log_real_on_axis", 1e-10, len(reals), worst))

    rng = _rng(cfg, 23)
    worst = 0.0
    checked = 0
    for two_sided in (False, True):
        dom, f = _log_setup(rng, two_sided)
        g = star_log(f, LogBranch(1, -1, dom.center if two_sided
                                  else dom.center + 0.15))
        pts = dom.sample_points(rng, 32)
        worst = max(worst, stem_symmetry_defect(g, pts))
        checked += len(pts)
    out.append(_result(cfg, "log_stem_symmetry", 1e-10, checked, worst))

    rng = _rng(cfg, 24)
    worst = 0.0
    checked = 0
    for nroot in (2, 3):
        dom, f = _log_setup(rng, nroot == 3)
        bp = dom.center if nroot == 3 else dom.center + 0.1
        root = star_root(f, nroot, LogBranch(0, 0, bp))
        back = root.star_pow(nroot)
        for z in dom.sample_points(rng, pts_per):
            worst = max(worst, (back.stem_at(z) - f.stem_at(z)).norm()
                        / max(1.0, f.stem_at(z).norm()))
            checked += 1
    out.append(_result(cfg, "root_power_returns_f", 1e-8, checked, worst))

    rng = _rng(cfg, 25)
    dom, f = _log_setup(rng, True)
    nroot = 3
    r1 = star_root(f, nroot, LogBranch(1, 0, dom.center))
    r2 = star_root(f, nroot, LogBranch(1 + nroot, nroot, dom.center))
    worst = 0.0
    pts = dom.sample_points(rng, pts_per)
    for z in pts:
        worst = max(worst, (r1.stem_at(z) - r2.stem_at(z)).norm())
    out.append(_result(cfg, "root_branches_congruent_mod_n", 1e-8, len(pts), worst))

    return out


# -- bch -----------------------------------------------------------------------


#: the properties run_bch reports, in its order
BCH_PROPERTIES = (
    "product_vsym_closed_form", "vanishing_partner_kills_vsym",
    "bch_combine_exponential_product", "bch_constant_vs_series_oracle",
)


def run_bch(cfg: SuiteConfig) -> list[PropertyResult]:
    out = []
    rng = _rng(cfg, 30)
    dom = Domain(0.0, 1.0)

    worst = 0.0
    checked = 0
    pairs = max(4, min(20, cfg.samples // 50))
    for _ in range(pairs):
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
    out.append(_result(cfg, "product_vsym_closed_form", 1e-10, checked, worst))

    rng = _rng(cfg, 31)
    dom2 = Domain(1.5j, 0.8)
    f = polynomial([Quaternion(1.0, 2.0, 0, 0), Quaternion(0.15, 0.3, 0, 0)], dom2)
    g = bchmod.vanishing_vsym_partner(f)
    fg_vs = f.star(g).vsym()
    pts = dom2.sample_points(rng, 50)
    worst = max(abs(fg_vs.scalar_value(z)) for z in pts)
    out.append(_result(cfg, "vanishing_partner_kills_vsym", 1e-10, len(pts), worst))

    rng = _rng(cfg, 32)
    worst = 0.0
    built = 0
    checked = 0
    attempts = 0
    while built < max(4, min(20, cfg.samples // 40)) and attempts < 200:
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
    out.append(_result(cfg, "bch_combine_exponential_product", 1e-8, checked, worst))

    rng = _rng(cfg, 33)
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
    out.append(_result(cfg, "bch_constant_vs_series_oracle", 1e-10, trials, worst))

    return out


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


#: the properties run_derivative reports, in its order
DERIVATIVE_PROPERTIES = (
    "closed_form_vs_quadrature", "slice_preserving_reduction",
    "commutator_ladder_vs_closed_form", "degenerate_branch_continuity",
)


def run_derivative(cfg: SuiteConfig) -> list[PropertyResult]:
    out = []
    dom = Domain(0.0, 1.5)

    rng = _rng(cfg, 40)
    worst = 0.0
    checked = 0
    funcs = max(4, min(20, cfg.samples // 20))
    for _ in range(funcs):
        f = rand_poly(rng, dom, scale=0.8, deg=3, extra=0.2)
        ef = star_exp(f)
        for z in dom.sample_points(rng, 10, margin_frac=0.3):
            closed = bchmod.star_exp_derivative_stem(f, z)
            quad = ef.stem_derivative_at(z)
            worst = max(worst, (closed - quad).norm() / max(1.0, quad.norm()))
            checked += 1
    out.append(_result(cfg, "closed_form_vs_quadrature", 1e-8, checked, worst))

    rng = _rng(cfg, 41)
    worst = 0.0
    for _ in range(20):
        scalars = [Quaternion(float(rng.standard_normal()), 0, 0, 0)
                   for _ in range(3)]
        f = polynomial(scalars, dom)
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0, 0.8))
        closed = bchmod.star_exp_derivative_stem(f, z)
        expected = cq_mul(cq_exp(f.stem_at(z)), f.stem_derivative_at(z))
        worst = max(worst, (closed - expected).norm() / max(1.0, expected.norm()))
    out.append(_result(cfg, "slice_preserving_reduction", 1e-12, 20, worst))

    rng = _rng(cfg, 42)
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
    out.append(_result(cfg, "commutator_ladder_vs_closed_form", 1e-9, checked, worst))

    worst = 0.0
    for w0 in (1.0, bchmod.TAU_DEG):
        lo = bchmod._coeff_a(w0 * (1 - 1e-9)) - bchmod._coeff_a(w0 * (1 + 1e-9))
        hi = even_trig(w0 * (1 - 1e-9)).sincr ** 2 - even_trig(w0 * (1 + 1e-9)).sincr ** 2
        worst = max(worst, abs(lo), abs(hi))
    out.append(_result(cfg, "degenerate_branch_continuity", 1e-9, 4, worst))

    return out


#: each suite's runner and the property names it reports
_RUNNERS = {
    "algebra": (run_algebra, ALGEBRA_PROPERTIES),
    "covering": (run_covering, COVERING_PROPERTIES),
    "log": (run_log, LOG_PROPERTIES),
    "bch": (run_bch, BCH_PROPERTIES),
    "derivative": (run_derivative, DERIVATIVE_PROPERTIES),
}


def run_suite(cfg: SuiteConfig) -> dict:
    """Run the configured suite(s); deterministic given the seed.  A
    ValueError, before any suite runs, when a tolerance key names no
    property of the suites asked for."""
    names = SUITE_NAMES if cfg.suite == "all" else (cfg.suite,)
    unknown = sorted(set(cfg.tolerances)
                     - {prop for name in names for prop in _RUNNERS[name][1]})
    if unknown:
        raise ValueError(f"unknown tolerance key(s) {', '.join(unknown)}: no property "
                         f"of suite {cfg.suite!r} has that name")
    results = {name: [r.to_json() for r in _RUNNERS[name][0](cfg)]
               for name in sorted(names)}
    all_pass = all(r["pass"] for rs in results.values() for r in rs)
    return {"suite": cfg.suite, "seed": cfg.seed, "samples": cfg.samples,
            "results": results, "pass": all_pass}
