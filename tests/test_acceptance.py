"""Acceptance gate: every criterion at its stated tolerance, desk scale.

Each test prints one `ACCEPTANCE <n> <name>: PASS/FAIL` line (visible with
pytest -s) and enforces both the numeric tolerance and a coarse runtime
budget.
"""

import cmath
import math
import time

import numpy as np

from conftest import generic_poly, rand_cq, rand_poly, rand_unit_axis
from slicestar import (BranchIndex, CQuaternion, Domain, I_UNIT, LiftPoint,
                       LogBranch, Quaternion, SampledPath, branch_translate,
                       bch_combine, bch_condition, concatenate, constant,
                       cq_dot, cq_exp, cq_mul, cq_pow, idempotent_plus,
                       lift_path, lifted_exp, lifted_exp_preimage, log_translate,
                       orth_decompose, polynomial, representation_formula,
                       root_deck_action, root_monodromy_generators,
                       slice_preserving, star_exp, star_exp_derivative_stem,
                       star_log, star_root, stem_symmetry_defect,
                       unit_imaginary, unit_vector_part, vanishing_vsym_partner)
from slicestar.errors import JNotDefined
from slicestar.suites import SuiteConfig, run_suite

I_VEC = CQuaternion(0j, 1 + 0j, 0j, 0j)


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def suite_rows(suite, seed, samples):
    """The rows of ``verify --suite SUITE --seed SEED --samples SAMPLES``,
    by property name."""
    rows = run_suite(SuiteConfig(seed=seed, samples=samples, suite=suite))["results"][suite]
    return {r["name"]: r for r in rows}


def test_acceptance_1_algebra_suite():
    t0 = time.perf_counter()
    n = 10_000
    rows = suite_rows("algebra", 101, n)
    worst = max(rows[name]["max_residual"] for name in (
        "quat_mul_vs_matrix_oracle", "quat_norm_multiplicative",
        "csym_multiplicative_formula"))
    dt = time.perf_counter() - t0
    report(1, "algebra", worst < 1e-11 and dt < 5.0,
           f"max_rel={worst:.3e} tol=1e-11, {n} pairs, {dt:.2f}s < 5s")


def test_acceptance_2_covering_suite():
    t0 = time.perf_counter()
    rows = suite_rows("covering", 102, 1000)
    proj = rows["exp_intertwines_projection"]["max_residual"]
    even = rows["deck_parity_even_fixes_exp"]["max_residual"]
    # the suite reports 1 / the smallest move of exp by an odd deck translation
    odd_sep = 1 / rows["deck_parity_odd_moves_exp"]["max_residual"]
    deck = rows["scalar_deck_fixes_cq_exp"]["max_residual"]

    # the suite takes powers of at most 100 draws
    rng = np.random.default_rng(102)
    worst_pow = 0.0
    for _ in range(500):
        z = rand_cq(rng, 0.6)
        for k in range(1, 7):
            rhs = cq_exp(z * k)
            worst_pow = max(worst_pow, (cq_pow(cq_exp(z), k) - rhs).norm()
                            / max(1.0, rhs.norm()))
    dt = time.perf_counter() - t0
    ok = (proj < 1e-12 and even < 1e-12 and odd_sep >= 1e-2
          and deck < 1e-12 and worst_pow < 1e-10 and dt < 5.0)
    report(2, "covering", ok,
           f"proj={proj:.2e}<1e-12 even={even:.2e}<1e-12 "
           f"odd_sep={odd_sep:.2f}>=1e-2 S0={deck:.2e}<1e-12 "
           f"powers={worst_pow:.2e}<1e-10, {dt:.2f}s < 5s")


def _monodromy_with_drift(path, start):
    lifted = lift_path(path, start)
    a = (lifted[-1].u0 - lifted[0].u0) / (1j * math.pi)
    b = (lifted[-1].u1 - lifted[0].u1) / math.pi
    h1 = (a + b) / 2
    h2 = (a - b) / 2
    drift = max(abs(h1 - round(h1.real)), abs(h2 - round(h2.real)))
    return BranchIndex(round(h1.real), round(h2.real)), drift


def test_acceptance_3_monodromy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    s = I_VEC
    n = 64
    drift_max = 0.0

    def loop_points(na, nb, ra=1.0, rb=1.0, wobble=0.0):
        # wobbles vanish at t = 0 and t = 2 pi so loops share the base point
        pts = []
        for k in range(n + 1):
            t = 2 * math.pi * k / n
            alpha = ra * (1 + wobble * math.sin(3 * t)) * cmath.exp(1j * na * t)
            beta = rb * (1 + wobble * math.sin(2 * t)) * cmath.exp(1j * nb * t)
            pts.append((k / n, (alpha + beta) / 2, (alpha - beta) / 2j, s))
        return SampledPath.from_points(pts)

    cases = [(loop_points(1, -1), BranchIndex(1, -1)),
             (loop_points(1, 1), BranchIndex(1, 1))]
    small = SampledPath.from_points(
        [(k / n, 2 + 0.3 * cmath.cos(2 * math.pi * k / n),
          0.3 * cmath.sin(2 * math.pi * k / n), s) for k in range(n + 1)])
    cases.append((small, BranchIndex(0, 0)))
    ok = True
    for path, expect in cases:
        start = lifted_exp_preimage(path.start().w0, path.start().w1, s)
        got, drift = _monodromy_with_drift(path, start)
        drift_max = max(drift_max, drift)
        ok = ok and got == expect

    add_ok = True
    for _ in range(20):
        ra, rb = rng.uniform(0.6, 1.4), rng.uniform(0.6, 1.4)
        na, nb = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
        ma, mb = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
        p1 = loop_points(na, nb, ra, rb, wobble=0.15)
        p2 = loop_points(ma, mb, ra, rb, wobble=0.1)
        start = lifted_exp_preimage(p1.start().w0, p1.start().w1, s)
        got, drift = _monodromy_with_drift(concatenate(p1, p2), start)
        drift_max = max(drift_max, drift)
        add_ok = add_ok and got == BranchIndex(na + ma, nb + mb)
    dt = time.perf_counter() - t0
    ok = ok and add_ok and drift_max < 1e-6 and dt < 10.0
    report(3, "monodromy", ok,
           f"canonical+additivity ok={ok} drift={drift_max:.2e}<1e-6, "
           f"{dt:.2f}s < 10s")


def test_acceptance_4_logarithm_family():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    dom = Domain(1.5j, 0.8)
    branches = [(0, 0), (1, 0), (0, 1), (1, 1), (2, -1)]
    worst_rt = 0.0
    for _ in range(20):
        f = generic_poly(rng, dom, deg=2)
        pts = dom.sample_points(rng, 200)
        for h1, h2 in branches:
            g = star_log(f, LogBranch(h1, h2, dom.center))
            eg = star_exp(g)
            for z in pts:
                worst_rt = max(worst_rt, (eg.stem_at(z) - f.stem_at(z)).norm()
                               / max(1.0, f.stem_at(z).norm()))

    # branch differences match the monodromy translation
    f = generic_poly(rng, dom, deg=2)
    g0 = star_log(f, LogBranch(0, 0, dom.center))
    pts = dom.sample_points(rng, 60)
    worst_tr = 0.0
    for h1, h2 in branches[1:]:
        gh = star_log(f, LogBranch(h1, h2, dom.center))
        best = min(
            max((gh.stem_at(z) - cand.stem_at(z)).norm() for z in pts)
            for cand in (log_translate(g0, h1, h2), log_translate(g0, h2, h1)))
        worst_tr = max(worst_tr, best)

    # real-intersecting disk: only h2 = -h1 exists, values real on R
    domr = Domain(0.0, 1.0)
    fr = generic_poly(rng, domr, deg=2)
    rejected = 0
    for h1, h2 in ((1, 0), (2, 2), (0, 3)):
        try:
            star_log(fr, LogBranch(h1, h2, 0.1 + 0j))
        except JNotDefined:
            rejected += 1
    worst_real = 0.0
    for h1 in (-2, -1, 0, 1, 2):
        g = star_log(fr, LogBranch(h1, -h1, 0.1 + 0j))
        for t in np.linspace(-0.85, 0.85, 41):
            worst_real = max(worst_real,
                             g.stem_at(complex(t, 0.0)).imag_part().norm())
    dt = time.perf_counter() - t0
    ok = (worst_rt < 1e-8 and worst_tr < 1e-8 and rejected == 3
          and worst_real < 1e-10 and dt < 60.0)
    report(4, "logarithm_family", ok,
           f"roundtrip={worst_rt:.2e}<1e-8 translation={worst_tr:.2e}<1e-8 "
           f"rejected={rejected}/3 real={worst_real:.2e}<1e-10, {dt:.1f}s < 60s")


def test_acceptance_5_roots():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    dom = Domain(1.5j, 0.8)
    worst_pow = 0.0
    worst_cong = 0.0
    for n in (2, 3, 5):
        f = generic_poly(rng, dom, deg=1)
        root = star_root(f, n, LogBranch(0, 0, dom.center))
        back = root.star_pow(n)
        for z in dom.sample_points(rng, 40):
            worst_pow = max(worst_pow, (back.stem_at(z) - f.stem_at(z)).norm()
                            / max(1.0, f.stem_at(z).norm()))
        r1 = star_root(f, n, LogBranch(1, 0, dom.center))
        r2 = star_root(f, n, LogBranch(1 + 2 * n, 2 * n, dom.center))
        for z in dom.sample_points(rng, 30):
            worst_cong = max(worst_cong, (r1.stem_at(z) - r2.stem_at(z)).norm())

    # deck-generator identity of the root cover
    worst_gen = 0.0
    for n in range(2, 6):
        for gen in root_monodromy_generators(n):
            for _ in range(30):
                s = unit_imaginary(CQuaternion(
                    0j, *(rng.standard_normal(3) + 0.2j * rng.standard_normal(3))))
                p = LiftPoint(complex(*rng.standard_normal(2)),
                              complex(*rng.standard_normal(2)), s)
                moved = branch_translate(p, gen.branch)
                lhs = lifted_exp(LiftPoint(moved.u0 / n, moved.u1 / n, s))
                base = lifted_exp(LiftPoint(p.u0 / n, p.u1 / n, s))
                w0, w1 = root_deck_action(gen, base.u0, base.u1)
                worst_gen = max(worst_gen,
                                (abs(lhs.u0 - w0) + abs(lhs.u1 - w1))
                                / max(1.0, abs(w0) + abs(w1)))
    dt = time.perf_counter() - t0
    ok = (worst_pow < 1e-8 and worst_cong < 1e-8 and worst_gen < 1e-10
          and dt < 60.0)
    report(5, "roots", ok,
           f"power_back={worst_pow:.2e}<1e-8 congruence={worst_cong:.2e}<1e-8 "
           f"generators={worst_gen:.2e}<1e-10, {dt:.1f}s < 60s")


def test_acceptance_6_bch():
    t0 = time.perf_counter()
    rows = suite_rows("bch", 106, 1000)
    prodvec = rows["product_vsym_closed_form"]["max_residual"]
    example = rows["vanishing_partner_kills_vsym"]["max_residual"]
    comb = rows["bch_combine_exponential_product"]
    const = rows["bch_constant_vs_series_oracle"]

    # the identity on 10^3 raw algebra pairs via the orthogonal split
    rng = np.random.default_rng(106)
    worst_split = 0.0
    for _ in range(1000):
        z, w = rand_cq(rng), rand_cq(rng)
        nz = z.vec_norm2()
        if abs(nz) < 1e-6:
            continue
        w1 = (z.z1 * w.z1 + z.z2 * w.z2 + z.z3 * w.z3) / nz
        perp = w.vec() - w1 * z.vec()
        lhs = (z.z0 * w1 + w.z0) ** 2 * nz + z.csym() * perp.vec_norm2()
        rhs = cq_mul(z, w).vec_norm2()
        worst_split = max(worst_split, abs(lhs - rhs) / max(1.0, abs(rhs)))

    # and at slice-function level, where orth_decompose's g1 is the quotient
    # <g_v, f_v>_* / f_v^s
    dom = Domain(0.0, 1.0)
    checked = 0
    while checked < 1000:
        f = generic_poly(rng, dom, deg=1)
        g = rand_poly(rng, dom, deg=1)
        g1 = orth_decompose(f, g)[0]
        for z in dom.sample_points(rng, 50):
            zq = f.slice_point(Quaternion(z.real, abs(z.imag), 0, 0))
            fz = f.stem_at(zq)
            quotient = cq_dot(g.stem_at(zq), fz) / fz.vec_norm2()
            worst_split = max(worst_split, abs(g1.scalar_value(zq) - quotient)
                              / max(1.0, abs(quotient)))
            checked += 1
    dt = time.perf_counter() - t0
    # 20 combined pairs of 32 points each, and 12 constant pairs
    ok = (prodvec < 1e-10 and worst_split < 1e-10 and example < 1e-10
          and comb["max_residual"] < 1e-8 and comb["samples"] == 20 * 32
          and const["max_residual"] < 1e-10 and const["samples"] == 12 and dt < 60.0)
    report(6, "bch", ok,
           f"prodvec={prodvec:.2e}<1e-10 split={worst_split:.2e}<1e-10 "
           f"example={example:.2e}<1e-10 combine={comb['max_residual']:.2e}<1e-8 "
           f"const={const['max_residual']:.2e}<1e-10, {dt:.1f}s < 60s")


def test_acceptance_7_derivative():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    dom = Domain(0.0, 1.5)
    worst = 0.0
    for k in range(20):
        if k % 4 == 0:
            # vector symmetrization z^2 + d^2 crosses zero inside the domain
            d = rng.uniform(0.2, 0.8)
            f = polynomial([Quaternion(0.2, 0, d, 0), I_UNIT], dom) \
                + rand_poly(rng, dom, scale=0.2, deg=1)
        else:
            f = rand_poly(rng, dom, scale=0.8, deg=3, extra=0.2)
        ef = star_exp(f)
        pts = dom.sample_points(rng, 10, margin_frac=0.3)
        if k % 4 == 0:
            pts += [0.001 + 0.002j, 0.3j]   # near / at the degenerate locus
        for z in pts:
            closed = star_exp_derivative_stem(f, z)
            quad = ef.stem_derivative_at(z)
            worst = max(worst, (closed - quad).norm() / max(1.0, quad.norm()))

    worst_comm = 0.0
    c = Quaternion(0, 0.6, -0.3, 0.4)
    gamma = slice_preserving(lambda z: 0.5 * z + 1.2, dom)
    f = gamma.star(constant(c, dom)) + polynomial(
        [Quaternion(0.1, 0, 0, 0), Quaternion(0.2, 0, 0, 0)], dom)
    for z in dom.sample_points(rng, 20, margin_frac=0.3):
        closed = star_exp_derivative_stem(f, z)
        expected = cq_mul(cq_exp(f.stem_at(z)), f.stem_derivative_at(z))
        worst_comm = max(worst_comm, (closed - expected).norm()
                         / max(1.0, expected.norm()))
    dt = time.perf_counter() - t0
    ok = worst < 1e-8 and worst_comm < 1e-12 and dt < 30.0
    report(7, "derivative", ok,
           f"closed_vs_quadrature={worst:.2e}<1e-8 "
           f"commuting={worst_comm:.2e}<1e-12, {dt:.1f}s < 30s")


def test_acceptance_8_stem_hygiene():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    dom = Domain(0.0, 1.2)
    dom_off = Domain(1.5j, 0.8)

    worst_sym = 0.0
    f = generic_poly(rng, dom, deg=2)
    g = rand_poly(rng, dom, deg=2)
    lg = star_log(f, LogBranch(1, -1, 0.1 + 0j))
    pts = dom.sample_points(rng, 64)
    for fn in (f, g, f.star(g), f.conj(), f.sym(), f.vsym(), star_exp(g),
               f.derivative(), lg, star_root(f, 3, LogBranch(0, 0, 0.1 + 0j))):
        worst_sym = max(worst_sym, stem_symmetry_defect(fn, pts))

    f2 = generic_poly(rng, dom_off, deg=1)
    pts_off = dom_off.sample_points(rng, 64)
    for fn in (unit_vector_part(dom_off), idempotent_plus(dom_off),
               star_log(f2, LogBranch(1, 1, dom_off.center)),
               vanishing_vsym_partner(constant(Quaternion(1, 2, 0, 0), dom_off))):
        worst_sym = max(worst_sym, stem_symmetry_defect(fn, pts_off))

    # a combined exponent from the product solver
    built = False
    while not built:
        fa = rand_poly(rng, dom, scale=0.5, deg=1)
        ga = rand_poly(rng, dom, scale=0.5, deg=1)
        rep = bch_condition(fa, ga)
        if rep.admissible and not rep.commuting:
            built = True
            worst_sym = max(worst_sym,
                            stem_symmetry_defect(bch_combine(fa, ga, report=rep),
                                                 pts))

    from conftest import rand_quat as _rq
    from slicestar import ImagUnit
    worst_repr = 0.0
    J, K = ImagUnit(1, 0, 0), ImagUnit(0, 1, 0)
    for _ in range(40):
        coeffs = [_rq(rng) for _ in range(4)]
        fp = polynomial(coeffs, Domain(0.0, 3.0))
        alpha = rng.uniform(-1, 1)
        beta = rng.uniform(0.05, 1.5)
        I = rand_unit_axis(rng)
        vJ = fp(Quaternion.from_slice_coords(alpha, beta, J))
        vK = fp(Quaternion.from_slice_coords(alpha, beta, K))
        out = representation_formula(vJ, vK, J, K, I)
        direct = fp(Quaternion.from_slice_coords(alpha, beta, I))
        worst_repr = max(worst_repr, (out - direct).norm()
                         / max(1.0, direct.norm()))
    dt = time.perf_counter() - t0
    ok = worst_sym < 1e-10 and worst_repr < 1e-12
    report(8, "stem_hygiene", ok,
           f"symmetry={worst_sym:.2e}<1e-10 representation={worst_repr:.2e}"
           f"<1e-12, {dt:.1f}s")
