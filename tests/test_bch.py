import cmath
import math

import mpmath
import pytest
from hypothesis import given, strategies as st

import slicestar.cquaternion
from conftest import (assert_same_nodes, generic_poly, inputs_bits, one_at_a_time,
                      quat_exp_series, rand_cq, rand_poly, rand_quat, stem_bits,
                      switch_arguments)
from slicestar import (CQuaternion, Domain, I_UNIT, LogBranch, Locus,
                       Quaternion, bch_combine, bch_condition, classify,
                       constant, cq_dot, cq_exp, cq_mul, cq_wedge, even_trig,
                       exp_derivative_bracket, polynomial,
                       product_vsym, quat_exp, quat_mul, slice_preserving,
                       star_exp, star_exp_derivative, star_exp_derivative_stem,
                       star_log, stem_symmetry_defect, vanishing_vsym_partner)
from slicestar.bch import (CONDITION_SAMPLES, TAU_BCH, TAU_LATTICE, BCHReport, _coeff_a,
                           _on_lattice)
from slicestar.continuation import BranchContinuation
from slicestar.errors import (BadExampleInput, HitsVLocus, NotExponential,
                              VanishingVectorPart)
from slicestar.slicefn import ContinuedFunction
from slicestar.starlog import _anchor

DOM = Domain(0.0, 1.0)
DOM_OFF = Domain(1.5j, 0.8)


# -- product of the vector symmetrization --------------------------------------


def test_product_vsym_equals_direct(rng):
    for _ in range(8):
        f = generic_poly(rng, DOM, deg=1)
        g = rand_poly(rng, DOM, deg=2)
        direct = f.star(g).vsym()
        for z in DOM.sample_points(rng, 25):
            q = Quaternion(z.real, abs(z.imag), 0, 0)
            zq = f.slice_point(q)
            lhs = product_vsym(f, g, q)
            rhs = direct.scalar_value(zq)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_product_vsym_self_product(rng):
    f = generic_poly(rng, DOM, deg=1)
    direct = f.star(f).vsym()
    for z in DOM.sample_points(rng, 20):
        q = Quaternion(z.real, abs(z.imag), 0, 0)
        zq = f.slice_point(q)
        lhs = product_vsym(f, f, q)
        # (f*f)_v^s = (2 f0)^2 f_v^s
        fz = f.stem_at(zq)
        expected = (2 * fz.z0) ** 2 * fz.vec_norm2()
        assert abs(lhs - expected) < 1e-10 * max(1.0, abs(expected))
        assert abs(direct.scalar_value(zq) - expected) < 1e-10 * max(1.0, abs(expected))


def test_product_vsym_tuned_zero(rng):
    # g parallel to f_v with g0 = -f0 g1 makes the closed form vanish
    f = generic_poly(rng, DOM, deg=0)
    gamma = 0.8
    g = f.vector_part() * gamma + f.scalar_part() * (-gamma)
    q = Quaternion(0.2, 0.4, 0, 0)
    assert abs(product_vsym(f, g, q)) < 1e-12


def test_product_vsym_needs_vector_part():
    f = constant(Quaternion(1, 0, 0, 0), DOM)
    g = constant(I_UNIT, DOM)
    with pytest.raises(VanishingVectorPart):
        product_vsym(f, g, Quaternion(0.1, 0.1, 0, 0))


# -- the vanishing-partner construction ----------------------------------------


def test_vanishing_partner_constant():
    f = constant(Quaternion(1, 2, 0, 0), DOM_OFF)
    g = vanishing_vsym_partner(f)
    vs = f.star(g).vsym()
    rng = __import__("numpy").random.default_rng(0)
    pts = DOM_OFF.sample_points(rng, 50)
    assert max(abs(vs.scalar_value(z)) for z in pts) < 1e-10
    assert min(abs(g.sym().scalar_value(z)) for z in pts) > 1e-3
    # the product lands on V_inf pointwise
    prod = f.star(g)
    for z in pts[:10]:
        assert classify(prod.stem_at(z)) in (Locus.V_INF, Locus.BOTH)


def test_vanishing_partner_linear(rng):
    # f = c + q*(i-ish): C_i-preserving polynomial off the real axis
    f = polynomial([Quaternion(1.0, 2.0, 0, 0), Quaternion(0.15, 0.3, 0, 0)],
                   DOM_OFF)
    g = vanishing_vsym_partner(f)
    vs = f.star(g).vsym()
    assert max(abs(vs.scalar_value(z))
               for z in DOM_OFF.sample_points(rng, 50)) < 1e-10
    assert stem_symmetry_defect(g, DOM_OFF.sample_points(rng, 30)) < 1e-12


def test_vanishing_partner_hypotheses():
    with pytest.raises(BadExampleInput):
        vanishing_vsym_partner(constant(Quaternion(1, 2, 0, 0), DOM))  # meets R
    with pytest.raises(BadExampleInput):
        vanishing_vsym_partner(constant(Quaternion(1, 0, 2, 0), DOM_OFF))  # j comp
    with pytest.raises(BadExampleInput):
        vanishing_vsym_partner(constant(Quaternion(1, 0, 0, 0), DOM_OFF))  # f1 = 0


def test_vanishing_partner_counts_zeros_of_sym():
    # f^s = (z - 0.13)^2 + 1.7^2 vanishes at 0.13 + 1.7i, inside the upper
    # disk but between the points of a mesh: the boundary scan counts it
    f = polynomial([Quaternion(-0.13, 1.7, 0, 0), Quaternion(1, 0, 0, 0)], DOM_OFF)
    assert abs(f.sym().scalar_value(0.13 + 1.7j)) < 1e-12
    with pytest.raises(BadExampleInput, match="f\\^s must not vanish"):
        vanishing_vsym_partner(f)


# -- admissibility and the combined exponent ------------------------------------


def test_condition_small_constants_admissible():
    f = constant(Quaternion(0.1, 0.3, 0.2, 0.0), DOM)
    g = constant(Quaternion(-0.2, 0.0, 0.25, 0.3), DOM)
    rep = bch_condition(f, g)
    assert rep.admissible and not rep.commuting and rep.lattice_ok


def test_condition_at_a_zero_of_fvs():
    # f_v^s = z^2 vanishes at the mesh's centre point; Theta = f_v^s (1 - C^2)
    # is entire, so the scan reports Theta = 0 there instead of refusing
    f = polynomial([Quaternion(0.1, 0, 0, 0), I_UNIT], DOM)
    g = constant(Quaternion(-0.2, 0.0, 0.25, 0.3), DOM)
    rep = bch_condition(f, g)
    assert 0j in rep.points
    assert rep.min_abs == 0 and not rep.admissible and not rep.commuting


def _theta_reference(fz: CQuaternion, gz: CQuaternion) -> tuple[complex, float]:
    """The obstruction expanded along the split g_v = (<f_v,g_v>/f_v^s) f_v
    + g_perp, which divides by f_v^s, and the size of the rounding that
    division brings."""
    fvs = fz.vec_norm2()
    ef = even_trig(fvs)
    eg = even_trig(gz.vec_norm2())
    dot = cq_dot(fz, gz)
    perp = gz.vec() - (dot / fvs) * fz.vec()
    theta = ((ef.cosr * eg.sincr * dot + eg.cosr * ef.sincr * fvs) ** 2
             + eg.sincr ** 2 * fvs * perp.vec_norm2())
    return theta, abs(eg.sincr * dot) ** 2 * fz.vec().norm() ** 2 / abs(fvs)


_COEFFS = st.builds(Quaternion, *(st.floats(-1, 1) for _ in range(4)))


@given(dom=st.sampled_from([DOM, DOM_OFF]),
       fc=st.lists(_COEFFS, min_size=1, max_size=2),
       gc=st.lists(_COEFFS, min_size=1, max_size=2))
def test_condition_matches_expanded_obstruction(dom, fc, gc):
    f, g = polynomial(fc, dom), polynomial(gc, dom)
    rep = bch_condition(f, g)
    for z, theta in zip(rep.points, rep.values):
        fz, gz = f.stem_at(z), g.stem_at(z)
        if abs(fz.vec_norm2()) < 1e-12:
            continue
        want, rounding = _theta_reference(fz, gz)
        assert abs(theta - want) <= 1e-12 * max(1.0, abs(want), rounding)


def test_condition_flags_commuting(rng):
    f = generic_poly(rng, DOM, deg=1)
    gamma = slice_preserving(lambda z: 0.3 * z + 0.7, DOM)
    g = gamma.star(f.vector_part()) + f.scalar_part() * 0.2
    rep = bch_condition(f, g)
    assert rep.commuting


def test_condition_detects_exp_level_counterexample(rng):
    # exponents whose exponentials realize the vanishing example: the
    # obstruction is identically zero, hence inadmissible
    f = constant(Quaternion(0.3, 0.9, 0, 0), DOM_OFF)
    g = vanishing_vsym_partner(f)
    phi = star_log(f, LogBranch(0, 0, DOM_OFF.center))
    psi = star_log(g, LogBranch(0, 0, DOM_OFF.center))
    rep = bch_condition(phi, psi)
    assert not rep.admissible
    assert rep.min_abs < 1e-10
    with pytest.raises(NotExponential):
        bch_combine(phi, psi, report=rep)


def test_condition_obstruction_tracks_product_vsym(rng):
    # Theta = f_v^s e^{-2(f0+g0)} (exp_* f * exp_* g)_v^s
    f = generic_poly(rng, DOM, deg=1)
    g = rand_poly(rng, DOM, deg=1)
    rep = bch_condition(f, g)
    prod_vs = star_exp(f).star(star_exp(g)).vsym()
    for z, theta in zip(rep.points, rep.values):
        fz, gz = f.stem_at(z), g.stem_at(z)
        import cmath
        expected = fz.vec_norm2() * cmath.exp(-2 * (fz.z0 + gz.z0)) \
            * prod_vs.scalar_value(z)
        assert abs(theta - expected) <= 1e-9 * max(1.0, abs(expected))


def _product_kernels(fz: CQuaternion, gz: CQuaternion) -> tuple:
    """(C, W, f0 + g0) of the product of the exponential stems,
    e^{f0+g0} (C + W), built from the kernels."""
    cf, sf = even_trig(fz.vec_norm2())
    cg, sg = even_trig(gz.vec_norm2())
    c = cf * cg - sf * sg * cq_dot(fz, gz)
    w = gz.vec() * (cf * sg) + fz.vec() * (cg * sf) + cq_wedge(fz, gz) * (sf * sg)
    return c, w, fz.z0 + gz.z0


def _lattice_distance(v: complex) -> float:
    """Distance of v from the real lattice {n^2 pi^2 : n = 0, 1, 2, ...}."""
    best = abs(v)
    if v.real > 0:
        n = round(math.sqrt(v.real) / math.pi)
        for k in (n - 1, n, n + 1):
            if k >= 0:
                best = min(best, abs(v - (k * math.pi) ** 2))
    return best


@pytest.mark.parametrize("k", range(6))
def test_on_lattice_matches_distance_threshold(k):
    # offsets on both sides of TAU_LATTICE, in every direction, round k^2 pi^2
    for scale in (0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 1e3, 1e6):
        for d in (1, -1, 1j, -1j, (1 + 1j) / math.sqrt(2), -0.6 + 0.8j):
            v = complex((k * math.pi) ** 2 + scale * TAU_LATTICE * d)
            assert _on_lattice(v) == (_lattice_distance(v) < TAU_LATTICE), (k, scale, d)


def _condition_reference(f, g) -> BCHReport:
    """The scan with C, f_v^s, g_v^s and the wedge from the kernels."""
    pts = f.domain.mesh_points(CONDITION_SAMPLES)
    values = []
    lattice_ok = True
    wedge_max = 0.0
    scale_max = 1.0
    for z in pts:
        fz, gz = f.stem_at(z), g.stem_at(z)
        c = _product_kernels(fz, gz)[0]
        fvs, gvs = fz.vec_norm2(), gz.vec_norm2()
        values.append(fvs * (1 - c * c))
        wedge_max = max(wedge_max, cq_wedge(fz, gz).norm())
        scale_max = max(scale_max, fz.norm(), gz.norm())
        if min(_lattice_distance(fvs), _lattice_distance(gvs)) < TAU_LATTICE:
            lattice_ok = False
    min_abs = min(abs(v) for v in values)
    return BCHReport(points=pts, values=values, min_abs=min_abs, lattice_ok=lattice_ok,
                     commuting=wedge_max < 1e-12 * scale_max ** 2,
                     admissible=lattice_ok and min_abs >= TAU_BCH)


def _report_bits(rep: BCHReport) -> tuple:
    return (rep.points, [(v.real.hex(), v.imag.hex()) for v in rep.values],
            rep.min_abs.hex(), rep.lattice_ok, rep.commuting, rep.admissible, rep.tol)


def _constants(dom, *quats) -> tuple:
    return tuple(constant(Quaternion(*q), dom) for q in quats)


def test_condition_bitwise_matches_reference_scan(rng):
    # f_v^s = (pi (1 + 1e-10))^2 lies within TAU_LATTICE of pi^2 everywhere
    r = math.pi * (1 + 1e-10)
    pairs = []
    for dom in (DOM, DOM_OFF):
        for _ in range(6):
            pairs.append((rand_poly(rng, dom, scale=0.6, deg=1),
                          rand_poly(rng, dom, scale=0.6, deg=2)))
            pairs.append((constant(rand_quat(rng, 0.6), dom),
                          constant(rand_quat(rng, 0.6), dom)))
        f = generic_poly(rng, dom, deg=1)
        gamma = slice_preserving(lambda z: 0.3 * z + 0.7, dom)
        pairs.append((f, gamma.star(f.vector_part()) + f.scalar_part() * 0.2))
        lattice = _constants(dom, (0.1, r * 0.6, r * 0.8, 0.0), (-0.2, 0.0, 0.25, 0.3))
        pairs += [lattice, lattice[::-1]]
        # wedges along k, i and j alone, and one of size about 4e-10: nearly commuting
        pairs += [_constants(dom, (0.1, 0.3, 0, 0), (-0.2, 0, 0.25, 0)),
                  _constants(dom, (0.1, 0, 0.3, 0), (-0.2, 0, 0, 0.25)),
                  _constants(dom, (0.1, 0, 0, 0.3), (-0.2, 0.25, 0, 0)),
                  _constants(dom, (0.1, 0.3, 0.2, 0), (-0.2, 0.6, 0.4, 1e-9))]
    flags = set()
    for f, g in pairs:
        rep = bch_condition(f, g)
        assert _report_bits(rep) == _report_bits(_condition_reference(f, g))
        flags.add((rep.lattice_ok, rep.commuting, rep.admissible))
    # the pairs reach commuting, near-lattice and admissible reports
    assert {(True, True, True), (False, False, False), (True, False, True)} <= flags


def test_condition_strictly_positive_on_real_axis(rng):
    # on a domain meeting R the obstruction at real points is a sum of a
    # real square and a nonnegative multiple, so it stays strictly positive
    for _ in range(6):
        f = generic_poly(rng, DOM, deg=1)
        g = generic_poly(rng, DOM, deg=1)
        rep = bch_condition(f, g)
        real_vals = [v for z, v in zip(rep.points, rep.values)
                     if abs(z.imag) < 1e-12]
        assert real_vals, "scan must include the real trace"
        for v in real_vals:
            assert abs(v.imag) < 1e-12
            assert v.real > 1e-10


def test_combine_equal_inputs():
    f = constant(Quaternion(0.2, 0.4, -0.1, 0.3), DOM)
    h = bch_combine(f, f)
    q = Quaternion(0.1, 0.2, 0, 0)
    assert (h(q) - (f + f)(q)).norm() < 1e-14


def test_combine_constants_vs_series_oracle(rng):
    done = 0
    while done < 10:
        p = rand_quat(rng, 0.6)
        r = rand_quat(rng, 0.6)
        f, g = constant(p, DOM), constant(r, DOM)
        rep = bch_condition(f, g)
        if not rep.admissible or rep.commuting:
            continue
        done += 1
        h = bch_combine(f, g, report=rep)
        hq = h(Quaternion.zero())
        oracle = quat_mul(quat_exp_series(p), quat_exp_series(r))
        assert (quat_exp(hq) - oracle).norm() <= 1e-10 * max(1.0, oracle.norm())


def test_combine_random_polynomials(rng):
    built = 0
    while built < 6:
        f = rand_poly(rng, DOM, scale=0.6, deg=1)
        g = rand_poly(rng, DOM, scale=0.6, deg=1)
        rep = bch_condition(f, g)
        if not rep.admissible or rep.commuting:
            continue
        built += 1
        h = bch_combine(f, g, report=rep)
        ef, eg, eh = star_exp(f), star_exp(g), star_exp(h)
        for z in DOM.sample_points(rng, 32):
            lhs = cq_mul(ef.stem_at(z), eg.stem_at(z))
            assert (lhs - eh.stem_at(z)).norm() <= 1e-8 * max(1.0, lhs.norm())


def test_combine_satisfies_cos_sin_system(rng):
    built = 0
    while built < 4:
        f = rand_poly(rng, DOM, scale=0.6, deg=1)
        g = rand_poly(rng, DOM, scale=0.6, deg=1)
        rep = bch_condition(f, g)
        if not rep.admissible or rep.commuting:
            continue
        built += 1
        h = bch_combine(f, g, report=rep)
        for z in DOM.sample_points(rng, 20):
            fz, gz, hz = f.stem_at(z), g.stem_at(z), h.stem_at(z)
            ef, eg = even_trig(fz.vec_norm2()), even_trig(gz.vec_norm2())
            eh = even_trig(hz.vec_norm2())
            from slicestar import cq_dot, cq_wedge
            c = ef.cosr * eg.cosr - ef.sincr * eg.sincr * cq_dot(fz, gz)
            w = (gz.vec() * (ef.cosr * eg.sincr)
                 + fz.vec() * (eg.cosr * ef.sincr)
                 + cq_wedge(fz, gz) * (ef.sincr * eg.sincr))
            assert abs(eh.cosr - c) < 1e-9
            assert ((hz.vec() * eh.sincr) - w).norm() < 1e-9
            assert abs(hz.z0 - fz.z0 - gz.z0) < 1e-12


def test_combine_on_two_sided_domain(rng):
    built = 0
    while built < 3:
        f = generic_poly(rng, DOM_OFF, deg=1)
        g = generic_poly(rng, DOM_OFF, deg=1)
        rep = bch_condition(f, g)
        if not rep.admissible or rep.commuting:
            continue
        built += 1
        h = bch_combine(f, g, report=rep)
        ef, eg, eh = star_exp(f), star_exp(g), star_exp(h)
        pts = DOM_OFF.sample_points(rng, 30)
        for z in pts:
            lhs = cq_mul(ef.stem_at(z), eg.stem_at(z))
            assert (lhs - eh.stem_at(z)).norm() <= 1e-8 * max(1.0, lhs.norm())
        assert stem_symmetry_defect(h, pts) < 1e-10


def test_combine_stem_symmetry(rng):
    built = 0
    while built < 2:
        f = rand_poly(rng, DOM, scale=0.5, deg=1)
        g = rand_poly(rng, DOM, scale=0.5, deg=1)
        rep = bch_condition(f, g)
        if not rep.admissible or rep.commuting:
            continue
        built += 1
        h = bch_combine(f, g, report=rep)
        assert stem_symmetry_defect(h, DOM.sample_points(rng, 40)) < 1e-10


def test_combine_even_trig_calls_per_fresh_point(rng, monkeypatch):
    # the continuation state carries Q = exp(F_v) exp(G_v), so a fresh
    # point costs one Q per step: two even_trig, inside cq_exp
    while True:
        f = rand_poly(rng, DOM, scale=0.6, deg=1)
        g = rand_poly(rng, DOM, scale=0.6, deg=1)
        rep = bch_condition(f, g)
        if rep.admissible and not rep.commuting:
            break
    calls = [0]

    def counted(w):
        calls[0] += 1
        return even_trig(w)

    monkeypatch.setattr(slicestar.cquaternion, "even_trig", counted)
    h = bch_combine(f, g, report=rep)
    pts = DOM.sample_points(rng, 300)
    calls[0] = 0
    for z in pts:
        h.stem_at(z)
    assert calls[0] / len(pts) <= 5.0


@pytest.mark.parametrize("dom", [DOM, DOM_OFF], ids=["real", "off"])
def test_combine_batch_walk_matches_pointwise_queries(rng, dom):
    # one walk of the angle's branch gives bit for bit what pointwise
    # queries in input order give, and leaves the same nodes
    while True:
        f = generic_poly(rng, dom, deg=1)
        g = generic_poly(rng, dom, deg=1)
        rep = bch_condition(f, g)
        if rep.admissible and not rep.commuting:
            break
    batch, point = bch_combine(f, g, report=rep), bch_combine(f, g, report=rep)
    pts = dom.sample_points(rng, 200)
    queries = pts[100:] + [dom.center] + pts[:120]
    assert inputs_bits(batch.with_inputs_at(queries)) == \
        inputs_bits(one_at_a_time(point, queries))
    assert_same_nodes(batch, point)
    assert batch.with_inputs_at([]) == []


@pytest.mark.parametrize("dom", [DOM, DOM_OFF], ids=["real", "off"])
def test_combine_batch_of_commuting_pair(rng, dom):
    f = generic_poly(rng, dom, deg=1)
    gamma = slice_preserving(lambda z: 0.3 * z + 0.7, dom)
    g = gamma.star(f.vector_part()) + f.scalar_part() * 0.2
    assert bch_condition(f, g).commuting
    h = bch_combine(f, g)
    pts = dom.sample_points(rng, 50)
    pts += pts[:5]
    assert inputs_bits(h.with_inputs_at(pts)) == inputs_bits(one_at_a_time(h, pts))
    assert h.with_inputs_at([]) == []
    # (H, Q, F, G): f + g, the product of the exponentials of the vector
    # parts, and the two inputs
    for z, (hz, qz, fz, gz) in zip(pts, h.with_inputs_at(pts)):
        assert stem_bits(fz) == stem_bits(f.stem_at(z))
        assert stem_bits(gz) == stem_bits(g.stem_at(z))
        assert stem_bits(hz) == stem_bits(fz + gz)
        assert stem_bits(qz) == stem_bits(cq_mul(cq_exp(fz.vec()), cq_exp(gz.vec())))


def test_combine_degenerate_angle():
    # exp(pi i) exp(2 pi j) = -1: cos(theta) = -1, so Q_v^s = sin^2(theta) = 0
    # and the vector part cannot be recovered; the scan rejects the pair
    # (f_v^s = pi^2 is on the lattice), so force the report through
    f = constant(Quaternion(0, math.pi, 0, 0), DOM)
    g = constant(Quaternion(0, 0, 2 * math.pi, 0), DOM)
    rep = bch_condition(f, g)
    assert not rep.admissible and not rep.commuting
    rep.admissible = True
    h = bch_combine(f, g, report=rep)
    with pytest.raises(HitsVLocus):
        h.stem_at(0.2 + 0.1j)


def test_combine_refuses_a_vector_part_that_vanishes_at_the_anchor():
    # f_v and g_v both vanish at the anchor 0, so Q = 1 there and L = log
    # Q_v^s has no value to start from; forced through, bch_combine names
    # the locus instead of exhausting its bisection on the first query
    f = polynomial([Quaternion(0, 0, 0, 0), Quaternion(0, 1, 0, 0)], DOM)
    g = polynomial([Quaternion(0, 0, 0, 0), Quaternion(0, 0, 1, 0)], DOM)
    rep = bch_condition(f, g)
    assert not rep.admissible and not rep.commuting
    rep.admissible = True
    with pytest.raises(HitsVLocus, match="Q_v\\^s = 0 at the anchor 0j"):
        bch_combine(f, g, report=rep)


def _angle_walk(f, g) -> ContinuedFunction:
    """h = f0 + g0 + W / sincr(theta^2) of the angle walk: theta solves
    cos(theta) = C, seeded with the principal arccos at the domain anchor
    and continued by the arccos +- 2 pi k nearest the previous angle,
    refusing moves beyond 0.5.  The reference for ``bch_combine``, which
    continues the logarithm of exp(F_v) exp(G_v) instead."""
    dom = f.domain
    fstem, gstem = f._stem, g._stem
    anchor = _anchor(dom, dom.center)
    c, w, h0 = _product_kernels(fstem(anchor), gstem(anchor))

    def stepper(z0: complex, v0: tuple, z1: complex):
        c, w, h0 = _product_kernels(fstem(z1), gstem(z1))
        base, th0 = cmath.acos(c), v0[0]
        best = min((sign * base + 2 * math.pi * round((th0.real - sign * base.real)
                                                      / (2 * math.pi))
                    for sign in (1.0, -1.0)), key=lambda t: abs(t - th0))
        return (best, w, h0) if abs(best - th0) <= 0.5 else HitsVLocus

    def read(z: complex, state: tuple) -> tuple:
        theta, w, h0 = state
        v0, v1, v2, v3 = w / even_trig(theta * theta).sincr
        return (CQuaternion(h0 + v0, v1, v2, v3),)

    cont = BranchContinuation(anchor, (cmath.acos(c), w, h0), stepper, dom)
    return ContinuedFunction.from_branch(read, cont)


@pytest.mark.parametrize("dom", [DOM, DOM_OFF], ids=["real", "off"])
def test_combine_matches_the_angle_walk(rng, dom):
    # s plus the logarithm of exp(F_v) exp(G_v) is s + W theta / sin(theta)
    # on the branch seeded at the anchor, so h is the angle walk's to rounding
    worst = 0.0
    for scale in (0.6, 0.9):
        built = 0
        while built < 6:
            f = rand_poly(rng, dom, scale=scale, deg=1)
            g = rand_poly(rng, dom, scale=scale, deg=1)
            rep = bch_condition(f, g)
            if not rep.admissible or rep.commuting:
                continue
            built += 1
            pts = dom.sample_points(rng, 32)
            got = bch_combine(f, g, report=rep).with_inputs_at(pts)
            want = _angle_walk(f, g).with_inputs_at(pts)
            for (hz, *_), (ref,) in zip(got, want):
                worst = max(worst, (hz - ref).norm() / max(1.0, ref.norm()))
    assert worst <= 1e-13


@pytest.mark.parametrize("c0", [-12.0, 800.0])
@pytest.mark.parametrize("dom", [DOM, DOM_OFF], ids=["real", "off"])
def test_combine_constant_pair_far_from_unit_scale(dom, c0):
    # f = c0 + 0.5i, g = 0.5j: admitted and not commuting, though the product
    # exp(f) exp(g) has |P_v^s| ~ 1.5e-11 at c0 = -12, below TAU_CLASSIFY,
    # and overflows at c0 = 800; h is c0 plus the logarithm of
    # exp(0.5i) exp(0.5j)
    f = constant(Quaternion(c0, 0.5, 0, 0), dom)
    g = constant(Quaternion(0, 0, 0.5, 0), dom)
    rep = bch_condition(f, g)
    assert rep.admissible and not rep.commuting
    z = dom.center + 0.1j
    hz = bch_combine(f, g, report=rep).stem_at(z)
    want = bch_combine(constant(Quaternion(0, 0.5, 0, 0), dom), g).stem_at(z)
    assert abs(hz.z0 - c0 - want.z0) <= 1e-14 * abs(c0)
    assert (hz.vec() - want.vec()).norm() <= 1e-14
    if c0 < 0:
        product = cq_mul(cq_exp(f.stem_at(z)), cq_exp(g.stem_at(z)))
        assert (cq_exp(hz) - product).norm() <= 1e-14 * product.norm()


@pytest.mark.parametrize("dom", [DOM, DOM_OFF], ids=["real", "off"])
def test_combine_shifts_with_the_scalar_part(rng, dom):
    # exp(f + c) = e^c exp(f) for a real constant c, so h shifts by c: the
    # branch, its refusal and its range do not depend on e^c
    built = 0
    while built < 4:
        f = rand_poly(rng, dom, scale=0.6, deg=1)
        g = rand_poly(rng, dom, scale=0.6, deg=1)
        rep = bch_condition(f, g)
        if not rep.admissible or rep.commuting:
            continue
        built += 1
        pts = dom.sample_points(rng, 32)
        want = bch_combine(f, g, report=rep).with_inputs_at(pts)
        for c in (-12.0, 12.0):
            shifted = f + constant(Quaternion(c, 0, 0, 0), dom)
            srep = bch_condition(shifted, g)
            assert srep.admissible and not srep.commuting
            got = bch_combine(shifted, g, report=srep).with_inputs_at(pts)
            for (hz, qz, *_), (ref, qref, *_) in zip(got, want):
                assert abs(hz.z0 - c - ref.z0) <= 1e-13 * max(1.0, abs(ref.z0))
                assert (hz.vec() - ref.vec()).norm() <= 1e-13 * max(1.0, ref.norm())
                # exp(F) exp(G) = e^{f0 + g0} Q, and Q does not see c
                assert (qz - qref).norm() <= 1e-13 * qref.norm()


# -- derivative of the *-exponential --------------------------------------------


def test_coefficients_series_vs_closed():
    # A and B are entire; series (|w| < 1) and closed (|w| >= 1) forms meet.
    # B(w) = (1 - cos 2 sqrt w)/(2w) = (sin sqrt w / sqrt w)^2
    coeff_b = lambda w: even_trig(w).sincr ** 2
    for w0 in (1.0, 1e-6):
        assert abs(_coeff_a(w0 * (1 - 1e-9)) - _coeff_a(w0 * (1 + 1e-9))) < 1e-9
        assert abs(coeff_b(w0 * (1 - 1e-9)) - coeff_b(w0 * (1 + 1e-9))) < 1e-9
    assert abs(_coeff_a(0j) - 2.0 / 3.0) < 1e-15
    assert abs(coeff_b(0j) - 1.0) < 1e-15


def test_coeff_a_vs_mpmath_across_series_switch():
    worst = 0.0
    with mpmath.workdps(40):
        for w in switch_arguments():
            r2 = 2 * mpmath.sqrt(mpmath.mpc(w))
            want = (1 - mpmath.sin(r2) / r2) / w
            worst = max(worst, float(abs(_coeff_a(w) - want) / abs(want)))
    assert worst < 1e-13


def test_bracket_vs_commutator_ladder(rng):
    for _ in range(60):
        fz = rand_cq(rng, 0.9)
        if abs(fz.vec_norm2()) > 4.0:
            continue
        dz = rand_cq(rng, 0.9)
        ladder = dz
        nested = dz
        fact = 1.0
        for m in range(2, 36):
            nested = cq_mul(fz, nested) - cq_mul(nested, fz)
            fact *= m
            ladder = ladder + nested * ((-1) ** (m - 1) / fact)
        closed = exp_derivative_bracket(fz, dz)
        assert (closed - ladder).norm() <= 1e-9 * max(1.0, ladder.norm())


def test_derivative_slice_preserving_reduction(rng):
    f = polynomial([Quaternion(0.3, 0, 0, 0), Quaternion(0.7, 0, 0, 0),
                    Quaternion(-0.2, 0, 0, 0)], DOM)
    for z in DOM.sample_points(rng, 15, margin_frac=0.3):
        closed = star_exp_derivative_stem(f, z)
        expected = cq_mul(cq_exp(f.stem_at(z)), f.stem_derivative_at(z))
        assert (closed - expected).norm() <= 1e-12 * max(1.0, expected.norm())


def test_derivative_parallel_vector_reduction(rng):
    # (d f)_v = gamma f_v: commutator terms cancel exactly
    c = Quaternion(0, 0.6, -0.3, 0.4)
    gamma = slice_preserving(lambda z: 0.5 * z + 1.2, DOM)
    f = gamma.star(constant(c, DOM)) + polynomial(
        [Quaternion(0.1, 0, 0, 0), Quaternion(0.2, 0, 0, 0)], DOM)
    for z in DOM.sample_points(rng, 15, margin_frac=0.3):
        closed = star_exp_derivative_stem(f, z)
        expected = cq_mul(cq_exp(f.stem_at(z)), f.stem_derivative_at(z))
        assert (closed - expected).norm() <= 1e-12 * max(1.0, expected.norm())


def test_derivative_vs_quadrature(rng):
    dom = Domain(0.0, 1.5)
    for _ in range(10):
        f = rand_poly(rng, dom, scale=0.8, deg=3, extra=0.2)
        ef = star_exp(f)
        for z in dom.sample_points(rng, 8, margin_frac=0.3):
            closed = star_exp_derivative_stem(f, z)
            quad = ef.stem_derivative_at(z)
            assert (closed - quad).norm() <= 1e-8 * max(1.0, quad.norm())


def test_derivative_through_degenerate_point(rng):
    # f_v = q i has f_v^s = z^2, vanishing at the domain center
    dom = Domain(0.0, 1.5)
    f = polynomial([Quaternion(0.2, 0, 0.3, 0), I_UNIT], dom)
    ef = star_exp(f)
    for z in (0j, 0.001 + 0.001j, 0.3j, 0.5 + 0.2j):
        closed = star_exp_derivative_stem(f, z)
        quad = ef.stem_derivative_at(z)
        assert (closed - quad).norm() <= 1e-8 * max(1.0, quad.norm())


def test_derivative_degenerate_point_formula():
    # at f_v^s(q0) = 0 the bracket is df - f_v ^ df_v + (2/3) <f_v, df_v> f_v
    from slicestar import cq_dot, cq_wedge
    fz = CQuaternion(0.4 + 0.1j, 1 + 0j, 1j, 0j)     # isotropic vector part
    assert abs(fz.vec_norm2()) < 1e-15
    dz = CQuaternion(0.3 - 0.2j, 0.5 + 0j, -0.1j, 0.7 + 0j)
    got = exp_derivative_bracket(fz, dz)
    expected = dz - cq_wedge(fz, dz) + fz.vec() * (cq_dot(fz, dz) * (2.0 / 3.0))
    assert (got - expected).norm() < 1e-14


def test_derivative_quaternion_value(rng):
    dom = Domain(0.0, 1.5)
    f = rand_poly(rng, dom, scale=0.7, deg=2)
    q = Quaternion(0.2, 0.5, 0.3, -0.1)
    value = star_exp_derivative(f, q)
    z = f.slice_point(q)
    from slicestar import induce_value
    assert (value - induce_value(star_exp_derivative_stem(f, z), q)).norm() < 1e-15
