import ast
import cmath
import functools
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (generic_poly, poly_convolve, poly_eval_direct, rand_poly,
                      rand_quat, rand_unit_axis)
from slicestar import (CQuaternion, Domain, I_UNIT, ImagUnit, J_UNIT, LogBranch,
                       Quaternion, SliceFunction, constant, idempotent_minus,
                       idempotent_plus, identity, orth_decompose, polynomial,
                       quat_exp, quat_mul, representation_formula,
                       slice_preserving, star_decompose, star_exp, star_log,
                       stem_symmetry_defect, unit_vector_part)
from slicestar.errors import (DegenerateUnits, DomainMismatch, JNotDefined,
                              NearBoundary, NonIsolatedZero, OutOfDomain,
                              RealAxis, SliceStarError, VanishingVectorPart)
from slicestar import descriptors, slicefn
from slicestar.descriptors import function_from_obj, function_to_obj
from slicestar.slicefn import BOUNDARY_FLOOR, QUAD_POINTS, QUAD_RADIUS

DOM = Domain(0.0, 3.0)
DOM_OFF = Domain(1.5j, 0.8)


@pytest.mark.parametrize("center, radius", [(0.0, math.nan), (0.0, math.inf),
                                            (complex(math.nan, 0.0), 1.0),
                                            (complex(0.0, math.inf), 1.0)])
def test_domain_refuses_non_finite_center_or_radius(center, radius):
    with pytest.raises(ValueError, match="finite"):
        Domain(center, radius)


def test_domain_validation_and_json():
    with pytest.raises(ValueError):
        Domain(0.0, -1.0)
    with pytest.raises(ValueError):
        Domain(0.5j, 0.8)              # pair of disks must clear the axis
    d = Domain(-1.5j, 0.7)             # normalized to the upper center
    assert d.center == 1.5j
    assert not d.real_intersecting

    d2 = Domain.from_json(d.to_json())
    assert d2.matches(d)
    with pytest.raises(ValueError):
        Domain.from_json({"center": [0, 0], "radius": 1.0, "realIntersecting": False})

    assert DOM.contains(1 + 2j)
    assert not DOM.contains(3.5 + 0j)
    assert d.contains(-1.4j) and d.contains(1.4j) and not d.contains(0.0j)
    assert DOM.boundary_distance(0.0) == pytest.approx(3.0)


def test_identity_and_square():
    f = identity(DOM)
    q = Quaternion(1, 2, -1, 0)
    assert (f(q) - q).norm() < 1e-15

    sq = polynomial([Quaternion.zero(), Quaternion.zero(), Quaternion.one()], DOM)
    qj = Quaternion(0.7, 0, 1.1, 0)     # point of the slice C_j
    w = complex(0.7, 1.1) ** 2
    expected = Quaternion(w.real, 0, w.imag, 0)
    assert (sq(qj) - expected).norm() < 1e-14


def test_polynomial_vs_direct_oracle(rng):
    for _ in range(40):
        coeffs = [rand_quat(rng) for _ in range(4)]
        f = polynomial(coeffs, DOM)
        for _ in range(10):
            q = rand_quat(rng, 0.9)
            if not DOM.contains(f.slice_point(q)):
                continue
            expected = poly_eval_direct(coeffs, q)
            assert (f(q) - expected).norm() <= 1e-12 * max(1.0, expected.norm())


def test_eval_at_real_points_uses_even_part():
    f = polynomial([rand_quat(np.random.default_rng(5)) for _ in range(3)], DOM)
    x = Quaternion(0.8, 0, 0, 0)
    got = f(x)
    expected = poly_eval_direct(f.node and
                                [Quaternion(*c) for c in f.node["coeffs"]], x)
    assert (got - expected).norm() < 1e-14


def test_out_of_domain():
    f = identity(Domain(0.0, 1.0))
    with pytest.raises(OutOfDomain):
        f(Quaternion(2, 0, 0, 0))
    g = identity(DOM_OFF)
    with pytest.raises(OutOfDomain):
        g(Quaternion(0.5, 0, 0, 0))     # real point, domain off the axis


def test_representation_formula(rng):
    J = ImagUnit(1, 0, 0)
    K = ImagUnit(0, 1, 0)
    vJ = rand_quat(rng)
    # I = J returns vJ exactly
    out = representation_formula(vJ, rand_quat(rng), J, K, J)
    assert (out - vJ).norm() < 1e-13

    c = rand_quat(rng)
    f = constant(c, DOM)
    alpha, beta = 0.3, 1.1
    vJ = f(Quaternion.from_slice_coords(alpha, beta, J))
    vK = f(Quaternion.from_slice_coords(alpha, beta, K))
    I = rand_unit_axis(rng)
    out = representation_formula(vJ, vK, J, K, I)
    assert (out - c).norm() < 1e-13

    for _ in range(30):
        coeffs = [rand_quat(rng) for _ in range(4)]
        f = polynomial(coeffs, DOM)
        alpha = rng.uniform(-1, 1)
        beta = rng.uniform(0.05, 1.5)
        I = rand_unit_axis(rng)
        vJ = f(Quaternion.from_slice_coords(alpha, beta, J))
        vK = f(Quaternion.from_slice_coords(alpha, beta, K))
        out = representation_formula(vJ, vK, J, K, I)
        direct = f(Quaternion.from_slice_coords(alpha, beta, I))
        assert (out - direct).norm() <= 1e-12 * max(1.0, direct.norm())

    with pytest.raises(DegenerateUnits):
        representation_formula(vJ, vK, J, J, I)


def test_star_product_slice_preserving_commutes(rng):
    sp = polynomial([Quaternion(0.4, 0, 0, 0), Quaternion(1.0, 0, 0, 0)], DOM)
    g = rand_poly(rng, DOM, deg=2)
    fg = sp.star(g)
    gf = g.star(sp)
    for _ in range(20):
        q = rand_quat(rng, 0.8)
        a, b = fg(q), gf(q)
        assert (a - b).norm() < 1e-13 * max(1.0, a.norm())
        # and equals the pointwise product
        pw = quat_mul(sp(q), g(q))
        assert (a - pw).norm() < 1e-12 * max(1.0, a.norm())


def test_star_product_symmetrizes_linear_factor(rng):
    # (q - i) * (q + i) = q^2 + 1
    lin1 = polynomial([-1 * I_UNIT, Quaternion.one()], DOM)
    lin2 = polynomial([I_UNIT, Quaternion.one()], DOM)
    prod = lin1.star(lin2)
    conv = poly_convolve([-1 * I_UNIT, Quaternion.one()],
                         [I_UNIT, Quaternion.one()])
    assert (conv[0] - Quaternion.one()).norm() < 1e-15
    for _ in range(20):
        q = rand_quat(rng)
        expected = quat_mul(q, q) + Quaternion.one()
        assert (prod(q) - expected).norm() < 1e-13 * max(1.0, expected.norm())


def test_star_product_convolution_oracle(rng):
    for _ in range(20):
        a = [rand_quat(rng) for _ in range(3)]
        b = [rand_quat(rng) for _ in range(3)]
        f, g = polynomial(a, DOM), polynomial(b, DOM)
        prod = f.star(g)
        conv = polynomial(poly_convolve(a, b), DOM)
        for _ in range(5):
            q = rand_quat(rng, 0.8)
            if not DOM.contains(f.slice_point(q)):
                continue
            assert (prod(q) - conv(q)).norm() <= 1e-12 * max(1.0, conv(q).norm())


def test_star_product_algebraic_laws(rng):
    f, g, h = (rand_poly(rng, DOM, deg=2) for _ in range(3))
    pts = DOM.sample_points(rng, 24)
    for z in pts:
        a = f.star(g.star(h)).stem_at(z)
        b = f.star(g).star(h).stem_at(z)
        assert (a - b).norm() <= 1e-11 * max(1.0, a.norm())
        c = f.star(g + h).stem_at(z)
        d = (f.star(g) + f.star(h)).stem_at(z)
        assert (c - d).norm() <= 1e-11 * max(1.0, c.norm())

    with pytest.raises(DomainMismatch):
        f.star(identity(Domain(0.0, 1.0)))


def test_symmetrization_multiplicative(rng):
    f, g = rand_poly(rng, DOM, deg=2), rand_poly(rng, DOM, deg=2)
    fg_s = f.star(g).sym()
    prod = f.sym().star(g.sym())
    for z in DOM.sample_points(rng, 30):
        a, b = fg_s.stem_at(z), prod.stem_at(z)
        assert (a - b).norm() <= 1e-10 * max(1.0, b.norm())


def test_conjugate_and_symmetrization(rng):
    f = rand_poly(rng, DOM, deg=2)
    fs = f.star(f.conj())
    sym = f.sym()
    for z in DOM.sample_points(rng, 20):
        v = fs.stem_at(z)
        assert abs(v.z1) + abs(v.z2) + abs(v.z3) < 1e-12   # slice preserving
        assert (v - sym.stem_at(z)).norm() < 1e-12


def test_star_decompose():
    f = constant(J_UNIT, DOM)
    f0, fv, fc, fs, fvs = star_decompose(f)
    q = Quaternion(0.5, 0.5, 0, 0)
    assert f0(q).norm() < 1e-15
    assert (fv(q) - J_UNIT).norm() < 1e-15
    assert (fs(q) - Quaternion.one()).norm() < 1e-15

    # f = q - i: f^s(2) = (q^2 + 1)(2) = 5
    f = polynomial([-1 * I_UNIT, Quaternion.one()], DOM)
    assert (f.sym()(Quaternion(2, 0, 0, 0)) - Quaternion(5, 0, 0, 0)).norm() < 1e-13


def test_vsym_plus_scalar_square_is_sym(rng):
    f = rand_poly(rng, DOM, deg=3)
    for z in DOM.sample_points(rng, 40):
        v = f.stem_at(z)
        assert abs(v.z0 ** 2 + v.vec_norm2() - v.csym()) < 1e-13


def test_star_dot_wedge_intrinsic(rng):
    f, g = rand_poly(rng, DOM, deg=2), rand_poly(rng, DOM, deg=2)
    dot = f.star_dot(g)
    wedge = f.star_wedge(g)
    for z in DOM.sample_points(rng, 20):
        fz, gz = f.stem_at(z), g.stem_at(z)
        from slicestar import cq_mul
        # <f_v, g_v>_* = (f_v * g_v^c + g_v * f_v^c)/2
        fv, gv = fz.vec(), gz.vec()
        d2 = (cq_mul(fv, gv.conj()) + cq_mul(gv, fv.conj())) * 0.5
        assert abs(dot.stem_at(z).z0 - d2.z0) < 1e-12
        assert abs(d2.z1) + abs(d2.z2) + abs(d2.z3) < 1e-12
        # f ^ g = [f, g]/2, insensitive to the scalar parts
        w2 = (cq_mul(fz, gz) - cq_mul(gz, fz)) * 0.5
        assert (wedge.stem_at(z) - w2).norm() < 1e-12


def test_parallel_vectors_commute(rng):
    gamma = slice_preserving(lambda z: z * z + 0.5, DOM)
    f = rand_poly(rng, DOM, deg=1)
    g = gamma.star(f.vector_part()) + constant(Quaternion(0.3, 0, 0, 0), DOM)
    comm = f.star(g) - g.star(f)
    for z in DOM.sample_points(rng, 20):
        assert comm.stem_at(z).norm() < 1e-12


def test_slice_derivative_polynomial():
    sq = polynomial([Quaternion.zero(), Quaternion.zero(), Quaternion.one()], DOM)
    q = Quaternion(1, 1, 0, 0)
    expected = Quaternion(2, 2, 0, 0)
    assert (sq.derivative_at(q) - expected).norm() < 1e-11


def test_slice_derivative_exp_fixed_point(rng):
    f = star_exp(identity(Domain(0.0, 2.0)))
    for _ in range(10):
        q = rand_quat(rng, 0.5)
        assert (f.derivative_at(q) - quat_exp(q)).norm() \
            <= 1e-10 * max(1.0, quat_exp(q).norm())


def test_slice_derivative_degree6_oracle(rng):
    coeffs = [rand_quat(rng) for _ in range(7)]
    f = polynomial(coeffs, DOM)
    dcoeffs = [coeffs[n] * float(n) for n in range(1, 7)]
    exact = polynomial(dcoeffs, DOM)
    for z in DOM.sample_points(rng, 30, margin_frac=0.2):
        got = f.stem_derivative_at(z)
        want = exact.stem_at(z)
        assert (got - want).norm() <= 1e-10 * max(1.0, want.norm())


def test_quadrature_self_check(rng):
    f = star_exp(rand_poly(rng, DOM, deg=3))
    for z in DOM.sample_points(rng, 10, margin_frac=0.2):
        a = f.stem_derivative_at(z)
        b = _quadrature_reference(f, z, 64)
        assert (a - b).norm() < 1e-9 * max(1.0, b.norm())


def test_derivative_near_boundary():
    f = identity(Domain(0.0, 1.0))
    with pytest.raises(NearBoundary):
        f.stem_derivative_at(1.0 - 1e-9 + 0j)
    # a boundary distance of exactly BOUNDARY_FLOOR is refused too
    tiny = Domain(0.0, 2 * BOUNDARY_FLOOR)
    assert tiny.boundary_distance(BOUNDARY_FLOOR) == BOUNDARY_FLOOR
    with pytest.raises(NearBoundary):
        identity(tiny).stem_derivative_at(complex(BOUNDARY_FLOOR, 0.0))


def test_spherical_derivative():
    f = identity(DOM)
    q = Quaternion(0.3, 1.2, 0.4, -0.2)
    assert (f.spherical_derivative_at(q) - Quaternion.one()).norm() < 1e-14

    g = star_exp(identity(Domain(0.0, 2.5)))
    alpha, beta = 0.4, 1.3
    q = Quaternion(alpha, beta, 0, 0)
    expected = math.exp(alpha) * math.sin(beta) / beta
    got = g.spherical_derivative_at(q)
    assert abs(got.q0 - expected) < 1e-13 and got.vec().norm() < 1e-13

    assert constant(J_UNIT, DOM).spherical_derivative_at(q).norm() < 1e-15
    with pytest.raises(RealAxis):
        f.spherical_derivative_at(Quaternion(1, 0, 0, 0))


def test_unit_vector_function_and_idempotents(rng):
    with pytest.raises(JNotDefined):
        unit_vector_part(DOM)
    J = unit_vector_part(DOM_OFF)
    q = Quaternion(0.1, 0, 1.5, 0)
    assert (J(q) - J_UNIT).norm() < 1e-15

    JJ = J.star(J)
    lp = idempotent_plus(DOM_OFF)
    lm = idempotent_minus(DOM_OFF)
    for z in DOM_OFF.sample_points(rng, 30):
        assert (JJ.stem_at(z) + type(JJ.stem_at(z)).one()).norm() < 1e-15
        assert (lp.star(lp).stem_at(z) - lp.stem_at(z)).norm() < 1e-15
        assert (lm.star(lm).stem_at(z) - lm.stem_at(z)).norm() < 1e-15
        assert lp.star(lm).stem_at(z).norm() < 1e-15


#: the reprs of the stem components of each two-sided constant above R
#: and below it, so that a flipped sign of zero shows
_SIDED_REPRS = {
    unit_vector_part: (("1j", "0j", "0j", "0j"), ("(-0-1j)", "0j", "0j", "0j")),
    idempotent_plus: (("(0.5+0j)", "-0.5j", "0j", "0j"), ("(0.5+0j)", "0.5j", "0j", "0j")),
    idempotent_minus: (("(0.5+0j)", "0.5j", "0j", "0j"), ("(0.5+0j)", "-0.5j", "0j", "0j")),
}


@pytest.mark.parametrize("make", list(_SIDED_REPRS), ids=lambda make: make.__name__)
def test_two_sided_constants_keep_their_bits(rng, make):
    dom = Domain(0.3 + 1.5j, 0.8)
    above, below = _SIDED_REPRS[make]
    f = make(dom)
    for z in [dom.center] + dom.sample_points(rng, 20):
        upper = z if z.imag > 0 else z.conjugate()
        assert tuple(map(repr, f.stem_at(upper))) == above
        assert tuple(map(repr, f.stem_at(upper.conjugate()))) == below
    needs = "q -> q_v/|q_v| needs" if make is unit_vector_part else "idempotents need"
    with pytest.raises(JNotDefined) as err:
        make(Domain(0, 1))
    assert str(err.value) == f"{needs} a domain avoiding the real axis"


def test_stem_symmetry_of_constructions(rng):
    pts = DOM.sample_points(rng, 64)
    f = rand_poly(rng, DOM, deg=3)
    g = rand_poly(rng, DOM, deg=2)
    for fn in (f, g, f.star(g), f.conj(), f.sym(), f.vsym(), star_exp(f),
               f.derivative(), f + g, f.vector_part(), f.star_wedge(g)):
        assert stem_symmetry_defect(fn, pts) < 1e-10

    pts_off = DOM_OFF.sample_points(rng, 64)
    for fn in (unit_vector_part(DOM_OFF), idempotent_plus(DOM_OFF)):
        assert stem_symmetry_defect(fn, pts_off) < 1e-15


def test_orth_decompose_parallel_case(rng):
    f = rand_poly(rng, DOM, deg=1)
    g = f.vector_part() * 3.0
    g1, g_perp = orth_decompose(f, g)
    for z in DOM.sample_points(rng, 20):
        assert abs(g1.scalar_value(z) - 3.0) < 1e-10
        assert g_perp.stem_at(z).norm() < 1e-9


def test_orth_decompose_orthogonal_units():
    f = constant(I_UNIT, DOM)
    g = constant(J_UNIT, DOM)
    g1, g_perp = orth_decompose(f, g)
    q = Quaternion(0.2, 0.7, 0, 0)
    assert g1(q).norm() < 1e-13
    assert (g_perp(q) - J_UNIT).norm() < 1e-13


def test_orth_decompose_reconstruction(rng):
    for _ in range(10):
        f = generic_poly(rng, DOM, deg=1)
        g = rand_poly(rng, DOM, deg=2)
        g1, g_perp = orth_decompose(f, g)
        fv = f.vector_part()
        dot = fv.star_dot(g_perp)
        wedge_s = fv.star_wedge(g_perp).vsym()
        target = f.vsym().star(g_perp.vsym())
        for z in DOM.sample_points(rng, 15):
            gv = g.stem_at(z).vec()
            recon = g1.scalar_value(z) * f.stem_at(z).vec() \
                + g_perp.stem_at(z).vec()
            assert (gv - recon).norm() <= 1e-10 * max(1.0, gv.norm())
            assert abs(dot.stem_at(z).z0) < 1e-10
            # wedge identity needs only the vector part of g_perp
            pv = g_perp.stem_at(z).vec()
            lhs = f.stem_at(z).vec_norm2() * pv.vec_norm2()
            from slicestar import cq_wedge
            got = cq_wedge(f.stem_at(z), g_perp.stem_at(z)).vec_norm2()
            assert abs(got - lhs) <= 1e-10 * max(1.0, abs(lhs))


def test_orth_decompose_cauchy_extension():
    # f_v = q i has vsym z^2 with an isolated zero at 0; a parallel g with
    # polynomial ratio gamma must be recovered, including at the zero
    dom = Domain(0.0, 1.5)
    fv = polynomial([Quaternion.zero(), I_UNIT], dom)          # z in the i slot
    f = fv + constant(Quaternion(0.2, 0, 0, 0), dom)
    gamma = polynomial([Quaternion(0.7, 0, 0, 0), Quaternion(0.3, 0, 0, 0)], dom)
    g = gamma.star(fv) + constant(Quaternion(0, 0, 0.5, 0), dom)
    g1, g_perp = orth_decompose(f, g)
    assert abs(g1.scalar_value(0j) - 0.7) < 1e-8
    for z in (0.001 + 0.001j, 0.3 - 0.2j, -0.9 + 0.1j):
        assert abs(g1.scalar_value(z) - gamma.scalar_value(z)) < 1e-8


def test_orth_decompose_vanishing():
    f = constant(Quaternion(1.0, 0, 0, 0), DOM)   # no vector part at all
    g = constant(J_UNIT, DOM)
    with pytest.raises(VanishingVectorPart):
        orth_decompose(f, g)


def test_orth_decompose_non_isolated_zero():
    # f_v^s = z^10 is flat at 0: within ORTH_REL_TOL of zero on every
    # Cauchy circle that fits, so no isolated-zero circle is found
    dom = Domain(0.0, 1.0)
    zero = Quaternion.zero()
    f = polynomial([Quaternion.one(), zero, zero, zero, zero, I_UNIT], dom)
    g = polynomial([Quaternion(0.3, 0.2, 0.5, 0.1), Quaternion(0, 0.1, 0, 0.2)], dom)
    g1, _ = orth_decompose(f, g)
    with pytest.raises(NonIsolatedZero):
        g1.scalar_value(0j)


def _i_power(c0: float, k: int, dom: Domain) -> SliceFunction:
    """c0 + z^k i, whose f_v^s = z^(2k) has a zero of order 2k at 0."""
    zero = Quaternion.zero()
    return polynomial([Quaternion(c0, 0, 0, 0)] + [zero] * (k - 1) + [I_UNIT], dom)


@pytest.mark.parametrize("k, z", [(1, 0j), (2, 0j), (3, 0j), (4, 0j),
                                  (1, 0.01 + 0.005j), (2, 0.01 + 0.005j),
                                  (3, 0.01 + 0.005j)])
def test_orth_decompose_removable_zero(k, z):
    # g = gamma f_v + 0.5 j: g1 = gamma, a removable singularity of the
    # quotient where f_v^s = z^(2k) vanishes; at k = 4 the ring of radius 0.1
    # round 0 sits at 1e-8 of the boundary maximum
    dom = Domain(0.0, 1.0)
    f = _i_power(0.2, k, dom)
    gamma = polynomial([Quaternion(0.7, 0, 0, 0), Quaternion(0.3, 0, 0, 0),
                        Quaternion(-0.2, 0, 0, 0)], dom)
    g = gamma.star(f.vector_part()) + constant(Quaternion(0, 0, 0.5, 0), dom)
    g1, _ = orth_decompose(f, g)
    assert abs(g1.scalar_value(z) - gamma.scalar_value(z)) < 1e-8


@pytest.mark.parametrize("f_of, g", [
    # f_v^s = z^2 and <g_v, f_v>_* = 0.2 z: g1 = 0.2 / z, a simple pole
    (lambda dom: _i_power(0.2, 1, dom), [Quaternion(0.3, 0.2, 0.5, 0.1)]),
    # f_v^s = z^8 and <g_v, f_v>_* = (0.2 + 0.1 z) z^4: a pole of order 4
    (lambda dom: _i_power(1.0, 4, dom),
     [Quaternion(0.3, 0.2, 0.5, 0.1), Quaternion(0, 0.1, 0, 0.2)]),
], ids=["simple", "order-4"])
def test_orth_decompose_refuses_a_pole(f_of, g):
    dom = Domain(0.0, 1.0)
    g1, _ = orth_decompose(f_of(dom), polynomial(g, dom))
    with pytest.raises(VanishingVectorPart, match=r"pole within .* of 0j"):
        g1.scalar_value(0j)


@pytest.mark.parametrize("a", [0.03, 0.15])
def test_orth_decompose_pole_beside_a_removable_zero(a):
    # f_v = z (z - a) i and g_v = (0.7 + 0.3 z) z i: g1 = (0.7 + 0.3 z)/(z - a)
    # is regular at the double zero 0 of f_v^s and has a pole at a, inside
    # or just outside the first ring, which the ring's modes reveal
    dom = Domain(0.0, 1.0)
    f = polynomial([Quaternion(0.2, 0, 0, 0), Quaternion(0, -a, 0, 0), I_UNIT], dom)
    g = polynomial([Quaternion(0, 0, 0.5, 0), Quaternion(0, 0.7, 0, 0),
                    Quaternion(0, 0.3, 0, 0)], dom)
    g1, _ = orth_decompose(f, g)
    assert abs(g1.scalar_value(0j) + 0.7 / a) < 1e-8


def test_orth_decompose_near_zero_on_the_boundary():
    # |f_v^s(1)| = 1e-12 counts as a zero, and no ring fits round a point
    # of the boundary circle
    dom = Domain(0.0, 1.0)
    f = polynomial([Quaternion(0.2, -1 + 1e-6, 0, 0), I_UNIT], dom)
    g1, _ = orth_decompose(f, constant(Quaternion(0.3, 0.2, 0.5, 0.1), dom))
    with pytest.raises(NonIsolatedZero, match="around 1.0"):
        g1.scalar_value(1.0)


def test_orth_decompose_build_scans_the_boundary_once():
    # one locus_scan of f_v^s round the circle: SCAN_ARCS points, no halving
    # for this f (f_v^s winds twice), and no interior mesh
    dom = Domain(0.0, 1.0)
    f = _i_power(0.2, 1, dom) + constant(Quaternion(0, 0.1, 0.3, 0), dom)
    calls = []
    stem = f._stem
    counted = SliceFunction(lambda z: calls.append(z) or stem(z), dom)
    orth_decompose(counted, constant(J_UNIT, dom))
    assert len(calls) == 64


def test_mesh_points_has_two_callers():
    # the BCH admission scan and the verify suites' inputs are the only
    # interior meshes left in the library
    callers = set()
    for path in Path(slicefn.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if any(isinstance(node, ast.Attribute) and node.attr == "mesh_points"
                   for node in ast.walk(top)):
                callers.add(path.stem if path.stem == "suites"
                            else f"{path.stem}.{getattr(top, 'name', '')}")
    assert callers == {"bch.bch_condition", "suites"}


def _scalar_draw_points(dom: Domain, rng, n: int, margin_frac: float) -> list[complex]:
    """The reference: sample_points with one scalar draw per uniform."""
    rmax = dom.radius * (1.0 - margin_frac)
    out = []
    for _ in range(n):
        r = rmax * math.sqrt(rng.uniform())
        th = rng.uniform() * 2 * math.pi
        z = dom.center + r * cmath.exp(1j * th)
        if dom.two_sided and rng.uniform() < 0.5:
            z = z.conjugate()
        out.append(z)
    return out


@pytest.mark.parametrize("make_rng", [np.random.default_rng, np.random.RandomState],
                         ids=["generator", "random-state"])
@pytest.mark.parametrize("dom", [Domain(0, 1), DOM_OFF], ids=["real", "off"])
@pytest.mark.parametrize("margin_frac", [0.05, 0.3])
def test_sample_points_match_scalar_draws(make_rng, dom, margin_frac):
    fast, slow = make_rng(11), make_rng(11)
    got = dom.sample_points(fast, 300, margin_frac=margin_frac)
    want = _scalar_draw_points(dom, slow, 300, margin_frac)
    assert [(z.real.hex(), z.imag.hex()) for z in got] == \
        [(z.real.hex(), z.imag.hex()) for z in want]
    assert all(type(z) is complex for z in got)
    assert fast.uniform() == slow.uniform()


def _horner_reference(coeffs, z):
    """The polynomial stem as a CQuaternion Horner loop, acc = acc * z + a."""
    cs = [CQuaternion.from_quaternion(a) for a in coeffs] or [CQuaternion.zero()]
    acc = cs[-1]
    for a in reversed(cs[:-1]):
        acc = acc * z + a
    return acc


def _bits(v: CQuaternion) -> bytes:
    return struct.pack("<8d", *(x for c in v.components() for x in (c.real, c.imag)))


def _disk_points(center: complex, radius: float):
    return st.builds(lambda r, t: center + 0.999 * radius * math.sqrt(r) * cmath.exp(2j * math.pi * t),
                     st.floats(0, 1), st.floats(0, 1))


_UNIT_DISK = Domain(0, 1)
#: (domain, z): both disks of DOM_OFF, and the unit disk with real z as a
#: complex and as a float
_STEM_POINTS = st.one_of(
    st.tuples(st.just(DOM_OFF), _disk_points(DOM_OFF.center, DOM_OFF.radius)),
    st.tuples(st.just(DOM_OFF), _disk_points(DOM_OFF.center.conjugate(), DOM_OFF.radius)),
    st.tuples(st.just(_UNIT_DISK), _disk_points(0j, 1.0)),
    st.tuples(st.just(_UNIT_DISK), st.floats(-0.999, 0.999).map(lambda x: complex(x, 0.0))),
    st.tuples(st.just(_UNIT_DISK), st.floats(-0.999, 0.999)))
_COEFF = st.builds(Quaternion, *(st.floats(-1e3, 1e3) for _ in range(4)))


@pytest.mark.parametrize("degree", range(-1, 7))   # -1: no coefficients
@given(data=st.data(), point=_STEM_POINTS)
def test_polynomial_stem_bitwise_matches_horner_loop(degree, data, point):
    coeffs = data.draw(st.lists(_COEFF, min_size=degree + 1, max_size=degree + 1))
    dom, z = point
    got = polynomial(coeffs, dom).stem_at(z)
    assert type(got) is CQuaternion
    assert _bits(got) == _bits(_horner_reference(coeffs, z))


# -- the quadrature kernel -----------------------------------------------------


def _quadrature_reference(f: SliceFunction, z, npts: int) -> CQuaternion:
    """dF/dz as the CQuaternion loop acc = acc + F(z + r w) * conj(w), with
    the domain checked by ``stem_at`` at every node."""
    d = f.domain.boundary_distance(z)
    if d <= BOUNDARY_FLOOR:
        raise NearBoundary(f"{z} too close to the domain boundary for quadrature")
    r = min(QUAD_RADIUS, d / 2)
    acc = CQuaternion.zero()
    for k in range(npts):
        th = 2 * math.pi * k / npts
        w = cmath.exp(1j * th)
        acc = acc + f.stem_at(z + r * w) * w.conjugate()
    return acc / (npts * r)


def _outcome(fn, *args):
    """The bits of fn(*args), or the class of the error it raises."""
    try:
        return _bits(fn(*args))
    except SliceStarError as exc:
        return type(exc)


def _quad_points(dom: Domain):
    """z on every component of dom: anywhere in the disk, at a boundary
    distance just above BOUNDARY_FLOOR, and real floats on a disk meeting R."""
    edge = dom.radius - 1.5 * BOUNDARY_FLOOR
    centers = [dom.center, dom.center.conjugate()] if dom.two_sided else [dom.center]
    options = [s for c in centers for s in (
        _disk_points(c, dom.radius),
        st.floats(0, 1).map(lambda t, c=c: c + edge * cmath.exp(2j * math.pi * t)))]
    if dom.real_intersecting:
        options.append(st.floats(dom.center.real - 0.999 * dom.radius,
                                 dom.center.real + 0.999 * dom.radius))
    return st.one_of(*options)


@functools.cache
def _log_branch() -> SliceFunction:
    f = generic_poly(np.random.default_rng(8), DOM_OFF, deg=2)
    return star_log(f, LogBranch(1, 0, DOM_OFF.center))


_SMALL_COEFF = st.builds(Quaternion, *(st.floats(-2, 2) for _ in range(4)))


def _quad_function(kind: str, data) -> SliceFunction:
    if kind == "log":
        return _log_branch()            # both disks of DOM_OFF
    dom = data.draw(st.sampled_from([_UNIT_DISK, DOM_OFF]))
    if kind == "exp":
        return star_exp(polynomial(data.draw(st.lists(_SMALL_COEFF, min_size=3, max_size=3)),
                                   dom))
    if kind == "derivative":
        return polynomial(data.draw(st.lists(_COEFF, min_size=4, max_size=4)), dom).derivative()
    degree = int(kind)
    return polynomial(data.draw(st.lists(_COEFF, min_size=degree + 1, max_size=degree + 1)), dom)


@pytest.mark.parametrize("npts", [8, 32, 64])
@pytest.mark.parametrize("kind", ["0", "1", "2", "3", "4", "exp", "log", "derivative"])
@given(data=st.data())
def test_quadrature_bitwise_matches_reference_loop(kind, npts, data):
    with pytest.MonkeyPatch.context() as mp:
        if npts != QUAD_POINTS:
            # the kernel reads its nodes from the module: the same loop at
            # another size, inner derivatives included
            mp.setattr(slicefn, "QUAD_POINTS", npts)
            mp.setattr(slicefn, "QUAD_NODES", tuple(
                (w, w.conjugate()) for w in (cmath.exp(1j * (2 * math.pi * k / npts))
                                             for k in range(npts))))
        f = _quad_function(kind, data)
        z = data.draw(_quad_points(f.domain))
        want = _outcome(_quadrature_reference, f, z, npts)
        assert _outcome(f.stem_derivative_at, z) == want
        calls = [0]

        def counted(w):
            calls[0] += 1
            return f.stem_at(w)

        counted_got = _outcome(SliceFunction(counted, f.domain).stem_derivative_at, z)
        assert counted_got == want
        if not isinstance(want, type):     # a refused inner derivative stops early
            assert calls[0] == npts


@pytest.mark.parametrize("dom", [_UNIT_DISK, DOM_OFF], ids=["real", "off"])
def test_quadrature_refuses_where_the_reference_loop_refuses(dom):
    f = polynomial([Quaternion(1, 2, 3, 4), Quaternion(0.5, -1, 0, 2)], dom)
    centers = [dom.center, dom.center.conjugate()] if dom.two_sided else [dom.center]
    seen = []
    for c in centers:
        for k in range(8):
            u = cmath.exp(2j * math.pi * (k + 0.3) / 8)
            for gap in (-0.5, -1e-6, 0.0, 5e-7, BOUNDARY_FLOOR, 1.0000001e-6, 1.5e-6, 1e-3):
                z = c + (dom.radius - gap) * u
                want = _outcome(_quadrature_reference, f, z, QUAD_POINTS)
                assert _outcome(f.stem_derivative_at, z) == want
                seen.append(want)
    nan = complex(math.nan, 0.0)
    assert _outcome(f.stem_derivative_at, nan) == \
        _outcome(_quadrature_reference, f, nan, QUAD_POINTS) == OutOfDomain
    assert NearBoundary in seen and any(isinstance(v, bytes) for v in seen)


def _nested_star_pow(f: SliceFunction, n: int) -> SliceFunction:
    """The reference: n - 1 nested *-products, each evaluating f again."""
    out = f
    for _ in range(n - 1):
        out = out.star(f)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_star_pow_evaluates_base_once_per_point(rng, n):
    base = star_exp(rand_poly(rng, DOM_OFF, deg=2))
    calls = [0]

    def counted(z):
        calls[0] += 1
        return base._stem(z)

    power = SliceFunction(counted, base.domain, base.node).star_pow(n)
    want = _nested_star_pow(base, n)
    pts = DOM_OFF.sample_points(rng, 40)
    for z in pts + [p.conjugate() for p in pts[:5]]:
        calls[0] = 0
        got = power.stem_at(z)
        assert calls[0] == 1
        assert _bits(got) == _bits(want.stem_at(z))
    assert power.node == want.node


#: each operator, as a function of two operands (f, g) on one domain
_OPERATORS = {
    "neg": lambda f, g: -f,
    "sub": lambda f, g: f - g,
    "scale": lambda f, g: f.scale(-1.7),
    "rmul": lambda f, g: 0.2 * f,
    "truediv": lambda f, g: f / 3,
    "conj": lambda f, g: f.conj(),
    "scalar": lambda f, g: f.scalar_part(),
    "vec": lambda f, g: f.vector_part(),
    "sym": lambda f, g: f.sym(),
    "vsym": lambda f, g: f.vsym(),
    "dot": lambda f, g: f.star_dot(g),
    "wedge": lambda f, g: f.star_wedge(g),
    "add": lambda f, g: f + g,
    "mul": lambda f, g: f.star(g),
    "pow": lambda f, g: f.star_pow(3),
    "exp": lambda f, g: star_exp(f),
    "nested": lambda f, g: star_exp(-(f.conj() * 0.5).star_wedge(g.vsym() + g)),
}


def _kinds(node: dict) -> set:
    out = {node["kind"]}
    for child in [node.get("arg")] + node.get("args", []):
        if child is not None:
            out |= _kinds(child)
    return out


@pytest.mark.parametrize("dom", [_UNIT_DISK, DOM_OFF], ids=["real", "off"])
@pytest.mark.parametrize("op", sorted(_OPERATORS))
def test_operator_nodes_load_back_bit_for_bit(rng, dom, op):
    f, g = rand_poly(rng, dom, deg=2), constant(rand_quat(rng), dom)
    h = _OPERATORS[op](f, g)
    obj = json.loads(json.dumps(function_to_obj(h)))
    again = function_from_obj(obj)
    assert again.node == obj["fn"] == h.node
    for z in dom.sample_points(rng, 20):
        assert _bits(again.stem_at(z)) == _bits(h.stem_at(z))


def test_operators_write_every_node_kind(rng):
    f, g = rand_poly(rng, DOM, deg=2), constant(rand_quat(rng), DOM)
    written = set().union(*(_kinds(op(f, g).node) for op in _OPERATORS.values()))
    assert written == set(slicefn.KINDS)


def test_an_opaque_operand_drops_the_node(rng):
    f = rand_poly(rng, DOM, deg=2)
    for opaque in (f.derivative(), slice_preserving(lambda z: z, DOM)):
        for h in (f + opaque, opaque.star(f), -opaque, opaque.vsym(), star_exp(opaque)):
            assert h.node is None
            with pytest.raises(ValueError, match="no closed-form descriptor"):
                function_to_obj(h)


@pytest.mark.parametrize("by", [math.inf, -math.inf, math.nan])
def test_a_non_finite_scale_drops_the_node(rng, by):
    # the loader refuses a non-finite "by", so no descriptor is written
    f = rand_poly(rng, DOM, deg=2)
    for h in (f.scale(by), f * by, by * f):
        assert h.node is None
        with pytest.raises(ValueError, match="no closed-form descriptor"):
            function_to_obj(h)
        for z in DOM.sample_points(rng, 5):
            assert _bits(h.stem_at(z)) == _bits(f.stem_at(z) * by)
    kept = f.scale(2.5)
    again = function_from_obj(json.loads(json.dumps(function_to_obj(kept))))
    assert again.node == kept.node and again.node["by"] == 2.5


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_a_non_finite_quaternion_drops_the_node(x):
    # the loader refuses a non-finite quaternion entry, so no descriptor is
    # written for a "const" or "poly" that holds one
    q = Quaternion(0.5, x, -0.25, 1.0)
    for h in (constant(q, DOM), polynomial([Quaternion(1, 0, 0, 0), q], DOM)):
        assert h.node is None
        with pytest.raises(ValueError, match="no closed-form descriptor"):
            function_to_obj(h)
    for fn in ({"kind": "const", "value": list(q)},
               {"kind": "poly", "coeffs": [[1, 0, 0, 0], list(q)]}):
        with pytest.raises(ValueError, match="quaternion entries must be finite"):
            function_from_obj({"fn": fn, "domain": DOM.to_json()})
    kept = polynomial([Quaternion(1, 0, 0, 0), Quaternion(0.5, 2.0, -0.25, 1.0)], DOM)
    assert function_from_obj(json.loads(json.dumps(function_to_obj(kept)))).node == kept.node


def test_descriptor_grammar_lists_the_node_kinds():
    # the docstring grammar gives each kind of the table once, with its
    # members' keys in order; both module docstrings and README name each
    listed = {}
    for line in descriptors.__doc__.splitlines():
        rule = re.fullmatch(r'\s*\{"kind": ("\w+"(?: \| "\w+")*), (.*)\}', line)
        if rule:
            for kind in re.findall(r'"(\w+)"', rule.group(1)):
                assert kind not in listed
                listed[kind] = re.findall(r'"(\w+)":', rule.group(2))
    assert listed == {kind: [key for key, _ in shape]
                      for kind, (shape, _) in slicefn.KINDS.items()}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for text in (slicefn.__doc__, readme):
        assert all(f"`{k}`" in text for k in slicefn.KINDS)
