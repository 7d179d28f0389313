import cmath
import math

import pytest

from conftest import rand_cq
from slicestar import (BranchIndex, CQuaternion, LiftPoint, SampledPath,
                       branch_translate, concatenate, cq_exp, deck_translate,
                       is_exp_deck, lift_path, lifted_exp, lifted_exp_preimage,
                       loop_monodromy, project, project_fibers,
                       root_deck_action, root_monodromy_generators,
                       scalar_deck, sheet_swap, unit_imaginary)
from slicestar.errors import (BadOrder, BadStart, NotALoop, OnVinf, OnW,
                              PathTooWild)

I_VEC = CQuaternion(0j, 1 + 0j, 0j, 0j)


def rand_lift(rng, spread=1.0) -> LiftPoint:
    s = unit_imaginary(CQuaternion(0j, *(rng.standard_normal(3)
                                         + 0.3j * rng.standard_normal(3))))
    return LiftPoint(complex(*(spread * rng.standard_normal(2))),
                     complex(*(spread * rng.standard_normal(2))), s)


def test_lift_point_validates_unit():
    good = LiftPoint(0j, 0j, I_VEC)
    for bad in (CQuaternion(0j, 2 + 0j, 0j, 0j), CQuaternion(1 + 0j, 1 + 0j, 0j, 0j)):
        # every way of building one checks s, the tuple helpers too
        for build in (lambda: LiftPoint(0j, 0j, bad), lambda: LiftPoint._make((0j, 0j, bad)),
                      lambda: good._replace(s=bad)):
            with pytest.raises(ValueError):
                build()


def test_projection_simple():
    p = LiftPoint(1.5 + 0j, 2.5 + 0j, I_VEC)
    assert (project(p) - CQuaternion(1.5, 2.5, 0, 0)).norm() < 1e-15


def test_projection_sheet_swap_invariance(rng):
    for _ in range(100):
        p = rand_lift(rng)
        assert (project(sheet_swap(p)) - project(p)).norm() < 1e-14
    # the swap is an involution
    p = rand_lift(rng)
    q = sheet_swap(sheet_swap(p))
    assert abs(q.u0 - p.u0) + abs(q.u1 - p.u1) + (q.s - p.s).norm() < 1e-15


def test_fibers_of_double_cover(rng):
    f1, f2 = project_fibers(CQuaternion(0, 1, 0, 0))
    assert abs(f1.u1 - 1) < 1e-15 and abs(f2.u1 + 1) < 1e-15
    for _ in range(100):
        z = rand_cq(rng)
        if abs(z.vec_norm2()) < 1e-3:
            continue
        a, b = project_fibers(z)
        assert (project(a) - z).norm() < 1e-13
        assert (project(b) - z).norm() < 1e-13
        sw = sheet_swap(a)
        assert abs(sw.u0 - b.u0) + abs(sw.u1 - b.u1) + (sw.s - b.s).norm() < 1e-13
    with pytest.raises(OnVinf):
        project_fibers(CQuaternion(1, 1, 1j, 0))


def test_lifted_exp_basics(rng):
    p = LiftPoint(0j, 0j, I_VEC)
    img = lifted_exp(p)
    assert abs(img.u0 - 1) < 1e-15 and abs(img.u1) < 1e-15
    for _ in range(200):
        p = rand_lift(rng)
        img = lifted_exp(p)
        # image avoids the cone w0^2 + w1^2 = 0: equals e^{2 u0}
        assert abs(img.u0 ** 2 + img.u1 ** 2
                   - cmath.exp(2 * p.u0)) < 1e-12 * abs(cmath.exp(2 * p.u0))


def test_exp_intertwines_projection(rng):
    for _ in range(200):
        p = rand_lift(rng)
        lhs = cq_exp(project(p))
        rhs = project(lifted_exp(p))
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


def test_preimage_base_case():
    s = I_VEC
    p = lifted_exp_preimage(1 + 0j, 0j, s)
    assert abs(p.u0) < 1e-15 and abs(p.u1) < 1e-15


def test_preimage_round_trip_and_translation(rng):
    for _ in range(200):
        w0 = complex(*rng.standard_normal(2))
        w1 = complex(*rng.standard_normal(2))
        if abs(w0 + 1j * w1) < 1e-3 or abs(w0 - 1j * w1) < 1e-3:
            continue
        s = rand_lift(rng).s
        h = BranchIndex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        p = lifted_exp_preimage(w0, w1, s, h)
        img = lifted_exp(p)
        assert abs(img.u0 - w0) + abs(img.u1 - w1) < 1e-12

        hp = BranchIndex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        q = lifted_exp_preimage(w0, w1, s, hp)
        delta = BranchIndex(h.h1 - hp.h1, h.h2 - hp.h2)
        moved = branch_translate(q, delta)
        assert abs(moved.u0 - p.u0) + abs(moved.u1 - p.u1) < 1e-12
    with pytest.raises(OnW):
        lifted_exp_preimage(1 + 0j, 1j, I_VEC)


def test_preimage_fiber_box_distinct(rng):
    w0, w1 = 0.8 + 0.3j, -0.4 + 0.5j
    s = I_VEC
    points = {}
    for h1 in range(-2, 3):
        for h2 in range(-2, 3):
            p = lifted_exp_preimage(w0, w1, s, BranchIndex(h1, h2))
            img = lifted_exp(p)
            assert abs(img.u0 - w0) + abs(img.u1 - w1) < 1e-12
            for key, other in points.items():
                assert abs(p.u0 - other.u0) + abs(p.u1 - other.u1) > 1e-6, \
                    f"{(h1, h2)} collides with {key}"
            points[(h1, h2)] = p


def test_deck_translations(rng):
    from slicestar import require_exp_deck
    from slicestar.errors import NotDeck
    assert is_exp_deck(1, 1) and is_exp_deck(2, 0) and not is_exp_deck(1, 0)
    require_exp_deck(3, -1)
    with pytest.raises(NotDeck):
        require_exp_deck(1, 0)
    for _ in range(100):
        p = rand_lift(rng)
        img = lifted_exp(p)
        for a, b in ((1, 1), (2, 0), (-1, 3), (0, 2)):
            moved = lifted_exp(deck_translate(p, a, b))
            assert abs(moved.u0 - img.u0) + abs(moved.u1 - img.u1) < 1e-12
        for a, b in ((1, 0), (0, 1), (2, 1)):
            moved = lifted_exp(deck_translate(p, a, b))
            # odd parity flips the sign of (w0, w1)
            assert abs(moved.u0 + img.u0) + abs(moved.u1 + img.u1) < 1e-12


def test_swap_conjugates_translations(rng):
    # sheet_swap . T(a,b) = T(a,-b) . sheet_swap
    for _ in range(50):
        p = rand_lift(rng)
        lhs = sheet_swap(deck_translate(p, 1, -1))
        rhs = deck_translate(sheet_swap(p), 1, 1)
        assert abs(lhs.u0 - rhs.u0) + abs(lhs.u1 - rhs.u1) < 1e-14
        assert (lhs.s - rhs.s).norm() < 1e-14


def test_only_vertical_even_decks_descend(rng):
    # T(2k, 0) descends to the scalar shift by 2 pi i k; others do not
    for _ in range(50):
        p = rand_lift(rng)
        lhs = project(deck_translate(p, 2, 0))
        rhs = scalar_deck(project(p), 1)
        assert (lhs - rhs).norm() < 1e-13
        moved = project(deck_translate(p, 1, 1))
        assert (moved - scalar_deck(project(p), 1)).norm() > 1e-3 \
            or abs(p.u1) < 1e-8
    for _ in range(50):
        z = rand_cq(rng)
        assert (cq_exp(scalar_deck(z)) - cq_exp(z)).norm() \
            <= 1e-12 * max(1.0, cq_exp(z).norm())


def circle_path(n=64, s=I_VEC):
    return SampledPath.from_points(
        [(k / n, cmath.cos(2 * math.pi * k / n),
          cmath.sin(2 * math.pi * k / n), s) for k in range(n + 1)])


def test_lift_constant_path():
    s = I_VEC
    pts = [(k / 4, 1.3 + 0.2j, 0.4 - 0.1j, s) for k in range(5)]
    path = SampledPath.from_points(pts)
    start = lifted_exp_preimage(1.3 + 0.2j, 0.4 - 0.1j, s)
    lifted = lift_path(path, start)
    for p in lifted:
        assert abs(p.u0 - start.u0) + abs(p.u1 - start.u1) < 1e-12


def test_lift_path_hits_targets(rng):
    s = I_VEC
    n = 48
    pts = []
    for k in range(n + 1):
        t = 2 * math.pi * k / n
        pts.append((k / n, 1.5 * cmath.exp(2j * t) + 0.2,
                    0.7 * cmath.exp(-1j * t), s))
    path = SampledPath.from_points(pts)
    start = lifted_exp_preimage(pts[0][1], pts[0][2], s)
    lifted = lift_path(path, start)
    for (t, w0, w1, _), p in zip(pts, lifted):
        img = lifted_exp(p)
        assert abs(img.u0 - w0) + abs(img.u1 - w1) < 1e-9


def test_lift_is_exact_log_at_every_sample():
    # each lifted point is Log + 2 pi i k of its own sample, not a sum of
    # increments, so refining the path leaves the shared samples bitwise equal
    s = I_VEC

    def path(n):
        pts = []
        for k in range(n + 1):
            t = 2 * math.pi * (k / n)
            pts.append((k / n, 1.5 * cmath.exp(2j * t) + 0.2,
                        0.7 * cmath.exp(-1j * t), s))
        return SampledPath.from_points(pts)

    coarse, fine = path(40), path(80)
    start = lifted_exp_preimage(coarse.start().w0, coarse.start().w1, s)
    assert lift_path(coarse, start) == lift_path(fine, start)[::2]


def test_lift_errors():
    s = I_VEC
    path = circle_path()
    bad = LiftPoint(0.5 + 0j, 0.5 + 0j, s)
    with pytest.raises(BadStart):
        lift_path(path, bad)
    # a sample exactly on the cone w0^2 + w1^2 = 0
    pts = [(0.0, 1 + 0j, 0j, s), (0.5, 1j, 1 + 0j, s), (1.0, 1 + 0j, 0j, s)]
    with pytest.raises(OnW):
        lift_path(SampledPath.from_points(pts),
                  lifted_exp_preimage(1 + 0j, 0j, s))
    # crossing arbitrarily close to the cone exhausts refinement
    pts = [(0.0, 1 + 0j, 0j, s), (1.0, -1 + 2e-9j, 0j, s)]
    with pytest.raises(PathTooWild):
        lift_path(SampledPath.from_points(pts),
                  lifted_exp_preimage(1 + 0j, 0j, s))


def test_loop_monodromy_canonical():
    s = I_VEC
    start = lifted_exp_preimage(1 + 0j, 0j, s)
    assert loop_monodromy(circle_path(), start) == BranchIndex(1, -1)

    n = 64
    pts = [(k / n, cmath.exp(2j * math.pi * k / n), 0j, s) for k in range(n + 1)]
    assert loop_monodromy(SampledPath.from_points(pts), start) == BranchIndex(1, 1)

    pts = [(k / n, 2 + 0.3 * cmath.cos(2 * math.pi * k / n),
            0.3 * cmath.sin(2 * math.pi * k / n), s) for k in range(n + 1)]
    start2 = lifted_exp_preimage(2.3 + 0j, 0j, s)
    assert loop_monodromy(SampledPath.from_points(pts), start2) == BranchIndex(0, 0)


def test_loop_monodromy_additive_and_reversal(rng):
    s = I_VEC
    n = 48
    for _ in range(20):
        ra, rb = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        loops = []
        for _ in range(2):
            na, nb = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
            pts = []
            for k in range(n + 1):
                t = 2 * math.pi * k / n
                alpha = ra * cmath.exp(1j * na * t)
                beta = rb * cmath.exp(1j * nb * t)
                pts.append((k / n, (alpha + beta) / 2, (alpha - beta) / 2j, s))
            loops.append((SampledPath.from_points(pts), BranchIndex(na, nb)))
        (p1, h1), (p2, h2) = loops
        start = lifted_exp_preimage(p1.start().w0, p1.start().w1, s)
        got = loop_monodromy(concatenate(p1, p2), start)
        assert got == BranchIndex(h1.h1 + h2.h1, h1.h2 + h2.h2)
        # reversal inverts
        rev = SampledPath.from_points(
            [(1 - q.t, q.w0, q.w1, q.s) for q in reversed(p1.samples)])
        assert loop_monodromy(rev, start) == BranchIndex(-h1.h1, -h1.h2)


def test_loop_monodromy_errors():
    s = I_VEC
    pts = [(0.0, 1 + 0j, 0j, s), (1.0, 2 + 0j, 0j, s)]
    with pytest.raises(NotALoop):
        loop_monodromy(SampledPath.from_points(pts),
                       lifted_exp_preimage(1 + 0j, 0j, s))


def test_s_interpolation_stays_on_sphere():
    # lifting refines between samples with different s; interpolation must
    # renormalize back onto the sphere of imaginary units
    s0 = unit_imaginary(CQuaternion(0j, 1 + 0j, 0j, 0j))
    s1 = unit_imaginary(CQuaternion(0j, 0.8 + 0j, 0.6 + 0j, 0j))
    n = 8
    pts = []
    for k in range(n + 1):
        t = k / n
        sv = s0 + (s1 - s0) * t
        pts.append((t, cmath.exp(1j * t), 0.2 + 0j, unit_imaginary(sv)))
    path = SampledPath.from_points(pts)
    start = lifted_exp_preimage(pts[0][1], pts[0][2], s0)
    lifted = lift_path(path, start)
    for p in lifted:
        assert abs(p.s.vec_norm2() - 1) < 1e-12


def test_root_monodromy_generators():
    with pytest.raises(BadOrder):
        root_monodromy_generators(1)

    gens = root_monodromy_generators(2)
    classes = {g.branch: g for g in gens}
    g10 = classes[BranchIndex(1, 0)]
    assert abs(g10.xi - 1j) < 1e-15 and abs(g10.eta - 1j) < 1e-15

    gens = root_monodromy_generators(3)
    assert len(gens) == 2            # odd order: no extra [(1,0)] class
    g11 = {g.branch: g for g in gens}[BranchIndex(1, 1)]
    assert abs(g11.xi - cmath.exp(2j * math.pi / 3)) < 1e-15
    assert abs(g11.eta - 1) < 1e-15


def test_root_generator_action_identity(rng):
    # e((u + translation)/n) = xi * R_eta applied to e(u/n)
    for n in range(2, 6):
        for gen in root_monodromy_generators(n):
            for _ in range(20):
                p = rand_lift(rng)
                moved = branch_translate(p, gen.branch)
                lhs = lifted_exp(LiftPoint(moved.u0 / n, moved.u1 / n, p.s))
                base = lifted_exp(LiftPoint(p.u0 / n, p.u1 / n, p.s))
                w0, w1 = root_deck_action(gen, base.u0, base.u1)
                assert abs(lhs.u0 - w0) + abs(lhs.u1 - w1) \
                    < 1e-10 * max(1.0, abs(w0) + abs(w1))
