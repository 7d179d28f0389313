import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import cq_exp_series, rand_cq, rand_quat, switch_arguments
from slicestar import (CQuaternion, Domain, EvenTrigPair, LiftPoint, Locus, LogBranch,
                       PathSample, Quaternion, classify, cq_exp, cq_mul, cq_pow, cq_sinc,
                       cq_wedge, even_trig, lift_path, lifted_exp_preimage, polynomial,
                       quat_exp, quat_mul, scalar_deck, star_log)
from slicestar.descriptors import lift_point_from_json, path_from_json


def test_real_embedding_matches_quaternions(rng):
    for _ in range(100):
        p, q = rand_quat(rng), rand_quat(rng)
        zp = CQuaternion.from_quaternion(p)
        zq = CQuaternion.from_quaternion(q)
        expected = CQuaternion.from_quaternion(quat_mul(p, q))
        assert (cq_mul(zp, zq) - expected).norm() < 1e-14


def test_idempotent_zero_divisor():
    # e = 1/2 + (-i/2) i, the stem value of the upper idempotent
    e = CQuaternion(0.5 + 0j, -0.5j, 0j, 0j)
    assert (cq_mul(e, e) - e).norm() < 1e-16
    # it is a zero divisor: e * e^c = 0
    assert abs(e.csym()) < 1e-16


def test_csym_multiplicative(rng):
    for _ in range(300):
        z, w = rand_cq(rng), rand_cq(rng)
        zw = cq_mul(z, w)
        assert abs(zw.csym() - z.csym() * w.csym()) \
            <= 1e-12 * max(1.0, abs(z.csym() * w.csym()))


def test_two_conjugations_commute(rng):
    for _ in range(50):
        z = rand_cq(rng)
        assert (z.conj().bar() - z.bar().conj()).norm() < 1e-16
        # z * z^c is a scalar
        prod = cq_mul(z, z.conj())
        assert abs(prod.z1) + abs(prod.z2) + abs(prod.z3) < 1e-13
        assert abs(prod.z0 - z.csym()) < 1e-13


def test_classify_examples():
    assert classify(CQuaternion(1, 1j, 0, 0)) is Locus.V_MINUS1
    assert classify(CQuaternion(5, 1, 1j, 0)) is Locus.V_INF
    assert classify(CQuaternion(1, 1, 0, 0)) is Locus.GENERIC
    assert classify(CQuaternion(0, 1, 1j, 0)) is Locus.BOTH


def test_even_trig_special_values():
    et = even_trig(0.0)
    assert et.cosr == pytest.approx(1.0)
    assert et.sincr == pytest.approx(1.0)
    et = even_trig(math.pi ** 2)
    assert abs(et.cosr + 1) < 1e-14
    assert abs(et.sincr) < 1e-14
    et = even_trig(-1.0)
    assert abs(et.cosr - math.cosh(1.0)) < 1e-14
    assert abs(et.sincr - math.sinh(1.0)) < 1e-14


def test_even_trig_series_cross_check(rng):
    for _ in range(80):
        w = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        et = even_trig(w)
        c, s = 0j, 0j
        term_c, term_s = 1 + 0j, 1 + 0j
        for m in range(1, 40):
            c += term_c
            s += term_s
            term_c *= -w / ((2 * m - 1) * (2 * m))
            term_s *= -w / ((2 * m) * (2 * m + 1))
        assert abs(et.cosr - c) < 1e-11 * max(1.0, abs(c))
        assert abs(et.sincr - s) < 1e-11 * max(1.0, abs(s))


def _even_trig_series_loop(w) -> tuple[complex, complex]:
    """The series loop even_trig ran before its denominators were
    precomputed: the reference its series branch must match bit for bit."""
    w = complex(w)
    cosr = sincr = term_c = term_s = 1 + 0j
    for m in range(1, 26):
        term_c *= -w / ((2 * m - 1) * (2 * m))
        term_s *= -w / ((2 * m) * (2 * m + 1))
        cosr += term_c
        sincr += term_s
        if abs(term_c) < 1e-18 and abs(term_s) < 1e-18:
            break
    return cosr, sincr


def _complex_bits(*values: complex) -> list[str]:
    return [float.hex(x) for v in values for x in (v.real, v.imag)]


_BELOW_ONE = math.nextafter(1.0, 0.0)


@given(st.one_of(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    st.floats(-_BELOW_ONE, _BELOW_ONE),                        # real axis, as a float
    st.floats(-_BELOW_ONE, _BELOW_ONE).map(lambda y: complex(0.0, y)),
    st.floats(0, 2 * math.pi).map(lambda t: _BELOW_ONE * cmath.exp(1j * t))))
@example(0.0)
@example(0j)
@example(complex(0.5, 0.0))
@example(complex(0.5, -0.0))
@example(complex(-0.0, -0.0))
@example(complex(0.0, 0.75))
@example(complex(-0.0, -0.75))
@example(_BELOW_ONE)
@example(-_BELOW_ONE)
@example(complex(0.0, _BELOW_ONE))
@example(complex(0.6, 0.8) * _BELOW_ONE)
def test_even_trig_series_bitwise_matches_reference_loop(w):
    assume(abs(complex(w)) < 1.0)
    got = even_trig(w)
    assert _complex_bits(*got) == _complex_bits(*_even_trig_series_loop(w))


def test_even_trig_pythagoras_and_branch_freedom(rng):
    for _ in range(200):
        w = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        et = even_trig(w)
        assert abs(et.cosr ** 2 + w * et.sincr ** 2 - 1) < 1e-12
        if abs(w) >= 1.0:
            r = cmath.sqrt(w)
            # the pair is even in the chosen root: -r gives identical values
            assert et.cosr == cmath.cos(-r)
            assert et.sincr == cmath.sin(-r) / (-r)


def test_even_trig_continuous_at_series_switch():
    # the implementation switches from series to closed forms at |w| = 1
    for k in range(8):
        w = cmath.exp(2j * math.pi * k / 8)
        lo = even_trig(w * (1 - 1e-12))
        hi = even_trig(w * (1 + 1e-12))
        assert abs(lo.cosr - hi.cosr) < 1e-11
        assert abs(lo.sincr - hi.sincr) < 1e-11


def test_even_trig_vs_mpmath_across_series_switch():
    worst = 0.0
    with mpmath.workdps(40):
        for w in switch_arguments():
            r = mpmath.sqrt(mpmath.mpc(w))
            et = even_trig(w)
            for got, want in ((et.cosr, mpmath.cos(r)), (et.sincr, mpmath.sin(r) / r)):
                worst = max(worst, float(abs(got - want) / abs(want)))
    assert worst < 1e-13


def test_power_recurrence(rng):
    for _ in range(60):
        z = rand_cq(rng, 0.8)
        assert (cq_pow(z, 1) - z).norm() < 1e-16
        power = z
        for n in range(2, 7):
            power = cq_mul(power, z)
            assert (cq_pow(z, n) - power).norm() <= 1e-12 * max(1.0, power.norm())
    with pytest.raises(ValueError):
        cq_pow(rand_cq(rng), 0)


def test_power_of_exp(rng):
    for _ in range(60):
        z = rand_cq(rng, 0.5)
        for n in range(1, 7):
            lhs = cq_pow(cq_exp(z), n)
            rhs = cq_exp(z * n)
            assert (lhs - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())


def test_exp_on_vinf_remark():
    # n(z) = 0: eps(z0 + vec) = e^{z0} (1 + vec)
    vec = CQuaternion(0j, 1 + 0j, 1j, 0j)    # isotropic: n = 1 - 1 = 0
    z = CQuaternion(0.7 - 0.2j, vec.z1, vec.z2, vec.z3)
    out = cq_exp(z)
    e0 = cmath.exp(z.z0)
    expected = CQuaternion(e0, e0 * vec.z1, e0 * vec.z2, e0 * vec.z3)
    assert (out - expected).norm() < 1e-14


def test_exp_restricts_to_quat_exp(rng):
    for _ in range(100):
        q = rand_quat(rng, 1.5)
        lhs = cq_exp(CQuaternion.from_quaternion(q))
        rhs = CQuaternion.from_quaternion(quat_exp(q))
        assert (lhs - rhs).norm() < 1e-13 * max(1.0, rhs.norm())


def test_exp_vs_series_oracle(rng):
    for _ in range(60):
        z = rand_cq(rng, 0.7)   # |z| <= 2 regime
        assert (cq_exp(z) - cq_exp_series(z)).norm() < 1e-10


def test_exp_scalar_deck_invariance(rng):
    for _ in range(60):
        z = rand_cq(rng)
        assert (cq_exp(scalar_deck(z)) - cq_exp(z)).norm() \
            <= 1e-12 * max(1.0, cq_exp(z).norm())


def test_exp_inverse_identity(rng):
    for _ in range(100):
        z = rand_cq(rng, 0.8)
        assert (cq_mul(cq_exp(z), cq_exp(-z)) - CQuaternion.one()).norm() < 1e-12


def test_exp_avoids_loci_off_lattice(rng):
    for _ in range(100):
        z = rand_cq(rng, 0.9)
        w = z.vec_norm2()
        # stay away from the lattice n(z) = h^2 pi^2
        if min(abs(w), abs(w - math.pi ** 2)) < 1e-2:
            continue
        assert classify(cq_exp(z)) is Locus.GENERIC


def test_sinc_value_at_zero():
    out = cq_sinc(CQuaternion.zero())
    assert (out - CQuaternion.one()).norm() < 1e-16


def test_sinc_identity_with_sine(rng):
    # cq_sinc(z^2) * z equals the power-series sine of z
    for _ in range(40):
        z = rand_cq(rng, 0.6)
        lhs = cq_mul(cq_sinc(cq_mul(z, z)), z)
        sine = CQuaternion.zero()
        power = z
        zsq = cq_mul(z, z)
        for m in range(25):
            sine = sine + power * ((-1) ** m / math.factorial(2 * m + 1))
            power = cq_mul(power, zsq)
        assert (lhs - sine).norm() < 1e-12

    # pure-vector special case: scalar part stays zero and the value is
    # sinh(|q_v|)/|q_v| * q_v for real embedded vectors
    q = Quaternion(0, 0.4, -0.3, 0.8)
    z = CQuaternion.from_quaternion(q)
    out = cq_mul(cq_sinc(cq_mul(z, z)), z)
    assert abs(out.z0) < 1e-15
    t = q.vec_norm()
    expected = CQuaternion.from_quaternion(q * (math.sinh(t) / t))
    assert (out - expected).norm() < 1e-13


def test_sinc_vs_direct_series(rng):
    for _ in range(60):
        z = rand_cq(rng, 0.5)   # |z| <= 1.5 regime
        series = CQuaternion.zero()
        power = CQuaternion.one()
        for m in range(30):
            series = series + power * ((-1) ** m / math.factorial(2 * m + 1))
            power = cq_mul(power, z)
        assert (cq_sinc(z) - series).norm() < 1e-12


# -- the value types' contract --------------------------------------------

VALUES = [
    (CQuaternion(1 + 2j, 0j, -1j, 0.5 + 0j), "CQuaternion(z0=(1+2j), z1=0j, z2=(-0-1j), z3=(0.5+0j))"),
    (Quaternion(1.0, -2.5, 0.0, 3.0), "Quaternion(q0=1.0, q1=-2.5, q2=0.0, q3=3.0)"),
    (EvenTrigPair(1 + 0j, 0.5 - 0.25j), "EvenTrigPair(cosr=(1+0j), sincr=(0.5-0.25j))"),
]
VALUE_IDS = [type(v).__name__ for v, _ in VALUES]


def _kernel_results() -> list[tuple[str, object, type]]:
    """(name, result, class) for each kernel that builds its result with
    ``tuple.__new__`` instead of the class's constructor."""
    a = CQuaternion(0.3 + 0.1j, -1.2 + 0.2j, 0.7 - 0.3j, 0.25 + 0.05j)
    b = CQuaternion(-0.4 + 0.3j, 0.9 - 0.1j, 0.1 + 0.2j, -0.6 + 0.4j)
    p, q = Quaternion(0.3, -1.2, 0.7, 0.25), Quaternion(-0.4, 0.9, 0.1, -0.6)
    dom = Domain(0.3 + 1.5j, 0.8)
    f = polynomial([Quaternion(2, 0.9, 0.3, 0.1), Quaternion(0.3, 0.2, 0.1, 0.2)], dom)
    g = star_log(f, LogBranch(0, 0, dom.center))
    z = 0.4 + 1.3j
    s_json = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    path = path_from_json({"samples": [
        {"t": 0.0, "w0": [1.0, 0.0], "w1": [0.5, 0.0], "s": s_json},
        {"t": 1.0, "w0": [0.5, 0.5], "w1": [0.25, -0.5], "s": s_json}]})
    start = lift_point_from_json({"u0": [0.1, 0.0], "u1": [0.4, 0.0], "s": s_json})
    lifted = lift_path(path, lifted_exp_preimage(1.0 + 0j, 0.5 + 0j, path.samples[0].s))
    CQ, Q = CQuaternion, Quaternion
    return [
        ("cq_mul", cq_mul(a, b), CQ), ("cq_exp", cq_exp(a), CQ),
        ("cq_exp_series", cq_exp(a * 0.1), CQ), ("cq_pow", cq_pow(a, 3), CQ),
        ("cq_sinc", cq_sinc(a), CQ), ("cq_wedge", cq_wedge(a, b), CQ),
        ("CQuaternion.add", a + b, CQ), ("CQuaternion.sub", a - b, CQ),
        ("CQuaternion.neg", -a, CQ), ("CQuaternion.mul", a * b, CQ),
        ("CQuaternion.mul_scalar", a * 2.0, CQ), ("CQuaternion.rmul", 2.0 * a, CQ),
        ("CQuaternion.truediv", a / 2.0, CQ), ("CQuaternion.conj", a.conj(), CQ),
        ("CQuaternion.bar", a.bar(), CQ), ("CQuaternion.vec", a.vec(), CQ),
        ("CQuaternion.real_part", a.real_part(), Q), ("CQuaternion.imag_part", a.imag_part(), Q),
        ("quat_mul", quat_mul(p, q), Q), ("quat_exp", quat_exp(p), Q),
        ("Quaternion.add", p + q, Q), ("Quaternion.sub", p - q, Q), ("Quaternion.neg", -p, Q),
        ("Quaternion.mul", p * q, Q), ("Quaternion.mul_scalar", p * 2.0, Q),
        ("Quaternion.rmul", 2.0 * p, Q), ("Quaternion.truediv", p / 2.0, Q),
        ("Quaternion.conj", p.conj(), Q), ("Quaternion.vec", p.vec(), Q),
        ("even_trig_series", even_trig(0.3 + 0.4j), EvenTrigPair),
        ("even_trig_closed", even_trig(2 - 1j), EvenTrigPair),
        ("polynomial_stem", f.stem_at(z), CQ), ("star_log_stem", g.stem_at(z), CQ),
        ("star_log_batch", g.with_inputs_at([z])[0][0], CQ),
        ("path_from_json", path.samples[1], PathSample),
        ("lift_point_from_json", start, LiftPoint), ("lift_path", lifted[1], LiftPoint),
    ]


KERNEL_RESULTS = _kernel_results()
KERNEL_IDS = [name for name, _, _ in KERNEL_RESULTS]


def _repr_text(value) -> str:
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(value._fields, value))
    return f"{type(value).__name__}({fields})"


def _copy_field(c):
    """An equal field that is a different object: c + 0 for a number, a
    rebuilt value for a value-type field."""
    return type(c)(*map(_copy_field, c)) if isinstance(c, tuple) else c + 0


@pytest.mark.parametrize("value, text", VALUES + [(v, _repr_text(v)) for _, v, _ in KERNEL_RESULTS],
                         ids=VALUE_IDS + KERNEL_IDS)
def test_value_types_are_immutable(value, text):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0.0)
    with pytest.raises(AttributeError):
        value.extra = 0.0
    assert repr(value) == text


@pytest.mark.parametrize("value, text", VALUES + [(v, None) for _, v, _ in KERNEL_RESULTS],
                         ids=VALUE_IDS + KERNEL_IDS)
def test_value_types_hash_like_their_fields(value, text):
    twin = type(value)(*map(_copy_field, value))
    assert twin is not value and twin == value and not twin != value
    assert hash(twin) == hash(value)
    assert len({value, twin}) == 1


@pytest.mark.parametrize("name, value, cls", KERNEL_RESULTS, ids=KERNEL_IDS)
def test_kernel_results_are_their_class(name, value, cls):
    # built with tuple.__new__, the result is still exactly the class
    assert type(value) is cls
    assert value == cls(*value) and type(cls(*value)) is cls


def test_value_types_equal_only_within_their_class():
    cq, q = CQuaternion(1, 0, 0, 0), Quaternion(1, 0, 0, 0)
    for other in (q, (1, 0, 0, 0), [1, 0, 0, 0]):
        assert cq != other and not cq == other
        assert other != cq and not other == cq
    assert q != (1, 0, 0, 0) and (1, 0, 0, 0) != q
    assert EvenTrigPair(1, 0) != (1, 0) and (1, 0) != EvenTrigPair(1, 0)
    four = (CQuaternion, Quaternion, PathSample)
    for _, value, cls in KERNEL_RESULTS:
        others = [tuple(value), list(value)]
        others += [tuple.__new__(c, value) for c in four if c is not cls and len(value) == 4]
        if cls is LiftPoint:            # nor its plain NamedTuple base
            others.append(tuple.__new__(LiftPoint.__mro__[1], value))
        for other in others:
            assert value != other and not value == other
            assert other != value and not other == value


def test_norm_overflows_instead_of_returning_inf():
    # abs(x) ** 2 raises where x * x would return inf; the CLI turns the
    # OverflowError into a one-line library failure
    with pytest.raises(OverflowError):
        CQuaternion(1e200, 0j, 0j, 0j).norm()


@pytest.mark.parametrize("scalar", [np.float64(0.75), np.complex128(0.5 - 1.25j)],
                         ids=["float64", "complex128"])
def test_numpy_scalars_scale_value_types(scalar):
    # numpy scalars defer to __rmul__ instead of broadcasting over the tuple
    py = scalar.item()
    values = [CQuaternion(1 + 2j, -0.5j, 3 + 0j, 0.25 - 1j)]
    if isinstance(py, float):
        values.append(Quaternion(1.0, -2.5, 0.5, 3.0))
    for v in values:
        for got in (scalar * v, v * scalar):
            assert type(got) is type(v)
            assert got == py * v == v * py
