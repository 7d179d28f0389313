import ast
import math
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

from slicestar import CQuaternion, Quaternion, cq_mul, quat_mul, unit_imaginary
from slicestar import suites
from slicestar.suites import (PROPERTIES, SuiteConfig, _additivity_loops, _ladder_bracket,
                              _rand_unit, _rng, cq_exp_series, cq_sinc_series,
                              quat_exp_series, rand_cq, rand_quat)


def test_table_declares_each_property_and_generator_once():
    tree = ast.parse(Path(suites.__file__).read_text())
    # only the runner draws: a loop gets its generator from its table entry
    drawers = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for call in ast.walk(fn) if isinstance(call, ast.Call)
               and getattr(call.func, "id", None) == "_rng"]
    assert drawers == ["run_suite"]
    indices = [index for _, index, _, _ in PROPERTIES if index is not None]
    assert len(indices) == len(set(indices))
    literals = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)]
    assert all(literals.count(name) == 1 for _, _, props, _ in PROPERTIES for name, _ in props)


# -- the draws are Python numbers ------------------------------------------------


def _types(values) -> set:
    return {type(v) for v in values}


def test_draws_are_python_numbers():
    # numpy scalars would route the suites' arithmetic through numpy's
    # complex kernels, whose last bits differ from CPython's
    rng = _rng(SuiteConfig(), 0)
    for _ in range(20):
        assert _types(rand_quat(rng, 0.7)) == {float}
        assert _types(rand_cq(rng, 0.7)) == {complex}
        assert _types(_rand_unit(rng)) == {complex}


def test_additivity_loop_points_are_python_numbers():
    s = unit_imaginary(CQuaternion(0j, 1 + 0j, 0j, 0j))
    pairs = list(_additivity_loops(_rng(SuiteConfig(), 16), 6, s, 8))
    assert len(pairs) == 6
    for loops in pairs:
        for path, _ in loops:
            for p in path.samples:
                assert type(p.t) is float
                assert _types((p.w0, p.w1, *p.s)) == {complex}


# -- the flat series oracles equal the kernel-built loops bit for bit -----------


def _bits(v) -> list[str]:
    return [float.hex(x) for c in v for x in (complex(c).real, complex(c).imag)]


def _quat_exp_series_loop(q: Quaternion, terms: int = 40) -> Quaternion:
    acc = Quaternion.one()
    power = Quaternion.one()
    fact = 1.0
    for n in range(1, terms):
        power = quat_mul(power, q)
        fact *= n
        acc = acc + power / fact
    return acc


def _cq_exp_series_loop(z: CQuaternion, terms: int = 60) -> CQuaternion:
    acc = CQuaternion.one()
    power = CQuaternion.one()
    fact = 1.0
    for n in range(1, terms):
        power = cq_mul(power, z)
        fact *= n
        acc = acc + power / fact
    return acc


def _cq_sinc_series_loop(z: CQuaternion) -> CQuaternion:
    series = CQuaternion.zero()
    power = CQuaternion.one()
    for m in range(30):
        series = series + power * ((-1) ** m / math.factorial(2 * m + 1))
        power = cq_mul(power, z)
    return series


def _ladder_bracket_loop(fz: CQuaternion, dz: CQuaternion, terms: int = 34) -> CQuaternion:
    acc = dz
    nested = dz
    fact = 1.0
    for m in range(2, terms + 1):
        nested = cq_mul(fz, nested) - cq_mul(nested, fz)
        fact *= m
        acc = acc + nested * ((-1) ** (m - 1) / fact)
    return acc


_REAL = st.floats(-2.0, 2.0)
_COMPLEX = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_QUATS = st.builds(Quaternion, _REAL, _REAL, _REAL, _REAL)
_CQS = st.builds(CQuaternion, _COMPLEX, _COMPLEX, _COMPLEX, _COMPLEX)
_SIGNED_ZEROS = CQuaternion(complex(-0.0, 0.0), complex(0.0, -0.0), -0j, 0j)


@given(_QUATS)
@example(Quaternion(0.0, 0.0, 0.0, 0.0))
@example(Quaternion(-0.0, 0.0, -0.0, 1.0))
@example(Quaternion(0.3, -1.2, 0.7, 0.1))
def test_quat_exp_series_bitwise_matches_reference_loop(q):
    assert _bits(quat_exp_series(q)) == _bits(_quat_exp_series_loop(q))


@given(_CQS)
@example(CQuaternion(0j, 0j, 0j, 0j))
@example(_SIGNED_ZEROS)
@example(CQuaternion(0.5 + 0j, 0.2j, 0.7 - 0.1j, -0.3 + 0j))
def test_cq_exp_series_bitwise_matches_reference_loop(z):
    assert _bits(cq_exp_series(z)) == _bits(_cq_exp_series_loop(z))


@given(_CQS)
@example(CQuaternion(0j, 0j, 0j, 0j))
@example(_SIGNED_ZEROS)
def test_cq_sinc_series_bitwise_matches_reference_loop(z):
    assert _bits(cq_sinc_series(z)) == _bits(_cq_sinc_series_loop(z))


@given(_CQS, _CQS)
@example(CQuaternion(0j, 0j, 0j, 0j), _SIGNED_ZEROS)
@example(_SIGNED_ZEROS, CQuaternion(1 + 0j, 0.5j, 0j, -0.25 + 0j))
@example(CQuaternion(0.3 + 0j, 1j, 0j, 0j), CQuaternion(0j, 2 + 0j, 0j, 0j))  # parallel
def test_ladder_bracket_bitwise_matches_reference_loop(fz, dz):
    assert _bits(_ladder_bracket(fz, dz)) == _bits(_ladder_bracket_loop(fz, dz))

