"""Shared helpers: random generators and independent oracles."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import settings

from slicestar import Quaternion, SliceFunction, quat_mul
from slicestar.continuation import BranchContinuation
from slicestar.slicefn import ContinuedFunction
# one copy of the shared generators and oracles, imported by the tests from here
from slicestar.suites import (cq_exp_series, generic_poly,  # noqa: F401
                              left_mul_matrix, quat_exp_series, rand_cq, rand_poly,
                              rand_quat)


# property tests draw the same examples on every run
settings.register_profile("slicestar", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("slicestar")

#: moduli on both sides of the series/closed-form switch at |w| = 1
SWITCH_MODULI = (0.9, 0.999999, 1.0, 1.000001, 1.1, 3.0)


def switch_arguments() -> list[complex]:
    """24 arguments at each modulus of SWITCH_MODULI."""
    return [r * cmath.exp(2j * math.pi * (k + 0.25) / 24)
            for r in SWITCH_MODULI for k in range(24)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def rand_unit_axis(rng):
    from slicestar import ImagUnit
    v = rng.standard_normal(3)
    return ImagUnit.from_vector(*v)


def poly_eval_direct(coeffs, q: Quaternion) -> Quaternion:
    """sum q^n a_n by repeated quaternion multiplication."""
    acc = Quaternion.zero()
    power = Quaternion.one()
    for a in coeffs:
        acc = acc + quat_mul(power, a)
        power = quat_mul(power, q)
    return acc


def poly_convolve(a_coeffs, b_coeffs):
    """Coefficients of the *-product of two right-coefficient polynomials."""
    out = [Quaternion.zero() for _ in range(len(a_coeffs) + len(b_coeffs) - 1)]
    for n, a in enumerate(a_coeffs):
        for m, b in enumerate(b_coeffs):
            out[n + m] = out[n + m] + quat_mul(a, b)
    return out


def stem_bits(v) -> tuple[str, ...]:
    """The exact bits of a stem value, as hex floats."""
    return tuple(x.hex() for c in (v.z0, v.z1, v.z2, v.z3) for x in (c.real, c.imag))


def inputs_bits(values) -> list:
    """``stem_bits`` of each stem in a sequence of ``with_inputs_at`` tuples."""
    return [tuple(map(stem_bits, v)) for v in values]


def one_at_a_time(g: ContinuedFunction, zs) -> list:
    """``g.with_inputs_at`` of each point in its own one-point batch: a
    one-point walk starts from the nearest node, as ``at`` does."""
    return [g.with_inputs_at([z])[0] for z in zs]


def continuation_of(g: ContinuedFunction) -> BranchContinuation:
    """The grid behind a continued branch."""
    assert isinstance(g.branch, BranchContinuation), "no continuation behind this function"
    return g.branch


def assert_same_nodes(a: SliceFunction, b: SliceFunction) -> None:
    """The grids behind a and b hold the same node, bit for bit, in the same
    cells, and each grid one more start node (the anchor) than cells."""
    ca, cb = continuation_of(a), continuation_of(b)
    assert {k: repr(v) for k, v in ca._cells.items()} == \
        {k: repr(v) for k, v in cb._cells.items()}
    for c in (ca, cb):
        assert len(c._filled) == len(c._cells) + 1
