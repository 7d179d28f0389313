"""The one step rule: every walk continues logarithms through ``log_step``;
every step, of a walk or of the boundary scan, takes its turn from
``nearest_log``."""

import ast
import cmath
import math
import re
from pathlib import Path

from hypothesis import given, strategies as st

from slicestar import continuation
from slicestar.continuation import (MAX_LOG_STEP, SCAN_ARCS, locus_scan, log_sqrt,
                                    log_step, root_log)


# the rules ``log_step`` replaced, as they read before it, for reference;
# the scan's rule is still ``locus_scan``'s own


def _old_pair_rule(l: complex, prev: complex) -> bool:
    """The lift and *-logarithm rule: each log moves by less than pi/2."""
    return abs(l - prev) < math.pi / 2


def _old_scan_rule(l: complex, prev: complex) -> bool:
    """The boundary scan's rule: the argument moves by less than pi/2."""
    return abs(l.imag - prev.imag) < math.pi / 2


def _old_nearest_sqrt(w: complex, near: complex) -> complex:
    """The square root of w nearest ``near``, the principal one on a tie."""
    r = cmath.sqrt(w)
    return r if abs(r - near) <= abs(r + near) else -r


def _old_sqrt_step(w: complex, prev: complex):
    """The square root of w nearest ``prev``, or None when it moves by more
    than 0.3 relative to the two roots."""
    cand = _old_nearest_sqrt(w, prev)
    return None if abs(cand - prev) > 0.3 * (abs(cand) + abs(prev)) else cand


_logs = st.builds(complex, st.floats(-20, 20), st.floats(-60, 60))
_steps = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-4, 4))


@given(_logs, _steps)
def test_log_step_is_no_looser_than_the_rules_it_replaced(prev, step):
    w = cmath.exp(prev + step)
    l = log_step(w, prev)
    if l is None:
        return
    assert abs(l - prev) < MAX_LOG_STEP
    assert _old_pair_rule(l, prev) and _old_scan_rule(l, prev)
    # the root continued from exp(prev / 2) is the one log_sqrt reads off l
    assert _old_sqrt_step(w, cmath.exp(prev / 2)) == log_sqrt(w, l)


@given(_logs, st.integers(-50, 50))
def test_log_sqrt_reads_the_sign_off_the_turn_count(prev, turns):
    w = cmath.exp(prev)
    l = cmath.log(w) + 2j * math.pi * turns
    r = cmath.sqrt(w)
    assert log_sqrt(w, l) == (-r if turns % 2 else r)
    assert log_step(w, l) == l


@given(_logs, st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
def test_root_log_seeds_the_root_nearest_a_value(l, near):
    w = cmath.exp(l)
    seed = root_log(w, near)
    assert seed in (cmath.log(w), cmath.log(w) + 2j * math.pi)
    assert log_sqrt(w, seed) == _old_nearest_sqrt(w, near)


def test_scan_bounds_the_argument_not_the_log_step():
    # z^15 round the unit circle turns by 15 * 2 pi / 64 = 1.47 per arc:
    # below the scan's pi/2, above MAX_LOG_STEP, so no arc is halved
    calls = []

    def values(z):
        calls.append(z)
        return (z ** 15,)

    assert 15 * 2 * math.pi / SCAN_ARCS > MAX_LOG_STEP
    assert locus_scan(values, 0j, 1.0)[0].zeros == 15
    assert len(calls) == SCAN_ARCS


def test_log_step_refuses_zero_and_a_move_of_max_log_step():
    assert log_step(0j, 0j) is None and log_step(0.0, 1j) is None
    assert log_step(cmath.exp(MAX_LOG_STEP), 0j) is None
    assert log_step(cmath.exp(0.99 * MAX_LOG_STEP), 0j) is not None
    # the 2 pi i k nearest prev, even far from the principal sheet
    assert log_step(cmath.exp(0.5j), 0.5j + 2j * math.pi * 7) == \
        cmath.log(cmath.exp(0.5j)) + 2j * math.pi * 7


#: a quotient by 2 pi, however it is spelled
_TWO_PI = re.compile(r"two_pi|tau|2(\.0)? \* (math\.)?pi|(math\.)?pi \* 2|6\.28", re.I)


def _turn_pickers(tree: ast.AST) -> set[str]:
    """The top-level functions and classes of a module that call
    ``round`` of a quotient by 2 pi, i.e. pick a turn themselves."""
    found = set()
    for top in getattr(tree, "body", []):
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "round" \
                    and any(isinstance(d, ast.BinOp) and isinstance(d.op, ast.Div)
                            and _TWO_PI.search(ast.unparse(d.right))
                            for arg in node.args for d in ast.walk(arg)):
                found.add(getattr(top, "name", ""))
    return found


def test_only_continuation_picks_a_turn():
    # every step takes its 2 pi i k from nearest_log, so the turn rule lives
    # in one place; the winding count of a scan reads its turns there too
    pickers = {path.stem: _turn_pickers(ast.parse(path.read_text()))
               for path in Path(continuation.__file__).parent.glob("*.py")}
    assert {name: found for name, found in pickers.items() if found} == \
        {"continuation": {"nearest_log", "log_sqrt", "locus_scan"}}
    # the detector sees the spellings of 2 pi it is meant to
    for spelling in ("_TWO_PI", "two_pi", "(2 * math.pi)", "math.tau", "(pi * 2)"):
        assert _turn_pickers(ast.parse(f"def f(x):\n    return round(x / {spelling})"))
