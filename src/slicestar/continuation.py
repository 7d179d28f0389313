"""Branch continuation: one bisection routine for disks and paths.

The square root of f_v^s, the *-logarithm and the angle of the
exponential-product solver are continued over a disk, and sampled paths
are lifted through the covering exponential, all by ``continue_along``.
A ``step`` carries a value across one segment or refuses it by returning
the error class that names why; a refused segment is halved, at most
MAX_DEPTH times, and then that class is raised, so a genuine obstruction
(a zero of the continued quantity) fails loudly instead of jumping
branches.  ``BranchContinuation`` walks a straight segment, valid on a
convex disk, from the nearest node of a lazily filled grid.  The cache
mutates on first evaluation, so a freshly built continuation (and
anything holding one, e.g. a *-logarithm) should stay on one thread until
warmed up; afterwards reads are safe to share.
"""

from __future__ import annotations

import math
from typing import Callable, TypeVar

V = TypeVar("V")

#: lateral resolution of the cache grid
GRID = 64

#: bisection depth per segment
MAX_DEPTH = 20

#: step(a, value at a, b) -> the value at b, or the error class refusing it
Stepper = Callable[..., object]


def refused(v) -> bool:
    """Whether a step's result is a refusal, i.e. an error class."""
    return isinstance(v, type)


def nearest_turn(x: float, prev: float) -> int:
    """The k for which x + 2 pi k lies nearest ``prev``."""
    return round((prev - x) / (2 * math.pi))


def continue_along(step: Stepper, midpoint: Callable, a, v, b):
    """Carry the value ``v`` at ``a`` to ``b``, halving refused segments at
    ``midpoint(a, b)``; raise the refusing class after MAX_DEPTH halvings."""

    def carry(a, v, b, depth: int):
        if b == a:
            return v
        out = step(a, v, b)
        if not refused(out):
            return out
        if depth <= 0:
            raise out(f"continuation from {a} to {b}: refinement depth exhausted")
        m = midpoint(a, b)
        return carry(m, carry(a, v, m, depth - 1), b, depth - 1)

    return carry(a, v, b, MAX_DEPTH)


def _halve(z0: complex, z1: complex) -> complex:
    return (z0 + z1) / 2


class BranchContinuation:
    """Continue a branch value from an anchor across one disk component."""

    def __init__(self, anchor: complex, seed, stepper: Stepper, *,
                 center: complex, radius: float):
        self.anchor = anchor
        self.seed = seed
        self.stepper = stepper
        self.center = center
        self.radius = radius
        self._cells: dict[tuple[int, int], tuple[complex, V]] = {}
        self._filled: list[tuple[complex, V]] = [(anchor, seed)]
        self._memo: dict[complex, V] = {anchor: seed}

    # -- grid helpers ----------------------------------------------------

    def _cell_of(self, z: complex) -> tuple[int, int]:
        side = 2 * self.radius
        ix = int((z.real - (self.center.real - self.radius)) / side * GRID)
        iy = int((z.imag - (self.center.imag - self.radius)) / side * GRID)
        clamp = lambda i: min(max(i, 0), GRID - 1)
        return clamp(ix), clamp(iy)

    def _node_center(self, ix: int, iy: int) -> complex:
        side = 2 * self.radius
        z = complex(self.center.real - self.radius + (ix + 0.5) * side / GRID,
                    self.center.imag - self.radius + (iy + 0.5) * side / GRID)
        # pull corner cells inside the disk so the stem stays evaluable
        d = abs(z - self.center)
        if d > 0.92 * self.radius:
            z = self.center + (z - self.center) * (0.92 * self.radius / d)
        return z

    # -- continuation ----------------------------------------------------

    def _fill_cell(self, key: tuple[int, int]):
        hit = self._cells.get(key)
        if hit is not None:
            return hit
        zc = self._node_center(*key)
        zs, vs = min(self._filled, key=lambda t: abs(t[0] - zc))
        v = continue_along(self.stepper, _halve, zs, vs, zc)
        entry = (zc, v)
        self._cells[key] = entry
        self._filled.append(entry)
        return entry

    def at(self, z: complex):
        hit = self._memo.get(z)
        if hit is not None:
            return hit
        zc, vc = self._fill_cell(self._cell_of(z))
        v = continue_along(self.stepper, _halve, zc, vc, z)
        self._memo[z] = v
        return v
