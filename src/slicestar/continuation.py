"""Branch continuation: one step rule and one bisection routine.

Every walk continues logarithms only, and ``log_step`` accepts each
step: ``nearest_log``, the principal logarithm plus the 2 pi i k nearest
the previous value, refused at a zero or when it moves by MAX_LOG_STEP
or more.  A square root of f_v^s is carried as L = log f_v^s and read by
``log_sqrt``.  *-logarithms over a disk, lifted paths and the boundary
circles of ``locus_scan`` are all walked the same way: a ``step``
carries a value across one segment or refuses it by returning the error
class that names why; a refused segment is halved, at most MAX_DEPTH
times, and then that class is raised, so a genuine obstruction (a zero
of the continued quantity) fails loudly instead of jumping branches.
``continue_along`` and a grid query (in place) try the whole segment
first and bisect only its refusal, so no segment is stepped twice.

``BranchContinuation`` walks straight segments, valid on the convex set
where ``ContinuedFunction.from_branch`` queries it: the disk holding the
anchor, cut to Im z >= 0.  Its nodes are the first queries, at most one
per cell of a GRID x GRID grid, each stored with its value.  Every value
is exact at its own point, and a walk's start only selects the branch,
never the bits of the value, so neither the order of queries (``at``
one by one, ``at_many`` as a batch) nor which of several threads stores
a cell's node changes a value.

``locus_scan`` continues the logarithms of holomorphic scalars once
around a disk's boundary circle, so the argument principle counts their
zeros inside exactly (Delves & Lyness, Math. Comp. 21, 1967) instead of
sampling the interior for them.
"""

from __future__ import annotations

import cmath
import math
from array import array
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar

V = TypeVar("V")

#: lateral resolution of the cache grid
GRID = 64

#: bisection depth per segment
MAX_DEPTH = 20

#: arcs of the boundary circle in a locus scan, before halving
SCAN_ARCS = 64

#: largest move of a continued logarithm in one accepted step: below pi/2,
#: and below 1.2187 so that, on L = log w, the root m = exp(L/2) moves by
#: less than 0.3 (|m'| + |m|) in every direction (|log m' - log m| < 0.6094)
MAX_LOG_STEP = 1.2

_TWO_PI = 2 * math.pi
_TWO_PI_I = 2j * math.pi

#: step(a, value at a, b) -> the value at b, or the error class refusing it;
#: ``isinstance(out, type)`` tells a refusal from a value
Stepper = Callable[..., object]


def nearest_log(w: complex, prev: complex) -> complex:
    """The principal logarithm of w (not 0) plus the 2 pi i k nearest
    ``prev``: the turn of every step of a walk or a scan."""
    l = cmath.log(w)
    return l + _TWO_PI_I * round((prev.imag - l.imag) / _TWO_PI)


def log_step(w: complex, prev: complex) -> Optional[complex]:
    """``nearest_log(w, prev)``; None (a refusal: bisect) when w = 0 or
    the step moves by MAX_LOG_STEP or more.  The step rule of every walk."""
    if w == 0:
        return None
    l = nearest_log(w, prev)
    return l if abs(l - prev) < MAX_LOG_STEP else None


def log_sqrt(w: complex, l: complex) -> complex:
    """exp(l / 2) for a logarithm l of w, read as cmath.sqrt(w), negated
    when l is an odd number of turns from the principal logarithm."""
    r = cmath.sqrt(w)
    return -r if round((l.imag - cmath.phase(w)) / _TWO_PI) % 2 else r


def root_log(w: complex, near: complex) -> complex:
    """The logarithm of w (not 0), principal or one turn up, whose root
    ``log_sqrt`` reads nearer ``near``, the principal one on a tie: the
    turn of a seed that is given a root rather than a branch index."""
    l, r = cmath.log(w), cmath.sqrt(w)
    return l if abs(r - near) <= abs(r + near) else l + _TWO_PI_I


def continue_along(step: Stepper, midpoint: Callable, a, v, b):
    """Carry the value ``v`` at ``a`` to ``b``, halving refused segments at
    ``midpoint(a, b)``; raise the refusing class after MAX_DEPTH halvings."""
    if b == a:
        return v
    out = step(a, v, b)
    return _bisect(step, midpoint, a, v, b, out) if isinstance(out, type) else out


def _bisect(step: Stepper, midpoint: Callable, a, v, b, refusal: type,
            depth: int = MAX_DEPTH):
    """Carry ``v`` at ``a`` to ``b`` once ``step`` has refused the whole
    segment with ``refusal``: each half is stepped once and bisected in
    turn when refused, so no segment is evaluated twice."""
    if depth <= 0:
        raise refusal(f"continuation from {a} to {b}: refinement depth exhausted")
    m = midpoint(a, b)
    for a, b in ((a, m), (m, b)):
        out = v if b == a else step(a, v, b)
        v = _bisect(step, midpoint, a, v, b, out, depth - 1) if isinstance(out, type) else out
    return v


def _halve(z0: complex, z1: complex) -> complex:
    return (z0 + z1) / 2


def _hilbert_table() -> array:
    """The Hilbert position of every cell (x, y) of the grid, at x * GRID + y.

    Built by doubling: on a 2s x 2s grid, the cell in quadrant (rx, ry)
    (rx = x >= s, ry = y >= s) is at s * s * ((3 rx) ^ ry) plus its
    position on the s x s curve, read in the quadrant's frame: as is for
    ry = 1, transposed for (0, 0), reflected through the centre and
    transposed for (1, 0)."""
    rows = [[0]]                     # rows[x][y] on the 1 x 1 grid
    s = 1
    while s < GRID:
        cols = [list(col) for col in zip(*rows)]
        quarter = s * s
        grown = []
        for x in range(s):           # rx = 0: quadrants (0, 0), (0, 1)
            grown.append(cols[x] + [d + quarter for d in rows[x]])
        for x in range(s):           # rx = 1: quadrants (1, 0), (1, 1)
            grown.append([d + 3 * quarter for d in reversed(cols[s - 1 - x])]
                         + [d + 2 * quarter for d in rows[x]])
        rows = grown
        s *= 2
    return array("H", [d for row in rows for d in row])


#: ``hilbert_index`` of every cell, flat: 2 bytes per cell
_HILBERT = _hilbert_table()


def hilbert_index(cell: tuple[int, int]) -> int:
    """The position of a GRID x GRID cell along the Hilbert curve through
    the grid (Hilbert, Math. Ann. 38, 1891): cells next to each other on
    the curve are next to each other in the plane."""
    x, y = cell
    return _HILBERT[x * GRID + y]


class ZeroCount(NamedTuple):
    """The zeros of a holomorphic scalar inside a disk (None when its
    winding could not be resolved) and its extreme moduli on the boundary
    circle.  With no zeros, the minimum and maximum modulus principles make
    ``min_abs`` and ``max_abs`` bound the scalar on the whole closed disk."""

    zeros: Optional[int]
    min_abs: float
    max_abs: float


class _Unresolved(Exception):
    """A scalar vanishes on the circle or winds too fast to follow."""


def locus_scan(values: Callable[[complex], tuple], center: complex,
               radius: float) -> list[ZeroCount]:
    """Count the zeros inside the disk of each scalar in ``values(z)``.

    Each scalar's logarithm is continued once around the boundary circle,
    from SCAN_ARCS arcs, by ``nearest_log``; ``continue_along`` halves an
    arc whose argument moves by pi/2 or more.  Looser than ``log_step`` on
    purpose: a finer scan resolves windings near a zero just outside the
    circle, and so admits functions whose disk walk then aliases.
    ``values`` is called once per distinct point of the circle.
    """
    samples: dict[float, tuple] = {}

    def sample(t: float) -> tuple:
        t %= _TWO_PI
        hit = samples.get(t)
        if hit is None:
            hit = samples[t] = tuple(values(center + radius * cmath.exp(1j * t)))
        return hit

    def winding(i: int) -> Optional[int]:
        def step(t0: float, l0: complex, t1: float):
            w = sample(t1)[i]
            if w == 0:
                return _Unresolved
            l = nearest_log(w, l0)
            return l if abs(l.imag - l0.imag) < math.pi / 2 else _Unresolved

        start = sample(0.0)[i]
        if start == 0:
            return None
        l0 = l = cmath.log(start)
        try:
            for k in range(SCAN_ARCS):
                l = continue_along(step, _halve, _TWO_PI * k / SCAN_ARCS, l,
                                   _TWO_PI * (k + 1) / SCAN_ARCS)
        except _Unresolved:
            return None
        return round((l - l0).imag / _TWO_PI)

    zeros = [winding(i) for i in range(len(sample(0.0)))]
    return [ZeroCount(n, min(abs(v[i]) for v in samples.values()),
                      max(abs(v[i]) for v in samples.values()))
            for i, n in enumerate(zeros)]


class BranchContinuation:
    """Continue a branch value from an anchor across the disk of ``domain``
    that holds it.  The anchor is on R or in the upper disk, so that disk
    is the one centred at ``domain.center``; the grid covers its bounding
    square, of which queries with Im z >= 0 fill the cells above R."""

    def __init__(self, anchor: complex, seed, stepper: Stepper, domain):
        self.anchor = anchor
        self.seed = seed
        self.stepper = stepper
        self.domain = domain
        self._cells: dict[tuple[int, int], tuple[complex, V]] = {}
        self._filled: list[tuple[complex, V]] = [(anchor, seed)]

    # -- grid helpers ----------------------------------------------------

    def _cell_of(self, z: complex) -> tuple[int, int]:
        dom = self.domain
        radius, center = dom.radius, dom.center
        side = 2 * radius
        ix = int((z.real - (center.real - radius)) / side * GRID)
        iy = int((z.imag - (center.imag - radius)) / side * GRID)
        # clamped to [0, GRID - 1]
        ix = 0 if ix < 0 else GRID - 1 if ix >= GRID else ix
        iy = 0 if iy < 0 else GRID - 1 if iy >= GRID else iy
        return ix, iy

    # -- continuation ----------------------------------------------------

    def _query(self, z: complex, key: tuple[int, int], start):
        """The value at z, in cell ``key``.  With a node there, one segment
        from it, none at the node's own point.  Otherwise continued straight
        from ``start`` (a stored or walked (point, value) pair), from the
        nearest stored node when ``start`` is None or z is the anchor, and
        stored as the cell's node.  Memory is bounded by GRID**2 states plus
        the anchor."""
        hit = self._cells.get(key)
        if hit is not None:
            start = hit
        elif start is None or z == self.anchor:
            # a list beside _cells: another thread may append while this one
            # scans, and iterating _cells.values() would then raise RuntimeError
            start = min(self._filled, key=lambda t: abs(t[0] - z))
        # the whole segment is tried here; only its refusal is bisected
        a, v = start
        out = v if z == a else self.stepper(a, v, z)
        if isinstance(out, type):
            out = _bisect(self.stepper, _halve, a, v, z, out)
        if hit is None:
            entry = (z, out)
            # threads that missed the same cell store values that are each
            # exact at their own point; only the entry that lands in the
            # grid becomes a start node
            if self._cells.setdefault(key, entry) is entry:
                self._filled.append(entry)
        return out

    def at(self, z: complex):
        """The value at z; the first query in a cell starts from the nearest
        stored node."""
        return self._query(z, self._cell_of(z), None)

    def at_many(self, zs: Sequence[complex]) -> list:
        """The values at each of ``zs``, in their order: bit for bit
        ``[self.at(z) for z in zs]``, leaving the same node in every cell.

        The queries are walked in Hilbert order of their cells, a stable
        sort keeping the input order inside a cell, so each cell's node is
        still its first query in input order; each query starts from the
        previous one of the walk, a cell or so away.
        """
        keys = list(map(self._cell_of, zs))
        out = [None] * len(keys)
        query = self._query
        prev = None
        rank = [_HILBERT[x * GRID + y] for x, y in keys]
        for i in sorted(range(len(keys)), key=rank.__getitem__):
            z = zs[i]
            out[i] = v = query(z, keys[i], prev)
            prev = (z, v)
        return out
