"""Seeded input generators.

Every input is drawn from a numpy Generator seeded by the workload seed and
is built only from slicestar's public surface: ``Domain``, ``polynomial``,
``LogBranch``, descriptor JSON and sampled-path JSON.  Genericity is
checked with the independent arithmetic in ``oracle``, never with the
library's own scans, so the same seed gives the same inputs on every
commit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

import oracle
from slicestar import Domain, LogBranch, Quaternion, polynomial

#: smallest admitted min |f^s| / scale and min |f_v^s| / scale on the mesh,
#: where scale is the largest |F|^2 on the mesh
MARGIN = 0.02

#: smallest admitted |Theta| (the BCH obstruction) on the mesh
THETA_MARGIN = 1e-3

#: smallest admitted distance of f_v^s, g_v^s from the lattice {k^2 pi^2, k >= 1}
LATTICE_MARGIN = 1e-3

REAL_DOMAIN = Domain(0.0, 1.0)
TWO_SIDED_DOMAIN = Domain(1.5j, 0.8)
DEXP_DOMAIN = Domain(0.0, 1.5)
BCH_DOMAIN = Domain(0.0, 1.0)

#: share of the radius inside which sample points are drawn
POINT_FRAC = 0.95
DEXP_POINT_FRAC = 0.7


def mesh(dom: Domain) -> np.ndarray:
    """Polar mesh of every closed disk component: 17 radii x 64 angles."""
    r = np.linspace(0.0, dom.radius, 17)[:, None]
    th = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)[None, :]
    ring = (r * np.exp(1j * th)).ravel()
    pts = dom.center + ring
    if dom.two_sided:
        pts = np.concatenate([pts, np.conj(pts)])
    return pts


@dataclass
class FunctionInput:
    """Polynomial q -> sum q^k a_k on a basic domain, with its locus margins."""

    coeffs: list          # K rows [a0, a1, a2, a3]
    domain: Domain
    margin_fs: float      # min |f^s| / scale over the mesh
    margin_fvs: float     # min |f_v^s| / scale over the mesh

    def function(self):
        return polynomial([Quaternion(*c) for c in self.coeffs], self.domain)

    def to_json(self) -> dict:
        return {"fn": {"kind": "poly", "coeffs": self.coeffs},
                "domain": self.domain.to_json()}

    def stem(self, z):
        return oracle.poly_stem(self.coeffs, np.atleast_1d(z))


def margins(coeffs, dom: Domain) -> tuple[float, float]:
    vals = oracle.poly_stem(coeffs, mesh(dom))
    scale = float((oracle.norm(vals) ** 2).max())
    vs = (vals[:, 1:] ** 2).sum(axis=1)
    fs = vals[:, 0] ** 2 + vs
    return float(np.abs(fs).min()) / scale, float(np.abs(vs).min()) / scale


def generic_poly(rng, dom: Domain, scale: float, deg: int, extra: float) -> FunctionInput:
    """Random polynomial whose locus margins both exceed MARGIN."""
    for _ in range(200):
        base = scale * rng.standard_normal(4)
        base[1:] += np.copysign(0.6 * scale, base[1:])
        rows = [base] + [extra * scale * rng.standard_normal(4) for _ in range(deg)]
        coeffs = [[float(x) for x in row] for row in rows]
        m_fs, m_fvs = margins(coeffs, dom)
        if min(m_fs, m_fvs) > MARGIN:
            return FunctionInput(coeffs, dom, m_fs, m_fvs)
    raise RuntimeError("no generic polynomial found in 200 draws")


def disk_points(rng, dom: Domain, n: int, frac: float = POINT_FRAC) -> list[complex]:
    """n distinct points, uniform in each disk component."""
    r = frac * dom.radius * np.sqrt(rng.uniform(size=n))
    th = 2 * math.pi * rng.uniform(size=n)
    z = dom.center + r * np.exp(1j * th)
    if dom.two_sided:
        z = np.where(rng.uniform(size=n) < 0.5, np.conj(z), z)
    return [complex(v) for v in z]


# -- *-log and *-root tasks ---------------------------------------------------

@dataclass
class LogTask:
    fn: FunctionInput
    kind: str             # "log" or "root"
    n: int                # root order (1 for a logarithm)
    h1: int
    h2: int
    basepoint: complex
    points: list

    def branch(self) -> LogBranch:
        return LogBranch(self.h1, self.h2, self.basepoint)


def log_task(rng, kind: str, n: int, two_sided: bool, npoints: int) -> LogTask:
    """A generic f, a random admissible branch (h2 = -h1 on a domain meeting R)
    with a basepoint near the center, and npoints fresh points."""
    dom = TWO_SIDED_DOMAIN if two_sided else REAL_DOMAIN
    fn = generic_poly(rng, dom, scale=1.0, deg=2, extra=0.08)
    h1 = int(rng.integers(-2, 3))
    h2 = int(rng.integers(-2, 3)) if two_sided else -h1
    off = 0.3 * dom.radius * complex(*rng.uniform(-1, 1, size=2))
    basepoint = dom.center + (off if two_sided else off.real)
    return LogTask(fn, kind, n, h1, h2, basepoint, disk_points(rng, dom, npoints))


# -- derivative of exp_* ------------------------------------------------------


@dataclass
class DexpTask:
    fn: FunctionInput
    points: list


def dexp_task(rng, npoints: int) -> DexpTask:
    fn = generic_poly(rng, DEXP_DOMAIN, scale=0.8, deg=3, extra=0.2)
    return DexpTask(fn, disk_points(rng, DEXP_DOMAIN, npoints, DEXP_POINT_FRAC))


def slice_quaternion(rng, z: complex) -> list:
    """A quaternion alpha + I beta on the sphere of z, I a random unit."""
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    beta = abs(z.imag)
    return [z.real] + [float(beta * c) for c in u]


# -- exponential products -----------------------------------------------------


def _even_trig(w):
    small = np.abs(w) < 1e-6
    r = np.sqrt(np.where(small, 1.0, w))
    return (np.where(small, 1 - w / 2, np.cos(r)),
            np.where(small, 1 - w / 6, np.sin(r) / r))


def _lattice_distance(w):
    k = np.round(np.sqrt(np.abs(w.real)) / math.pi)
    return np.min([np.abs(w - (np.maximum(j, 1) * math.pi) ** 2)
                   for j in (k - 1, k, k + 1)], axis=0)


def bch_obstruction(f: FunctionInput, g: FunctionInput) -> dict:
    """min |Theta|, wedge size and lattice clearance of a pair on the mesh."""
    pts = mesh(f.domain)
    F, G = f.stem(pts), g.stem(pts)
    fvs = (F[:, 1:] ** 2).sum(axis=1)
    gvs = (G[:, 1:] ** 2).sum(axis=1)
    cf, sf = _even_trig(fvs)
    cg, sg = _even_trig(gvs)
    dot = (F[:, 1:] * G[:, 1:]).sum(axis=1)
    perp = G[:, 1:] - (dot / fvs)[:, None] * F[:, 1:]
    theta = (cf * sg * dot + cg * sf * fvs) ** 2 + sg ** 2 * fvs * (perp ** 2).sum(axis=1)
    wedge = np.cross(F[:, 1:], G[:, 1:])
    lattice = np.concatenate([_lattice_distance(fvs), _lattice_distance(gvs)])
    return {"min_theta": float(np.abs(theta).min()),
            "max_wedge": float(oracle.norm(wedge).max()),
            "lattice": float(lattice.min())}


def bch_candidate(rng) -> tuple[FunctionInput, FunctionInput, dict]:
    f = generic_poly(rng, BCH_DOMAIN, scale=0.6, deg=1, extra=0.15)
    g = generic_poly(rng, BCH_DOMAIN, scale=0.6, deg=1, extra=0.15)
    return f, g, bch_obstruction(f, g)


def bch_pair(rng) -> tuple[FunctionInput, FunctionInput, dict]:
    """A non-commuting pair whose product exp_*(f) exp_*(g) is a *-exponential."""
    for _ in range(200):
        f, g, obs = bch_candidate(rng)
        if (obs["min_theta"] > THETA_MARGIN and obs["lattice"] > LATTICE_MARGIN
                and obs["max_wedge"] > 1e-6):
            return f, g, obs
    raise RuntimeError("no admissible exponential pair found in 200 draws")


# -- sampled paths in (C^2 \ W) x S --------------------------------------------


def _unit_imaginary(rng) -> np.ndarray:
    v = rng.standard_normal(3) + 0.3j * rng.standard_normal(3)
    return v / np.sqrt((v ** 2).sum())


def _path_json(alpha, beta, s) -> dict:
    t = np.linspace(0.0, 1.0, len(alpha))
    w0 = (alpha + beta) / 2
    w1 = (alpha - beta) / 2j
    sj = [[float(c.real), float(c.imag)] for c in s]
    return {"samples": [{"t": float(t[k]),
                         "w0": [float(w0[k].real), float(w0[k].imag)],
                         "w1": [float(w1[k].real), float(w1[k].imag)],
                         "s": sj} for k in range(len(alpha))]}


def loop_path(rng, nsamples: int) -> tuple[dict, tuple[int, int]]:
    """Closed loop whose alpha = w0 + i w1 and beta = w0 - i w1 wind (h1, h2) times."""
    h1, h2 = (int(x) for x in rng.integers(-2, 3, size=2))
    t = 2 * math.pi * np.arange(nsamples + 1) / nsamples
    ra, rb = rng.uniform(0.5, 1.5, size=2)
    wob = 1 + 0.2 * np.sin(t * int(rng.integers(1, 4)))
    alpha = ra * wob * np.exp(1j * h1 * t)
    beta = rb * np.exp(1j * h2 * t)
    alpha[-1], beta[-1] = alpha[0], beta[0]
    return _path_json(alpha, beta, _unit_imaginary(rng)), (h1, h2)


def open_path(rng, nsamples: int) -> dict:
    """Open path with alpha, beta turning by up to two full turns each."""
    t = np.linspace(0.0, 1.0, nsamples)
    ta, tb = rng.uniform(-4 * math.pi, 4 * math.pi, size=2)
    ra, rb = rng.uniform(0.5, 1.5, size=2)
    alpha = ra * (1 + 0.3 * np.sin(2 * math.pi * t)) * np.exp(1j * ta * t)
    beta = rb * np.exp(1j * tb * t)
    return _path_json(alpha, beta, _unit_imaginary(rng))


def write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path
