"""Independent reference arithmetic for the benchmark's output checks.

Elements of C (x) H are numpy arrays of shape (..., 4) with complex
entries.  Nothing here imports slicestar, so a defect in the library's own
kernels cannot make a check agree with itself.
"""

from __future__ import annotations

import math

import numpy as np

#: residual floor of the accuracy score log10(tol / max(residual, FLOOR))
FLOOR = 1e-17


def poly_stem(coeffs, z):
    """Stem of q -> sum q^k a_k at complex points z: sum z^k a_k, shape (N, 4)."""
    a = np.asarray(coeffs, dtype=complex)
    z = np.asarray(z, dtype=complex)[:, None]
    acc = np.broadcast_to(a[-1], (z.shape[0], 4)).copy()
    for ak in a[-2::-1]:
        acc = acc * z + ak
    return acc


def mul(x, y):
    """Product in C (x) H (the quaternion product with complex coordinates)."""
    x0, x1, x2, x3 = np.moveaxis(np.asarray(x, dtype=complex), -1, 0)
    y0, y1, y2, y3 = np.moveaxis(np.asarray(y, dtype=complex), -1, 0)
    return np.stack([x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3,
                     x0 * y1 + x1 * y0 + x2 * y3 - x3 * y2,
                     x0 * y2 - x1 * y3 + x2 * y0 + x3 * y1,
                     x0 * y3 + x1 * y2 - x2 * y1 + x3 * y0], axis=-1)


def power(x, n: int):
    out = x
    for _ in range(n - 1):
        out = mul(out, x)
    return out


def exp(x):
    """e^{x0} (cos r + sin(r)/r vec x) with r^2 = x1^2 + x2^2 + x3^2."""
    x = np.asarray(x, dtype=complex)
    w = (x[..., 1:] ** 2).sum(axis=-1)
    r = np.sqrt(w)
    small = np.abs(w) < 1e-6
    safe_r = np.where(small, 1.0, r)
    sincr = np.where(small, 1 - w / 6 + w * w / 120, np.sin(safe_r) / safe_r)
    e0 = np.exp(x[..., 0])
    return np.concatenate([(e0 * np.cos(r))[..., None],
                           (e0 * sincr)[..., None] * x[..., 1:]], axis=-1)


def norm(x):
    return np.sqrt((np.abs(np.asarray(x)) ** 2).sum(axis=-1))


def rel_residual(got, want):
    """|got - want| / max(1, |want|), rowwise."""
    return norm(np.asarray(got) - np.asarray(want)) / np.maximum(1.0, norm(want))


def cauchy_derivative(stem, z, radius, npts: int = 48):
    """dF/dz at each point of z by the trapezoidal Cauchy integral over a
    circle of the given radius; stem maps a 1-d array of points to (N, 4)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    radius = np.broadcast_to(np.asarray(radius, dtype=float), z.shape)
    w = np.exp(2j * math.pi * np.arange(npts) / npts)
    ring = (z[:, None] + radius[:, None] * w[None, :]).ravel()
    vals = stem(ring).reshape(len(z), npts, 4)
    return (vals * w.conj()[None, :, None]).sum(axis=1) / (npts * radius[:, None])


def induce(stem_value, q):
    """Quaternion value of the slice function with this stem value at q."""
    v = np.asarray(stem_value, dtype=complex)
    q = np.asarray(q, dtype=float)
    beta = math.sqrt(float((q[1:] ** 2).sum()))
    if beta == 0.0:
        return v.real
    axis = np.concatenate([[0.0], q[1:] / beta])
    return v.real + mul(axis, v.imag).real


def digits(tol: float, residual: float) -> float:
    """Accuracy score: decimal digits by which a residual clears its tolerance."""
    return math.log10(tol / max(residual, FLOOR))
