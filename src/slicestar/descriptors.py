"""JSON wire formats: function descriptors, quaternions, lift points, paths.

Function descriptor grammar (the ``fn`` value of a function file), with
the kinds of ``slicefn.KINDS``:

    {"kind": "poly", "coeffs": [[q0,q1,q2,q3], ...]}
    {"kind": "const", "value": [q0,q1,q2,q3]}
    {"kind": "add" | "mul", "args": [<descriptor>, ...]}
    {"kind": "exp" | "neg" | "conj" | "scalar" | "vec" | "sym" | "vsym", "arg": <descriptor>}
    {"kind": "scale", "arg": <descriptor>, "by": r}
    {"kind": "dot" | "wedge", "args": [<descriptor>, <descriptor>]}

``add`` and ``mul`` apply their arguments from the left; r and every
quaternion entry are finite numbers.  ``function_to_obj`` writes any
function built from these kinds, and refuses one that holds an infinity
or NaN in either.

A function file is {"fn": <descriptor>, "domain": {"center": [re,im],
"radius": r, "realIntersecting": bool}}.  Quaternions are arrays
[q0,q1,q2,q3]; elements of the complexified algebra are
[[re,im],[re,im],[re,im],[re,im]]; sampled paths are
{"samples": [{"t": t, "w0": [re,im], "w1": [re,im], "s": [[re,im]x3]}]}.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .covering import LiftPoint, PathSample, SampledPath
from .cquaternion import CQuaternion
from .quaternion import Quaternion, _new
from .slicefn import (KINDS, NODE, NODES, NUMBER, PAIR, QUAT, QUATS, Domain,
                      SliceFunction, _finite_number, derive)


def _float(x, what: str) -> float:
    """float(x) of a JSON number; a string, boolean, array, object, null or
    an integer too large for a float raises a ValueError naming ``what``."""
    if not isinstance(x, (str, bool)):
        try:
            return float(x)
        except TypeError:
            pass
        except OverflowError:
            raise ValueError(f"{what} must fit in a float, got an integer of "
                             f"{len(str(abs(x)))} digits") from None
    raise ValueError(f"{what} must be a number, got {x!r}")


def quaternion_from_json(obj) -> Quaternion:
    if not isinstance(obj, (list, tuple)) or len(obj) != 4:
        raise ValueError(f"quaternion JSON must be a 4-array, got {obj!r}")
    q = Quaternion(*(_float(x, "quaternion entry") for x in obj))
    if not all(map(math.isfinite, q)):
        raise ValueError(f"quaternion entries must be finite, got {obj!r}")
    return q


def quaternion_to_json(q: Quaternion) -> list:
    return [q.q0, q.q1, q.q2, q.q3]


def _complex_from_json(obj) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ValueError(f"complex JSON must be [re, im], got {obj!r}")
    re, im = obj
    if type(re) is float and type(im) is float:     # what json.load gives
        return complex(re, im)
    return complex(_float(re, "real part"), _float(im, "imaginary part"))


def cq_from_json(obj) -> CQuaternion:
    if not isinstance(obj, (list, tuple)) or len(obj) != 4:
        raise ValueError(f"algebra-element JSON must be a 4-array of pairs, got {obj!r}")
    return CQuaternion(*(_complex_from_json(c) for c in obj))


def _vector_from_json(obj) -> CQuaternion:
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise ValueError(f"vector JSON must be 3 pairs, got {obj!r}")
    v1, v2, v3 = obj
    return _new(CQuaternion, (0j, _complex_from_json(v1), _complex_from_json(v2),
                              _complex_from_json(v3)))


def _member(obj, key: str, kind: type, what: str, nonempty: bool = False):
    """``obj[key]`` if ``obj`` is a JSON object whose ``key`` holds a
    ``kind`` (dict for an object, list for an array); otherwise a
    ValueError that names ``what`` and shows ``obj``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    value = obj.get(key)
    kinds = (list, tuple) if kind is list else kind
    if not isinstance(value, kinds) or (nonempty and not value):
        need = "an object" if kind is dict else \
            "a non-empty array" if nonempty else "an array"
        raise ValueError(f"{what} {obj!r}: {key!r} must be {need}")
    return value


def _members(obj: dict, keys: tuple, what: str) -> list:
    """``[obj[key] for key in keys]``; a missing key raises a ValueError
    that names ``what`` and shows ``obj`` and the key."""
    try:
        return [obj[key] for key in keys]
    except KeyError as exc:
        raise ValueError(f"{what} {obj!r}: {exc.args[0]!r} is missing") from None


def lift_point_from_json(obj: dict) -> LiftPoint:
    if not isinstance(obj, dict):
        raise ValueError(f"lift point must be a JSON object, got {obj!r}")
    u0, u1, s = _members(obj, ("u0", "u1", "s"), "lift point")
    return LiftPoint(_complex_from_json(u0), _complex_from_json(u1), _vector_from_json(s))


def path_from_json(obj: dict) -> SampledPath:
    samples = []
    append = samples.append
    keys = ("t", "w0", "w1", "s")
    for s in _member(obj, "samples", list, "path"):
        if not isinstance(s, dict):
            raise ValueError(f"path sample must be a JSON object, got {s!r}")
        t, w0, w1, vs = _members(s, keys, "path sample")
        if type(t) is not float:
            t = _float(t, 'path sample "t"')
        append(_new(PathSample, (t, _complex_from_json(w0), _complex_from_json(w1),
                                 _vector_from_json(vs))))
    return SampledPath(tuple(samples))


def _read_member(desc: dict, key: str, typ: str, domain: Domain):
    """Member ``key``, of ``slicefn.KINDS`` type ``typ``, of the node ``desc``."""
    if typ == QUAT:
        return list(quaternion_from_json(desc.get(key)))
    if typ == NUMBER:
        if not _finite_number(desc.get(key)):
            raise ValueError(f"descriptor node {desc!r}: {key!r} must be a finite number")
        return float(desc[key])
    if typ == NODE:
        return build_function(_member(desc, key, dict, "descriptor node"), domain)
    items = _member(desc, key, list, "descriptor node", nonempty=typ == NODES)
    if typ == PAIR and len(items) != 2:
        raise ValueError(f"descriptor node {desc!r}: {key!r} must be an array of two")
    return [list(quaternion_from_json(c)) if typ == QUATS else build_function(c, domain)
            for c in items]


def build_function(desc: dict, domain: Domain) -> SliceFunction:
    """Build a slice function from a descriptor node on the given domain.

    A node of the wrong shape raises a ValueError that shows the node."""
    if not isinstance(desc, dict):
        raise ValueError(f"descriptor node must be a JSON object, got {desc!r}")
    kind = desc.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown descriptor kind {kind!r}")
    return derive(kind, domain, *(_read_member(desc, key, typ, domain)
                                  for key, typ in KINDS[kind][0]))


def function_from_obj(obj: dict) -> SliceFunction:
    if not isinstance(obj, dict) or "fn" not in obj or "domain" not in obj:
        raise ValueError('function file needs "fn" and "domain" keys')
    return build_function(obj["fn"], Domain.from_json(obj["domain"]))


def load_function(path: str) -> SliceFunction:
    """The function in a function file; a descriptor nested deeper than the
    interpreter's recursion limit allows raises a ValueError."""
    with open(path) as fh:
        try:
            return function_from_obj(json.load(fh))
        except RecursionError:
            raise ValueError(f"function file {path}: descriptor nested too deeply "
                             "to load") from None


def function_to_obj(f: SliceFunction) -> dict[str, Any]:
    if f.node is None:
        raise ValueError("function has no closed-form descriptor")
    return {"fn": f.node, "domain": f.domain.to_json()}
