"""Command-line interface.

Verbs:

    eval       evaluate a function descriptor at a quaternion
    log        build a *-logarithm branch, emit samples + round-trip residuals
    root       build an n-th *-root, emit samples + power-back residuals
    bch        admissibility report (and solution) for exp_*(f)*exp_*(g)
    dexp       slice derivative of exp_*(f) at a point, with oracle residual
    lift       lift a sampled path through the covering exponential
    monodromy  monodromy index of a sampled loop
    verify     run seeded property suites, emit a JSON report

Exit codes: 0 all good (verify: all properties pass), 2 malformed
configuration or input files, 3 evaluation outside the declared domain,
1 any other library failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import isfinite, sqrt
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from . import bch as bchmod
from .covering import lift_path, lifted_exp_preimage, loop_monodromy
from .cquaternion import CQuaternion, cq_exp
from .descriptors import (lift_point_from_json, load_function, path_from_json,
                          quaternion_from_json, quaternion_to_json)
from .errors import OutOfDomain, SliceStarError
from .slicefn import SliceFunction, induce_value, star_pow_value
from .starlog import LogBranch, star_exp, star_log, star_root
from .suites import SUITE_NAMES, SuiteConfig, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3


def _options(parser: argparse.ArgumentParser, *, sampled: bool = False,
             tol: bool = False, fmt: bool = False) -> None:
    """--out on every verb; --seed and --samples, --tol, and --json/--csv
    only on the verbs that read them."""
    if sampled:
        parser.add_argument("--seed", type=int, default=1, help="random seed")
        parser.add_argument("--samples", type=int, default=200,
                            help="sample count for grids and suites")
    if tol:
        parser.add_argument("--tol", action="append", default=[], metavar="KEY=VAL",
                            help="tolerance override (repeatable)")
    parser.add_argument("--out", default=None, help="write output to this path")
    if fmt:
        group = parser.add_mutually_exclusive_group()
        group.add_argument("--json", dest="fmt", action="store_const", const="json",
                           default="json", help="JSON output (default)")
        group.add_argument("--csv", dest="fmt", action="store_const", const="csv",
                           help="CSV output for sample grids")


def _parse_tols(pairs: list[str]) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ValueError(f"--tol expects KEY=VAL, got {item!r}")
        key, _, val = item.partition("=")
        out[key] = tol = float(val)
        if not isfinite(tol):
            raise ValueError(f"--tol {key} must be finite, got {val!r}")
    return out


def _parse_complex(text: str) -> complex:
    re_s, _, im_s = text.partition(",")
    z = complex(float(re_s), float(im_s or 0.0))
    if not (isfinite(z.real) and isfinite(z.imag)):
        raise ValueError(f"--basepoint must be finite, got {text!r}")
    return z


def _json_text(obj, pad: str = "") -> str:
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True)``, for
    objects whose dict keys are strings, without the pure-Python encoder
    that ``indent`` forces; ``pad`` indents every line after the first.
    Finite floats are written with ``float.__repr__`` and strings with
    ``encode_basestring_ascii``; every other scalar (NaN, infinities, ints,
    bools, None) and every empty container goes to ``json.dumps``.  Each
    container is joined into one string as soon as it is written, so the
    pieces held at once stay few.  ``_Rows`` are written as the list of
    their JSON forms.
    """
    if type(obj) is float and obj - obj == 0.0:
        return float.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if type(obj) is _Rows:
        return obj.text(pad)
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = [encode_basestring_ascii(key) + ": " + _json_text(obj[key], inner)
                 for key in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        items = [_json_text(item, inner) for item in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(obj)


#: a JSON string, or a JSON number (group 1)
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|(-?[0-9][-+.0-9eE]*)')


class _Rows:
    """Samples of one JSON shape: each row is a flat tuple of floats and
    ``shape(row)`` its JSON form, dicts and lists whose only scalars are
    the row's floats.  ``text`` writes them all through one template:
    ``_json_text`` of the shape of the row (0.0, 1.0, ...), whose numbers
    name the slot each float fills, so the byte format keeps one definition.
    A grid whose floats have a finite sum is one ``%r`` format of them
    all: the rows hold Python floats, whose repr is ``float.__repr__``.
    Otherwise each row is formatted apart, and a row with a non-finite
    float writes each float with ``_json_text``."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape: Callable[[tuple], object], rows: list[tuple]):
        self.shape = shape
        self.rows = rows

    def text(self, pad: str) -> str:
        if not self.rows:
            return "[]"
        inner = pad + "  "
        example = _json_text(self.shape(tuple(map(float, range(len(self.rows[0]))))),
                             inner)
        pieces, slots, end = [], [], 0
        for m in _TOKEN.finditer(example):
            if m.group(1) is not None:
                pieces.append(example[end:m.start()].replace("%", "%%"))
                slots.append(int(float(m.group(1))))
                end = m.end()
        pieces.append(example[end:].replace("%", "%%"))
        fast = "%r".join(pieces)
        pick = itemgetter(*slots)
        sep = ",\n" + inner
        floats = tuple(chain.from_iterable(map(pick, self.rows)))
        if isfinite(sum(floats)):
            # the brackets are in the format too, so the text is built once
            return ("[\n" + inner + sep.join([fast] * len(self.rows)) + "\n" + pad
                    + "]") % floats
        template = "%s".join(pieces)
        texts = [fast % pick(row) if isfinite(sum(row))
                 else template % tuple(map(_json_text, pick(row)))
                 for row in self.rows]
        return "[\n" + inner + sep.join(texts) + "\n" + pad + "]"


def _pairs(flat) -> list:
    """[[re, im], ...] from a flat run of floats."""
    return [[flat[i], flat[i + 1]] for i in range(0, len(flat), 2)]


def _cq_floats(q: CQuaternion) -> tuple:
    """The real and imaginary parts of q's four components, in order."""
    a, b, c, d = q
    return a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag


def _branch_sample(row: tuple) -> dict:
    """(z_re, z_im, 8 value floats, residual): a log or root sample."""
    return {"z": [row[0], row[1]], "value": _pairs(row[2:10]), "residual": row[10]}


def _condition_sample(row: tuple) -> dict:
    """(z_re, z_im, value_re, value_im): a point of the BCH condition scan."""
    return {"z": [row[0], row[1]], "value": [row[2], row[3]]}


def _h_sample(row: tuple) -> dict:
    """(z_re, z_im, 8 value floats): a sample of the BCH solution h."""
    return {"z": [row[0], row[1]], "value": _pairs(row[2:10])}


def _lift_sample(row: tuple) -> dict:
    """(t, u0_re, u0_im, u1_re, u1_im, 6 floats of s's vector part): a
    lifted path sample, the lift point as ``lift_point_from_json`` reads
    it plus t."""
    return {"t": row[0], "u0": [row[1], row[2]], "u1": [row[3], row[4]],
            "s": _pairs(row[5:11])}


def _emit(args, payload, csv_rows=None) -> None:
    """Write the CSV rows when given (--csv), else the payload as
    ``json.dumps(payload, indent=2, sort_keys=True)`` writes it, byte for
    byte (``_json_text``), with a final newline."""
    if csv_rows is not None:
        header, rows = csv_rows
        lines = [",".join(header)]
        lines += [",".join(map(repr, row)) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = _json_text(payload) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _function_samples(f: SliceFunction, seed: int, n: int):
    rng = np.random.default_rng(seed)
    return f.domain.sample_points(rng, n)


def _require_samples(args) -> None:
    """A config error when a sample grid gets --samples below 1."""
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")


def cmd_eval(args) -> int:
    f = load_function(args.fn)
    q = quaternion_from_json(json.loads(args.at))
    value = f(q)
    _emit(args, {"fn": args.fn, "at": quaternion_to_json(q),
                 "value": quaternion_to_json(value)})
    return EXIT_OK


def _sampled_branch(args, f: SliceFunction,
                    pairs: Callable[[list], list[tuple[CQuaternion, CQuaternion]]],
                    back: Callable[[CQuaternion], CQuaternion], prefix: str):
    """A branch on the sample grid with the residual |back(g) - F| at each
    point, where ``pairs(pts)`` gives the branch value g and f's stem F at
    each point, from one walk of the branch, and ``back`` maps g pointwise:
    the JSON samples, the residual max and mean, and the CSV rows when
    --csv asks for them.  Each sample is one ``_branch_sample`` row, in
    the order the points were drawn; its residual is summed as
    ``CQuaternion.norm`` sums it."""
    pts = _function_samples(f, args.seed, args.samples)
    rows = [(z.real, z.imag, g0.real, g0.imag, g1.real, g1.imag, g2.real, g2.imag,
             g3.real, g3.imag, sqrt(abs(b0 - f0) ** 2 + abs(b1 - f1) ** 2
                                    + abs(b2 - f2) ** 2 + abs(b3 - f3) ** 2))
            for z, (gz, (f0, f1, f2, f3)) in zip(pts, pairs(pts))
            for (g0, g1, g2, g3), (b0, b1, b2, b3) in ((gz, back(gz)),)]
    residuals = [row[10] for row in rows]
    stats = {"max": max(residuals), "mean": sum(residuals) / len(residuals)}
    if args.fmt != "csv":
        return _Rows(_branch_sample, rows), stats, None
    header = ["z_re", "z_im"] + [f"{prefix}{k}_{p}" for k in range(4) for p in ("re", "im")] \
        + ["residual"]
    return None, stats, (header, rows)


def _branch_json(branch: LogBranch) -> dict:
    return {"h1": branch.h1, "h2": branch.h2,
            "basepoint": [branch.basepoint.real, branch.basepoint.imag]}


def cmd_log(args) -> int:
    _require_samples(args)
    f = load_function(args.fn)
    branch = LogBranch(args.h1, args.h2, _parse_complex(args.basepoint))
    g = star_log(f, branch)
    samples, stats, rows = _sampled_branch(args, f, g.with_inputs_at, cq_exp, "g")
    _emit(args, {"branch": _branch_json(branch), "samples": samples,
                 "roundtrip": stats}, rows)
    return EXIT_OK


def cmd_root(args) -> int:
    _require_samples(args)
    f = load_function(args.fn)
    branch = LogBranch(args.h1, args.h2, _parse_complex(args.basepoint))
    root = star_root(f, args.n, branch)
    samples, stats, rows = _sampled_branch(args, f, root.with_inputs_at,
                                            lambda r: star_pow_value(r, args.n), "r")
    _emit(args, {"n": args.n, "branch": _branch_json(branch), "samples": samples,
                 "power_back": stats}, rows)
    return EXIT_OK


def cmd_bch(args) -> int:
    _require_samples(args)
    tols = _parse_tols(args.tol)
    unknown = sorted(set(tols) - {"bch"})
    if unknown:
        raise ValueError(f"unknown --tol key(s) {', '.join(unknown)}; bch reads only 'bch'")
    f = load_function(args.f)
    g = load_function(args.g)
    report = bchmod.bch_condition(f, g, tol=tols.get("bch", bchmod.TAU_BCH))
    condition = [(z.real, z.imag, v.real, v.imag)
                 for z, v in zip(report.points, report.values)]
    payload = {"admissible": report.admissible, "commuting": report.commuting,
               "lattice_ok": report.lattice_ok, "min_abs": report.min_abs,
               "tol": report.tol, "condition": _Rows(_condition_sample, condition)}
    if report.admissible or report.commuting:
        h = bchmod.bch_combine(f, g, report=report)
        pts = _function_samples(f, args.seed, min(args.samples, 32))
        residual = 0.0
        hs = []
        # exp(F) exp(G) = e^s Q and exp(H) = e^s exp(H - s): the residual is
        # relative to e^{Re s}, which is never evaluated
        for z, (hz, qz, fz, gz) in zip(pts, h.with_inputs_at(pts)):
            hs.append((z.real, z.imag, *_cq_floats(hz)))
            h0, h1, h2, h3 = hz
            shifted = CQuaternion(h0 - (fz.z0 + gz.z0), h1, h2, h3)
            residual = max(residual, (qz - cq_exp(shifted)).norm())
        payload["h_samples"] = _Rows(_h_sample, hs)
        payload["residual"] = residual
    _emit(args, payload)
    return EXIT_OK


def cmd_dexp(args) -> int:
    f = load_function(args.f)
    q = quaternion_from_json(json.loads(args.at))
    z = f.slice_point(q)
    d = bchmod.star_exp_derivative_stem(f, z)
    oracle = star_exp(f).stem_derivative_at(z)
    residual = (d - oracle).norm()
    _emit(args, {"f": args.f, "at": quaternion_to_json(q),
                 "value": quaternion_to_json(induce_value(d, q)),
                 "oracle_residual": residual})
    return EXIT_OK


def _path_and_start(args):
    """The sampled path, and the lift start from --start or else the
    principal preimage of the path's first sample."""
    with open(args.path) as fh:
        path = path_from_json(json.load(fh))
    if args.start:
        with open(args.start) as fh:
            return path, lift_point_from_json(json.load(fh))
    first = path.start()
    return path, lifted_exp_preimage(first.w0, first.w1, first.s)


def cmd_lift(args) -> int:
    path, start = _path_and_start(args)
    lifted = lift_path(path, start)
    rows = [(t, u0.real, u0.imag, u1.real, u1.imag, s1.real, s1.imag, s2.real,
             s2.imag, s3.real, s3.imag)
            for (t, _, _, _), (u0, u1, (_, s1, s2, s3)) in zip(path.samples, lifted)]
    _emit(args, {"samples": _Rows(_lift_sample, rows)})
    return EXIT_OK


def cmd_monodromy(args) -> int:
    path, start = _path_and_start(args)
    h = loop_monodromy(path, start)
    _emit(args, {"h1": h.h1, "h2": h.h2})
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = SuiteConfig(seed=args.seed, samples=args.samples,
                      tolerances=_parse_tols(args.tol), suite=args.suite)
    report = run_suite(cfg)
    _emit(args, report)
    return EXIT_OK if report["pass"] else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicestar",
        description="quaternionic slice-regular calculus: *-logs, roots, "
                    "exponential products, derivatives, covering maps")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", help="evaluate a function at a quaternion")
    p.add_argument("--fn", required=True, help="function JSON file")
    p.add_argument("--at", required=True, help="quaternion as JSON [q0,q1,q2,q3]")
    _options(p)
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("log", help="*-logarithm branch with residual statistics")
    p.add_argument("--fn", required=True)
    p.add_argument("--h1", type=int, required=True)
    p.add_argument("--h2", type=int, required=True)
    p.add_argument("--basepoint", required=True, metavar="RE,IM")
    _options(p, sampled=True, fmt=True)
    p.set_defaults(run=cmd_log)

    p = sub.add_parser("root", help="n-th *-root with power-back residuals")
    p.add_argument("--fn", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h1", type=int, default=0)
    p.add_argument("--h2", type=int, default=0)
    p.add_argument("--basepoint", required=True, metavar="RE,IM")
    _options(p, sampled=True, fmt=True)
    p.set_defaults(run=cmd_root)

    p = sub.add_parser("bch", help="exponential-product report and solution")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    _options(p, sampled=True, tol=True)
    p.set_defaults(run=cmd_bch)

    p = sub.add_parser("dexp", help="derivative of exp_*(f) at a point")
    p.add_argument("--f", required=True)
    p.add_argument("--at", required=True)
    _options(p)
    p.set_defaults(run=cmd_dexp)

    p = sub.add_parser("lift", help="lift a sampled path through the covering")
    p.add_argument("--path", required=True)
    p.add_argument("--start", default=None)
    _options(p)
    p.set_defaults(run=cmd_lift)

    p = sub.add_parser("monodromy", help="monodromy index of a sampled loop")
    p.add_argument("--path", required=True)
    p.add_argument("--start", default=None)
    _options(p)
    p.set_defaults(run=cmd_monodromy)

    p = sub.add_parser("verify", help="run seeded property suites")
    p.add_argument("--suite", default="all",
                   choices=SUITE_NAMES + ("all",))
    _options(p, sampled=True, tol=True)
    p.set_defaults(run=cmd_verify)

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def _shared_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every ``main`` call.
    Parsing leaves it unchanged; two threads racing here at most build it
    twice."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    return _parser


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.run(args)
    except OutOfDomain as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SliceStarError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
