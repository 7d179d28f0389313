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
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional

import numpy as np

from . import bch as bchmod
from .covering import lift_path, lifted_exp_preimage, loop_monodromy
from .cquaternion import CQuaternion, cq_exp, cq_mul
from .descriptors import (cq_to_json, lift_point_from_json, lift_point_to_json,
                          load_function, path_from_json, quaternion_from_json,
                          quaternion_to_json)
from .errors import OutOfDomain, SliceStarError
from .slicefn import SliceFunction, induce_value, star_pow_value
from .starlog import LogBranch, star_exp, star_log
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
        out[key] = float(val)
    return out


def _parse_complex(text: str) -> complex:
    re_s, _, im_s = text.partition(",")
    return complex(float(re_s), float(im_s or 0.0))


def _json_text(obj, pad: str = "") -> str:
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True)``, for
    objects whose dict keys are strings, without the pure-Python encoder
    that ``indent`` forces; ``pad`` indents every line after the first.
    Finite floats are written with ``float.__repr__`` and strings with
    ``encode_basestring_ascii``; every other scalar (NaN, infinities, ints,
    bools, None) and every empty container goes to ``json.dumps``.  Each
    container is joined into one string as soon as it is written, so the
    pieces held at once stay few.
    """
    if type(obj) is float and obj - obj == 0.0:
        return float.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = [encode_basestring_ascii(key) + ": " + _json_text(obj[key], inner)
                 for key in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        items = [_json_text(item, inner) for item in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(obj)


def _emit(args, payload, csv_rows=None) -> None:
    """Write the CSV rows when given (--csv), else the payload as
    ``json.dumps(payload, indent=2, sort_keys=True)`` writes it, byte for
    byte (``_json_text``), with a final newline."""
    if csv_rows is not None:
        header, rows = csv_rows
        lines = [",".join(header)]
        lines += [",".join(repr(c) for c in row) for row in rows]
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
                    pair: Callable[[complex], tuple[CQuaternion, CQuaternion]],
                    back: Callable[[CQuaternion], CQuaternion], prefix: str):
    """A branch on the sample grid with the residual |back(g) - F| at each
    point, where ``pair(z)`` gives the branch value g and f's stem F from
    one continuation state and ``back`` maps g pointwise: the JSON samples,
    the residual max and mean, and the CSV rows when --csv asks for them."""
    pts = _function_samples(f, args.seed, args.samples)
    samples, residuals = [], []
    for z in pts:
        gz, fz = pair(z)
        r = (back(gz) - fz).norm()
        residuals.append(r)
        samples.append({"z": [z.real, z.imag], "value": cq_to_json(gz),
                        "residual": r})
    stats = {"max": max(residuals), "mean": sum(residuals) / len(residuals)}
    if args.fmt != "csv":
        return samples, stats, None
    header = ["z_re", "z_im"] + [f"{prefix}{k}_{p}" for k in range(4) for p in ("re", "im")] \
        + ["residual"]
    rows = [s["z"] + [x for c in s["value"] for x in c] + [s["residual"]]
            for s in samples]
    return samples, stats, (header, rows)


def _branch_json(branch: LogBranch) -> dict:
    return {"h1": branch.h1, "h2": branch.h2,
            "basepoint": [branch.basepoint.real, branch.basepoint.imag]}


def cmd_log(args) -> int:
    _require_samples(args)
    f = load_function(args.fn)
    branch = LogBranch(args.h1, args.h2, _parse_complex(args.basepoint))
    g = star_log(f, branch)
    samples, stats, rows = _sampled_branch(args, f, g.pair, cq_exp, "g")
    _emit(args, {"branch": _branch_json(branch), "samples": samples,
                 "roundtrip": stats}, rows)
    return EXIT_OK


def cmd_root(args) -> int:
    _require_samples(args)
    f = load_function(args.fn)
    branch = LogBranch(args.h1, args.h2, _parse_complex(args.basepoint))
    if args.n < 1:
        raise ValueError(f"root order must be a positive integer, got {args.n}")
    g = star_log(f, branch)
    scale = 1.0 / args.n

    def root_pair(z: complex) -> tuple[CQuaternion, CQuaternion]:
        # star_root's exp_*(log_*(f) / n), with the same arithmetic
        gz, fz = g.pair(z)
        return cq_exp(gz * scale), fz

    samples, stats, rows = _sampled_branch(args, f, root_pair,
                                            lambda r: star_pow_value(r, args.n), "r")
    _emit(args, {"n": args.n, "branch": _branch_json(branch), "samples": samples,
                 "power_back": stats}, rows)
    return EXIT_OK


def cmd_bch(args) -> int:
    _require_samples(args)
    f = load_function(args.f)
    g = load_function(args.g)
    tols = _parse_tols(args.tol)
    report = bchmod.bch_condition(f, g, tol=tols.get("bch", bchmod.TAU_BCH))
    payload = {"admissible": report.admissible, "commuting": report.commuting,
               "lattice_ok": report.lattice_ok, "min_abs": report.min_abs,
               "tol": report.tol,
               "condition": [{"z": [z.real, z.imag], "value": [v.real, v.imag]}
                             for z, v in zip(report.points, report.values)]}
    if report.admissible or report.commuting:
        h = bchmod.bch_combine(f, g, report=report)
        pts = _function_samples(f, args.seed, min(args.samples, 32))
        ef, eg = star_exp(f), star_exp(g)
        residual = 0.0
        hs = []
        for z in pts:
            hz = h.stem_at(z)
            hs.append({"z": [z.real, z.imag], "value": cq_to_json(hz)})
            residual = max(residual, (cq_mul(ef.stem_at(z), eg.stem_at(z))
                                      - cq_exp(hz)).norm())
        payload["h_samples"] = hs
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
    _emit(args, {"samples": [dict(t=s.t, **lift_point_to_json(p))
                             for s, p in zip(path.samples, lifted)]})
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
