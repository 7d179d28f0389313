"""The workloads: log-fresh, cli-mix and dexp-field.

Each workload draws a pool of task inputs from its seed and runs tasks
from the pool one after another (a closed loop on one thread).  As each
task ends, outside its timing, its outputs are checked against the
independent arithmetic in ``oracle`` and dropped.  A task that raises, a
CLI call that exits non-zero and an output whose check fails all count as
failed operations.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import sys
import time
import traceback
from array import array
from collections import Counter
from itertools import islice
from dataclasses import dataclass, field

import numpy as np

import inputs
import oracle
from tracing import CallCounter
from slicestar import (bch_combine, star_exp, star_exp_derivative_stem,
                       star_log, star_root)
from slicestar.cli import main as cli_main
from slicestar.descriptors import cq_from_json

#: tolerances, as in the verification suites
LOG_TOL = 1e-8        # exp_*(g) = f, relative
ROOT_TOL = 1e-8       # root^n = f, relative
BCH_TOL = 1e-8        # exp_*(f) exp_*(g) = exp_*(h), relative
DEXP_TOL = 1e-8       # closed form against quadrature, relative
EXP_TOL = 1e-12       # exp_*(f) against the reference exponential, relative
LIFT_TOL = 1e-12      # lifted_exp(lift) = path sample

#: quadrature oracle: radius cap and number of nodes
QUAD_RADIUS = 0.1
QUAD_NODES = 48

#: points per branch that the traced run's warm pass evaluates a second time
WARM_POINTS = 200

now = time.perf_counter_ns


class Tally:
    """Operations attempted and failed, output points that passed their
    check, the worst accuracy score and the errors raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.points_ok = 0
        self.digits = math.inf
        self.errors: Counter = Counter()

    def raised(self, exc: BaseException) -> None:
        self.errors[type(exc).__name__] += 1
        if sum(self.errors.values()) <= 3:
            traceback.print_exception(exc, file=sys.stderr)

    def score(self, residuals, tol: float) -> np.ndarray:
        """Record residuals against tol; returns the mask of passing outputs."""
        r = np.asarray(residuals, dtype=float)
        if np.isnan(r).any():
            self.digits = -math.inf
        elif r.size:
            self.digits = min(self.digits, oracle.digits(tol, float(r.max())))
        return r <= tol

    def points(self, ok: np.ndarray) -> None:
        """Count checked output points: the passing ones and the failed ones."""
        good = int(np.count_nonzero(ok))
        self.points_ok += good
        self.failed += ok.size - good


def _scored(vals, residual, tol: float, tally: Tally) -> np.ndarray:
    """Mask of the call results that passed.  A call that raised fails;
    the others are scored by residual(values (M, 4), indices)."""
    ok = np.zeros(len(vals), dtype=bool)
    good = []
    for i, v in enumerate(vals):
        if isinstance(v, BaseException):
            tally.raised(v)
        else:
            good.append(i)
    if good:
        got = np.array([vals[i].components() for i in good], dtype=complex)
        ok[good] = tally.score(residual(got, good), tol)
    return ok


def _quad_oracle(fn: inputs.FunctionInput, points) -> np.ndarray:
    """Reference d/dz exp_*(f) at the points, by Cauchy quadrature."""
    z = np.asarray(points, dtype=complex)
    d = fn.domain.radius - np.abs(z - fn.domain.center)
    return oracle.cauchy_derivative(lambda w: oracle.exp(fn.stem(w)), z,
                                    np.minimum(QUAD_RADIUS, d / 2), QUAD_NODES)


class Workload:
    """A pool of task inputs drawn from the seed, and the kernel operands
    kept from the checked outputs."""

    name = ""
    #: the pointwise call behind call_p50_us and call_tail_us
    call_name = ""
    #: tail percentiles of task and call times: the highest with at least
    #: ten samples beyond it in a run on the slowest host seen.  They are
    #: fixed because the sample count follows the host's speed.
    task_tail_pct = 95.0
    call_tail_pct = 95.0

    def __init__(self, seed: int, workdir: str, smoke: bool):
        self.seed = seed
        self.workdir = workdir
        self.kernel_values: list = []

    def warmup(self) -> None:
        self.run_task(0)

    def keep(self, values) -> None:
        """Keep the first 256 checked stem values as kernel operands."""
        self.kernel_values += islice(values, max(0, 256 - len(self.kernel_values)))

    def after_task(self, rec, tr) -> None:
        """Traced runs only: extra spans once a task's outputs are checked."""

    def functions(self) -> list:
        """(function input, points) pairs for the stem-evaluation probes."""
        return [(t.fn, t.points[:200]) for t in self.pool[:4]]

    def margins(self) -> dict:
        fns = [t.fn for t in self.pool if t.fn is not None]
        return {"min_fs_over_scale": min(f.margin_fs for f in fns),
                "min_fvs_over_scale": min(f.margin_fvs for f in fns),
                "required": inputs.MARGIN}


# -- log-fresh -----------------------------------------------------------------

#: (kind, root order, two-sided domain), cycled by task index
LOG_SCHEDULE = (("log", 1, False), ("log", 1, True), ("root", 2, False),
                ("root", 3, True), ("log", 1, False), ("log", 1, True))


@dataclass
class LogRecord:
    task: inputs.LogTask
    error: BaseException | None = None
    values: list = field(default_factory=list)
    calls_ns: list = field(default_factory=list)
    evals: int = 0          # stem evaluations of f during the pointwise calls
    branch: object = None   # traced runs: the branch, for the warm pass


class LogFresh(Workload):
    """One branch per task, evaluated once at each of thousands of fresh points."""

    name = "log-fresh"
    call_name = "g.stem_at(z) at a fresh point"
    task_tail_pct = 75.0

    def __init__(self, seed: int, workdir: str, smoke: bool):
        super().__init__(seed, workdir, smoke)
        self.npoints = 60 if smoke else 2000
        self.pool_size = len(LOG_SCHEDULE) if smoke else 64

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.pool = [inputs.log_task(rng, *LOG_SCHEDULE[k % len(LOG_SCHEDULE)],
                                     self.npoints)
                     for k in range(self.pool_size)]

    def run_task(self, k: int, tr=None) -> LogRecord:
        task = self.pool[k % len(self.pool)]
        rec = LogRecord(task)
        f = task.fn.function()
        counter = None
        if tr is not None:
            counter = CallCounter()
            f = counter.wrap(f)
        t0 = now()
        try:
            if task.kind == "log":
                g = star_log(f, task.branch())
            else:
                g = star_root(f, task.n, task.branch())
        except Exception as exc:    # a failed construction is a failed operation
            g, rec.error = None, exc
        t1 = now()
        if tr is not None:
            tr.leaf(f"starlog.star_{task.kind}", t0, t1)
        if g is None:
            return rec
        evals0 = counter.calls if counter else 0
        values, calls = rec.values, rec.calls_ns
        for z in task.points:
            t0 = now()
            try:
                v = g.stem_at(z)
            except Exception as exc:
                v = exc
            t1 = now()
            values.append(v)
            calls.append(t1 - t0)
            if tr is not None:
                tr.leaf("continuation.cold", t0, t1)
        if counter is not None:
            rec.evals = counter.calls - evals0
            rec.branch = g
        return rec

    def check(self, rec: LogRecord, tally: Tally) -> None:
        """Check one task's outputs, then drop them."""
        task = rec.task
        tally.attempted += 1 + len(task.points)
        if rec.error is not None:
            tally.raised(rec.error)
            tally.failed += 1 + len(task.points)
            return
        want = task.fn.stem(task.points)
        if task.kind == "log":
            ok = _scored(rec.values, lambda got, idx: oracle.rel_residual(
                oracle.exp(got), want[idx]), LOG_TOL, tally)
        else:
            ok = _scored(rec.values, lambda got, idx: oracle.rel_residual(
                oracle.power(got, task.n), want[idx]), ROOT_TOL, tally)
        tally.points(ok)
        self.keep(v for v in rec.values if not isinstance(v, BaseException))
        rec.values = rec.calls_ns = None

    def calls_us(self, rec: LogRecord) -> list[float]:
        return [c / 1e3 for c in rec.calls_ns]

    def after_task(self, rec: LogRecord, tr) -> None:
        """Warm pass: evaluate the branch again at its first points."""
        g, rec.branch = rec.branch, None
        if g is None:
            return
        for z in rec.task.points[:WARM_POINTS]:
            t0 = now()
            g.stem_at(z)
            tr.leaf("continuation.warm", t0, now())

    @staticmethod
    def trace_counts(records, tr=None) -> dict:
        calls = sum(len(rec.task.points) for rec in records if rec.error is None)
        distinct = sum(len(set(rec.task.points)) for rec in records if rec.error is None)
        evals = sum(rec.evals for rec in records)
        return {"stem_evals_per_point": evals / max(calls, 1),
                "cont_calls": calls, "cont_repeats": calls - distinct}


# -- dexp-field ------------------------------------------------------------------


@dataclass
class DexpRecord:
    task: inputs.DexpTask
    derivs: list = field(default_factory=list)
    exps: list = field(default_factory=list)
    calls_ns: list = field(default_factory=list)
    evals: int = 0


class DexpField(Workload):
    """Closed-form d/dz exp_*(f) and exp_*(f) at hundreds of points per f."""

    name = "dexp-field"
    call_name = "star_exp_derivative_stem(f, z)"
    task_tail_pct = 90.0

    def __init__(self, seed: int, workdir: str, smoke: bool):
        super().__init__(seed, workdir, smoke)
        self.npoints = 20 if smoke else 300
        self.pool_size = 2 if smoke else 64

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.pool = [inputs.dexp_task(rng, self.npoints) for _ in range(self.pool_size)]

    def run_task(self, k: int, tr=None) -> DexpRecord:
        task = self.pool[k % len(self.pool)]
        rec = DexpRecord(task)
        f = task.fn.function()
        counter = None
        if tr is not None:
            counter = CallCounter()
            f = counter.wrap(f)
        ef = star_exp(f)
        derivs, exps, calls = rec.derivs, rec.exps, rec.calls_ns
        for z in task.points:
            t0 = now()
            try:
                d = star_exp_derivative_stem(f, z)
            except Exception as exc:
                d = exc
            t1 = now()
            try:
                e = ef.stem_at(z)
            except Exception as exc:
                e = exc
            t2 = now()
            derivs.append(d)
            exps.append(e)
            calls.append(t1 - t0)
            if tr is not None:
                tr.leaf("bch.star_exp_derivative_stem", t0, t1)
                tr.leaf("starlog.star_exp.stem_at", t1, t2)
        if counter is not None:
            rec.evals = counter.calls
        return rec

    def check(self, rec: DexpRecord, tally: Tally) -> None:
        """Check one task's outputs, then drop them."""
        fn, pts = rec.task.fn, np.asarray(rec.task.points)
        tally.attempted += len(pts)
        ok = _scored(rec.derivs, lambda got, idx: oracle.rel_residual(
            got, _quad_oracle(fn, pts[idx])), DEXP_TOL, tally)
        ok &= _scored(rec.exps, lambda got, idx: oracle.rel_residual(
            got, oracle.exp(fn.stem(pts[idx]))), EXP_TOL, tally)
        tally.points(ok)
        self.keep(v for pair in zip(rec.exps, rec.derivs) for v in pair
                  if not isinstance(v, BaseException))
        rec.derivs = rec.exps = rec.calls_ns = None

    def calls_us(self, rec: DexpRecord) -> list[float]:
        return [c / 1e3 for c in rec.calls_ns]

    @staticmethod
    def trace_counts(records, tr=None) -> dict:
        points = sum(len(rec.task.points) for rec in records)
        return {"stem_evals_per_point": sum(rec.evals for rec in records) / max(points, 1),
                "cont_calls": 0, "cont_repeats": 0}


# -- cli-mix ---------------------------------------------------------------------

#: verbs in the order requests cycle through them; weighted so that no verb
#: takes much more than a third of the run time
VERB_CYCLE = ("log", "dexp", "lift", "root", "monodromy", "bch", "dexp", "lift",
              "monodromy", "log", "verify", "root", "dexp", "bch", "lift",
              "monodromy")

#: suites cycled through by the verify requests
VERIFY_SUITES = ("algebra", "covering", "log", "bch", "derivative")


@dataclass
class Request:
    verb: str
    argv: list
    fn: inputs.FunctionInput | None = None     # log, root, bch (f), dexp
    g: inputs.FunctionInput | None = None      # bch
    n: int = 1                                 # root order
    task: inputs.LogTask | None = None         # log, root
    path: dict | None = None                   # lift, monodromy
    expect: tuple | None = None                # monodromy (h1, h2)
    q: list | None = None                      # dexp point
    seed: int = 0                              # the CLI's --seed
    samples: int = 0                           # the CLI's --samples


@dataclass
class CliRecord:
    req: Request
    out: str
    code: int
    stderr: str
    ns: int
    error: BaseException | None = None


def _cli_error(code: int, stderr: str) -> str:
    """Error class named by the CLI's exit code and its last stderr line."""
    if code == 3:
        return "OutOfDomain"
    lines = stderr.strip().splitlines()
    if code == 1 and lines and lines[-1].startswith("error: "):
        name = lines[-1][len("error: "):].split(":", 1)[0]
        if name.isidentifier():
            return name
    return "other"


class CliMix(Workload):
    """A seeded sequence of CLI invocations, run in-process through cli.main."""

    name = "cli-mix"
    call_name = "a log or root request's time divided by its sample count"
    call_tail_pct = 90.0

    def __init__(self, seed: int, workdir: str, smoke: bool):
        super().__init__(seed, workdir, smoke)
        self.samples = 20 if smoke else 300
        self.verify_samples = 10 if smoke else 60
        self.path_samples = 24 if smoke else 96
        self.pool_size = len(set(VERB_CYCLE)) if smoke else \
            len(VERIFY_SUITES) * len(VERB_CYCLE)
        self.verbs = tuple(dict.fromkeys(VERB_CYCLE)) if smoke else VERB_CYCLE

    def prepare(self) -> None:
        self.indir = os.path.join(self.workdir, "in")
        self.outdir = os.path.join(self.workdir, "out")
        os.makedirs(self.indir, exist_ok=True)
        os.makedirs(self.outdir, exist_ok=True)
        rng = np.random.default_rng([self.seed, 3])
        self.pool = [self._request(rng, k) for k in range(self.pool_size)]

    def _file(self, k: int, name: str, obj) -> str:
        return inputs.write_json(os.path.join(self.indir, f"{k}-{name}.json"), obj)

    def _request(self, rng, k: int) -> Request:
        verb = self.verbs[k % len(self.verbs)]
        seed = int(rng.integers(1, 2 ** 31))
        if verb in ("log", "root"):
            two_sided = bool(rng.integers(2))
            n = int(rng.integers(2, 4)) if verb == "root" else 1
            task = inputs.log_task(rng, verb, n, two_sided, 0)
            bp = task.basepoint
            argv = [verb, "--fn", self._file(k, "f", task.fn.to_json()),
                    f"--h1={task.h1}", f"--h2={task.h2}",
                    f"--basepoint={bp.real!r},{bp.imag!r}"]
            if verb == "root":
                argv += ["--n", str(n)]
            argv += ["--seed", str(seed), "--samples", str(self.samples)]
            return Request(verb, argv, fn=task.fn, n=n, task=task, seed=seed,
                           samples=self.samples)
        if verb == "bch":
            f, g, _ = inputs.bch_pair(rng)
            argv = ["bch", "--f", self._file(k, "f", f.to_json()),
                    "--g", self._file(k, "g", g.to_json()),
                    "--seed", str(seed), "--samples", "32"]
            return Request(verb, argv, fn=f, g=g, seed=seed, samples=32)
        if verb == "dexp":
            task = inputs.dexp_task(rng, 1)
            q = inputs.slice_quaternion(rng, task.points[0])
            argv = ["dexp", "--f", self._file(k, "f", task.fn.to_json()),
                    "--at", json.dumps(q)]
            return Request(verb, argv, fn=task.fn, q=q)
        if verb == "lift":
            path = inputs.open_path(rng, self.path_samples)
            return Request(verb, ["lift", "--path", self._file(k, "path", path)],
                           path=path)
        if verb == "monodromy":
            path, h = inputs.loop_path(rng, self.path_samples)
            return Request(verb, ["monodromy", "--path", self._file(k, "loop", path)],
                           path=path, expect=h)
        suite = VERIFY_SUITES[(k // len(self.verbs)) % len(VERIFY_SUITES)]
        argv = ["verify", "--suite", suite, "--seed", str(seed),
                "--samples", str(self.verify_samples)]
        return Request(verb, argv, seed=seed, samples=self.verify_samples)

    def run_task(self, k: int, tr=None) -> CliRecord:
        req = self.pool[k % len(self.pool)]
        out = os.path.join(self.outdir, f"{k}.json")
        err = io.StringIO()
        exc = None
        t0 = now()
        with contextlib.redirect_stderr(err):
            try:
                code = cli_main(req.argv + ["--out", out])
            except SystemExit as stop:      # argparse rejected the arguments
                code = stop.code if isinstance(stop.code, int) else 2
            except Exception as raised:     # an uncaught library failure
                code, exc = -1, raised
        t1 = now()
        if tr is not None:
            tr.leaf(f"cli.{req.verb}", t0, t1)
        return CliRecord(req, out, code, err.getvalue(), t1 - t0, exc)

    def check(self, rec: CliRecord, tally: Tally) -> None:
        """Check one invocation's output file, then delete it."""
        tally.attempted += 1
        if rec.error is not None:
            tally.raised(rec.error)
        elif rec.code != 0:
            tally.errors[_cli_error(rec.code, rec.stderr)] += 1
        if rec.code != 0:
            tally.failed += 1
            return
        with open(rec.out) as fh:
            payload = json.load(fh)
        os.remove(rec.out)
        ok, points = self._check(rec.req, payload, tally)
        if ok:
            tally.points_ok += points
        else:
            tally.failed += 1

    def _check(self, req: Request, p: dict, tally: Tally) -> tuple[bool, int]:
        verb = req.verb
        if verb in ("log", "root"):
            z = np.array([complex(*s["z"]) for s in p["samples"]])
            vals = np.array([[complex(*c) for c in s["value"]] for s in p["samples"]])
            want = req.fn.stem(z)
            self.keep(cq_from_json(s["value"]) for s in p["samples"])
            if verb == "log":
                ok = tally.score(oracle.rel_residual(oracle.exp(vals), want), LOG_TOL)
            else:
                ok = tally.score(oracle.rel_residual(oracle.power(vals, req.n), want),
                                 ROOT_TOL)
            return bool(ok.all()) and len(z) == req.samples, len(z)
        if verb == "bch":
            hs = p.get("h_samples", [])
            if not p["admissible"] or not hs:
                return False, 0
            z = np.array([complex(*s["z"]) for s in hs])
            h = np.array([[complex(*c) for c in s["value"]] for s in hs])
            lhs = oracle.mul(oracle.exp(req.fn.stem(z)), oracle.exp(req.g.stem(z)))
            ok = tally.score(oracle.rel_residual(oracle.exp(h), lhs), BCH_TOL)
            return bool(ok.all()), len(z)
        if verb == "dexp":
            q = np.array(req.q)
            z = complex(q[0], math.sqrt(float((q[1:] ** 2).sum())))
            want = oracle.induce(_quad_oracle(req.fn, [z])[0], q)
            got = np.array(p["value"], dtype=float)
            res = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
            return bool(tally.score([res], DEXP_TOL).all()), 1
        if verb == "lift":
            ins, outs = req.path["samples"], p["samples"]
            if len(ins) != len(outs):
                return False, 0
            res = []
            for a, b in zip(ins, outs):
                u0, u1 = complex(*b["u0"]), complex(*b["u1"])
                w0, w1 = complex(*a["w0"]), complex(*a["w1"])
                e0 = np.exp(u0)
                scale = max(1.0, abs(w0), abs(w1))
                ds = max(abs(complex(*x) - complex(*y)) for x, y in zip(a["s"], b["s"]))
                res.append(max(abs(e0 * np.cos(u1) - w0), abs(e0 * np.sin(u1) - w1)) / scale)
                res.append(ds)
            return bool(tally.score(res, LIFT_TOL).all()), len(outs)
        if verb == "monodromy":
            return (p["h1"], p["h2"]) == req.expect, 1
        results = [r for rs in p["results"].values() for r in rs]
        return bool(p["pass"]), len(results)

    def calls_us(self, rec: CliRecord) -> list[float]:
        """Per-sample time of a log or root request."""
        if rec.req.verb in ("log", "root") and rec.code == 0:
            return [rec.ns / 1e3 / rec.req.samples]
        return []

    def trace_counts(self, records, tr) -> dict:
        """Replay one log, root and bch request through the library with the
        access pattern of the verb (the branch, then the round-trip function
        at the same point), weighted by how often each verb ran."""
        runs = Counter(rec.req.verb for rec in records)
        calls = repeats = evals = points = 0
        for verb in ("log", "root", "bch"):
            req = next((r for r in self.pool if r.verb == verb), None)
            if req is None or not runs[verb]:
                continue
            inner, outer = CallCounter(), CallCounter()
            f = inner.wrap(req.fn.function())
            with tr.span(f"replay.{verb}"):
                if verb == "log":
                    g = outer.wrap(star_log(f, req.task.branch()), repeats=True)
                    pair = (g, star_exp(g))
                elif verb == "root":
                    g = outer.wrap(star_root(f, req.n, req.task.branch()), repeats=True)
                    pair = (g, g.star_pow(req.n))
                else:
                    g = outer.wrap(bch_combine(f, inner.wrap(req.g.function())),
                                   repeats=True)
                    pair = (g, star_exp(g))
                pts = f.domain.sample_points(np.random.default_rng(req.seed), req.samples)
                before = inner.calls
                for z in pts:
                    for fn in pair:
                        fn.stem_at(z)
            calls += runs[verb] * outer.calls
            repeats += runs[verb] * outer.repeats
            evals += runs[verb] * (inner.calls - before)
            points += runs[verb] * len(pts)
        return {"stem_evals_per_point": evals / max(points, 1),
                "cont_calls": calls, "cont_repeats": repeats}

    def functions(self) -> list:
        reqs = [r for r in self.pool if r.verb in ("log", "root")][:4]
        rng = np.random.default_rng([self.seed, 4])
        return [(r.fn, inputs.disk_points(rng, r.fn.domain, 200)) for r in reqs]



WORKLOADS = {cls.name: cls for cls in (LogFresh, CliMix, DexpField)}


@dataclass(frozen=True)
class _CalQ:
    """A complex quaternion for the calibration loop, built like
    slicestar.cquaternion.CQuaternion but independent of it."""
    a: complex
    b: complex
    c: complex
    d: complex


def _cal_mul(p: _CalQ, q: _CalQ) -> _CalQ:
    return _CalQ(p.a * q.a - p.b * q.b - p.c * q.c - p.d * q.d,
                 p.a * q.b + p.b * q.a + p.c * q.d - p.d * q.c,
                 p.a * q.c - p.b * q.d + p.c * q.a + p.d * q.b,
                 p.a * q.d + p.b * q.c - p.c * q.b + p.d * q.a)


_cal_rng = np.random.default_rng(0)
#: operands of the calibration loop, one step each
CAL_OPERANDS = tuple(_CalQ(*(complex(*xy) for xy in _cal_rng.uniform(-1, 1, (4, 2))))
                     for _ in range(40))
#: the loop runs in three bursts (about 0.4 ms in all); the median burst
#: leaves out one that a garbage collection of the whole heap landed in
CAL_BURSTS = 3
#: the reference host speed: ns per step of the calibration loop
REF_NS_PER_STEP = 3000.0


def calibrate() -> float:
    """The host's current speed: ns per step of a fixed loop of the kind of
    work slicestar does (frozen-dataclass complex quaternions, complex and
    cmath arithmetic, a memo dict) that calls nothing in slicestar."""
    bursts = []
    for _ in range(CAL_BURSTS):
        t0 = now()
        memo = {}
        acc = CAL_OPERANDS[0]
        for i, q in enumerate(CAL_OPERANDS):
            acc = _cal_mul(acc, q)
            s = cmath.exp(1j * acc.a.real) / (abs(acc.a) + abs(acc.b) + abs(acc.c) + abs(acc.d))
            acc = _CalQ(acc.a * s, acc.b * s, acc.c * s, acc.d * s)
            memo[i] = acc
        bursts.append(now() - t0)
    return sorted(bursts)[CAL_BURSTS // 2] / len(CAL_OPERANDS)


@dataclass
class Phase:
    task_ns: list
    task_scale: list        # REF_NS_PER_STEP over the host's speed around each task
    calls_us: array
    ref_calls_us: array     # calls_us, each scaled by its task's task_scale
    busy_s: float           # summed task time
    ref_busy_s: float       # summed task time scaled to the reference speed
    host_ns_per_step: list  # every calibration of the phase


def _task(wl: Workload, k: int, tally: Tally, tr=None, calibrated=False):
    """Run task k, timed; then check its outputs outside the timing.  With
    `calibrated`, the host's speed is measured right after the task ends."""
    if tr is not None:
        tr.task = k
        with tr.span("task"):
            t0 = now()
            rec = wl.run_task(k, tr)
            t1 = now()
    else:
        t0 = now()
        rec = wl.run_task(k)
        t1 = now()
    cal = calibrate() if calibrated else None
    calls = wl.calls_us(rec)
    wl.check(rec, tally)
    if tr is not None:
        tr.task = -1
        wl.after_task(rec, tr)
    return rec, t1 - t0, calls, cal


def timed_phase(wl: Workload, seconds: float, tally: Tally) -> Phase:
    """Run tasks back to back (a closed loop) until their summed time
    reaches `seconds`.  Each task's outputs are checked as soon as it ends,
    outside its timing, and then dropped, so memory does not grow with the
    number of tasks run.

    The calibration loop runs right before and right after every task,
    outside its timing.  The shared host's speed drifts by a third and more
    within seconds and between runs; the calibration, which calls nothing
    in slicestar, slows down with it, so a task's time scaled by
    REF_NS_PER_STEP / (mean of its two calibrations) is its time at the
    reference speed."""
    task_ns, task_scale, cals = [], [], []
    calls, ref_calls = array("d"), array("d")
    busy = ref_busy = 0.0
    while busy < seconds * 1e9:
        c0 = calibrate()
        _, ns, call_us, c1 = _task(wl, len(task_ns), tally, calibrated=True)
        scale = REF_NS_PER_STEP / ((c0 + c1) / 2)
        busy += ns
        ref_busy += ns * scale
        task_ns.append(ns)
        task_scale.append(scale)
        cals += (c0, c1)
        calls.extend(call_us)
        ref_calls.extend(c * scale for c in call_us)
    return Phase(task_ns, task_scale, calls, ref_calls, busy / 1e9, ref_busy / 1e9, cals)


def paired_phase(wl: Workload, seconds: float, tally: Tally, tr) -> tuple[list, float]:
    """Run every task twice in a row, untraced and traced, in alternating
    order, until the summed time reaches `seconds`.  Returns the traced
    records and the tracing overhead, 1 - traced / untraced points_per_s;
    pairing the runs keeps the host's drifting speed out of the ratio."""
    records = []
    busy = {False: 0, True: 0}
    points = {False: 0, True: 0}
    k = 0
    while busy[False] + busy[True] < seconds * 1e9:
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            before = tally.points_ok
            rec, ns, _, _ = _task(wl, k, tally, tr if traced else None)
            busy[traced] += ns
            points[traced] += tally.points_ok - before
            if traced:
                records.append(rec)
        k += 1
    return records, 1.0 - (points[True] / busy[True]) / (points[False] / busy[False])
