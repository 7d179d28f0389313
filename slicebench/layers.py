"""Per-layer metrics of the traced run.

Every metric is read from spans.  The traced phase of the workload records
spans around its own public calls; a layer the workload does not call
directly is then measured by a calibration pass on inputs drawn from the
same seed, recorded as spans the same way:

* a short run of another workload's tasks when no span of that kind exists
  (the continuation and *-log builds outside log-fresh, the derivative
  outside dexp-field, the CLI verbs outside cli-mix);
* probes that always run: stem evaluation and quadrature on the
  workload's own functions, sqrt_vsym, the BCH solver, the covering, the
  descriptor loader and the suites;
* the kernel calibration, on operands taken from the workload's stem values.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

import inputs
import oracle
from spec import CLI_VERBS, ERROR_CLASSES, SUITES, tail
from workloads import (BCH_TOL, LIFT_TOL, LOG_TOL, CliMix, DexpField, LogFresh,
                       Tally, now)
from slicestar import (bch_combine, bch_condition, cq_exp, cq_mul, even_trig,
                       exp_derivative_bracket, lift_path, lifted_exp,
                       lifted_exp_preimage, loop_monodromy, quat_mul, sqrt_vsym)
from slicestar.descriptors import load_function, path_from_json
from slicestar.suites import SuiteConfig, run_suite

#: repetitions of each kernel loop; the median per-call time is reported
KERNEL_REPS = 7


class Probe:
    """Times single public calls as spans and books them as operations."""

    def __init__(self, tr, tally: Tally):
        self.tr = tr
        self.tally = tally

    def call(self, name: str, fn, *args, **kwargs):
        self.tally.attempted += 1
        t0 = now()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:    # a failed probe call is a failed operation
            self.tally.raised(exc)
            self.tally.failed += 1
            return None
        finally:
            self.tr.leaf(name, t0, now())

    def expect(self, ok: bool) -> None:
        """Book the check of one probe output; the call was counted already."""
        if not ok:
            self.tally.failed += 1


def _rel(got, want) -> float:
    return float(oracle.rel_residual(np.asarray(got), np.asarray(want)).max())


def _components(v) -> list:
    return list(v.components())


def _mini_run(wl, tr, tally: Tally, tasks: int) -> list:
    records = []
    for k in range(tasks):
        with tr.span(f"calibration.{wl.name}"):
            rec = wl.run_task(k, tr)
        wl.check(rec, tally)
        wl.after_task(rec, tr)
        records.append(rec)
    return records


def _coverage(wl, records, tr, tally, seed, workdir, smoke) -> tuple[list, list]:
    """Short runs for the layers the traced phase did not reach; returns
    the log-fresh records to read the continuation from and the runs made."""
    runs = []
    log_records = records if isinstance(wl, LogFresh) else None
    if log_records is None:
        mini = LogFresh(seed, workdir, smoke)
        mini.pool_size = 4
        mini.prepare()
        log_records = _mini_run(mini, tr, tally, 4)
        runs.append(mini.name)
    if not tr.has("bch.star_exp_derivative_stem"):
        mini = DexpField(seed, workdir, smoke)
        mini.pool_size = 1
        mini.prepare()
        _mini_run(mini, tr, tally, 1)
        runs.append(mini.name)
    if not tr.has("cli.log"):
        mini = CliMix(seed, os.path.join(workdir, "calibration-cli"), smoke)
        mini.verbs = CLI_VERBS
        mini.pool_size = len(CLI_VERBS)
        mini.prepare()
        _mini_run(mini, tr, tally, len(CLI_VERBS))
        runs.append(mini.name)
    return log_records, runs


def _probe_functions(p: Probe, fns) -> None:
    for fi, pts in fns:
        f = fi.function()
        got = [p.call("slicefn.stem_at", f.stem_at, z) for z in pts]
        p.expect(None not in got and _rel([_components(v) for v in got], fi.stem(pts)) <= 1e-12)
        near = pts[:25]
        got = [p.call("slicefn.stem_derivative_at", f.stem_derivative_at, z) for z in near]
        d = fi.domain.radius - np.abs(np.asarray(near) - fi.domain.center)
        want = oracle.cauchy_derivative(fi.stem, near, np.minimum(0.1, d / 2))
        p.expect(None not in got and _rel([_components(v) for v in got], want) <= 1e-8)


def _probe_sqrt_vsym(p: Probe, rng, npoints: int) -> None:
    for two_sided in (False, True):
        task = inputs.log_task(rng, "log", 1, two_sided, npoints)
        m = p.call("starlog.sqrt_vsym", sqrt_vsym, task.fn.function(), task.basepoint)
        if m is None:
            continue
        got = [p.call("starlog.sqrt_vsym.stem_at", m.stem_at, z) for z in task.points]
        if None in got:
            p.expect(False)
            continue
        F = task.fn.stem(task.points)
        fvs = (F[:, 1:] ** 2).sum(axis=1)
        sq = np.array([v.z0 ** 2 for v in got])
        p.expect(float((np.abs(sq - fvs) / np.maximum(1.0, np.abs(fvs))).max()) <= LOG_TOL)


def _probe_bch(p: Probe, rng, pairs: int, npoints: int, scanned: int) -> float:
    for _ in range(pairs):
        fi, gi, _ = inputs.bch_pair(rng)
        f, g = fi.function(), gi.function()
        rep = p.call("bch.bch_condition", bch_condition, f, g)
        h = p.call("bch.bch_combine", bch_combine, f, g, report=rep) if rep else None
        if h is None:
            continue
        pts = inputs.disk_points(rng, fi.domain, npoints)
        got = [p.call("bch.bch_combine.stem_at", h.stem_at, z) for z in pts]
        if None in got:
            p.expect(False)
            continue
        lhs = oracle.mul(oracle.exp(fi.stem(pts)), oracle.exp(gi.stem(pts)))
        p.expect(_rel(lhs, oracle.exp([_components(v) for v in got])) <= BCH_TOL)
    admitted = 0
    for _ in range(scanned):
        fi, gi, _ = inputs.bch_candidate(rng)
        rep = p.call("bch.bch_condition", bch_condition, fi.function(), gi.function())
        admitted += bool(rep is not None and rep.admissible)
    return admitted / scanned


def _probe_covering(p: Probe, rng, paths: int, nsamples: int) -> None:
    for _ in range(paths):
        obj = inputs.open_path(rng, nsamples)
        path = path_from_json(obj)
        s0 = path.start()
        start = lifted_exp_preimage(s0.w0, s0.w1, s0.s)
        lifted = p.call("covering.lift_path", lift_path, path, start)
        if lifted is not None:
            res = [max(abs(e.u0 - a.w0), abs(e.u1 - a.w1)) / max(1.0, abs(a.w0), abs(a.w1))
                   for e, a in zip(map(lifted_exp, lifted), path.samples)]
            p.expect(len(lifted) == len(path.samples) and max(res) <= LIFT_TOL)
        loop_obj, expect = inputs.loop_path(rng, nsamples)
        loop = path_from_json(loop_obj)
        s0 = loop.start()
        h = p.call("covering.loop_monodromy", loop_monodromy, loop,
                   lifted_exp_preimage(s0.w0, s0.w1, s0.s))
        p.expect(h is not None and (h.h1, h.h2) == expect)


def _probe_descriptors(p: Probe, rng, workdir: str, files: int, reps: int) -> None:
    os.makedirs(workdir, exist_ok=True)
    for k in range(files):
        task = inputs.log_task(rng, "log", 1, bool(k % 2), 1)
        path = inputs.write_json(os.path.join(workdir, f"load-{k}.json"), task.fn.to_json())
        for _ in range(reps):
            f = p.call("descriptors.load_function", load_function, path)
        z = task.points[0]
        p.expect(f is not None and _rel([_components(f.stem_at(z))], task.fn.stem(z)) <= 1e-12)


def _probe_suites(p: Probe, seed: int, samples: int) -> None:
    for name in SUITES:
        report = p.call(f"suites.{name}", run_suite,
                        SuiteConfig(seed=seed, samples=samples, suite=name))
        p.expect(report is not None and report["pass"])


def _kernel_ns(tr, name: str, fn, operands) -> float:
    """Median over KERNEL_REPS loops of the per-call time of fn on the operands."""
    per_call = []
    with tr.span(f"calibration.{name}"):
        for _ in range(KERNEL_REPS):
            t0 = now()
            for args in operands:
                fn(*args)
            per_call.append((now() - t0) / len(operands))
    return statistics.median(per_call)


def _kernels(tr, values) -> dict:
    """Kernel times on operands from the workload's stem values.  even_trig
    takes w = f_v^s of each value, scaled onto the series branch (|w| < 1)
    or the closed-form branch (|w| >= 1) when it lies on the other one."""
    pairs = list(zip(values, values[1:] + values[:1]))
    ws = [v.vec_norm2() for v in values]
    series = [(w if abs(w) < 1 else 0.5 * w / abs(w),) for w in ws]
    closed = [(w if abs(w) >= 1 else (2.0 * w / abs(w) if w else 2.0),) for w in ws]
    return {
        "quaternion.quat_mul_ns": _kernel_ns(
            tr, "quat_mul", quat_mul, [(a.real_part(), b.real_part()) for a, b in pairs]),
        "cquaternion.cq_mul_ns": _kernel_ns(tr, "cq_mul", cq_mul, pairs),
        "cquaternion.cq_exp_ns": _kernel_ns(tr, "cq_exp", cq_exp, [(v,) for v in values]),
        "cquaternion.even_trig_series_ns": _kernel_ns(tr, "even_trig.series", even_trig, series),
        "cquaternion.even_trig_closed_ns": _kernel_ns(tr, "even_trig.closed", even_trig, closed),
        "bch.bracket_ns": _kernel_ns(tr, "exp_derivative_bracket", exp_derivative_bracket, pairs),
    }


def _p50(xs) -> float:
    return float(np.median(xs))


def measure(wl, records, tr, tally: Tally, seed: int, workdir: str, smoke: bool,
            overhead: float) -> tuple[dict, dict]:
    """(metrics, notes) of the per-layer table for one traced run."""
    counts = wl.trace_counts(records, tr)
    log_records, runs = _coverage(wl, records, tr, tally, seed, workdir, smoke)
    cold_evals = LogFresh.trace_counts(log_records)["stem_evals_per_point"]

    p = Probe(tr, tally)
    path_samples = 24 if smoke else 96
    _probe_functions(p, wl.functions())
    _probe_sqrt_vsym(p, np.random.default_rng([seed, 5]), 50 if smoke else 500)
    admissible = _probe_bch(p, np.random.default_rng([seed, 6]), 1 if smoke else 4,
                            20 if smoke else 200, 4 if smoke else 16)
    _probe_covering(p, np.random.default_rng([seed, 7]), 1 if smoke else 4, path_samples)
    _probe_descriptors(p, np.random.default_rng([seed, 8]),
                       os.path.join(workdir, "calibration"), 2 if smoke else 4,
                       2 if smoke else 5)
    _probe_suites(p, seed, 10 if smoke else 200)

    m = _kernels(tr, wl.kernel_values)
    d = tr.durations_us
    stem_us = _p50(d("slicefn.stem_at"))
    cold, warm = d("continuation.cold"), d("continuation.warm")
    cold_pct, cold_tail = tail(cold)
    m.update({
        "slicefn.stem_eval_us": stem_us,
        "slicefn.stem_evals_per_point": counts["stem_evals_per_point"],
        "slicefn.quad_derivative_us": _p50(d("slicefn.stem_derivative_at")),
        "continuation.cold_call_us": _p50(cold),
        "continuation.cold_call_tail_us": cold_tail,
        "continuation.warm_call_us": _p50(warm),
        "continuation.cold_warm_ratio": _p50(cold) / _p50(warm),
        "continuation.self_us_per_point": statistics.fmean(cold) - cold_evals * stem_us,
        "continuation.repeat_share": counts["cont_repeats"] / counts["cont_calls"]
        if counts["cont_calls"] else 0.0,
        "starlog.star_log_build_ms": _p50(d("starlog.star_log")) / 1e3,
        "starlog.star_root_build_ms": _p50(d("starlog.star_root")) / 1e3,
        "starlog.sqrt_vsym_build_ms": _p50(d("starlog.sqrt_vsym")) / 1e3,
        "starlog.sqrt_vsym_cold_call_us": _p50(d("starlog.sqrt_vsym.stem_at")),
        "starlog.star_exp_call_us": _p50(d("starlog.star_exp.stem_at")),
        "bch.condition_ms": _p50(d("bch.bch_condition")) / 1e3,
        "bch.combine_build_ms": _p50(d("bch.bch_combine")) / 1e3,
        "bch.combine_call_us": _p50(d("bch.bch_combine.stem_at")),
        "bch.admissible_ratio": admissible,
        "bch.dexp_call_us": _p50(d("bch.star_exp_derivative_stem")),
        "covering.lift_path_us_per_sample": _p50(d("covering.lift_path")) / path_samples,
        "covering.loop_monodromy_ms": _p50(d("covering.loop_monodromy")) / 1e3,
        "descriptors.load_function_us": _p50(d("descriptors.load_function")),
    })
    m.update({f"cli.{verb}_ms": _p50(d(f"cli.{verb}")) / 1e3 for verb in CLI_VERBS})
    m.update({f"suites.{name}_ms": _p50(d(f"suites.{name}")) / 1e3 for name in SUITES})
    m.update({f"errors.{name}": tally.errors.get(name, 0) for name in ERROR_CLASSES})
    m["errors.other"] = sum(c for name, c in tally.errors.items() if name not in ERROR_CLASSES)
    m["trace.overhead_frac"] = overhead
    notes = {"calibration_runs": runs,
             "continuation.cold_call_tail_us": {"percentile": cold_pct, "samples": len(cold)},
             "continuation.self_us_per_point": "estimate: mean cold call minus "
             f"{cold_evals:.2f} stem evaluations x slicefn.stem_eval_us",
             "kernel_operands": len(wl.kernel_values)}
    return m, notes
