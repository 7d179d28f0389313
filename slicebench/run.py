#!/usr/bin/env python3
"""slicestar benchmark.

    python3 slicebench/run.py --workload log-fresh --seed 1 --seconds 15 --trace 0

Runs one workload (log-fresh, cli-mix or dexp-field) against the slicestar
sources in src/ of the checkout this file sits in, checks every output and
prints, as its last line, one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 measures the end-to-end metrics; --trace 1
makes a traced run and reports the per-layer metrics instead.  The lines
before it are a report: the run environment, sample counts and tail
percentiles, the generated inputs' locus margins, the error rate and, in a
traced run, the span table.  --smoke shrinks every input for a quick test.
Spans of a traced run are written to .slicebench/ in the checkout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".slicebench"

#: set-ups per run (input generation, input files, one warm-up task);
#: setup_s is the import time plus their median.  It is not scaled to the
#: reference host speed: set-up is mostly numpy work, which the calibration
#: loop tracks worse than it tracks slicestar's pure-Python work.
SETUP_REPS = 5

WORKLOAD_NAMES = ("log-fresh", "cli-mix", "dexp-field")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="minimal input sizes")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    return args


def _finite(v):
    return v if isinstance(v, int) or math.isfinite(v) else None


def _print_table(metrics: dict, specs) -> None:
    for m in specs:
        print(f"  {m.name:42s} {metrics[m.name]:>16.6g} {m.unit}")


def untraced(args, wl, report: dict, setup_s: float):
    import numpy as np

    import spec
    from workloads import REF_NS_PER_STEP, Tally, timed_phase

    tally = Tally()
    phase = timed_phase(wl, args.seconds, tally)
    task_ms = [t / 1e6 for t in phase.task_ns]
    ref_task_ms = [t * s for t, s in zip(task_ms, phase.task_scale)]
    task_pct, call_pct = wl.task_tail_pct, wl.call_tail_pct
    metrics = {
        "ref_points_per_s": tally.points_ok / phase.ref_busy_s,
        "ref_task_tail_ms": float(np.percentile(ref_task_ms, task_pct)),
        "ref_call_tail_us": float(np.percentile(phase.ref_calls_us, call_pct)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accuracy_digits": tally.digits,
        "points_per_s": tally.points_ok / phase.busy_s,
        "task_p50_ms": statistics.median(task_ms),
        "task_tail_ms": float(np.percentile(task_ms, task_pct)),
        "call_p50_us": statistics.median(phase.calls_us),
        "call_tail_us": float(np.percentile(phase.calls_us, call_pct)),
        "ref_task_p50_ms": statistics.median(ref_task_ms),
        "ref_call_p50_us": statistics.median(phase.ref_calls_us),
    }
    cals = phase.host_ns_per_step
    report.update({
        "timed_s": phase.busy_s, "points_checked_ok": tally.points_ok,
        "reported": {m.name: {"value": metrics.pop(m.name), "unit": m.unit}
                     for m in spec.REPORTED},
        "task_tail_ms": {"percentile": task_pct, "samples": len(task_ms)},
        "call_tail_us": {"percentile": call_pct, "samples": len(phase.calls_us),
                         "call": wl.call_name},
        "host_ns_per_step": {"reference": REF_NS_PER_STEP, "samples": len(cals),
                             "p10": float(np.percentile(cals, 10)),
                             "p50": float(np.percentile(cals, 50)),
                             "p90": float(np.percentile(cals, 90))},
    })
    return metrics, tally, spec.END_TO_END


def traced(args, wl, report: dict, work: Path):
    import layers
    import spec
    from tracing import Tracer
    from workloads import Tally, paired_phase

    tally = Tally()
    tr = Tracer()
    records, overhead = paired_phase(wl, args.seconds / 2, tally, tr)

    metrics, notes = layers.measure(wl, records, tr, tally, args.seed, str(work),
                                    args.smoke, overhead)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tr.write(str(trace_file))
    report.update({"notes": notes, "trace_file": str(trace_file.relative_to(ROOT)),
                   "spans": tr.summary()})
    return metrics, tally, spec.PER_LAYER


def run(args, import_s: float, work: Path) -> int:
    import spec
    from workloads import WORKLOADS

    reps = []
    for r in range(SETUP_REPS):
        t = time.perf_counter()
        wl = WORKLOADS[args.workload](args.seed, str(work / f"setup-{r}"), args.smoke)
        wl.prepare()
        wl.warmup()
        reps.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(reps)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "environment": spec.environment(ROOT, args.seed),
              "setup": {"import_s": import_s, "reps_s": reps},
              "input_margins": wl.margins()}
    if args.trace:
        metrics, tally, specs = traced(args, wl, report, work)
    else:
        metrics, tally, specs = untraced(args, wl, report, setup_s)
    report.update({"attempted": tally.attempted, "failed": tally.failed,
                   "error_rate": tally.failed / max(tally.attempted, 1),
                   "errors": dict(tally.errors)})

    print(json.dumps({"report": report}))
    _print_table(metrics, specs)
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m.name: {"value": _finite(metrics[m.name]), "unit": m.unit}
                    for m in specs},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "slicestar" / "__init__.py").is_file():
        print("error: no slicestar sources in src/ next to the benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers  # noqa: F401  (imports numpy, slicestar and its CLI)
    import_s = time.perf_counter() - T0

    work = OUT / f"work-{os.getpid()}"
    try:
        return run(args, import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
