"""Metric names, units and direction; tail percentiles; the run environment."""

from __future__ import annotations

import hashlib
import os
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


#: The metrics of BENCHMARK.json.  The ref_ timings are scaled to the
#: reference host speed (see workloads.timed_phase): the shared host's speed
#: drifts by a third and more between runs, and the raw times follow it.
END_TO_END = (
    Metric("ref_points_per_s", "1/s", "higher", 0.25),
    Metric("ref_task_tail_ms", "ms", "lower", 0.25),
    Metric("ref_call_tail_us", "us", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("accuracy_digits", "digits", "higher", 0.10),
)

#: Printed in the report only: the timings as measured, and the scaled
#: medians (a median can flip between the host's fast and slow spells).
REPORTED = (
    Metric("points_per_s", "1/s", "higher"),
    Metric("task_p50_ms", "ms", "lower"),
    Metric("task_tail_ms", "ms", "lower"),
    Metric("call_p50_us", "us", "lower"),
    Metric("call_tail_us", "us", "lower"),
    Metric("ref_task_p50_ms", "ms", "lower"),
    Metric("ref_call_p50_us", "us", "lower"),
)

#: every slicestar.errors.SliceStarError subclass at the time of writing;
#: anything else raised by a public call is counted under errors.other
ERROR_CLASSES = (
    "BadExampleInput", "BadOrder", "BadStart", "BranchObstruction",
    "DegenerateAngle", "DegenerateUnits", "DomainMismatch", "HitsVLocus",
    "JNotDefined", "NearBoundary", "NonIsolatedZero", "NotALoop", "NotDeck",
    "NotExponential", "OnVinf", "OnW", "OutOfDomain", "PathTooWild",
    "RealAxis", "VanishingVectorPart", "SliceStarError",
)

CLI_VERBS = ("log", "root", "bch", "dexp", "lift", "monodromy", "verify")
SUITES = ("algebra", "covering", "log", "bch", "derivative")

PER_LAYER = (
    Metric("quaternion.quat_mul_ns", "ns", "lower"),
    Metric("cquaternion.cq_mul_ns", "ns", "lower"),
    Metric("cquaternion.cq_exp_ns", "ns", "lower"),
    Metric("cquaternion.even_trig_series_ns", "ns", "lower"),
    Metric("cquaternion.even_trig_closed_ns", "ns", "lower"),
    Metric("slicefn.stem_eval_us", "us", "lower"),
    Metric("slicefn.stem_evals_per_point", "count", "lower"),
    Metric("slicefn.quad_derivative_us", "us", "lower"),
    Metric("continuation.cold_call_us", "us", "lower"),
    Metric("continuation.cold_call_tail_us", "us", "lower"),
    Metric("continuation.warm_call_us", "us", "lower"),
    Metric("continuation.cold_warm_ratio", "ratio", "lower"),
    Metric("continuation.self_us_per_point", "us", "lower"),
    Metric("continuation.repeat_share", "frac", "higher"),
    Metric("starlog.star_log_build_ms", "ms", "lower"),
    Metric("starlog.star_root_build_ms", "ms", "lower"),
    Metric("starlog.sqrt_vsym_build_ms", "ms", "lower"),
    Metric("starlog.sqrt_vsym_cold_call_us", "us", "lower"),
    Metric("starlog.star_exp_call_us", "us", "lower"),
    Metric("bch.condition_ms", "ms", "lower"),
    Metric("bch.combine_build_ms", "ms", "lower"),
    Metric("bch.combine_call_us", "us", "lower"),
    Metric("bch.admissible_ratio", "ratio", "higher"),
    Metric("bch.dexp_call_us", "us", "lower"),
    Metric("bch.bracket_ns", "ns", "lower"),
    Metric("covering.lift_path_us_per_sample", "us", "lower"),
    Metric("covering.loop_monodromy_ms", "ms", "lower"),
    Metric("descriptors.load_function_us", "us", "lower"),
    *(Metric(f"cli.{verb}_ms", "ms", "lower") for verb in CLI_VERBS),
    *(Metric(f"suites.{name}_ms", "ms", "lower") for name in SUITES),
    *(Metric(f"errors.{name}", "count", "lower") for name in ERROR_CLASSES),
    Metric("errors.other", "count", "lower"),
    Metric("trace.overhead_frac", "frac", "lower"),
)

#: candidate tail percentiles, highest first.  The list stops at p95: on a
#: shared virtual machine about one call in a hundred is stalled by the host
#: for up to milliseconds, so p99 and above measure the host, not the program.
_TAIL_PERCENTILES = (95, 90, 75, 50)


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest candidate percentile with at least
    ten samples beyond it, or the median when there are fewer than 20."""
    n = len(values)
    for p in _TAIL_PERCENTILES:
        if n * (100 - p) >= 10 * 100:
            return float(p), float(np.percentile(values, p))
    return 50.0, float(np.median(values))


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, seed: int) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "commit": _git_commit(root),
            "src_sha256": _source_digest(root / "src" / "slicestar"),
            "seed": seed}
