"""One workload in one fresh process: set-up, timed passes, metrics.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``.  Prints ``READY``
once set-up (imports, bank and input builds, warm-up) is done, then
``SPEED`` with the calibration speed at that moment; a probe exits
there, so the parent can time set-up several times.  Otherwise
it runs whole passes over the workload's fixed job list until
``--seconds`` have elapsed and prints one ``RESULT {json}`` line.

With ``--trace 1`` passes alternate between untraced and traced, so the
traced pass wall against the untraced one gives the tracing overhead,
and the per-layer metrics come from the traced passes only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.signal import convolve

import anisowave
import tracing
import workloads


@dataclass(slots=True)
class Outcome:
    latency: float            # seconds in library calls
    ok: bool
    digits: float | None      # accuracy margin of the toleranced invariants
    why: str                  # first failed check, "" when ok
    speed: float = 1.0        # calibration speed around the job


#: seconds the calibration kernel takes at the reference speed
CALIBRATION_S = 0.005
#: calibration marks on each side of a job that set its speed
CAL_REACH = 3
_CAL_A = np.random.default_rng(0).standard_normal((96, 96))
_CAL_B = np.random.default_rng(1).standard_normal((6, 4))


def calibration() -> float:
    """Time a fixed mix of a direct scipy convolution and interpreted
    Python (best of two); its ratio to CALIBRATION_S tracks how fast the
    core runs now."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        convolve(_CAL_A, _CAL_B, method="direct")
        acc = 0
        for i in range(8000):
            acc += (i * i) % 7
        best = min(best, time.perf_counter() - start)
    return best


def run_job(workload, job, tracer=None, job_id=None) -> Outcome:
    chk = workloads.Checks()
    try:
        if tracer is not None and tracer.active:
            tracer.job = job_id
            with tracer.span("bench.job"):
                workload.run(job, chk)
        else:
            workload.run(job, chk)
    except Exception as exc:  # a job that raises is a failed job, not a crash
        chk.failures.append(f"raised {type(exc).__name__}: {exc}")
    if not chk.checked and not chk.failures:
        chk.failures.append("no invariant was checked")
    return Outcome(chk.latency, not chk.failures, chk.digits,
                   chk.failures[0] if chk.failures else "")


#: every job is timed in at least this many passes
MIN_PASSES = 2


def run_passes(workload, seconds, tracer=None):
    """Whole passes over the job list for about `seconds`.

    Runs at least MIN_PASSES passes, then more while the next one fits in
    `seconds` at the mean pass wall so far.  Returns per-job outcome
    lists, (traced, wall) per pass and the peak RSS in KiB up to the end
    of the first pass: later passes repeat the same work, and the heap
    only creeps up with them through fragmentation.  With a tracer,
    passes alternate untraced/traced and go in pairs.
    """
    outcomes = [[] for _ in workload.jobs]
    walls = []
    step = 1 if tracer is None else 2
    start = time.perf_counter()
    while True:
        k = len(walls)
        traced = tracer is not None and k % 2 == 1
        if tracer is not None:
            tracer.active = traced
        t0 = time.perf_counter()
        marks = [calibration()] if tracer is None else []
        for i, job in enumerate(workload.jobs):
            outcomes[i].append(run_job(workload, job, tracer, f"{k}:{i}"))
            if tracer is None:
                marks.append(calibration())
        walls.append((traced, time.perf_counter() - t0))
        # job i ran between marks i and i + 1; the median of the marks
        # around it damps the noise of a single 5 ms timing
        for i in range(len(marks) - 1):
            around = marks[max(0, i - CAL_REACH):i + 2 + CAL_REACH]
            outcomes[i][-1].speed = CALIBRATION_S / statistics.median(around)
        if k == 0:
            first_pass_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.active = False
        elapsed = time.perf_counter() - start
        fits = elapsed + step * elapsed / len(walls) <= seconds
        if len(walls) >= MIN_PASSES and len(walls) % step == 0 and not fits:
            return outcomes, walls, first_pass_rss


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency with ten jobs beyond it: (value, percentile, jobs at or below)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(1, n - 10)
    return ordered[k - 1], 100.0 * k / n, k


def end_to_end(outcomes, walls, peak_rss_kib) -> dict:
    """The end-to-end metrics of one run.

    Latencies are calibrated: each is scaled by the speed the calibration
    kernel measured around that job, so that the machine's drift between
    phases of a few seconds cancels.  The raw figures are kept beside
    them.
    """
    flat = [o for per_job in outcomes for o in per_job]
    failed = sum(not o.ok for o in flat)
    per_job = [statistics.median(o.latency * o.speed for o in runs) for runs in outcomes]
    raw = [statistics.median(o.latency for o in runs) for runs in outcomes]
    tail_s, pct, below = tail(per_job)
    digits = [o.digits for o in flat if o.digits is not None]
    return {
        "attempted": len(flat),
        "failed": failed,
        "failures": sorted({o.why for o in flat if not o.ok})[:10],
        "passes": len(walls),
        "jobs_per_list": len(outcomes),
        "pass_walls_s": [w for _, w in walls],
        "job_latencies_s": per_job,
        "tail_percentile": pct,
        "tail_jobs_at_or_below": below,
        "speed_median": statistics.median(o.speed for o in flat),
        "raw": {"jobs_per_s": (len(flat) - failed) / sum(o.latency for o in flat),
                "job_p50_s": statistics.median(raw), "job_tail_s": tail(raw)[0]},
        "metrics": {
            "jobs_per_s": (len(flat) - failed) / sum(o.latency * o.speed for o in flat),
            "job_p50_s": statistics.median(per_job),
            "job_tail_s": tail_s,
            "peak_rss_mb": peak_rss_kib / 1024.0,
            "error_rate": failed / len(flat),
            "ok_rate": 1.0 - failed / len(flat),
            "accuracy_digits": min(digits) if digits else None,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="exit after set-up")
    ap.add_argument("--root", required=True, help="checkout root")
    args = ap.parse_args(argv)

    src = os.path.join(args.root, "src")
    if os.path.commonpath([os.path.abspath(anisowave.__file__), src]) != src:
        print(f"error: anisowave imported from {anisowave.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workdir = os.path.join(args.root, ".bench_build", "bench", f"work-{os.getpid()}")
    workload = None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        warm = [run_job(workload, job) for job in workload.warmup]
        print("READY", flush=True)
        # the core's speed right after set-up, to calibrate setup_s
        marks = [calibration() for _ in range(3)]
        print(f"SPEED {CALIBRATION_S / statistics.median(marks)!r}", flush=True)
        if args.probe:
            return 0
        outcomes, walls, peak_rss = run_passes(workload, args.seconds, tracer)
        result = end_to_end(outcomes, walls, peak_rss)
        warm_failures = [o.why for o in warm if not o.ok]
        result["warmup_failures"] = warm_failures
        result["versions"] = {"python": sys.version.split()[0],
                              "numpy": np.__version__, "scipy": scipy.__version__}
        result["prediction"] = list(workload.prediction)
        if tracer is not None:
            result["trace"] = tracing.layer_metrics(tracer, walls)
            out_dir = os.path.join(args.root, ".bench_build", "bench", "results")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl")
            tracer.dump(spans)
            result["trace"]["spans_file"] = os.path.relpath(spans, args.root)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
