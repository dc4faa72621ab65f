"""anisowave benchmark: one workload per call, run from the checkout root.

    python3 bench/run.py --workload cascade --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in fresh worker processes (``worker.py``) that import
the library from ``src/``.  With ``--trace 0`` the run times set-up in
three fresh processes (two probes that stop after set-up, then the
measured one) and prints the end-to-end metrics; with ``--trace 1`` it
prints the per-layer breakdown instead.  Human-readable lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record with metadata is written under ``.bench_build/bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "bench")
WORKLOADS = ("cascade", "transform", "design")
#: fresh processes timed per run for setup_s (probes plus the measured one)
SETUPS = 3
#: a whole run must end within this many seconds
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MiB",
    "ok_rate": "fraction",
    "accuracy_digits": "digits",
}


def _src_files():
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(base, name)


def metadata(seed: int) -> dict:
    digest = hashlib.sha256()
    loc = 0
    for path in _src_files():
        with open(path, "rb") as handle:
            blob = handle.read()
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + blob)
        loc += blob.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        commit = done.stdout.strip() or None
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_loc": loc,
        "seed": seed,
        "aniso_cell_cap": os.environ.get("ANISO_CELL_CAP", "unset (default 1e8)"),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS/OpenMP thread: the workloads are single-client, and idle
    # spinning threads only add noise (nproc is recorded beside the result)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(argv: list[str], env: dict, timeout: float) -> tuple[float | None, dict | None, int]:
    """Run one worker; returns (calibrated seconds to READY, RESULT payload,
    exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, timeout), proc.kill)
    watchdog.start()
    ready = speed = result = None
    try:
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("SPEED "):
                speed = float(line[len("SPEED "):])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready is None or speed is None:
        return None, result, code
    return ready * speed, result, code


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    env = worker_env()
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--root", ROOT]
    setups = []
    if not trace:
        for _ in range(SETUPS - 1):
            ready, _, code = spawn(base + ["--probe"], env, deadline - time.monotonic())
            if code != 0 or ready is None:
                raise RuntimeError(f"{name}: set-up probe failed (exit {code})")
            setups.append(ready)
    ready, result, code = spawn(base + ["--trace", str(trace)], env,
                                deadline - time.monotonic())
    if code != 0 or ready is None or result is None:
        raise RuntimeError(f"{name}: worker failed (exit {code})")
    setups.append(ready)
    result["setup_runs_s"] = setups
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report(name: str, res: dict, trace: int) -> dict:
    """Print the human-readable block; return the metrics for the JSON line."""
    m = res["metrics"]
    print(f"== {name}: {res['jobs_per_list']} jobs per list x {res['passes']} passes"
          f" = {res['attempted']} attempted, {res['failed']} failed")
    for why in res["failures"] + res["warmup_failures"]:
        print(f"   failure: {why}")
    if not trace:
        print(f"   {'setup_s':<16} {_fmt(m['setup_s']):>12} s         median of "
              + ", ".join(f"{x:.3f}" for x in res["setup_runs_s"]))
        print(f"   {'jobs_per_s':<16} {_fmt(m['jobs_per_s']):>12} 1/s       "
              f"calibrated; raw {_fmt(res['raw']['jobs_per_s'])} at speed "
              f"{res['speed_median']:.3f}, passes {sum(res['pass_walls_s']):.1f} s wall")
        print(f"   {'job_p50_s':<16} {_fmt(m['job_p50_s']):>12} s         "
              f"calibrated median job over {res['passes']} passes; raw "
              f"{_fmt(res['raw']['job_p50_s'])}")
        print(f"   {'job_tail_s':<16} {_fmt(m['job_tail_s']):>12} s         "
              f"p{res['tail_percentile']:.1f}: {res['tail_jobs_at_or_below']} of "
              f"{res['jobs_per_list']} jobs at or below, 10 beyond")
        print(f"   {'peak_rss_mb':<16} {_fmt(m['peak_rss_mb']):>12} MiB")
        print(f"   {'error_rate':<16} {_fmt(m['error_rate']):>12} fraction  "
              f"({res['failed']} of {res['attempted']}; ok_rate {_fmt(m['ok_rate'])})")
        print(f"   {'accuracy_digits':<16} {_fmt(m['accuracy_digits']):>12} digits    "
              "min over jobs of log10(tol / residual)")
        return {key: {"value": m[key], "unit": unit} for key, unit in END_TO_END.items()}

    import tracing

    lm = res["trace"]["metrics"]
    wall = lm["trace.wall_s"]
    print(f"   traced passes {res['trace']['traced_passes']}, traced pass wall "
          f"{wall:.3f} s, overhead {lm['trace.overhead_frac']:+.3f}, "
          f"spans {res['trace']['spans']} -> {res['trace']['spans_file']}")
    incl = res["trace"]["inclusive_s"]
    print(f"   {'layer':<12} {'self_s':>10} {'share':>7} {'inclusive':>10}")
    layers = [(layer, lm[f"{layer}.self_s"]) for layer in (*tracing.LAYERS, tracing.HARNESS)]
    for layer, secs in layers:
        print(f"   {layer:<12} {secs:>10.4f} {secs / wall:>7.1%} {incl.get(layer, 0.0) / wall:>10.1%}")
    total = sum(s for _, s in layers)
    print(f"   {'sum':<12} {total:>10.4f} {total / wall:>7.1%}  (traced wall {wall:.4f} s; "
          f"gap {1 - total / wall:+.2%} vs overhead {lm['trace.overhead_frac']:+.2%})")
    for key in sorted(lm):
        if key.endswith(".self_s") and key.count(".") == 1 or lm[key] == 0:
            continue
        print(f"   {key:<44} {_fmt(lm[key]):>12}")
    print("   " + prediction_check(res["prediction"], dict(layers), incl, wall))
    spec = tracing.per_layer_spec()
    return {key: {"value": lm[key], "unit": spec[key][0]} for key in spec}


def prediction_check(predicted, self_s: dict, inclusive_s: dict, wall: float) -> str:
    """Compare the trace with the workload's stated dominant layers.

    A predicted layer is confirmed when it holds at least 10 % of the wall
    as self time, or at least half of it inside its outermost spans (the
    layer the work is routed through).  The prediction matches when every
    predicted layer is confirmed and the layer with the most self time is
    predicted; other layers with 5 % or more self time are listed.
    """
    library = {k: v for k, v in self_s.items() if k != "bench"}
    top = max(library, key=library.get)
    confirmed = [layer for layer in predicted
                 if self_s.get(layer, 0.0) >= 0.10 * wall
                 or inclusive_s.get(layer, 0.0) >= 0.5 * wall]
    verdict = "match" if len(confirmed) == len(predicted) and top in predicted else "MISMATCH"
    shown = ", ".join(f"{layer} {secs / wall:.1%} self / "
                      f"{inclusive_s.get(layer, 0.0) / wall:.1%} incl"
                      for layer, secs in sorted(library.items(), key=lambda x: -x[1])
                      if layer in predicted or secs >= 0.05 * wall)
    return (f"prediction {'+'.join(predicted)}: observed {shown}; "
            f"top self {top} -> {verdict}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally, so spawn() kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "anisowave", "__init__.py")):
        print(f"error: no anisowave sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    meta = metadata(args.seed)
    meta["threads"] = {var: worker_env()[var] for var in THREAD_VARS}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"anisowave bench seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))

    attempted = failed = 0
    correct = True
    metrics = {}
    records = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        meta.update(res.pop("versions"))
        shown = report(name, res, args.trace)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in shown.items()})
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["failed"] == 0 and not res["warmup_failures"]
        records[name] = res

    out_dir = os.path.join(ROOT, ".bench_build", "bench", "results")
    os.makedirs(out_dir, exist_ok=True)
    record = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "metrics": metrics, "workloads": records}, handle,
                  indent=1, sort_keys=True)
    print(f"record -> {os.path.relpath(record, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
