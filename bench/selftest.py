"""Self-test of the benchmark: tiny job lists, clean and with injected faults.

    python3 bench/selftest.py

Runs every workload's warm-up job list in-process and requires
error_rate 0.  Then it corrupts what the library returns or writes, one
fault at a time, and requires each fault to be counted in error_rate
rather than passing: a NaN-poisoned branch of a stored tree (which
``reconstruct`` accepts today), a manifest edited to another filter
family, a corrupted reconstruction, a NaN QMF residual, a perturbed
synthesis and a truncated slope word.  Finally it checks that
``BENCHMARK.json`` lists exactly the metrics the benchmark reports and
that one traced pass accounts for its wall time.  Exits 1 on any
failure.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

from anisowave import cli, dictionary, mmra, subdivision  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def verdict(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def one_pass(workload, jobs, tracer=None):
    workload.jobs = jobs
    outcomes, walls, rss = worker.run_passes(workload, 0, tracer)
    return worker.end_to_end(outcomes, walls, rss), outcomes, walls


@contextlib.contextmanager
def patched(owner, attr, make):
    """Replace owner.attr by make(original) for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def expect_counted(workload, jobs, what: str):
    res, _, _ = one_pass(workload, jobs)
    rate = res["metrics"]["error_rate"]
    verdict(rate == 1.0, f"{workload.name}: {what} -> error_rate {rate:g} "
                         f"({res['failures'][0] if res['failures'] else 'no failure recorded'})")


def poison_grid(path: str, value: float):
    origin, data = workloads.read_grid(path)
    data = data.copy()
    data.flat[data.size // 2] = value
    workloads.write_grid(path, origin, data)


def after_cli(command: str, action):
    """Wrap cli.main so that `action(argv)` runs after the given subcommand."""
    def make(original):
        def main(argv):
            code = original(argv)
            if argv[:2] == ["transform", command]:
                action(argv)
            return code
        return main
    return make


def check_cascade(workdir):
    wl = workloads.Cascade(1, workdir)
    res, _, _ = one_pass(wl, wl.warmup)
    verdict(res["metrics"]["error_rate"] == 0.0, f"cascade: {len(wl.warmup)} clean jobs pass")
    renders = [job for job in wl.warmup if job[0] == "render"]

    def nan_samples(original):
        def fake(*args, **kwargs):
            sf = original(*args, **kwargs)
            values = sf.values.copy()
            values.flat[0] = np.nan
            return subdivision.SampledFunction(sf.level, sf.xi_total, sf.window, values)
        return fake

    def leaky_samples(original):
        def fake(*args, **kwargs):
            sf = original(*args, **kwargs)
            return subdivision.SampledFunction(sf.level, sf.xi_total, sf.window,
                                               sf.values * (1 + 1e-9) + 1e-9)
        return fake

    with patched(subdivision, "wavelet_samples", nan_samples):
        expect_counted(wl, renders, "NaN in rendered samples")
    with patched(subdivision, "wavelet_samples", leaky_samples):
        expect_counted(wl, renders, "mass not conserved")
    with patched(subdivision, "convergence_diagnostic",
                 lambda original: lambda *a, **k: sorted(original(*a, **k))):
        expect_counted(wl, [("converge", 0, 5)], "d_r increasing")


def check_transform(workdir):
    wl = workloads.Transform(1, workdir)
    full = [job for job in wl.warmup if job[2] is None]
    try:
        res, _, _ = one_pass(wl, wl.warmup)
        verdict(res["metrics"]["error_rate"] == 0.0,
                f"transform: {len(wl.warmup)} clean jobs pass")

        def nan_branch(argv):
            poison_grid(os.path.join(wl.tree, "node_1.detail_0-1.grid"), np.nan)

        def edit_manifest(argv):
            path = os.path.join(wl.tree, "manifest.json")
            with open(path, encoding="utf-8") as handle:
                manifest = json.load(handle)
            manifest["config"]["families"] = ["cl3", "haar"]
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle)

        def corrupt_output(argv):
            poison_grid(wl.out, 0.25)

        with patched(cli, "main", after_cli("decompose", nan_branch)):
            expect_counted(wl, full, "NaN written into branch 1 of the stored tree")
        with patched(cli, "main", after_cli("decompose", edit_manifest)):
            expect_counted(wl, full, "manifest edited from cl3,db2 to cl3,haar")
        with patched(cli, "main", after_cli("reconstruct", corrupt_output)):
            expect_counted(wl, wl.warmup, "corrupted reconstruct output")
    finally:
        wl.close()


def check_design(workdir):
    wl = workloads.Design(1, workdir)
    res, _, _ = one_pass(wl, wl.warmup)
    verdict(res["metrics"]["error_rate"] == 0.0, f"design: {len(wl.warmup)} clean job passes")

    def nan_residuals(original):
        def fake(self):
            out = original(self)
            out[next(iter(out))] = float("nan")
            return out
        return fake

    def perturbed_synthesis(original):
        def fake(bank, parts):
            out = original(bank, parts)
            return out.scaled(1 + 1e-8)
        return fake

    def truncated_word(original):
        def fake(family, w, w2, delta):
            digits = original(family, w, w2, delta)
            return mmra.SlopeDigits(digits.eps[:-3], digits.n - 3, digits.achieved_error,
                                    digits.reference, digits.target)
        return fake

    with patched(dictionary.AnisoFilterBank, "residual_matrix", nan_residuals):
        expect_counted(wl, wl.warmup, "NaN QMF residual")
    with patched(mmra, "synthesize", perturbed_synthesis):
        expect_counted(wl, wl.warmup, "synthesis off by 1e-8 relative")
    with patched(mmra, "slope_digits", truncated_word):
        expect_counted(wl, wl.warmup, "slope word cut short")


def check_metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    verdict({k: u for k, (u, _) in e2e.items()} == run.END_TO_END,
            "BENCHMARK.json end_to_end matches the reported metrics")
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    verdict(layer == tracing.per_layer_spec(),
            "BENCHMARK.json per_layer matches the traced metrics")
    verdict(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
            "BENCHMARK.json workloads match the benchmark's")


def check_trace(workdir):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    wl = workloads.Cascade(1, workdir)
    # warm-up list twice: pass 0 untraced, pass 1 traced
    wl.jobs = wl.warmup
    _, walls, _ = worker.run_passes(wl, 0, tracer)
    layers = tracing.layer_metrics(tracer, walls)["metrics"]
    verdict(layers["trace.coverage"] > 0.95 and layers["subdivision.wavelet_samples.calls"] == 2,
            f"trace: self times cover {layers['trace.coverage']:.1%} of the traced wall")


def main() -> int:
    value, pct, below = worker.tail([float(x) for x in range(44)])
    verdict((value, below) == (33.0, 34), f"tail of 44 jobs is p{pct:.1f} with 10 beyond")
    base = os.path.join(ROOT, ".bench_build", "bench")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=base)
    try:
        check_cascade(workdir)
        check_transform(workdir)
        check_design(workdir)
        check_metric_lists()
        check_trace(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
