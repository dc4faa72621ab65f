"""Span recording around the public functions of each anisowave layer.

Tracing is installed from the benchmark only; nothing in ``src/`` knows
about it.  ``install`` replaces every public function of the layer
modules, in every anisowave namespace that holds it, by a wrapper that
records one span (name, start, end, parent, job id) while the tracer is
active and otherwise calls straight through.  Calls made inside the
library go through module globals, so nested cross-layer calls (for
example ``mmra.analyze`` -> ``seqcore.correlate`` -> ``seqcore.convolve``)
become nested spans.  Methods of value classes (``IntMatrix.apply``,
``CoefSeq.scaled``, ...) are not wrapped; their time counts towards the
layer that calls them.

Counts such as ``madds`` are computed from operand shapes at the span
boundary, assuming the current direct convolution.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import defaultdict

import numpy as np

LAYERS = ("lattice", "seqcore", "dictionary", "subdivision", "mmra", "formats", "cli")
#: spans that belong to the benchmark itself (job bodies, invariant checks)
HARNESS = "bench"


def _cells(seq) -> int:
    return int(seq.data.size)


def _count_convolve(args, kwargs, result):
    a, b = args[:2]
    return {"madds": _cells(a) * _cells(b)}


def _count_upsample(args, kwargs, result):
    return {"in_cells": _cells(args[0]), "out_cells": _cells(result)}


def _count_downsample(args, kwargs, result):
    return {"in_cells": _cells(args[0]), "out_cells": _cells(result)}


def _count_subdivide(args, kwargs, result):
    return {"cells": _cells(result)}


def _count_rendered(args, kwargs, result):
    return {"nonzero": int(np.count_nonzero(result.values)),
            "window_cells": int(result.values.size)}


def _count_analyze(args, kwargs, result):
    bank, signal = args[:2]
    taps = sum(_cells(f) for f in bank.filters.values())
    return {"madds": _cells(signal) * taps,
            "out_cells": sum(_cells(p) for p in result.values())}


def _count_build_bank(args, kwargs, result):
    filters = result.filters.values()
    return {"taps": sum(int(np.count_nonzero(f.data)) for f in filters),
            "box_cells": sum(_cells(f) for f in filters)}


def _grid_bytes(seq) -> int:
    return 8 + 16 * seq.dim + 8 * _cells(seq)


def _count_write_grid(args, kwargs, result):
    return {"bytes": _grid_bytes(args[1])}


def _count_read_grid(args, kwargs, result):
    return {"bytes": _grid_bytes(result)}


def _count_dumps(args, kwargs, result):
    return {"bytes": len(result)}


COUNTERS = {
    "seqcore.convolve": _count_convolve,
    "seqcore.upsample": _count_upsample,
    "seqcore.downsample": _count_downsample,
    "subdivision.subdivide": _count_subdivide,
    "subdivision.wavelet_samples": _count_rendered,
    "mmra.analyze": _count_analyze,
    "dictionary.build_bank": _count_build_bank,
    "formats.write_grid": _count_write_grid,
    "formats.read_grid": _count_read_grid,
    "formats.dumps": _count_dumps,
}

#: methods worth a span of their own: (module, class, method)
METHODS = (("dictionary", "AnisoFilterBank", "residual_matrix"),)


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv") or []
    words = [w for w in argv[:2] if not w.startswith("-")]
    return "cli.main." + "_".join(words)


class Tracer:
    """In-memory span store; spans are written out only by ``dump``."""

    def __init__(self):
        self.active = False
        self.job = None
        self.spans: list[tuple] = []      # (id, parent, job, name, t0, t1)
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []

    def open(self, name: str) -> tuple[int, int | None, float]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, name: str, token):
        sid, parent, t0 = token
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (sid, parent, self.job, name, t0, t1)

    def count(self, name: str, counts: dict[str, int]):
        """Add boundary counts; called after the span closed, so counting
        is charged to the caller, not to the span."""
        bucket = self.counts[name]
        for key, value in counts.items():
            bucket[key] += value

    def span(self, name: str):
        return _Span(self, name)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, job, name, t0, t1 in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                         "name": name, "start": t0, "end": t1}))
                handle.write("\n")

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds = duration minus children)."""
        child = [0.0] * len(self.spans)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, _, _, name, t0, t1 in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += (t1 - t0) - child[sid]
        return {name: (calls, secs) for name, (calls, secs) in out.items()}

    def inclusive_times(self) -> dict[str, float]:
        """Per layer: seconds inside its outermost spans (nested same-layer
        spans are not counted twice)."""
        layers = [layer_of(span[3]) for span in self.spans]
        out: dict[str, float] = defaultdict(float)
        for sid, parent, _, _, t0, t1 in self.spans:
            while parent is not None and layers[parent] != layers[sid]:
                parent = self.spans[parent][1]
            if parent is None:
                out[layers[sid]] += t1 - t0
        return dict(out)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.token = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.name, self.token)
        return False


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)
    namer = _cli_name if name == "cli.main" else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = namer(args, kwargs) if namer else name
        token = tracer.open(span)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(span, token)
            if counter is not None and result is not None:
                tracer.count(span, counter(args, kwargs, result))

    traced.__wrapped_original__ = fn
    return traced


def install(tracer: Tracer):
    """Wrap the layers' public functions in every anisowave namespace."""
    import importlib

    package = importlib.import_module("anisowave")
    modules = {layer: importlib.import_module(f"anisowave.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            if layer == "cli" and attr != "main":
                continue
            wrapped[id(obj)] = _wrap(tracer, f"{layer}.{attr}", obj)
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(module, attr, wrapped[id(obj)])
    for layer, cls_name, method in METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, method, _wrap(tracer, f"{layer}.{method}", getattr(cls, method)))


def layer_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return head if head in LAYERS else HARNESS


#: functions with their own calls/self_s metrics, by layer
PER_LAYER_FUNCS = {
    "lattice": ("smith_with_target", "is_expansive", "coset_representatives"),
    "seqcore": ("convolve", "upsample", "downsample", "correlate", "reindex",
                "cross_qmf_residual", "max_abs_diff"),
    "dictionary": ("build_bank", "moment_order_nd", "residual_matrix", "reproduction_check",
                   "analysis_core"),
    "subdivision": ("subdivide", "wavelet_samples", "convergence_diagnostic",
                    "conjugation_check", "joint_refinement_residual"),
    "mmra": ("analyze", "synthesize", "decompose", "reconstruct", "slope_digits"),
    "formats": ("write_grid", "read_grid", "dumps"),
}
CLI_SPANS = ("cli.main.transform_decompose", "cli.main.transform_reconstruct")


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better); BENCHMARK.json lists the same."""
    spec = {}
    for layer, funcs in PER_LAYER_FUNCS.items():
        for fn in funcs:
            spec[f"{layer}.{fn}.calls"] = ("count", "lower")
            spec[f"{layer}.{fn}.self_s"] = ("s", "lower")
            if layer == "formats":
                spec[f"{layer}.{fn}.bytes"] = ("bytes", "lower")
    spec.update({
        "seqcore.convolve.madds": ("count", "lower"),
        "seqcore.upsample.fill_frac": ("fraction", "higher"),
        "seqcore.downsample.kept_frac": ("fraction", "higher"),
        "dictionary.mask_fill_frac": ("fraction", "higher"),
        "subdivision.subdivide.cells": ("count", "lower"),
        "subdivision.grid_fill_frac": ("fraction", "higher"),
        "mmra.analyze.madds_per_out_cell": ("count", "lower"),
    })
    for name in CLI_SPANS:
        spec[f"{name}.self_s"] = ("s", "lower")
    for layer in (*LAYERS, HARNESS):
        spec[f"{layer}.self_s"] = ("s", "lower")
    spec["trace.wall_s"] = ("s", "lower")
    spec["trace.coverage"] = ("fraction", "higher")
    spec["trace.overhead_frac"] = ("fraction", "lower")
    return spec


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, walls) -> dict:
    """Per-layer metrics of the traced passes, per pass of the job list."""
    traced = [w for t, w in walls if t]
    plain = [w for t, w in walls if not t]
    n = len(traced)
    times = tracer.self_times()
    counts = tracer.counts
    m = {}
    for layer, funcs in PER_LAYER_FUNCS.items():
        for fn in funcs:
            calls, secs = times.get(f"{layer}.{fn}", (0, 0.0))
            m[f"{layer}.{fn}.calls"] = calls / n
            m[f"{layer}.{fn}.self_s"] = secs / n
            if layer == "formats":
                m[f"{layer}.{fn}.bytes"] = counts[f"{layer}.{fn}"]["bytes"] / n
    m["seqcore.convolve.madds"] = counts["seqcore.convolve"]["madds"] / n
    up, down = counts["seqcore.upsample"], counts["seqcore.downsample"]
    m["seqcore.upsample.fill_frac"] = _ratio(up["in_cells"], up["out_cells"])
    m["seqcore.downsample.kept_frac"] = _ratio(down["out_cells"], down["in_cells"])
    bank = counts["dictionary.build_bank"]
    m["dictionary.mask_fill_frac"] = _ratio(bank["taps"], bank["box_cells"])
    m["subdivision.subdivide.cells"] = counts["subdivision.subdivide"]["cells"] / n
    grid = counts["subdivision.wavelet_samples"]
    m["subdivision.grid_fill_frac"] = _ratio(grid["nonzero"], grid["window_cells"])
    ana = counts["mmra.analyze"]
    m["mmra.analyze.madds_per_out_cell"] = _ratio(ana["madds"], ana["out_cells"])
    for name in CLI_SPANS:
        m[f"{name}.self_s"] = times.get(name, (0, 0.0))[1] / n
    layers = dict.fromkeys((*LAYERS, HARNESS), 0.0)
    for name, (_, secs) in times.items():
        layers[layer_of(name)] += secs / n
    for layer, secs in layers.items():
        m[f"{layer}.self_s"] = secs
    wall = statistics.median(traced)
    m["trace.wall_s"] = wall
    m["trace.coverage"] = sum(layers.values()) / wall
    m["trace.overhead_frac"] = wall / statistics.median(plain) - 1.0
    inclusive = {layer: secs / n for layer, secs in tracer.inclusive_times().items()}
    return {"metrics": m, "inclusive_s": inclusive, "spans": len(tracer.spans),
            "traced_passes": n}
