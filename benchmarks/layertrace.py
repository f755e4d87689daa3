"""Outside-in layer tracing for the dispersim benchmark.

Every public function of each dispersim module other than ``cli`` is
wrapped at every module attribute that binds it, so calls made through
``from .randomize import gaussian_matrix`` copies are seen as well as
calls through the defining module.  Each call records one span (name,
start, end, parent) in memory; the per-layer metrics are computed from
the spans after the run, and the original functions are put back.
Nothing in the package itself is edited.

Run as a script this file executes one traced CLI invocation in a fresh
process, or with ``--speedup`` times ``estimate_tail`` at one thread and
at nproc threads, and writes its measurements as JSON for ``run.py``:

    python3 layertrace.py REPORT.json --spans SPANS.json -- tails --config C --out O
    python3 layertrace.py REPORT.json --speedup CONFIG.json
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

LAYERS = ("grid", "wiener", "propagators", "randomize", "decompose", "tailprob")

# Per-layer metrics that sum the self time (span duration minus the part of
# it covered by child spans) of the listed functions.
SELF_TIME = {
    "grid.transform_s": ("grid.forward_transform", "grid.inverse_transform"),
    "wiener.square_function_s": (
        "wiener.square_function",
        "wiener.square_function_evolved",
    ),
    "wiener.reconstruct_s": ("wiener.reconstruct",),
    "propagators.symbol_s": ("propagators.symbol",),
    "randomize.gaussian_matrix_s": ("randomize.gaussian_matrix",),
    "randomize.coefficient_block_s": ("randomize.coefficient_block",),
    "randomize.randomized_weights_s": ("randomize.randomized_weights",),
    "decompose.split_s": ("decompose.schwartz_split",),
    "decompose.seminorm_s": ("decompose.decay_seminorm",),
    "tailprob.series_coefficients_s": (
        "tailprob.deviation_coefficients",
        "tailprob.point_coefficients",
    ),
    "tailprob.exceedance_s": ("tailprob.estimate_tail",),
    "tailprob.draw_statistics_s": (
        "tailprob.calibrate_density_constants",
        "tailprob.density_event_probability",
    ),
    "tailprob.wilson_s": ("tailprob.wilson_interval",),
}

CALLS = {
    "grid.transform_calls": ("grid.forward_transform", "grid.inverse_transform"),
    "wiener.square_function_calls": SELF_TIME["wiener.square_function_s"],
    "propagators.symbol_calls": ("propagators.symbol",),
    "randomize.coefficient_block_calls": ("randomize.coefficient_block",),
    "randomize.randomized_weights_calls": ("randomize.randomized_weights",),
    "decompose.split_calls": ("decompose.schwartz_split",),
    "tailprob.wilson_calls": ("tailprob.wilson_interval",),
}

# Per-layer metrics that sum a count recorded on the spans.
COUNTED = {
    "grid.points_transformed": "points",
    "wiener.lattice_points": "lattice_points",
    "wiener.partition_blocks": "blocks",
    "wiener.square_function_bytes": "stack_bytes",
    "randomize.normals_drawn": "normals",
}

BUILD_SPAN = "wiener.projection_blocks"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict | None = None


class Tracer:
    """Records spans around wrapped functions and restores them on removal."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call.  ``count(args, result)``
        gives the span's counts.  For an ``lru_cache`` function only a
        miss (a build) gets counts, with ``build`` set to 1."""
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(name, 0.0, parent=stack[-1] if stack else -1)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            misses = cache_info().misses if cache_info else 0
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
            if cache_info is None or cache_info().misses > misses:
                counts = count(args, result) if count else {}
                span.counts = dict(counts, build=1) if cache_info else counts or None
            return result

        if cache_info:
            traced.cache_info = cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self, modules, counters: dict) -> None:
        """Wrap the public functions defined in ``modules`` at every binding
        site among the loaded ``dispersim`` modules."""
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if _is_public_function(mod, attr, obj):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = (obj, self.wrap(name, obj, counters.get(name)))
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._patches.append((mod, attr, obj))

    def remove(self) -> list[str]:
        """Put every original back; returns the binding sites that still
        differ from their original (empty when all were restored)."""
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        left = [
            f"{mod.__name__}.{attr}"
            for mod, attr, obj in self._patches
            if getattr(mod, attr) is not obj
        ]
        self._patches.clear()
        return left

    @property
    def installed(self) -> int:
        return len(self._patches)


def _is_public_function(mod, attr: str, obj) -> bool:
    if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "dispersim"]


def layer_modules():
    """Every loaded dispersim submodule except the CLI front end."""
    return [
        m
        for n, m in list(sys.modules.items())
        if n.startswith("dispersim.") and n != "dispersim.cli"
    ]


def counters(wiener) -> dict:
    """Work counts taken from each call's return value.  They use the
    original (untraced) cached partition, so counting adds no spans."""
    blocks = wiener.projection_blocks
    lattice = wiener.unit_lattice

    def stack_bytes(args, result):
        # _square_function_from_coeffs fills chunk x N^dim complex128 stacks
        # over all partition blocks: computed, not measured, bytes.
        return {"stack_bytes": 16 * result.values.size * len(blocks(result.spec))}

    return {
        "grid.forward_transform": lambda a, r: {"points": r.coeffs.size},
        "grid.inverse_transform": lambda a, r: {"points": r.values.size},
        BUILD_SPAN: lambda a, r: {"lattice_points": len(lattice(a[0])), "blocks": len(r)},
        "wiener.square_function": stack_bytes,
        "wiener.square_function_evolved": stack_bytes,
        "randomize.gaussian_matrix": lambda a, r: {"normals": 2 * r.size},
    }


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        inside = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[i]
            if c.end > s.start and c.start < s.end
        ]
        out.append(s.end - s.start - _covered(inside))
    return out


def layer_metrics(spans: list[Span], run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run lasting ``run_s`` seconds.

    ``cli.unattributed_s`` is the run time covered by no span; the layer
    self times plus it must add up to ``run_s`` (see ``consistency``).
    """
    own = self_times(spans)
    name_self = defaultdict(float)
    layer_self = defaultdict(float)
    calls = Counter()
    counts = Counter()
    build_s = 0.0
    for s, t in zip(spans, own):
        name_self[s.name] += t
        layer_self[s.name.split(".")[0]] += t
        calls[s.name] += 1
        counts.update(s.counts or {})
        if s.name == BUILD_SPAN and s.counts:
            build_s += s.end - s.start
    roots = [(s.start, s.end) for s in spans if s.parent < 0]
    out = {m: sum(name_self[n] for n in names) for m, names in SELF_TIME.items()}
    out.update({m: sum(calls[n] for n in names) for m, names in CALLS.items()})
    out.update({m: counts[key] for m, key in COUNTED.items()})
    out["wiener.partition_build_s"] = build_s
    gm = out["randomize.gaussian_matrix_s"]
    out["randomize.normals_per_s"] = out["randomize.normals_drawn"] / gm if gm else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["cli.unattributed_s"] = run_s - _covered(roots)
    out["trace.spans"] = len(spans)
    out["trace.layer_sum_s"] = sum(layer_self.values()) + out["cli.unattributed_s"]
    return out


def consistency(metrics: dict, run_s: float, tol: float = 1e-6) -> str | None:
    """Problem text when layer self times plus unattributed time miss the
    traced run time by more than ``tol`` relative, else None."""
    gap = metrics["trace.layer_sum_s"] - run_s
    if abs(gap) > tol * max(run_s, 1e-3):
        total = metrics["trace.layer_sum_s"]
        return f"layer self times + cli.unattributed_s = {total:.6f} s, run = {run_s:.6f} s"
    return None


def traced_run(cli_args, spans_path) -> dict:
    import dispersim.cli
    import dispersim.wiener

    imported = time.monotonic()
    tracer = Tracer()
    tracer.install(layer_modules(), counters(dispersim.wiener))
    installed = tracer.installed
    start = time.perf_counter()
    try:
        rc = dispersim.cli.main(cli_args)
    finally:
        run_s = time.perf_counter() - start
        left = tracer.remove()
    metrics = layer_metrics(tracer.spans, run_s)
    with open(spans_path, "w") as fh:
        json.dump([asdict(s) for s in tracer.spans], fh)
    return {
        "imported": imported,
        "exit": rc,
        "run_s": run_s,
        "wrappers_installed": installed,
        "wrappers_left": left,
        "consistency": consistency(metrics, run_s),
        "metrics": metrics,
    }


def _speedup(config_path, repeats: int = 3) -> dict:
    """estimate_tail time at threads=1 over threads=nproc on one config."""
    from dispersim import cli, tailprob, wiener

    with open(config_path) as fh:
        config = json.load(fh)
    spec = cli.parse_grid(config["grid"])
    cfg = tailprob.TailExperimentConfig(
        flow=cli.parse_flows(config)[0],
        data=cli.parse_data(config["data"], spec),
        times=tuple(config["times"]),
        thresholds=tuple(config["thresholds"]),
        observation_points=cli.observation_points(config, spec, config["seed"]),
        ensemble_size=int(config["ensemble_size"]),
        seed=config["seed"],
    )
    wiener.projection_blocks(spec)
    nproc = len(os.sched_getaffinity(0))
    times = {1: [], nproc: []}
    results = {}
    for _ in range(repeats):
        for threads in times:
            start = time.perf_counter()
            results[threads] = tailprob.estimate_tail(cfg, threads=threads)
            times[threads].append(time.perf_counter() - start)
    one, many = statistics.median(times[1]), statistics.median(times[nproc])
    return {
        "exit": 0 if results[1] == results[nproc] else 3,
        "nproc": nproc,
        "threads_1_s": one,
        "threads_nproc_s": many,
        "thread_speedup": one / many,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    argv, cli_args = argv[:split], argv[split + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report")
    parser.add_argument("--spans")
    parser.add_argument("--speedup", metavar="CONFIG")
    args = parser.parse_args(argv)
    if args.speedup:
        report = _speedup(args.speedup)
    else:
        report = traced_run(cli_args, args.spans)
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return report["exit"]


if __name__ == "__main__":
    sys.exit(main())
