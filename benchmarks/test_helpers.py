"""Tests for the benchmark's own helpers.

    python3 -m pytest benchmarks -q
"""

import json
import math
import sys
from pathlib import Path

import layertrace
import outputs
import run
from layertrace import Span, Tracer

sys.path.insert(0, str(run.SRC))


def test_self_time_subtracts_nested_children():
    spans = [
        Span("a.root", 0.0, 10.0),
        Span("b.child", 1.0, 4.0, parent=0),
        Span("c.grandchild", 2.0, 3.0, parent=1),
        Span("b.child", 5.0, 7.0, parent=0),
        Span("a.root", 11.0, 12.0),
    ]
    assert layertrace.self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]
    metrics = layertrace.layer_metrics(spans, run_s=13.0)
    assert metrics["cli.unattributed_s"] == 2.0
    assert metrics["trace.layer_sum_s"] == 13.0
    assert layertrace.consistency(metrics, 13.0) is None
    assert layertrace.consistency(metrics, 14.0) is not None


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("a.root", 0.0, 10.0),
        Span("b.x", 1.0, 4.0, parent=0),
        Span("b.y", 3.0, 6.0, parent=0),
        Span("b.z", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert layertrace.self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_wrapped_calls_record_parents_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda x: x + 1)
    outer = tracer.wrap("m.outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("m.outer", 0.0, 5.0, -1),
        ("m.inner", 1.0, 2.0, 0),
        ("m.inner", 3.0, 4.0, 0),
    ]
    assert layertrace.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def _tails_csv(rows, m=10_000):
    lines = ["# config=0", ",".join(outputs.TAILS_COLUMNS)]
    for alpha, k in rows:
        lo, hi = outputs.wilson(k, m)
        lines.append(f"f,0.02,{alpha!r},1:1,{k},{m},{k / m!r},{lo!r},{hi!r},1.0")
    return "\n".join(lines) + "\n"


def test_exact_law_check_accepts_law_and_rejects_doctored_row():
    alphas = (0.5, 1.0, 1.5, 2.0)
    norms = {("f", "0.02", "1:1"): 1.0}
    manifest = {"fitted_constants": {"f": {"r_squared": 0.99}}}
    exact = [(a, round(10_000 * math.exp(-a * a))) for a in alphas]
    zmax = outputs.z_limit(1e-4, len(alphas))
    assert outputs.tails_problems(_tails_csv(exact), manifest, norms, 4, zmax) == []
    doctored = list(exact)
    doctored[1] = (1.0, exact[1][1] + 300)  # a consistent row, off the law
    problems = outputs.tails_problems(_tails_csv(doctored), manifest, norms, 4, zmax)
    assert len(problems) == 1 and "z =" in problems[0]
    assert outputs.tails_problems(_tails_csv(exact), {}, norms, 4, zmax) == [
        "no fit for f in the manifest"
    ]


def test_density_and_wiener_checks():
    head = ",".join(outputs.DENSITY_COLUMNS)
    good = f"# config=0\n{head}\n0.2,0.3,1.4,458,500,0.916,0.888,0.937,0.6\n"
    assert outputs.density_problems(good, [0.2], 500) == []
    bad = good.replace("0.937,0.6", "0.937,0.95")
    assert outputs.density_problems(bad, [0.2], 500)
    assert outputs.wiener_checks("[PASS] x\n15/15 checks passed\n") == (15, [])
    assert outputs.wiener_checks("[FAIL] x\n14/15 checks passed\n")[1]


def _bindings():
    return {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "dispersim"
        for attr, obj in vars(mod).items()
    }


def test_wrappers_are_removed_after_traced_run(tmp_path):
    import dispersim.cli
    from dispersim import randomize, tailprob, wiener

    before = _bindings()
    config = {
        "grid": {"dim": 1, "samples_per_axis": 32, "extent": 16.0},
        "flow": "kdv",
        "data": {"recipe": "gaussian", "width": 2.0},
        "times": [0.05],
        "thresholds": [0.01, 0.02],
        "ensemble_size": 200,
        "seed": 3,
    }
    path = tmp_path / "tails.json"
    path.write_text(json.dumps(config))
    report = layertrace.traced_run(
        ["tails", "--config", str(path), "--out", str(tmp_path / "out")],
        tmp_path / "spans.json",
    )
    assert report["exit"] == 0 and report["wrappers_left"] == []
    assert report["wrappers_installed"] > 0 and report["consistency"] is None
    assert report["metrics"]["randomize.normals_drawn"] > 0
    after = _bindings()
    assert before.keys() <= after.keys()
    assert all(after[key] is obj for key, obj in before.items())
    assert tailprob.gaussian_matrix is randomize.gaussian_matrix
    assert wiener.projection_blocks.cache_info().currsize > 0
    names = {s["name"] for s in json.loads((tmp_path / "spans.json").read_text())}
    assert {"tailprob.estimate_tail", "randomize.gaussian_matrix"} <= names
    assert dispersim.cli.tailprob is tailprob


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == run.PER_LAYER
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert m["unit"] == run.unit(m["name"])
    spec = json.loads((Path(run.HERE) / "workloads.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
