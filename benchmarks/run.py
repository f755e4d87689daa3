"""The dispersim benchmark.

    python3 benchmarks/run.py --workload tails-3d --seed 7 --seconds 40 --trace 0
    python3 benchmarks/run.py            # every workload, one table each

Run from the root of a source checkout; the package is imported from its
``src/``, and nothing outside the checkout is written.  The workloads and
the reasons for them are in ``workloads.json``.

With ``--trace 0`` the benchmark starts fresh ``dispersim`` CLI processes
one after another, as many as fit in ``--seconds`` seconds (at least
two), checks each
one's output and reports the end-to-end metrics as medians over them.
With ``--trace 1`` it alternates untraced and traced processes (see
``layertrace.py``) and reports the per-layer metrics, the tracing overhead
and the thread speedup of ``estimate_tail``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable table and the environment.  The full result, with every
sample, is written to ``.bench_run/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import layertrace
import outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".bench_run"
SRC = ROOT / "src"

# End-to-end metrics in BENCHMARK.json; samples_per_s and error_rate are
# printed and stored with them but not listed, see workloads.json.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics in BENCHMARK.json: counts, and times that no workload
# leaves at exactly 0.  A layer a workload bypasses has a time of exactly 0
# there, so those times are printed and stored but not listed.
PER_LAYER = (
    ["cli.import_s", "cli.unattributed_s", "wiener.partition_build_s", "grid.transform_s"]
    + ["grid.self_s", "wiener.self_s"]
    + list(layertrace.CALLS)
    + list(layertrace.COUNTED)
    + ["tailprob.thread_speedup", "trace.overhead_s", "trace.spans"]
)
LAYER_REPORTED = (
    [m for m in layertrace.SELF_TIME if m not in PER_LAYER]
    + ["randomize.normals_per_s"]
    + [f"{layer}.self_s" for layer in layertrace.LAYERS if f"{layer}.self_s" not in PER_LAYER]
)
MIN_INVOCATIONS = 2  # byte identity needs a repetition
BUDGET_S = 120.0  # start no round expected to end past this
TIMEOUT_S = 120.0


def unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_speedup"):
        return "ratio"
    return "count"


def cap_threads(nproc: int) -> None:
    """Cap BLAS and OpenMP pools at nproc for this process and its children."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DISPERSIM_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def git_sha() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = ROOT / ".git" / ref
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown (not a git checkout)"


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None where it cannot be asked."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def environment(nproc: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_model": model or platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": blas_threads(),
        "thread_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": git_sha(),
    }


def import_package():
    """Import dispersim from this checkout's src/, nowhere else."""
    sys.path.insert(0, str(SRC))
    import dispersim

    if Path(dispersim.__file__).resolve().parent != SRC / "dispersim":
        raise SystemExit(f"dispersim imported from {dispersim.__file__}, not {SRC}")
    return dispersim


class Workload:
    """One workload's config, its output checks and its work count."""

    def __init__(self, name: str, spec: dict, seed: int, law: dict):
        self.name = name
        self.subcommand = spec["subcommand"]
        self.config = dict(spec["config"], seed=seed)
        self.dir = RUN_DIR / name
        self.out = self.dir / "out"
        self.config_path = self.dir / "config.json"
        self.reference = None
        if self.subcommand == "tails":
            self.reference = self._exact_norms()
            self.zmax = outputs.z_limit(
                law["familywise_alpha"],
                len(self.reference) * len(self.config["thresholds"]),
            )

    def _exact_norms(self) -> dict:
        import_package()
        from dispersim import cli, tailprob

        spec = cli.parse_grid(self.config["grid"])
        data = cli.parse_data(self.config["data"], spec)
        points = cli.observation_points(self.config, spec, self.config["seed"])
        return {
            (flow.label(), repr(float(t)), tailprob.format_x_index(x)): tailprob.series_norm(
                tailprob.deviation_coefficients(flow, data, t, x)
            )
            for flow in cli.parse_flows(self.config)
            for t in self.config["times"]
            for x in points
        }

    def cli_args(self) -> list[str]:
        return [self.subcommand, "--config", str(self.config_path), "--out", str(self.out)]

    def check(self, stdout: str) -> tuple[int, str, list[str]]:
        """(work items, result body for byte identity, problems)."""
        cfg = self.config
        try:
            if self.subcommand == "check-wiener":
                work, problems = outputs.wiener_checks(stdout)
                return work, stdout, problems
            if self.subcommand == "tails":
                text = (self.out / "tails_results.csv").read_text()
                manifest = json.loads((self.out / "tails_manifest.json").read_text())
                flows = len(cfg["flows"]) if "flows" in cfg else 1
                problems = outputs.tails_problems(
                    text, manifest, self.reference, len(cfg["thresholds"]), self.zmax
                )
                return cfg["ensemble_size"] * flows, outputs.body(text), problems
            if self.subcommand == "density":
                text = (self.out / "density_results.csv").read_text()
                m = cfg["ensemble_size"]
                draws = (cfg.get("calibration_ensemble", m) + m) * len(cfg["epsilon_schedule"])
                problems = outputs.density_problems(text, cfg["epsilon_schedule"], m)
                return draws, outputs.body(text), problems
        except (OSError, ValueError) as exc:
            return 0, "", [f"unreadable output: {exc!r}"]
        raise ValueError(f"no output check for {self.subcommand}")


def invoke(script: str, args: list[str], env: dict, report: Path) -> dict:
    """Start one fresh process of ``script`` and wait for it."""
    report.unlink(missing_ok=True)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), str(report), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
        rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        rc, stdout, stderr = -1, "", f"timed out after {TIMEOUT_S} s"
    end = time.monotonic()
    child = json.loads(report.read_text()) if rc == 0 and report.exists() else {}
    return {"start": start, "end": end, "exit": rc, "stdout": stdout,
            "stderr": stderr[-2000:], "child": child}


def run_cli(wl: Workload, env: dict, traced: bool, index: int) -> dict:
    """One CLI invocation with its output checked; returns its sample."""
    shutil.rmtree(wl.out, ignore_errors=True)
    report = wl.dir / "child.json"
    if traced:
        spans = wl.dir / f"spans-{index}.json"
        args = ["--spans", str(spans), "--", *wl.cli_args()]
        res = invoke("layertrace.py", args, env, report)
    else:
        res = invoke("launch.py", wl.cli_args(), env, report)
    child = res["child"]
    problems = [] if res["exit"] == 0 else [f"exit {res['exit']}: {res['stderr'].strip()[-300:]}"]
    work, result_body, more = wl.check(res["stdout"]) if not problems else (0, "", [])
    problems += more
    sample = {"exit": res["exit"], "work": work, "body": result_body, "problems": problems}
    if child:
        sample["setup_s"] = child["imported"] - res["start"]
        sample["wall_s"] = res["end"] - res["start"]
        if traced:
            sample["run_s"] = child["run_s"]
            sample["metrics"] = child["metrics"]
            if child["consistency"]:
                problems.append(child["consistency"])
            if child["wrappers_left"] or not child["wrappers_installed"]:
                problems.append(f"wrappers not restored: {child['wrappers_left']}")
        else:
            sample["run_s"] = child["done"] - child["imported"]
            sample["peak_rss_mb"] = child["peak_rss_kb"] / 1024.0
            if Path(child["module"]).resolve().parent != SRC / "dispersim":
                problems.append(f"CLI imported from {child['module']}")
    elif not problems:
        problems.append("no report from the child process")
    return sample


def mark_repeats(samples: list[dict]) -> None:
    """Fail every sample whose result body differs from the first one's."""
    first = next((s["body"] for s in samples if s["body"]), None)
    for s in samples:
        if s["body"] and s["body"] != first:
            s["problems"].append("result differs from the first repetition")


def middle(values: list, unit_name: str):
    """Median; for counts the lower median, so that a count stays whole."""
    if unit_name in ("count", "B"):
        return statistics.median_low(values)
    return statistics.median(values)


def tail_percentile(values: list[float]):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90, 99, 99.9):
        if len(values) * (1 - p / 100) >= 10:
            best = (p, statistics.quantiles(values, n=1000)[int(p * 10) - 1])
    return best


def measure(wl: Workload, env: dict, seconds: float, trace: bool) -> list[dict]:
    """Invocations for ``seconds`` seconds: untraced ones, or with ``trace``
    alternating untraced and traced ones."""
    samples = []
    begin = time.monotonic()
    rounds = []
    while True:
        elapsed = time.monotonic() - begin
        if len(samples) >= MIN_INVOCATIONS:
            # Start another round only if a typical one still fits.
            if elapsed + statistics.median(rounds) > min(seconds, BUDGET_S):
                return samples
        t0 = time.monotonic()
        samples.append(dict(run_cli(wl, env, False, len(samples)), traced=False))
        if trace:
            samples.append(dict(run_cli(wl, env, True, len(samples)), traced=True))
        rounds.append(time.monotonic() - t0)


def end_to_end(samples: list[dict]) -> dict:
    timed = [s for s in samples if "run_s" in s]
    out = {name: [s[name] for s in timed] for name in END_TO_END}
    out["samples_per_s"] = [s["work"] / s["run_s"] for s in timed if s["run_s"] > 0]
    return out


def per_layer(samples: list[dict], speedup: dict) -> dict:
    traced = [s for s in samples if s["traced"] and "metrics" in s]
    untraced = [s for s in samples if not s["traced"] and "run_s" in s]
    out = {
        name: [s["metrics"][name] for s in traced if name in s["metrics"]]
        for name in PER_LAYER + LAYER_REPORTED
    }
    out["cli.import_s"] = [s["setup_s"] for s in traced]
    if traced and untraced:
        out["trace.overhead_s"] = [
            statistics.median(s["run_s"] for s in traced)
            - statistics.median(s["run_s"] for s in untraced)
        ]
    if "thread_speedup" in speedup:
        out["tailprob.thread_speedup"] = [speedup["thread_speedup"]]
    return out


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; prints its table and
    returns the result object."""
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    env = child_env()
    shutil.rmtree(RUN_DIR / name, ignore_errors=True)
    (RUN_DIR / name).mkdir(parents=True)
    setup_begin = time.monotonic()
    wl = Workload(name, spec["workloads"][name], seed, spec["tails_exact_law"])
    wl.config_path.write_text(json.dumps(wl.config))
    # Fill the bytecode cache first: users do not recompile on every run.
    warm = subprocess.run([sys.executable, "-c", "import dispersim.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if warm.returncode != 0:
        raise SystemExit(f"error: cannot import dispersim.cli:\n{warm.stderr}")
    bench_setup_s = time.monotonic() - setup_begin

    samples = measure(wl, env, seconds, trace)
    speedup = {}
    if trace:
        cfg_path = wl.dir / "speedup-config.json"
        cfg_path.write_text(json.dumps(dict(spec["workloads"]["tails-3d"]["config"], seed=seed)))
        res = invoke("layertrace.py", ["--speedup", str(cfg_path)], env, wl.dir / "speedup.json")
        speedup = res["child"]
        problems = [] if res["exit"] == 0 else [f"speedup run exit {res['exit']}"]
        samples.append({"traced": False, "exit": res["exit"], "work": 0, "body": "",
                        "problems": problems})
    mark_repeats(samples)

    values = per_layer(samples, speedup) if trace else end_to_end(samples)
    gated = PER_LAYER if trace else list(END_TO_END)
    failed = sum(bool(s["problems"]) for s in samples)
    metrics = {
        metric: {"value": middle(values[metric], unit(metric)), "unit": unit(metric)}
        for metric in gated
        if values[metric]
    }
    env_block = environment(nproc)
    print(f"dispersim benchmark: workload={name} seed={seed} seconds={seconds:g}"
          f" trace={int(trace)}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env_block.items()))
    print("benchmark set-up (config, exact-law reference, bytecode warm-up):"
          f" {bench_setup_s:.2f} s")
    print_table(values, samples, failed)
    result = {"correct": failed == 0 and len(metrics) == len(gated), "attempted": len(samples),
              "failed": failed, "metrics": metrics}
    (wl.dir / "result.json").write_text(json.dumps(
        dict(result, workload=name, seed=seed, seconds=seconds, trace=int(trace),
             environment=env_block, samples=values, speedup=speedup,
             problems=[p for s in samples for p in s["problems"]]), indent=1))
    return result


def print_table(values: dict, samples: list[dict], failed: int) -> None:
    print(f"{'metric':34} {'unit':6} {'median':>12} {'tail':>20} {'n':>4}")
    for name, vals in values.items():
        if not vals:
            continue
        tail = tail_percentile(vals)
        tail_txt = f"p{tail[0]:g} {tail[1]:.6g}" if tail else "n/a (n < 20)"
        mid = middle(vals, unit(name))
        print(f"{name:34} {unit(name):6} {mid:12.6g} {tail_txt:>20} {len(vals):4d}")
    print(f"{'error_rate':34} {'ratio':6} {failed / len(samples):12.6g} "
          f"{f'{failed}/{len(samples)} failed':>20} {len(samples):4d}")
    for s in samples:
        for p in s["problems"]:
            print(f"problem: {p}")


def main(argv=None) -> int:
    spec = json.loads((HERE / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description="dispersim benchmark")
    parser.add_argument("--workload", choices=[*spec["workloads"], "all"], default="all")
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dispersim" / "cli.py").is_file():
        print(f"error: no dispersim sources under {SRC}", file=sys.stderr)
        return 2
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, spec, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
