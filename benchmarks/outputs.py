"""Output checks for the benchmark's CLI invocations.

Each check returns a list of problems; an empty list means the output is
correct.  A failed check counts the invocation as failed in
``error_rate``.
"""

from __future__ import annotations

import csv
import io
import math
import re
from statistics import NormalDist

WILSON_Z = NormalDist().inv_cdf(0.975)
TAILS_COLUMNS = [
    "flow", "t", "alpha", "x_index", "exceed_count", "M", "prob", "ci_low",
    "ci_high", "bound",
]
DENSITY_COLUMNS = [
    "epsilon", "lambda", "m_threshold", "hit_count", "M", "prob", "ci_low",
    "ci_high", "target",
]
_CHECKS_LINE = re.compile(r"^(\d+)/(\d+) checks passed$")


def body(text: str) -> str:
    """A result file without its ``#`` comment lines."""
    return "".join(ln for ln in text.splitlines(True) if not ln.startswith("#"))


def _table(text: str, columns: list[str]) -> tuple[list[dict], list[str]]:
    rows = list(csv.reader(io.StringIO(body(text))))
    if not rows or rows[0] != columns:
        return [], [f"header is {rows[0] if rows else None}, expected {columns}"]
    problems = [
        f"row {i} has {len(r)} fields" for i, r in enumerate(rows[1:], 1) if len(r) != len(columns)
    ]
    return [dict(zip(columns, r)) for r in rows[1:]], problems


def wilson(k: int, m: int) -> tuple[float, float]:
    """Closed-form 95% Wilson score interval."""
    p = k / m
    z2 = WILSON_Z**2
    centre = (p + z2 / (2 * m)) / (1 + z2 / m)
    half = WILSON_Z / (1 + z2 / m) * math.sqrt(p * (1 - p) / m + z2 / (4 * m * m))
    return centre - half, centre + half


def z_limit(familywise_alpha: float, cells: int) -> float:
    """Two-sided per-cell z limit, Bonferroni-corrected over ``cells``."""
    return NormalDist().inv_cdf(1.0 - familywise_alpha / (2.0 * cells))


def exact_z(k: int, m: int, p: float) -> float:
    """z-score of k successes in m Binomial(m, p) trials from the exact
    two-sided tail probability, so that it stays valid when m p is tiny."""
    if p <= 0.0 or p >= 1.0:
        return 0.0 if k == round(m * p) else math.inf
    log_p, log_q, log_m = math.log(p), math.log1p(-p), math.lgamma(m + 1)
    step = 1 if k >= m * p else -1  # sum the far tail, where terms shrink
    tail, j = 0.0, k
    while 0 <= j <= m:
        term = math.exp(
            log_m - math.lgamma(j + 1) - math.lgamma(m - j + 1) + j * log_p + (m - j) * log_q
        )
        tail += term
        if term <= 1e-17 * tail:
            break
        j += step
    two_sided = min(1.0, 2.0 * tail)
    return math.inf if two_sided <= 0.0 else NormalDist().inv_cdf(1.0 - two_sided / 2.0)


def tails_problems(
    csv_text: str, manifest: dict, norms: dict, thresholds: int, zmax: float
) -> list[str]:
    """Check a tails CSV against the exact Rayleigh law.

    The deviation sum_k g_k a_k of a circular complex Gaussian draw is
    CN(0, ||a||^2), so P(|.| > alpha) = exp(-alpha^2 / ||a||^2) exactly.
    ``norms`` maps (flow, t, x_index) as written in the CSV to ||a||, and
    each of those cells has ``thresholds`` rows.  A cell fails when the
    z-score of its count against that law (:func:`exact_z`) exceeds
    ``zmax``, when its
    ``prob`` is off its count or outside its Wilson interval, or when the
    interval is not the Wilson interval; the fit must be in the manifest.
    """
    rows, problems = _table(csv_text, TAILS_COLUMNS)
    if len(rows) != len(norms) * thresholds:
        problems.append(f"{len(rows)} rows, expected {len(norms) * thresholds}")
    for i, r in enumerate(rows, 1):
        try:
            k, m = int(r["exceed_count"]), int(r["M"])
            prob, lo, hi = float(r["prob"]), float(r["ci_low"]), float(r["ci_high"])
            norm = norms[(r["flow"], r["t"], r["x_index"])]
            exact = math.exp(-float(r["alpha"]) ** 2 / norm**2)
        except (KeyError, ValueError) as exc:
            problems.append(f"row {i}: unreadable ({exc!r})")
            continue
        if not 0 <= k <= m or abs(prob - k / m) > 1e-12:
            problems.append(f"row {i}: prob {prob} is not {k}/{m}")
        if not lo <= prob <= hi:
            problems.append(f"row {i}: prob {prob} outside [{lo}, {hi}]")
        w_lo, w_hi = wilson(k, m)
        if abs(lo - w_lo) > 1e-9 or abs(hi - w_hi) > 1e-9:
            problems.append(f"row {i}: [{lo}, {hi}] is not the Wilson interval")
        z = exact_z(k, m, exact)
        if z > zmax:
            problems.append(f"row {i}: prob {prob} vs exact {exact:.6g}, z = {z:.2f}")
    for flow in sorted({r["flow"] for r in rows}):
        if "r_squared" not in manifest.get("fitted_constants", {}).get(flow, {}):
            problems.append(f"no fit for {flow} in the manifest")
    return problems


def density_problems(csv_text: str, schedule: list[float], ensemble: int) -> list[str]:
    """Rows well formed, one per epsilon, hit_count <= M and ci_high >= target."""
    rows, problems = _table(csv_text, DENSITY_COLUMNS)
    if len(rows) != len(schedule):
        problems.append(f"{len(rows)} rows for {len(schedule)} epsilons")
    for i, (r, eps) in enumerate(zip(rows, schedule), 1):
        try:
            vals = {c: float(v) for c, v in r.items()}
            hits, m = int(r["hit_count"]), int(r["M"])
        except ValueError as exc:
            problems.append(f"row {i}: unreadable ({exc!r})")
            continue
        if vals["epsilon"] != eps or m != ensemble:
            problems.append(f"row {i}: epsilon {vals['epsilon']}, M {m}")
        if not 0 <= hits <= m or abs(vals["prob"] - hits / m) > 1e-12:
            problems.append(f"row {i}: prob {vals['prob']} is not {hits}/{m}")
        if not vals["ci_low"] <= vals["prob"] <= vals["ci_high"]:
            problems.append(f"row {i}: prob outside its interval")
        if vals["ci_high"] < vals["target"]:
            problems.append(f"row {i}: ci_high {vals['ci_high']} < target {vals['target']}")
    return problems


def wiener_checks(stdout: str) -> tuple[int, list[str]]:
    """Number of invariant checks reported, and problems unless all passed."""
    lines = stdout.strip().splitlines()
    match = _CHECKS_LINE.match(lines[-1]) if lines else None
    if not match:
        return 0, ["no 'N/N checks passed' line"]
    passed, total = int(match[1]), int(match[2])
    if passed != total or total == 0:
        return total, [f"{passed}/{total} checks passed"]
    return total, []
