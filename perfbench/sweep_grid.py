"""sweep-grid: the paper's figure 4/5/6 sweeps plus a near-boundary slice.

One warm process; every pass starts with a cold sweep cache.  A pass
runs ``figure4_panels``, ``figure5_panels`` and ``figure6_panels`` on the
paper grids, then ``response_time_series`` over a seeded slice of points
within 1% of the CS-CQ stability limit ``rho_s -> 2 - rho_l``, where
R iterations, conditioning and trust escalation grow.  No orchestration,
no I/O: this is where the solver layers do almost all the work.

A request, for the latency metrics, is one figure sweep.
"""

from __future__ import annotations

import math
import random
import time

import harness
import tracer as tracing

IMPORT_MODULE = "repro"

FIGURES = (
    ("figure4_panels", "figure4_exponential.txt"),
    ("figure5_panels", "figure5_coxian_longs.txt"),
    ("figure6_panels", "figure6_vs_rho_l.txt"),
)
CASES = ("a", "b", "c")
#: Near-boundary slice size: per case, this many rho_l values with
#: this many rho_s points each, for both job classes.
SLICE_RHO_L = 2
SLICE_POINTS = 8


def boundary_slice(seed: int) -> "list[tuple[str, float, list[float]]]":
    """(case, rho_l, ascending rho_s values within 1% of 2 - rho_l)."""
    rng = random.Random(seed)
    out = []
    for case in CASES:
        for _ in range(SLICE_RHO_L):
            rho_l = round(rng.uniform(0.2, 0.9), 4)
            limit = 2.0 - rho_l
            xs = sorted(
                round(limit * (1.0 - rng.uniform(1e-4, 1e-2)), 10)
                for _ in range(SLICE_POINTS)
            )
            out.append((case, rho_l, xs))
    return out


def setup(seed: int):
    """Import the program and build the pass inputs."""
    import repro  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.perf  # noqa: F401

    return boundary_slice(seed)


def one_pass(slice_points) -> dict:
    """Run one pass; return timings plus what the checks need."""
    from repro import core, experiments, perf, workloads

    result = {"sweeps": [], "caches": []}
    started = time.perf_counter()
    for function, committed in FIGURES:
        t0 = time.perf_counter()
        with perf.sweep_cache() as cache:
            panels = getattr(experiments, function)()
        result["sweeps"].append(time.perf_counter() - t0)
        result["caches"].append(cache)
        result.setdefault("panels", []).append((panels, committed))
    with perf.sweep_cache() as cache:
        rows = []
        for case, rho_l, xs in slice_points:
            for job_class in ("short", "long"):
                series = experiments.response_time_series(
                    workloads.case_by_name(case), xs, rho_l, job_class
                )
                rows.append((rho_l, xs, job_class, series))
    result["caches"].append(cache)
    result["slice"] = rows
    result["wall_s"] = time.perf_counter() - started
    result["stable"] = {
        "Dedicated": core.dedicated_is_stable,
        "CS-Immed-Disp": core.cs_id_is_stable,
        "CS-Central-Q": core.cs_cq_is_stable,
    }
    return result


def check_pass(result: dict, outcome: harness.Outcome) -> int:
    """Tally every checked output; return the pass's sweep-point count."""
    from repro import experiments

    points = 0
    for panels, committed in result["panels"]:
        printed = "\n\n".join(experiments.format_panel(panel) for panel in panels)
        checked, differing = harness.compare_tables(printed, committed)
        points += checked
        for index in range(checked):
            outcome.tally(index >= differing, wrong=index < differing)
    for rho_l, xs, job_class, series in result["slice"]:
        for i, rho_s in enumerate(xs):
            points += 1
            ok = True
            for s in series:
                stable = job_class == "long" or result["stable"][s.label](rho_s, rho_l)
                if stable and not math.isfinite(float(s.y[i])):
                    ok = False  # NaN where the policy is stable
            outcome.tally(ok, wrong=not ok)
    for cache in result["caches"]:
        for solution in cache.values("qbd-solution"):
            verdict = getattr(solution.diagnostics, "trust", None)
            outcome.tally(verdict in ("trusted", "suspect"))
    return points


def run(ctx: harness.Context) -> harness.Outcome:
    slice_points = setup(ctx.seed)
    outcome = harness.Outcome()
    if ctx.trace:
        return _traced(ctx, slice_points, outcome)
    passes, sweeps, rates = [], [], []
    deadline = time.perf_counter() + ctx.seconds
    while not passes or time.perf_counter() < deadline:
        result = one_pass(slice_points)
        points = check_pass(result, outcome)
        passes.append(result["wall_s"])
        sweeps.extend(result["sweeps"])
        rates.append(points / result["wall_s"])
    wall = harness.median(passes)
    outcome.metrics.update(
        wall_s=wall,
        points_per_s=harness.median(rates),
        latency_p50_ms=1e3 * harness.median(sweeps),
        max_qps=len(sweeps) / sum(passes),
        peak_rss_mb=harness.self_peak_rss_mb(),
    )
    outcome.notes.update(
        passes=len(passes),
        sweep_samples=len(sweeps),
        latency_p90_ms=round(1e3 * harness.quantile(sweeps, 0.9), 3),
    )
    return outcome


def _traced(ctx, slice_points, outcome) -> harness.Outcome:
    reference = one_pass(slice_points)
    check_pass(reference, outcome)
    tracer = tracing.Tracer(ctx.run_id, ctx.work / "trace")
    tracer.install()
    try:
        result = one_pass(slice_points)
    finally:
        tracer.uninstall()
    check_pass(result, outcome)
    records = tracer.records()
    metrics = tracing.per_layer_metrics(tracer, records)
    hits = sum(c.stats()["hits"] for c in result["caches"])
    misses = sum(c.stats()["misses"] for c in result["caches"])
    metrics.update(
        {
            "perf.cache_hits": hits,
            "perf.cache_misses": misses,
            "perf.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "trace.overhead_frac": result["wall_s"] / reference["wall_s"] - 1.0,
        }
    )
    outcome.metrics.update(metrics)
    outcome.notes.update(
        untraced_wall_s=reference["wall_s"], traced_wall_s=result["wall_s"]
    )
    tracing.write_records(ctx.trace_file, records)
    return outcome
