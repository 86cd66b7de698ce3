"""The benchmark's definition: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-benchmark-json``); ``run.py`` checks
every run's metrics against it.
"""

from __future__ import annotations

from tracer import LAYERS

WORKLOADS = {
    "figure-cli": (
        "cold `python -m repro figure 4/5/6` processes at CLI defaults: the only "
        "workload paying import and orchestration journal/manifest I/O"
    ),
    "sweep-grid": (
        "warm in-process figure 4/5/6 sweeps plus a near-boundary slice, cold "
        "cache per pass: the solver layers with no I/O or import"
    ),
    "oracle-boundary": (
        "check_point on the check --quick grid incl. the rho_L=0.98 row: "
        "simulation and the truncated-chain reference dominate"
    ),
    "serve-open": (
        "open-loop QueryService traffic, half repeats, restart halfway: "
        "admission, queueing, cache and disk-store reads"
    ),
}

#: (name, unit, better, bound); every workload reports every one.  The
#: timing bounds are the widest allowed: run-to-run speed on a shared
#: two-core machine drifts by 10-20% between runs of the same code.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("points_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("max_qps", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _per_layer() -> "list[tuple[str, str, str]]":
    rows: "list[tuple[str, str, str]]" = []
    for layer in LAYERS:
        rows += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.total_s", "s", "lower"),
            (f"{layer}.self_s", "s", "lower"),
        ]
    rows += [
        ("import.total_s", "s", "lower"),
        ("import.simulation_s", "s", "lower"),
        ("import.core_s", "s", "lower"),
        ("import.scipy_stats_s", "s", "lower"),
        ("orchestration.journal_record_calls", "count", "lower"),
        ("orchestration.journal_record_s", "s", "lower"),
        ("orchestration.journal_bytes", "B", "lower"),
        ("orchestration.manifest_bytes", "B", "lower"),
        ("orchestration.fsyncs", "count", "lower"),
        ("markov.qbd_solves", "count", "lower"),
        ("markov.iterations", "count", "lower"),
        ("robustness.condest_calls", "count", "lower"),
        ("robustness.condest_s", "s", "lower"),
        ("robustness.escalations", "count", "lower"),
        ("robustness.trusted", "count", "higher"),
        ("robustness.suspect", "count", "lower"),
        ("robustness.untrusted", "count", "lower"),
        ("core.truncated_calls", "count", "lower"),
        ("core.truncated_s", "s", "lower"),
        ("simulation.jobs", "count", "lower"),
        ("simulation.replications", "count", "lower"),
        ("simulation.jobs_per_s", "1/s", "higher"),
        ("perf.cache_hits", "count", "higher"),
        ("perf.cache_misses", "count", "lower"),
        ("perf.cache_hit_ratio", "ratio", "higher"),
        ("perf.store_hits", "count", "higher"),
        ("perf.store_writes", "count", "lower"),
        ("perf.store_get_s", "s", "lower"),
        ("perf.store_put_s", "s", "lower"),
        ("perf.store_bytes", "B", "lower"),
        ("service.queue_wait_p99_ms", "ms", "lower"),
        ("service.exec_p50_ms", "ms", "lower"),
        ("service.shed", "count", "lower"),
        ("service.exact", "count", "higher"),
        ("service.degraded", "count", "lower"),
        ("serve.generator_lag_p99_ms", "ms", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return rows


PER_LAYER = tuple(_per_layer())

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

RUN_SECONDS = 4


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
