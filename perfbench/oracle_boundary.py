"""oracle-boundary: ``contracts.check_point`` on the ``check --quick`` grid.

The four points of ``python -m repro check --quick`` (case a): (0.3, 0.5),
(0.9, 0.5), 90% of the CS-CQ limit at rho_L = 0.5 and 90% of the limit at
rho_L = 0.98, with the default ``OracleConfig`` and its ``seed`` set to
the workload seed.  Simulation and the truncated-chain reference
dominate; the QBD solve is negligible.  Any verdict other than ``agree``
is a failed operation; the rho_L = 0.98 row ends ``inconclusive`` at the
seed tree and stays in, so the defect shows.

The points run on two forked worker processes (``nproc`` is 2),
heaviest first.  Fork, not spawn: a spawn pool starts multiprocessing's
resource-tracker helper, which nothing waits for once the benchmark
exits.  A request, for the latency metrics, is the whole grid, as one
``check --quick`` command.
"""

from __future__ import annotations

import multiprocessing
import time

import harness
import tracer as tracing

IMPORT_MODULE = "repro"
WORKERS = 2

#: (rho_s, rho_l), heaviest first so the pool finishes as early as it can.
GRID = (
    (0.918, 0.98),  # 90% of 2 - 0.98
    (1.35, 0.5),  # 90% of 2 - 0.5
    (0.3, 0.5),
    (0.9, 0.5),
)

_tracer = None


def _init_worker(barrier, run_id: str, trace_dir: str) -> None:
    """Import the program, then wait until every worker (and the parent) is ready."""
    harness.pin_environment()
    import repro.contracts  # noqa: F401
    import repro.simulation  # noqa: F401

    global _run_id, _trace_dir
    _run_id, _trace_dir = run_id, trace_dir
    barrier.wait()


def _check(task: "tuple[float, float, int, bool]") -> dict:
    """One verdict in a worker; with ``trace`` its spans and counters come back."""
    global _tracer
    rho_s, rho_l, seed, trace = task
    from pathlib import Path

    if trace and _tracer is None:
        _tracer = tracing.Tracer(_run_id, Path(_trace_dir))
        _tracer.install()
    from repro import contracts, workloads

    params = workloads.case_by_name("a").params(rho_s, rho_l)
    label = f"oracle a rho_s={rho_s:g} rho_l={rho_l:g}"
    started = time.perf_counter()
    verdict = contracts.check_point(params, contracts.OracleConfig(seed=seed), label=label)
    out = {
        "rho_s": rho_s,
        "rho_l": rho_l,
        "classification": verdict.classification,
        "escalations": verdict.escalations,
        "seconds": time.perf_counter() - started,
        "peak_rss_mb": harness.self_peak_rss_mb(),
    }
    if trace:
        out["spans"] = _tracer.records()
        out["meters"] = {k: list(v) for k, v in _tracer.meters.items()}
        out["counts"] = dict(_tracer.counts)
        _tracer.spans.clear()
        for meter in _tracer.meters.values():
            meter[0], meter[1] = 0, 0.0
        _tracer.counts.clear()
    return out


class Fixture:
    """The worker pool, started and warmed up."""

    def __init__(self, run_id: str = "setup", trace_dir: str = ""):
        import repro  # noqa: F401

        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(WORKERS + 1)
        self.pool = context.Pool(
            WORKERS, initializer=_init_worker, initargs=(barrier, run_id, trace_dir)
        )
        barrier.wait()

    def close(self, abandon: bool = False) -> None:
        """Stop the workers and wait for them; ``abandon`` drops unfinished work."""
        if abandon:
            self.pool.terminate()
        else:
            self.pool.close()
        self.pool.join()


def setup(seed: int) -> Fixture:
    return Fixture()


def _grid_pass(fixture: Fixture, seed: int, trace: bool) -> "tuple[float, list[dict]]":
    started = time.perf_counter()
    tasks = [(rho_s, rho_l, seed, trace) for rho_s, rho_l in GRID]
    results = list(fixture.pool.imap_unordered(_check, tasks, chunksize=1))
    return time.perf_counter() - started, results


def _tally(results: "list[dict]", outcome: harness.Outcome) -> None:
    for result in sorted(results, key=lambda r: (r["rho_l"], r["rho_s"])):
        classification = result["classification"]
        outcome.tally(classification == "agree", wrong=classification == "suspect")
        key = f"verdict rho_s={result['rho_s']:g} rho_l={result['rho_l']:g}"
        outcome.notes[key] = (
            f"{classification}, {result['escalations']} escalations, "
            f"{result['seconds']:.2f} s"
        )


def run(ctx: harness.Context) -> harness.Outcome:
    outcome = harness.Outcome()
    trace_dir = ctx.work / "trace"
    fixture = Fixture(ctx.run_id, str(trace_dir))
    try:
        if ctx.trace:
            traced = _traced(ctx, fixture, outcome)
            fixture.close()
            return traced
        walls, peaks = [], [harness.self_peak_rss_mb()]
        deadline = time.perf_counter() + ctx.seconds
        while not walls or time.perf_counter() < deadline:
            wall, results = _grid_pass(fixture, ctx.seed, trace=False)
            walls.append(wall)
            peaks += [r["peak_rss_mb"] for r in results]
            _tally(results, outcome)
        fixture.close()
    except BaseException:
        fixture.close(abandon=True)
        raise
    wall = harness.median(walls)
    outcome.metrics.update(
        wall_s=wall,
        points_per_s=harness.median([2 * len(GRID) / w for w in walls]),
        latency_p50_ms=1e3 * wall,
        max_qps=len(walls) / sum(walls),
        peak_rss_mb=max(peaks),
    )
    return outcome


def _traced(ctx, fixture: Fixture, outcome: harness.Outcome) -> harness.Outcome:
    # Overhead reference: the lightest point untraced, then the same
    # point (same seed, same simulated jobs) inside the traced pass.
    light = (0.3, 0.5)
    reference = fixture.pool.apply(_check, ((*light, ctx.seed, False),))
    _, results = _grid_pass(fixture, ctx.seed, trace=True)
    _tally(results, outcome)
    tracer = tracing.Tracer(ctx.run_id, ctx.work / "trace")
    records: "list[dict]" = []
    for result in results:
        records += result["spans"]
        tracer.add_counters(result["meters"], result["counts"])
    metrics = tracing.per_layer_metrics(tracer, records)
    traced_light = next(r for r in results if (r["rho_s"], r["rho_l"]) == light)
    metrics["trace.overhead_frac"] = traced_light["seconds"] / reference["seconds"] - 1.0
    outcome.metrics.update(metrics)
    outcome.notes.update(
        untraced_light_s=reference["seconds"], traced_light_s=traced_light["seconds"]
    )
    tracing.write_records(ctx.trace_file, records)
    return outcome
