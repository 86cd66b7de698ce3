"""serve-open: open-loop query traffic against ``QueryService(workers=2)``.

An asyncio generator in this process calls ``QueryService.submit`` on a
fixed schedule, whatever the service's state, and times every query from
when it was *due*, so a stall also charges the queries queued behind it;
how late the generator itself ran is reported separately.

The seeded stream spans cases a/b/c and CS-CQ-stable loads, and about
half of its queries repeat an earlier point.  The service's cache sits
on a store directory that starts empty; the service is restarted once
halfway, so repeats after the restart read the disk store.  This is the
only workload that uses the ``perf`` store and the ``service`` admission
and queueing.

``max_qps`` comes from a fixed ladder of offered rates: the highest rung
at which p99 <= 50 ms, nothing is shed or rejected, every answer is
``exact`` and the backlog drains within the limit once the rung's
schedule ends (two of three slices must pass).  Shed and rejected queries in the ladder decide its
result and are not failures; in the fixed-rate stream they are.
"""

from __future__ import annotations

import asyncio
import math
import random
import shutil
import time
from pathlib import Path

import harness
import tracer as tracing

IMPORT_MODULE = "repro"
WORKERS = 2
#: The one fixed offered rate the latency metrics are measured at: about
#: a quarter of the service's capacity, below the knee where queueing
#: turns small changes in solve time into large changes in latency.
RATE = 50.0
#: Fewest queries in the fixed-rate stream (20 s at RATE): ten beyond the
#: p99.  The p90, p95 and p99 are printed but not gated: on a shared
#: two-core machine they moved by 0.48, 0.26 and 0.57 (quartile spread
#: over median, ten seeds) between runs of the same code, beyond the
#: largest bound a metric may have.  A longer ``--seconds`` lengthens the
#: stream.
QUERIES = 1000
LIMIT_MS = 50.0
#: Offered rates (queries/s).  On a shared two-core machine the rate at
#: which the p99 crosses the limit moved between about 70 and 200 q/s
#: from run to run of the same code, so rungs inside that range flipped
#: (2x and 3x ladders gave spreads of 0.5 and more).  The rungs sit
#: outside it: 300 q/s is beyond what the GIL-bound service can answer
#: at all.  The search starts at LADDER_START and walks up while rungs
#: pass, else down.
LADDER = (12, 60, 300)
LADDER_START = 60
#: A rung is offered as up to three slices of RUNG_SECONDS and passes when
#: two of them pass, so one burst of machine noise does not decide it.
RUNG_SECONDS = 2.0
#: Latency charged to a shed or rejected query: the service's default
#: deadline, far beyond the limit.
MISSED_MS = 5000.0


def make_stream(rng: random.Random, count: int) -> "list[tuple[str, float, float]]":
    """(case, rho_s, rho_l) per query; half the queries repeat an earlier point.

    Fresh points are stratified, not drawn independently: rho_l and the
    CS-CQ load fraction rho_s / (2 - rho_l) each take one value in every
    equal slice of their range, in shuffled pairings, and the cases
    cycle.  So every seed asks about the same spread of easy and costly
    points and the latency tail does not hinge on how many costly points
    one seed happens to draw.  Each fresh point is asked once more at a
    random later position.
    """
    fresh = (count + 1) // 2

    def strata(low: float, high: float) -> "list[float]":
        values = [low + (high - low) * (i + rng.random()) / fresh for i in range(fresh)]
        rng.shuffle(values)
        return values

    cases = [("a", "b", "c")[i % 3] for i in range(fresh)]
    rng.shuffle(cases)
    keyed = []
    for i, (case, rho_l, fraction) in enumerate(
        zip(cases, strata(0.1, 0.9), strata(0.03, 0.9))
    ):
        rho_l = round(rho_l, 3)
        point = (case, round(fraction * (2.0 - rho_l), 3), rho_l)
        first = i / fresh
        keyed.append((first, point))
        keyed.append((first + (1.0 - first) * rng.random(), point))
    keyed.sort(key=lambda item: item[0])
    return [point for _, point in keyed[:count]]


class Fixture:
    """A service whose cache is backed by a store under ``root``."""

    def __init__(self, root: Path):
        from repro import perf, service

        self.root = root
        self.store = perf.ResultStore(root)
        self.cache = perf.SweepCache(max_entries=4096, store=self.store)
        self.service = service.QueryService(workers=WORKERS, cache=self.cache)

    def close(self) -> None:
        self.service.close()


def setup(seed: int, root: "Path | None" = None) -> Fixture:
    import repro  # noqa: F401

    if root is None:
        root = Path.cwd() / f"store-{time.monotonic_ns()}"
    return Fixture(root)


async def _drive(fixtures: list, stream, rate: float, restart_at: "int | None") -> list:
    """Offer ``stream`` at ``rate``; return one record per query."""
    from repro import robustness, service

    queries = [
        service.ScenarioQuery(rho_s=rho_s, rho_l=rho_l, case={"name": case})
        for case, rho_s, rho_l in stream
    ]
    records: "list[dict]" = []
    pending: "set[asyncio.Task]" = set()

    async def one(record: dict, server, query) -> None:
        try:
            record["answer"] = await server.submit(query)
        except robustness.ServiceOverloadError:
            record["shed"] = True
        except Exception as exc:  # a lost query is a failure, never dropped
            record["error"] = repr(exc)
        record["done"] = time.perf_counter()

    start = time.perf_counter() + 0.01
    for index, query in enumerate(queries):
        if index == restart_at:
            restart_began = time.perf_counter()
            await asyncio.gather(*pending)
            fixtures[-1].close()
            fixtures.append(Fixture(fixtures[-1].root))
            records[-1]["restart_s"] = time.perf_counter() - restart_began
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        record = {"due": due, "lag": time.perf_counter() - due, "query": query}
        records.append(record)
        task = asyncio.create_task(one(record, fixtures[-1].service, query))
        pending.add(task)
        task.add_done_callback(pending.discard)
    await asyncio.gather(*pending)
    return records


def _check(records: list, outcome: "harness.Outcome | None") -> dict:
    """Latency summary; tally each query into ``outcome`` when given."""
    from repro.service.fidelity import BOUNDS_SLACK

    latencies, shed, rejected, degraded, exact = [], 0, 0, 0, 0
    for record in records:
        answer = record.get("answer")
        ok = wrong = False
        if record.get("shed"):
            shed += 1
        elif answer is None:
            wrong = True  # neither answered nor shed: lost
        elif not answer.answered:
            rejected += 1
        else:
            exact += answer.fidelity == "exact"
            degraded += answer.degraded
            wrong = not _within_bounds(answer, BOUNDS_SLACK)
            ok = answer.fidelity == "exact" and not wrong
        missed = record.get("shed") or answer is None or not answer.answered
        latency = MISSED_MS if missed else 1e3 * (record["done"] - record["due"])
        latencies.append(latency)
        if outcome is not None:
            outcome.tally(ok, wrong=wrong)
    last_due = max(r["due"] for r in records)
    return {
        "p50": harness.median(latencies),
        "p90": harness.quantile(latencies, 0.9),
        "p95": harness.quantile(latencies, 0.95),
        "p99": harness.quantile(latencies, 0.99),
        "shed": shed,
        "rejected": rejected,
        "degraded": degraded,
        "exact": exact,
        "drain_ms": 1e3 * (max(r["done"] for r in records) - last_due),
        "wall_s": max(r["done"] for r in records) - min(r["due"] for r in records),
        "lag_p99_ms": 1e3 * harness.quantile([r["lag"] for r in records], 0.99),
        "samples": len(records),
    }


def _within_bounds(answer, slack: float) -> bool:
    """Each value finite and inside its own bounds (inf only where unstable)."""
    for policy, value in (answer.values or {}).items():
        bound = (answer.bounds or {}).get(policy)
        if bound is None:
            return False
        if not bound["stable"]:
            if not math.isinf(value):
                return False
            continue
        if not math.isfinite(value):
            return False
        lower, upper = float(bound["lower"]), float(bound["upper"])
        if value < lower * (1.0 - slack) or value > upper * (1.0 + slack):
            return False
    return True


def _rung_passes(summary: dict) -> bool:
    return (
        summary["p99"] <= LIMIT_MS
        and summary["shed"] == 0
        and summary["rejected"] == 0
        and summary["exact"] == summary["samples"]
        and summary["drain_ms"] <= LIMIT_MS
    )


def _ladder(fixtures: list, seed: int) -> "tuple[float, list]":
    """Served rate at the highest passing rung, and every (rate, passed) tried.

    The served rate is answers per second from a passing slice's first
    due query to its last answer (median over the rung's passing
    slices): the rung's nominal rate as measured.
    """
    tried = []
    served = {}

    def attempt(index: int) -> bool:
        rate = LADDER[index]
        passes, fails, rates = 0, 0, []
        while passes < 2 and fails < 2:
            slice_seed = seed * 1000 + index * 10 + passes + fails
            stream = make_stream(random.Random(slice_seed), int(rate * RUNG_SECONDS))
            summary = _check(asyncio.run(_drive(fixtures, stream, rate, None)), None)
            if _rung_passes(summary):
                passes += 1
                rates.append(summary["samples"] / summary["wall_s"])
            else:
                fails += 1
        tried.append((rate, passes == 2))
        served[index] = harness.median(rates) if rates else 0.0
        return passes == 2

    index = LADDER.index(LADDER_START)
    if attempt(index):
        while index + 1 < len(LADDER) and attempt(index + 1):
            index += 1
        return served[index], tried
    while index > 0:
        index -= 1
        if attempt(index):
            return served[index], tried
    return LADDER[0] / 2, tried


def _stream_run(ctx: harness.Context, name: str) -> "tuple[list, list]":
    """The fixed-rate stream with its halfway restart, on a fresh store."""
    root = ctx.work / name
    shutil.rmtree(root, ignore_errors=True)
    fixtures = [setup(ctx.seed, root)]
    stream = make_stream(random.Random(ctx.seed), max(QUERIES, int(RATE * ctx.seconds)))
    records = asyncio.run(_drive(fixtures, stream, RATE, len(stream) // 2))
    return records, fixtures


def run(ctx: harness.Context) -> harness.Outcome:
    outcome = harness.Outcome()
    if ctx.trace:
        return _traced(ctx, outcome)
    records, fixtures = _stream_run(ctx, "store")
    summary = _check(records, outcome)
    try:
        max_qps, tried = _ladder(fixtures, ctx.seed)
    finally:
        fixtures[-1].close()
    restart = next(r["restart_s"] for r in records if "restart_s" in r)
    outcome.metrics.update(
        wall_s=summary["wall_s"],
        points_per_s=(summary["samples"] - summary["shed"] - summary["rejected"])
        / summary["wall_s"],
        latency_p50_ms=summary["p50"],
        max_qps=max_qps,
        peak_rss_mb=harness.self_peak_rss_mb(),
    )
    outcome.notes.update(
        offered_rate=RATE,
        latency_samples=summary["samples"],
        latency_p90_ms=round(summary["p90"], 3),
        latency_p95_ms=round(summary["p95"], 3),
        latency_p99_ms=round(summary["p99"], 3),
        generator_lag_p99_ms=round(summary["lag_p99_ms"], 3),
        restart_s=round(restart, 4),
        shed=summary["shed"],
        rejected=summary["rejected"],
        ladder=tried,
    )
    return outcome


def _traced(ctx: harness.Context, outcome: harness.Outcome) -> harness.Outcome:
    untraced, fixtures = _stream_run(ctx, "untraced")
    fixtures[-1].close()
    reference = _check(untraced, outcome)
    tracer = tracing.Tracer(ctx.run_id, ctx.work / "trace")
    tracer.install()
    try:
        records, fixtures = _stream_run(ctx, "traced")
        fixtures[-1].close()
    finally:
        tracer.uninstall()
    summary = _check(records, outcome)
    spans = tracer.records()
    metrics = tracing.per_layer_metrics(tracer, spans)
    stats = [f.cache.stats() for f in fixtures]
    hits = sum(s["hits"] for s in stats)
    misses = sum(s["misses"] for s in stats)
    answered = [(r, r["answer"]) for r in records if r.get("answer") is not None
                and r["answer"].answered]
    waits = [1e3 * (r["done"] - r["due"] - a.elapsed) for r, a in answered]
    metrics.update(
        {
            "perf.cache_hits": hits,
            "perf.cache_misses": misses,
            "perf.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "perf.store_hits": sum(s["store"]["hits"] for s in stats),
            "perf.store_writes": sum(s["store"]["writes"] for s in stats),
            "perf.store_bytes": fixtures[-1].store.disk_stats()["bytes"],
            "service.queue_wait_p99_ms": harness.quantile(waits, 0.99) if waits else 0.0,
            "service.exec_p50_ms": (
                1e3 * harness.median([a.elapsed for _, a in answered]) if answered else 0.0
            ),
            "service.shed": summary["shed"],
            "service.exact": summary["exact"],
            "service.degraded": summary["degraded"],
            "serve.generator_lag_p99_ms": summary["lag_p99_ms"],
            "trace.overhead_frac": summary["p50"] / reference["p50"] - 1.0,
        }
    )
    outcome.metrics.update(metrics)
    outcome.notes.update(
        untraced_p50_ms=round(reference["p50"], 3), traced_p50_ms=round(summary["p50"], 3)
    )
    tracing.write_records(ctx.trace_file, spans)
    return outcome
