"""figure-cli: ``python -m repro figure 4``, ``5`` and ``6`` as users run them.

Each figure is a cold process at CLI defaults (one worker subprocess)
with an empty checkpoint directory and no store, so it pays the import
and the orchestration layer's journal and manifest I/O: the only
workload that does.  The printed tables must equal the committed
``results/`` tables row for row.  The seed only shuffles the order of
the three commands.

A request, for the latency metrics, is one figure command.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import sys
import time

import harness
import tracer as tracing

IMPORT_MODULE = "repro.__main__"

FIGURES = {
    4: "figure4_exponential.txt",
    5: "figure5_coxian_longs.txt",
    6: "figure6_vs_rho_l.txt",
}
_SUMMARY = re.compile(r"\[sweep figure\d\] (\d+) points")


def probe_argv(ctx: harness.Context) -> "list[str]":
    """A separate cold ``import repro.__main__`` process."""
    return [sys.executable, "-c", "import repro.__main__, time; print(time.time())"]


def _order(seed: int) -> "list[int]":
    order = list(FIGURES)
    random.Random(seed).shuffle(order)
    return order


def _check(number: int, stdout: str, outcome: harness.Outcome) -> None:
    checked, differing = harness.compare_tables(stdout, FIGURES[number])
    for index in range(checked):
        outcome.tally(index >= differing, wrong=index < differing)


def run(ctx: harness.Context) -> harness.Outcome:
    outcome = harness.Outcome()
    if ctx.trace:
        return _traced(ctx, outcome)
    passes, commands, points, peaks = [], [], [], []
    deadline = time.perf_counter() + ctx.seconds
    while not passes or time.perf_counter() < deadline:
        index = len(passes)
        total_points = 0
        started = time.perf_counter()
        for number in _order(ctx.seed + index):
            checkpoints = ctx.work / f"pass{index}" / f"figure{number}"
            result = harness.run_process(
                [sys.executable, "-m", "repro", "figure", str(number),
                 "--checkpoint-dir", str(checkpoints)],
                ctx.work,
            )
            manifest = checkpoints / f"figure{number}.manifest.json"
            summary = _SUMMARY.search(result.stderr)
            if result.returncode != 0 or not manifest.is_file() or summary is None:
                print(f"# figure {number} failed (exit {result.returncode}): "
                      f"{result.stderr.strip()[-300:]}", file=sys.stderr)
            total_points += int(summary.group(1)) if summary else 0
            _check(number, result.stdout, outcome)
            commands.append(result.wall_s)
            peaks.append(result.peak_rss_mb)
        passes.append(time.perf_counter() - started)
        points.append(total_points / passes[-1])
    outcome.metrics.update(
        wall_s=harness.median(passes),
        points_per_s=harness.median(points),
        latency_p50_ms=1e3 * harness.median(commands),
        max_qps=len(commands) / sum(passes),
        peak_rss_mb=max(peaks),
    )
    outcome.notes.update(
        passes=len(passes),
        command_samples=len(commands),
        slowest_command_ms=round(1e3 * max(commands), 3),
    )
    return outcome


def _in_process(ctx: harness.Context, label: str, outcome: harness.Outcome) -> dict:
    """Run the CLI's ``main()`` in this process for every figure."""
    from repro import __main__ as cli

    sizes = {"journal.jsonl": 0, "manifest.json": 0}
    started = time.perf_counter()
    for number in _order(ctx.seed):
        checkpoints = ctx.work / label / f"figure{number}"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["figure", str(number), "--checkpoint-dir", str(checkpoints)])
        if code != 0:
            print(f"# figure {number} exited {code}: {stderr.getvalue()[-300:]}",
                  file=sys.stderr)
        _check(number, stdout.getvalue(), outcome)
        for suffix in sizes:
            path = checkpoints / f"figure{number}.{suffix}"
            sizes[suffix] += path.stat().st_size if path.is_file() else 0
    return {"wall_s": time.perf_counter() - started, **sizes}


def _traced(ctx: harness.Context, outcome: harness.Outcome) -> harness.Outcome:
    reference = _in_process(ctx, "untraced", outcome)
    tracer = tracing.Tracer(ctx.run_id, ctx.work / "trace")
    tracer.install()
    try:
        traced = _in_process(ctx, "traced", outcome)
    finally:
        tracer.uninstall()
    records = tracer.records() + tracer.merge_children()
    metrics = tracing.per_layer_metrics(tracer, records)
    metrics.update(
        {
            "orchestration.journal_bytes": traced["journal.jsonl"],
            "orchestration.manifest_bytes": traced["manifest.json"],
            "trace.overhead_frac": traced["wall_s"] / reference["wall_s"] - 1.0,
        }
    )
    outcome.metrics.update(metrics)
    outcome.notes.update(
        untraced_wall_s=reference["wall_s"], traced_wall_s=traced["wall_s"]
    )
    tracing.write_records(ctx.trace_file, records)
    return outcome
