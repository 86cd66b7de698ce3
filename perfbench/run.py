"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run reports every end-to-end metric; with
``--trace 1`` it runs the workload once untraced and once under the
outside-in layer tracer and reports every per-layer metric (see
``perfbench/README.md``).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``python3 perfbench/run.py --write-benchmark-json`` regenerates
``BENCHMARK.json`` from ``perfbench/spec.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import signal
import sys
import time

import harness

# Before anything imports numpy: BLAS threads pinned, REPRO_* knobs gone.
harness.pin_environment()

import spec  # noqa: E402

MODULES = {
    "figure-cli": "figure_cli",
    "sweep-grid": "sweep_grid",
    "oracle-boundary": "oracle_boundary",
    "serve-open": "serve_open",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-benchmark-json", action="store_true",
        help="write BENCHMARK.json from perfbench/spec.py and exit",
    )
    args = parser.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still removes its work directory and stops its workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.write_benchmark_json:
        text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
        (harness.ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {harness.SRC}", file=sys.stderr)
        return 2

    record = harness.environment_record(args)
    print("# environment " + json.dumps(record, sort_keys=True), flush=True)
    module = importlib.import_module(MODULES[args.workload])
    work = harness.WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = harness.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        work=work,
        run_id=f"{args.workload}-seed{args.seed}-{int(time.time())}",
        trace_file=harness.OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.jsonl",
    )
    try:
        if ctx.trace:
            outcome = module.run(ctx)
            outcome.metrics.update(harness.import_breakdown(module.IMPORT_MODULE, work))
            expected = spec.PER_LAYER
            for name, *_ in expected:
                outcome.metrics.setdefault(name, 0)
        else:
            probe = getattr(module, "probe_argv", harness.setup_probe_argv)
            setup = harness.setup_probes(probe(ctx), work)
            outcome = module.run(ctx)
            outcome.metrics["setup_s"] = harness.median(setup)
            outcome.notes["setup_samples_s"] = [round(s, 4) for s in setup]
            expected = spec.END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass

    names = [name for name, *_ in expected]
    missing = [name for name in names if name not in outcome.metrics]
    extra = [name for name in outcome.metrics if name not in names]
    bad = [n for n in names if n in outcome.metrics and not math.isfinite(outcome.metrics[n])]
    if missing or extra or bad:
        print(f"error: metrics missing {missing}, unexpected {extra}, "
              f"not finite {bad}", file=sys.stderr)
        return 1

    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    for key, value in outcome.notes.items():
        print(f"# {key} = {value}")
    print(f"# failed_frac = {failed_frac:.6g} ({outcome.failed}/{outcome.attempted})")
    for name in names:
        print(f"{name} = {outcome.metrics[name]:.6g} {spec.UNITS[name]}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": spec.UNITS[name]}
            for name in names
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    harness.adopt_orphans()
    try:
        code = main()
    finally:
        harness.reap_children()
    sys.exit(code)
