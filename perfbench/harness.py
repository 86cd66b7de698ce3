"""Shared plumbing for the benchmark workloads: paths, processes, statistics.

Every helper here is independent of ``repro``; importing this module
imports neither numpy nor the program, so ``run.py`` can pin the BLAS
thread count before anything numeric loads.
"""

from __future__ import annotations

import ctypes
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for one run (checkpoint dirs, stores); deleted at exit.
WORK_ROOT = ROOT / ".perfbench-work"
#: Kept outputs: span traces of ``--trace 1`` runs.
OUT_ROOT = ROOT / ".perfbench-out"

#: Thread pins every benchmark process gets before numpy loads.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_environment() -> None:
    """Pin BLAS threads, drop every ``REPRO_*`` knob, put ``src`` on the path."""
    os.environ.update(THREAD_PINS)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Context:
    """What a workload needs to run: its arguments and a private work dir."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    run_id: str
    #: Where a ``--trace 1`` run writes its spans.
    trace_file: Path


@dataclass
class Outcome:
    """What a workload returns: metrics plus the operation tally."""

    metrics: "dict[str, float]" = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: False when an output was wrong (not merely a failed operation).
    correct: bool = True
    #: Extra ``key = value`` lines printed before the result.
    notes: "dict[str, object]" = field(default_factory=dict)

    def tally(self, ok: bool, wrong: bool = False) -> None:
        """Count one operation; ``wrong`` marks an incorrect output."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        if wrong:
            self.correct = False


def quantile(values: "list[float]", q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def median(values: "list[float]") -> float:
    return float(statistics.median(values))


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process so far (MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class ProcessResult:
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def run_process(argv: "list[str]", cwd: Path, timeout: float = 170.0) -> ProcessResult:
    """Run a cold child process to completion and time it from launch.

    Output goes through files, not pipes, so a chatty child cannot block.
    ``os.wait4`` gives the child's own peak RSS (including any children
    it waited for).
    """
    cwd.mkdir(parents=True, exist_ok=True)
    out_path = cwd / f".stdout-{time.monotonic_ns()}"
    err_path = cwd / f".stderr-{time.monotonic_ns()}"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        started = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        deadline = started + timeout
        try:
            while True:
                pid, status, usage = os.wait4(child.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    child.kill()
                    pid, status, usage = os.wait4(child.pid, 0)
                    break
                time.sleep(0.002)
        except BaseException:
            child.kill()
            os.wait4(child.pid, 0)
            raise
        wall = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_text(), err_path.read_text()
    out_path.unlink()
    err_path.unlink()
    return ProcessResult(wall, child.returncode, stdout, stderr, usage.ru_maxrss / 1024.0)


#: ``prctl`` option making a process the reaper of its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants (Linux).

    A grandchild whose parent exits first (a worker of a figure process,
    a multiprocessing helper) is then re-parented to this process rather
    than to init, so ``reap_children`` can wait for it.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> "list[int]":
    """Pids whose parent is this process, from ``/proc/<pid>/stat``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap_children(grace: float = 5.0) -> None:
    """Wait until no child of this process is left, adopted orphans included.

    Children still running after ``grace`` seconds are killed, then
    waited for, so the benchmark never exits with a process behind it.
    """
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.01)


def setup_probe_argv(ctx: Context) -> "list[str]":
    """The cold set-up process for workloads that define ``setup(seed)``."""
    return [sys.executable, str(BENCH_DIR / "setup_probe.py"), ctx.workload, str(ctx.seed)]


def setup_probes(argv: "list[str]", cwd: Path, count: int = 3) -> "list[float]":
    """Seconds from launching ``argv`` until it prints its ready timestamp.

    The probe prints ``time.time()`` as its last stdout line once set up;
    launch time is taken on the same clock just before ``Popen``.
    """
    samples = []
    for _ in range(count):
        launched = time.time()
        result = run_process(argv, cwd)
        if result.returncode != 0:
            raise RuntimeError(f"setup probe failed: {result.stderr.strip()[-400:]}")
        ready = float(result.stdout.strip().splitlines()[-1])
        samples.append(ready - launched)
    return samples


def import_breakdown(module: str, cwd: Path, count: int = 3) -> "dict[str, float]":
    """``import.*`` metrics from ``python -X importtime`` in cold processes.

    Each value is the median over ``count`` processes of the cumulative
    import time of ``module`` (``import.total_s``), ``repro.simulation``,
    ``repro.core`` and ``scipy.stats``, wherever they were first imported.
    """
    wanted = {
        "import.total_s": module,
        "import.simulation_s": "repro.simulation",
        "import.core_s": "repro.core",
        "import.scipy_stats_s": "scipy.stats",
    }
    samples: "dict[str, list[float]]" = {key: [] for key in wanted}
    for _ in range(count):
        result = run_process(
            [sys.executable, "-X", "importtime", "-c", f"import {module}"], cwd
        )
        if result.returncode != 0:
            raise RuntimeError(f"import of {module} failed: {result.stderr[-400:]}")
        entries = []  # (nesting depth, module, cumulative seconds)
        for line in result.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line[len("import time:"):].split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            depth = len(name) - len(name.lstrip())
            entries.append((depth, name.strip(), int(parts[1]) / 1e6))
        for key, name in wanted.items():
            samples[key].append(_cumulative(entries, name))
    return {key: median(values) for key, values in samples.items()}


def _cumulative(entries, module: str) -> float:
    """Cumulative import seconds of ``module``.

    A package imported lazily through a parent's ``__getattr__`` (as
    ``scipy.stats`` is) has no line of its own; its cost is then the sum
    of its shallowest submodule lines.
    """
    for _, name, seconds in entries:
        if name == module:
            return seconds
    inside = [(d, s) for d, name, s in entries if name.startswith(module + ".")]
    if not inside:
        return 0.0
    top = min(d for d, _ in inside)
    return sum(s for d, s in inside if d == top)


def environment_record(args) -> dict:
    """Run hygiene: machine, versions, commit, seed and thread pins."""
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "threads": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def panel_tables(text: str) -> "dict[str, list[str]]":
    """Table rows of every panel in a figure listing, keyed by panel title.

    Titles are the ``== ... ==`` lines; rows are the non-indented lines
    under them (header, rule and one line per x value).  ASCII charts are
    indented and ignored, so a committed file with charts compares equal
    to plain CLI output with the same tables.
    """
    tables: "dict[str, list[str]]" = {}
    rows = None
    for line in text.splitlines():
        if line.startswith("== "):
            rows = tables.setdefault(line.rstrip(), [])
        elif rows is not None and line and not line.startswith(" "):
            rows.append(line.rstrip())
    return tables


def compare_tables(printed: str, committed_file: str) -> "tuple[int, int]":
    """(data rows checked, rows that differ or are missing) against ``results/``."""
    expected = panel_tables((ROOT / "results" / committed_file).read_text())
    actual = panel_tables(printed)
    checked = differing = 0
    for title, rows in expected.items():
        got = actual.get(title, [])
        for index, row in enumerate(rows):
            if not row[:1].isdigit():
                continue  # header and rule lines
            checked += 1
            if index >= len(got) or got[index] != row:
                differing += 1
    return checked, differing
