"""Cold set-up probe: ``python3 perfbench/setup_probe.py WORKLOAD SEED``.

Builds what the workload needs before its first unit of work (imports,
services, worker pools), prints ``time.time()`` at that instant, then
tears the fixture down.  ``run.py`` times several of these processes
from launch to that line and reports the median as ``setup_s``.
"""

import sys
import time

import harness

harness.pin_environment()

import run  # noqa: E402

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    module = __import__(run.MODULES[workload])
    fixture = module.setup(seed)
    print(time.time(), flush=True)
    close = getattr(fixture, "close", None)
    if close is not None:
        close()
