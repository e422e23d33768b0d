"""Set-up probe: one fresh interpreter, timed to a workload's first arrival.

Run as ``python3 perfbench/probe.py <workload> <seed>``.  It imports the
load engine, builds and settles the workload's fleet through
``run_loadtest``, and stops at the first injected arrival.  It prints
one JSON line of ``time.monotonic()`` marks (a clock shared by every
process of the machine): ``imported`` once the engine is imported and
``first_arrival`` when the first request is due.  For a grid workload
the fleet is that of its first rate.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class FirstArrival(Exception):
    """Raised from inside the run once the first request arrives."""


def main(argv):
    name, seed = argv[0], int(argv[1])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.load.engine import run_loadtest
    from repro.load.slo import LatencyAccountant
    imported = time.monotonic()

    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS[name]

    def arrive(accountant, intended):
        raise FirstArrival(time.monotonic())

    LatencyAccountant.arrive = arrive
    try:
        run_loadtest(workload.spec_for(seed, workload.rates[0]))
    except FirstArrival as reached:
        first_arrival = reached.args[0]
    else:
        raise SystemExit("the run offered no request")
    print(json.dumps({"imported": imported, "first_arrival": first_arrival}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
