"""Run process: the timed runs of one workload, in a fresh interpreter.

Run as ``python3 perfbench/runner.py`` with one JSON request on standard
input: ``name``, ``seed``, ``seconds``, ``trace`` and the workload's
``spec``.  It prints the result of
:func:`perfbench.measure.collect_runs` as one JSON line.  The spec
travels with the request, so the runs use the caller's definition of
the workload, a shortened one included.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    request = json.load(sys.stdin)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.measure import collect_runs
    from perfbench.workloads import WORKLOADS

    name = request["name"]
    WORKLOADS[name].spec = request["spec"]
    print(json.dumps(collect_runs(name, request["seed"], request["seconds"],
                                  request["trace"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
