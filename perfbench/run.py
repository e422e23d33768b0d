"""The repository's benchmark: open-loop load, timed end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Workloads: ``paxos-steady``, ``pbft-audited``, ``shards-2pc`` and
``raft-knee`` (see ``perfbench/workloads.py`` for why each exists).
The seed (default 0) generates every input; the program receives only
those generated inputs.  A claimed gain must also hold on a seed other
than the default.

With ``--trace 0`` the run reports the end-to-end metrics (medians over
untraced runs repeated for ``--seconds``); with ``--trace 1`` it adds
traced runs and reports the per-layer metrics instead.  Every run's
outputs are checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every check passed, 1 when one failed, and 2
when the program to measure is not there.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("paxos-steady", "pbft-audited", "shards-2pc", "raft-knee")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0,
                        help="how long the untraced runs are repeated")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: the program's sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.measure import END_TO_END, PER_LAYER, measure

    table = PER_LAYER if args.trace else END_TO_END
    better = {name: direction for name, _unit, direction in table}
    print("machine: nproc %d, python %s (%s)" % (
        os.cpu_count() or 1, platform.python_version(),
        platform.python_implementation()))
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, args.trace)
        results[name] = result
        print("%s  seed %d  %d runs + %d traced  digest %s" % (
            name, args.seed, result["runs"], result["traced_runs"],
            result["digest"][:16]))
        print("  vt quantiles at %g req/vt over %d completed requests, "
              "%d beyond p99" % result["vt_samples"])
        for metric, entry in result["metrics"].items():
            print("  %-30s %14.6g %-12s (%s is better)" % (
                metric, entry["value"], entry["unit"], better[metric]))
        for entry, calls in sorted(result["entry_calls"].items()):
            print("  span %-40s %12d calls" % (entry, calls))
        print("  requests attempted %d, failed %d" % (
            result["attempted"], result["failed"]))
        for problem in result["problems"]:
            print("  CHECK FAILED: %s" % problem)
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {"%s.%s" % (name, metric): entry
                   for name, result in results.items()
                   for metric, entry in result["metrics"].items()}
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
