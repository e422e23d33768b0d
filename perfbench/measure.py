"""Runs, checks and metrics of one benchmark invocation.

One invocation measures one workload at one seed:

1. Set-up probes: fresh interpreters (``probe.py``) timed from spawn to
   the first injected arrival; the first warms the bytecode cache and is
   discarded, the median of the rest is ``setup_s``.
2. Untraced runs, repeated until the time budget is spent, in turn at
   :data:`SUBSEEDS` seeds derived from the invocation's (at least one
   run at each).  ``run_s_per_kreq`` is the median run time per 1000
   completed requests (the arrival count varies by a few percent from
   seed to seed; the cost per request varies less).  The virtual-time
   metrics pool the requests of the first run at each derived seed:
   a 2PC tail's p99 from one run's 1200 transactions varies by a
   quarter from seed to seed, and pooling triples the samples at no
   cost in time.
3. With tracing on, :data:`TRACED_RUNS` further runs at the first
   derived seed, under :class:`~perfbench.layers.LayerTracer`, give the
   per-layer metrics.

Steps 2 and 3 run in a fresh interpreter of their own (``runner.py``),
so ``peak_rss_mb`` is the peak of those runs and of the workers they
fork, and of nothing else: not the set-up probes, not the yardsticks'
interpreters, not an earlier workload of the same invocation.

Every run is checked (:func:`run_problems`), and every run at one
derived seed must produce the same virtual-time digest.

The end-to-end times are given in seconds of a reference host.  The
host's speed drifts by a quarter within minutes, so every timed run
lies between two timings of a yardstick that no change to the program
can move, and is scaled by the yardstick's time on the reference host
over the mean of the two.  A run's yardstick is :func:`yardstick`,
compute-bound Python like the simulator's; a set-up probe's is
:func:`reference_import`, a fresh interpreter importing standard-library
modules, because set-up is mostly imports, which the compute-bound
yardstick tracks poorly.  The raw medians are reported too
(``bench.run_s``, ``startup.*``).
"""

import bisect
import gc
import hashlib
import heapq
import json
import math
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from repro.load.engine import run_loadtest
from repro.parallel.runner import ParallelRunner

from perfbench.layers import GROWTH_LAYERS, LayerTracer, SampleRecorder
from perfbench.workloads import GOODPUT_FLOOR, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "probe.py"
RUNNER = Path(__file__).resolve().parent / "runner.py"

SUBSEEDS = 3
MIN_RUNS = SUBSEEDS
TRACED_RUNS = 2
PROBES = 7

# The reference host is a 2-vCPU Intel Xeon virtual machine under
# CPython 3.11.7.  Each reference time below is the median over five
# rounds, spread over ten minutes, of the median of 41 yardsticks (21
# imports) in a round; the rounds' medians ranged over 0.068-0.129 s
# (yardstick) and 0.105-0.162 s (imports), which is why every timing is
# scaled by a yardstick taken next to it.

#: The yardstick's time on the reference host (seconds).
REFERENCE_YARDSTICK_S = 0.078

#: What :func:`reference_import` runs, and its time on the reference host
#: (seconds).
REFERENCE_IMPORT = ("import argparse, asyncio, decimal, email.parser, "
                    "http.client, json, logging, unittest, xml.dom.minidom, "
                    "urllib.request")
REFERENCE_IMPORT_S = 0.121

#: (name, unit, better) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s_per_kreq", "s/kreq", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("vt_p50", "vt", "lower"),
    ("vt_p99", "vt", "lower"),
    ("served_ratio", "ratio", "higher"),
    ("knee_rate", "req/vt", "higher"),
)

#: (name, unit, better) of every per-layer metric of a traced run.
PER_LAYER = (
    ("protocols.self_us_per_req", "us/req", "lower"),
    ("protocols.calls_per_req", "calls/req", "lower"),
    ("protocols.late_over_early", "ratio", "lower"),
    ("protocols.redirects_per_req", "msgs/req", "lower"),
    ("crypto.self_us_per_req", "us/req", "lower"),
    ("crypto.calls_per_req", "calls/req", "lower"),
    ("crypto.hashed_bytes_per_req", "B/req", "lower"),
    ("crypto.late_over_early", "ratio", "lower"),
    ("trace.self_us_per_req", "us/req", "lower"),
    ("trace.calls_per_req", "calls/req", "lower"),
    ("monitor.self_us_per_req", "us/req", "lower"),
    ("monitor.calls_per_req", "calls/req", "lower"),
    ("net.msgs_per_req", "msgs/req", "lower"),
    ("net.bytes_per_req", "B/req", "lower"),
    ("net.self_us_per_req", "us/req", "lower"),
    ("net.ingress_depth_mean", "msgs", "lower"),
    ("net.ingress_depth_max", "msgs", "lower"),
    ("sim.events_per_req", "events/req", "lower"),
    ("sim.self_us_per_req", "us/req", "lower"),
    ("smr.applies_per_req", "applies/req", "lower"),
    ("smr.self_us_per_req", "us/req", "lower"),
    ("shard.attempts_per_txn", "attempts/txn", "lower"),
    ("shard.commit_ratio", "ratio", "higher"),
    ("shard.self_us_per_req", "us/req", "lower"),
    ("telemetry.self_us_per_req", "us/req", "lower"),
    ("load.self_us_per_req", "us/req", "lower"),
    ("load.resends_per_req", "msgs/req", "lower"),
    ("load.lateness_vt_max", "vt", "lower"),
    ("parallel.busy_ratio", "ratio", "higher"),
    ("startup.import_s", "s", "lower"),
    ("startup.build_s", "s", "lower"),
    ("bench.run_s", "s", "lower"),
    ("bench.trace_overhead_x", "x", "lower"),
)

#: Layers whose self time is reported per request.
SELF_TIME_LAYERS = ("protocols", "crypto", "trace", "monitor", "net", "sim",
                    "smr", "shard", "telemetry", "load")


def exact_quantile(ordered, q):
    """Nearest-rank ``q``-quantile of an ascending, non-empty list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def derived_seed(seed, index):
    """The seed of an invocation's ``index``-th run."""
    return seed * SUBSEEDS + index % SUBSEEDS


def latency_summary(latencies):
    """Exact order statistics of one point's request latencies: sample
    count, p50, p99, maximum and the samples beyond p99 (``None`` when
    nothing completed)."""
    if not latencies:
        return None
    ordered = sorted(latencies)
    p99 = exact_quantile(ordered, 0.99)
    return {"count": len(ordered), "p50": exact_quantile(ordered, 0.50),
            "p99": p99, "max": ordered[-1],
            "beyond_p99": len(ordered) - bisect.bisect_right(ordered, p99)}


# -- one run -------------------------------------------------------------------

def yardstick():
    """Time fixed pure-Python work that the host's current speed is read
    from: heap, dict and random draws like the simulator's own, but none
    of the program's code, so no change to the program can move it."""
    started = time.perf_counter()
    rng = random.Random(1)
    heap, table, total = [], {}, 0
    for step in range(60_000):
        key = rng.randrange(5_000)
        table[key] = table.get(key, 0) + step
        heapq.heappush(heap, (rng.random(), step, key))
        if len(heap) > 500:
            total += table[heapq.heappop(heap)[2]]
    return time.perf_counter() - started


def reference_import():
    """Time a fresh, isolated interpreter importing
    :data:`REFERENCE_IMPORT`."""
    started = time.monotonic()
    subprocess.run([sys.executable, "-I", "-c", REFERENCE_IMPORT],
                   capture_output=True, timeout=120, check=True)
    return time.monotonic() - started


def at_reference_speed(seconds, yardstick_s,
                       reference_s=REFERENCE_YARDSTICK_S):
    """``seconds`` measured between yardsticks that took ``yardstick_s``
    on average, scaled to the host where they take ``reference_s``."""
    return seconds * reference_s / yardstick_s


def run_point(item):
    """One ``run_loadtest`` at one rate; returns a plain, picklable dict.

    Top level so the knee sweep's forked workers can run it.  A traced
    point installs its own :class:`LayerTracer`, so spans stay in the
    process that ran them and come back as totals.
    """
    name, seed, rate, traced = item
    spec = WORKLOADS[name].spec_for(seed, rate)
    started = time.perf_counter()
    tracer = LayerTracer() if traced else None
    with SampleRecorder() as recorder:
        if tracer is None:
            report = run_loadtest(spec)
        else:
            with tracer:
                report = run_loadtest(spec)
    finished = time.perf_counter()
    accounting = report["accounting"]
    txns = recorder.transactions
    point = {
        "rate": rate,
        "offered": accounting["offered"],
        "completed": accounting["completed"],
        "abandoned": accounting["abandoned"],
        "recorded": [recorder.offered, len(recorder.latencies),
                     recorder.abandoned],
        "transactions": len(txns),
        "committed": sum(1 for txn in txns if txn.outcome == "committed"),
        "aborted": sum(1 for txn in txns if txn.outcome == "aborted"),
        "attempts": sum(txn.attempts for txn in txns),
        "lateness_max": recorder.lateness_max,
        "messages": report["messages"],
        "consistent": report.get("consistent", True),
        "anomalies": report.get("monitors", {}).get("anomalies", 0),
        "latencies": recorder.latencies,
        "quantiles": latency_summary(recorder.latencies),
        "run_s": finished - (recorder.first_arrival or started),
        "wall_s": finished - started,
    }
    if tracer is not None:
        point["layers"] = {
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "layer_calls": dict(tracer.layer_calls),
            "hashed_bytes": tracer.hashed_bytes,
            "bytes": tracer.bytes_sent(),
            "depth_sum": tracer.depth_sum,
            "depth_samples": tracer.depth_samples,
            "depth_max": tracer.depth_max,
            "redirects": tracer.redirects,
            "load_sends": tracer.sends_by_layer.get("load", 0),
            "late_over_early": {layer: tracer.late_over_early(layer)
                                for layer in GROWTH_LAYERS},
        }
    return point


def run_workload(name, seed, traced=False):
    """One run of a workload: every grid point, and the run's timings.

    ``run_s`` runs from the first injected arrival until the report
    returns; for a fanned-out grid it is the whole fan-out."""
    workload = WORKLOADS[name]
    items = [(name, seed, rate, traced) for rate in workload.rates]
    if not workload.fan_out:
        point = run_point(items[0])
        return {"seed": seed, "points": [point], "run_s": point["run_s"],
                "workers": 0, "fan_out_s": 0.0}
    workers = workload.workers()
    started = time.perf_counter()
    # Highest rate first: the most loaded points take longest, so
    # starting them first keeps the fan-out's tail short.
    points = ParallelRunner(workers).map(run_point, items[::-1])[::-1]
    fan_out_s = time.perf_counter() - started
    return {"seed": seed, "points": points, "run_s": fan_out_s,
            "workers": workers, "fan_out_s": fan_out_s}


# -- checks --------------------------------------------------------------------

def point_failures(point):
    """Requests of one point that count as failed: abandoned ones,
    aborted transactions, and every request of an inconsistent run."""
    if not point["consistent"]:
        return point["offered"]
    return point["abandoned"] + point["aborted"]


def run_problems(name, run):
    """Every correctness check one run violates, as readable strings."""
    problems = []
    workload = WORKLOADS[name]
    for point in run["points"]:
        where = "%s @ %g" % (name, point["rate"])
        if point["offered"] != point["completed"] + point["abandoned"]:
            problems.append("%s: offered %d != completed %d + abandoned %d"
                            % (where, point["offered"], point["completed"],
                               point["abandoned"]))
        if point["recorded"] != [point["offered"], point["completed"],
                                 point["abandoned"]]:
            problems.append("%s: accountant counts %r disagree with the "
                            "recorded requests %r" % (
                                where, [point["offered"], point["completed"],
                                        point["abandoned"]],
                                point["recorded"]))
        if not point["consistent"]:
            problems.append("%s: check_consistency() failed" % where)
        if point["anomalies"]:
            problems.append("%s: %d monitor anomalies"
                            % (where, point["anomalies"]))
        if point["lateness_max"] != 0:
            problems.append("%s: generator ran %r vt late"
                            % (where, point["lateness_max"]))
        quantiles = point["quantiles"]
        if quantiles is None:
            problems.append("%s: no request completed" % where)
            continue
        if not quantiles["p50"] <= quantiles["p99"] <= quantiles["max"]:
            problems.append("%s: quantiles out of order: p50 %r p99 %r max %r"
                            % (where, quantiles["p50"], quantiles["p99"],
                               quantiles["max"]))
        if point["rate"] == workload.vt_rate \
                and quantiles["beyond_p99"] < 10:
            problems.append("%s: only %d samples beyond p99"
                            % (where, quantiles["beyond_p99"]))
    return problems


def vt_digest(run):
    """Digest of everything a run computes in virtual time."""
    return _digest([[point["rate"], point["offered"], point["completed"],
                     point["abandoned"], point["aborted"], point["attempts"],
                     point["messages"], point["quantiles"]]
                    for point in run["points"]])


def layer_digest(run):
    """Digest of a traced run's per-entry-point call counts."""
    return _digest([sorted(point["layers"]["calls"].items())
                    for point in run["points"]])


def _digest(rows):
    text = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_problems(runs, traced):
    """Runs of one workload at one seed must agree in virtual time, and
    traced runs also in every layer's call counts."""
    problems = []
    digests = {}
    for run in runs + traced:
        digests.setdefault(run["seed"], set()).add(vt_digest(run))
    if any(len(found) > 1 for found in digests.values()):
        problems.append("virtual-time digest differs between runs")
    if len({layer_digest(run) for run in traced}) > 1:
        problems.append("layer call counts differ between traced runs")
    return problems


# -- set-up probes -------------------------------------------------------------

def probe_setup(name, seed, count=PROBES):
    """Time ``count`` fresh interpreters from spawn to the first arrival
    (after one discarded warm-up); returns their timings."""
    timings = []
    references = [reference_import()]
    for index in range(count + 1):
        spawned = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(PROBE), name, str(seed)], cwd=str(ROOT),
            capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + done.stderr)
        references.append(reference_import())
        marks = json.loads(done.stdout.strip().splitlines()[-1])
        if index:
            timings.append({
                "setup_s": marks["first_arrival"] - spawned,
                "import_s": marks["imported"] - spawned,
                "build_s": marks["first_arrival"] - marks["imported"],
                "reference_s": (references[-2] + references[-1]) / 2,
            })
    return timings


# -- metrics -------------------------------------------------------------------

def knee_rate(points, limit):
    """The highest grid rate whose exact p99 meets ``limit`` with at
    least :data:`GOODPUT_FLOOR` of its offered requests complete.  When
    the next grid rate misses the limit on p99 alone, the rate where p99
    crosses the limit is interpolated linearly between the two: where
    p99 at the first saturated rate sits near the limit, the bare grid
    rate would jump a whole grid step from seed to seed."""
    rows = []
    for point in sorted(points, key=lambda point: point["rate"]):
        quantiles = point["quantiles"]
        p99 = quantiles["p99"] if quantiles else math.inf
        served = point["completed"] - point["aborted"]
        rows.append((point["rate"], p99,
                     served >= GOODPUT_FLOOR * max(1, point["offered"])))
    knee = 0.0
    for index, (rate, p99, served) in enumerate(rows):
        if p99 <= limit and served:
            knee = rate
            if index + 1 < len(rows):
                next_rate, next_p99, next_served = rows[index + 1]
                if next_served and next_p99 > limit:
                    knee = rate + (next_rate - rate) * (limit - p99) \
                        / (next_p99 - p99)
    return knee


def reference_point(name, points):
    """The point that the latency quantiles are read at."""
    rate = WORKLOADS[name].vt_rate
    return next(point for point in points if point["rate"] == rate)


def pooled_points(runs):
    """The points of the first run at each derived seed, merged rate by
    rate: request counts summed, latencies pooled."""
    merged = {}
    for run in runs[:SUBSEEDS]:
        for point in run["points"]:
            into = merged.setdefault(point["rate"], {
                "rate": point["rate"], "offered": 0, "completed": 0,
                "aborted": 0, "latencies": []})
            for key in ("offered", "completed", "aborted"):
                into[key] += point[key]
            into["latencies"].extend(point["latencies"])
    for point in merged.values():
        point["quantiles"] = latency_summary(point.pop("latencies"))
    return [merged[rate] for rate in sorted(merged)]


def vt_samples(name, runs):
    """(rate, completed requests, requests beyond p99) behind the
    pooled latency quantiles."""
    point = reference_point(name, pooled_points(runs))
    quantiles = point["quantiles"]
    return point["rate"], quantiles["count"], quantiles["beyond_p99"]


def end_to_end(name, runs, setups, peak_rss_kb):
    workload = WORKLOADS[name]
    pooled = pooled_points(runs)
    quantiles = reference_point(name, pooled)["quantiles"]
    offered = sum(point["offered"] for point in pooled)
    failed = sum(point_failures(point) for run in runs[:SUBSEEDS]
                 for point in run["points"])
    return {
        "setup_s": median([
            at_reference_speed(timing["setup_s"], timing["reference_s"],
                               REFERENCE_IMPORT_S)
            for timing in setups]),
        "run_s_per_kreq": median([
            at_reference_speed(run["run_s"], run["yardstick_s"]) * 1000.0
            / max(1, sum(point["completed"] for point in run["points"]))
            for run in runs]),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "vt_p50": quantiles["p50"],
        "vt_p99": quantiles["p99"],
        "served_ratio": (offered - failed) / offered if offered else 0.0,
        "knee_rate": knee_rate(pooled, workload.limit),
    }


def per_layer(name, runs, traced, setups):
    workload = WORKLOADS[name]
    points = traced[0]["points"]
    layers = [point["layers"] for point in points]
    completed = sum(point["completed"] for point in points) or 1
    offered = sum(point["offered"] for point in points)

    def total(key):
        return sum(layer[key] for layer in layers)

    def layer_calls(layer):
        return sum(entry["layer_calls"].get(layer, 0) for entry in layers)

    def calls(key):
        return sum(entry["calls"].get(key, 0) for entry in layers)

    def self_us(layer):
        # Median over the traced runs of the layer's summed self time.
        per_run = [sum(point["layers"]["self_s"].get(layer, 0.0)
                       for point in run["points"]) for run in traced]
        return median(per_run) * 1e6 / completed

    reference = reference_point(name, points)["layers"]
    txns = sum(point["transactions"] for point in points)
    load_sends = total("load_sends")
    depth_samples = total("depth_samples")
    metrics = {
        "protocols.calls_per_req": layer_calls("protocols") / completed,
        "protocols.late_over_early":
            reference["late_over_early"]["protocols"],
        "protocols.redirects_per_req": total("redirects") / completed,
        "crypto.calls_per_req": calls("sha256_hex") / completed,
        "crypto.hashed_bytes_per_req": total("hashed_bytes") / completed,
        "crypto.late_over_early": reference["late_over_early"]["crypto"],
        "trace.calls_per_req": layer_calls("trace") / completed,
        "monitor.calls_per_req": layer_calls("monitor") / completed,
        "net.msgs_per_req":
            sum(point["messages"] for point in points) / completed,
        "net.bytes_per_req": total("bytes") / completed,
        "net.ingress_depth_mean":
            total("depth_sum") / depth_samples if depth_samples else 0.0,
        "net.ingress_depth_max": max(layer["depth_max"] for layer in layers),
        "sim.events_per_req": calls("event") / completed,
        "smr.applies_per_req": layer_calls("smr") / completed,
        "shard.attempts_per_txn":
            sum(point["attempts"] for point in points) / txns if txns else 0.0,
        "shard.commit_ratio":
            sum(point["committed"] for point in points) / txns
            if txns else 0.0,
        "load.resends_per_req":
            max(0, load_sends - offered) / completed if load_sends else 0.0,
        "load.lateness_vt_max": max(point["lateness_max"]
                                    for run in runs + traced
                                    for point in run["points"]),
        "parallel.busy_ratio": median([
            sum(point["wall_s"] for point in run["points"])
            / (run["workers"] * run["fan_out_s"])
            for run in runs]) if workload.fan_out else 0.0,
        "startup.import_s": median([timing["import_s"] for timing in setups]),
        "startup.build_s": median([timing["build_s"] for timing in setups]),
        "bench.run_s": median([run["run_s"] for run in runs]),
        "bench.trace_overhead_x":
            median([at_reference_speed(run["run_s"], run["yardstick_s"])
                    for run in traced])
            / median([at_reference_speed(run["run_s"], run["yardstick_s"])
                      for run in runs if run["seed"] == traced[0]["seed"]]),
    }
    for layer in SELF_TIME_LAYERS:
        metrics["%s.self_us_per_req" % layer] = self_us(layer)
    return metrics


# -- one invocation ------------------------------------------------------------

def collect_runs(name, seed, seconds, trace):
    """The untraced and traced runs of one invocation, and the peak RSS
    (KiB) of this process and of the workers it forked."""
    yardsticks = [yardstick()]

    def timed_run(index, traced=False):
        gc.collect()
        run = run_workload(name, derived_seed(seed, index), traced)
        yardsticks.append(yardstick())
        run["yardstick_s"] = (yardsticks[-2] + yardsticks[-1]) / 2
        if traced or index >= SUBSEEDS:
            # Only the first run at each derived seed is pooled; the
            # others keep the summary, so the benchmark's own memory,
            # and with it peak_rss_mb, does not grow with their number.
            for point in run["points"]:
                del point["latencies"]
        return run

    runs = []
    started = time.perf_counter()
    # Start another run only while it should end inside the budget.
    while len(runs) < MIN_RUNS or time.perf_counter() + (
            time.perf_counter() - started) / len(runs) <= started + seconds:
        runs.append(timed_run(len(runs)))
    traced = [timed_run(0, traced=True)
              for _ in range(TRACED_RUNS if trace else 0)]
    return {"runs": runs, "traced": traced, "peak_rss_kb": peak_rss_kb()}


def peak_rss_kb():
    """Peak RSS (KiB) of this process's program and of the largest child
    it has waited for.

    The process's own peak is read from ``VmHWM``: Linux carries the
    peak of the process that spawned a program over into the program's
    ``RUSAGE_SELF``, but not into ``VmHWM``."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return max(int(line.split()[1]), children)
    except OSError:
        pass
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, children)


def isolated_runs(name, seed, seconds, trace):
    """:func:`collect_runs` in a fresh interpreter (``runner.py``)."""
    request = {"name": name, "seed": seed, "seconds": seconds,
               "trace": trace, "spec": WORKLOADS[name].spec}
    done = subprocess.run(
        [sys.executable, str(RUNNER)], input=json.dumps(request),
        cwd=str(ROOT), capture_output=True, text=True,
        timeout=seconds + 600, check=False)
    if done.returncode != 0:
        raise RuntimeError("run process failed:\n" + done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(name, seed, seconds, trace, probes=PROBES):
    """Measure workload ``name`` at ``seed``; returns the result record."""
    setups = probe_setup(name, derived_seed(seed, 0), probes)
    collected = isolated_runs(name, seed, seconds, trace)
    runs, traced = collected["runs"], collected["traced"]
    problems = []
    for run in runs + traced:
        for problem in run_problems(name, run):
            if problem not in problems:
                problems.append(problem)
    problems.extend(digest_problems(runs, traced))
    attempted = sum(point["offered"] for run in runs + traced
                    for point in run["points"])
    failed = sum(point_failures(point) for run in runs + traced
                 for point in run["points"])
    if trace:
        values = per_layer(name, runs, traced, setups)
        table = PER_LAYER
    else:
        values = end_to_end(name, runs, setups, collected["peak_rss_kb"])
        table = END_TO_END
    entries = {}
    for point in (traced[0]["points"] if traced else []):
        for key, calls in point["layers"]["calls"].items():
            entries[key] = entries.get(key, 0) + calls
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit, _better in table},
        "problems": problems,
        "runs": len(runs),
        "traced_runs": len(traced),
        "digest": _digest([vt_digest(run) for run in runs[:SUBSEEDS]]),
        "vt_samples": vt_samples(name, runs),
        "entry_calls": entries,
    }
