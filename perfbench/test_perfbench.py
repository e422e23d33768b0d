"""Self-tests of the benchmark.  Run with ``python -m pytest perfbench``.

They use tiny runs: each test shortens the workloads' virtual-time
length, so a run takes a fraction of a second.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from repro.core.node import Node  # noqa: E402
from repro.load.slo import LatencyAccountant  # noqa: E402
from repro.shard import ShardedCluster  # noqa: E402
from repro.sim.events import EventQueue  # noqa: E402

from perfbench import layers, measure  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Virtual-time length of a tiny run of each workload.
TINY = {"paxos-steady": 60.0, "pbft-audited": 120.0, "shards-2pc": 120.0,
        "raft-knee": 20.0}


@pytest.fixture
def tiny(monkeypatch):
    for name, duration in TINY.items():
        monkeypatch.setitem(WORKLOADS[name].spec, "duration", duration)


def declared(kind):
    return [(entry["name"], entry["unit"], entry["better"])
            for entry in BENCHMARK[kind]]


def test_declared_workloads_and_metrics_match_the_code():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] \
        == list(WORKLOADS)
    assert declared("end_to_end") == list(measure.END_TO_END)
    assert declared("per_layer") == list(measure.PER_LAYER)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_exactly_the_declared_metrics(tiny, name, trace):
    result = measure.measure(name, seed=0, seconds=0, trace=trace, probes=1)
    kind = "per_layer" if trace else "end_to_end"
    emitted = [(metric, entry["unit"])
               for metric, entry in result["metrics"].items()]
    assert emitted == [(metric, unit) for metric, unit, _ in declared(kind)]
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)
    assert result["attempted"] >= 1
    # Tiny runs are too short for the p99 sample rule; nothing else may
    # fail.
    assert all("beyond p99" in problem for problem in result["problems"])


def test_peak_rss_leaves_out_the_measuring_process(tiny):
    # Memory the caller holds must not show in a workload's peak.
    ballast = b"\1" * (96 << 20)
    result = measure.measure("paxos-steady", seed=0, seconds=0, trace=0,
                             probes=1)
    assert result["metrics"]["peak_rss_mb"]["value"] < len(ballast) >> 20


def test_full_length_runs_pass_every_check():
    run = measure.run_workload("pbft-audited", seed=0)
    assert measure.run_problems("pbft-audited", run) == []
    assert measure.point_failures(run["points"][0]) == 0


def test_swallowed_completion_trips_the_request_balance(tiny, monkeypatch):
    original = LatencyAccountant.complete
    swallowed = []

    def complete(accountant, intended, finished):
        if not swallowed:
            swallowed.append(intended)
            return None
        return original(accountant, intended, finished)

    monkeypatch.setattr(LatencyAccountant, "complete", complete)
    run = measure.run_workload("paxos-steady", seed=0)
    problems = measure.run_problems("paxos-steady", run)
    assert swallowed
    assert any("offered" in problem for problem in problems)


def test_perturbed_digest_trips_the_repeat_check(tiny):
    runs = [measure.run_workload("paxos-steady", seed=0) for _ in range(2)]
    assert measure.digest_problems(runs, []) == []
    runs[1]["points"][0]["messages"] += 1
    assert measure.digest_problems(runs, []) \
        == ["virtual-time digest differs between runs"]
    other_seed = measure.run_workload("paxos-steady", seed=1)
    assert measure.digest_problems(runs[:1] + [other_seed], []) == []


def test_aborted_transaction_counts_as_failed(tiny, monkeypatch):
    original = ShardedCluster.submit

    def submit(cluster, keys, update, abort_if=None):
        if cluster._txid_counter == 0:
            abort_if = lambda reads: True  # noqa: E731
        return original(cluster, keys, update, abort_if=abort_if)

    monkeypatch.setattr(ShardedCluster, "submit", submit)
    run = measure.run_workload("shards-2pc", seed=0)
    point = run["points"][0]
    assert point["aborted"] == 1
    assert measure.point_failures(point) == 1
    run["yardstick_s"] = 1.0
    setups = [{"setup_s": 1.0, "reference_s": 1.0}]
    metrics = measure.end_to_end("shards-2pc", [run], setups, 1024)
    assert metrics["served_ratio"] < 1.0


def test_late_generator_trips_the_lateness_check(tiny):
    run = measure.run_workload("paxos-steady", seed=0)
    run["points"][0]["lateness_max"] = 0.5
    assert any("late" in problem
               for problem in measure.run_problems("paxos-steady", run))


def patched_attributes():
    owners = [EventQueue, Node, LatencyAccountant, ShardedCluster,
              layers.Simulator, layers.Network, layers.QueuedDelayModel,
              layers.Tracer, layers.MetricsCollector, layers.Histogram,
              layers.hashing,
              layers.ListStateMachine, layers.KVStateMachine,
              layers.TxnKVStateMachine]
    owners.extend(layers._subclasses(layers.Monitor))
    owners.extend(module for module in list(sys.modules.values())
                  if getattr(module, "__name__", "").startswith("repro"))
    return {(id(owner), name): value for owner in owners
            for name, value in list(vars(owner).items())}


def test_every_wrapper_is_restored_after_a_traced_run(tiny):
    before_digest = measure.vt_digest(
        measure.run_workload("pbft-audited", seed=0))
    before = patched_attributes()
    traced = measure.run_workload("pbft-audited", seed=0, traced=True)
    assert traced["points"][0]["layers"]["calls"]["sha256_hex"] > 0
    assert patched_attributes() == before
    after = measure.run_workload("pbft-audited", seed=0)
    assert "layers" not in after["points"][0]
    assert measure.vt_digest(after) == before_digest \
        == measure.vt_digest(traced)


def test_exact_quantiles_are_nearest_rank():
    ordered = [float(value) for value in range(1, 101)]
    assert measure.exact_quantile(ordered, 0.5) == 50.0
    assert measure.exact_quantile(ordered, 0.99) == 99.0
    assert measure.exact_quantile([3.0], 0.99) == 3.0
    assert measure.latency_summary(ordered[::-1]) == {
        "count": 100, "p50": 50.0, "p99": 99.0, "max": 100.0,
        "beyond_p99": 1}
    assert measure.latency_summary([]) is None


def test_knee_rate_interpolates_the_limit_crossing():
    def point(rate, p99, completed=100):
        return {"rate": rate, "offered": 100,
                "quantiles": measure.latency_summary([p99] * 100),
                "completed": completed, "aborted": 0}

    grid = [point(1.0, 5.0), point(2.0, 10.0), point(3.0, 30.0)]
    assert measure.knee_rate(grid, 20.0) == pytest.approx(2.5)
    assert measure.knee_rate(grid[:2], 20.0) == 2.0
    assert measure.knee_rate([point(1.0, 5.0), point(2.0, 10.0, 50)],
                             20.0) == 1.0
    assert measure.knee_rate([point(1.0, 30.0)], 20.0) == 0.0
