"""Tests for Multi-Paxos: the replicated log, the phase-1 amortisation,
leader failover, and client semantics."""

import pytest

from repro.core.ballot import Ballot
from repro.protocols.multipaxos import (
    _SEVERAL,
    LogCommand,
    MPAccept,
    MPCommit,
    MultiPaxosClient,
    MultiPaxosReplica,
    run_multipaxos,
)
from repro.smr import KVStateMachine, check_log_consistency


def scan_log_for_request(replica, request_id):
    """Reference for the request index: a full log scan for the first
    entry, in log insertion order, whose command carries
    ``request_id``."""
    for index, entry in replica.log.items():
        value = entry.value
        if isinstance(value, LogCommand) and value.request_id == request_id:
            return index
    return None


def rebuilt_request_index(replica):
    """The request index rebuilt from the log: every unapplied command's
    request id -> its index, or ``_SEVERAL`` when held more than once."""
    rebuilt = {}
    for index, entry in replica.log.items():
        if index > replica.applied_index and \
                isinstance(entry.value, LogCommand):
            request_id = entry.value.request_id
            rebuilt[request_id] = index if request_id not in rebuilt \
                else _SEVERAL
    return rebuilt


@pytest.fixture
def checked_lookups(monkeypatch):
    """Check every in-flight lookup against the full log scan and the
    index against the log; yields the lookups' results."""
    results = []
    lookup = MultiPaxosReplica._inflight_index

    def checked(replica, request_id):
        found = lookup(replica, request_id)
        assert found == scan_log_for_request(replica, request_id)
        assert replica._request_index == rebuilt_request_index(replica)
        results.append(found)
        return found

    monkeypatch.setattr(MultiPaxosReplica, "_inflight_index", checked)
    return results


class TestNormalOperation:
    def test_clients_complete_and_logs_agree(self, cluster):
        result = run_multipaxos(cluster, n_replicas=3, n_clients=2,
                                commands_per_client=5)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()

    def test_log_is_gap_free_and_ordered(self, cluster):
        result = run_multipaxos(cluster, n_replicas=3, n_clients=1,
                                commands_per_client=6)
        log = result.replicas[0].committed_log()
        indices = [index for index, _ in log]
        assert indices == list(range(len(indices)))

    def test_state_machines_apply_in_log_order(self, cluster):
        result = run_multipaxos(cluster, n_replicas=3, n_clients=1,
                                commands_per_client=4)
        cluster.sim.run_for(30.0)  # commits drain to followers
        leader_history = None
        for replica in result.replicas:
            history = replica.state_machine.history
            if leader_history is None or len(history) > len(leader_history):
                leader_history = history
        # Every replica's history is a prefix of the longest one.
        for replica in result.replicas:
            history = replica.state_machine.history
            assert history == leader_history[: len(history)]

    def test_client_results_are_log_positions(self, cluster):
        result = run_multipaxos(cluster, n_replicas=3, n_clients=1,
                                commands_per_client=5)
        assert result.clients[0].results == [0, 1, 2, 3, 4]

    def test_five_replicas(self, make_cluster):
        result = run_multipaxos(make_cluster(seed=4), n_replicas=5,
                                n_clients=2, commands_per_client=4)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()


class TestPhaseOneAmortisation:
    """The slides' optimisation: phase 1 only on leader change."""

    def test_single_prepare_for_many_commands(self, cluster):
        run_multipaxos(cluster, n_replicas=3, n_clients=1,
                       commands_per_client=10)
        by_type = cluster.metrics.by_type
        # One bootstrap election: n-1 prepare messages, regardless of the
        # number of commands.
        assert by_type["mpprepare"] == 2
        assert by_type["mpaccept"] >= 10 * 2

    def test_steady_state_cost_per_command(self, make_cluster):
        # Marginal cost of extra commands excludes any phase-1 traffic.
        costs = {}
        for k in (5, 15):
            cluster = make_cluster(seed=2)
            run_multipaxos(cluster, n_replicas=3, n_clients=1,
                           commands_per_client=k)
            costs[k] = cluster.metrics.by_type["mpprepare"]
        assert costs[5] == costs[15]  # prepares don't scale with commands


class TestLeaderFailover:
    def test_view_change_after_leader_crash(self, make_cluster):
        result = run_multipaxos(make_cluster(seed=9), n_replicas=5,
                                n_clients=1, commands_per_client=8,
                                crash_leader_at=6.0)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()
        views = sum(r.view_changes for r in result.replicas)
        assert views >= 2  # bootstrap + at least one takeover

    def test_no_committed_entry_lost_on_failover(self, make_cluster):
        for seed in (3, 11, 27):
            result = run_multipaxos(make_cluster(seed=seed), n_replicas=3,
                                    n_clients=1, commands_per_client=6,
                                    crash_leader_at=8.0)
            assert all(c.done for c in result.clients), seed
            assert check_log_consistency(result.committed_logs()), seed

    def test_crashed_replica_rejoin_consistency(self, make_cluster):
        cluster = make_cluster(seed=5)
        result = run_multipaxos(cluster, n_replicas=3, n_clients=1,
                                commands_per_client=4, crash_leader_at=5.0)
        crashed = [r for r in result.replicas if r.crashed][0]
        crashed.restart()
        cluster.sim.run_for(60.0)
        assert result.logs_consistent()


class TestCustomStateMachine:
    def test_kv_state_machine_plugs_in(self, cluster):
        result = run_multipaxos(cluster, n_replicas=3, n_clients=1,
                                commands_per_client=0,
                                state_machine_factory=KVStateMachine)
        # Inject commands manually via a fresh client-less check: just
        # assert wiring produced KV machines.
        assert all(isinstance(r.state_machine, KVStateMachine)
                   for r in result.replicas)


class TestRequestIndex:
    """The leader's in-flight lookup is a dict probe; it must answer
    exactly what the full log scan answered."""

    def test_lookup_matches_scan_across_leader_crash(self, make_cluster,
                                                     checked_lookups):
        for seed in (1, 4, 5):
            cluster = make_cluster(seed=seed)
            names = ["r0", "r1", "r2"]
            replicas = cluster.add_nodes(MultiPaxosReplica, names, names)
            # Short retry timeouts: clients resend commands that are
            # still in flight, before and after the leader dies.
            clients = [
                cluster.add_node(MultiPaxosClient, "c%d" % i, names,
                                 ["x%d-%d" % (i, j) for j in range(10)],
                                 retry_timeout=3.0)
                for i in range(3)
            ]
            cluster.sim.schedule(6.0, replicas[0].crash)
            cluster.start_all()
            cluster.run_until(lambda: all(c.done for c in clients),
                              until=2000.0)
            assert all(c.done for c in clients), seed
            logs = [r.committed_log() for r in replicas]
            assert check_log_consistency(logs), seed
            for replica in replicas:
                assert replica._request_index == \
                    rebuilt_request_index(replica)
        hits = [found for found in checked_lookups if found is not None]
        assert len(hits) >= 10  # retries found their in-flight entries

    def test_request_held_at_two_unapplied_indices(self, cluster):
        names = ["r0", "r1", "r2"]
        replica = cluster.add_nodes(MultiPaxosReplica, names, names)[1]
        ballot = Ballot.ZERO.successor("r0")
        retry = LogCommand("x", "c0-0")

        def accept(index, value):
            replica.handle_mpaccept(MPAccept(ballot, index, value), "r0")

        def agree():
            found = replica._inflight_index("c0-0")
            assert found == scan_log_for_request(replica, "c0-0")
            assert replica._request_index == rebuilt_request_index(replica)
            return found

        accept(3, retry)
        accept(1, retry)
        # The first holder in log insertion order, not the lowest index.
        assert agree() == 3
        assert replica._request_index == {"c0-0": _SEVERAL}
        accept(3, LogCommand("y", "c1-0"))
        assert agree() == 1
        assert replica._request_index == {"c0-0": 1, "c1-0": 3}
        accept(3, retry)
        assert agree() == 3
        for index, value in ((0, "op"), (1, retry)):
            replica.handle_mpcommit(MPCommit(ballot, index, value), "r0")
        assert replica.applied_index == 1
        # Applying one holder leaves the other in flight.
        assert agree() == 3
        assert replica._request_index == {"c0-0": 3}
        for index, value in ((2, "op"), (3, retry)):
            replica.handle_mpcommit(MPCommit(ballot, index, value), "r0")
        assert replica.applied_index == 3
        assert replica._request_index == {}

    def test_index_stays_flat_under_load(self, cluster):
        result = run_multipaxos(cluster, n_replicas=3, n_clients=2,
                                commands_per_client=20)
        cluster.sim.run_for(30.0)  # commits drain to followers
        for replica in result.replicas:
            assert replica.applied_index >= 39
            assert replica._request_index == {}
