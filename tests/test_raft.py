"""Tests for Raft: elections, log replication/repair, commit rules."""

import pytest

from repro.load.engine import LoadSpec, run_loadtest
from repro.protocols.raft import (
    NOOP,
    AppendEntries,
    AppendReply,
    InstallSnapshot,
    LogEntry,
    RaftClient,
    RaftNode,
    Role,
    run_raft,
)
from repro.trace import assert_unique_leader_per_view


def scan_log_for_request(node, request_id):
    """Reference for the request index: a full log scan for every
    in-memory log index carrying ``request_id``, ascending."""
    return [node.log_base + position
            for position, entry in enumerate(node.log)
            if entry.request_id == request_id]


def descending_commit_point(node):
    """Reference for the commit rule: walk down from the last index to
    the highest one replicated on a majority, giving up at the first
    entry not from the current term."""
    for index in range(node.last_log_index(), node.commit_index, -1):
        if node._term_at(index) != node.current_term:
            return None
        count = sum(1 for m in node.match_index.values() if m >= index)
        if count >= node.majority:
            return index
    return None


def rebuilt_request_index(node):
    """The request index rebuilt from the log's unapplied suffix."""
    rebuilt = {}
    for position, entry in enumerate(node.log):
        index = node.log_base + position
        if index > node.last_applied and entry.request_id is not None:
            rebuilt.setdefault(entry.request_id, []).append(index)
    return rebuilt


@pytest.fixture
def differential(monkeypatch):
    """Check every in-flight lookup against the full log scan, every
    commit step against the descending walk, and the index against the
    log; yields the lookups' and the walk's results."""
    seen = {"lookups": [], "commits": []}
    lookup = RaftNode._inflight_indices
    advance = RaftNode._advance_commit

    def checked_lookup(node, request_id):
        found = list(lookup(node, request_id))
        assert found == scan_log_for_request(node, request_id)
        assert node._request_index == rebuilt_request_index(node)
        seen["lookups"].append(found)
        return found

    def checked_advance(node):
        before = node.commit_index
        walked = descending_commit_point(node)
        advance(node)
        assert node.commit_index == (before if walked is None else walked)
        assert node._request_index == rebuilt_request_index(node)
        seen["commits"].append(walked)

    monkeypatch.setattr(RaftNode, "_inflight_indices", checked_lookup)
    monkeypatch.setattr(RaftNode, "_advance_commit", checked_advance)
    return seen


def partitioned_run(cluster):
    """n0 is cut off from its peers (not from clients) over (20, 60):
    a leader there keeps appending entries that never commit, clients
    retry, and on healing its suffix conflicts with the new leader's."""
    names = ["n0", "n1", "n2"]
    nodes = cluster.add_nodes(RaftNode, names, names)
    clients = [
        cluster.add_node(RaftClient, "c%d" % i, names,
                         ["x%d-%d" % (i, j) for j in range(10)])
        for i in range(2)
    ]

    def cut(src, dst, msg):
        if 20.0 < cluster.sim.now < 60.0 and "n0" in (src, dst) \
                and src in names and dst in names:
            return False
        return None

    cluster.network.add_interceptor(cut)
    cluster.start_all()
    cluster.run_until(lambda: all(c.done for c in clients), until=2000.0)
    return nodes, clients


class TestElections:
    def test_exactly_one_leader_per_term(self, make_cluster):
        for seed in range(5):
            cluster = make_cluster(seed=seed, trace=True)
            result = run_raft(cluster, n_nodes=5, n_clients=1,
                              commands_per_client=2)
            leaders_by_term = {}
            for node in result.nodes:
                if node.role is Role.LEADER:
                    leaders_by_term.setdefault(node.current_term, set()).add(
                        node.name
                    )
            for term, leaders in leaders_by_term.items():
                assert len(leaders) == 1, (seed, term)
            # Stronger than the end-state scan above: no two nodes ever
            # *declared* leadership for one term, anywhere in the run.
            assert_unique_leader_per_view(cluster.trace, "term")

    def test_election_restriction_rejects_stale_logs(self, cluster):
        names = ["n0", "n1", "n2"]
        nodes = cluster.add_nodes(RaftNode, names, names)
        # n0 has a longer, newer log: it must not vote for n1.
        nodes[0].log = [LogEntry(1, "a"), LogEntry(2, "b")]
        nodes[0].current_term = 2
        nodes[1].current_term = 2
        from repro.protocols.raft import RequestVote
        nodes[0].handle_requestvote(RequestVote(3, 0, 1), "n1")
        assert nodes[0].voted_for != "n1"

    def test_higher_term_dethrones_leader(self, cluster):
        names = ["n0", "n1", "n2"]
        nodes = cluster.add_nodes(RaftNode, names, names)
        nodes[0].role = Role.LEADER
        nodes[0].current_term = 1
        nodes[0].handle_appendentries(AppendEntries(5, -1, 0, (), -1), "n1")
        assert nodes[0].role is Role.FOLLOWER
        assert nodes[0].current_term == 5


class TestReplication:
    def test_commands_replicate_and_apply(self, cluster):
        result = run_raft(cluster, n_nodes=3, n_clients=1,
                          commands_per_client=5)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()
        leader = result.leader()
        assert leader is not None
        assert len(leader.committed_log()) == 5

    def test_multiple_clients_interleave_consistently(self, make_cluster):
        result = run_raft(make_cluster(seed=8), n_nodes=5, n_clients=3,
                          commands_per_client=3)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()

    def test_followers_catch_up_via_heartbeat_commit(self, cluster):
        result = run_raft(cluster, n_nodes=3, n_clients=1,
                          commands_per_client=3)
        cluster.sim.run_for(30.0)
        lengths = [len(n.committed_log()) for n in result.nodes]
        assert all(length == 3 for length in lengths)


class TestLeaderCrash:
    def test_progress_after_leader_crash(self, make_cluster):
        for seed in (11, 23):
            result = run_raft(make_cluster(seed=seed), n_nodes=5, n_clients=1,
                              commands_per_client=8, crash_leader_at=25.0)
            assert all(c.done for c in result.clients), seed
            assert result.logs_consistent(), seed

    def test_terms_increase_after_crash(self, make_cluster):
        result = run_raft(make_cluster(seed=11), n_nodes=5, n_clients=1,
                          commands_per_client=6, crash_leader_at=25.0)
        alive_terms = [n.current_term for n in result.nodes if not n.crashed]
        assert max(alive_terms) >= 2

    def test_restarted_node_rejoins_consistently(self, make_cluster):
        cluster = make_cluster(seed=13)
        result = run_raft(cluster, n_nodes=3, n_clients=1,
                          commands_per_client=5, crash_leader_at=20.0)
        crashed = [n for n in result.nodes if n.crashed]
        for node in crashed:
            node.restart()
        cluster.sim.run_for(80.0)
        assert result.logs_consistent()


class TestLogRepair:
    def test_divergent_follower_log_truncated(self, cluster):
        names = ["n0", "n1", "n2"]
        nodes = cluster.add_nodes(RaftNode, names, names)
        follower = nodes[1]
        # Follower holds uncommitted garbage from a dead leader's term.
        follower.log = [LogEntry(1, "good"), LogEntry(1, "stale-a"),
                        LogEntry(1, "stale-b")]
        follower.current_term = 2
        follower.handle_appendentries(
            AppendEntries(2, 0, 1, (LogEntry(2, "new"),), 1), "n0"
        )
        commands = [entry.command for entry in follower.log]
        assert commands == ["good", "new"]
        assert follower._request_index == {}  # no entry carries an id

    def test_append_rejected_on_prev_mismatch(self, cluster):
        names = ["n0", "n1", "n2"]
        nodes = cluster.add_nodes(RaftNode, names, names)
        follower = nodes[1]
        follower.handle_appendentries(
            AppendEntries(1, 5, 1, (LogEntry(1, "x"),), -1), "n0"
        )
        assert follower.log == []  # gap: refused


class TestLogCompaction:
    """Raft snapshots: applied prefixes are discarded; laggards get
    InstallSnapshot instead of unavailable entries."""

    def test_log_stays_bounded(self, make_cluster):
        result = run_raft(make_cluster(seed=4), n_nodes=3, n_clients=1,
                          commands_per_client=20, snapshot_threshold=5)
        assert all(c.done for c in result.clients)
        assert result.logs_consistent()
        for node in result.nodes:
            assert len(node.log) <= 6
        assert any(node.snapshots_taken > 0 for node in result.nodes)

    def test_state_survives_compaction(self, make_cluster):
        result = run_raft(make_cluster(seed=4), n_nodes=3, n_clients=1,
                          commands_per_client=15, snapshot_threshold=4)
        cluster_histories = [n.state_machine.history for n in result.nodes]
        longest = max(cluster_histories, key=len)
        assert len(longest) == 15
        for history in cluster_histories:
            assert history == longest[: len(history)]

    def test_lagging_follower_installed_snapshot(self, make_cluster):
        cluster = make_cluster(seed=7)
        names = ["n0", "n1", "n2"]
        nodes = cluster.add_nodes(RaftNode, names, names,
                                  snapshot_threshold=4)
        client = cluster.add_node(
            RaftClient, "c0", names, ["x%d" % i for i in range(12)]
        )

        def block_n2(src, dst, msg):
            if "n2" in (src, dst) and 5.0 < cluster.sim.now < 120.0:
                return False
            return None

        cluster.network.add_interceptor(block_n2)
        cluster.start_all()
        cluster.run_until(lambda: client.done, until=2000.0)
        cluster.sim.run_for(200.0)
        laggard = nodes[2]
        assert laggard.snapshots_installed >= 1
        leader_history = max((n.state_machine.history for n in nodes),
                             key=len)
        assert laggard.state_machine.history == \
            leader_history[: len(laggard.state_machine.history)]
        assert len(laggard.state_machine.history) >= 10

    def test_no_compaction_without_threshold(self, make_cluster):
        result = run_raft(make_cluster(seed=4), n_nodes=3, n_clients=1,
                          commands_per_client=10)
        assert all(node.snapshots_taken == 0 for node in result.nodes)
        assert all(node.log_base == 0 for node in result.nodes)


class TestRequestIndexAndCommitRule:
    """The leader's in-flight lookup is a dict probe and its commit point
    an order statistic of match indices; both must answer exactly what
    the full log scan and the descending walk answered."""

    def test_agree_across_leader_crash(self, make_cluster, differential):
        for seed in (11, 23):
            result = run_raft(make_cluster(seed=seed), n_nodes=5,
                              n_clients=3, commands_per_client=8,
                              crash_leader_at=25.0)
            assert all(c.done for c in result.clients), seed
            assert result.logs_consistent(), seed
        # Some commit steps found nothing to commit, some committed.
        assert None in differential["commits"]
        assert any(walked is not None for walked in differential["commits"])

    def test_agree_when_follower_truncates_conflicting_suffix(
            self, make_cluster, differential, monkeypatch):
        truncated = []
        truncate = RaftNode._truncate

        def counting(node, position):
            truncated.extend(e.request_id for e in node.log[position:]
                             if e.request_id is not None)
            truncate(node, position)
            assert node._request_index == rebuilt_request_index(node)

        monkeypatch.setattr(RaftNode, "_truncate", counting)
        for seed in (1, 3, 5):
            cluster = make_cluster(seed=seed)
            nodes, clients = partitioned_run(cluster)
            assert all(c.done for c in clients), seed
            cluster.sim.run_for(30.0)
            histories = [n.state_machine.history for n in nodes]
            longest = max(histories, key=len)
            assert len(longest) == 20, seed
            for history in histories:
                assert history == longest[: len(history)], seed
        assert truncated  # dropped entries carried request ids
        hits = [found for found in differential["lookups"] if found]
        assert hits  # retries found their in-flight entries

    def test_truncated_request_leaves_the_index(self, cluster):
        names = ["n0", "n1", "n2"]
        follower = cluster.add_nodes(RaftNode, names, names)[1]
        follower.handle_appendentries(AppendEntries(
            1, -1, 0, (LogEntry(1, "a", "c0-0"), LogEntry(1, "b", "c0-1"),
                       LogEntry(1, "c", "c0-2")), -1), "n0")
        assert follower._request_index == \
            {"c0-0": [0], "c0-1": [1], "c0-2": [2]}
        # The term-2 leader kept only the first entry, then c0-2 again.
        follower.handle_appendentries(AppendEntries(
            2, 0, 1, (LogEntry(2, "c", "c0-2"),), 0), "n2")
        assert [e.command for e in follower.log] == ["a", "c"]
        assert follower._inflight_indices("c0-1") == ()
        assert scan_log_for_request(follower, "c0-1") == []
        # Index 0 was applied, so only index 1 is in flight.
        assert follower._request_index == {"c0-2": [1]}
        assert follower._request_index == rebuilt_request_index(follower)

    def test_install_snapshot_clears_the_index(self, cluster):
        names = ["n0", "n1", "n2"]
        follower = cluster.add_nodes(RaftNode, names, names)[1]
        follower.handle_appendentries(AppendEntries(
            1, -1, 0, (LogEntry(1, "a", "c0-0"), LogEntry(1, "b", "c0-1")),
            -1), "n0")
        assert follower._request_index == {"c0-0": [0], "c0-1": [1]}
        follower.handle_installsnapshot(InstallSnapshot(
            1, 4, 1, ["a", "b", "x", "y", "z"], 5,
            (("c0-0", 0), ("c0-1", 1))), "n0")
        assert follower.log == [] and follower.last_applied == 4
        assert follower._request_index == {}

    def test_agree_through_compaction_and_install_snapshot(
            self, make_cluster, differential):
        cluster = make_cluster(seed=7)
        names = ["n0", "n1", "n2"]
        nodes = cluster.add_nodes(RaftNode, names, names,
                                  snapshot_threshold=4)
        clients = [
            cluster.add_node(RaftClient, "c%d" % i, names,
                             ["x%d-%d" % (i, j) for j in range(8)],
                             retry_timeout=4.0)
            for i in range(2)
        ]

        def block_n2(src, dst, msg):
            if "n2" in (src, dst) and 5.0 < cluster.sim.now < 120.0:
                return False
            return None

        cluster.network.add_interceptor(block_n2)
        cluster.start_all()
        cluster.run_until(lambda: all(c.done for c in clients),
                          until=2000.0)
        cluster.sim.run_for(200.0)
        assert all(c.done for c in clients)
        assert nodes[2].snapshots_installed >= 1
        assert any(n.snapshots_taken > 0 for n in nodes)
        for node in nodes:
            assert node._request_index == rebuilt_request_index(node)
        assert differential["lookups"]

    def test_agree_past_the_knee(self, differential):
        # Saturated open-loop load: a deep uncommitted backlog, where the
        # descending walk had the most entries to visit.
        run_loadtest(LoadSpec("raft", rate=8.0, duration=60.0, seed=0))
        assert len(differential["commits"]) > 500
        assert len(differential["lookups"]) > 400

    def test_prior_term_entry_commits_only_with_current_term_entry(
            self, cluster, differential):
        # Raft's Figure 8: an entry from an earlier term that sits on a
        # majority still must not be committed by counting replicas.
        names = ["n0", "n1", "n2"]
        leader = cluster.add_nodes(RaftNode, names, names)[0]
        leader.handle_appendentries(AppendEntries(
            2, -1, 0, (LogEntry(2, "old", "c0-0"),), -1), "n1")
        leader.current_term = 3
        leader._become_leader()  # appends the term-3 no-op at index 1
        assert leader._entry(1).command == NOOP
        leader.handle_appendreply(AppendReply(3, True, 0), "n1")
        assert leader.match_index == {"n0": 1, "n1": 0, "n2": -1}
        assert leader.commit_index == -1
        leader.handle_appendreply(AppendReply(3, True, 1), "n2")
        assert leader.commit_index == 1  # index 0 commits indirectly
        assert leader.last_applied == 1
        assert leader._request_index == {}
        assert differential["commits"] == [None, 1]
