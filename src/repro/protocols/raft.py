"""Raft (Ongaro & Ousterhout, USENIX ATC 2014).

The tutorial positions Raft as "equivalent to Paxos in fault-tolerance,
meant to be more understandable", leader-based, "integrating consensus
with log management".  This is a full implementation of the core
algorithm: terms, randomized election timeouts, RequestVote with the
up-to-date-log restriction, AppendEntries with log-matching repair, and
the commit rule (a leader only commits entries from its own term by
counting replicas, which commits all preceding entries transitively).
"""

import enum
from dataclasses import dataclass

from ..core.node import Node
from ..core.registry import register_profile
from ..core.taxonomy import (
    Awareness,
    FailureModel,
    ProtocolProfile,
    Strategy,
    Synchrony,
)
from ..net.message import Message

PROFILE = register_profile(
    ProtocolProfile(
        name="raft",
        synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
        failure_model=FailureModel.CRASH,
        strategy=Strategy.PESSIMISTIC,
        awareness=Awareness.KNOWN,
        nodes_label="2f+1",
        phases=2,
        complexity="O(N)",
        notes="strong leader; log divergence repaired by AppendEntries",
    )
)


class Role(enum.Enum):
    """A Raft server's current role."""

    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


#: The no-op command every new leader appends in its own term.  Raft's
#: commit rule only counts replicas for current-term entries, so without
#: this a leader that inherits uncommitted entries from dead terms could
#: never commit them until a client happened to send something new.
NOOP = "__raft_noop__"


@dataclass(frozen=True)
class LogEntry:
    term: int
    command: object
    #: Client request id, carried in the log so *any* future leader can
    #: deduplicate retries of an already-appended command.
    request_id: str = None


# -- messages ---------------------------------------------------------------


@dataclass(frozen=True)
class RequestVote(Message):
    term: int
    last_log_index: int
    last_log_term: int


@dataclass(frozen=True)
class VoteReply(Message):
    term: int
    granted: bool


@dataclass(frozen=True)
class AppendEntries(Message):
    term: int
    prev_log_index: int
    prev_log_term: int
    entries: tuple
    leader_commit: int


@dataclass(frozen=True)
class AppendReply(Message):
    term: int
    success: bool
    match_index: int


@dataclass(frozen=True)
class InstallSnapshot(Message):
    """Leader → lagging follower: replace your prefix with my snapshot.

    Sent when the follower's ``next_index`` precedes the leader's
    compacted log base — the entries it needs no longer exist as log
    entries, only as state."""

    term: int
    last_included_index: int
    last_included_term: int
    state: object  # the state machine snapshot
    ops_applied: int
    applied_requests: tuple  # ((request_id, result), ...) for dedup


@dataclass(frozen=True)
class RaftClientRequest(Message):
    command: object
    request_id: str


@dataclass(frozen=True)
class RaftClientReply(Message):
    request_id: str
    result: object


@dataclass(frozen=True)
class RaftRedirect(Message):
    request_id: str
    leader_hint: str


class RaftNode(Node):
    """One Raft server.

    Parameters
    ----------
    peers:
        All server names including this one.
    election_timeout:
        Base timeout; each arm adds uniform jitter in [0, timeout] —
        Raft's own livelock-avoidance mechanism (the same randomization
        idea the tutorial presents for Paxos proposers).
    """

    HEARTBEAT_INTERVAL = 1.0

    def __init__(self, sim, network, name, peers,
                 state_machine_factory=None, election_timeout=6.0,
                 snapshot_threshold=None):
        super().__init__(sim, network, name)
        self.peers = list(peers)
        self.majority = len(self.peers) // 2 + 1
        self.election_timeout = election_timeout
        if state_machine_factory is None:
            from .multipaxos import ListStateMachine
            state_machine_factory = ListStateMachine
        self.state_machine = state_machine_factory()

        # Persistent state
        self.current_term = 0
        self.voted_for = None
        self.log = []  # list[LogEntry]; self.log[0] has index log_base
        # Log compaction: entries below log_base live only in the snapshot.
        self.log_base = 0
        self.snapshot = None
        self.snapshot_term = 0
        self.snapshot_threshold = snapshot_threshold
        self.snapshots_taken = 0
        self.snapshots_installed = 0

        # Volatile state
        self.role = Role.FOLLOWER
        self.commit_index = -1
        self.last_applied = -1
        self.leader_hint = None
        self.elections_started = 0

        # Leader state
        self.next_index = {}
        self.match_index = {}
        self._votes = set()
        self._client_of = {}  # log index -> (client, request_id)
        # request_id -> ascending absolute indices of the unapplied log
        # entries carrying it: in-flight requests.
        self._request_index = {}
        self._election_timer = None
        self._heartbeat_timer = None
        self.apply_results = {}
        self._applied_requests = {}  # request_id -> result (dedup cache)

    # -- helpers -----------------------------------------------------------

    def last_log_index(self):
        return self.log_base + len(self.log) - 1

    def last_log_term(self):
        return self.log[-1].term if self.log else self.snapshot_term

    def _entry(self, index):
        """The entry at absolute ``index`` (must be >= log_base)."""
        return self.log[index - self.log_base]

    def _append(self, entry):
        """Append one entry; every append goes through here so the
        request index stays in step with the log."""
        self.log.append(entry)
        if entry.request_id is not None:
            self._request_index.setdefault(entry.request_id, []).append(
                self.last_log_index())

    def _truncate(self, position):
        """Drop the log suffix from ``position`` (a conflicting,
        uncommitted suffix) and its request-index entries."""
        for offset, entry in enumerate(self.log[position:]):
            if entry.request_id is not None:
                self._unindex(entry.request_id,
                              self.log_base + position + offset)
        del self.log[position:]

    def _inflight_indices(self, request_id):
        """Absolute indices of the unapplied entries carrying
        ``request_id``, ascending (empty when none)."""
        return self._request_index.get(request_id, ())

    def _unindex(self, request_id, index):
        indices = self._request_index.get(request_id)
        if indices is not None and index in indices:
            indices.remove(index)
            if not indices:
                del self._request_index[request_id]

    def _term_at(self, index):
        if index < 0:
            return 0
        if index == self.log_base - 1:
            return self.snapshot_term
        if index < self.log_base:
            return None  # compacted away
        if index > self.last_log_index():
            return None
        return self._entry(index).term

    # -- lifecycle ----------------------------------------------------------

    def on_start(self):
        self._arm_election_timer()

    def on_crash(self):
        self.role = Role.FOLLOWER

    def on_restart(self):
        # current_term, voted_for and the log are persistent in Raft.
        self.role = Role.FOLLOWER
        self.leader_hint = None
        self._arm_election_timer()

    def _arm_election_timer(self):
        if self._election_timer is not None:
            self._election_timer.cancel()
        timeout = self.election_timeout + self.rng.uniform(
            0.0, self.election_timeout
        )
        self._election_timer = self.set_timer(timeout, self._start_election)

    def _step_down(self, term, leader_hint=None):
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None
        self.role = Role.FOLLOWER
        if leader_hint is not None:
            self.leader_hint = leader_hint
        self._arm_election_timer()

    # -- elections ----------------------------------------------------------

    def _start_election(self):
        if self.crashed:
            return
        self.role = Role.CANDIDATE
        self.current_term += 1
        self.voted_for = self.name
        self._votes = {self.name}
        self.elections_started += 1
        if self.network.metrics is not None:
            self.network.metrics.mark_phase("raft", "election", self.sim.now)
        for peer in self.peers:
            if peer != self.name:
                self.send(
                    peer,
                    RequestVote(
                        self.current_term,
                        self.last_log_index(),
                        self.last_log_term(),
                    ),
                )
        self._arm_election_timer()

    def handle_requestvote(self, msg, src):
        if msg.term > self.current_term:
            self._step_down(msg.term)
        granted = False
        if msg.term == self.current_term and self.voted_for in (None, src):
            # Election restriction: grant only to candidates whose log is
            # at least as up-to-date as ours.
            up_to_date = (msg.last_log_term, msg.last_log_index) >= (
                self.last_log_term(),
                self.last_log_index(),
            )
            if up_to_date:
                granted = True
                self.voted_for = src
                self._arm_election_timer()
        self.send(src, VoteReply(self.current_term, granted))

    def handle_votereply(self, msg, src):
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if self.role is not Role.CANDIDATE or msg.term != self.current_term:
            return
        if msg.granted:
            self._votes.add(src)
            if len(self._votes) >= self.majority:
                self._become_leader()

    def _become_leader(self):
        self.role = Role.LEADER
        self.leader_hint = self.name
        self.trace_local("lead", term=self.current_term)
        if self._election_timer is not None:
            self._election_timer.cancel()
        # Commit-point no-op: anchors inherited entries under our term.
        self._append(LogEntry(self.current_term, NOOP))
        self.next_index = {p: self.last_log_index() + 1 for p in self.peers}
        self.match_index = {p: -1 for p in self.peers}
        self.match_index[self.name] = self.last_log_index()
        self._broadcast_append()
        self._heartbeat_timer = self.set_periodic_timer(
            self.HEARTBEAT_INTERVAL, self._broadcast_append
        )

    # -- log replication ------------------------------------------------------

    def handle_raftclientrequest(self, msg, src):
        if self.role is not Role.LEADER:
            self.send(src, RaftRedirect(msg.request_id, self.leader_hint or ""))
            return
        if msg.request_id in self._applied_requests:
            # Retry of a completed command: re-reply, never re-execute.
            self.send(src, RaftClientReply(msg.request_id,
                                           self._applied_requests[msg.request_id]))
            return
        indices = self._inflight_indices(msg.request_id)
        if indices:
            # Already appended, still committing: remember who to answer.
            for index in indices:
                self._client_of[index] = (src, msg.request_id)
            return
        index = self.last_log_index() + 1
        self._append(LogEntry(self.current_term, msg.command,
                              msg.request_id))
        self.match_index[self.name] = index
        self._client_of[index] = (src, msg.request_id)
        self.trace_local("propose", index=index, req=msg.request_id)
        if self.network.metrics is not None:
            self.network.metrics.mark_phase("raft", "append", self.sim.now)
        self._broadcast_append()

    def _broadcast_append(self):
        if self.role is not Role.LEADER:
            return
        for peer in self.peers:
            if peer != self.name:
                self._send_append(peer)

    def _send_append(self, peer):
        nxt = self.next_index.get(peer, self.last_log_index() + 1)
        if nxt < self.log_base:
            # The entries this follower needs were compacted: ship state.
            self.send(peer, InstallSnapshot(
                self.current_term,
                self.log_base - 1,
                self.snapshot_term,
                self.snapshot,
                getattr(self.state_machine, "ops_applied", 0),
                tuple(self._applied_requests.items()),
            ))
            return
        prev_index = nxt - 1
        prev_term = self._term_at(prev_index) or 0
        entries = tuple(self.log[nxt - self.log_base:])
        self.send(
            peer,
            AppendEntries(
                self.current_term, prev_index, prev_term, entries,
                self.commit_index,
            ),
        )

    def handle_appendentries(self, msg, src):
        if msg.term > self.current_term:
            self._step_down(msg.term, leader_hint=src)
        if msg.term < self.current_term:
            self.send(src, AppendReply(self.current_term, False, -1))
            return
        # Valid leader for our term.
        self.leader_hint = src
        if self.role is not Role.FOLLOWER:
            self._step_down(msg.term, leader_hint=src)
        self._arm_election_timer()
        # Log-matching check (a prefix inside our snapshot matches by
        # construction — it was committed before being compacted).
        if msg.prev_log_index >= self.log_base - 1 and msg.prev_log_index >= 0:
            local_term = self._term_at(msg.prev_log_index)
            if local_term is None or local_term != msg.prev_log_term:
                self.send(src, AppendReply(self.current_term, False, -1))
                return
        # Append, truncating any conflicting suffix.
        insert_at = msg.prev_log_index + 1
        for offset, entry in enumerate(msg.entries):
            index = insert_at + offset
            if index < self.log_base:
                continue  # covered by our snapshot: already committed
            position = index - self.log_base
            if position < len(self.log):
                if self.log[position].term != entry.term:
                    self._truncate(position)
                    self._append(entry)
            else:
                self._append(entry)
        match = msg.prev_log_index + len(msg.entries)
        if msg.leader_commit > self.commit_index:
            self.commit_index = min(msg.leader_commit, self.last_log_index())
            self.trace_local("commit", index=self.commit_index,
                             term=self.current_term)
            self._apply_ready()
        self.send(src, AppendReply(self.current_term, True, match))

    def handle_appendreply(self, msg, src):
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if self.role is not Role.LEADER or msg.term != self.current_term:
            return
        if msg.success:
            self.match_index[src] = max(self.match_index.get(src, -1), msg.match_index)
            self.next_index[src] = self.match_index[src] + 1
            self._advance_commit()
        else:
            # Back up and retry — Raft's log repair.
            self.next_index[src] = max(0, self.next_index.get(src, 1) - 1)
            self._send_append(src)

    def _advance_commit(self):
        """Commit the highest index replicated on a majority whose entry
        is from the current term.

        The highest index on a majority is the majority-th largest match
        index.  A leader's log terms never decrease and never exceed its
        current term, so if that entry is from an earlier term, so is
        every entry below it: nothing commits until a current-term entry
        reaches a majority (Raft's Figure 8 rule)."""
        matched = sorted(self.match_index.values(), reverse=True)
        if len(matched) < self.majority:
            return
        index = min(matched[self.majority - 1], self.last_log_index())
        if index <= self.commit_index or \
                self._term_at(index) != self.current_term:
            return
        self.commit_index = index
        entry = self._entry(index)
        if entry.request_id is not None:
            self.trace_local("commit", index=index, term=self.current_term,
                             req=entry.request_id)
        else:
            self.trace_local("commit", index=index, term=self.current_term)
        self._apply_ready()

    def _apply_ready(self):
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self._entry(self.last_applied)
            if entry.request_id is not None:
                self._unindex(entry.request_id, self.last_applied)
            if entry.command == NOOP:
                self.apply_results[self.last_applied] = None
                continue
            result = self.state_machine.apply(entry.command)
            if entry.request_id is not None:
                self.trace_local("apply", index=self.last_applied,
                                 op=entry.command, req=entry.request_id)
            else:
                self.trace_local("apply", index=self.last_applied,
                                 op=entry.command)
            self.apply_results[self.last_applied] = result
            if entry.request_id is not None:
                self._applied_requests[entry.request_id] = result
            client = self._client_of.pop(self.last_applied, None)
            if client is not None and self.role is Role.LEADER:
                dst, request_id = client
                self.send(dst, RaftClientReply(request_id, result))
        self._maybe_compact()

    # -- log compaction -----------------------------------------------------

    def _maybe_compact(self):
        """Snapshot the state machine and discard the applied prefix once
        it exceeds the configured threshold."""
        if self.snapshot_threshold is None:
            return
        applied_in_log = self.last_applied - self.log_base + 1
        if applied_in_log < self.snapshot_threshold:
            return
        if not hasattr(self.state_machine, "snapshot"):
            return
        # Only applied entries are discarded, and the request index
        # holds none of them (absolute indices need no rebasing).
        self.snapshot = self.state_machine.snapshot()
        self.snapshot_term = self._term_at(self.last_applied)
        keep_from = self.last_applied - self.log_base + 1
        self.log = self.log[keep_from:]
        self.log_base = self.last_applied + 1
        self.snapshots_taken += 1

    def handle_installsnapshot(self, msg, src):
        if msg.term > self.current_term:
            self._step_down(msg.term, leader_hint=src)
        if msg.term < self.current_term:
            self.send(src, AppendReply(self.current_term, False, -1))
            return
        self.leader_hint = src
        self._arm_election_timer()
        if msg.last_included_index <= self.last_applied:
            # Stale snapshot: we're already past it.
            self.send(src, AppendReply(self.current_term, True,
                                       self.last_applied))
            return
        if hasattr(self.state_machine, "restore"):
            self.state_machine.restore(msg.state, msg.ops_applied)
        self.log = []
        self._request_index.clear()
        self.log_base = msg.last_included_index + 1
        self.snapshot = msg.state
        self.snapshot_term = msg.last_included_term
        self.commit_index = msg.last_included_index
        self.last_applied = msg.last_included_index
        self._applied_requests.update(dict(msg.applied_requests))
        self.snapshots_installed += 1
        self.send(src, AppendReply(self.current_term, True,
                                   msg.last_included_index))

    # -- introspection -------------------------------------------------------

    def committed_log(self):
        """Committed (index, command) pairs still present in the log —
        a compacted prefix lives only in the snapshot; leader no-ops are
        omitted (they carry no client command)."""
        return [
            (index, self._entry(index).command)
            for index in range(self.log_base, self.commit_index + 1)
            if self._entry(index).command != NOOP
        ]


class RaftClient(Node):
    """Closed-loop Raft client following leader redirects."""

    def __init__(self, sim, network, name, servers, commands, retry_timeout=10.0):
        super().__init__(sim, network, name)
        self.servers = list(servers)
        self.commands = list(commands)
        self.retry_timeout = retry_timeout
        self.target = self.servers[0]
        self.results = []
        self._next = 0
        self._timer = None

    def on_start(self):
        self._send_next()

    def _send_next(self):
        if self.done:
            return
        request_id = "%s-%d" % (self.name, self._next)
        metrics = self.network.metrics
        if metrics is not None and not metrics.request_open("raft:" + request_id):
            # Span opens on first submission; redirects/retries keep it.
            metrics.start_request("raft:" + request_id, self.sim.now)
        self.send(self.target, RaftClientRequest(self.commands[self._next], request_id))
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.set_timer(self.retry_timeout, self._rotate_and_retry)

    def _rotate_and_retry(self):
        index = self.servers.index(self.target)
        self.target = self.servers[(index + 1) % len(self.servers)]
        self._send_next()

    def handle_raftredirect(self, msg, src):
        if msg.leader_hint and msg.leader_hint in self.servers:
            self.target = msg.leader_hint
            self._send_next()
        else:
            self._rotate_and_retry()

    def handle_raftclientreply(self, msg, src):
        expected = "%s-%d" % (self.name, self._next)
        if msg.request_id != expected:
            return
        metrics = self.network.metrics
        if metrics is not None and metrics.request_open("raft:" + expected):
            metrics.finish_request("raft:" + expected, self.sim.now)
        self.results.append(msg.result)
        self._next += 1
        if self._timer is not None:
            self._timer.cancel()
        self._send_next()

    @property
    def done(self):
        return self._next >= len(self.commands)


# -- driver -----------------------------------------------------------------


@dataclass
class RaftResult:
    nodes: list
    clients: list
    messages: int
    duration: float

    def leader(self):
        leaders = [n for n in self.nodes if n.role is Role.LEADER and not n.crashed]
        return leaders[-1] if leaders else None

    def committed_logs(self):
        return [n.committed_log() for n in self.nodes]

    def logs_consistent(self):
        merged = {}
        for log in self.committed_logs():
            for index, value in log:
                if index in merged and merged[index] != value:
                    return False
                merged[index] = value
        return True


def run_raft(
    cluster,
    n_nodes=3,
    n_clients=1,
    commands_per_client=5,
    crash_leader_at=None,
    horizon=3000.0,
    state_machine_factory=None,
    snapshot_threshold=None,
):
    """Drive a Raft cluster with closed-loop clients."""
    names = ["n%d" % i for i in range(n_nodes)]
    nodes = cluster.add_nodes(
        RaftNode, names, names, state_machine_factory=state_machine_factory,
        snapshot_threshold=snapshot_threshold,
    )
    clients = [
        cluster.add_node(
            RaftClient,
            "c%d" % i,
            names,
            ["cmd-%d-%d" % (i, j) for j in range(commands_per_client)],
        )
        for i in range(n_clients)
    ]
    if crash_leader_at is not None:
        def crash_current_leader():
            for node in nodes:
                if node.role is Role.LEADER and not node.crashed:
                    node.crash()
                    return
        cluster.sim.schedule(crash_leader_at, crash_current_leader)
    cluster.start_all()
    cluster.run_until(lambda: all(c.done for c in clients), until=horizon)
    return RaftResult(
        nodes=nodes,
        clients=clients,
        messages=cluster.metrics.messages_total,
        duration=cluster.now,
    )
