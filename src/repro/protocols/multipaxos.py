"""Multi-Paxos: a separate Paxos instance per log entry, optimised.

The slides' construction: add an *index* argument to Prepare and Accept
(selecting the log entry), then apply the key optimisation — run phase 1
only when the leader changes ("view change" / "recovery mode"); phase 2
is the "normal mode".  Each message carries the ballot from the last
phase 1 plus the request number, and replicas respond only to messages
with the right ballot.

The client interaction follows the four numbered steps on the slides:
the client sends a command to a server; the server uses Paxos to choose
it for a log entry; the server waits for previous entries to be applied,
applies the command to the state machine; and returns the result.

Replicas monitor the leader with heartbeats; on silence, the next
replica in ring order runs phase 1 with a higher ballot, learns every
accepted entry from a quorum, re-proposes anything uncommitted, and
takes over — the C&C leader-election + value-discovery phases made
explicit.
"""

from dataclasses import dataclass

from ..core.ballot import Ballot
from ..core.node import Node
from ..core.quorums import MajorityQuorum
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
        name="multi-paxos",
        synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
        failure_model=FailureModel.CRASH,
        strategy=Strategy.PESSIMISTIC,
        awareness=Awareness.KNOWN,
        nodes_label="2f+1",
        phases=2,
        complexity="O(N)",
        notes="phase 1 amortised over the log; phase 2 per command",
    )
)


# -- messages ---------------------------------------------------------------


@dataclass(frozen=True)
class ClientRequest(Message):
    command: object
    request_id: str


@dataclass(frozen=True)
class ClientReply(Message):
    request_id: str
    result: object


@dataclass(frozen=True)
class Redirect(Message):
    """Sent to clients that contacted a non-leader."""

    request_id: str
    leader_hint: str


@dataclass(frozen=True)
class MPPrepare(Message):
    """View-change phase 1: join ballot, report the whole accepted log."""

    ballot: Ballot


@dataclass(frozen=True)
class MPPrepareAck(Message):
    ballot: Ballot
    accepted: tuple  # ((index, ballot, value), ...)
    commit_index: int


@dataclass(frozen=True)
class MPAccept(Message):
    """Normal-mode phase 2 for one log index."""

    ballot: Ballot
    index: int
    value: object


@dataclass(frozen=True)
class MPAccepted(Message):
    ballot: Ballot
    index: int


@dataclass(frozen=True)
class MPCommit(Message):
    """Asynchronous decision propagation, piggybacking the commit index."""

    ballot: Ballot
    index: int
    value: object


@dataclass(frozen=True)
class Heartbeat(Message):
    ballot: Ballot
    commit_index: int


# -- replica ----------------------------------------------------------------


@dataclass
class _EntryState:
    accept_num: Ballot
    value: object
    committed: bool = False


@dataclass(frozen=True)
class LogCommand:
    """A client command plus its request id, stored as the log value so
    any future leader can deduplicate client retries."""

    command: object
    request_id: str


#: Request-index value for a request id held at more than one unapplied
#: log index (a retry re-proposed by a leader that had not seen the
#: first proposal); lookups for it fall back to scanning the log.
_SEVERAL = -1


def _request_of(entry):
    """The request id an entry's value carries, else None."""
    if entry is not None and isinstance(entry.value, LogCommand):
        return entry.value.request_id
    return None


class MultiPaxosReplica(Node):
    """A Multi-Paxos server: acceptor + learner + (sometimes) leader.

    Parameters
    ----------
    peers:
        All replica names (including this one), in a fixed global order
        that determines leadership succession.
    state_machine_factory:
        Zero-arg callable building this replica's deterministic state
        machine; it must expose ``apply(command) -> result``.
    election_timeout:
        Silence interval after which a replica attempts takeover.
    """

    HEARTBEAT_INTERVAL = 1.0

    def __init__(
        self,
        sim,
        network,
        name,
        peers,
        state_machine_factory=None,
        election_timeout=5.0,
    ):
        super().__init__(sim, network, name)
        self.peers = list(peers)
        self.quorums = MajorityQuorum(self.peers)
        if state_machine_factory is None:
            state_machine_factory = ListStateMachine
        self.state_machine = state_machine_factory()
        self.election_timeout = election_timeout

        self.ballot_num = Ballot.ZERO
        self.log = {}  # index -> _EntryState
        self.commit_index = -1
        self.applied_index = -1
        self.apply_results = {}

        self.is_leader = False
        self.leader_hint = self.peers[0]
        self.next_index = 0
        self._pending = {}  # index -> set of ack senders
        self._client_of = {}  # index -> (client, request_id)
        self._applied_requests = {}  # request_id -> result (dedup cache)
        # request_id -> log index (or _SEVERAL) for exactly the
        # LogCommand entries above applied_index: in-flight requests.
        self._request_index = {}
        self._prepare_acks = {}
        self._preparing = None
        self._heartbeat_timer = None
        self._election_timer = None
        self.view_changes = 0

    # -- lifecycle --------------------------------------------------------

    def on_start(self):
        if self.name == self.peers[0]:
            # Bootstrap: the first replica claims leadership via phase 1,
            # exactly once — afterwards only failures trigger phase 1.
            self._start_prepare()
        else:
            self._arm_election_timer()

    def on_crash(self):
        self.is_leader = False

    def on_restart(self):
        # Ballot state and the log are durable; leadership is not.
        self.is_leader = False
        self._arm_election_timer()

    # -- leader election (phase 1 / view change) ---------------------------

    def _arm_election_timer(self):
        if self._election_timer is not None:
            self._election_timer.cancel()
        jitter = self.rng.uniform(0.0, self.election_timeout)
        self._election_timer = self.set_timer(
            self.election_timeout + jitter, self._start_prepare
        )

    def _start_prepare(self):
        if self.crashed:
            return
        self.view_changes += 1
        self.ballot_num = self.ballot_num.successor(self.name)
        self._preparing = self.ballot_num
        self._prepare_acks = {}
        if self.network.metrics is not None:
            self.network.metrics.mark_phase("multi-paxos", "prepare", self.sim.now)
        for peer in self.peers:
            if peer == self.name:
                self._record_prepare_ack(self.name, self._own_accepted(), self.commit_index)
            else:
                self.send(peer, MPPrepare(self.ballot_num))
        self._arm_election_timer()

    def _own_accepted(self):
        return tuple(
            (index, entry.accept_num, entry.value)
            for index, entry in self.log.items()
        )

    def handle_mpprepare(self, msg, src):
        if msg.ballot >= self.ballot_num:
            self.ballot_num = msg.ballot
            self.is_leader = False
            self.leader_hint = msg.ballot.pid
            self._arm_election_timer()
            self.send(
                src,
                MPPrepareAck(msg.ballot, self._own_accepted(), self.commit_index),
            )

    def handle_mpprepareack(self, msg, src):
        if self._preparing is None or msg.ballot != self._preparing:
            return
        self._record_prepare_ack(src, msg.accepted, msg.commit_index)

    def _record_prepare_ack(self, src, accepted, commit_index):
        self._prepare_acks[src] = (accepted, commit_index)
        if not self.quorums.is_phase1_quorum(self._prepare_acks.keys()):
            return
        self._become_leader()

    def _become_leader(self):
        self._preparing = None
        self.is_leader = True
        self.leader_hint = self.name
        self.trace_local("lead", ballot=self.ballot_num)
        if self._election_timer is not None:
            self._election_timer.cancel()
        # Value discovery: adopt, per index, the value of the highest
        # accept ballot seen in the quorum, then re-propose uncommitted
        # entries under the new ballot.
        best = {}
        max_commit = self.commit_index
        for accepted, commit_index in self._prepare_acks.values():
            max_commit = max(max_commit, commit_index)
            for index, accept_num, value in accepted:
                current = best.get(index)
                if current is None or accept_num > current[0]:
                    best[index] = (accept_num, value)
        for index, (accept_num, value) in sorted(best.items()):
            entry = self.log.get(index)
            if entry is None or accept_num > entry.accept_num:
                self._store(index, _EntryState(accept_num, value,
                                               committed=index <= max_commit))
            elif index <= max_commit:
                # An entry adopted in an earlier (failed) election may
                # carry a stale committed=False; the quorum's commit
                # index proves it committed (values agree by quorum
                # intersection).
                entry.committed = True
        self.next_index = max(best.keys(), default=self.commit_index) + 1
        # Catch up on everything the quorum knows to be committed...
        self._advance_commit(max_commit)
        # ...and re-run agreement for anything still uncommitted.
        for index in sorted(best):
            if index > max_commit:
                self._propose(index, best[index][1])
        self._heartbeat_timer = self.set_periodic_timer(
            self.HEARTBEAT_INTERVAL, self._send_heartbeat
        )

    def _send_heartbeat(self):
        if not self.is_leader:
            return
        for peer in self.peers:
            if peer != self.name:
                self.send(peer, Heartbeat(self.ballot_num, self.commit_index))

    def handle_heartbeat(self, msg, src):
        if msg.ballot >= self.ballot_num:
            self.ballot_num = msg.ballot
            self.leader_hint = src
            if self.is_leader and msg.ballot.pid != self.name:
                self.is_leader = False
            self._arm_election_timer()
            self._advance_commit(msg.commit_index)

    # -- normal mode (phase 2) ---------------------------------------------

    def handle_clientrequest(self, msg, src):
        if not self.is_leader:
            self.send(src, Redirect(msg.request_id, self.leader_hint))
            return
        if msg.request_id in self._applied_requests:
            # Retry of a completed command: re-reply, never re-propose.
            self.send(src, ClientReply(msg.request_id,
                                       self._applied_requests[msg.request_id]))
            return
        index = self._inflight_index(msg.request_id)
        if index is not None:
            # Already in the log, still committing.
            self._client_of[index] = (src, msg.request_id)
            return
        index = self.next_index
        self.next_index += 1
        self._client_of[index] = (src, msg.request_id)
        self._propose(index, LogCommand(msg.command, msg.request_id))

    def _propose(self, index, value):
        if self.network.metrics is not None:
            self.network.metrics.mark_phase("multi-paxos", "accept", self.sim.now)
        if isinstance(value, LogCommand):
            self.trace_local("propose", index=index, req=value.request_id)
        else:
            self.trace_local("propose", index=index)
        self._store(index, _EntryState(self.ballot_num, value))
        self._pending[index] = {self.name}
        for peer in self.peers:
            if peer != self.name:
                self.send(peer, MPAccept(self.ballot_num, index, value))

    def handle_mpaccept(self, msg, src):
        if msg.ballot >= self.ballot_num:
            self.ballot_num = msg.ballot
            self.leader_hint = src
            self._arm_election_timer()
            self._store(msg.index, _EntryState(msg.ballot, msg.value))
            self.send(src, MPAccepted(msg.ballot, msg.index))

    def handle_mpaccepted(self, msg, src):
        if not self.is_leader or msg.ballot != self.ballot_num:
            return
        pending = self._pending.get(msg.index)
        if pending is None:
            return
        pending.add(src)
        if not self.quorums.is_phase2_quorum(pending):
            return
        del self._pending[msg.index]
        value = self.log[msg.index].value
        if isinstance(value, LogCommand):
            self.trace_local("commit", index=msg.index,
                             req=value.request_id)
        else:
            self.trace_local("commit", index=msg.index)
        self._commit(msg.index)
        for peer in self.peers:
            if peer != self.name:
                self.send(
                    peer,
                    MPCommit(self.ballot_num, msg.index, self.log[msg.index].value),
                )

    def handle_mpcommit(self, msg, src):
        entry = self.log.get(msg.index)
        if entry is None or entry.value != msg.value:
            self._store(msg.index, _EntryState(msg.ballot, msg.value))
        self._commit(msg.index)

    def _commit(self, index):
        entry = self.log.get(index)
        if entry is None:
            return
        entry.committed = True
        self.commit_index = max(self.commit_index, index)
        self._apply_ready()

    def _advance_commit(self, commit_index):
        for index in range(self.applied_index + 1, commit_index + 1):
            entry = self.log.get(index)
            if entry is not None:
                entry.committed = True
        self.commit_index = max(self.commit_index, commit_index)
        self._apply_ready()

    def _apply_ready(self):
        """Apply committed entries strictly in order — the slides' step 3:
        'server waits for previous log entries to be applied'."""
        while True:
            nxt = self.applied_index + 1
            entry = self.log.get(nxt)
            if entry is None or not entry.committed:
                return
            value = entry.value
            command = value.command if isinstance(value, LogCommand) else value
            result = self.state_machine.apply(command)
            self.applied_index = nxt
            if isinstance(value, LogCommand):
                self._unindex(value.request_id, nxt)
                self.trace_local("apply", index=nxt, op=command,
                                 req=value.request_id)
            else:
                self.trace_local("apply", index=nxt, op=command)
            self.apply_results[nxt] = result
            if isinstance(value, LogCommand):
                self._applied_requests[value.request_id] = result
            client = self._client_of.pop(nxt, None)
            if client is not None:
                dst, request_id = client
                self.send(dst, ClientReply(request_id, result))

    # -- request index ------------------------------------------------------

    def _store(self, index, entry):
        """Write log slot ``index``; every log write goes through here so
        the request index stays in step with the log."""
        old_request = _request_of(self.log.get(index))
        self.log[index] = entry
        request_id = _request_of(entry) if index > self.applied_index else None
        if old_request is not None and old_request != request_id:
            self._unindex(old_request, index)
        if request_id is not None:
            held = self._request_index.setdefault(request_id, index)
            if held != index:
                self._request_index[request_id] = _SEVERAL

    def _unindex(self, request_id, index):
        """``index`` no longer holds an unapplied ``request_id``."""
        held = self._request_index.get(request_id)
        if held == index:
            del self._request_index[request_id]
        elif held == _SEVERAL:
            holders = self._holders(request_id)
            if not holders:
                del self._request_index[request_id]
            elif len(holders) == 1:
                self._request_index[request_id] = holders[0]

    def _holders(self, request_id):
        """Unapplied indices holding ``request_id``, in log insertion
        order; O(log), so only for ids held more than once."""
        return [
            index for index, entry in self.log.items()
            if index > self.applied_index
            and _request_of(entry) == request_id
        ]

    def _inflight_index(self, request_id):
        """The unapplied log index holding ``request_id``, or None.

        With several holders it is the first in log insertion order,
        the one a scan of ``self.log`` finds first."""
        index = self._request_index.get(request_id)
        if index == _SEVERAL:
            return self._holders(request_id)[0]
        return index

    # -- introspection ------------------------------------------------------

    def committed_log(self):
        """Committed (index, value) pairs in index order — the safety
        object the consistency checker compares across replicas."""
        return [
            (index, self.log[index].value)
            for index in sorted(self.log)
            if self.log[index].committed
        ]


class ListStateMachine:
    """Default state machine: append-only command history."""

    def __init__(self):
        self.history = []

    def apply(self, command):
        self.history.append(command)
        return len(self.history) - 1

    def snapshot(self):
        return list(self.history)

    def restore(self, snapshot, ops_applied=0):
        self.history = list(snapshot)


class MultiPaxosClient(Node):
    """Closed-loop client: one outstanding command, follows redirects."""

    def __init__(self, sim, network, name, replicas, commands, retry_timeout=8.0):
        super().__init__(sim, network, name)
        self.replicas = list(replicas)
        self.commands = list(commands)
        self.retry_timeout = retry_timeout
        self.target = self.replicas[0]
        self.results = []
        self.sent_at = {}
        self.latencies = []
        self._next = 0
        self._timer = None

    def on_start(self):
        self._send_next()

    def _send_next(self):
        if self._next >= len(self.commands):
            return
        request_id = "%s-%d" % (self.name, self._next)
        self.sent_at[request_id] = self.sim.now
        self.send(self.target, ClientRequest(self.commands[self._next], request_id))
        self._arm_timer()

    def _arm_timer(self):
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.set_timer(self.retry_timeout, self._retry)

    def _retry(self):
        # Leader may have crashed: rotate target and resend.
        index = self.replicas.index(self.target)
        self.target = self.replicas[(index + 1) % len(self.replicas)]
        self._send_next()

    def handle_redirect(self, msg, src):
        if msg.leader_hint and msg.leader_hint != src:
            self.target = msg.leader_hint
        else:
            index = self.replicas.index(self.target)
            self.target = self.replicas[(index + 1) % len(self.replicas)]
        self._send_next()

    def handle_clientreply(self, msg, src):
        expected = "%s-%d" % (self.name, self._next)
        if msg.request_id != expected:
            return  # stale duplicate
        self.results.append(msg.result)
        self.latencies.append(self.sim.now - self.sent_at[msg.request_id])
        self._next += 1
        if self._timer is not None:
            self._timer.cancel()
        self._send_next()

    @property
    def done(self):
        return self._next >= len(self.commands)


# -- driver -----------------------------------------------------------------


@dataclass
class MultiPaxosResult:
    replicas: list
    clients: list
    messages: int
    duration: float

    def committed_logs(self):
        return [replica.committed_log() for replica in self.replicas]

    def logs_consistent(self):
        """No two replicas disagree on any committed index (prefix-
        consistency: shorter logs must be prefixes of longer ones)."""
        logs = self.committed_logs()
        merged = {}
        for log in logs:
            for index, value in log:
                if index in merged and merged[index] != value:
                    return False
                merged[index] = value
        return True


def run_multipaxos(
    cluster,
    n_replicas=3,
    n_clients=1,
    commands_per_client=5,
    crash_leader_at=None,
    horizon=2000.0,
    state_machine_factory=None,
):
    """Drive a Multi-Paxos cluster with closed-loop clients."""
    replica_names = ["r%d" % i for i in range(n_replicas)]
    replicas = cluster.add_nodes(
        MultiPaxosReplica,
        replica_names,
        replica_names,
        state_machine_factory=state_machine_factory,
    )
    clients = [
        cluster.add_node(
            MultiPaxosClient,
            "c%d" % i,
            replica_names,
            ["cmd-%d-%d" % (i, j) for j in range(commands_per_client)],
        )
        for i in range(n_clients)
    ]
    if crash_leader_at is not None:
        cluster.sim.schedule(crash_leader_at, replicas[0].crash)
    cluster.start_all()
    cluster.run_until(lambda: all(c.done for c in clients), until=horizon)
    return MultiPaxosResult(
        replicas=replicas,
        clients=clients,
        messages=cluster.metrics.messages_total,
        duration=cluster.now,
    )
