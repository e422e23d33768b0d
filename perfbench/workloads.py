"""The benchmark's four open-loop workloads and one run of each.

Every workload drives the public load engine (``LoadSpec``,
``run_loadtest`` and, for the knee sweep, ``ParallelRunner.map``).  All
four are open loop: Poisson arrivals from 10^6 logical clients are
superposed onto 4 injector nodes, keys are Zipf(0.99), and latency runs
from each request's intended arrival.  The injected delay is the
engine's ``QueuedDelayModel``: uniform 0.5-1.5 vt on the wire, then a
FIFO ingress server at each destination taking 0.05 vt per message.
"""

import os

from repro.load.engine import LoadSpec

#: Fields every workload shares (stated, so a change of the engine's
#: defaults cannot silently change the benchmark).
COMMON = dict(arrivals="poisson", clients=1_000_000, injectors=4,
              skew=0.99, n_keys=100_000, service=0.05, reads=0.5,
              writes=0.4, increments=0.1, drain=300.0)

#: Share of offered requests that must complete for a rate to count as
#: served (the knee rule's goodput floor).
GOODPUT_FLOOR = 0.9


class Workload:
    """One named load shape.

    ``rates`` is the fixed offered-load grid (one rate for the steady
    workloads); ``vt_rate`` is the grid rate the latency quantiles are
    read at; ``limit`` is the p99 latency limit (vt) a rate must meet to
    count towards ``knee_rate``.  ``fan_out`` runs the grid's points
    through ``ParallelRunner.map`` on ``min(2, nproc)`` forked workers.
    """

    def __init__(self, name, spec, rates, limit, vt_rate=None,
                 fan_out=False):
        self.name = name
        self.spec = spec
        self.rates = tuple(float(rate) for rate in rates)
        self.limit = limit
        self.vt_rate = float(vt_rate if vt_rate is not None else rates[0])
        self.fan_out = fan_out

    def spec_for(self, seed, rate):
        return LoadSpec(seed=seed, rate=rate, **COMMON, **self.spec)

    def workers(self):
        return min(2, os.cpu_count() or 1) if self.fan_out else 1


# Why each workload exists is recorded in BENCHMARK.json.  In short:
# paxos-steady puts sim, net, protocols, smr and load to work on a long,
# growing log, and is the bypass case for crypto, trace and monitor;
# pbft-audited is where crypto, checkpoint hashing, all-to-all multicast,
# trace and monitor do their work; shards-2pc is the only shard routing
# and 2PC-over-consensus path; raft-knee is the only run past saturation
# and the only parallel fan-out.
WORKLOADS = {workload.name: workload for workload in (
    # Half the recorded knee (6.0 req/vt).
    Workload("paxos-steady",
             dict(protocol="multi-paxos", duration=1200.0, monitors=False),
             rates=(3.0,), limit=20.0),
    # Half the recorded knee (0.5 req/vt).
    Workload("pbft-audited",
             dict(protocol="pbft", duration=4800.0, monitors=True),
             rates=(0.25,), limit=20.0),
    # Abort-free, so no operation fails.  With 64 keys the Zipf head
    # (rank 0 takes 21% of transfers) livelocks: at 0.25 txn/vt 3 of
    # seeds 100-119 abort a transaction after 12 lock-conflict attempts
    # and 0.125 still reaches 11.  With 1024 keys at 0.125 txn/vt no
    # transaction of seeds 0-119 needs more than 7 attempts (2.5% retry
    # at all).  9600 vt keeps ~1200 transactions a run, enough for p99.
    # The 2PC tail is long, hence the wider latency limit.
    Workload("shards-2pc",
             dict(protocol="shards", duration=9600.0, shards=4, replicas=3,
                  key_space=1024, cross_ratio=0.25, monitors=False),
             rates=(0.125,), limit=400.0),
    # Quantiles at 4.0: at 6.0 the run sits on the knee itself and the
    # exact p99 ranges 11-31 vt across seeds.  350 vt still leaves 14
    # samples beyond p99 at 4.0 and keeps a fan-out near 3.5 s, so a
    # timed run repeats several times.
    Workload("raft-knee",
             dict(protocol="raft", duration=350.0, monitors=False),
             rates=range(1, 9), limit=20.0, vt_rate=4.0, fan_out=True),
)}
