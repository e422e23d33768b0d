"""EXPERIMENTS.md generation from benchmark result artifacts.

Each benchmark in ``benchmarks/`` writes its paper-vs-measured table to
``benchmarks/results/E<k>_<slug>.txt``; this module stitches those
artifacts together with per-experiment commentary into EXPERIMENTS.md.
Exposed on the CLI as ``python -m repro experiments``.
"""

import pathlib
import re

#: Commentary per experiment: (title, what-the-paper-claims vs measured).
EXPERIMENT_NOTES = {
    "E1": ("The comparison table",
           "Paper: the per-protocol property boxes (nodes / phases / message\n"
           "complexity). Measured: live runs at f=1 plus a cluster-size sweep with\n"
           "log-log complexity fitting. Every claim matches, with one honest\n"
           "deviation: MinBFT's COMMIT phase is all-to-all in the protocol (and in\n"
           "the tutorial's own sequence diagram), so the *measured* message count\n"
           "fits O(N^2); the slide's box says O(N), counting per-sender cost. The\n"
           "headline claims - 2f+1 replicas and 2 phases, 'same as Paxos' - hold."),
    "E2": ("Paxos message flow",
           "Paper: the prepare/accept/decide diagram on 2f+1 nodes. Measured:\n"
           "exactly n messages per phase direction, majority quorums, and the\n"
           "decision existing after 4 one-way delays (2 phases), at every f."),
    "E3": ("The livelock figure",
           "Paper: 'competing proposers can livelock' (the S1..S5 schedule);\n"
           "'one solution: randomized delay before restarting.' Measured: with\n"
           "fixed symmetric restart delays, 0/10 seeded duels ever decide (100+\n"
           "preempting rounds each); with randomized backoff, 10/10 decide."),
    "E4": ("Multi-Paxos's optimisation",
           "Paper: run phase 1 only when the leader changes. Measured over 20\n"
           "commands: basic Paxos pays ~2n phase-1 messages per command; Multi-\n"
           "Paxos pays ~0 (one bootstrap election amortised over the log), with\n"
           "comparable phase-2 cost per command."),
    "E5": ("Fast Paxos",
           "Paper: 2 message delays instead of 3, needing 3f+1 nodes; collisions\n"
           "fall back to a classic round. Measured: fast round learns in exactly\n"
           "2.0 delays vs 3.0 for basic Paxos; racing clients collide in a third\n"
           "of jittered runs and always converge on exactly one value, paying\n"
           ">1.3x the delay in recovery."),
    "E6": ("Flexible Paxos",
           "Paper: only phase-1 x phase-2 intersection is needed; replication\n"
           "quorums may shrink arbitrarily; no changes to the algorithm. Measured:\n"
           "counting (|Q1|=10,|Q2|=3) and grid (4x3) systems decide with the\n"
           "unmodified Paxos engine while replication quorums sit far below the\n"
           "majority; the negative control (non-intersecting quorums) decides TWO\n"
           "values - quorum intersection is exactly where safety lives."),
    "E7": ("2PC blocks, 3PC doesn't",
           "Paper: 2PC's uncertainty window blocks; 3PC replicates the decision\n"
           "(pre-commit) and terminates. Measured: coordinator crash after votes\n"
           "blocks all 3 cohorts under 2PC forever; under 3PC the termination\n"
           "protocol elects a recovery coordinator and resolves (abort if nobody\n"
           "pre-committed, commit if anyone did), atomically, every time."),
    "E8": ("The 3f+1 lower bound",
           "Paper: the worked interactive-consistency examples. Measured: N=4/f=1\n"
           "yields identical honest vectors (1, 2, UNKNOWN, 4) - agreement and\n"
           "validity hold; N=3/f=1 yields all-UNKNOWN. The recursive OM(m) sweep\n"
           "satisfies IC exactly when n >= 3m+1."),
    "E9": ("PBFT",
           "Paper: 3 phases, 3f+1 nodes, O(N^2) agreement, O(N^3) view change.\n"
           "Measured: all three phase types present; agreement traffic fits\n"
           "O(N^2) (exponent ~2.2); view-change message count grows superlinearly\n"
           "with certificate payloads carrying the extra O(N) factor the paper\n"
           "counts in bits."),
    "E10": ("Zyzzyva",
            "Paper: speculative execution, commitment at the client; case 1 = 3f+1\n"
            "matching replies in one phase, case 2 = 2f+1 + commit certificate.\n"
            "Measured: case 1 completes in exactly 3 one-way delays (vs PBFT's 5+),\n"
            "case 2 engages exactly when a replica is silent and costs the extra\n"
            "certificate round; messages stay linear vs PBFT's quadratic."),
    "E11": ("HotStuff",
            "Paper: 7 phases, O(N) via threshold-signature QCs, leader rotation,\n"
            "pipelining. Measured: 8 one-way exchanges including the request (the\n"
            "7 the paper counts + the client hop); message growth fits O(N) while\n"
            "PBFT fits O(N^2); the chained pipeline decides 12 commands in <= 18\n"
            "views (one block per view at steady state)."),
    "E12": ("Trusted components",
            "Paper: MinBFT needs 2f+1 replicas and 2 phases ('same as Paxos');\n"
            "CheapBFT runs f+1 actives and switches to MinBFT on a PANIC.\n"
            "Measured: replica counts 4 (PBFT) vs 3 (MinBFT/CheapBFT); message\n"
            "costs CheapTiny < MinBFT < PBFT; an active-replica crash triggers\n"
            "client PANIC -> CheapSwitch -> MinBFT, finishing the workload\n"
            "consistently."),
    "E13": ("Hybrid fault models",
            "Paper: UpRight's 3m+2c+1 / 2m+c+1 / m+1 arithmetic; SeeMoRe's three\n"
            "modes (2 or 3 phases, quorum 2m+c+1 or 2m+1, O(n) or O(n^2)); XFT is\n"
            "safe outside anarchy. Measured: UpRight lives at exactly (m, c) faults\n"
            "and stalls one crash beyond, staying safe; SeeMoRe's modes order\n"
            "1 < 2 < 3 in messages with the claimed phases/quorums; XFT diverges\n"
            "under Byzantine-leader + partition (anarchy) and is provably\n"
            "safe in the no-partition control."),
    "E14": ("Circumventing FLP (randomization)",
            "Paper: sacrifice determinism - randomized consensus terminates.\n"
            "Measured: 90/90 adversarially-delayed Ben-Or runs decide with\n"
            "agreement intact; unanimous inputs finish in round 1, split inputs\n"
            "need the coin (median 2-3 rounds)."),
    "E15": ("Bitcoin PoW",
            "Paper: the mining-details figures, forks, difficulty, halving,\n"
            "centralization, weak finality, selfish mining. Measured: real SHA-256\n"
            "nonce searches track the target; fork rate falls ~8x as the block\n"
            "interval outgrows propagation; the retarget responds (clamped 4x)\n"
            "when hashrate doubles; rewards follow 50/25/12.5 ('currently');\n"
            "an 81%-hash pool wins ~81% of blocks; double-spend success matches\n"
            "Nakamoto's (q/p)^k; selfish mining turns profitable above ~1/3."),
    "E16": ("Proof of Stake",
            "Paper: a p-fraction stakeholder wins ~p of blocks; coin-age selection\n"
            "gates at 30 days, peaks at 90, resets on use. Measured: block shares\n"
            "within 6 points of stake shares for both selectors; the weight curve\n"
            "is exactly 0 before day 30, linear to 90, flat after."),
    "E17": ("Tendermint (extension)",
            "Paper: 'Tendermint has its own consensus protocol - extends PBFT with\n"
            "leader rotation.' Measured: healthy validators commit every height in\n"
            "one round with all-to-all (O(N^2)) votes; a silent proposer costs\n"
            "exactly one extra round at the heights the rotation assigns it; the\n"
            "decided blocks are hash-linked and identical on every validator."),
    "E18": ("Spanner-style transactions (extension)",
            "Paper: the Google Spanner figure - transactions (2PL+2PC) in the\n"
            "execution tier over Paxos-replicated partitions in the storage tier.\n"
            "Measured: per-transaction messages grow with the number of groups a\n"
            "transaction touches (the 2PC fan-out times each group's replication\n"
            "cost); no-wait locking + randomized retry serializes contended\n"
            "transactions exactly once; a crashed replica in every group is\n"
            "invisible to the transaction layer."),
    "E19": ("Ablations (extension)",
            "Design-choice knobs isolated one at a time: zero backoff jitter IS\n"
            "the livelock and any meaningful jitter restores liveness; frequent\n"
            "PBFT checkpoints trade checkpoint traffic for a small retained log;\n"
            "the PoW fork rate falls monotonically as the block interval outgrows\n"
            "propagation delay - the reason Bitcoin picked minutes."),
    "E22": ("Pessimistic vs optimistic replication (extension)",
            "The taxonomy's third aspect on one workload: consensus-backed\n"
            "writes cost ~3x the messages of Dynamo quorum writes; R+W > N\n"
            "eliminates staleness while R+W <= N shows it under a lossy\n"
            "replica; under a partition the CP store's minority side blocks\n"
            "while the AP store keeps accepting and converges after the heal\n"
            "- the CAP trade the DynamoDB slide is selling."),
    "E21": ("The price of tolerance (extension)",
            "One workload up the fault-model ladder: crash consensus runs on\n"
            "2f+1 replicas with the leanest message bills; trusted hardware\n"
            "(MinBFT/CheapBFT) buys Byzantine coverage at crash-like prices; full\n"
            "BFT pays 3f+1 replicas, with Zyzzyva's speculation cheapest in\n"
            "latency, PBFT quadratic in messages, and HotStuff trading latency\n"
            "(7 phases) for linearity."),
    "E23": ("Simulator throughput (harness)",
            "Not a paper figure: wall-clock events/sec and messages/sec the\n"
            "simulation substrate sustains with telemetry enabled, across\n"
            "protocols and cluster sizes. Recorded so hot-path regressions are\n"
            "visible in the bench trajectory; rates are machine-dependent and\n"
            "not asserted."),
    "E24": ("Conformance-monitor overhead (harness)",
            "Not a paper figure: the cost of watching. The same protocol run\n"
            "with the streaming conformance monitors off (the default: no\n"
            "tracer, no per-event work at all) versus on (tracer + full\n"
            "monitor battery). Monitors-off throughput is the number the\n"
            "suite's perf work defends; the on/off ratio bounds what 'repro\n"
            "check' and monitored tests pay for their verdicts.\n"
            "\n"
            "The subscription-dispatch rebuild cut the monitored-pbft ratio\n"
            "from 3.4x to ~1.9x (multi-paxos ~1.4x). Top-5 profile frames\n"
            "(tottime, 'repro profile pbft --monitors') before: tracer._emit\n"
            "(eager TraceEvent per event), tracer._message_detail (eager\n"
            "stringify), monitor.base observe (every event to every\n"
            "monitor), network.send, simulator.run. After: network.send,\n"
            "tracer.on_deliver, tracer.on_send, simulator.run,\n"
            "network._deliver_traced - the observability frames dropped ~3x\n"
            "and the transport itself is back on top. Subscriptions are now\n"
            "compiled into mtype-indexed tables, so pbft's ack-heavy deliver\n"
            "stream routes each event with one dict probe instead of testing\n"
            "every monitor's filter. Ring recording alone costs ~1.4x in pure\n"
            "Python, which floors the ratio; the CI perf gate\n"
            "(repro.telemetry.perfgate) caps it at 2.5x."),
    "E25": ("Sharded fleet scaling (extension)",
            "The modern-deployment shape: many consensus groups behind one\n"
            "keyspace. A ShardedCluster scales from 2x3 to 48x5 = 240 simulated\n"
            "nodes on one virtual clock; single-shard transactions take the\n"
            "two-round fast path while cross-shard ones pay 2PC-over-consensus\n"
            "with a replicated commit decision (Gray & Lamport). Commit density\n"
            "(committed transactions per unit of simulated time - dimensionless,\n"
            "not wall TPS) stays workload-bound - not node-count-bound - as the\n"
            "fleet grows, which is the scaling argument for sharding itself."),
    "E26": ("Parallel-scaling: fleet events/sec vs workers (extension)",
            "Not a paper figure: the conservative parallel engine\n"
            "(src/repro/parallel/) runs one sharded fleet partitioned across\n"
            "K worker processes with epoch barriers at the minimum cross-group\n"
            "link latency. The contract is that K changes nothing but speed -\n"
            "merged traces, stats and monitor verdicts are byte-identical at\n"
            "every worker count (golden-enforced) - so this experiment records\n"
            "only the speed half: events/sec over the critical path (per epoch,\n"
            "the slowest worker's CPU plus the merge CPU), the per-worker\n"
            "normalized rate whose decay is barrier + imbalance overhead, and\n"
            "wall time for transparency. The CI perf gate holds both rate\n"
            "families to the recorded trajectory."),
    "E27": ("Span-derivation overhead: the lazy span layer's price (extension)",
            "Not a paper figure: src/repro/obs/ derives per-request spans with\n"
            "critical-path latency attribution purely from the recorded trace,\n"
            "after the run. This experiment prices that laziness: run wall vs\n"
            "trace materialization (which any trace query pays) vs the span\n"
            "derivation proper, with overhead x = (run + derive) / run measured\n"
            "at ~1.2x and capped by the CI perf gate at 2.5x. A hot path that\n"
            "never asks for spans pays only the tracer's ring-buffer appends -\n"
            "span analysis is free until queried, like every observability\n"
            "layer in this repo."),
    "E28": ("Saturation knees: offered load vs tail latency (extension)",
            "Not a paper figure: the open-loop load engine (src/repro/load/)\n"
            "sweeps Poisson offered load against each protocol over\n"
            "finite-ingress replicas (QueuedDelayModel serves one message per\n"
            "0.05 virtual-time units) and finds the saturation knee - the\n"
            "highest rate absorbed before goodput collapses below 90% of\n"
            "offered or p99 blows past 3x the light-load baseline. Latency is\n"
            "measured from intended arrival time (coordinated-omission-safe),\n"
            "so queueing delay cannot hide behind a slow client. The measured\n"
            "ordering is the paper's complexity table as a latency cliff:\n"
            "leader-based multi-paxos/raft ingest ~3 messages per request and\n"
            "knee around 6 req/unit, while PBFT's all-to-all phases ingest\n"
            "~3n per replica and knee an order of magnitude lower (~1).\n"
            "Conformance monitors stay green below every knee."),
    "E29": ("Repo benchmark record: parent vs change (perfbench)",
            "Not a paper figure: the repository's benchmark (perfbench/,\n"
            "declared in BENCHMARK.json) run on a change and on its parent\n"
            "commit, on the same host. This table is recorded by hand from\n"
            "those runs; no pytest bench regenerates it. Entry 1: both log-based\n"
            "leaders find an in-flight request through a request index instead\n"
            "of scanning the log, and Raft takes its commit point from\n"
            "match_index instead of walking the log. paxos-steady's\n"
            "run_s_per_kreq falls 4.2x (10/10 pairs), and the protocols\n"
            "layer's late/early self-time ratio falls from 8.7 to about 1: per-\n"
            "request cost no longer grows with the log. Call counts and every\n"
            "vt digest are unchanged. pbft-audited does not run the changed\n"
            "code, so its 9% and paxos-steady's one-off setup_s reading are\n"
            "host drift; the pairs put setup_s within 0.5%. peak_rss_mb rises\n"
            "0.2% (the in-flight index). On raft-knee, net now leads: Raft\n"
            "ships the whole unacknowledged suffix with every AppendEntries."),
    "E20": ("Circumventing FLP (the oracle)",
            "Paper: 'adding oracle (failure detector)'. Measured: Chandra-Toueg\n"
            "rotating-coordinator consensus decides in 12/12 runs with a heartbeat\n"
            "detector - through coordinator crashes and heavy asynchrony - while\n"
            "an always-wrong oracle costs liveness but never agreement: safety is\n"
            "oracle-independent, exactly the division FLP allows."),
}

#: Which benchmark file regenerates each experiment's artifact — the
#: hint ``python -m repro experiments`` prints when artifacts are
#: missing from ``benchmarks/results/``.
EXPERIMENT_BENCHES = {
    "E1": "test_bench_property_table.py",
    "E2": "test_bench_paxos.py",
    "E3": "test_bench_livelock.py",
    "E4": "test_bench_multipaxos.py",
    "E5": "test_bench_fast_paxos.py",
    "E6": "test_bench_flexible_paxos.py",
    "E7": "test_bench_commit.py",
    "E8": "test_bench_psl_bound.py",
    "E9": "test_bench_pbft.py",
    "E10": "test_bench_zyzzyva.py",
    "E11": "test_bench_hotstuff.py",
    "E12": "test_bench_trusted.py",
    "E13": "test_bench_hybrid.py",
    "E14": "test_bench_benor.py",
    "E15": "test_bench_pow.py",
    "E16": "test_bench_pos.py",
    "E17": "test_bench_tendermint.py",
    "E18": "test_bench_dtxn.py",
    "E19": "test_bench_ablations.py",
    "E20": "test_bench_failure_detector.py",
    "E21": "test_bench_price_of_tolerance.py",
    "E22": "test_bench_optimistic.py",
    "E23": "test_bench_throughput.py",
    "E24": "test_bench_throughput.py",
    "E25": "test_bench_shards.py",
    "E26": "test_bench_parallel.py",
    "E27": "test_bench_spans.py",
    "E28": "test_bench_loadtest.py",
}


def bench_file_for(experiment_id):
    """The ``benchmarks/`` file that regenerates ``experiment_id``."""
    return EXPERIMENT_BENCHES.get(experiment_id, "test_bench_*.py")


HEADER = """# EXPERIMENTS — paper vs measured

Every figure/table in the tutorial, regenerated by `pytest benchmarks/
--benchmark-only`.  Each section: what the paper claims, what this repo
measures, and the generated table (also in `benchmarks/results/`).
Absolute numbers are simulator-scale; the reproduced content is the
*shape* — who wins, by what factor, where the boundaries fall.
E17–E20 are extensions beyond the deck's headline figures (see
DESIGN.md's extension table).
"""


def collect_results(results_dir):
    """Result files keyed by experiment id, in numeric order."""
    results_dir = pathlib.Path(results_dir)
    files = {}
    for path in results_dir.glob("E*.txt"):
        match = re.match(r"(E\d+)", path.name)
        if match:
            files[match.group(1)] = path
    return dict(sorted(files.items(),
                       key=lambda item: int(item[0][1:])))


def generate_experiments_md(results_dir="benchmarks/results",
                            output="EXPERIMENTS.md"):
    """Assemble EXPERIMENTS.md; returns (path, number of experiments).

    Experiments without commentary get a placeholder note so new benches
    are never silently dropped from the record.
    """
    sections = [HEADER]
    files = collect_results(results_dir)
    for eid, path in files.items():
        title, note = EXPERIMENT_NOTES.get(
            eid, (path.stem, "(no commentary recorded yet)")
        )
        sections.append("## %s — %s\n\n%s\n\n```\n%s\n```\n"
                        % (eid, title, note, path.read_text().rstrip()))
    text = "\n".join(sections)
    out_path = pathlib.Path(output)
    out_path.write_text(text)
    return out_path, len(files)
