"""Tests for workload generation, including end-to-end store driving."""

import random

import pytest

from repro.load.workloads import (
    OpMix,
    ZipfKeys,
    _cumulative_weights,
    generate_commands,
)


class TestZipfKeys:
    def test_uniform_at_zero_skew(self):
        keys = ZipfKeys(10, s=0.0)
        for rank in range(10):
            assert keys.probability(rank) == pytest.approx(0.1)

    def test_skew_orders_probabilities(self):
        keys = ZipfKeys(10, s=1.0)
        probs = [keys.probability(rank) for rank in range(10)]
        assert probs == sorted(probs, reverse=True)
        assert probs[0] > 3 * probs[-1]

    def test_empirical_matches_exact(self):
        keys = ZipfKeys(5, s=1.0)
        rng = random.Random(1)
        counts = {}
        draws = 20000
        for _ in range(draws):
            key = keys.sample(rng)
            counts[key] = counts.get(key, 0) + 1
        for rank in range(5):
            expected = keys.probability(rank)
            observed = counts.get("key-%d" % rank, 0) / draws
            assert abs(observed - expected) < 0.02, rank

    def test_deterministic_given_rng(self):
        keys = ZipfKeys(8, s=0.9)
        a = [keys.sample(random.Random(7)) for _ in range(1)]
        b = [keys.sample(random.Random(7)) for _ in range(1)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfKeys(0)
        with pytest.raises(ValueError):
            ZipfKeys(5, s=-1)

    def test_probabilities_sum_to_one(self):
        for s in (0.0, 0.5, 0.99, 1.2):
            keys = ZipfKeys(64, s=s)
            total = sum(keys.probability(rank) for rank in range(64))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_sample_rank_matches_sample(self):
        keys = ZipfKeys(16, s=0.9, prefix="obj")
        rank = keys.sample_rank(random.Random(5))
        assert keys.sample(random.Random(5)) == "obj-%d" % rank

    def test_cumulative_table_interned_across_prefixes(self):
        # The weight table depends only on (n_keys, s): equivalent
        # samplers share one immutable tuple, and construction after
        # the first is a cache hit rather than an O(n) rebuild.
        a = ZipfKeys(1000, s=0.99, prefix="key")
        b = ZipfKeys(1000, s=0.99, prefix="other")
        assert a._cumulative is b._cumulative
        assert a._cumulative is _cumulative_weights(1000, 0.99)
        assert ZipfKeys(1000, s=0.5)._cumulative is not a._cumulative


class TestOpMix:
    def test_ratios_respected(self):
        mix = OpMix(ZipfKeys(5), reads=0.7, writes=0.3, increments=0.0)
        rng = random.Random(2)
        ops = [mix.sample(rng)[0] for _ in range(4000)]
        read_ratio = ops.count("get") / len(ops)
        assert abs(read_ratio - 0.7) < 0.03
        assert "incr" not in ops

    def test_write_values_distinct(self):
        mix = OpMix(ZipfKeys(3), reads=0.0, writes=1.0, increments=0.0)
        rng = random.Random(3)
        values = [mix.sample(rng)[2] for _ in range(50)]
        assert len(set(values)) == 50

    def test_all_zero_ratios_rejected(self):
        with pytest.raises(ValueError):
            OpMix(ZipfKeys(3), reads=0, writes=0, increments=0)


class TestEndToEnd:
    def test_replicated_kv_serves_zipfian_mix(self):
        from repro.smr import ReplicatedKV
        kv = ReplicatedKV(n_replicas=3, protocol="multi-paxos", seed=41)
        commands = generate_commands(random.Random(41), 40, n_keys=8,
                                     skew=1.0)
        for command in commands:
            kv.execute(command)
        kv.settle()
        assert kv.check_consistency()

    def test_eventual_kv_serves_the_same_mix(self):
        from repro.dynamo import EventualKV
        store = EventualKV(n_replicas=3, n=3, r=2, w=2, seed=42)
        commands = generate_commands(random.Random(42), 30, n_keys=8)
        counters = {}
        for command in commands:
            if command[0] == "get":
                store.get(command[1])
            elif command[0] == "put":
                store.put(command[1], command[2])
            else:  # incr: read-modify-write through the context
                value, ctx = store.get(command[1])
                base = value if isinstance(value, int) else 0
                store.put(command[1], base + 1, context=ctx)
        store.settle(150.0)
        # Every written key converged across its preference list.
        keys = {c[1] for c in commands}
        assert all(store.converged(key) for key in keys)
