"""Run-time instrumentation of the simulator's layers, from outside it.

Nothing here edits the program.  Both recorders replace public entry
points on their classes (or at the module name a caller looks up) for
the length of a ``with`` block and put the originals back on exit, so
runs in the same process before and after are unaffected.

:class:`SampleRecorder` is on for every run.  It costs a few operations
per request: it keeps every latency (for exact order statistics), the
generator's lateness, and each sharded transaction's outcome.

:class:`LayerTracer` is on only for the separate traced run.  It opens a
span at each layer boundary.  A span is a frame on an in-memory stack
that holds its layer, its start, and the time its children took; when
it closes, its duration less its children's time is that layer's self
time, and its duration is added to its parent's child time.  Closed
spans are folded into per-layer totals, written out when the run ends.
"""

import collections
import functools
import hashlib
import sys
import time

from repro.core.node import Node
from repro.crypto import hashing
from repro.dtxn.state_machine import TxnKVStateMachine
from repro.load.slo import LatencyAccountant
from repro.metrics.collector import MetricsCollector
from repro.monitor.base import Monitor
from repro.net.delivery import QueuedDelayModel
from repro.net.network import Network
from repro.protocols.multipaxos import ListStateMachine
from repro.shard import ShardedCluster
from repro.sim.events import EventQueue
from repro.sim.process import Timer
from repro.sim.simulator import Simulator
from repro.smr.state_machine import KVStateMachine
from repro.telemetry.instruments import Histogram
from repro.trace.tracer import Tracer
import repro.monitor.library  # noqa: F401  (defines the Monitor subclasses)

#: Package under ``repro`` -> the layer its code is charged to.
LAYER_OF_PACKAGE = {
    "core": "sim",
    "sim": "sim",
    "net": "net",
    "protocols": "protocols",
    "crypto": "crypto",
    "trace": "trace",
    "monitor": "monitor",
    "smr": "smr",
    "shard": "shard",
    "dtxn": "shard",
    "metrics": "telemetry",
    "telemetry": "telemetry",
    "load": "load",
    "parallel": "parallel",
}

#: Layers whose per-request self time is compared early against late.
GROWTH_LAYERS = ("protocols", "crypto")

_MISSING = object()


def layer_of_module(module):
    """The layer that code defined in ``module`` belongs to."""
    parts = (module or "").split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "bench"
    return LAYER_OF_PACKAGE.get(parts[1], parts[1])


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, name, value):
        self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def wrap(self, owner, name, make):
        """Replace ``owner.name`` by ``make(current)``."""
        self.replace(owner, name, make(getattr(owner, name)))

    def restore(self):
        while self._saved:
            owner, name, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


class SampleRecorder:
    """Exact per-request outcomes of the load runs inside its block."""

    def __init__(self):
        self.latencies = []
        self.offered = 0
        self.abandoned = 0
        self.lateness_max = 0.0
        self.transactions = []
        self.first_arrival = None  # perf_counter() at the first arrival
        self._sim = None
        self._patches = Patches()

    def __enter__(self):
        recorder = self
        patches = self._patches

        def track_sim(run):
            @functools.wraps(run)
            def wrapper(sim, *args, **kwargs):
                recorder._sim = sim
                return run(sim, *args, **kwargs)
            return wrapper

        def arrive(original):
            @functools.wraps(original)
            def wrapper(accountant, intended):
                if recorder.first_arrival is None:
                    recorder.first_arrival = time.perf_counter()
                recorder.offered += 1
                late = recorder._sim.now - intended
                if late > recorder.lateness_max:
                    recorder.lateness_max = late
                return original(accountant, intended)
            return wrapper

        def complete(original):
            @functools.wraps(original)
            def wrapper(accountant, intended, finished):
                recorder.latencies.append(finished - intended)
                return original(accountant, intended, finished)
            return wrapper

        def abandon(original):
            @functools.wraps(original)
            def wrapper(accountant, intended):
                recorder.abandoned += 1
                return original(accountant, intended)
            return wrapper

        def submit(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                txn = original(*args, **kwargs)
                recorder.transactions.append(txn)
                return txn
            return wrapper

        patches.wrap(Simulator, "run", track_sim)
        patches.wrap(LatencyAccountant, "arrive", arrive)
        patches.wrap(LatencyAccountant, "complete", complete)
        patches.wrap(LatencyAccountant, "abandon", abandon)
        patches.wrap(ShardedCluster, "submit", submit)
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False


class LayerTracer:
    """Spans around every layer entry point of the runs in its block.

    Entry points: ``Simulator.run``, ``EventQueue.pop_entry`` (and the
    callback each popped event runs, charged to the layer of the code
    that owns it), ``Network.send``/``multicast``,
    ``QueuedDelayModel.delay`` (sampling the destination's ingress
    backlog through ``queue_depth``), ``Node.deliver`` (charged to the
    module of the receiving node's class), ``sha256_hex`` wherever a module
    imported it, the state machines' ``apply``, ``LatencyAccountant``,
    ``ShardedCluster.submit``, ``Tracer.on_*``, the monitors'
    ``observe``/``observe_raw``/``tick``, ``MetricsCollector`` and
    ``Histogram.observe``.
    """

    def __init__(self):
        self.self_s = collections.defaultdict(float)
        self.calls = collections.Counter()  # entry point -> calls
        self.layer_calls = collections.Counter()
        self.hashed_bytes = 0
        self.depth_sum = 0.0
        self.depth_max = 0.0
        self.depth_samples = 0
        self.redirects = 0
        self.sends_by_layer = collections.Counter()
        #: per-completion snapshot of the GROWTH_LAYERS self times
        self.growth = []
        self.collectors = []
        self._stack = []
        self._owner_layer = {}
        self._patches = Patches()

    # -- spans ----------------------------------------------------------------

    def _run_span(self, layer, key, fn, args, kwargs=None):
        """Call ``fn`` inside one span of ``layer``, counted under ``key``."""
        self.calls[key] += 1
        self.layer_calls[layer] += 1
        stack = self._stack
        frame = [0.0]  # time the span's children took
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self.self_s[layer] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed

    def _span(self, layer, key, fn):
        """``fn`` wrapped so that every call is a span."""
        run_span = self._run_span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return run_span(layer, key, fn, args, kwargs)
        return wrapper

    def _layer_of_callable(self, fn):
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, Timer):
            # A timer's layer is that of the callback it fires.
            fn = getattr(owner, "_callback", fn)
            owner = getattr(fn, "__self__", None)
        key = (type(owner), getattr(fn, "__func__", fn))
        layer = self._owner_layer.get(key)
        if layer is None:
            module = type(owner).__module__ if owner is not None \
                else getattr(fn, "__module__", None)
            layer = self._owner_layer[key] = layer_of_module(module)
        return layer

    def _dispatch(self, callback, args):
        return self._run_span(self._layer_of_callable(callback),
                              "event", callback, args)

    # -- install ---------------------------------------------------------------

    def __enter__(self):
        tracer = self
        patches = self._patches
        span = self._span

        def traced(owner, name, layer):
            patches.wrap(owner, name, lambda fn: span(
                layer, "%s.%s" % (getattr(owner, "__name__", owner), name), fn))

        traced(Simulator, "run", "sim")
        pop_entry = span("sim", "EventQueue.pop_entry", EventQueue.pop_entry)
        dispatch = self._dispatch

        def popped(queue, horizon=None):
            entry = pop_entry(queue, horizon)
            if entry is None:
                return None
            return (entry[0], dispatch, (entry[1], entry[2]))
        patches.replace(EventQueue, "pop_entry", popped)

        def send(original):
            network_layer = {}
            wrapped = span("net", "Network.send", original)

            def wrapper(network, src, dst, message, _size=None):
                layer = network_layer.get(src)
                if layer is None:
                    layer = network_layer[src] = layer_of_module(
                        type(network.node(src)).__module__)
                tracer.sends_by_layer[layer] += 1
                if message.mtype.endswith("redirect"):
                    tracer.redirects += 1
                return wrapped(network, src, dst, message, _size)
            return wrapper
        patches.wrap(Network, "send", send)
        traced(Network, "multicast", "net")

        def delay(original):
            wrapped = span("net", "QueuedDelayModel.delay", original)

            def wrapper(model, rng, src, dst, now):
                # Service slots reserved at the destination's ingress
                # server when this message is sent, by messages queued
                # there and by those still on the wire (a slot is
                # reserved at send time), so an idle server reads about
                # the mean wire delay over the service time.
                depth = model.queue_depth(dst, now)
                tracer.depth_sum += depth
                tracer.depth_samples += 1
                if depth > tracer.depth_max:
                    tracer.depth_max = depth
                return wrapped(model, rng, src, dst, now)
            return wrapper
        patches.wrap(QueuedDelayModel, "delay", delay)

        def deliver(original):
            node_layer = {}

            def wrapper(node, message, src):
                cls = type(node)
                layer = node_layer.get(cls)
                if layer is None:
                    layer = node_layer[cls] = layer_of_module(cls.__module__)
                return tracer._run_span(layer, "Node.deliver", original,
                                        (node, message, src))
            return wrapper
        patches.wrap(Node, "deliver", deliver)

        self._install_crypto(patches)
        for machine in (ListStateMachine, KVStateMachine, TxnKVStateMachine):
            traced(machine, "apply", "smr")

        for name in ("arrive", "abandon", "report"):
            traced(LatencyAccountant, name, "load")

        def complete(original):
            wrapped = span("load", "LatencyAccountant.complete", original)
            self_s = tracer.self_s

            def wrapper(accountant, intended, finished):
                result = wrapped(accountant, intended, finished)
                tracer.growth.append(tuple(self_s[layer]
                                           for layer in GROWTH_LAYERS))
                return result
            return wrapper
        patches.wrap(LatencyAccountant, "complete", complete)
        traced(ShardedCluster, "submit", "shard")

        for name in sorted(vars(Tracer)):
            if name.startswith("on_"):
                traced(Tracer, name, "trace")
        for monitor_class in _subclasses(Monitor):
            for name in ("observe", "observe_raw", "tick"):
                if name in vars(monitor_class):
                    traced(monitor_class, name, "monitor")
        self._install_collector(patches)
        traced(Histogram, "observe", "telemetry")
        return self

    def _install_crypto(self, patches):
        tracer = self
        original = hashing.sha256_hex
        wrapped = self._span("crypto", "sha256_hex", original)
        # Every module that imported the function looks it up under its
        # own name, so each of those names is replaced.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") \
                    and getattr(module, "sha256_hex", None) is original:
                patches.replace(module, "sha256_hex", wrapped)

        class CountingSha256:
            def __init__(self):
                self._digest = hashlib.sha256()

            def update(self, data):
                tracer.hashed_bytes += len(data)
                self._digest.update(data)

            def hexdigest(self):
                return self._digest.hexdigest()

        class CountingHashlib:
            sha256 = CountingSha256

        patches.replace(hashing, "hashlib", CountingHashlib)

    def _install_collector(self, patches):
        tracer = self
        for name, value in sorted(vars(MetricsCollector).items()):
            if name.startswith("_"):
                continue
            key = "MetricsCollector.%s" % name
            if isinstance(value, property):
                patches.replace(MetricsCollector, name, property(
                    self._span("telemetry", key, value.fget)))
            elif callable(value):
                patches.replace(MetricsCollector, name,
                                self._span("telemetry", key, value))

        def slot_for(original):
            def wrapper(collector, *args):
                if collector not in tracer.collectors:
                    tracer.collectors.append(collector)
                return original(collector, *args)
            return wrapper
        patches.wrap(MetricsCollector, "slot_for", slot_for)

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    # -- results ---------------------------------------------------------------

    def bytes_sent(self):
        """Bytes every network of the run put on the wire."""
        fget = MetricsCollector.bytes_total.fget
        return sum(fget(collector) for collector in self.collectors)

    def late_over_early(self, layer):
        """Self time per completion over the last quarter of completions
        divided by that over the first quarter (0 when the layer did no
        work early on)."""
        index = GROWTH_LAYERS.index(layer)
        series = [snapshot[index] for snapshot in self.growth]
        quarter = len(series) // 4
        if quarter < 1:
            return 0.0
        early = series[quarter] - series[0]
        late = series[-1] - series[-1 - quarter]
        return late / early if early > 0 else 0.0


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found
