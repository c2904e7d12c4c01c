"""§4.1's DNS server example: hit and miss transactions get separate
contexts.

"Consider an event-driven DNS server.  Two different transactions are
possible in this application: one corresponding to a cache hit and the
other corresponding to a cache miss.  Typically, cache hit and cache
miss events are handled by different event handlers.  So, two different
transaction contexts will be established for this application."
"""

import pytest

from repro.core.context import TransactionContext
from repro.core.profiler import OverheadModel, ProfilerMode, StageRuntime, work
from repro.events import Event, EventLoop
from repro.sim import CPU, Kernel, Rng

ZERO = OverheadModel(0.0, 0.0, 0.0, 0.0, 0.0)


def ctxt(*elements):
    return TransactionContext(elements)


class DnsServer:
    """A toy event-driven resolver with an answer cache."""

    def __init__(self, kernel, loop, cpu):
        self.kernel = kernel
        self.loop = loop
        self.cpu = cpu
        self.cache = {}
        self.answered = []

    def query(self, name):
        self.loop.event_add(Event("recv_query", self.recv_query, payload=name))

    def recv_query(self, loop, event):
        name = event.payload
        yield work(loop.thread, self.cpu, 10e-6)
        if name in self.cache:
            loop.event_add(Event("cache_hit", self.cache_hit, payload=name))
        else:
            loop.event_add(Event("cache_miss", self.cache_miss, payload=name))

    def cache_hit(self, loop, event):
        yield work(loop.thread, self.cpu, 5e-6)
        self.answered.append((event.payload, "hit"))

    def cache_miss(self, loop, event):
        # Recursive resolution: ask upstream, wait via a timer event.
        yield work(loop.thread, self.cpu, 30e-6)
        loop.event_add_timer(
            Event("upstream_reply", self.upstream_reply, payload=event.payload),
            delay=0.02,
        )

    def upstream_reply(self, loop, event):
        yield work(loop.thread, self.cpu, 15e-6)
        self.cache[event.payload] = "1.2.3.4"
        self.answered.append((event.payload, "miss"))


@pytest.fixture
def dns():
    kernel = Kernel()
    stage = StageRuntime("named", mode=ProfilerMode.WHODUNIT, overhead=ZERO)
    loop = EventLoop(kernel, name="named")
    kernel.spawn(loop.run(), stage=stage)
    cpu = CPU(kernel, name="dns-cpu")
    server = DnsServer(kernel, loop, cpu)
    return kernel, stage, server


def test_hit_and_miss_establish_distinct_contexts(dns):
    kernel, stage, server = dns
    server.query("example.com")  # miss
    kernel.run(until=0.1)
    server.query("example.com")  # hit now
    kernel.run(until=0.2)

    labels = set(stage.ccts.keys())
    assert ctxt("recv_query", "cache_hit") in labels
    assert ctxt("recv_query", "cache_miss") in labels
    assert ctxt("recv_query", "cache_miss", "upstream_reply") in labels
    assert server.answered == [("example.com", "miss"), ("example.com", "hit")]


def test_timer_event_inherits_registration_context(dns):
    kernel, stage, server = dns
    server.query("slow.example")
    kernel.run(until=0.1)
    # The upstream reply's samples sit under the miss context chain.
    miss_chain = ctxt("recv_query", "cache_miss", "upstream_reply")
    assert stage.ccts[miss_chain].total_weight() > 0


def test_negative_timer_rejected(dns):
    kernel, stage, server = dns
    loop = server.loop
    with pytest.raises(ValueError):
        loop.event_add_timer(Event("x", server.cache_hit), delay=-1.0)


def test_many_queries_hit_ratio_grows(dns):
    kernel, stage, server = dns
    rng = Rng(5)
    names = [f"host{i}.example" for i in range(10)]
    for i in range(50):
        server.query(rng.choice(names))
        kernel.run(until=kernel.now + 0.05)
    hits = sum(1 for _, kind in server.answered if kind == "hit")
    misses = sum(1 for _, kind in server.answered if kind == "miss")
    assert misses >= 10  # each distinct name misses once
    assert hits > 20
    # CPU-weighted: miss path costs more per query, so the miss context
    # holds a disproportionate share (what the profile is for).
    hit_w = stage.ccts[ctxt("recv_query", "cache_hit")].total_weight()
    miss_w = (
        stage.ccts[ctxt("recv_query", "cache_miss")].total_weight()
        + stage.ccts[ctxt("recv_query", "cache_miss", "upstream_reply")].total_weight()
    )
    assert miss_w / misses > hit_w / hits
