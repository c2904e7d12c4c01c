"""Tests for the servlet container: dispatch, caching, db pooling."""

import pytest

from repro.apps.db import Database, DatabaseServer, QueryPlan, Table
from repro.apps.tomcat import Servlet, ServletCache, TomcatServer
from repro.channels.rpc import call
from repro.core.profiler import ProfilerMode, work
from repro.sim import CurrentThread, Delay, Kernel
from repro.sim.process import frame


class EchoServlet(Servlet):
    name = "Echo"

    def run(self, container, thread, param):
        yield work(thread, container.cpu, 1e-4)
        return ("echo", param), 1000


class CacheableServlet(Servlet):
    name = "Cacheable"
    cacheable = True
    cache_ttl = 10.0

    def __init__(self):
        self.executions = 0

    def run(self, container, thread, param):
        self.executions += 1
        yield work(thread, container.cpu, 1e-3)
        return ("fresh", param), 2000


def make_tomcat(kernel, caching=False, with_db=False, **kwargs):
    db = None
    db_listener = None
    if with_db:
        db = Database(kernel)
        db.add_table(Table("item"))
        server = DatabaseServer(db, latency=0.0)
        server.start()
        db_listener = server.listener
    servlets = {"Echo": EchoServlet(), "Cacheable": CacheableServlet()}
    tomcat = TomcatServer(
        kernel,
        servlets,
        db_listener=db_listener,
        db_connections=2,
        caching=caching,
        listen_latency=0.0,
        **kwargs,
    )
    tomcat.start()
    return tomcat, db


def send_and_wait(kernel, tomcat, payload, out):
    def client():
        thread = yield CurrentThread()
        connection = tomcat.listener.connect()
        response = yield from call(
            thread, connection.to_server, connection.to_client, payload, 100
        )
        out.append(response)

    kernel.spawn(client())


def test_dispatch_to_servlet():
    kernel = Kernel()
    tomcat, _ = make_tomcat(kernel)
    out = []
    send_and_wait(kernel, tomcat, ("TPCW", "Echo", 7), out)
    kernel.run(until=1.0)
    assert out[0].payload == ("echo", 7)
    assert out[0].size == 1000
    assert tomcat.requests_served == 1


def test_unknown_servlet_yields_404():
    kernel = Kernel()
    tomcat, _ = make_tomcat(kernel)
    out = []
    send_and_wait(kernel, tomcat, ("TPCW", "Ghost", None), out)
    kernel.run(until=1.0)
    assert out[0].payload == ("404", "Ghost")


def test_static_image_serving():
    kernel = Kernel()
    tomcat, _ = make_tomcat(kernel, static_size_of=lambda key: 4321)
    out = []
    send_and_wait(kernel, tomcat, ("IMG", 42), out)
    kernel.run(until=1.0)
    assert out[0].payload == ("IMG", 42)
    assert out[0].size == 4321


def test_caching_skips_execution_within_ttl():
    kernel = Kernel()
    tomcat, _ = make_tomcat(kernel, caching=True)
    servlet = tomcat.servlets["Cacheable"]
    out = []
    send_and_wait(kernel, tomcat, ("TPCW", "Cacheable", "k"), out)
    kernel.run(until=1.0)
    send_and_wait(kernel, tomcat, ("TPCW", "Cacheable", "k"), out)
    kernel.run(until=2.0)
    assert servlet.executions == 1
    assert tomcat.cache.hits == 1
    assert out[1].size == 2000  # cached size preserved


def test_cache_expires_after_ttl():
    kernel = Kernel()
    tomcat, _ = make_tomcat(kernel, caching=True)
    servlet = tomcat.servlets["Cacheable"]
    out = []
    send_and_wait(kernel, tomcat, ("TPCW", "Cacheable", "k"), out)
    kernel.run(until=1.0)

    def later():
        yield Delay(11.0)  # beyond the 10s TTL

    kernel.spawn(later())
    kernel.run(until=12.0)
    send_and_wait(kernel, tomcat, ("TPCW", "Cacheable", "k"), out)
    kernel.run(until=13.0)
    assert servlet.executions == 2


def test_caching_disabled_always_executes():
    kernel = Kernel()
    tomcat, _ = make_tomcat(kernel, caching=False)
    servlet = tomcat.servlets["Cacheable"]
    out = []
    for _ in range(3):
        send_and_wait(kernel, tomcat, ("TPCW", "Cacheable", "k"), out)
    kernel.run(until=2.0)
    assert servlet.executions == 3
    assert tomcat.cache.hits == 0


def test_distinct_cache_keys_per_param():
    kernel = Kernel()
    tomcat, _ = make_tomcat(kernel, caching=True)
    servlet = tomcat.servlets["Cacheable"]
    out = []
    send_and_wait(kernel, tomcat, ("TPCW", "Cacheable", "a"), out)
    send_and_wait(kernel, tomcat, ("TPCW", "Cacheable", "b"), out)
    kernel.run(until=1.0)
    assert servlet.executions == 2


def test_servlet_cache_unit():
    kernel = Kernel()
    cache = ServletCache(kernel)
    cache.insert("k", "v", 10, ttl=None)
    assert cache.lookup("k") == ("v", 10)
    assert cache.hits == 1
    assert len(cache) == 1
    assert cache.lookup("missing") is None
    assert cache.misses == 1


class DbServlet(Servlet):
    name = "DbServlet"

    def run(self, container, thread, param):
        plan = QueryPlan("q", reads=("item",), cpu_cost=1e-3)
        yield from container.query(thread, plan)
        return ("done", param), 500


def test_query_through_connection_pool():
    kernel = Kernel()
    tomcat, db = make_tomcat(kernel, with_db=True)
    tomcat.servlets["DbServlet"] = DbServlet()
    out = []
    for i in range(4):
        send_and_wait(kernel, tomcat, ("TPCW", "DbServlet", i), out)
    kernel.run(until=2.0)
    assert len(out) == 4
    assert db.queries_executed == 4
    assert tomcat.db_calls == 4
    assert tomcat.db_pool.available == 2  # all returned


def test_query_without_db_raises():
    kernel = Kernel()
    tomcat, _ = make_tomcat(kernel, with_db=False)
    tomcat.servlets["DbServlet"] = DbServlet()
    out = []
    send_and_wait(kernel, tomcat, ("TPCW", "DbServlet", 1), out)
    with pytest.raises(RuntimeError):
        kernel.run(until=1.0)
