"""The fourteen TPC-W interactions as servlets.

Each interaction is a separate servlet class (as in the implementation
the paper profiles), so each has a distinct call path at Tomcat and
hence extends a distinct transaction context into MySQL.

BestSellers and SearchResult implement the clause-6.3.3.1 caching the
paper adds as its optimisation: BestSellers results (per subject) may be
cached for 30 seconds, SearchResult by-subject results for 30 seconds,
and by-title/by-author results forever.  Caching only takes effect when
the container is constructed with ``caching=True``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.apps.tomcat.container import Servlet, TomcatServer
from repro.apps.tpcw.model import (
    PAGE_BYTES,
    TOMCAT_SERVLET_COST,
    TpcwModel,
)
from repro.core.profiler import work
from repro.sim.process import SimThread, frame

RESULT_CACHE_TTL = 30.0  # clause 6.3.3.1: 30 seconds


class TpcwServlet(Servlet):
    """Generic TPC-W interaction servlet: render + one database query."""

    cacheable = False
    cache_ttl: Optional[float] = RESULT_CACHE_TTL

    def __init__(self, name: str, model: TpcwModel):
        self.name = name
        self.model = model
        self.page_bytes = PAGE_BYTES[name]
        self.executions = 0

    def run(self, container: TomcatServer, thread: SimThread, param: Any) -> Iterator:
        self.executions += 1
        with frame(thread, "doGet"):
            yield work(thread, container.cpu, TOMCAT_SERVLET_COST / 2)
            for plan in self.model.query_plans(self.name, param):
                yield from container.query(thread, plan)
            with frame(thread, "render_page"):
                yield work(thread, container.cpu, TOMCAT_SERVLET_COST / 2)
        return (self.name, param), self.page_bytes


class BestSellersServlet(TpcwServlet):
    """Heavy order-history sort; results cacheable per subject (30s)."""

    cacheable = True
    cache_ttl = RESULT_CACHE_TTL

    def cache_key(self, param: Any) -> Any:
        return ("BestSellers", param)  # param is the subject index


class SearchResultServlet(TpcwServlet):
    """Heavy search sort; by-subject cached 30s, title/author forever."""

    cacheable = True

    def cache_key(self, param: Any) -> Any:
        return ("SearchResult", param)

    def cache_ttl_for(self, param: Any) -> Optional[float]:
        kind, _ = param
        if kind == "subject":
            return RESULT_CACHE_TTL
        return None  # title/author results may be cached forever


def build_servlets(model: TpcwModel) -> Dict[str, Servlet]:
    """All fourteen interaction servlets, keyed by interaction name."""
    servlets: Dict[str, Servlet] = {}
    from repro.apps.tpcw.model import INTERACTIONS

    for name in INTERACTIONS:
        if name == "BestSellers":
            servlets[name] = BestSellersServlet(name, model)
        elif name == "SearchResult":
            servlets[name] = SearchResultServlet(name, model)
        else:
            servlets[name] = TpcwServlet(name, model)
    return servlets
