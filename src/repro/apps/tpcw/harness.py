"""The full three-tier TPC-W system: Squid → Tomcat → MySQL (§8.4).

Assembles the bookstore exactly as the paper deploys it: all requests
flow through Squid (which caches the static book images), dynamic pages
are produced by the fourteen servlets in Tomcat, and persistent data
lives in the MySQL-like database.  The harness exposes the two
optimisations the paper derives from Whodunit's profile:

- ``item_engine=INNODB`` converts the item table to row-level locking
  (Fig 11's AdminConfirm improvement);
- ``caching=True`` enables clause-6.3.3.1 result caching for
  BestSellers/SearchResult (Fig 11/12's throughput improvement).

``profiler_mode`` selects the Table 2 column: OFF, CSPROF, WHODUNIT or
GPROF, applied to all three tiers.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.apps.db.engine import Database, DatabaseServer
from repro.apps.db.locks import MYISAM, Table
from repro.apps.proxy.squid import SquidProxy
from repro.apps.tomcat.container import TomcatServer
from repro.apps.tpcw.model import (
    IMAGE_BYTES,
    INTERACTIONS,
    TpcwModel,
)
from repro.apps.tpcw.servlets import build_servlets
from repro.apps.tpcw.workload import TpcwClientPool
from repro.channels.rpc import RetryPolicy
from repro.core.context import TransactionContext
from repro.core.profiler import OverheadModel, ProfilerMode
from repro.core.stitch import StitchError, resolve_context, stitch_profiles
from repro.faults import FaultPlan, install_faults
from repro.sim import Kernel, Rng


class TpcwResults:
    """Measurements from one TPC-W run."""

    def __init__(self, system: "TpcwSystem", window_start: float, window_end: float):
        self.system = system
        self.window_start = window_start
        self.window_end = window_end
        self.log = system.clients.log

    # ------------------------------------------------------------------
    def throughput_tpm(self) -> float:
        """Interactions per minute in the measurement window (Fig 12)."""
        return self.log.throughput(self.window_start, self.window_end) * 60.0

    def mean_response(self, interaction: Optional[str] = None) -> float:
        return self.log.mean_response(interaction)

    def db_cpu_weights(self) -> Dict[str, float]:
        """Raw MySQL CPU profile weight per interaction.

        The unnormalised form of :meth:`db_cpu_share`; shard results
        return this so a sharded run can sum weights across shards
        before normalising once.
        """
        weights: Dict[str, float] = {}
        for label, cct in self.system.db.stage.ccts.items():
            name = self.system.classify_context(label)
            key = name if name is not None else "<other>"
            weights[key] = weights.get(key, 0.0) + cct.total_weight()
        return weights

    def db_cpu_share(self) -> Dict[str, float]:
        """% of MySQL CPU profile per interaction (Table 1, column 1)."""
        weights = self.db_cpu_weights()
        total = sum(weights.values())
        if total == 0:
            return {}
        return {name: 100.0 * value / total for name, value in weights.items()}

    def crosstalk_wait_ms(self) -> Dict[str, float]:
        """Mean crosstalk wait per executed interaction, in ms

        (Table 1, column 2): total lock wait attributed to the
        interaction type divided by its completed instances.
        """
        out: Dict[str, float] = {}
        for interaction in INTERACTIONS:
            count = self.log.count(interaction)
            if count == 0:
                continue
            total_wait = self.system.db.crosstalk.total_wait_of(interaction)
            out[interaction] = 1000.0 * total_wait / count
        return out

    def comm_overhead(self) -> Dict[str, int]:
        """Data vs piggy-backed context bytes across all stages (§9.1)."""
        stages = [
            self.system.squid.stage,
            self.system.tomcat.stage,
            self.system.db.stage,
        ]
        return {
            "data_bytes": sum(s.comm_data_bytes for s in stages),
            "context_bytes": sum(s.comm_context_bytes for s in stages),
        }

    def stitch(self, strict: Optional[bool] = None):
        """The run's stitched profile.

        ``strict`` defaults to True for a lossless run (any unresolvable
        synopsis is a bug and should abort loudly) and False when faults
        were injected (crash amnesia legitimately leaves unresolvable
        references; they degrade to ``<unresolved:...>`` placeholders and
        the profile reports its completeness ratio).
        """
        if strict is None:
            strict = self.system.faults is None
        return stitch_profiles(
            self.system._stages_by_name.values(), strict=strict
        )

    def stitch_completeness(self) -> float:
        """Fraction of synopsis references stitching could resolve."""
        return self.stitch(strict=False).completeness

    def fault_report(self) -> Dict[str, Any]:
        """Injection totals plus per-tier recovery counters."""
        system = self.system
        report: Dict[str, Any] = {
            "injected": (
                system.faults.report() if system.faults is not None else {}
            ),
            "client_resends": system.clients.resends,
            "client_reconnects": system.clients.reconnects,
            "client_stale_responses": system.clients.stale_responses,
            "db_timeouts": system.tomcat.db_timeouts,
        }
        for name, stage in system._stages_by_name.items():
            report[f"{name}_retransmits"] = stage.retransmits
            report[f"{name}_abandoned"] = stage.abandoned_requests
            report[f"{name}_violations"] = dict(stage.protocol_violations)
            report[f"{name}_crashes"] = stage.crashes
        return report


class TpcwSystem:
    """A complete, runnable TPC-W deployment."""

    def __init__(
        self,
        clients: int = 100,
        caching: bool = False,
        item_engine: str = MYISAM,
        profiler_mode: ProfilerMode = ProfilerMode.WHODUNIT,
        think_mean: float = 7.0,
        db_connections: int = 24,
        seed: int = 42,
        overhead: Optional[OverheadModel] = None,
        mix: str = "browsing",
        fault_plan: Any = None,
        fault_seed: int = 0,
        retry: Optional[RetryPolicy] = None,
    ):
        self.kernel = Kernel()
        # Faults must be installed before any endpoint exists: endpoints
        # capture their fault state at construction, like telemetry.
        self.faults = None
        if fault_plan is not None:
            plan = FaultPlan.parse(fault_plan)
            if not plan.is_noop:
                self.faults = install_faults(self.kernel, plan, fault_seed)
        self.retry = retry
        self.rng = Rng(seed)
        self.model = TpcwModel(self.rng.stream("model"))

        # --- database tier -------------------------------------------
        self.db = Database(self.kernel, mode=profiler_mode, overhead=overhead)
        for table_name, rows in [
            ("item", 10_000),
            ("author", 2_500),
            ("orders", 25_000),
            ("customer", 2_880),
            ("cc_xacts", 25_000),
            ("shopping_cart", 2_880),
        ]:
            engine = item_engine if table_name == "item" else MYISAM
            self.db.add_table(Table(table_name, rows=rows, engine=engine))
        self.db.crosstalk.set_classifier(self.classify_context)
        self.db_server = DatabaseServer(self.db)

        # --- application tier ----------------------------------------
        self.servlets = build_servlets(self.model)
        self.tomcat = TomcatServer(
            self.kernel,
            self.servlets,
            db_listener=self.db_server.listener,
            db_connections=db_connections,
            caching=caching,
            mode=profiler_mode,
            overhead=overhead,
            static_size_of=lambda key: IMAGE_BYTES,
            db_retry=retry,
        )

        # --- front tier ------------------------------------------------
        self.squid = SquidProxy(
            self.kernel,
            self.tomcat.listener,
            mode=profiler_mode,
            overhead=overhead,
            cacheable=lambda key: isinstance(key, tuple) and key[0] == "IMG",
        )

        # --- clients ----------------------------------------------------
        self.clients = TpcwClientPool(
            self.kernel,
            self.squid.listener,
            self.model,
            clients=clients,
            think_mean=think_mean,
            rng=self.rng.stream("clients"),
            mix=mix,
            retry=retry,
        )
        self._stages_by_name = {
            "squid": self.squid.stage,
            "tomcat": self.tomcat.stage,
            "mysql": self.db.stage,
        }
        if self.faults is not None:
            self.faults.schedule_crashes(self.kernel, self._stages_by_name)
        # Shared synopsis-resolution cache: classify_context runs on
        # every crosstalk wait event, and most contexts repeat.
        self._resolve_cache = {}
        self._started = False

    # ------------------------------------------------------------------
    @property
    def stages_by_name(self) -> Dict[str, Any]:
        """The per-tier stage runtimes, keyed by stage name."""
        return dict(self._stages_by_name)

    def save_profiles(
        self, directory: str, profile_format: str = "v2"
    ) -> Dict[str, str]:
        """Dump every tier's profile into ``directory``; returns the
        written paths keyed by stage name."""
        import os

        from repro.core.persist import save_stage

        suffix = ".profile.wdp" if profile_format == "v2" else ".profile.json"
        os.makedirs(directory, exist_ok=True)
        paths: Dict[str, str] = {}
        for name, stage in self._stages_by_name.items():
            path = os.path.join(directory, f"{name}{suffix}")
            save_stage(stage, path, profile_format=profile_format)
            paths[name] = path
        return paths

    # ------------------------------------------------------------------
    def classify_context(self, context: Any) -> Optional[str]:
        """Map a transaction context to its TPC-W interaction name."""
        if not isinstance(context, TransactionContext):
            return None
        try:
            resolved = resolve_context(
                context, self._stages_by_name, self._resolve_cache
            )
        except (StitchError, KeyError):
            return None
        for element in resolved.elements:
            if element in INTERACTIONS:
                return element
        return None

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.db_server.start()
        self.tomcat.start()
        self.squid.start()
        self.clients.start()

    def run(self, duration: float = 120.0, warmup: float = 30.0) -> TpcwResults:
        """Run for ``warmup + duration`` virtual seconds and measure."""
        self.start()
        self.kernel.run(until=warmup)
        window_start = self.kernel.now
        self.kernel.run(until=warmup + duration)
        return TpcwResults(self, window_start, self.kernel.now)
