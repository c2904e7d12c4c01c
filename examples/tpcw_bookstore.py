"""The TPC-W case study (§8.4): profile-guided optimisation end to end.

Runs the three-tier bookstore (Squid -> Tomcat -> MySQL-like database)
under the browsing mix, prints the Table-1-style per-interaction MySQL
CPU shares and crosstalk waits, then applies the paper's two
Whodunit-inspired optimisations and shows their effect:

- converting the ``item`` table to row-level locking (InnoDB) cuts
  AdminConfirm's response time, and
- caching BestSellers/SearchResult results lifts peak throughput.

Run:  python examples/tpcw_bookstore.py    (takes ~30s)

``telemetry_run`` additionally shows the live-telemetry layer: a short
run with spans + metrics enabled, exported as a Chrome trace-event file
you can open in Perfetto (https://ui.perfetto.dev).
"""

from typing import Optional

from repro import telemetry
from repro.analysis import render_crosstalk, render_telemetry, span_summary
from repro.apps.db.locks import INNODB
from repro.apps.tpcw import TpcwSystem

CLIENTS = 120
DURATION = 120.0
WARMUP = 30.0


def profile_run() -> None:
    print(f"== profiling the original system ({CLIENTS} clients) ==")
    system = TpcwSystem(clients=CLIENTS, seed=17)
    results = system.run(duration=DURATION, warmup=WARMUP)
    print(f"throughput: {results.throughput_tpm():.0f} interactions/min, "
          f"db CPU {system.db.cpu.utilization():.0%} busy")
    print()
    print("MySQL CPU share and crosstalk per interaction (Table 1):")
    shares = results.db_cpu_share()
    waits = results.crosstalk_wait_ms()
    print(f"{'interaction':<22}{'CPU %':>8}{'crosstalk ms':>14}")
    for name in sorted(shares, key=lambda n: -shares.get(n, 0)):
        print(f"{name:<22}{shares.get(name, 0):>8.2f}{waits.get(name, 0):>14.2f}")
    print()
    print("Lock-wait pairs at the database (who waits on whom):")
    print(render_crosstalk(system.db.crosstalk, limit=8))


def optimised_runs() -> None:
    print()
    # Run at a client count past the original system's saturation knee
    # (~200, Fig 12) so the caching optimisation has headroom to show.
    clients = 250
    print(f"== applying the Whodunit-inspired optimisations ({clients} clients) ==")
    base = TpcwSystem(clients=clients, seed=18)
    base_results = base.run(duration=DURATION, warmup=WARMUP)
    inno = TpcwSystem(clients=clients, seed=18, item_engine=INNODB)
    inno_results = inno.run(duration=DURATION, warmup=WARMUP)
    cached = TpcwSystem(clients=clients, seed=18, caching=True)
    cached_results = cached.run(duration=DURATION, warmup=WARMUP)

    admin_before = base_results.mean_response("AdminConfirm") * 1000
    admin_after = inno_results.mean_response("AdminConfirm") * 1000
    print(f"AdminConfirm mean response: {admin_before:.0f} ms (MyISAM) -> "
          f"{admin_after:.0f} ms (InnoDB item table)")
    print(f"throughput: {base_results.throughput_tpm():.0f} tpm (original) -> "
          f"{cached_results.throughput_tpm():.0f} tpm "
          f"(BestSellers/SearchResult caching)")


def telemetry_run(
    trace_out: str,
    clients: int = 10,
    duration: float = 5.0,
    warmup: float = 1.0,
    metrics_out: Optional[str] = None,
) -> "telemetry.Telemetry":
    """Short TPC-W run with live telemetry; writes a Perfetto trace."""
    from repro.telemetry.export import write_chrome_trace, write_prometheus

    tele = telemetry.install("full")
    try:
        system = TpcwSystem(clients=clients, seed=17)
        system.run(duration=duration, warmup=warmup)
        write_chrome_trace(trace_out, tele.spans)
        print(f"wrote Perfetto-loadable trace "
              f"({tele.spans.completed} spans) to {trace_out}")
        if metrics_out:
            write_prometheus(metrics_out, tele.metrics)
            print(f"wrote Prometheus metrics to {metrics_out}")
        print()
        print(render_telemetry([span_summary(tele.spans)], tele.metrics))
        return tele
    finally:
        telemetry.uninstall()


def main() -> None:
    profile_run()
    optimised_runs()


if __name__ == "__main__":
    main()
