"""End-to-end telemetry over the three-tier TPC-W system.

The acceptance bar from the issue: a full-telemetry TPC-W run must
produce a trace whose transaction-hop span count equals the number of
stage hops the profiler itself recorded, and the CLI must write a
loadable trace file.
"""

import json

import pytest

from repro import telemetry
from repro.apps.tpcw import TpcwSystem
from repro.telemetry.sinks import CollectingSink


@pytest.fixture(autouse=True)
def _telemetry_teardown():
    yield
    telemetry.uninstall()


def _small_system():
    return TpcwSystem(clients=6, seed=11)


def test_hop_span_count_matches_profiler_hops():
    tele = telemetry.install("full")
    system = _small_system()
    system.run(duration=3.0, warmup=0.5)
    hop_spans = tele.spans.by_category("transaction.hop")
    stages = [system.squid.stage, system.tomcat.stage, system.db.stage]
    profiler_hops = sum(stage.hops_received for stage in stages)
    assert profiler_hops > 0
    assert len(hop_spans) == profiler_hops
    # Every hop joined a sender's trace (link back to the send span).
    assert all(span.links for span in hop_spans)
    # The metric registry agrees with the plain attribute.
    metric_hops = sum(
        tele.metrics.counter(
            "repro_profiler_hops_total", stage=stage.name
        ).value
        for stage in stages
    )
    assert metric_hops == profiler_hops


def test_traces_span_multiple_tiers():
    tele = telemetry.install("full")
    system = _small_system()
    system.run(duration=3.0, warmup=0.5)
    multi_stage = [
        spans
        for spans in tele.spans.traces().values()
        if len({s.stage for s in spans}) > 1
    ]
    # Transactions flow tomcat -> mysql; their spans share one trace.
    assert multi_stage
    assert any(
        {"tomcat", "mysql"} <= {s.stage for s in spans} for spans in multi_stage
    )


def test_sinks_observe_during_the_run_not_at_teardown():
    tele = telemetry.install("full")
    seen_at = []
    sink = CollectingSink()
    tele.add_sink(sink)
    system = _small_system()
    system.run(duration=2.0, warmup=0.5)
    kernel_end = system.kernel.now
    # Spans completed throughout virtual time, not in one teardown burst.
    times = [span.end for span in sink.spans]
    assert times, "sink saw no spans"
    assert min(times) < kernel_end / 2


def test_spans_mode_skips_metrics():
    tele = telemetry.install("spans")
    system = _small_system()
    system.run(duration=1.0, warmup=0.2)
    assert len(tele.spans.spans) > 0
    assert len(tele.metrics) == 0


def test_disabled_telemetry_records_nothing_but_hops_still_counted():
    system = _small_system()
    system.run(duration=3.0, warmup=0.5)
    assert telemetry.active() is None
    # The plain hop attribute is maintained regardless of telemetry.
    assert system.tomcat.stage.hops_received > 0


def test_cli_tpcw_writes_chrome_trace_and_metrics(tmp_path, capsys):
    from repro.cli import main

    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.prom"
    status = main(
        [
            "tpcw",
            "--clients", "6",
            "--duration", "2",
            "--warmup", "0.5",
            "--telemetry", "full",
            "--trace-out", str(trace),
            "--metrics-out", str(metrics),
        ]
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "live telemetry summary" in out
    data = json.loads(trace.read_text())
    assert any(
        e.get("cat") == "transaction.hop" for e in data["traceEvents"]
    )
    assert "repro_sim_events_fired_total" in metrics.read_text()
    # The CLI must tear the global switch down afterwards.
    assert telemetry.active() is None


def test_cli_otlp_format(tmp_path):
    from repro.cli import main

    trace = tmp_path / "trace_otlp.json"
    main(
        [
            "tpcw",
            "--clients", "4",
            "--duration", "1",
            "--warmup", "0.2",
            "--telemetry", "spans",
            "--trace-out", str(trace),
            "--trace-format", "otlp",
        ]
    )
    data = json.loads(trace.read_text())
    assert data["resourceSpans"]
    services = {
        a["value"]["stringValue"]
        for r in data["resourceSpans"]
        for a in r["resource"]["attributes"]
        if a["key"] == "service.name"
    }
    assert "mysql" in services


def test_cli_warns_when_outputs_requested_but_telemetry_off(tmp_path, capsys):
    from repro.cli import main

    trace = tmp_path / "ignored.json"
    main(["table3", "--trace-out", str(trace)])
    err = capsys.readouterr().err
    assert "--trace-out ignored" in err
    assert not trace.exists()


def test_telemetry_and_live_collection_leave_the_run_alone(tmp_path):
    """Off, spans and full telemetry, and a live collector under LRU
    eviction, all see the same seeded run: identical throughput and
    identical stitched profile bytes."""
    import hashlib

    from repro.live import attach_collector
    from repro.parallel import canonical_profile_bytes

    def digest(profile):
        return hashlib.sha256(canonical_profile_bytes(profile)).hexdigest()

    def run():
        system = TpcwSystem(clients=8, seed=23)
        results = system.run(duration=6.0, warmup=1.0)
        return results.throughput_tpm(), digest(results.stitch())

    outcomes = {}
    for mode in ("off", "spans", "full"):
        if mode != "off":
            telemetry.install(mode)
        try:
            outcomes[mode] = run()
        finally:
            telemetry.uninstall()
    collector = attach_collector(
        None, directory=str(tmp_path / "live"), interval=2.0, max_resident=4
    )
    try:
        outcomes["live"] = run()
        live = collector.compact(strict=True)
    finally:
        collector.close()

    assert outcomes["off"][0] > 0
    assert len(set(outcomes.values())) == 1, outcomes
    assert collector.evictions > 0
    assert collector.peak_resident <= 4
    assert live.completeness == 1.0
    assert digest(live) == outcomes["off"][1]
