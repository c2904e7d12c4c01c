"""Quickstart: transactional profiling of a two-stage RPC application.

Builds the paper's §5 example — a caller with two transaction paths
(``foo`` and ``bar``) invoking an RPC service on a second stage — then
profiles it with Whodunit and prints the stitched end-to-end profile:
the callee's call-path tree appears once per caller context (Fig 7).

Run:  python examples/quickstart.py [trace.json]

With a file argument it also records a live telemetry trace of the run
and writes it in Chrome trace-event format — open it in Perfetto
(https://ui.perfetto.dev) to see the RPC hops on a timeline.
"""

import sys
from typing import Optional

from repro import telemetry
from repro.analysis import render_stitched_profile
from repro.channels import Connection
from repro.channels.rpc import call, recv_request, send_response
from repro.core import StageRuntime, stitch_profiles, work
from repro.sim import CPU, CurrentThread, Kernel
from repro.sim.process import frame


def main(trace_out: Optional[str] = None) -> None:
    if trace_out:
        telemetry.install("spans")
    kernel = Kernel()
    connection = Connection(kernel, latency=100e-6)

    caller_stage = StageRuntime("caller")
    callee_stage = StageRuntime("callee")
    caller_cpu = CPU(kernel, name="caller-cpu")
    callee_cpu = CPU(kernel, name="callee-cpu")

    def caller():
        thread = yield CurrentThread()
        with frame(thread, "main_caller"):
            # Two different transaction paths reach the same RPC service.
            for procedure, repeats in [("foo", 3), ("bar", 1)]:
                with frame(thread, procedure):
                    with frame(thread, "rpc_call"):
                        for _ in range(repeats):
                            yield work(thread, caller_cpu, 1e-3)
                            yield from call(
                                thread,
                                connection.to_server,
                                connection.to_client,
                                payload=procedure,
                                size=256,
                            )

    def callee():
        thread = yield CurrentThread()
        thread.daemon = True
        with frame(thread, "main_callee"):
            with frame(thread, "svc_run"):
                while True:
                    request = yield from recv_request(thread, connection.to_server)
                    with frame(thread, "dispatch"):
                        with frame(thread, "callee_rpc_svc"):
                            # bar's requests are 4x as expensive.
                            cost = 2e-3 if request.payload == "foo" else 8e-3
                            yield work(thread, callee_cpu, cost)
                    yield from send_response(
                        thread, connection.to_client, request, "result", 1024
                    )

    kernel.spawn(caller(), name="caller", stage=caller_stage)
    kernel.spawn(callee(), name="callee", stage=callee_stage)
    kernel.run(until=5.0)

    profile = stitch_profiles([caller_stage, callee_stage])
    print(render_stitched_profile(profile))
    print()
    print("Note how stage 'callee' keeps two separate trees, one per")
    print("caller context — a flat profiler would merge them and hide")
    print("that 'bar' is the expensive path despite being called once.")

    if trace_out:
        from repro.telemetry.export import write_chrome_trace

        tele = telemetry.active()
        write_chrome_trace(trace_out, tele.spans)
        print(f"\nwrote Perfetto-loadable trace "
              f"({tele.spans.completed} spans) to {trace_out}")
        telemetry.uninstall()


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
