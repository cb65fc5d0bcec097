#!/usr/bin/env python3
"""Visualising an OmpSs execution: ASCII Gantt + Chrome trace export.

Runs slide 23's tiled Cholesky dataflow on a 16-core slice of a KNC,
prints the execution timeline as a terminal Gantt chart, and writes a
``chrome://tracing`` / Perfetto JSON next to it.

Run:  python examples/taskgraph_gantt.py [out.json]
"""

import dataclasses
import json
import sys

from repro.apps import cholesky_graph
from repro.hardware import Processor
from repro.hardware.catalog import XEON_PHI_KNC
from repro.ompss import (
    DataflowScheduler,
    ascii_gantt,
    concurrency_profile,
    schedule_trace,
)
from repro.ompss.tracing import to_chrome_trace
from repro.simkernel import Simulator
from repro.units import format_time


def main() -> None:
    sim = Simulator()
    proc = Processor(sim, dataclasses.replace(XEON_PHI_KNC, n_cores=16))
    graph = cholesky_graph(6, tile_size=256)

    def run(sim=sim):
        result = yield from DataflowScheduler("critical-path").run(
            sim, graph, proc
        )
        return result

    driver = sim.process(run())
    sim.run()
    result = driver.value
    trace = schedule_trace(result, graph)

    print(f"tiled Cholesky, NT=6, {len(graph)} tasks on 16 KNC cores")
    print(f"makespan {format_time(result.makespan_s)}, "
          f"core utilisation {result.core_utilization:.1%}\n")
    print(ascii_gantt(trace, width=70, max_rows=30))

    profile = concurrency_profile(trace)
    print("\nconcurrency over time:")
    for t, c in profile:
        print(f"  t={t*1e3:7.2f} ms  {'#' * c} ({c})")

    out_path = sys.argv[1] if len(sys.argv) > 1 else "/tmp/cholesky_trace.json"
    with open(out_path, "w") as fh:
        json.dump({"traceEvents": to_chrome_trace(trace)}, fh)
    print(f"\nChrome-trace JSON written to {out_path} "
          f"(open in chrome://tracing or Perfetto)")


if __name__ == "__main__":
    main()
