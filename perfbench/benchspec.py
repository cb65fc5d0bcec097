"""What the benchmark measures: workloads, metrics, units, directions, bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-benchmark-json``) and a test keeps
the two in sync.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

RUN_SECONDS = 25

WORKLOADS = [
    {
        "name": "cb_alltoall",
        "why": "Global-MPI all-to-all across the SMFU Cluster-Booster bridge: "
        "simkernel, network and mpi do the work; ompss and sweep are bypassed",
    },
    {
        "name": "cholesky_taskgraph",
        "why": "2,600-task tiled-Cholesky graph built from region annotations and "
        "dataflow-scheduled on one KNC: ompss dependency tracking dominates, no network",
    },
    {
        "name": "sweep_fleet",
        "why": "run_sweep of every experiment at jobs=2 on a sliding seed window: "
        "half cache hits, half spawned-worker runs; stresses the sweep harness",
    },
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_norm_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "op_p50_norm_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
    {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.01},
]

_S, _N, _R, _US = "s", "count", "ratio", "us"
PER_LAYER = [
    {"name": name, "unit": unit, "better": better}
    for name, unit, better in [
        ("host.op_p50_ms", "ms", "lower"),
        ("host.ref_ms", "ms", "lower"),
        ("setup.import_s", _S, "lower"),
        ("setup.build_s", _S, "lower"),
        ("simkernel.self_s", _S, "lower"),
        ("simkernel.resumes", _N, "lower"),
        ("simkernel.us_per_resume", _US, "lower"),
        ("network.self_s", _S, "lower"),
        ("network.transfers", _N, "lower"),
        ("network.smfu.forwards", _N, "lower"),
        ("network.route_hit_ratio", _R, "higher"),
        ("mpi.self_s", _S, "lower"),
        ("mpi.msgs", _N, "lower"),
        ("mpi.match_tests_per_msg", _R, "lower"),
        ("hardware.self_s", _S, "lower"),
        ("ompss.self_s", _S, "lower"),
        ("ompss.graph.self_s", _S, "lower"),
        ("ompss.graph.us_per_task", _US, "lower"),
        ("ompss.tasks", _N, "lower"),
        ("ompss.scheduler.self_s", _S, "lower"),
        ("apps.self_s", _S, "lower"),
        ("sweep.resolve_s", _S, "lower"),
        ("sweep.cache.get_s", _S, "lower"),
        ("sweep.cache.put_s", _S, "lower"),
        ("sweep.cache.hits", _N, "higher"),
        ("sweep.cache.misses", _N, "lower"),
        ("sweep.worker_busy_s", _S, "lower"),
        ("sweep.harness_s", _S, "lower"),
        ("sweep.parent_self_s", _S, "lower"),
        ("obs.self_s", _S, "lower"),
        ("sweep.retries", _N, "lower"),
        ("sweep.pool_restarts", _N, "lower"),
        ("trace.overhead_ratio", _R, "lower"),
    ]
]


def benchmark_doc() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def benchmark_json_text() -> str:
    return json.dumps(benchmark_doc(), indent=2) + "\n"
