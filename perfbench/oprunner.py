"""Run one workload's ops in this (fresh) process and print JSON results.

Started by ``run.py``; not meant to be run by hand, though it can be::

    python3 perfbench/oprunner.py --workload cb_alltoall --seed 0 \\
        --seconds 10 --mode timed --workdir .perfbench_work/x

Modes:

``setup``
    import the workload's modules and build its op list, print one JSON
    line with ``import_s``/``build_s`` as soon as the first op is ready,
    then exit.  ``run.py`` times this process from its launch.
``timed``
    run the untimed warm-up op, then every timed op, each followed by
    :func:`hostspeed.reference_kernel`; print per-op wall and reference
    times, failures and peak RSS.
``traced``
    as ``timed``, but every second op runs under
    :class:`layertrace.LayerProfiler`; print per-op layer metrics and
    the wall times of the untraced and traced ops.

``--inject-delay MODULE:QUALNAME=SECONDS`` replaces a function of the
program with a copy that sleeps first.  The copy keeps the original's
module globals, so the profiler charges the delay to the original's
layer; the benchmark's tests use it to check layer attribution.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import ops  # noqa: E402

#: Failure messages kept in the output (the count is always complete).
MAX_ERRORS = 5
#: Untimed reference-kernel runs after the warm-up op.
WARM_REFERENCES = 3


def import_program(workload: str) -> None:
    """Import ``repro`` from this checkout's ``src`` and the workload's modules."""
    sys.path.insert(0, str(SRC))
    for name in ops.IMPORTS[workload]:
        importlib.import_module(name)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {SRC}")


def inject_delay(spec: str) -> None:
    """Apply one ``MODULE:QUALNAME=SECONDS`` delay (see module docstring)."""
    target, seconds = spec.rsplit("=", 1)
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    delay = float(seconds)
    sleep = time.sleep

    def delayed(*args, **kwargs):
        sleep(delay)
        return original(*args, **kwargs)

    setattr(owner, attr, layertrace.adopt(delayed, original))


def make_profiler() -> layertrace.LayerProfiler:
    """A profiler counting and timing the layer entries the metrics name."""
    from repro.mpi import pt2pt
    from repro.mpi.world import Transport
    from repro.network.fabric import Fabric
    from repro.network.smfu import ClusterBoosterBridge
    from repro.ompss.graph import TaskGraph
    from repro.simkernel.process import Process
    from repro.sweep.cache import ResultCache
    from repro.sweep.engine import SweepSpec

    counted = {
        "simkernel.resumes": [Process._resume],
        "network.transfers": [(Fabric, "transfer")],
        "network.route_lookups": [Fabric._route_info],
        "network.route_misses": [Fabric.path_links],
        "network.smfu.forwards": [ClusterBoosterBridge.pick_gateway],
        "mpi.msgs": [(Transport, "send_message")],
        "mpi.match_tests": layertrace.nested_codes(pt2pt.make_match, "match")
        + layertrace.nested_codes(pt2pt.make_seq_match, "match"),
        "ompss.tasks": [TaskGraph.submit],
    }
    timed = {
        "sweep.resolve_s": [SweepSpec.resolve],
        "sweep.cache.get_s": [ResultCache.get],
        "sweep.cache.put_s": [ResultCache.put],
    }
    return layertrace.LayerProfiler(SRC, counted, timed)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_values(prof: layertrace.LayerProfiler) -> dict[str, float]:
    """One traced op's per-layer metrics."""
    n = prof.counts
    layer = prof.layer_self_s
    return {
        "simkernel.self_s": layer("simkernel"),
        "simkernel.resumes": n["simkernel.resumes"],
        "simkernel.us_per_resume": _ratio(
            layer("simkernel"), n["simkernel.resumes"], 1e6
        ),
        "network.self_s": layer("network"),
        "network.transfers": n["network.transfers"],
        "network.smfu.forwards": n["network.smfu.forwards"],
        "network.route_hit_ratio": _ratio(
            n["network.route_lookups"] - n["network.route_misses"],
            n["network.route_lookups"],
        ),
        "mpi.self_s": layer("mpi"),
        "mpi.msgs": n["mpi.msgs"],
        "mpi.match_tests_per_msg": _ratio(n["mpi.match_tests"], n["mpi.msgs"]),
        "hardware.self_s": layer("hardware"),
        "ompss.self_s": layer("ompss"),
        "ompss.graph.self_s": layer("ompss.graph"),
        "ompss.graph.us_per_task": _ratio(
            layer("ompss.graph"), n["ompss.tasks"], 1e6
        ),
        "ompss.tasks": n["ompss.tasks"],
        "ompss.scheduler.self_s": layer("ompss.scheduler"),
        "apps.self_s": layer("apps"),
        "sweep.parent_self_s": layer("sweep"),
        "obs.self_s": layer("obs"),
        **prof.inclusive_s,
    }


def run_ops(workload: ops.Workload, traced: bool) -> dict:
    """Warm-up op, then the timed ops; every op's output is checked.

    The reference kernel runs before the first timed op and after every
    timed op, so each op sits between two host-speed samples.
    """
    out = {
        "op_s": [],  # wall time of each untraced timed op that passed
        "op_ref_s": [],  # mean reference-kernel time around each of those ops
        "traced_op_s": [],
        "layers": {},
        "failed": 0,
        "errors": [],
    }

    def attempt(op, profiler=None) -> float | None:
        try:
            t0 = time.perf_counter()
            if profiler is None:
                output = workload.run(op)
            else:
                output = profiler.run(workload.run, op)
            wall = time.perf_counter() - t0
            workload.check(op, output)
        except Exception as exc:  # an op failure is a result, not a crash
            out["failed"] += 1
            if len(out["errors"]) < MAX_ERRORS:
                out["errors"].append(f"op {op.index}: {type(exc).__name__}: {exc}")
            return None
        if profiler is not None:
            values = layer_values(profiler)
            values.update(workload.layer_counts(op, output, wall))
            for key, value in values.items():
                out["layers"].setdefault(key, []).append(value)
        return wall

    attempt(workload.ops[0])
    for _ in range(WARM_REFERENCES):
        hostspeed.time_reference()
    ref_before = hostspeed.time_reference()
    for op in workload.ops[1:]:
        profiler = None
        if traced and op.index % 2 == 0:
            profiler = make_profiler()
        wall = attempt(op, profiler)
        ref_after = hostspeed.time_reference()
        if profiler is not None and wall is not None:
            out["traced_op_s"].append(wall)
        elif wall is not None:
            out["op_s"].append(wall)
            out["op_ref_s"].append((ref_before + ref_after) / 2)
        ref_before = ref_after
    out["attempted"] = len(workload.ops)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--expected", type=Path, default=None)
    ap.add_argument("--inject-delay", action="append", default=[])
    args = ap.parse_args(argv)

    import_program(args.workload)
    t_imported = time.perf_counter()
    # A traced op costs several untraced ones: trace half as many.
    seconds = args.seconds / 2 if args.mode == "traced" else args.seconds
    workload = ops.build(
        args.workload,
        args.seed,
        ops.n_ops_for(args.workload, seconds),
        args.workdir,
        ops.load_expected(args.expected),
    )
    setup = {"import_s": t_imported - _T0, "build_s": time.perf_counter() - t_imported}
    try:
        if args.mode == "setup":
            result = setup
        else:
            for spec in args.inject_delay:
                inject_delay(spec)
            result = {**setup, **run_ops(workload, traced=args.mode == "traced")}
            result["rss_self_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["rss_children_kib"] = resource.getrusage(
                resource.RUSAGE_CHILDREN
            ).ru_maxrss
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
