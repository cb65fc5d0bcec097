"""The benchmark's workloads: seeded op lists, op execution, result checks.

Every workload is a closed loop of *equal-size* ops: one client issues
the next op when the previous one returns.  The op list is a pure
function of ``(workload, seed, n_ops)``; the seed only chooses among
inputs of the same host cost, so the op mix never depends on how fast
the program runs.

Each op's simulated output is checked against ``expected.json``, which
holds the output of every input the op lists can draw (record it with
``record_expected.py``).  An op fails if it raises, if its output
differs from the expectation, or if the sweep layer reports a retry,
timeout, pool restart or quarantine.

This module imports ``repro`` lazily, so that the set-up time (importing
:data:`IMPORTS`, then :func:`build`) can be measured in a fresh process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
from pathlib import Path
from typing import Any, Callable, Optional

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: Host seconds one op nominally takes on the reference host; fixes the
#: op count of a run as ``seconds / nominal`` so that it never depends
#: on measured speed.
NOMINAL_OP_S = {"cb_alltoall": 0.25, "cholesky_taskgraph": 0.5, "sweep_fleet": 1.25}

WORKLOADS = tuple(NOMINAL_OP_S)

#: Modules each workload's ops use, imported during set-up so that no
#: op pays an import (the experiment drivers import lazily).
IMPORTS = {
    "cb_alltoall": (
        "repro",
        "repro.fidelity",
        "repro.mpi.world",
        "repro.network",
        "repro.network.smfu",
        "repro.sweep.experiments",
    ),
    "cholesky_taskgraph": (
        "repro",
        "repro.apps",
        "repro.hardware",
        "repro.hardware.catalog",
        "repro.ompss",
    ),
    "sweep_fleet": ("repro", "repro.sweep"),
}

# -- cb_alltoall -------------------------------------------------------------
#: The registry's ``alltoall_bridge`` scaled to 8 Cluster + 16 Booster
#: ranks over 2 SMFU gateways: 64 KiB per pair in 16 KiB segments.
ALLTOALL_CONFIG = {
    "n_cluster": 8,
    "n_booster": 16,
    "n_gateways": 2,
    "payload_kib": 64,
    "segment_kib": 16,
    "selection": "dynamic",
    "fidelity": "exact",
}
#: Simulation seeds an op may draw (all recorded in ``expected.json``).
ALLTOALL_SEEDS = 64

# -- cholesky_taskgraph ------------------------------------------------------
CHOLESKY_NT = 24
CHOLESKY_TILES = (128, 192, 256, 320, 384, 448, 512)
CHOLESKY_CORES = (30, 60)

# -- sweep_fleet -------------------------------------------------------------
#: The experiments registered when the benchmark was defined.  Named
#: explicitly so that registering more experiments later does not
#: change the size of an op.
SWEEP_EXPERIMENTS = (
    "alltoall_bridge",
    "checkpoint_resilience",
    "collective_scale",
    "coupled_modes",
    "offload_stencil",
    "pingpong",
    "spawn_cost",
)
#: Scale-up so that one op's 14 fresh runs cost ~1.2 s of simulation,
#: about what two spawned workers pay to start and import ``repro``.
SWEEP_OVERRIDES = {
    "alltoall_bridge": {
        k: ALLTOALL_CONFIG[k]
        for k in ("n_cluster", "n_booster", "payload_kib", "segment_kib")
    },
    "coupled_modes": {"iterations": 12},
}
SWEEP_JOBS = 2
SWEEP_WINDOW = 4
SWEEP_STRIDE = 2
#: Windows recorded in ``expected.json``; window ``w`` covers seeds
#: ``[w*STRIDE, w*STRIDE + WINDOW)``.
SWEEP_WINDOWS = 40
#: Pins the sweep cache namespace, so job digests (and with them the
#: committed report digests) do not change with the simulator sources.
SWEEP_CODE_VERSION = "perfbench-v1"


def n_ops_for(workload: str, seconds: float) -> int:
    """Timed ops in a run of *seconds* (even, at least 2)."""
    n = max(2, round(seconds / NOMINAL_OP_S[workload]))
    return n + (n % 2)


def canonical_digest(obj: Any) -> str:
    """SHA-256 of the canonical JSON of a simulated result."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected(path: Optional[Path] = None) -> dict:
    return json.loads((path or EXPECTED_PATH).read_text())


class OpFailure(Exception):
    """An op's output differs from its expectation."""


@dataclasses.dataclass(frozen=True)
class Op:
    """One unit of work; ``key`` names its entry in ``expected.json``."""

    index: int
    key: str
    params: dict


class Workload:
    """A built workload: its op list plus whatever state the ops share."""

    name: str

    def __init__(self, seed: int, n_ops: int, expected: dict, workdir: Path) -> None:
        self.seed = seed
        self.expected = expected[self.name]
        self.workdir = workdir
        #: ``ops[0]`` is the untimed warm-up op; ``ops[1:]`` are timed.
        self.ops = op_list(self.name, seed, n_ops + 1)

    @staticmethod
    def make_ops(rng: random.Random, n: int) -> list[Op]:
        raise NotImplementedError

    @staticmethod
    def all_ops() -> list[Op]:
        """One op for every input :meth:`make_ops` can draw."""
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        """Execute one op; returns its raw output (checked separately)."""
        raise NotImplementedError

    def check(self, op: Op, output: Any) -> None:
        """Raise :class:`OpFailure` unless *output* is the expected one."""
        want = self.expected.get(op.key)
        got = self.observed(op, output)
        if want is None:
            raise OpFailure(f"{self.name} op {op.index}: no expectation for {op.key}")
        if got != want:
            raise OpFailure(
                f"{self.name} op {op.index} ({op.key}): got {got!r}, expected {want!r}"
            )

    def observed(self, op: Op, output: Any) -> Any:
        """The part of *output* that ``expected.json`` records."""
        raise NotImplementedError

    def layer_counts(self, op: Op, output: Any, wall: float) -> dict[str, float]:
        """Per-op layer metrics read from the output, not the profiler."""
        return {}

    def close(self) -> None:
        pass


class CbAlltoall(Workload):
    """Bridged Cluster-Booster all-to-all (Global MPI over SMFU)."""

    name = "cb_alltoall"

    def __init__(self, *args, **kwargs) -> None:
        from repro.sweep.experiments import effective_config, get_experiment

        self._fn = get_experiment("alltoall_bridge").fn
        self._config = effective_config("alltoall_bridge", ALLTOALL_CONFIG)
        super().__init__(*args, **kwargs)

    @staticmethod
    def make_ops(rng, n):
        seeds = [rng.randrange(ALLTOALL_SEEDS) for _ in range(n)]
        return [Op(i, str(s), {"sim_seed": s}) for i, s in enumerate(seeds)]

    @staticmethod
    def all_ops():
        return [Op(s, str(s), {"sim_seed": s}) for s in range(ALLTOALL_SEEDS)]

    def run(self, op):
        return self._fn(dict(self._config), op.params["sim_seed"])

    def observed(self, op, output):
        return canonical_digest(output)


class CholeskyTaskgraph(Workload):
    """Slide 23's tiled Cholesky: graph build + dataflow on one KNC."""

    name = "cholesky_taskgraph"

    def __init__(self, *args, **kwargs) -> None:
        from repro.apps import cholesky_graph
        from repro.hardware import Processor
        from repro.hardware.catalog import XEON_PHI_KNC
        from repro.ompss import DataflowScheduler
        from repro.simkernel import Simulator

        self._graph = cholesky_graph
        self._processor = Processor
        self._knc = XEON_PHI_KNC
        self._scheduler = DataflowScheduler
        self._simulator = Simulator
        super().__init__(*args, **kwargs)

    @staticmethod
    def make_ops(rng, n):
        # Core counts alternate so every run has the same 30/60 mix; the
        # seed picks which comes first and each op's tile size.
        first = rng.randrange(2)
        ops = []
        for i in range(n):
            cores = CHOLESKY_CORES[(first + i) % 2]
            tile = rng.choice(CHOLESKY_TILES)
            ops.append(Op(i, f"{tile}/{cores}", {"tile": tile, "cores": cores}))
        return ops

    @staticmethod
    def all_ops():
        pairs = [(t, c) for t in CHOLESKY_TILES for c in CHOLESKY_CORES]
        return [
            Op(i, f"{t}/{c}", {"tile": t, "cores": c}) for i, (t, c) in enumerate(pairs)
        ]

    def run(self, op):
        graph = self._graph(CHOLESKY_NT, tile_size=op.params["tile"])
        sim = self._simulator()
        proc = self._processor(
            sim, dataclasses.replace(self._knc, n_cores=op.params["cores"])
        )
        scheduler = self._scheduler()

        def main(sim):
            return (yield from scheduler.run(sim, graph, proc))

        driver = sim.process(main(sim))
        sim.run()
        return graph, driver.value

    def observed(self, op, output):
        graph, result = output
        return {
            "makespan_s": result.makespan_s,
            "n_tasks": result.n_tasks,
            "n_edges": graph.edge_count(),
        }


class SweepFleet(Workload):
    """One ``run_sweep`` of every experiment over a sliding seed window."""

    name = "sweep_fleet"

    def __init__(self, *args, **kwargs) -> None:
        os.environ["REPRO_SWEEP_CODE_VERSION"] = SWEEP_CODE_VERSION
        from repro.sweep import ResultCache, SweepSpec, run_sweep

        self._spec = SweepSpec
        self._run_sweep = run_sweep
        super().__init__(*args, **kwargs)
        self.cache = ResultCache(self.workdir / "cache")

    @staticmethod
    def make_ops(rng, n):
        if n > SWEEP_WINDOWS:
            raise ValueError(
                f"{n} sweep ops need more than the {SWEEP_WINDOWS} recorded windows"
            )
        first = rng.randrange(SWEEP_WINDOWS - n + 1)
        return [Op(i, str(first + i), {"window": first + i}) for i in range(n)]

    @staticmethod
    def all_ops():
        return [Op(w, str(w), {"window": w}) for w in range(SWEEP_WINDOWS)]

    def spec_for(self, window: int):
        lo = window * SWEEP_STRIDE
        return self._spec(
            experiments=list(SWEEP_EXPERIMENTS),
            seeds=list(range(lo, lo + SWEEP_WINDOW)),
            overrides=SWEEP_OVERRIDES,
        )

    def run(self, op):
        hits, misses = self.cache.hits, self.cache.misses
        report = self._run_sweep(
            self.spec_for(op.params["window"]), jobs=SWEEP_JOBS, cache=self.cache
        )
        return report, self.cache.hits - hits, self.cache.misses - misses

    def check(self, op, output):
        report = output[0]
        problems = []
        if not report.ok or report.n_retries or report.n_timeouts or report.n_pool_restarts:
            problems.append(
                f"retries={report.n_retries} timeouts={report.n_timeouts} "
                f"pool_restarts={report.n_pool_restarts} "
                f"quarantined={len(report.failures)} aborted={report.aborted}"
            )
        # After the warm-up op every window overlaps the previous one by
        # WINDOW - STRIDE seeds: those jobs must come from the cache.
        want_hits = 0 if op.index == 0 else len(SWEEP_EXPERIMENTS) * (
            SWEEP_WINDOW - SWEEP_STRIDE
        )
        if report.n_cached != want_hits:
            problems.append(f"{report.n_cached} cached jobs, expected {want_hits}")
        if problems:
            raise OpFailure(f"sweep_fleet op {op.index}: " + "; ".join(problems))
        super().check(op, output)

    def observed(self, op, output):
        return output[0].digest()

    def layer_counts(self, op, output, wall):
        report, hits, misses = output
        busy = sum(r.wall_s for r in report.results if not r.cached)
        return {
            "sweep.cache.hits": hits,
            "sweep.cache.misses": misses,
            "sweep.worker_busy_s": busy,
            # Wall time the harness adds over perfectly spread worker time.
            "sweep.harness_s": wall - busy / SWEEP_JOBS,
            "sweep.retries": report.n_retries,
            "sweep.pool_restarts": report.n_pool_restarts,
        }

    def close(self):
        shutil.rmtree(self.workdir / "cache", ignore_errors=True)


CLASSES: dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (CbAlltoall, CholeskyTaskgraph, SweepFleet)
}


def op_list(name: str, seed: int, n: int) -> list[Op]:
    """The first *n* ops of workload *name* for *seed*."""
    return CLASSES[name].make_ops(random.Random(f"{name}:{seed}"), n)


def build(name: str, seed: int, n_ops: int, workdir: Path, expected: dict) -> Workload:
    return CLASSES[name](seed, n_ops, expected, workdir)
