"""The sharded sweep engine.

Expands a :class:`SweepSpec` into ``(experiment, config, seed)`` jobs,
serves what it can from the content-addressed :class:`ResultCache`, and
fans the misses out across a small pool of owned worker processes.
Each worker is spawned (``spawn`` start method, so no inherited
simulator state), imports :mod:`repro` once and serves jobs for the
whole sweep; one scheduler loop hands out jobs, kills and replaces a
single worker when its job hangs or the worker dies, and charges the
failure to that job alone.  When observability is requested every job
gets its own private staging directory for exports, which the engine
promotes into the cache entry and then materialises into the user's
``REPRO_OBS_DIR``.

Determinism: the simulator promises bit-identical results for identical
``(config, seed)`` regardless of which process runs them, so a fanned
sweep's :meth:`SweepReport.digest` matches serial execution exactly,
and a warm re-run is served entirely from the cache.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import pickle
import shutil
import tempfile
import time
import traceback as traceback_mod
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.errors import (
    ConfigurationError,
    JobTimeoutError,
    ResultIntegrityError,
    SweepError,
    WorkerCrashError,
)
from repro.obs.fleet import (
    FLEET_INDEX_ENV,
    FleetIndex,
    RunManifest,
    manifest_from_artifacts,
)
from repro.sweep import digests
from repro.sweep.cache import ResultCache
from repro.sweep.chaos import (
    CRASH_EXIT_CODE,
    ChaosCrash,
    ChaosSpec,
    corrupt_payload,
)
from repro.sweep.experiments import (
    effective_config,
    experiment_names,
    get_experiment,
)
from repro.sweep.obsglue import OBS_DIR_ENV
from repro.sweep.policy import FailurePolicy, JobFailure

@dataclass(frozen=True)
class Job:
    """One fully-resolved unit of sweep work."""

    experiment: str
    config: dict
    seed: int
    digest: str

    @property
    def label(self) -> str:
        return f"{self.experiment} seed={self.seed}"


@dataclass
class JobResult:
    """Outcome of one job: the deterministic payload plus run metadata."""

    job: Job
    #: Pure simulated results (``{"metrics": ...}``) — bit-identical
    #: whether computed fresh, in a worker, or served from the cache.
    payload: dict
    cached: bool
    wall_s: float
    artifacts: list[str] = field(default_factory=list)
    #: Executions it took to land this result (1 = first try; each
    #: retry bumps it).  Harness metadata only — never part of the
    #: payload or the report digest.
    attempts: int = 1


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: experiments x seeds, with config overrides."""

    experiments: Sequence[str]
    seeds: Sequence[int]
    #: ``{experiment: {field: value}}``; the key ``"*"`` applies to
    #: every experiment that has the field.
    overrides: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def resolve(self) -> list[Job]:
        """Expand into concrete jobs with digests (experiment-major,
        seed-minor order — the canonical serial order)."""
        names = list(self.experiments)
        if names == ["all"]:
            names = experiment_names()
        jobs = []
        code = digests.code_version()
        for name in names:
            exp = get_experiment(name)
            # "*" overrides apply where the field exists; per-experiment
            # overrides must name real fields (effective_config raises).
            merged = {
                k: v
                for k, v in self.overrides.get("*", {}).items()
                if k in exp.defaults
            }
            merged.update(self.overrides.get(name, {}))
            config = digests.canonical(effective_config(name, merged))
            for seed in self.seeds:
                jobs.append(
                    Job(
                        experiment=name,
                        config=config,
                        seed=int(seed),
                        digest=digests.job_digest(name, config, int(seed), code),
                    )
                )
        return jobs


@dataclass
class SweepReport:
    """All job results of one sweep invocation.

    A sweep degrades gracefully instead of aborting: jobs that
    exhausted their :class:`FailurePolicy` retries appear in
    :attr:`failures` (with error class, attempt count and traceback
    digest) while every settled job still carries a full result.  The
    failure section, like telemetry, is harness metadata — strictly
    outside :meth:`digest`.
    """

    results: list[JobResult]
    #: Wall-clock harness telemetry summary (``None`` when the sweep
    #: ran without a telemetry channel).  Strictly outside
    #: :meth:`digest` — wall time legitimately differs between
    #: bit-identical sweeps.
    telemetry: Optional[dict] = None
    #: Quarantined jobs (exhausted their retry budget), index-ordered.
    failures: list[JobFailure] = field(default_factory=list)
    #: Failed attempts that were retried (including those that later
    #: ended in quarantine).
    n_retries: int = 0
    #: Attempts killed for exceeding the per-job wall-clock budget.
    n_timeouts: int = 0
    #: Workers replaced after dying mid-job or being killed on a timeout.
    n_pool_restarts: int = 0
    #: ``True`` when ``max_failures`` stopped the sweep before every job
    #: settled.
    aborted: bool = False

    @property
    def n_cached(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def n_ran(self) -> int:
        return len(self.results) - self.n_cached

    @property
    def ok(self) -> bool:
        """Every job settled cleanly: nothing quarantined, no abort."""
        return not self.failures and not self.aborted

    def digest(self) -> str:
        """Digest of every job's deterministic payload (order-free).

        Identical for serial and fanned execution, and for cold and
        warm (cache-served) sweeps — the determinism gate of the CI
        smoke run.
        """
        doc = sorted(
            (r.job.digest, digests.canonical_json(r.payload))
            for r in self.results
        )
        blob = digests.canonical_json([list(pair) for pair in doc])
        return hashlib.sha256(blob.encode()).hexdigest()

    def as_dict(self) -> dict:
        return {
            "digest": self.digest(),
            "n_jobs": len(self.results),
            "n_cached": self.n_cached,
            "n_ran": self.n_ran,
            "telemetry": self.telemetry,
            "failures": [f.as_dict() for f in self.failures],
            "n_retries": self.n_retries,
            "n_timeouts": self.n_timeouts,
            "n_pool_restarts": self.n_pool_restarts,
            "aborted": self.aborted,
            "jobs": [
                {
                    "experiment": r.job.experiment,
                    "seed": r.job.seed,
                    "config": r.job.config,
                    "digest": r.job.digest,
                    "cached": r.cached,
                    "wall_s": r.wall_s,
                    "attempts": r.attempts,
                    "payload": r.payload,
                }
                for r in self.results
            ],
        }

    def summary_table(self):
        """Merged per-job summary as a :class:`repro.analysis.Table`."""
        from repro.analysis import Table

        table = Table(
            ["experiment", "seed", "source", "wall [ms]", "headline", "value"],
            title=f"sweep summary — {len(self.results)} jobs, "
            f"{self.n_cached} cached / {self.n_ran} simulated",
        )
        for r in self.results:
            headline = get_experiment(r.job.experiment).headline
            value = r.payload.get("metrics", {}).get(headline)
            table.add_row(
                r.job.experiment,
                r.job.seed,
                "cache" if r.cached else "run",
                r.wall_s * 1e3,
                headline,
                value,
            )
        return table


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def execute_job(
    experiment: str, config: dict, seed: int, staging_dir: Optional[str] = None
) -> dict:
    """Run one job in this process and return its payload.

    With *staging_dir*, observability exports are redirected there for
    the duration of the job (``REPRO_OBS_DIR`` is saved/restored), so
    concurrent jobs never interleave artifacts.
    """
    exp = get_experiment(experiment)
    saved = os.environ.get(OBS_DIR_ENV)
    # The engine records the authoritative fleet manifest itself;
    # experiment-internal exports must not double-index the run.
    saved_fleet = os.environ.pop(FLEET_INDEX_ENV, None)
    try:
        if staging_dir is not None:
            os.environ[OBS_DIR_ENV] = staging_dir
        else:
            os.environ.pop(OBS_DIR_ENV, None)
        metrics = exp.fn(dict(config), int(seed))
    finally:
        if saved is None:
            os.environ.pop(OBS_DIR_ENV, None)
        else:
            os.environ[OBS_DIR_ENV] = saved
        if saved_fleet is not None:
            os.environ[FLEET_INDEX_ENV] = saved_fleet
    return {"metrics": digests.canonical(metrics)}


def _run_task(task: tuple, in_worker: bool) -> tuple[bool, Any]:
    """Run one dispatched attempt, with env-gated fault injection around
    it: ``(True, (payload, checksum, wall))`` or ``(False, exception)``.

    The checksum is taken over the *true* payload before any injected
    corruption — the parent's integrity check is what turns a corrupted
    result into a retry instead of a poisoned report.
    """
    experiment, config, seed, digest, attempt, staging_dir = task
    t0 = time.perf_counter()
    try:
        spec = ChaosSpec.from_env()
        mode = spec.draw(digest, attempt) if spec.active else None
        if mode == "crash":
            if in_worker:
                # Die abruptly, mid-job: the parent sees the worker's
                # pipe close and its sentinel fire, exactly like an OOM
                # kill.
                os._exit(CRASH_EXIT_CODE)
            raise ChaosCrash(
                f"injected crash: job {digest[:12]} attempt {attempt}"
            )
        if mode == "hang":
            # A straggler, not a wrong answer: sleep long enough to trip
            # any per-job timeout, then (if still alive) answer correctly.
            time.sleep(spec.hang_s)
        payload = execute_job(experiment, config, seed, staging_dir)
    except Exception as exc:
        return False, exc
    checksum = digests.payload_checksum(payload)
    if mode == "corrupt":
        payload = corrupt_payload(payload, digest, attempt)
    return True, (payload, checksum, time.perf_counter() - t0)


def _worker_main(conn) -> None:
    """Owned-pool worker: run the tasks *conn* delivers until it closes,
    answering each first with this worker's clock (the parent records
    it as ``job.start``), then with the outcome."""
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        conn.send(time.time())
        ok, value = _run_task(task, in_worker=True)
        if not ok:
            # Ship the error with its worker-side traceback; one that
            # would not survive the pickle round trip travels as text.
            text = "".join(
                traceback_mod.format_exception(type(value), value, value.__traceback__)
            )
            try:
                pickle.loads(pickle.dumps(value))
            except Exception:
                value = SweepError(f"{type(value).__name__}: {value}")
            value = (value, text)
        conn.send((ok, value))


class _Worker:
    """One owned worker process and the parent's end of its pipe.

    The worker imports :mod:`repro` once and serves every task it is
    handed for the rest of the sweep; the scheduler kills and replaces
    it individually when it hangs or dies.
    """

    def __init__(self, ctx) -> None:
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child,), daemon=True)
        self.proc.start()
        self.pid = self.proc.pid
        # Only the worker holds the child end now, so its death reads
        # as EOF on ours.
        child.close()

    def send(self, task: tuple) -> None:
        try:
            self.conn.send(task)
        except OSError:
            # Died while idle: the wait sees its sentinel and the
            # scheduler treats it like a crash mid-task.
            pass

    def recv(self) -> Any:
        reply = self.conn.recv()
        if isinstance(reply, float):
            return reply
        ok, value = reply
        if not ok:
            value, text = value
            value.__cause__ = SweepError(f"worker traceback:\n{text}")
        return ok, value

    def stop(self) -> None:
        self.proc.kill()
        self.proc.join()
        self.conn.close()


class _InlineWorker:
    """The serial executor: runs each task in this process, giving the
    same two replies as a pooled worker — the task runs when the second
    is collected.  It cannot be killed mid-job, which is why timeouts
    bite only on pooled sweeps.
    """

    proc = None

    def __init__(self) -> None:
        self.pid = os.getpid()

    def send(self, task: tuple) -> None:
        self.replies = self._serve(task)

    def _serve(self, task: tuple):
        yield time.time()
        yield _run_task(task, in_worker=False)

    def recv(self) -> Any:
        return next(self.replies)

    def stop(self) -> None:
        pass


def _ready(busy, timeout: Optional[float]) -> list:
    """The busy workers with something to collect: a reply, or death."""
    handles = {}
    for worker in busy:
        if worker.proc is None:
            return [worker]
        handles[worker.conn] = handles[worker.proc.sentinel] = worker
    return list(dict.fromkeys(handles[h] for h in wait(list(handles), timeout)))


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

ProgressFn = Callable[[int, int, JobResult], None]

#: Longest wait between heartbeats while workers are busy (seconds).
HEARTBEAT_S = 0.5

def _traceback_digest(exc: BaseException) -> str:
    """Short stable digest of an exception's formatted traceback.

    Summary JSON carries this instead of full tracebacks: enough to
    recognise "the same crash" across runs and machines without
    shipping stack text into reports.
    """
    text = "".join(
        traceback_mod.format_exception(type(exc), exc, exc.__traceback__)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    refresh: bool = False,
    obs_dir: Optional[Path] = None,
    progress: Optional[ProgressFn] = None,
    telemetry: Optional[Path] = None,
    heartbeat: Optional[Callable[[list], None]] = None,
    policy: FailurePolicy = FailurePolicy(),
) -> SweepReport:
    """Run (or fetch) every job of *spec*; returns a :class:`SweepReport`.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` runs everything inline (serial).
    cache:
        Content-addressed result cache (``None`` disables caching).
    refresh:
        Ignore cache hits and overwrite entries with fresh runs.
    obs_dir:
        Materialise each job's observability exports here (cache hits
        re-export the stored artifacts; misses run with observability
        enabled and their artifacts enter the cache).
    progress:
        ``fn(done, total, result)`` called as each job settles.
    telemetry:
        Path of the wall-clock telemetry channel (JSONL).  Every sweep
        records its harness events in memory, and the report's failure
        counters fold over them; with a channel the parent also appends
        each record to this file, and the finished report carries the
        :func:`repro.obs.telemetry.summarize` totals (also written to
        the sibling ``telemetry.json`` and, when a cache is attached,
        appended next to the fleet run index).  Harness-side only:
        simulated payloads and :meth:`SweepReport.digest` are
        bit-identical with telemetry on or off.
    heartbeat:
        ``fn(records)`` called between job completions (at least every
        :data:`HEARTBEAT_S` seconds while workers are busy) with the
        telemetry records emitted since the previous beat — the hook
        that drives the live ``--progress`` view.
    policy:
        Failure policy: per-job timeout, bounded retries, quarantine
        and abort.  Every failed attempt — a job exception included —
        is retried or quarantined under it; only a bad spec raises,
        before any job runs.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    job_list = spec.resolve()
    if not job_list:
        # An empty resolution would otherwise "succeed" with an empty
        # report — always a spec mistake (no experiments, or no seeds).
        raise ConfigurationError(
            "sweep spec resolves to zero jobs; check the experiment list "
            "and the seed range"
        )
    want_obs = obs_dir is not None
    if want_obs:
        obs_dir = Path(obs_dir)
        obs_dir.mkdir(parents=True, exist_ok=True)

    # The sweep's one event stream: every record below is emitted here,
    # in this process, whether or not a channel file mirrors it.
    from repro.obs.telemetry import TelemetryWriter

    stream = TelemetryWriter(telemetry)
    emit = stream.emit
    emit(
        "sweep.start",
        n_jobs=len(job_list),
        n_workers=min(jobs, len(job_list)),
        experiments=sorted({j.experiment for j in job_list}),
    )
    # Counter snapshot so sweep.end reports *this* sweep's cache
    # activity even on a long-lived ResultCache.
    cache_base = cache.counts() if cache is not None else {}
    beat_mark = 0

    def tick() -> None:
        nonlocal beat_mark
        if heartbeat is not None:
            heartbeat(stream.events[beat_mark:])
            beat_mark = len(stream.events)

    # Fleet run index: one manifest per job, appended at the cache
    # root.  Purely export-side — no cache, no index, no cost.
    fleet_index = indexed_ids = None
    if cache is not None:
        fleet_index = FleetIndex.at_cache_root(cache.root)
        indexed_ids = fleet_index.run_ids()
    code = digests.code_version()

    def record_manifest(job: Job, payload: dict, artifacts) -> None:
        if fleet_index is None:
            return
        manifest = manifest_from_artifacts(
            job.experiment, job.config, job.seed, code,
            payload, artifacts, run_id=job.digest,
        )
        fleet_index.record(manifest, known_ids=indexed_ids)

    results: dict[int, JobResult] = {}
    quarantined: dict[int, JobFailure] = {}
    aborted = False
    # The scheduler's one queue, a heap of ``(index, attempt)``: fresh
    # jobs in index order, a retry straight back in by its index.
    queue: list[tuple[int, int]] = []

    def settle(index: int, result: JobResult) -> None:
        results[index] = result
        if progress is not None:
            progress(len(results), len(job_list), result)
        tick()

    def fail(
        index: int, job: Job, attempt: int, exc: BaseException,
        timed_out: bool = False,
    ) -> None:
        """Charge one failed attempt to the one job that made it:
        requeue it, or quarantine it once its retries are spent."""
        nonlocal aborted
        failures = attempt + 1
        if failures <= policy.max_retries:
            emit(
                "job.retry", job=index, failures=failures,
                error=type(exc).__name__,
            )
            heapq.heappush(queue, (index, failures))
            return
        failure = JobFailure(
            index=index,
            experiment=job.experiment,
            seed=job.seed,
            digest=job.digest,
            error_class=type(exc).__name__,
            message=str(exc)[:500],
            traceback_digest=_traceback_digest(exc),
            attempts=failures,
            timed_out=timed_out,
        )
        quarantined[index] = failure
        emit(
            "job.quarantine", job=index, error=failure.error_class,
            attempts=failures, timed_out=timed_out,
            experiment=job.experiment, seed=job.seed,
        )
        if fleet_index is not None:
            # Quarantines are indexed under their own run id and source
            # so they never shadow a later successful run of the same
            # digest, and ``obs rebuild --check`` (which replays only
            # cache-backed "sweep" manifests) stays byte-stable.
            manifest = RunManifest(
                run_id=f"{job.digest}:quarantine",
                source="quarantine",
                experiment=job.experiment,
                config=job.config,
                seed=job.seed,
                code_version=code,
                makespan_s=None,
                partial=True,
                status="quarantined",
            )
            fleet_index.record(manifest, known_ids=indexed_ids)
        if (
            policy.max_failures is not None
            and len(quarantined) > policy.max_failures
        ):
            aborted = True

    # -- pass 1: cache lookups -----------------------------------------
    for i, job in enumerate(job_list):
        hit = None if (cache is None or refresh) else cache.get(job.digest)
        if hit is not None:
            payload, meta = hit
            # An entry recorded without artifacts cannot serve an
            # observability-requesting sweep; re-run and upgrade it.
            if want_obs and not meta.get("artifacts"):
                queue.append((i, 0))
                continue
            artifacts = []
            if want_obs:
                artifacts = [
                    p.name for p in cache.export_artifacts(job.digest, obs_dir)
                ]
            # A hit whose manifest is missing (deleted or older index)
            # is re-indexed from the cached artifacts.
            if indexed_ids is not None and job.digest not in indexed_ids:
                record_manifest(job, payload, cache.artifact_paths(job.digest))
            emit(
                "cache.hit", job=i, digest=job.digest,
                experiment=job.experiment, seed=job.seed,
            )
            settle(i, JobResult(job, payload, True, 0.0, artifacts))
        else:
            queue.append((i, 0))

    # -- pass 2: execute misses ----------------------------------------
    staging_root = (
        Path(tempfile.mkdtemp(prefix="repro-sweep-obs-")) if want_obs else None
    )

    def staging_for(index: int) -> Optional[str]:
        if staging_root is None:
            return None
        d = staging_root / f"job{index}"
        d.mkdir(parents=True, exist_ok=True)
        return str(d)

    def finish_run(
        index: int, job: Job, payload: dict, wall: float, attempts: int = 1
    ) -> None:
        staged: list[Path] = []
        if staging_root is not None:
            staged = sorted((staging_root / f"job{index}").glob("*"))
        if cache is not None:
            promoted_before = cache.bytes_promoted
            cache.put(
                job.digest, payload,
                meta={
                    "wall_s": wall,
                    "experiment": job.experiment,
                    # Manifest metadata: what FleetIndex.rebuild_from_cache
                    # needs to reproduce the index from the cache alone.
                    "config": job.config,
                    "seed": job.seed,
                    "code": code,
                },
                artifacts=staged,
            )
            emit(
                "cache.promote", job=index, digest=job.digest,
                bytes=cache.bytes_promoted - promoted_before,
                n_artifacts=len(staged),
            )
        record_manifest(job, payload, staged)
        if want_obs:
            for src in staged:
                shutil.copy2(src, obs_dir / src.name)
        settle(
            index,
            JobResult(
                job, payload, False, wall, [p.name for p in staged],
                attempts=attempts,
            ),
        )

    # One scheduler loop for both executors.  A pooled sweep owns up to
    # ``n_workers`` spawned processes, started on demand: a timeout
    # kills only the overdue worker, a dead worker fails only the job
    # it was running, and either way that one worker is replaced.  A
    # serial sweep (or a lone miss with no timeout to enforce) runs
    # inline through the same loop.
    timeout_s = policy.timeout_s
    inline = jobs == 1 or (len(queue) <= 1 and timeout_s is None)
    n_workers = min(jobs, len(queue))
    ctx = get_context("spawn")
    idle: list = []
    # worker -> (index, attempt, budget start): the dispatch time,
    # restamped when the worker reports the job started.
    busy: dict = {}

    def lose(worker, reason: str) -> None:
        worker.stop()
        emit(
            "pool.restart", reason=reason,
            restarts=stream.state.n_pool_restarts + 1,
        )

    try:
        while (queue or busy) and not aborted:
            while queue and len(busy) < n_workers:
                index, attempt = heapq.heappop(queue)
                job = job_list[index]
                emit(
                    "job.submit", job=index, digest=job.digest,
                    experiment=job.experiment, seed=job.seed,
                    attempt=attempt,
                )
                worker = (
                    idle.pop() if idle
                    else _InlineWorker() if inline else _Worker(ctx)
                )
                busy[worker] = (index, attempt, time.monotonic())
                worker.send(
                    (job.experiment, job.config, job.seed, job.digest,
                     attempt, staging_for(index))
                )
            # Wake up for the heartbeat or the earliest job deadline,
            # whichever comes first.
            wake = []
            if timeout_s is not None:
                wake = [t0 + timeout_s for (_, _, t0) in busy.values()]
            if heartbeat is not None:
                wake.append(time.monotonic() + HEARTBEAT_S)
            wait_s = (
                max(min(wake) - time.monotonic(), 0.0) + 0.01 if wake else None
            )
            for worker in _ready(busy, wait_s):
                index, attempt, _ = busy[worker]
                job = job_list[index]
                try:
                    reply = worker.recv()
                except (EOFError, OSError):
                    del busy[worker]
                    lose(worker, "crash")
                    fail(index, job, attempt, WorkerCrashError(
                        f"worker died while running {job.label} "
                        f"(exit code {worker.proc.exitcode})"
                    ))
                    continue
                if isinstance(reply, float):
                    busy[worker] = (index, attempt, time.monotonic())
                    emit(
                        "job.start", t=reply, job=index,
                        worker=worker.pid, attempt=attempt,
                    )
                    continue
                del busy[worker]
                idle.append(worker)
                ok, value = reply
                if ok:
                    payload, checksum, wall = value
                    if digests.payload_checksum(payload) == checksum:
                        emit("job.end", job=index, worker=worker.pid, wall_s=wall)
                        finish_run(
                            index, job, payload, wall, attempts=attempt + 1
                        )
                        continue
                    value = ResultIntegrityError(
                        f"payload of {job.label} failed its integrity "
                        f"checksum between worker and parent"
                    )
                fail(index, job, attempt, value)
            tick()
            if timeout_s is None:
                continue
            now = time.monotonic()
            for worker, (index, attempt, t0) in list(busy.items()):
                if now - t0 < timeout_s:
                    continue
                del busy[worker]
                emit(
                    "job.timeout", job=index, attempt=attempt,
                    elapsed_s=now - t0, timeout_s=timeout_s,
                )
                lose(worker, "timeout")
                job = job_list[index]
                fail(
                    index, job, attempt,
                    JobTimeoutError(job.label, timeout_s, now - t0),
                    timed_out=True,
                )
    finally:
        # Hung or cancelled workers must not outlive the sweep.
        for worker in idle + list(busy):
            worker.stop()
        if staging_root is not None:
            shutil.rmtree(staging_root, ignore_errors=True)

    emit(
        "sweep.end",
        n_done=len(results),
        n_quarantined=len(quarantined),
        aborted=aborted,
        cache={
            k: v - cache_base.get(k, 0)
            for k, v in cache.counts().items()
        } if cache is not None else {},
    )
    report = SweepReport(
        [results[i] for i in sorted(results)],
        failures=[quarantined[i] for i in sorted(quarantined)],
        n_retries=stream.state.n_retries,
        n_timeouts=stream.state.n_timeouts,
        n_pool_restarts=stream.state.n_pool_restarts,
        aborted=aborted,
    )
    if telemetry is not None:
        from repro.obs.telemetry import summarize, write_summary

        report.telemetry = summarize(stream.events)
        write_summary(telemetry, report.telemetry)
        if fleet_index is not None:
            fleet_index.record_harness(report.telemetry)
    # One final heartbeat regardless of channel or outcome: a fully
    # cache-served sweep must still drive the live view to its last
    # frame (with the sweep.end totals above) instead of silently
    # skipping the heartbeat path.
    tick()
    return report
