"""CI smoke gates for the sweep engine.

``python -m repro sweep --smoke`` (:func:`run_smoke`) proves the cache
serves a warm re-run bit-identically; ``--smoke-chaos``
(:func:`run_chaos_smoke`) proves a sweep under a pinned schedule of
injected crashes, hangs and corruptions converges to the clean digest
while charging each fault to exactly the job it hit.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.sweep import digests
from repro.sweep.cache import ResultCache
from repro.sweep.chaos import (
    CHAOS_ENV,
    CHAOS_HANG_ENV,
    CHAOS_SALT_ENV,
    ChaosSpec,
)
from repro.sweep.engine import SweepReport, SweepSpec, run_sweep
from repro.sweep.policy import FailurePolicy

#: The two cheapest experiments carry the CI smoke run.
SMOKE_EXPERIMENTS = ("pingpong", "checkpoint_resilience")
SMOKE_SEEDS = (0, 1)


def run_smoke(
    jobs: int = 2, cache_root=None, echo=print, telemetry_dir=None
) -> int:
    """Cold + warm smoke sweep; returns a process exit code.

    Runs 2 experiments x 2 seeds twice against one cache: the cold pass
    simulates everything, the warm pass must be served >= 95% from the
    cache with a bit-identical sweep digest.

    With *telemetry_dir* each pass streams a harness-telemetry channel
    (``cold.telemetry.jsonl`` / ``warm.telemetry.jsonl``) and the smoke
    additionally asserts the telemetry totals agree with what actually
    happened: every job accounted for on both passes, cold stores and
    warm cache hits matching the job count.  This is CI's proof that
    the telemetry layer measures the harness rather than inventing it.
    """
    spec = SweepSpec(experiments=list(SMOKE_EXPERIMENTS), seeds=list(SMOKE_SEEDS))
    owns_root = cache_root is None
    root = Path(cache_root) if cache_root else Path(tempfile.mkdtemp(prefix="repro-sweep-smoke-"))
    channels = {}
    if telemetry_dir is not None:
        telemetry_dir = Path(telemetry_dir)
        telemetry_dir.mkdir(parents=True, exist_ok=True)
        for phase in ("cold", "warm"):
            channels[phase] = telemetry_dir / f"{phase}.telemetry.jsonl"
            channels[phase].unlink(missing_ok=True)
    try:
        cache = ResultCache(root)
        t0 = time.perf_counter()
        cold = run_sweep(spec, jobs=jobs, cache=cache, telemetry=channels.get("cold"))
        t_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_sweep(spec, jobs=jobs, cache=cache, telemetry=channels.get("warm"))
        t_warm = time.perf_counter() - t0
        n = len(warm.results)
        frac = warm.n_cached / n if n else 0.0
        echo(
            f"sweep smoke: cold {cold.n_ran}/{len(cold.results)} simulated "
            f"({t_cold:.2f}s), warm {warm.n_cached}/{n} from cache "
            f"({t_warm:.2f}s)"
        )
        if cold.digest() != warm.digest():
            echo("SMOKE FAILED: warm sweep digest differs from cold run")
            return 1
        if frac < 0.95:
            echo(
                f"SMOKE FAILED: warm pass only {frac:.0%} cache-served "
                f"(need >= 95%)"
            )
            return 1
        if channels:
            failures = _check_smoke_telemetry(cold, warm, echo)
            if failures:
                for message in failures:
                    echo(f"SMOKE FAILED: {message}")
                return 1
        echo(f"sweep smoke passed (digest {cold.digest()[:16]}…)")
        return 0
    finally:
        if owns_root:
            shutil.rmtree(root, ignore_errors=True)


#: Pinned chaos schedule for the CI chaos smoke.  The code-version pin
#: freezes every job digest, and the digests freeze every fault draw —
#: so the smoke injects the *same* crashes/hangs/corruptions on every
#: machine and every commit, forever.
CHAOS_SMOKE_CODE_VERSION = "chaos-smoke-v1"
CHAOS_SMOKE_SPEC = "crash:0.3,hang:0.2,corrupt:0.3"
CHAOS_SMOKE_SALT = "ci"
CHAOS_SMOKE_POLICY = dict(timeout_s=5.0, max_retries=20)


def run_chaos_smoke(jobs: int = 4, echo=print) -> int:
    """Chaos parity smoke; returns a process exit code.

    Runs the smoke spec twice under one failure policy — once clean,
    once with ``REPRO_CHAOS`` injecting worker crashes, hangs and
    corrupted payloads — and asserts the sweep *converges*: every job
    retries to completion, nothing is quarantined, and the chaos-ridden
    report digest is bit-identical to the clean one.  The clean pass
    must also report zero retries/timeouts/restarts, proving the policy
    layer is inert when nothing fails.  The chaos pass must count
    exactly the faults the pinned schedule injects — no more (a fault
    charged to a bystander) and no fewer.
    """
    spec = SweepSpec(experiments=list(SMOKE_EXPERIMENTS), seeds=list(SMOKE_SEEDS))
    policy = FailurePolicy(**CHAOS_SMOKE_POLICY)
    saved = {
        key: os.environ.get(key)
        for key in (
            digests.CODE_VERSION_ENV, CHAOS_ENV, CHAOS_HANG_ENV,
            CHAOS_SALT_ENV,
        )
    }
    try:
        os.environ[digests.CODE_VERSION_ENV] = CHAOS_SMOKE_CODE_VERSION
        os.environ.pop(CHAOS_ENV, None)
        clean = run_sweep(spec, jobs=jobs, policy=policy)
        if not clean.ok or clean.n_retries or clean.n_timeouts \
                or clean.n_pool_restarts:
            echo(
                "CHAOS SMOKE FAILED: clean run was not clean "
                f"(retries {clean.n_retries}, timeouts {clean.n_timeouts}, "
                f"restarts {clean.n_pool_restarts}, "
                f"quarantined {len(clean.failures)})"
            )
            return 1
        os.environ[CHAOS_ENV] = CHAOS_SMOKE_SPEC
        os.environ[CHAOS_HANG_ENV] = "60"
        os.environ[CHAOS_SALT_ENV] = CHAOS_SMOKE_SALT
        # The schedule fixes every fault in advance: a job fails until
        # its first clean draw, and each hang outlasts the timeout
        # (except inline, where nothing can time out).
        chaos = ChaosSpec.from_env()
        want_retries = want_timeouts = 0
        for job in spec.resolve():
            attempt = 0
            mode = chaos.draw(job.digest, attempt)
            while mode is not None and (mode != "hang" or jobs > 1):
                want_retries += 1
                want_timeouts += mode == "hang"
                attempt += 1
                mode = chaos.draw(job.digest, attempt)
        t0 = time.perf_counter()
        chaotic = run_sweep(spec, jobs=jobs, policy=policy)
        t_chaos = time.perf_counter() - t0
        echo(
            f"chaos sweep: {len(chaotic.results)}/{len(clean.results)} jobs "
            f"converged in {t_chaos:.1f}s — {chaotic.n_retries} retries, "
            f"{chaotic.n_timeouts} timeouts, "
            f"{chaotic.n_pool_restarts} pool restarts"
        )
        if chaotic.failures:
            for f in chaotic.failures:
                echo(
                    f"CHAOS SMOKE FAILED: {f.label} quarantined after "
                    f"{f.attempts} attempts ({f.error_class}: {f.message})"
                )
            return 1
        if len(chaotic.results) != len(clean.results):
            echo("CHAOS SMOKE FAILED: chaos run settled fewer jobs")
            return 1
        if chaotic.digest() != clean.digest():
            echo(
                "CHAOS SMOKE FAILED: chaos-ridden sweep digest differs "
                f"from the clean run ({chaotic.digest()[:16]} != "
                f"{clean.digest()[:16]})"
            )
            return 1
        if (chaotic.n_retries, chaotic.n_timeouts) != (want_retries, want_timeouts):
            echo(
                f"CHAOS SMOKE FAILED: the pinned schedule injects "
                f"{want_retries} faults ({want_timeouts} hangs) but the sweep "
                f"counted {chaotic.n_retries} retries and "
                f"{chaotic.n_timeouts} timeouts"
            )
            return 1
        if not want_retries:
            # A chaos run that injected nothing proves nothing.
            echo("CHAOS SMOKE FAILED: chaos plane injected no faults")
            return 1
        echo(
            f"chaos smoke passed: digest parity under {want_retries} "
            f"injected faults "
            f"({clean.digest()[:16]}…)"
        )
        return 0
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _check_smoke_telemetry(
    cold: SweepReport, warm: SweepReport, echo=print
) -> list[str]:
    """Telemetry-vs-reality mismatches of a smoke run (empty = ok)."""
    failures: list[str] = []

    def expect(phase: str, what: str, got, want) -> None:
        if got != want:
            failures.append(
                f"{phase} telemetry {what} = {got!r}, expected {want!r}"
            )

    for phase, report in (("cold", cold), ("warm", warm)):
        summary = report.telemetry
        if summary is None:
            failures.append(f"{phase} pass carried no telemetry summary")
            continue
        n = len(report.results)
        expect(phase, "n_jobs", summary.get("n_jobs"), n)
        expect(phase, "n_completed", summary.get("n_completed"), n)
        expect(phase, "n_cached", summary.get("n_cached"), report.n_cached)
        expect(phase, "n_ran", summary.get("n_ran"), report.n_ran)
        cache_counts = summary.get("cache") or {}
        if phase == "cold":
            expect(phase, "cache.stores", cache_counts.get("stores"), n)
        else:
            expect(phase, "cache.hits", cache_counts.get("hits"), n)
    if not failures:
        cold_cache = (cold.telemetry or {}).get("cache", {})
        echo(
            "sweep smoke telemetry ok: "
            f"cold ran {cold.telemetry['n_ran']}/{cold.telemetry['n_jobs']} "
            f"(stores {cold_cache.get('stores')}, "
            f"{cold_cache.get('bytes_promoted', 0)} bytes promoted), "
            f"warm cache hit rate "
            f"{(warm.telemetry.get('cache') or {}).get('hit_rate'):.0%}"
        )
    return failures
