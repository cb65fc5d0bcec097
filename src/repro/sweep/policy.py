"""Failure policy for the sweep engine.

The policy layer is what lets a sweep degrade gracefully instead of
aborting: hung jobs are killed after a wall-clock budget, failed jobs
go straight back on the queue a bounded number of times, a crashed
worker is replaced, and jobs that exhaust their retry budget are
*quarantined* — recorded in the report's structured failure section
while the rest of the fleet completes.

Every sweep runs under a policy: ``run_sweep`` defaults to
``FailurePolicy()``.  Retries are not delayed, because every failure
the engine retries is tied to the attempt, not to wall time: a crashed
or killed worker is replaced by a fresh spawn, a corrupted payload is
recomputed, chaos draws are keyed by ``(digest, attempt)``, and a
deterministic exception fails the same way after any delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FailurePolicy:
    """How a sweep responds to job failures.

    The defaults retry each failed job three times, quarantine it
    after that, never time a job out and never abort the sweep.
    """

    #: Per-job wall-clock budget in seconds (``None`` disables timeouts),
    #: counted from the moment a worker picks the job up.  Enforced on
    #: every sweep with ``jobs >= 2``, a lone cache miss included; at
    #: ``jobs == 1`` the serial path cannot kill itself.
    timeout_s: Optional[float] = None
    #: Failed attempts a job may burn before quarantine; the job runs at
    #: most ``max_retries + 1`` times.  Only the job that failed is
    #: charged, so this also bounds a job that keeps crashing workers.
    max_retries: int = 3
    #: Abort once more than this many jobs are quarantined
    #: (``None`` = never; ``0`` aborts at the first quarantine).
    max_failures: Optional[int] = None

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.max_failures is not None and self.max_failures < 0:
            raise ConfigurationError(
                f"max_failures must be >= 0, got {self.max_failures}"
            )


@dataclass
class JobFailure:
    """One quarantined job: the structured record of what went wrong.

    Carried on :attr:`SweepReport.failures` and in ``as_dict()`` —
    strictly outside :meth:`SweepReport.digest`, which covers only the
    deterministic payloads of jobs that *succeeded*.
    """

    index: int
    experiment: str
    seed: int
    digest: str
    error_class: str
    message: str
    #: SHA-256 prefix of the formatted traceback — stable enough to
    #: dedup "same crash" across runs without shipping full tracebacks
    #: into summary JSON.
    traceback_digest: str
    attempts: int
    timed_out: bool = False

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "experiment": self.experiment,
            "seed": self.seed,
            "digest": self.digest,
            "error_class": self.error_class,
            "message": self.message,
            "traceback_digest": self.traceback_digest,
            "attempts": self.attempts,
            "timed_out": self.timed_out,
        }

    @property
    def label(self) -> str:
        return f"{self.experiment} seed={self.seed}"
