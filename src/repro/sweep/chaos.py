"""Deterministic fault injection for sweep workers.

``REPRO_CHAOS=crash:0.25,hang:0.2,corrupt:0.25`` arms a fault injector
inside every job execution.  Whether a given attempt is hit — and by
which fault — is a pure function of ``(salt, mode, job digest,
attempt)``: no RNG state, no wall clock.  The same chaos spec therefore
injects the same faults on every machine and every replay, which is
what lets CI assert that a chaos-ridden sweep *converges to the same
report digest* as a clean run: each retry is a fresh attempt number,
so a job that crashed on attempt 0 draws independently on attempt 1.

Fault modes (fixed evaluation order, at most one fires per attempt):

``crash``
    The worker process dies mid-job (``os._exit``) — the parent sees the
    worker's pipe close, fails that one job and replaces that one
    worker.  On the serial path it raises :class:`ChaosCrash` instead (a
    process cannot usefully kill itself).
``hang``
    The job sleeps ``REPRO_CHAOS_HANG_S`` seconds (default 30) before
    running — long enough to trip any sane per-job timeout, after which
    the job completes *correctly*; a hang is a straggler, not a wrong
    answer.
``corrupt``
    The job runs, its payload checksum is taken, then the payload is
    mutated — exercising the parent-side integrity check.

Chaos is a test plane: corrupted payloads are caught by checksum before
they can reach the cache or the report, so the digest-parity gate is a
real end-to-end proof, not a tautology.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import ConfigurationError, SweepError
from repro.sweep import digests

#: ``crash:p,hang:p,corrupt:p`` — any subset, probabilities in [0, 1].
CHAOS_ENV = "REPRO_CHAOS"
#: Seconds an injected hang sleeps before the job proceeds.
CHAOS_HANG_ENV = "REPRO_CHAOS_HANG_S"
#: Extra salt mixed into every draw — vary it to explore different
#: deterministic fault schedules without touching probabilities.
CHAOS_SALT_ENV = "REPRO_CHAOS_SALT"

#: Evaluation order; the first mode whose draw fires wins the attempt.
MODES = ("crash", "hang", "corrupt")

#: Exit status of a chaos-crashed worker (distinctive in core dumps
#: and CI logs; any abrupt exit is handled identically).
CRASH_EXIT_CODE = 64


class ChaosCrash(SweepError):
    """Injected crash on the serial path (workers ``os._exit`` instead)."""


@dataclass(frozen=True)
class ChaosSpec:
    """Parsed fault-injection configuration."""

    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    hang_s: float = 30.0
    salt: str = ""

    @property
    def active(self) -> bool:
        return self.crash > 0 or self.hang > 0 or self.corrupt > 0

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None) -> "ChaosSpec":
        """Parse ``REPRO_CHAOS`` (inactive spec when unset/empty)."""
        env = os.environ if env is None else env
        raw = (env.get(CHAOS_ENV) or "").strip()
        probs = {mode: 0.0 for mode in MODES}
        if raw:
            for part in raw.split(","):
                part = part.strip()
                if not part:
                    continue
                mode, sep, value = part.partition(":")
                mode = mode.strip()
                if not sep or mode not in probs:
                    raise ConfigurationError(
                        f"bad {CHAOS_ENV} entry {part!r}; expected "
                        f"mode:probability with mode in {MODES}"
                    )
                try:
                    p = float(value)
                except ValueError:
                    raise ConfigurationError(
                        f"bad {CHAOS_ENV} probability {value!r} for {mode}"
                    ) from None
                if not 0.0 <= p <= 1.0:
                    raise ConfigurationError(
                        f"{CHAOS_ENV} probability for {mode} must be in "
                        f"[0, 1], got {p}"
                    )
                probs[mode] = p
        hang_s = 30.0
        raw_hang = (env.get(CHAOS_HANG_ENV) or "").strip()
        if raw_hang:
            try:
                hang_s = float(raw_hang)
            except ValueError:
                raise ConfigurationError(
                    f"bad {CHAOS_HANG_ENV} value {raw_hang!r}"
                ) from None
            if hang_s < 0:
                raise ConfigurationError(
                    f"{CHAOS_HANG_ENV} must be >= 0, got {hang_s}"
                )
        return cls(
            crash=probs["crash"],
            hang=probs["hang"],
            corrupt=probs["corrupt"],
            hang_s=hang_s,
            salt=env.get(CHAOS_SALT_ENV, ""),
        )

    def draw(self, digest: str, attempt: int) -> Optional[str]:
        """Which fault (if any) hits this ``(job, attempt)``.

        One independent deterministic draw per mode, evaluated in
        :data:`MODES` order; the first hit wins.  Keying on the attempt
        number is what makes retries converge: the replayed schedule is
        identical, but each attempt is a fresh draw.
        """
        for mode in MODES:
            p: float = getattr(self, mode)
            if p <= 0.0:
                continue
            u = digests.uniform(f"chaos|{self.salt}|{mode}|{digest}|{attempt}")
            if u < p:
                return mode
        return None


def corrupt_payload(payload: dict, digest: str, attempt: int) -> dict:
    """Deterministically mutated copy of *payload*.

    The mutation is applied *after* the integrity checksum is taken, so
    the parent's verification must flag it — silently serving this
    payload would poison the report digest, which is exactly what the
    chaos parity gate would catch.
    """
    doctored = dict(payload)
    doctored["__chaos_corrupt__"] = f"{digest[:12]}:{attempt}"
    return doctored
