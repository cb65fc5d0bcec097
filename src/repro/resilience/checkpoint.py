"""Checkpoint/restart modelling.

Two views of the same question — how much does keeping an application
alive under failures cost, and how often should it checkpoint:

* the first-order **analytic** model (Daly / Young): optimal interval
  ``tau* = sqrt(2 * C * M)`` for checkpoint cost C and MTBF M (valid
  for C << M), and the expected-runtime estimate;
* a **discrete-event simulation** of a checkpointed run, exact for
  the exponential-failure assumption and usable inside larger
  simulations (it is a plain generator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.simulator import Simulator


def daly_optimal_interval(checkpoint_cost_s: float, mtbf_s: float) -> float:
    """Young/Daly first-order optimum ``sqrt(2 C M)``."""
    if checkpoint_cost_s <= 0 or mtbf_s <= 0:
        raise ConfigurationError("checkpoint cost and MTBF must be > 0")
    return math.sqrt(2.0 * checkpoint_cost_s * mtbf_s)


def expected_runtime(
    work_s: float,
    interval_s: float,
    checkpoint_cost_s: float,
    restart_cost_s: float,
    mtbf_s: float,
) -> float:
    """Expected wall time of a checkpointed run (first-order model).

    Each segment of ``interval`` work costs ``interval + C``; with
    failure rate ``1/M`` the expected lost work per failure is about
    ``(interval + C)/2 + R``.  Standard first-order expansion — good
    when ``interval + C << M``.
    """
    if min(work_s, interval_s, mtbf_s) <= 0:
        raise ConfigurationError("work, interval and MTBF must be > 0")
    if checkpoint_cost_s < 0 or restart_cost_s < 0:
        raise ConfigurationError("costs must be >= 0")
    segments = work_s / interval_s
    base = work_s + segments * checkpoint_cost_s
    failures = base / mtbf_s
    lost_per_failure = (interval_s + checkpoint_cost_s) / 2.0 + restart_cost_s
    return base + failures * lost_per_failure


#: Largest expected number of attempts per segment the simulation will
#: take on.  A segment of ``interval + C`` survives with probability
#: ``exp(-(interval + C) / M)``, so the attempts it needs grow
#: exponentially in that ratio; past this limit a run would simulate
#: millions of failures without finishing.
MAX_ATTEMPTS_PER_SEGMENT = 1e4


@dataclass(slots=True)
class CheckpointStats:
    """Outcome of one simulated checkpointed run."""

    elapsed_s: float
    work_s: float
    n_checkpoints: int
    n_failures: int

    @property
    def wasted_s(self) -> float:
        """Non-productive time: checkpoints, lost work, restarts.

        Derived, not stored: keeping a separate field invites 1-ulp
        violations of ``elapsed == work + wasted`` (in IEEE 754,
        ``work + (elapsed - work)`` need not round back to ``elapsed``).
        """
        return self.elapsed_s - self.work_s

    @property
    def efficiency(self) -> float:
        """Useful work / wall time."""
        return self.work_s / self.elapsed_s if self.elapsed_s > 0 else 0.0


def simulate_checkpointed_run(
    sim: "Simulator",
    work_s: float,
    interval_s: float,
    checkpoint_cost_s: float,
    restart_cost_s: float,
    mtbf_s: float,
    rng_stream: str = "checkpoint",
):
    """Generator: run ``work_s`` of work under exponential failures.

    Progress is committed only at checkpoints; a failure rolls back to
    the last one and pays the restart.  Raises
    :class:`~repro.errors.ConfigurationError` when a segment would need
    more than :data:`MAX_ATTEMPTS_PER_SEGMENT` expected attempts.
    Returns :class:`CheckpointStats`.  Use inside a simulation process::

        stats = yield from simulate_checkpointed_run(sim, ...)
    """
    if min(work_s, interval_s, mtbf_s) <= 0:
        raise ConfigurationError("work, interval and MTBF must be > 0")
    exposure = (min(interval_s, work_s) + checkpoint_cost_s) / mtbf_s
    if exposure > math.log(MAX_ATTEMPTS_PER_SEGMENT):
        raise ConfigurationError(
            f"a segment would need e^{exposure:.3g} expected attempts "
            f"(limit {MAX_ATTEMPTS_PER_SEGMENT:.0e}); shorten the interval "
            f"or the checkpoint cost relative to the MTBF"
        )
    rng = sim.rng.stream(rng_stream)
    start = sim.now
    committed = 0.0
    n_checkpoints = 0
    n_failures = 0
    next_failure = sim.now + float(rng.exponential(mtbf_s))

    while committed < work_s:
        segment = min(interval_s, work_s - committed)
        # Attempt one segment + its checkpoint.
        attempt = segment + checkpoint_cost_s
        if sim.now + attempt <= next_failure:
            yield sim.timeout(attempt)
            committed += segment
            n_checkpoints += 1
        else:
            # Fail partway: burn the time up to the failure, restart.
            yield sim.timeout(max(next_failure - sim.now, 0.0))
            n_failures += 1
            yield sim.timeout(restart_cost_s)
            next_failure = sim.now + float(rng.exponential(mtbf_s))

    elapsed = sim.now - start
    return CheckpointStats(
        elapsed_s=elapsed,
        work_s=work_s,
        n_checkpoints=n_checkpoints,
        n_failures=n_failures,
    )
