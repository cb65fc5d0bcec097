"""End-to-end sweep: fanned == serial, smoke gate, CLI surface."""

import os
import subprocess
import sys
from pathlib import Path

from repro.sweep import ResultCache, SweepSpec, run_smoke, run_sweep

REPO = Path(__file__).resolve().parents[2]

SPEC = SweepSpec(
    experiments=["pingpong", "checkpoint_resilience", "spawn_cost"],
    seeds=[0, 1, 2],
    overrides={
        "pingpong": {"rounds": 1, "sizes_kib": [1], "n_pairs": 1},
        "checkpoint_resilience": {"work_s": 200.0, "mtbf_s": 120.0},
        "spawn_cost": {"n_children": 2, "n_booster": 4},
    },
)


def test_fanned_sweep_matches_serial_bit_for_bit(tmp_path):
    """3 experiments x 3 seeds across 2 workers == serial, digest-exact."""
    serial = run_sweep(SPEC, jobs=1)
    fanned = run_sweep(SPEC, jobs=2)
    assert serial.digest() == fanned.digest()
    assert [r.job.digest for r in serial.results] == [
        r.job.digest for r in fanned.results
    ]
    for a, b in zip(serial.results, fanned.results):
        assert a.payload == b.payload


def test_fanned_telemetry_matches_serial_digest(tmp_path):
    """Telemetry on, fanned across workers: digest still equals serial.

    The parent records every worker's job.start/job.end in the channel
    — the acceptance bar is that the fan-out never leaks into
    simulated results.
    """
    from repro.obs.telemetry import read_events, summarize

    serial = run_sweep(SPEC, jobs=1)
    channel = tmp_path / "telemetry.jsonl"
    fanned = run_sweep(SPEC, jobs=2, telemetry=channel)
    assert serial.digest() == fanned.digest()
    events = read_events(channel)
    kinds = [e["kind"] for e in events]
    assert kinds.count("job.start") == 9 and kinds.count("job.end") == 9
    # The first dispatch hands one job to each of the two owned workers,
    # and each lives for the whole sweep.
    workers = {e["worker"] for e in events if e["kind"] == "job.start"}
    assert len(workers) == 2
    summary = summarize(events)
    assert summary["n_jobs"] == summary["n_completed"] == 9
    assert summary["n_workers"] == 2
    assert fanned.telemetry["n_ran"] == 9


def test_fanned_cold_then_warm_cache_served(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cold = run_sweep(SPEC, jobs=2, cache=cache)
    assert cold.n_ran == 9
    warm = run_sweep(SPEC, jobs=2, cache=cache)
    assert warm.n_cached == 9  # >= 95% bar, trivially
    assert cold.digest() == warm.digest()


def test_run_smoke_passes(tmp_path, capsys):
    lines = []
    assert run_smoke(jobs=2, cache_root=tmp_path / "smoke", echo=lines.append) == 0
    assert any("sweep smoke passed" in ln for ln in lines)


def _cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", "sweep", *args],
        capture_output=True, text=True, env=env, cwd=REPO,
    )


def test_cli_list():
    out = _cli("--list")
    assert out.returncode == 0
    assert "pingpong" in out.stdout
    assert "checkpoint_resilience" in out.stdout


def test_cli_sweep_cold_then_warm(tmp_path):
    args = (
        "-e", "checkpoint_resilience", "-s", "0,1", "-j", "1",
        "--cache-dir", str(tmp_path / "cache"),
        "--set", "checkpoint_resilience.work_s=200.0",
        "--set", "checkpoint_resilience.mtbf_s=120.0",
        "--summary-out", str(tmp_path / "summary.json"),
    )
    cold = _cli(*args)
    assert cold.returncode == 0, cold.stderr
    warm = _cli(*args)
    assert warm.returncode == 0, warm.stderr

    import json

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_jobs"] == 2
    assert summary["n_cached"] == 2  # second run fully cache-served

    def digest_of(txt):
        line = next(ln for ln in txt.splitlines() if "sweep digest" in ln)
        return line.split()[2]

    assert digest_of(cold.stdout) == digest_of(warm.stdout)
