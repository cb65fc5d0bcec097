"""Serial engine semantics: expansion, caching, refresh, obs artifacts."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.sweep import ResultCache, SweepSpec, run_sweep

SPEC = SweepSpec(
    experiments=["pingpong", "checkpoint_resilience"],
    seeds=[0, 1],
    overrides={
        "pingpong": {"rounds": 1, "sizes_kib": [1], "n_pairs": 1},
        "checkpoint_resilience": {"work_s": 200.0, "mtbf_s": 120.0},
    },
)


def test_resolve_expands_experiment_major():
    jobs = SPEC.resolve()
    assert [(j.experiment, j.seed) for j in jobs] == [
        ("pingpong", 0), ("pingpong", 1),
        ("checkpoint_resilience", 0), ("checkpoint_resilience", 1),
    ]
    assert len({j.digest for j in jobs}) == 4
    assert jobs[0].config["rounds"] == 1


def test_star_overrides_apply_where_field_exists():
    spec = SweepSpec(
        experiments=["pingpong", "checkpoint_resilience"],
        seeds=[0],
        overrides={"*": {"rounds": 9, "work_s": 50.0}},
    )
    jobs = spec.resolve()
    assert jobs[0].config["rounds"] == 9
    assert "rounds" not in jobs[1].config
    assert jobs[1].config["work_s"] == 50.0


def test_bad_jobs_count_rejected():
    with pytest.raises(ConfigurationError):
        run_sweep(SPEC, jobs=0)


def test_cold_then_warm_bit_identical(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cold = run_sweep(SPEC, jobs=1, cache=cache)
    assert cold.n_ran == 4 and cold.n_cached == 0
    warm = run_sweep(SPEC, jobs=1, cache=cache)
    assert warm.n_cached == 4 and warm.n_ran == 0
    # The acceptance bar: a cache hit returns bit-identical payloads.
    for a, b in zip(cold.results, warm.results):
        assert a.payload == b.payload
        assert a.job.digest == b.job.digest
    assert cold.digest() == warm.digest()


def test_refresh_overwrites_instead_of_hitting(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    run_sweep(SPEC, jobs=1, cache=cache)
    again = run_sweep(SPEC, jobs=1, cache=cache, refresh=True)
    assert again.n_cached == 0 and again.n_ran == 4


def test_progress_callback_sees_every_job(tmp_path):
    seen = []
    run_sweep(SPEC, jobs=1, progress=lambda d, n, r: seen.append((d, n, r.job.label)))
    assert len(seen) == 4
    assert seen[-1][0] == 4 and all(n == 4 for _, n, _ in seen)


def test_obs_exports_flow_through_the_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cold_dir = tmp_path / "obs_cold"
    warm_dir = tmp_path / "obs_warm"
    spec = SweepSpec(
        experiments=["checkpoint_resilience"], seeds=[0],
        overrides=SPEC.overrides,
    )
    cold = run_sweep(spec, jobs=1, cache=cache, obs_dir=cold_dir)
    assert cold.n_ran == 1
    blame = cold_dir / "checkpoint_resilience_seed0.blame.json"
    assert blame.exists()
    # Warm pass: artifacts come back out of the cache, bit-identical.
    warm = run_sweep(spec, jobs=1, cache=cache, obs_dir=warm_dir)
    assert warm.n_cached == 1
    warm_blame = warm_dir / "checkpoint_resilience_seed0.blame.json"
    assert warm_blame.read_bytes() == blame.read_bytes()
    assert warm.results[0].payload == cold.results[0].payload


def test_entry_without_artifacts_upgrades_when_obs_requested(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = SweepSpec(
        experiments=["checkpoint_resilience"], seeds=[0],
        overrides=SPEC.overrides,
    )
    plain = run_sweep(spec, jobs=1, cache=cache)  # no obs -> no artifacts
    obs_dir = tmp_path / "obs"
    upgraded = run_sweep(spec, jobs=1, cache=cache, obs_dir=obs_dir)
    assert upgraded.n_ran == 1  # re-ran to capture artifacts
    assert upgraded.results[0].payload == plain.results[0].payload
    assert (obs_dir / "checkpoint_resilience_seed0.metrics.json").exists()


def test_summary_and_report_dict(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    report = run_sweep(SPEC, jobs=1, cache=cache)
    doc = report.as_dict()
    assert doc["n_jobs"] == 4
    assert doc["digest"] == report.digest()
    json.dumps(doc)  # JSON-serialisable end to end
    table = report.summary_table()
    assert table is not None


def test_zero_job_spec_rejected(tmp_path):
    spec = SweepSpec(experiments=[], seeds=[])
    with pytest.raises(ConfigurationError, match="zero jobs"):
        run_sweep(spec, cache=ResultCache(tmp_path))


# ---------------------------------------------------------------------------
# Harness telemetry
# ---------------------------------------------------------------------------


def test_telemetry_channel_records_the_sweep(tmp_path):
    from repro.obs.telemetry import read_events

    cache = ResultCache(tmp_path / "cache")
    channel = tmp_path / "telemetry.jsonl"
    report = run_sweep(SPEC, jobs=1, cache=cache, telemetry=channel)
    events = read_events(channel)
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "sweep.start" and kinds[-1] == "sweep.end"
    assert kinds.count("job.submit") == 4
    assert kinds.count("job.start") == 4
    assert kinds.count("job.end") == 4
    assert kinds.count("cache.promote") == 4  # every cold job is stored
    assert "cache.hit" not in kinds
    start = events[0]
    assert start["n_jobs"] == 4 and start["n_workers"] == 1
    assert set(start["experiments"]) == {"pingpong", "checkpoint_resilience"}
    # Every record is ordered on one epoch axis and schema-stamped.
    assert all(e["schema"] == 1 for e in events)
    assert [e["t"] for e in events] == sorted(e["t"] for e in events)
    # The report carries the folded summary; the sweep digest does not.
    assert report.telemetry is not None
    assert report.telemetry["n_jobs"] == 4
    assert report.telemetry["n_ran"] == 4
    assert "telemetry" in report.as_dict()


def test_telemetry_warm_pass_reports_per_sweep_cache_deltas(tmp_path):
    from repro.obs.telemetry import read_events

    cache = ResultCache(tmp_path / "cache")
    channel_cold = tmp_path / "cold.jsonl"
    channel_warm = tmp_path / "warm.jsonl"
    run_sweep(SPEC, jobs=1, cache=cache, telemetry=channel_cold)
    warm = run_sweep(SPEC, jobs=1, cache=cache, telemetry=channel_warm)
    kinds = [e["kind"] for e in read_events(channel_warm)]
    assert kinds.count("cache.hit") == 4
    assert "job.start" not in kinds  # nothing simulated on the warm pass
    # Cumulative process-lifetime counters from the cold pass must not
    # leak into the warm sweep's own totals.
    assert warm.telemetry["cache"]["hits"] == 4
    assert warm.telemetry["cache"]["misses"] == 0
    assert warm.telemetry["cache"]["hit_rate"] == 1.0
    assert warm.telemetry["n_cached"] == 4 and warm.telemetry["n_ran"] == 0


def test_telemetry_does_not_perturb_digest(tmp_path):
    plain = run_sweep(SPEC, jobs=1, cache=ResultCache(tmp_path / "a"))
    with_tele = run_sweep(
        SPEC, jobs=1, cache=ResultCache(tmp_path / "b"),
        telemetry=tmp_path / "telemetry.jsonl",
    )
    assert plain.digest() == with_tele.digest()
    for a, b in zip(plain.results, with_tele.results):
        assert a.payload == b.payload
    # ... and the summary doc itself is excluded from the digest: the
    # as_dict differs only by the wall-clock telemetry block.
    assert plain.telemetry is None and with_tele.telemetry is not None


def test_telemetry_writes_summary_and_harness_record(tmp_path):
    from repro.obs.fleet import FleetIndex

    cache = ResultCache(tmp_path / "cache")
    channel = tmp_path / "telemetry.jsonl"
    report = run_sweep(SPEC, jobs=1, cache=cache, telemetry=channel)
    summary = json.loads((tmp_path / "telemetry.json").read_text())
    assert summary["n_jobs"] == 4
    assert summary["n_completed"] == len(report.results)
    assert summary["cache"]["stores"] == 4
    harness = FleetIndex.at_cache_root(cache.root).load_harness()
    assert len(harness) == 1
    assert harness[0]["n_jobs"] == 4


def test_telemetry_heartbeat_fires(tmp_path):
    from repro.obs.telemetry import read_events

    beats = []
    run_sweep(
        SPEC, jobs=1, cache=ResultCache(tmp_path / "cache"),
        telemetry=tmp_path / "telemetry.jsonl",
        heartbeat=beats.append,
    )
    assert beats  # called at least once per completion batch
    # Each beat carries the records since the previous one: together
    # they are exactly what the channel file holds.
    streamed = [record for beat in beats for record in beat]
    assert streamed == read_events(tmp_path / "telemetry.jsonl")


def test_heartbeat_and_end_totals_on_fully_cached_sweep(tmp_path):
    # A sweep where every job is cache-served never enters the execute
    # loop; the final tick and the sweep.end totals must fire anyway so
    # live views land on a finished state instead of a stale one.
    from repro.obs.telemetry import read_events

    cache = ResultCache(tmp_path / "cache")
    run_sweep(SPEC, jobs=1, cache=cache)
    beats = []
    warm = run_sweep(
        SPEC, jobs=1, cache=cache,
        telemetry=tmp_path / "warm.jsonl",
        heartbeat=beats.append,
    )
    assert warm.n_cached == 4 and beats
    end = read_events(tmp_path / "warm.jsonl")[-1]
    assert end["kind"] == "sweep.end"
    assert end["n_done"] == 4 and end["n_quarantined"] == 0
    assert end["aborted"] is False


def test_run_smoke_with_telemetry_dir(tmp_path, capsys):
    from repro.sweep.smoke import run_smoke

    code = run_smoke(
        jobs=1, cache_root=tmp_path / "cache",
        echo=print, telemetry_dir=tmp_path / "tele",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "telemetry ok" in out
    for name in ("cold.telemetry.jsonl", "cold.telemetry.json",
                 "warm.telemetry.jsonl", "warm.telemetry.json"):
        assert (tmp_path / "tele" / name).exists(), name
    warm = json.loads((tmp_path / "tele" / "warm.telemetry.json").read_text())
    assert warm["cache"]["hit_rate"] == 1.0


def test_pooled_heartbeat_sees_workers_that_write_nothing(monkeypatch, tmp_path):
    # Workers only report over their pipes; the parent's heartbeat must
    # still show a job running on a child process while it runs.
    import multiprocessing
    import os

    from repro.obs.telemetry import FleetState, read_events
    from repro.sweep.chaos import ChaosSpec

    spec = SweepSpec(
        experiments=["pingpong"], seeds=[0, 1], overrides=SPEC.overrides
    )
    d0, d1 = (job.digest for job in spec.resolve())
    # A salt whose schedule hangs job 0 (about 1 s) and leaves job 1 be.
    salt = next(
        f"s{n}" for n in range(5000)
        if ChaosSpec(hang=0.5, salt=f"s{n}").draw(d0, 0) == "hang"
        and ChaosSpec(hang=0.5, salt=f"s{n}").draw(d1, 0) is None
    )
    monkeypatch.setenv("REPRO_CHAOS", "hang:0.5")
    monkeypatch.setenv("REPRO_CHAOS_SALT", salt)
    monkeypatch.setenv("REPRO_CHAOS_HANG_S", "1")
    state = FleetState()
    running, children = [], set()

    def beat(records):
        state.apply_all(records)
        running.extend(j.worker for j in state.running())
        children.update(p.pid for p in multiprocessing.active_children())

    channel = tmp_path / "telemetry.jsonl"
    report = run_sweep(spec, jobs=2, telemetry=channel, heartbeat=beat)
    assert report.ok and report.n_retries == 0
    assert running and os.getpid() not in running
    events = read_events(channel)
    submitted = {}
    starts = 0
    for e in events:
        if e["kind"] == "job.submit":
            submitted[e["job"]] = e["t"]
        elif e["kind"] == "job.start":
            starts += 1
            assert e["t"] >= submitted[e["job"]]
            assert e["worker"] in children
    assert starts == 2 and len(children) == 2
    assert set(running) <= children
