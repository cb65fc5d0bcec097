"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload cb_alltoall --seed 0 --seconds 10 --trace 0

From the root of a checkout.  A run has two phases, each in fresh
interpreters started from this (``repro``-free) process:

1. *set-up*: one warm-up start, then ``SETUP_STARTS`` cold starts of
   ``oprunner.py --mode setup``, half before and half after the ops
   phase so that they sample the host across the whole run; ``setup_s``
   is the median time from launching the interpreter to the first op
   being ready.
2. *ops*: one process runs the seed's fixed list of equal-size ops
   (``--trace 0``: untimed warm-up op, then the timed ops; ``--trace 1``:
   half as many ops, every second one under the layer profiler).  A
   fixed reference kernel runs between ops; op times are reported at
   reference host speed (``hostspeed.py``).

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(medians over the traced ops).  The exit code is 0 when every op's
output matched ``expected.json``, 1 when some did not, and 2 (with
nothing printed) when the run could not be made at all.

``--write-benchmark-json`` regenerates ``BENCHMARK.json`` from
``benchspec.py`` instead of running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchspec  # noqa: E402
import hostspeed  # noqa: E402
import ops  # noqa: E402

SETUP_STARTS = 7
#: Hard limit for the whole run; the ops phase gets what set-up left.
DEADLINE_S = 170.0


class RunError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    """Environment for the interpreters this run starts.

    ``REPRO_*`` variables of the caller (observability directories,
    chaos injection, cache pins) are dropped so that they cannot change
    what is measured; a fixed hash seed keeps set iteration order, and
    with it the host work of an op, the same on every run.  Byte code is
    always cached, so every start after the first reads ``.pyc`` files
    whether or not the caller sets ``PYTHONDONTWRITEBYTECODE``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def oprunner_cmd(args, mode: str, workdir: Path, extra=()) -> list[str]:
    return [
        sys.executable,
        str(HERE / "oprunner.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--workdir", str(workdir),
        *extra,
    ]


def _last_json(text: str, what: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise RunError(f"{what} printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise RunError(f"{what} printed no JSON result: {lines[-1][:200]!r}") from exc


def cold_start(args, workdir: Path, deadline: float) -> tuple[float, dict]:
    """Launch a set-up interpreter; return (seconds to ready, its report)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        oprunner_cmd(args, "setup", workdir),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=child_env(),
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("set-up interpreter timed out") from None
    if proc.returncode != 0:
        raise RunError(f"set-up interpreter exited {proc.returncode}: {err.strip()[-500:]}")
    return ready, _last_json(line + out, "set-up interpreter")


def run_ops_process(args, workdir: Path, deadline: float) -> dict:
    mode = "traced" if args.trace else "timed"
    extra = []
    if args.expected is not None:
        extra += ["--expected", str(args.expected)]
    for spec in args.inject_delay:
        extra += ["--inject-delay", spec]
    try:
        proc = subprocess.run(
            oprunner_cmd(args, mode, workdir, extra),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=child_env(),
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} ops did not finish before the deadline") from None
    if proc.returncode != 0:
        raise RunError(f"{mode} ops exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return _last_json(proc.stdout, f"{mode} ops")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_samples: list[float], res: dict) -> dict:
    rss_kib = max(res["rss_self_kib"], res["rss_children_kib"])
    ok = (res["attempted"] - res["failed"]) / res["attempted"]
    # Op times at reference host speed (see hostspeed.py).
    norm_ms = [
        wall / ref * hostspeed.REFERENCE_MS
        for wall, ref in zip(res["op_s"], res["op_ref_s"])
    ] or [0.0]  # no op passed: the run is incorrect anyway
    total_s = sum(norm_ms) / 1e3
    return {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "ops_per_norm_s": _metric(len(res["op_s"]) / total_s if total_s else 0.0, "1/s"),
        "op_p50_norm_ms": _metric(statistics.median(norm_ms), "ms"),
        "peak_rss_mib": _metric(rss_kib / 1024.0, "MiB"),
        "ok_ratio": _metric(ok, "ratio"),
    }


def per_layer(setup_reports: list[dict], res: dict) -> dict:
    units = {m["name"]: m["unit"] for m in benchspec.PER_LAYER}
    values = {
        name: statistics.median(samples) for name, samples in res["layers"].items()
    }
    values["setup.import_s"] = statistics.median(r["import_s"] for r in setup_reports)
    values["setup.build_s"] = statistics.median(r["build_s"] for r in setup_reports)
    untraced, traced = res["op_s"], res["traced_op_s"]
    if untraced:
        values["host.op_p50_ms"] = statistics.median(untraced) * 1e3
        values["host.ref_ms"] = statistics.median(res["op_ref_s"]) * 1e3
        if traced:
            values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(
                untraced
            )
    # Layers a workload never enters report 0.
    return {name: _metric(values.get(name, 0.0), unit) for name, unit in units.items()}


def measure(args) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise RunError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # The first start also compiles byte code and warms the page
        # cache, costs a user pays once per install, not per run.
        cold_start(args, workdir, deadline)
        starts = [cold_start(args, workdir, deadline) for _ in range(SETUP_STARTS // 2)]
        res = run_ops_process(args, workdir, deadline)
        while len(starts) < SETUP_STARTS:
            starts.append(cold_start(args, workdir, deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for err in res["errors"]:
        print(f"op failure: {err}", file=sys.stderr)
    samples = [s for s, _ in starts]
    metrics = (
        per_layer([r for _, r in starts], res)
        if args.trace
        else end_to_end(samples, res)
    )
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=ops.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=benchspec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--expected", type=Path, default=None,
        help="expectations file to check against (default: perfbench/expected.json)",
    )
    ap.add_argument(
        "--inject-delay", action="append", default=[], metavar="MOD:QUALNAME=S",
        help="sleep S seconds at every call of a program function (tests only)",
    )
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args(argv)

    if args.write_benchmark_json:
        benchspec.BENCHMARK_JSON.write_text(benchspec.benchmark_json_text())
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result = measure(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
