"""Steadiness report: repeat every workload and compare spreads to bounds.

    python3 perfbench/steadiness.py --runs 10 [--out perfbench/STEADINESS.md]

``--out`` appends a dated section, so repeated sets stay on record.

Runs ``run.py --trace 0`` ``--runs`` times per workload, one seed per
round and with the workload order reversed on every other round, so a
slow stretch of the host is shared between workloads instead of
landing on one.  For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and that spread as a share of the metric's
bound, under a fingerprint of the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchspec  # noqa: E402


def fingerprint() -> str:
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"machine={platform.machine()} system={platform.system()}"
    )


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True, text=True, cwd=HERE.parent, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def table(values: dict[str, dict[str, list[float]]]) -> list[str]:
    bounds = {m["name"]: m["bound"] for m in benchspec.END_TO_END}
    rows = [
        "| workload | metric | median | q1 | q3 | spread | bound | spread/bound |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows.append(
                f"| {workload} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                f"{spread:.4f} | {bounds[name]} | {spread / bounds[name]:.2f} |"
            )
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=benchspec.RUN_SECONDS)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in benchspec.WORKLOADS])
    ap.add_argument("--out", type=Path, default=None, help="also append the report here")
    args = ap.parse_args(argv)

    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    t0 = time.monotonic()
    for r in range(args.runs):
        order = args.workloads if r % 2 == 0 else list(reversed(args.workloads))
        for workload in order:
            res = run_once(workload, args.seed0 + r, args.seconds)
            if not res["correct"]:
                raise SystemExit(f"{workload} seed {args.seed0 + r}: outputs incorrect")
            for name, m in res["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            print(f"round {r} {workload}: "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  file=sys.stderr, flush=True)
    lines = [
        f"## {time.strftime('%Y-%m-%d %H:%M UTC', time.gmtime())}",
        "",
        f"host: {fingerprint()}",
        f"runs per workload: {args.runs}, --seconds {args.seconds}, "
        f"seeds {args.seed0}..{args.seed0 + args.runs - 1}, "
        f"wall {time.monotonic() - t0:.0f} s",
        "",
        *table(values),
    ]
    text = "\n".join(lines) + "\n"
    print(text)
    if args.out is not None:
        with args.out.open("a") as f:
            f.write("\n" + text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
