"""Record ``expected.json``: the simulated output of every op input.

    python3 perfbench/record_expected.py

Runs each input an op list can draw once (every ``cb_alltoall``
simulation seed, every ``cholesky_taskgraph`` tile/core pair, every
``sweep_fleet`` window) and writes what :meth:`ops.Workload.observed`
extracts.  Re-record only when a change is *meant* to alter simulated
results; the benchmark fails any op whose output differs.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ops  # noqa: E402
import oprunner  # noqa: E402


def record(name: str, workdir: Path) -> dict:
    oprunner.import_program(name)
    workload = ops.build(name, 0, 1, workdir, {name: {}})
    try:
        return {
            op.key: workload.observed(op, workload.run(op))
            for op in workload.all_ops()
        }
    finally:
        workload.close()


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-record-", dir=HERE.parent))
    try:
        expected = {name: record(name, workdir) for name in ops.WORKLOADS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {ops.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
