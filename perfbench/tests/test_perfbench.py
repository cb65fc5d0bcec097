"""Tests of the benchmark itself: contract, checks that must be able to
fail, and layer attribution.

    python3 -m pytest perfbench/tests -q

They run ``run.py`` end to end with short ``--seconds``, so the whole
file takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import benchspec  # noqa: E402
import ops  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Per-layer self times that partition a traced op (sub-module entries
#: such as ``ompss.graph.self_s`` are parts of ``ompss.self_s``).
SELF_TIMES = (
    "simkernel.self_s", "network.self_s", "mpi.self_s", "hardware.self_s",
    "ompss.self_s", "apps.self_s", "sweep.parent_self_s", "obs.self_s",
)

#: Delay injected per ``Fabric.transfer`` call in the attribution test.
DELAY_S = 0.0002


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def traced(workload: str, *extra: str) -> dict:
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", *extra
    )
    assert proc.returncode == 0, proc.stderr
    res = result_of(proc)
    return {k: v["value"] for k, v in res["metrics"].items()}


# -- contract ----------------------------------------------------------------


def test_benchmark_json_is_generated_from_benchspec():
    assert benchspec.BENCHMARK_JSON.read_text() == benchspec.benchmark_json_text()


def test_benchmark_json_respects_limits():
    doc = json.loads(benchspec.BENCHMARK_JSON.read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert [w["name"] for w in doc["workloads"]] == list(ops.WORKLOADS)
    names = []
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= min(0.25, setup[0]["bound"])
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))


def test_op_lists_are_seeded_and_fully_expected():
    expected = ops.load_expected()
    for name in ops.WORKLOADS:
        n = ops.n_ops_for(name, benchspec.RUN_SECONDS) + 1
        for seed in (0, 1, 12345):
            first = ops.op_list(name, seed, n)
            assert first == ops.op_list(name, seed, n)
            assert all(op.key in expected[name] for op in first)
        assert ops.op_list(name, 0, n) != ops.op_list(name, 1, n)
    cores = [op.params["cores"] for op in ops.op_list("cholesky_taskgraph", 7, 20)]
    assert cores.count(30) == cores.count(60)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "cb_alltoall", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- correctness checks must be able to fail ---------------------------------


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_default_seed_passes(workload):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    res = result_of(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    assert set(res["metrics"]) == {m["name"] for m in benchspec.END_TO_END}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_perturbed_expectation_fails_the_run(workload, tmp_path):
    expected = ops.load_expected()
    entries = expected[workload]
    for key, value in entries.items():
        if isinstance(value, dict):
            entries[key] = {**value, "makespan_s": value["makespan_s"] * (1 + 1e-12)}
        else:
            entries[key] = value[:-1] + ("1" if value.endswith("0") else "0")
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    proc = run_bench(
        "--workload", workload, "--seed", "0", "--seconds", "1", "--expected", str(path)
    )
    assert proc.returncode == 1
    res = result_of(proc)
    assert res["correct"] is False
    assert res["failed"] == res["attempted"]
    assert res["metrics"]["ok_ratio"]["value"] == 0.0
    assert "expected" in proc.stderr


# -- layer attribution -------------------------------------------------------


def test_traced_run_reports_every_per_layer_metric():
    values = traced("cholesky_taskgraph")
    assert set(values) == {m["name"] for m in benchspec.PER_LAYER}
    assert values["ompss.tasks"] == 2600
    others = sum(values[name] for name in SELF_TIMES if name != "ompss.self_s")
    assert values["ompss.self_s"] > others
    assert values["trace.overhead_ratio"] > 1.0


def test_injected_network_delay_is_charged_to_network():
    spec = f"repro.network.fabric:Fabric.transfer={DELAY_S}"
    base = traced("cb_alltoall")
    slow = traced("cb_alltoall", "--inject-delay", spec)
    assert slow["network.transfers"] == base["network.transfers"] > 0
    injected = slow["network.transfers"] * DELAY_S
    growth = {name: slow[name] - base[name] for name in SELF_TIMES}
    assert max(growth, key=growth.get) == "network.self_s"
    assert growth["network.self_s"] >= 0.8 * injected
    assert growth["mpi.self_s"] < 0.2 * injected


def test_injected_network_delay_leaves_cholesky_unmoved():
    spec = f"repro.network.fabric:Fabric.transfer={DELAY_S}"
    base = traced("cholesky_taskgraph")
    slow = traced("cholesky_taskgraph", "--inject-delay", spec)
    assert slow["network.self_s"] == base["network.self_s"] == 0.0
    for name in ("network.transfers", "simkernel.resumes", "ompss.tasks", "mpi.msgs"):
        assert slow[name] == base[name]
