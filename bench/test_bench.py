"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q

They run the benchmark at smoke size (op counts and time divided by 20)
and check what it prints, not how fast anything ran.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import compare
from stats import BENCH_DIR, ROOT, WORKLOADS, load_spec

SPEC = load_spec()


def run_bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


@pytest.fixture(scope="module")
def smoke() -> subprocess.CompletedProcess:
    return run_bench("--smoke", "--seed", "1")


@pytest.fixture(scope="module")
def traced_smoke() -> subprocess.CompletedProcess:
    return run_bench("--smoke", "--seed", "1", "--trace")


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed(stdout: str, workload: str, name: str, unit: str) -> bool:
    pattern = rf"^{re.escape(workload)}\.{re.escape(name)} \S+ {re.escape(unit)} \("
    return re.search(pattern, stdout, re.M) is not None


def test_smoke_prints_every_end_to_end_metric(smoke):
    assert smoke.returncode == 0, smoke.stdout + smoke.stderr
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            assert printed(smoke.stdout, workload, metric["name"], metric["unit"]), (workload, metric)
    result = last_json(smoke)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_smoke_outputs_match_expected_digests(smoke):
    for workload in WORKLOADS:
        assert re.search(rf"^{workload}: outputs_sha256 [0-9a-f]{{64}} ok$", smoke.stdout, re.M), workload


def test_traced_smoke_emits_every_per_layer_metric(traced_smoke):
    assert traced_smoke.returncode == 0, traced_smoke.stdout + traced_smoke.stderr
    for metric in SPEC["per_layer"]:
        assert any(
            printed(traced_smoke.stdout, workload, metric["name"], metric["unit"])
            for workload in WORKLOADS
        ), metric


def test_every_name_and_unit_is_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_lint_is_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lintkit", "bench"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# compare.py on synthetic inputs
# ---------------------------------------------------------------------------


MACHINE = {"cpu_model": "cpu", "nproc": 2, "affinity": 2, "python": "3", "numpy": "2", "machine": "x86_64"}


def runs_file(path, metric_runs, failed=0, machine=MACHINE, traced=None):
    """A results file with one untraced run per dict in ``metric_runs``."""
    runs = [
        {
            "machine": machine, "trace": False,
            "workloads": {"solve": {"attempted": 100, "failed": failed, "valid": True, "metrics": metrics}},
        }
        for metrics in metric_runs
    ]
    for metrics in traced or []:
        runs.append({
            "machine": machine, "trace": True,
            "workloads": {"solve": {"attempted": 10, "failed": 0, "valid": True, "metrics": metrics}},
        })
    path.write_text(json.dumps({"format": "repro.bench.runs", "runs": runs}))
    return str(path)


def test_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(steady, steady, "lower", 0.1) == "unchanged"
    assert compare.verdict(steady, [v * 1.3 for v in steady], "lower", 0.1) == "worse"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "lower", 0.1) == "better"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "higher", 0.1) == "better"
    # Too few run pairs to claim a gain.
    assert compare.verdict(steady[:3], [v * 0.8 for v in steady[:3]], "lower", 0.1) == "unchanged"
    noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
    assert compare.verdict(steady, noisy, "lower", 0.1) == "unresolved"
    # Spread wider than the bound is still a win when every run wins.
    assert compare.verdict(noisy, [v * 0.5 for v in steady], "lower", 0.1) == "better"


def test_compare_exit_codes(tmp_path, capsys):
    old = runs_file(tmp_path / "old.json", [{"latency_p50_s": v} for v in (1.0, 1.01, 0.99)])
    same = runs_file(tmp_path / "same.json", [{"latency_p50_s": v} for v in (1.0, 0.99, 1.01)])
    slow = runs_file(tmp_path / "slow.json", [{"latency_p50_s": v} for v in (1.5, 1.51, 1.49)])
    failing = runs_file(tmp_path / "fail.json", [{"latency_p50_s": 1.0}] * 3, failed=1)
    other = runs_file(tmp_path / "other.json", [{"latency_p50_s": 1.0}] * 3, machine={**MACHINE, "nproc": 8})
    assert compare.main([old, same]) == 0
    assert "unchanged" in capsys.readouterr().out
    assert compare.main([old, slow]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([old, failing]) == 1
    assert compare.main([old, other]) == 2
    assert compare.main([old, other, "--force"]) == 0


def test_compare_flags_moved_layers(tmp_path, capsys):
    layers = [{"core.dp.transitions": 1000}, {"core.dp.transitions": 1000}]
    old = runs_file(tmp_path / "old.json", [], traced=layers)
    new = runs_file(tmp_path / "new.json", [], traced=[{"core.dp.transitions": 1200}])
    assert compare.main([old, new]) == 0
    assert "solve.core.dp.transitions: 1000 -> 1200" in capsys.readouterr().out
