"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

They check the harness, not polyarith: decks are reproducible, a wrong
``results`` object counts as failed, tracing restores every wrapped name
and leaves polyarith's stdout unchanged, and the benchmark refuses to
run without the program's sources.
"""

from __future__ import annotations

import functools
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from polyarith import cli  # noqa: E402


def deck_bytes(workload, seed):
    return [(job.key, job.argv, job.file_bytes()) for job in workloads.DECKS[workload](seed)]


@functools.lru_cache(maxsize=None)
def expected(workload):
    return json.loads((HERE / "expected" / f"{workload}.json").read_text())["jobs"]


def write_job(job, directory):
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, data in job.file_bytes().items():
        path = directory / f"{name}.json"
        path.write_bytes(data)
        paths[name] = str(path)
    return {"key": job.key, "argv": [a.format(**paths) for a in job.argv],
            "expected": expected_for(job)}


def expected_for(job):
    workload = next(w for w in workloads.WORKLOADS if job.key in expected(w))
    return expected(workload)[job.key]["results_sha256"]


SMALL_JOBS = [
    workloads.pell_job(3),
    workloads.lattice_jobs(6, 1, 0, 0)[0],
    workloads.lattice_jobs(7, 2, 0, 0)[1],
    workloads.action_job("inner/heisenberg_5+line", 0),
]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert deck_bytes(workload, 7) == deck_bytes(workload, 7)
    assert deck_bytes(workload, 7) != deck_bytes(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pool_job_has_expected_results_for_its_inputs(workload):
    want = expected(workload)
    pool = workloads.pool(workload)
    assert sorted(job.key for job in pool) == sorted(want)
    for job in pool:
        digests = {name: workloads.sha256(data) for name, data in job.file_bytes().items()}
        assert digests == want[job.key]["inputs"], job.key


def test_altered_results_count_as_failed(tmp_path):
    job = write_job(workloads.pell_job(3), tmp_path)
    assert worker.run_job(cli, job)[0]
    out = worker.run_job(cli, job)[2]
    report = json.loads(out)
    report["results"]["coupling"] += 1
    job["expected"] = worker.results_digest(json.dumps(report))
    done = worker.run_passes(cli, [job], seconds=0, passes=2)
    attempted, failed, _, info = worker.summarize(done)
    assert (attempted, failed, info["failed_share"]) == (2, 2, 1.0)


def _bindings():
    """Every function-like attribute of every polyarith module and class."""
    out = {}
    for name in spans.MODULES:
        mod = sys.modules[f"polyarith.{name}"]
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if inspect.isclass(value):
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_tracing_restores_every_wrapped_name(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert any(before[k] is not v for k, v in _bindings().items() if k in before)
        for i, job in enumerate(SMALL_JOBS):
            assert worker.run_job(cli, write_job(job, tmp_path / str(i)))[0]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_stdout_identical_with_and_without_tracing(tmp_path):
    jobs = [write_job(job, tmp_path / str(i)) for i, job in enumerate(SMALL_JOBS)]
    plain = [worker.run_job(cli, job)[2] for job in jobs]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [worker.run_job(cli, job)[2] for job in jobs]
    finally:
        tracer.uninstall()
    assert traced == plain
    metrics = tracer.metrics(passes=1, job_wall_ns=1, overhead=1.0)
    assert metrics["cli.main.calls"] == len(jobs)
    assert metrics["lie.action_on_cohomology.calls"] > 0


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = spans.metric_units()
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(units.items())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pell_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
