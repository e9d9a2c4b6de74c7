"""Benchmark of the polyarith subcommands.

    python3 perfbench/run.py --workload pell_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The seed picks the jobs of the
workload's deck (see workloads.py); their input files are written under
``.bench_work/``.  A fresh interpreter then runs the deck as a closed
loop of ``polyarith.cli.main(argv)`` calls, one client and no threads,
and checks every job's ``results`` against ``expected/<workload>.json``.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps the public functions of every polyarith module
(spans.py), reports the per-layer metrics, and replays the same passes
untraced to measure the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines above it give every metric by name and unit, the
run metadata, and where the full results file was written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import CAL_REF_NS, calibrate  # noqa: E402

SETUP_PROBES = 6
DEADLINE_S = 170  # every run ends well inside three minutes
E2E_UNITS = {"jobs_per_s": "jobs/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def write_inputs(deck, expected, work: Path):
    """Write the deck's input files and the manifest the worker reads."""
    jobs, files = [], []
    for job in deck:
        want = expected.get(job.key)
        if want is None:
            raise LookupError(f"no expected results for job {job.key}")
        paths = {}
        for name, data in job.file_bytes().items():
            digest = workloads.sha256(data)
            if want["inputs"].get(name) != digest:
                raise LookupError(f"input {name} of {job.key} differs from the one the expected results were made for")
            path = work / f"{digest[:20]}.json"
            if not path.exists():
                path.write_bytes(data)
                files.append(str(path))
            paths[name] = str(path)
        argv = [a.format(**paths) for a in job.argv]
        jobs.append({"key": job.key, "argv": argv, "expected": want["results_sha256"]})
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({"jobs": jobs, "files": files}))
    return manifest


def worker_cmd(*args) -> list:
    return [sys.executable, str(HERE / "worker.py"), *map(str, args)]


def time_setup(manifest: Path, probes: int, deadline: float) -> list:
    """Times from starting a fresh interpreter to "ready", scaled to the
    reference speed like the job times (see worker.calibrate)."""
    samples = []
    for _ in range(probes):
        cal = calibrate()
        t0 = perf_counter()
        proc = subprocess.Popen(worker_cmd("setup", manifest), cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("setup probe did not become ready")
        samples.append((t1 - t0) * 2 * CAL_REF_NS / (cal + calibrate()))
    return samples


def run_worker(manifest: Path, seconds: int, trace: int, deadline: float) -> dict:
    proc = subprocess.Popen(worker_cmd("run", manifest, seconds, trace), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("the workload did not finish before the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"the worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def commit_hash() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    if args.seconds < 1:
        return fail("--seconds must be at least 1", 2)
    if not (ROOT / "src" / "polyarith" / "cli.py").is_file():
        return fail(f"no polyarith sources under {ROOT / 'src'}; run from a full checkout", 2)

    expected_file = HERE / "expected" / f"{args.workload}.json"
    with open(expected_file) as fh:
        expected = json.load(fh)["jobs"]
    deck = workloads.DECKS[args.workload](args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        manifest = write_inputs(deck, expected, work)
        # the first probe writes the bytecode caches and is not counted; half
        # of the counted probes run before the workload and half after it, so
        # that one slow stretch of the machine does not set the median
        time_setup(manifest, 1, deadline)
        setup = time_setup(manifest, SETUP_PROBES // 2, deadline)
        result = run_worker(manifest, args.seconds, args.trace, deadline)
        setup += time_setup(manifest, SETUP_PROBES - SETUP_PROBES // 2, deadline)
        setup_s = statistics.median(setup)
    except (LookupError, RuntimeError) as e:
        return fail(str(e), 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = result["info"]
    if args.trace:
        units = spans.metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    else:
        values = dict(result["metrics"], setup_s=setup_s)
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    metadata = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": commit_hash(),
        "jobs_per_pass": info["jobs_per_pass"],
        "passes": info["passes"],
        "latency_samples": info["latency_samples"],
        "traced_passes": info.get("traced_passes", 0),
        "setup_probes": SETUP_PROBES,
        "finished_at": time(),
    }
    extra = {"failed_share": {"value": info["failed_share"], "unit": "ratio"}}
    if "latency_p90_ms" in info:
        extra["latency_p90_ms"] = {"value": info["latency_p90_ms"], "unit": "ms", "samples": info["latency_samples"]}
    report = {"metadata": metadata, "metrics": metrics, "also": extra}
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    for name, m in list(metrics.items()) + list(extra.items()):
        samples = f"  ({m['samples']} samples)" if "samples" in m else ""
        print(f"{args.workload:14s} {name:48s} {m['value']:>14.6g} {m['unit']}{samples}")
    print("metadata " + json.dumps(metadata, sort_keys=True))
    print(f"results file {out_file.relative_to(ROOT)}")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
