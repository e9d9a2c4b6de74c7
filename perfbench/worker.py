"""Runs one workload deck inside a fresh interpreter.

``run.py`` starts this file; it is not meant to be run by hand.

    worker.py setup MANIFEST
        import polyarith.cli, load the manifest and its input files, print
        "ready" and exit.  ``run.py`` times this to get ``setup_s``.
    worker.py run MANIFEST SECONDS TRACE
        run the deck as a closed loop of ``polyarith.cli.main(argv)`` calls,
        check every job's ``results`` and print one JSON object.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
from fractions import Fraction
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def results_digest(stdout: str):
    """sha256 of the canonical ``results`` object of one report, or None.

    Only ``results`` is compared: ``inputs.files.path`` names the place
    the input files were written to.
    """
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    if not isinstance(report, dict) or "results" not in report:
        return None
    canon = json.dumps(report["results"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def run_job(cli, job: dict):
    """One closed-loop request; returns (correct, wall ns, stdout)."""
    buf = io.StringIO()
    t0 = perf_counter_ns()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(job["argv"])
    except (Exception, SystemExit):
        code = None
    wall_ns = perf_counter_ns() - t0
    out = buf.getvalue()
    return code == 0 and results_digest(out) == job["expected"], wall_ns, out


# Wall time of calibrate() at the reference speed of the machine the
# benchmark was sized on; see calibrate().
CAL_REF_NS = 400_000
CAL_PERIOD_S = 0.05


def calibrate() -> int:
    """Wall time in ns of a fixed slice of exact arithmetic in pure Python."""
    t0 = perf_counter_ns()
    rows = [[Fraction(i * j + 1, i + j + 1) for j in range(6)] for i in range(6)]
    acc = Fraction(0)
    for _ in range(3):
        for row in rows:
            for x in row:
                acc += x * x
    table = {}
    for i in range(300):
        table[(i, i % 7)] = tuple(range(i % 5))
    return perf_counter_ns() - t0


class Calibrated:
    """Times jobs at the reference speed.

    The machine is shared, and a neighbour can slow every instruction by a
    quarter for seconds at a time.  So calibrate() runs before and after
    every job, and every CAL_PERIOD_S during it from a SIGALRM handler,
    which Python runs between bytecodes of the job.  The job's wall time,
    less the time spent calibrating, is scaled by CAL_REF_NS over the mean
    calibration: the time the job takes at the reference speed.
    """

    def __init__(self):
        self.samples = [calibrate()]
        self.spent_ns = 0

    def _tick(self, signum, frame):
        t = calibrate()
        self.samples.append(t)
        self.spent_ns += t

    def run(self, cli, job):
        """Returns (correct, seconds at the reference speed, wall ns)."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        try:
            ok, wall_ns, _ = run_job(cli, job)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        after = calibrate()
        self.samples.append(after)
        mean = sum(self.samples) / len(self.samples)
        seconds = (wall_ns - self.spent_ns) / 1e9 * CAL_REF_NS / mean
        self.samples, self.spent_ns = [after], 0
        return ok, seconds, wall_ns


class Pass:
    def __init__(self):
        self.correct = 0
        self.attempted = 0
        self.latencies = []  # seconds at the reference speed
        self.job_wall_ns = 0


def run_passes(cli, jobs, seconds, passes=None, before_job=None):
    """Whole passes over the deck.  Without ``passes``, stop at the first pass
    boundary where one more pass would end over half a pass past ``seconds``."""
    done = []
    start = perf_counter()
    timer = Calibrated()
    while True:
        p = Pass()
        for job in jobs:
            if before_job is not None:
                before_job()
            ok, dt, wall_ns = timer.run(cli, job)
            p.correct += ok
            p.attempted += 1
            p.latencies.append(dt)
            p.job_wall_ns += wall_ns
        done.append(p)
        if passes is not None:
            if len(done) == passes:
                return done
        else:
            elapsed = perf_counter() - start
            if elapsed + 0.5 * elapsed / len(done) >= seconds:
                return done


def summarize(done):
    """End-to-end metrics of a list of passes over one deck.

    ``jobs_per_s`` divides the correct jobs of a pass by the summed median
    time of each job across passes, so one slow pass of a long job does not
    set the figure.
    """
    latencies = sorted(x for p in done for x in p.latencies)
    per_job = [statistics.median(times) for times in zip(*(p.latencies for p in done))]
    attempted = sum(p.attempted for p in done)
    failed = attempted - sum(p.correct for p in done)
    info = {
        "passes": len(done),
        "jobs_per_pass": done[0].attempted,
        "latency_samples": len(latencies),
        "failed_share": failed / attempted,
    }
    if len(latencies) >= 100:
        info["latency_p90_ms"] = statistics.quantiles(latencies, n=10)[8] * 1000
    metrics = {
        "jobs_per_s": (attempted - failed) / len(done) / sum(per_job),
        "latency_p50_ms": statistics.median(latencies) * 1000,
    }
    return attempted, failed, metrics, info


def load(manifest_path):
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    for path in manifest["files"]:
        with open(path, "rb") as fh:
            fh.read()
    return manifest


def main(argv):
    mode, manifest_path = argv[0], argv[1]
    import polyarith.cli as cli

    manifest = load(manifest_path)
    if mode == "setup":
        print("ready", flush=True)
        return 0
    seconds, trace = float(argv[2]), argv[3] == "1"
    jobs = manifest["jobs"]
    run_job(cli, jobs[0])  # let lazy set-up finish before timing

    if not trace:
        done = run_passes(cli, jobs, seconds)
        attempted, failed, metrics, info = summarize(done)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        import spans

        # half the time traced, then the same passes untraced, so that a
        # traced run takes no longer than an untraced one
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_passes(cli, jobs, seconds / 2, before_job=tracer.begin_job)
        finally:
            tracer.uninstall()
        plain = run_passes(cli, jobs, seconds, passes=len(traced))
        overhead = sum(sum(p.latencies) for p in traced) / sum(sum(p.latencies) for p in plain)
        metrics = tracer.metrics(len(traced), sum(p.job_wall_ns for p in traced), overhead)
        attempted, failed, _, info = summarize(traced + plain)
        info["traced_passes"] = len(traced)
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
