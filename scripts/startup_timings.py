"""Time polyarith subcommands from process start.

Each row runs one subcommand in N fresh interpreters (``python3 -m
polyarith.cli ...``) and times each from starting the process to its
exit, so it counts interpreter start-up, the imports the subcommand
needs and the work itself.  The rows, on inputs taken from the
``perfbench/workloads.py`` decks and written to a temporary directory:

- ``pell 3`` and ``teob 3``;
- ``h1`` and ``der-action --element g1`` on the ``lattice_h1`` document
  with n = 8, k = 2;
- ``lie-cohomology`` on the ``koszul_betti`` algebra filiform_8;
- ``koszul-invariants`` on the ``koszul_action`` algebra filiform_7 and
  its two tori.

The repeats of all rows alternate, so a drift of the host spreads over
every row alike.  Each row gives the median and quartiles in ms, the
sha256 of standard output (the same in every run, or the script fails),
and whether bytecode writing is off (``PYTHONDONTWRITEBYTECODE``): with
it off, every process compiles the modules it imports from source.  One
more run per row, not timed, lists the polyarith modules the subcommand
loads (``modules``) and counts their source lines (``lines``); these
repeat exactly, so they show start-up work without timing noise.  Run
from the root of a checkout with the package on PYTHONPATH:

    PYTHONPATH=src python3 scripts/startup_timings.py --repeats 25
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def commands(work: Path) -> dict:
    """Each row's name and argv, its input files written under ``work``
    and named relative to it, so that stdout holds no temporary path."""
    jobs = [
        *workloads.lattice_jobs(8, 2, 0, 0),
        workloads.betti_job("filiform_8", 0),
        workloads.action_job("torus/filiform_7", 0),
    ]
    rows = {"pell": ["pell", "3"], "teob": ["teob", "3"]}
    for job in jobs:
        paths = {}
        for name, data in job.file_bytes().items():
            paths[name] = f"{workloads.sha256(data)[:20]}.json"
            (work / paths[name]).write_bytes(data)
        rows[job.argv[0]] = [a.format(**paths) for a in job.argv]
    return rows


# runs main in a fresh interpreter as ``-m polyarith.cli`` does, then
# reports the polyarith modules loaded and their source lines on stderr
LOAD_PROBE = """
import json, pathlib, sys
import polyarith.cli
code = polyarith.cli.main(sys.argv[1:])
names = sorted(m for m in sys.modules if m == "polyarith" or m.startswith("polyarith."))
with_lines = {m: pathlib.Path(sys.modules[m].__file__).read_bytes().count(b"\\n") for m in names}
print(json.dumps(with_lines), file=sys.stderr)
sys.exit(code)
"""


def loaded_modules(argv: list, work: str, env: dict) -> dict:
    """The polyarith modules that the subcommand loads, each with its line count."""
    done = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE, *argv], capture_output=True, cwd=work, env=env
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.decode()}")
    return json.loads(done.stderr.decode().splitlines()[-1])


def run_once(argv: list, work: str, env: dict) -> tuple:
    """Seconds from starting the process in ``work`` to its exit, and its stdout."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "polyarith.cli", *argv], capture_output=True, cwd=work, env=env
    )
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.decode()}")
    return seconds, done.stdout


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--repeats", type=int, default=15, metavar="N",
                        help="fresh interpreters per row (default: 15)")
    parser.add_argument("--json", action="store_true", help="emit one JSON object per row")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats needs at least 2 runs for the quartiles")

    no_bytecode = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    # the processes run in the input directory, so a relative PYTHONPATH is made absolute
    path = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(os.path.abspath(p) for p in path if p))
    with tempfile.TemporaryDirectory() as work:
        rows = commands(Path(work))
        loads = {name: loaded_modules(cmd, work, env) for name, cmd in rows.items()}
        times = {name: [] for name in rows}
        digests = {name: set() for name in rows}
        for _ in range(args.repeats):
            for name, cmd in rows.items():
                seconds, out = run_once(cmd, work, env)
                times[name].append(seconds * 1000)
                digests[name].add(hashlib.sha256(out).hexdigest())

    for name, ms in times.items():
        if len(digests[name]) != 1:
            print(f"startup_timings: {name} printed different output across runs", file=sys.stderr)
            return 1
        q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
        row = {"command": name, "runs": len(ms), "median_ms": round(median, 1),
               "q1_ms": round(q1, 1), "q3_ms": round(q3, 1), "sha256": digests[name].pop(),
               "bytecode_writing_off": no_bytecode, "modules": list(loads[name]),
               "lines": sum(loads[name].values())}
        line = (f"{name:<18} {row['median_ms']:>7.1f} ms  (q1 {row['q1_ms']:.1f}, q3 {row['q3_ms']:.1f})"
                f"  {len(row['modules']):>2} modules {row['lines']:>5} lines"
                f"  bytecode {'off' if no_bytecode else 'on '}  {row['sha256']}")
        print(json.dumps(row, sort_keys=True) if args.json else line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
