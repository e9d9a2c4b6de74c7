"""The scripts README documents, run as a user runs them: one process
each, with the package on PYTHONPATH."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_betti_survey():
    done = run_script("betti_survey.py", "--abelian", "3")
    assert done.returncode == 0, done.stderr
    rows = {line.split()[0]: line for line in done.stdout.splitlines()[1:]}
    assert rows["heisenberg_3"].endswith("(1,2,2,1)")
    assert rows["abelian_3"].endswith("(1,3,3,1)")
    assert all(" yes " in line for line in rows.values())


def test_family_survey_json():
    done = run_script("family_survey.py", "--stop", "6", "--json")
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [row["d"] for row in rows] == [2, 3, 5, 6]
    assert all(row["classification"] == "FailsNecessaryCondition" for row in rows)


def test_koszul_timings_json():
    done = run_script(
        "koszul_timings.py", "--action", "5", "--torus", "filiform:5", "heisenberg:1", "--json"
    )
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(row["kind"], row["algebra"]) for row in rows] == [
        ("action", "filiform:5"),
        ("torus", "filiform:5"),
        ("torus", "heisenberg:1"),
    ]
    assert all(set(row) == {"kind", "algebra", "seconds", "sha256"} for row in rows)
    assert all(len(row["sha256"]) == 64 for row in rows)
