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
        "koszul_timings.py",
        "--betti", "filiform:5", "heisenberg:2",
        "--action", "5", "8",
        "--torus", "filiform:5", "heisenberg:1", "filiform:9", "heisenberg:4",
        "--json",
    )
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(row["kind"], row["algebra"]) for row in rows] == [
        ("betti", "filiform:5"),
        ("betti", "heisenberg:2"),
        ("action", "filiform:5"),
        ("action", "filiform:8"),
        ("torus", "filiform:5"),
        ("torus", "heisenberg:1"),
        ("torus", "filiform:9"),
        ("torus", "heisenberg:4"),
    ]
    assert all(set(row) == {"kind", "algebra", "seconds", "sha256", "stages"} for row in rows[:2])
    assert all(set(row) == {"kind", "algebra", "seconds", "sha256"} for row in rows[2:])
    for row in rows[:2]:
        stages = row["stages"]
        assert set(stages) == {"algebra", "build_koszul", "betti", "nilpotency_class"}
        assert all(t >= 0 for t in stages.values())
    # digests of the results as the dense elimination path gave them; the
    # betti rows hash the Betti tuples (1, 2, 3, 3, 2, 1) and (1, 4, 5, 5, 4, 1)
    assert [row["sha256"] for row in rows] == [
        "ea8ce69fd15765fb15ceefec2674658c46facf6700eb20d4b8fb671432cb5606",
        "2e1afa1a63bbf98fc0f3ba5e588a091d1b9946f679362c7fe0c7e354ae26f3df",
        "d57c44199c84b23a4edae234a59dcaed2b9ca98aae1336818dc16b9c8e33b058",
        "c0a93fb7e9e0346791c773982ea0f662075593c455c3b5798976645bbf26e40e",
        "c48e73dd8fd4ae063e0d3f429794bc6dc8d2e55617ae383fdee30f2cea7b59d0",
        "b604a6bc89ce61c28ac9fbbcf80aa75da1790b6b5990ea5e5685c0a7973e22db",
        "3a6a020ad6e4e38056cd1ec44c4261579cec9ee7e7f0137c5d4ea704ca4db965",
        "86e82af6961cee14a7603bdab744d9e0b67d327ce7979cca92becf834665538f",
    ]
