"""The scripts README documents, run as a user runs them: one process
each, with the package on PYTHONPATH."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from polyarith.lie import LieAutomorphism, action_on_cohomology, build_koszul
from polyarith.linalg import Matrix

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
        "--action", "5", "8", "9",
        "--torus", "filiform:5", "heisenberg:1", "filiform:9", "heisenberg:4", "heisenberg:5",
        "--json",
    )
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(row["kind"], row["algebra"]) for row in rows] == [
        ("betti", "filiform:5"),
        ("betti", "heisenberg:2"),
        ("action", "filiform:5"),
        ("action", "filiform:8"),
        ("action", "filiform:9"),
        ("torus", "filiform:5"),
        ("torus", "heisenberg:1"),
        ("torus", "filiform:9"),
        ("torus", "heisenberg:4"),
        ("torus", "heisenberg:5"),
    ]
    fields = {"kind", "algebra", "seconds", "sha256", "peak_rss_mb"}
    assert all(set(row) == fields | {"stages"} for row in rows[:2])
    assert all(set(row) == fields for row in rows[2:])
    # the peak RSS is the process's high-water mark, so it never falls
    peaks = [row["peak_rss_mb"] for row in rows]
    assert peaks[0] > 0 and peaks == sorted(peaks)
    for row in rows[:2]:
        stages = row["stages"]
        assert set(stages) == {"algebra", "build_koszul", "betti", "nilpotency_class"}
        assert all(t >= 0 for t in stages.values())
    # digests of the results as the dense elimination path gave them (action
    # filiform:9 and torus heisenberg:5 as the Fraction form actions gave
    # them); the betti rows hash the Betti tuples (1, 2, 3, 3, 2, 1) and
    # (1, 4, 5, 5, 4, 1)
    assert [row["sha256"] for row in rows] == [
        "ea8ce69fd15765fb15ceefec2674658c46facf6700eb20d4b8fb671432cb5606",
        "2e1afa1a63bbf98fc0f3ba5e588a091d1b9946f679362c7fe0c7e354ae26f3df",
        "d57c44199c84b23a4edae234a59dcaed2b9ca98aae1336818dc16b9c8e33b058",
        "c0a93fb7e9e0346791c773982ea0f662075593c455c3b5798976645bbf26e40e",
        "bef2311a0b77ab03d85bc2336e83d13ef7734e19dd220345763c1bfa3b47ee8b",
        "c48e73dd8fd4ae063e0d3f429794bc6dc8d2e55617ae383fdee30f2cea7b59d0",
        "b604a6bc89ce61c28ac9fbbcf80aa75da1790b6b5990ea5e5685c0a7973e22db",
        "3a6a020ad6e4e38056cd1ec44c4261579cec9ee7e7f0137c5d4ea704ca4db965",
        "86e82af6961cee14a7603bdab744d9e0b67d327ce7979cca92becf834665538f",
        "33ce64a1136ef1281b91356506fa465fc73089b2edb5de9fb707d0a2aa23ed60",
    ]


def test_koszul_timings_torus_rows_at_the_cap():
    # both tori fix the constants alone: the invariant subcomplex is the
    # constants, in filiform(14) and in abelian(14)
    done = run_script(
        "koszul_timings.py", "--action", "--torus", "filiform:14", "abelian:14", "--json"
    )
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(row["kind"], row["algebra"]) for row in rows] == [
        ("torus", "filiform:14"),
        ("torus", "abelian:14"),
    ]
    assert [row["sha256"] for row in rows] == [
        "bc6f4498212e0c0f7c9a909cc65f00a82349a44f2ece2ab07b09820c0be87230"
    ] * 2


def test_koszul_timings_outer_rows_give_the_torus_action():
    # the conjugate of a torus by an inner automorphism acts on cohomology
    # as the torus does, here through the general class-map path
    done = run_script("koszul_timings.py", "--action", "--outer", "5", "9", "--torus", "--json")
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(row["kind"], row["algebra"]) for row in rows] == [
        ("outer", "filiform:5"),
        ("outer", "filiform:9"),
    ]
    spec = importlib.util.spec_from_file_location("koszul_timings", ROOT / "scripts" / "koszul_timings.py")
    timings = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(timings)
    workloads = timings.workloads
    for row, n in zip(rows, (5, 9)):
        phi = timings.outer_automorphism(n)
        # neither inner nor diagonal: the general path
        assert phi.inner_generator is None
        assert any(phi.matrix[i, j] for i in range(n) for j in range(n) if i != j)
        first = workloads.torus_matrices(workloads.filiform(n), list(range(n)))[0]
        torus = LieAutomorphism(phi.algebra, Matrix(first))
        kos = build_koszul(phi.algebra)
        own = [action_on_cohomology(torus, p, kos) for p in range(n + 1)]
        assert row["sha256"] == timings.digest(own)


def write_run(directory, workload, seed, values, trace=0, failed_share=0.0):
    """A run file as perfbench/run.py writes it, with only the fields the
    fold reads filled in."""
    units = {"jobs_per_s": "jobs/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
    run = {
        "metadata": {"workload": workload, "seed": seed, "seconds": 20, "trace": trace},
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "also": {"failed_share": {"value": failed_share, "unit": "ratio"}},
    }
    directory.mkdir(exist_ok=True)
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(run))


def run_values(jobs, latency, rss=24.0, setup=0.09):
    return {"jobs_per_s": jobs, "latency_p50_ms": latency, "peak_rss_mb": rss, "setup_s": setup}


def test_startup_timings_json():
    done = run_script("startup_timings.py", "--repeats", "2", "--json")
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [row["command"] for row in rows] == [
        "pell", "teob", "h1", "der-action", "lie-cohomology", "koszul-invariants",
    ]
    for row in rows:
        assert set(row) == {"command", "runs", "median_ms", "q1_ms", "q3_ms", "sha256",
                            "bytecode_writing_off", "modules", "lines"}
        assert row["runs"] == 2
        assert {"polyarith", "polyarith.cli", "polyarith.matrix"} <= set(row["modules"])
        assert row["lines"] > 0
        assert 0 < row["q1_ms"] <= row["median_ms"] <= row["q3_ms"]
        assert row["bytecode_writing_off"] == bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    # stdout of each command, which names its inputs by relative path only
    assert {row["command"]: row["sha256"][:16] for row in rows} == {
        "pell": "c8c8bfc9b5f34d25",
        "teob": "8f002952801b857a",
        "h1": "df4dd669aee8ba31",
        "der-action": "be6b0254a6dff750",
        "lie-cohomology": "b8208a03f9cf210e",
        "koszul-invariants": "48599f458b4c43e2",
    }


def test_bench_fold(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # jobs/s: change wins seeds 1 and 2 and ties seed 3; latency: it wins 1, loses 2, ties 3
    for seed, (pj, cj), (pl, cl) in (
        (1, (100.0, 130.0), (2.0, 1.5)),
        (2, (110.0, 120.0), (2.0, 2.5)),
        (3, (90.0, 90.0), (3.0, 3.0)),
    ):
        write_run(parent, "koszul_betti", seed, run_values(pj, pl))
        write_run(change, "koszul_betti", seed, run_values(cj, cl), failed_share=0.25 * (seed == 2))
    write_run(parent, "pell_sweep", 7, run_values(300.0, 3.3, rss=23.0))
    write_run(change, "pell_sweep", 7, run_values(299.0, 3.4, rss=22.0))
    # a traced run has no partner and is skipped
    write_run(change, "pell_sweep", 8, run_values(1.0, 1.0), trace=1)
    out = tmp_path / "BENCH_1.json"
    done = run_script(
        "bench_fold.py", str(parent), str(change), "--out", str(out),
        "--parent-commit", "abc", "--change-commit", "def",
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert (report["parent"], report["change"]) == ("abc", "def")
    assert sorted(report["workloads"]) == ["koszul_betti", "pell_sweep"]
    betti = report["workloads"]["koszul_betti"]
    assert betti["seeds"] == [1, 2, 3]
    assert betti["seconds"] == [20]
    assert betti["max_failed_share"] == {"parent": 0.0, "change": 0.25}
    jobs = betti["metrics"]["jobs_per_s"]
    assert (jobs["unit"], jobs["better"], jobs["bound"]) == ("jobs/s", "higher", 0.2)
    assert jobs["parent"] == {"median": 100.0, "q1": 95.0, "q3": 105.0}
    assert jobs["change"] == {"median": 120.0, "q1": 105.0, "q3": 125.0}
    assert (jobs["wins"], jobs["pairs"]) == (2, 3)
    latency = betti["metrics"]["latency_p50_ms"]
    assert latency["change"]["median"] == 2.5
    assert (latency["wins"], latency["pairs"]) == (1, 3)
    pell = report["workloads"]["pell_sweep"]["metrics"]
    # one pair: the quartiles are the value itself; lower RSS is better
    assert pell["peak_rss_mb"]["parent"] == {"median": 23.0, "q1": 23.0, "q3": 23.0}
    assert pell["peak_rss_mb"]["wins"] == 1
    assert pell["jobs_per_s"]["wins"] == 0
    assert set(pell) == {"jobs_per_s", "latency_p50_ms", "peak_rss_mb", "setup_s"}


def test_bench_fold_refuses_an_unpaired_run(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_run(parent, "lattice_h1", 1, run_values(270.0, 3.0))
    write_run(parent, "lattice_h1", 2, run_values(271.0, 3.0))
    write_run(change, "lattice_h1", 1, run_values(272.0, 3.0))
    out = tmp_path / "BENCH_1.json"
    done = run_script("bench_fold.py", str(parent), str(change), "--out", str(out))
    assert done.returncode == 2
    assert "runs without a partner: [('lattice_h1', 2)]" in done.stderr
    assert not out.exists()


def test_bench_fold_cap_rows(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_run(parent, "koszul_action", 1, run_values(300.0, 3.0))
    write_run(change, "koszul_action", 1, run_values(310.0, 2.9))

    def timings(name, rows):
        path = tmp_path / name
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return str(path)

    # the action row runs twice on each side; the torus digests differ; the
    # parent's action rows come from before rows carried a peak RSS
    action = {"kind": "action", "algebra": "filiform:14", "sha256": "030e"}
    torus = {"kind": "torus", "algebra": "abelian:14"}
    before = timings("parent.jsonl", [
        {**action, "seconds": 34.3},
        {**torus, "seconds": 0.63, "sha256": "bc6f", "peak_rss_mb": 98.5},
        {**action, "seconds": 33.9},
    ])
    after = timings("change.jsonl", [
        {**action, "seconds": 30.1, "peak_rss_mb": 715.2},
        {**action, "seconds": 30.4, "peak_rss_mb": 716.0},
        {**torus, "seconds": 0.61, "sha256": "0000", "peak_rss_mb": 97.1},
    ])
    out = tmp_path / "BENCH_1.json"
    done = run_script("bench_fold.py", str(parent), str(change), "--out", str(out),
                      "--timings", before, after)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert report["cap_rows"] == {
        "action filiform:14": {
            "seconds": {"parent": [34.3, 33.9], "change": [30.1, 30.4]},
            "peak_rss_mb": {"parent": [None, None], "change": [715.2, 716.0]},
            "sha256_match": True,
        },
        "torus abelian:14": {
            "seconds": {"parent": [0.63], "change": [0.61]},
            "peak_rss_mb": {"parent": [98.5], "change": [97.1]},
            "sha256_match": False,
        },
    }
    # without --timings the report has no cap rows
    done = run_script("bench_fold.py", str(parent), str(change), "--out", str(out))
    assert done.returncode == 0 and "cap_rows" not in json.loads(out.read_text())
    # a row on one side only is refused, and nothing is written
    out.unlink()
    lonely = timings("lonely.jsonl", [{**action, "seconds": 30.0}])
    done = run_script("bench_fold.py", str(parent), str(change), "--out", str(out),
                      "--timings", before, lonely)
    assert done.returncode == 2
    assert "timing rows without a partner: ['torus abelian:14']" in done.stderr
    assert not out.exists()
