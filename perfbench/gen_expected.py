"""Regenerate ``expected/<workload>.json``: the expected ``results`` of every
job a seed can draw, each cross-checked independently of the program.

    PYTHONPATH=src python3 perfbench/gen_expected.py [WORKLOAD ...]

Run from the root of a checkout with the test extras installed (sympy).
Every pool job runs once through ``polyarith.cli.main``; its ``results``
object is stored as a sha256 digest together with the digests of its
input files and a short readable summary.  Before a digest is stored the
results pass these checks:

- teob: the verdict is FailsNecessaryCondition, S*U = U*S = inner_action
  in plain Fraction arithmetic, and epsilon is the least solution of
  x^2 - d y^2 = 1 found by workloads.pell_unit.
- h1: free rank and torsion equal those of the quotient of the cocycle
  lattice by the principal one, built from Fox derivatives and computed
  with the sympy-backed helpers of tests/oracles.py.
- der-action: the rank equals the rank of that cocycle lattice and the
  matrix is unimodular.
- lie-cohomology: Poincare duality b_p = b_(n-p), Euler characteristic 0,
  binomial Betti numbers for abelian algebras, the same Betti numbers
  for every relabelling of one algebra, and, with an inner automorphism,
  the identity action on every cohomology group.
- koszul-invariants: dims_agree is true and duality holds.

The oracles run here only, never inside the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from worker import results_digest  # noqa: E402


def fractions(matrix_json):
    return [[Fraction(x) for x in row] for row in matrix_json["entries"]]


def mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def inverse(a):
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                g = aug[i][c]
                aug[i] = [x - g * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def check(cond: bool, what: str, key: str):
    if not cond:
        raise SystemExit(f"cross-check failed for {key}: {what}")


def check_teob(key, res, files):
    d = res["d"]
    s, u, a = (fractions(res[k]) for k in ("semisimple_part", "unipotent_part", "inner_action"))
    check(res["classification"] == "FailsNecessaryCondition", "classification", key)
    check(mul(s, u) == a and mul(u, s) == a, "S*U = U*S = inner_action", key)
    x, y = workloads.pell_unit(d)
    check((res["epsilon"]["a"], res["epsilon"]["b"]) == (x, y), "Pell unit", key)
    return {"classification": res["classification"], "unit_bits": x.bit_length()}


def cocycles_and_principal(doc):
    """Cocycle lattice (Fox derivatives of the relators) and principal
    derivations of a group document, as lists of integer rows."""
    gens = doc["presentation"]["generators"]
    n = doc["action"]["rank"]
    mats = [[[int(x) for x in row] for row in fractions(doc["action"]["matrices"][g])] for g in gens]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    rows = []
    for word in doc["presentation"]["relators"]:
        blocks = [[[0] * n for _ in range(n)] for _ in gens]
        prefix = ident
        for name, exp in word:
            g = gens.index(name)
            if exp == 1:
                blocks[g] = [[x + y for x, y in zip(r, s)] for r, s in zip(blocks[g], prefix)]
                prefix = mul(prefix, mats[g])
            else:
                prefix = mul(prefix, inverse(mats[g]))
                blocks[g] = [[x - y for x, y in zip(r, s)] for r, s in zip(blocks[g], prefix)]
        for i in range(n):
            rows.append([int(x) for b in blocks for x in b[i]])
    width = n * len(gens)
    if rows:
        cocycles = oracles.integer_kernel(rows, width)
    else:
        cocycles = [[int(i == j) for j in range(width)] for i in range(width)]
    principal = [
        [m[r][i] - int(r == i) for m in mats for r in range(n)] for i in range(n)
    ]
    return cocycles, principal, width


def check_lattice(key, res, files):
    cocycles, principal, width = cocycles_and_principal(files["spec"])
    if key.startswith("h1/"):
        free, torsion = oracles.quotient_structure(cocycles, principal, width)
        check((res["free_rank"], tuple(res["torsion"])) == (free, torsion), "free rank and torsion", key)
        return {"free_rank": free, "torsion": list(torsion)}
    check(res["rank"] == len(cocycles), "derivation lattice rank", key)
    check(res["determinant"] in (1, -1), "unimodular action", key)
    return {"rank": res["rank"], "determinant": res["determinant"]}


def check_lie(key, res, files):
    betti, n = res["betti"], files["algebra"]["dim"]
    check(len(betti) == n + 1 and betti == betti[::-1], "Poincare duality", key)
    check(sum((-1) ** p * b for p, b in enumerate(betti)) == 0, "Euler characteristic", key)
    if "euler_characteristic" in res:
        check(res["euler_characteristic"] == 0, "reported Euler characteristic", key)
    if not files["algebra"]["brackets"]:
        check(betti == [comb(n, p) for p in range(n + 1)], "abelian Betti numbers", key)
    if "cohomology_action" in res:
        for p, m in enumerate(res["cohomology_action"]):
            ident = [[Fraction(int(i == j)) for j in range(m["cols"])] for i in range(m["rows"])]
            check(fractions(m) == ident, f"inner automorphism acts trivially in degree {p}", key)
    if "dims_agree" in res:
        check(res["dims_agree"] is True, "dims_agree", key)
    return {"betti": betti}


CHECKS = {"teob": check_teob, "h1": check_lattice, "der-action": check_lattice,
          "lie-cohomology": check_lie, "koszul-invariants": check_lie}


def generate(workload: str, cli, version: str, commit: str):
    work = ROOT / ".bench_work" / "gen"
    work.mkdir(parents=True, exist_ok=True)
    jobs = {}
    betti_by_slot = {}
    for job in workloads.pool(workload):
        paths, inputs = {}, {}
        for name, data in job.file_bytes().items():
            path = work / f"{name}.json"
            path.write_bytes(data)
            paths[name] = str(path)
            inputs[name] = workloads.sha256(data)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([a.format(**paths) for a in job.argv])
        check(code == 0, f"exit code {code}", job.key)
        res = json.loads(buf.getvalue())["results"]
        summary = CHECKS[job.argv[0]](job.key, res, job.files)
        if "betti" in summary:
            slot = job.key.rsplit("/", 1)[0]
            check(betti_by_slot.setdefault(slot, summary["betti"]) == summary["betti"],
                  "Betti numbers agree across relabellings", job.key)
        jobs[job.key] = {"results_sha256": results_digest(buf.getvalue()), "inputs": inputs, "check": summary}
        print(f"{job.key} ok", file=sys.stderr)
    doc = {"workload": workload, "polyarith_version": version, "commit": commit, "jobs": jobs}
    out = HERE / "expected" / f"{workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv):
    from polyarith import __version__, cli

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    for workload in argv or workloads.WORKLOADS:
        generate(workload, cli, __version__, commit)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
