"""Time the Betti numbers, the cohomology action and the torus invariants
on larger algebras.

Four kinds of row, each on a freshly built complex:

- ``betti``: ``LieAlgebra`` construction (with its Jacobi check),
  ``build_koszul`` (with its d o d = 0 check), ``betti()`` and
  ``nilpotency_class()`` on an algebra of ``perfbench/workloads.py``'s
  families, each stage timed on its own under ``stages``;
- ``action``: ``action_on_cohomology`` in every degree for the inner
  automorphism exp(ad x) of filiform(n), with x = e_1 + e_n in the
  1-based numbering of the basis, that is coordinates (1, 0, ..., 0, 1).
  An inner automorphism takes the inner path: Cartan's formula certified
  in every degree, and identity matrices;
- ``outer``: ``action_on_cohomology`` in every degree for the first torus
  of ``perfbench/workloads.py``'s ``torus_matrices`` on filiform(n),
  conjugated by exp(ad y), y = e_2 + e_n.  (That torus fixes e_1 and
  e_n is central, so exp(ad(e_1 + e_n)) commutes with it.)  The
  conjugate is neither unipotent nor diagonal, so it takes the general
  path: form actions, the chain-map check and the class map.  Inner
  automorphisms act trivially on cohomology, so its digest is the digest
  of the torus's own action;
- ``torus``: ``invariant_subcomplex`` under the two diagonal
  automorphisms of ``perfbench/workloads.py``'s ``torus_matrices``, with
  the identity relabelling.

Each row gives the wall time in seconds, a sha256 of the result entries
(the Betti tuple for a ``betti`` row), so runs on two commits can be
compared for time and for output, and ``peak_rss_mb``: the process's
peak resident set size (``ru_maxrss``) once the row is done.  That is a
high-water mark over every row run so far, so run one row per process to
read it as that row's own peak.  Run from the root of a checkout with
the package on PYTHONPATH:

    PYTHONPATH=src python3 scripts/koszul_timings.py --action 9 10 --torus filiform:9 heisenberg:4
    PYTHONPATH=src python3 scripts/koszul_timings.py --betti filiform:12 abelian:14 --action --torus
    PYTHONPATH=src python3 scripts/koszul_timings.py --action 14 --outer 14 --torus
"""

import argparse
import hashlib
import itertools
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

from polyarith.lie import (  # noqa: E402
    LieAlgebra,
    LieAutomorphism,
    action_on_cohomology,
    build_koszul,
    filiform,
    inner_automorphism,
    invariant_subcomplex,
)
from polyarith.linalg import Matrix  # noqa: E402

FAMILIES = {
    "abelian": workloads.abelian,
    "filiform": workloads.filiform,
    "free_two_step": workloads.free_two_step,
    "heisenberg": workloads.heisenberg,
    "strictly_upper": workloads.strictly_upper,
}


def digest(values) -> str:
    """sha256 of the entries of nested matrices and integers, as text."""

    def plain(v):
        if isinstance(v, Matrix):
            return [[str(x) for x in row] for row in v.entries]
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        return str(v)

    return hashlib.sha256(json.dumps(plain(values)).encode()).hexdigest()


def betti_row(spec: str) -> dict:
    family, _, param = spec.partition(":")
    base = FAMILIES[family](int(param))
    stages = {}

    def timed(stage, call):
        start = time.perf_counter()
        out = call()
        stages[stage] = time.perf_counter() - start
        return out

    algebra = timed("algebra", lambda: LieAlgebra(*base))
    kos = timed("build_koszul", lambda: build_koszul(algebra))
    betti = timed("betti", kos.betti)
    timed("nilpotency_class", algebra.nilpotency_class)
    return {"kind": "betti", "algebra": spec, "seconds": round(sum(stages.values()), 3),
            "stages": {k: round(v, 4) for k, v in stages.items()}, "sha256": digest(betti)}


def outer_automorphism(n: int) -> LieAutomorphism:
    """The first workload torus of filiform(n) conjugated by exp(ad y), y = e_2 + e_n."""
    base = workloads.filiform(n)
    algebra = LieAlgebra(*base)
    torus = LieAutomorphism(algebra, Matrix(workloads.torus_matrices(base, list(range(n)))[0]))
    u = inner_automorphism(algebra, (0, 1) + (0,) * (n - 3) + (1,))
    return u.compose(torus).compose(u.inverse())


def timed_action(kind: str, phi: LieAutomorphism) -> dict:
    n = phi.algebra.dim
    kos = build_koszul(phi.algebra)
    start = time.perf_counter()
    mats = [action_on_cohomology(phi, p, kos) for p in range(n + 1)]
    seconds = time.perf_counter() - start
    return {"kind": kind, "algebra": f"filiform:{n}", "seconds": round(seconds, 3),
            "sha256": digest(mats)}


def action_row(n: int) -> dict:
    return timed_action("action", inner_automorphism(filiform(n), (1,) + (0,) * (n - 2) + (1,)))


def outer_row(n: int) -> dict:
    return timed_action("outer", outer_automorphism(n))


def torus_row(spec: str) -> dict:
    family, _, param = spec.partition(":")
    base = FAMILIES[family](int(param))
    algebra = LieAlgebra(*base)
    autos = [
        LieAutomorphism(algebra, Matrix(m))
        for m in workloads.torus_matrices(base, list(range(algebra.dim)))
    ]
    kos = build_koszul(algebra)
    start = time.perf_counter()
    inv = invariant_subcomplex(kos, autos)
    seconds = time.perf_counter() - start
    # invariant_betti twice: the second stands where the fixed-class
    # dimensions, which equal it, were hashed, so the digests stay
    fields = [inv.subspace_dims, inv.invariant_betti, inv.invariant_betti,
              inv.subspace_bases, inv.restricted_differentials]
    return {"kind": "torus", "algebra": spec, "seconds": round(seconds, 3),
            "sha256": digest(fields)}


def family_spec(text: str) -> str:
    family, _, param = text.partition(":")
    if family not in FAMILIES or not param.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected FAMILY:N with FAMILY one of {', '.join(sorted(FAMILIES))}"
        )
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--betti", type=family_spec, nargs="*", default=[], metavar="FAMILY:N",
                        help="algebras for the betti rows (default: none)")
    parser.add_argument("--action", type=int, nargs="*", default=[9, 10], metavar="N",
                        help="filiform dimensions for the action rows (default: 9 10)")
    parser.add_argument("--outer", type=int, nargs="*", default=[], metavar="N",
                        help="filiform dimensions for the outer rows (default: none)")
    parser.add_argument("--torus", type=family_spec, nargs="*",
                        default=["filiform:9", "heisenberg:4"], metavar="FAMILY:N",
                        help="algebras for the torus rows (default: filiform:9 heisenberg:4)")
    parser.add_argument("--json", action="store_true", help="emit one JSON object per row")
    args = parser.parse_args(argv)
    if any(n < 3 for n in args.action + args.outer):
        parser.error("filiform algebras start at dimension 3")

    # rows are printed as they finish, since the larger ones take minutes
    rows = itertools.chain(
        map(betti_row, args.betti),
        map(action_row, args.action),
        map(outer_row, args.outer),
        map(torus_row, args.torus),
    )
    for row in rows:
        row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        line = (f"{row['kind']:<6} {row['algebra']:<18} {row['seconds']:>9.3f} s"
                f" {row['peak_rss_mb']:>8.1f} MB  {row['sha256']}")
        if "stages" in row:
            line += "\n       " + "  ".join(f"{k} {v:.4f} s" for k, v in row["stages"].items())
        print(json.dumps(row, sort_keys=True) if args.json else line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
