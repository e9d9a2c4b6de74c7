"""Time the layers under the lattice_h1 workload, one row per slot (n, k).

Each row reads the document of one slot of ``perfbench/workloads.py``'s
``LATTICE_SLOTS``: Z^k acting on Z^n by (M, M^2)[:k], for the seeded
matrix 0 after its sign change 0.  Every layer is timed on its own, as
the median of ``--repeats`` runs, in microseconds under ``us``:

- ``det``: building the ``ModuleAction``, which checks det +-1 of every
  generator matrix by ``Matrix.det``, one forward elimination on [M | I]
  that the matrix keeps;
- ``inverse``: the first x^-1 of every generator, ``Matrix.inverse``
  back-substituted from that kept pass.

Both run on new ``Matrix`` objects in every repeat, so that no repeat
reads a pass or an inverse that an earlier one kept.  The other layers:

- ``fox``: the Fox walk of the commutator x_1 x_2 x_1^-1 x_2^-1, with
  the inverses already at hand (null for k = 1, which has no relator);
- ``kernel_lattice``: the derivation lattice, the saturated kernel of
  that walk's Fox matrix (null for k = 1, where it is all of Z^n);
- ``invariant_factors``: those of D, the principal derivations, as
  ``h1`` takes them;
- ``conjugation_action``: the action of g1 on the derivation lattice, as
  ``der-action`` runs it.

A row also gives the sizes (``n``, ``k``, the cochain length ``N`` = n k
and the lattice ``rank``), ``bits``, the largest bit length of an entry
of any output, and ``sha256``, a digest of the outputs with the type of
each entry, so runs on two commits can be compared for time and for
output.  Run from the root of a checkout with the package on PYTHONPATH:

    PYTHONPATH=src python3 scripts/lattice_timings.py
    PYTHONPATH=src python3 scripts/lattice_timings.py --slots 12:1 12:2 --repeats 21 --json
"""

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

from polyarith.cohomology import (  # noqa: E402
    _fox_matrix,
    _principal_rows,
    conjugation_action,
    derivation_space,
    rewriting_table,
)
from polyarith.jsonio import parse_group_document  # noqa: E402
from polyarith.linalg import Matrix, invariant_factors, kernel_lattice  # noqa: E402
from polyarith.presentations import FreeAbelianEngine, ModuleAction  # noqa: E402


def typed(value):
    """Nested rows, matrices and integers with each entry tagged by its type."""
    if isinstance(value, Matrix):
        value = value.entries
    if isinstance(value, (list, tuple)):
        return [typed(x) for x in value]
    return f"{type(value).__name__}:{value}"


def bits(value) -> int:
    if isinstance(value, Matrix):
        value = value.entries
    if isinstance(value, (list, tuple)):
        return max(map(bits, value), default=0)
    return abs(value).bit_length() if isinstance(value, int) else 0


def median_us(call, repeats: int, fresh=lambda: None):
    """The last result of ``call(fresh())`` and the median wall time of
    ``call`` alone, ``fresh()`` being untimed, in microseconds."""
    times = []
    for _ in range(repeats):
        arg = fresh()
        start = time.perf_counter()
        out = call(arg)
        times.append(time.perf_counter() - start)
    return out, round(statistics.median(times) * 1e6, 1)


def slot_row(n: int, k: int, repeats: int) -> dict:
    doc = parse_group_document(workloads.lattice_document(n, k, 0, 0))
    pres, matrices = doc.presentation, doc.action.matrices

    # a Matrix keeps its forward pass and inverse, so every repeat gets new ones
    def fresh_matrices():
        return [Matrix(m.entries, ncols=n) for m in matrices]

    us = {}
    action, us["det"] = median_us(lambda ms: ModuleAction(n, ms), repeats, fresh_matrices)
    inverses, us["inverse"] = median_us(
        lambda fresh: [fresh.letter_rows(i, -1) for i in range(k)], repeats,
        lambda: ModuleAction(n, fresh_matrices()),
    )
    for i in range(k):
        action.letter_rows(i, -1)
    outputs = [inverses]
    if k > 1:
        fox, us["fox"] = median_us(lambda _: _fox_matrix(action, pres.relators[0]), repeats)
        constraint = Matrix(fox[0], ncols=n * k)
        kernel, us["kernel_lattice"] = median_us(lambda _: kernel_lattice(constraint), repeats)
        outputs += [fox, kernel]
    else:
        us["fox"] = us["kernel_lattice"] = None
    principal = Matrix(_principal_rows(action), ncols=n * k)
    factors, us["invariant_factors"] = median_us(lambda _: invariant_factors(principal), repeats)
    lattice = derivation_space(pres, action)
    g = ((0, 1),)
    table = rewriting_table(FreeAbelianEngine(k), g)
    conj, us["conjugation_action"] = median_us(lambda _: conjugation_action(g, table, lattice), repeats)
    outputs += [factors, conj]
    digest = hashlib.sha256(json.dumps(typed(outputs)).encode()).hexdigest()
    return {"n": n, "k": k, "N": n * k, "rank": lattice.rank, "bits": bits(outputs),
            "us": us, "sha256": digest}


def slot_spec(text: str):
    n, _, k = text.partition(":")
    if not (n.isdigit() and k.isdigit()) or (int(n), int(k)) not in workloads.LATTICE_SLOTS:
        slots = " ".join(f"{a}:{b}" for a, b in workloads.LATTICE_SLOTS)
        raise argparse.ArgumentTypeError(f"expected N:K, one of {slots}")
    return int(n), int(k)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--slots", type=slot_spec, nargs="*", default=list(workloads.LATTICE_SLOTS),
                        metavar="N:K", help="slots to time (default: every lattice_h1 slot)")
    parser.add_argument("--repeats", type=int, default=7, help="runs per layer (default: 7)")
    parser.add_argument("--json", action="store_true", help="emit one JSON object per row")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    for n, k in args.slots:
        row = slot_row(n, k, args.repeats)
        if args.json:
            print(json.dumps(row, sort_keys=True), flush=True)
            continue
        layers = "  ".join(f"{name} {'-' if t is None else f'{t:.0f}'}" for name, t in row["us"].items())
        print(f"n={n:<2} k={k} N={row['N']:<2} rank={row['rank']:<2} bits={row['bits']:<3} "
              f"{layers} us  {row['sha256'][:16]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
