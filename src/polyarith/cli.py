"""Command line front end.

Every subcommand prints one JSON report on standard output:

    {"command": ..., "inputs": ..., "results": ..., "version": ...}

with keys sorted and no whitespace, so identical invocations produce
byte-identical bytes.  ``--pretty`` switches to a human-readable table
(classification-style commands end with their verdict line).
``--timestamps`` opts into a wall-clock field, deliberately breaking
reproducibility.

Exit codes: 0 success, 1 malformed input document (message carries a
JSON pointer), 2 violated mathematical precondition, 3 internal
consistency failure or any other unexpected exception (always a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Dict, List, Optional, Tuple, Union

from . import __version__
from .errors import InternalError, PreconditionError, SchemaError
from .jsonio import (
    GroupDocument,
    group_document_to_json,
    lie_algebra_to_json,
    load_document,
    matrix_to_json,
    parse_element_text,
    parse_group_document,
    parse_lie_algebra,
    parse_matrices_list,
    parse_matrix,
    poly_to_json,
    render_scalar,
    vector_to_json,
)
from .matrix import Matrix

# the last item lists the --pretty lines; a (matrix, label) pair stands for its _matrix_lines
Handler = Tuple[dict, Dict[str, dict], dict, List[Union[str, Tuple[Matrix, str]]]]


def _matrix_lines(m: Matrix, label: str = "") -> List[str]:
    out = [label] if label else []
    if m.nrows == 0:
        out.append("  (no rows)")
        return out
    text = [[render_scalar(x) for x in row] for row in m.entries]
    widths = [max(len(text[i][j]) for i in range(m.nrows)) for j in range(m.ncols)]
    for row in text:
        cells = "  ".join(s.rjust(w) for s, w in zip(row, widths))
        out.append(f"  [ {cells} ]")
    return out


def _load(path: str, parse):
    """Read the document at ``path`` and parse it; return the value with
    its ``files`` entry."""
    doc, digest = load_document(path)
    return parse(doc, ""), {"path": path, "sha256": digest}


def _verdict_json(verdict) -> dict:
    return {
        "classification": verdict.classification,
        "order": verdict.order,
        "semisimple_part": matrix_to_json(verdict.witness.semisimple),
        "unipotent_part": matrix_to_json(verdict.witness.unipotent),
        "note": verdict.interpretation(),
    }


def _engine_for(document: GroupDocument):
    from .presentations import DihedralEngine, FreeAbelianEngine, _check_engine

    if document.engine is None:
        raise SchemaError(
            "/engine", "this command needs a normal form engine tag (dihedral or free_abelian)"
        )
    pres = document.presentation
    if document.engine == "dihedral":
        engine = DihedralEngine()
    else:
        engine = FreeAbelianEngine(len(pres.generators), pres.generators)
    _check_engine(pres, engine)
    return engine


# ---------------------------------------------------------------------------
# subcommand handlers: each imports the module it runs when it runs, so that
# importing this module loads only the parse layer


def cmd_pell(ns) -> Handler:
    from .quadratic import QuadOrder

    unit = QuadOrder(ns.d).fundamental_unit()
    results = {"d": ns.d, "a": unit.x, "b": unit.y}
    pretty = [
        f"d = {ns.d}",
        f"fundamental norm-one unit: {unit}",
        f"a = {unit.x}, b = {unit.y}",
    ]
    return results, {}, {"d": ns.d}, pretty


def cmd_gamma_epsilon(ns) -> Handler:
    from .semidirect import build_gamma_epsilon

    ge = build_gamma_epsilon(ns.d)
    doc = GroupDocument(
        ge.group.presentation,
        ge.group.action,
        "dihedral",
        {"d": ns.d, "epsilon": {"a": ge.a, "b": ge.b, "d": ns.d}},
    )
    results = group_document_to_json(doc)
    pretty = [f"d = {ns.d}", f"epsilon = {ge.unit}", "generators: " + ", ".join(ge.group.presentation.generators)]
    for name, mat in zip(ge.group.presentation.generators, ge.group.action.matrices):
        pretty.append((mat, f"action of {name}:"))
    return results, {}, {"d": ns.d}, pretty


def cmd_derivations(ns) -> Handler:
    from .cohomology import derivation_space

    document, spec = _load(ns.spec, parse_group_document)
    lattice = derivation_space(document.presentation, document.action)
    names = document.presentation.generators
    results = {
        "rank": lattice.rank,
        "basis": [
            {"values": {name: vector_to_json(vec) for name, vec in zip(names, deriv.values)}}
            for deriv in lattice.basis
        ],
        "flattened_basis": matrix_to_json(lattice.basis_matrix()),
    }
    pretty = [f"derivation lattice rank: {lattice.rank}"]
    for t, deriv in enumerate(lattice.basis, start=1):
        parts = ", ".join(f"{n} -> {list(v)}" for n, v in zip(names, deriv.values))
        pretty.append(f"  d{t}: {parts}")
    return results, {"spec": spec}, {}, pretty


def cmd_h1(ns) -> Handler:
    from .cohomology import h1

    document, spec = _load(ns.spec, parse_group_document)
    group = h1(document.presentation, document.action)
    order = group.order()
    results = {
        "free_rank": group.free_rank,
        "torsion": list(group.torsion),
        "order": order,
        "trivial": group.is_trivial(),
        "text": str(group),
    }
    pretty = [
        f"free rank: {group.free_rank}",
        f"invariant factors: {list(group.torsion)}",
        f"H1 = {group}",
    ]
    return results, {"spec": spec}, {}, pretty


def cmd_der_action(ns) -> Handler:
    from .cohomology import conjugation_action, derivation_space, rewriting_table

    document, spec = _load(ns.spec, parse_group_document)
    engine = _engine_for(document)
    word = parse_element_text(ns.element, document.presentation, "/element")
    lattice = derivation_space(document.presentation, document.action)
    table = rewriting_table(engine, word)
    matrix = conjugation_action(word, table, lattice)
    det = matrix.det()  # kept from conjugation_action's unimodularity check
    results = {
        "element": ns.element,
        "rank": lattice.rank,
        "matrix": matrix_to_json(matrix),
        "determinant": det,
    }
    pretty = [f"element: {ns.element}", f"derivation lattice rank: {lattice.rank}"]
    pretty.append((matrix, "action on the derivation basis (rows are images):"))
    pretty.append(f"determinant: {det}")
    return results, {"spec": spec}, {"element": ns.element}, pretty


def cmd_equivariant_units(ns) -> Handler:
    from .cohomology import equivariant_units

    document, spec = _load(ns.spec, parse_group_document)
    units = equivariant_units(document.action, ns.bound)
    results = {
        "bound": ns.bound,
        "count": len(units),
        "units": [matrix_to_json(u) for u in units],
    }
    pretty = [f"entry bound: {ns.bound}", f"units found: {len(units)}"]
    for t, u in enumerate(units, start=1):
        pretty.append((u, f"unit {t}:"))
    return results, {"spec": spec}, {"bound": ns.bound}, pretty


def cmd_jordan(ns) -> Handler:
    from .linalg import jordan_chevalley

    matrix, entry = _load(ns.matrix, parse_matrix)
    pair = jordan_chevalley(matrix)
    results = {
        "semisimple_part": matrix_to_json(pair.semisimple),
        "unipotent_part": matrix_to_json(pair.unipotent),
    }
    pretty = [(pair.semisimple, "semisimple part:"), (pair.unipotent, "unipotent part:")]
    return results, {"matrix": entry}, {}, pretty


def cmd_arith_check(ns) -> Handler:
    from .arithmeticity import classify

    matrix, entry = _load(ns.matrix, parse_matrix)
    verdict = classify(matrix)
    results = _verdict_json(verdict)
    pretty = [(matrix, "input:"), (verdict.witness.semisimple, "semisimple part:")]
    pretty.append((verdict.witness.unipotent, "unipotent part:"))
    if verdict.order is not None:
        pretty.append(f"order: {verdict.order}")
    pretty.append(f"note: {verdict.interpretation()}")
    pretty.append(f"classification: {verdict.classification}")
    return results, {"matrix": entry}, {}, pretty


def cmd_teob(ns) -> Handler:
    from .arithmeticity import non_arithmeticity_report

    report = non_arithmeticity_report(ns.d)
    verdict = report.verdict
    results = {
        "d": report.d,
        "epsilon": {"a": report.a, "b": report.b, "d": report.d},
        "coupling": report.coupling,
        "resolved_entry": report.resolved_entry,
        "derivation_rank": report.derivation_rank,
        "inner_action": matrix_to_json(report.inner_action),
        "unipotent_block": matrix_to_json(report.unipotent_block),
        "infinite_order_factor": poly_to_json(report.infinite_order_factor),
        **_verdict_json(verdict),
    }
    pretty = [
        f"d = {report.d}, epsilon = {report.a} + {report.b}*sqrt({report.d})",
        f"derivation lattice rank: {report.derivation_rank}",
        f"coupling gcd(a+1, b*d) = {report.coupling} (resolved lower-block entry: {report.resolved_entry})",
    ]
    pretty.append((report.inner_action, "conjugation by the translation generator on derivations:"))
    pretty.append((report.unipotent_block, "unipotent block:"))
    pretty.append(f"semisimple factor: {report.infinite_order_factor}")
    pretty.append(f"note: {verdict.interpretation()}")
    pretty.append(f"classification: {verdict.classification}")
    return results, {}, {"d": ns.d}, pretty


def cmd_lie_cohomology(ns) -> Handler:
    from .lie import LieAutomorphism, action_on_cohomology, build_koszul, invariant_subcomplex

    algebra, entry = _load(ns.algebra, parse_lie_algebra)
    kos = build_koszul(algebra)
    betti = kos.betti()
    euler = kos.euler_characteristic()
    series = algebra.lower_central_series()
    nil_class = len(series) - 1 if series[-1].nrows == 0 else None
    # H^1 is the dual of g/[g, g], and [g, g] is the second term of the series
    if algebra.dim and betti[1] != algebra.dim - series[1].nrows:
        raise InternalError(f"b_1 = {betti[1]} but dim g - dim [g, g] = {algebra.dim - series[1].nrows}")
    # Poincare duality holds for a nilpotent (hence unimodular) algebra
    if nil_class is not None and betti != betti[::-1]:
        raise InternalError(
            f"Betti numbers {' '.join(map(str, betti))} of a nilpotent algebra of "
            f"dimension {algebra.dim} break Poincare duality b_p = b_(n-p)"
        )
    results = {
        "dim": algebra.dim,
        "betti": list(betti),
        "euler_characteristic": euler,
        "nilpotency_class": nil_class,
        "algebra": lie_algebra_to_json(algebra),
    }
    files = {"algebra": entry}
    params = {}
    pretty = [
        f"dimension: {algebra.dim}",
        f"nilpotency class: {nil_class}",
        "betti numbers: " + " ".join(str(b) for b in betti),
        f"euler characteristic: {euler}",
    ]
    if ns.automorphism is not None:
        mats, files["automorphism"] = _load(ns.automorphism, parse_matrices_list)
        autos = [LieAutomorphism(algebra, m) for m in mats]
        params["automorphism"] = ns.automorphism
        if not autos:
            raise SchemaError("/matrices", "at least one matrix is required")
        phi = autos[0]
        for other in autos[1:]:
            phi = phi.compose(other)
        action = [action_on_cohomology(phi, p, kos) for p in range(algebra.dim + 1)]
        results["cohomology_action"] = [matrix_to_json(m) for m in action]
        for p, m in enumerate(action):
            pretty.append((m, f"induced map on degree {p} cohomology:"))
    if ns.invariants is not None:
        mats, files["invariants"] = _load(ns.invariants, parse_matrices_list)
        params["invariants"] = ns.invariants
        inv = invariant_subcomplex(kos, [LieAutomorphism(algebra, m) for m in mats])
        results["invariant"] = {
            "subspace_dims": list(inv.subspace_dims),
            "invariant_betti": list(inv.invariant_betti),
            "fixed_cohomology_dims": list(inv.invariant_betti),
        }
        pretty.append("invariant betti numbers: " + " ".join(str(b) for b in inv.invariant_betti))
    return results, files, params, pretty


def cmd_koszul_invariants(ns) -> Handler:
    from .lie import LieAutomorphism, build_koszul, invariant_subcomplex

    algebra, entry = _load(ns.algebra, parse_lie_algebra)
    kos = build_koszul(algebra)
    mats, matrices = _load(ns.matrices, parse_matrices_list)
    inv = invariant_subcomplex(kos, [LieAutomorphism(algebra, m) for m in mats])
    betti = kos.betti()
    # the fixed classes are the cohomology of the fixed forms (invariant_subcomplex)
    results = {
        "dim": algebra.dim,
        "betti": list(betti),
        "subspace_dims": list(inv.subspace_dims),
        "invariant_betti": list(inv.invariant_betti),
        "fixed_cohomology_dims": list(inv.invariant_betti),
        "dims_agree": True,
    }
    files = {"algebra": entry, "matrices": matrices}
    pretty = [
        "betti numbers: " + " ".join(str(b) for b in betti),
        "invariant subcomplex dimensions: " + " ".join(str(x) for x in inv.subspace_dims),
        "invariant betti numbers: " + " ".join(str(b) for b in inv.invariant_betti),
        "fixed subspaces of the cohomology action: "
        + " ".join(str(x) for x in inv.invariant_betti),
        "cohomology of invariants matches invariants of cohomology: yes",
    ]
    return results, files, {}, pretty


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="human readable output")
    common.add_argument(
        "--timestamps", action="store_true", help="include wall clock time in the report"
    )

    parser = argparse.ArgumentParser(
        prog="polyarith",
        description="Exact arithmetic for automorphism structure of polycyclic semidirect products.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pell", parents=[common], help="fundamental norm-one unit of Z[sqrt(d)]")
    p.add_argument("d", type=int)

    p = sub.add_parser(
        "gamma-epsilon", parents=[common], help="emit the Pell family group description"
    )
    p.add_argument("d", type=int)

    p = sub.add_parser(
        "derivations", parents=[common], help="basis of the derivation lattice of a group spec"
    )
    p.add_argument("spec")

    p = sub.add_parser(
        "h1", parents=[common], help="first cohomology (cocycles modulo coboundaries)"
    )
    p.add_argument("spec")

    p = sub.add_parser(
        "der-action", parents=[common], help="conjugation action of an element on derivations"
    )
    p.add_argument("spec")
    p.add_argument("--element", required=True, help='word such as "A" or "A t A^-1"')

    p = sub.add_parser(
        "equivariant-units",
        parents=[common],
        help="equivariant unimodular matrices within an entry bound",
    )
    p.add_argument("spec")
    p.add_argument("--bound", type=int, default=10)

    p = sub.add_parser(
        "jordan", parents=[common], help="multiplicative Jordan decomposition of a rational matrix"
    )
    p.add_argument("matrix")

    p = sub.add_parser(
        "arith-check",
        parents=[common],
        help="necessary-condition classification of an integer matrix",
    )
    p.add_argument("matrix")

    p = sub.add_parser(
        "teob", parents=[common], help="full non-arithmeticity report for a Pell parameter"
    )
    p.add_argument("d", type=int)

    p = sub.add_parser(
        "lie-cohomology", parents=[common], help="Betti numbers and actions for a Lie algebra"
    )
    p.add_argument("algebra")
    p.add_argument("--automorphism", default=None, help="matrices file; composed left to right")
    p.add_argument("--invariants", default=None, help="matrices file of commuting semisimple maps")

    p = sub.add_parser(
        "koszul-invariants",
        parents=[common],
        help="invariant subcomplex cohomology against fixed subspaces",
    )
    p.add_argument("algebra")
    p.add_argument("matrices")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares, built on first use rather
    than at import.  It holds no handlers: subcommand ``x-y`` is handled
    by ``cmd_x_y``, which ``main`` finds in this module when it runs."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    # a valid entry or result can pass Python's 4 300-digit int <-> str cap
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(cap)


def _run(argv: Optional[List[str]]) -> int:
    ns = _parser().parse_args(argv)
    try:
        results, files, params, pretty = globals()["cmd_" + ns.command.replace("-", "_")](ns)
    except SchemaError as e:
        print(f"error (malformed input): {e}", file=sys.stderr)
        return 1
    except PreconditionError as e:
        print(f"error (precondition): {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"error (internal consistency): {e}", file=sys.stderr)
        return 3
    except Exception as e:
        # any other exception is a bug too; keep its traceback for the report
        print(f"error (internal consistency): {type(e).__name__}: {e}", file=sys.stderr)
        import traceback

        traceback.print_exc()
        return 3

    report = {
        "command": ns.command,
        "inputs": {"files": files, "parameters": params},
        "results": results,
        "version": __version__,
    }
    if ns.timestamps:
        from datetime import datetime, timezone

        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    if ns.pretty:
        parts = (_matrix_lines(*x) if isinstance(x, tuple) else [x] for x in pretty)
        print("\n".join(line for part in parts for line in part))
    else:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
