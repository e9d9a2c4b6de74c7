"""Command line front end.

Every subcommand prints one JSON report on standard output:

    {"command": ..., "inputs": ..., "results": ..., "version": ...}

with keys sorted and no whitespace, so identical invocations produce
byte-identical bytes.  ``--pretty`` switches to a human-readable table
(classification-style commands end with their verdict line).
``--timestamps`` opts into a wall-clock field, deliberately breaking
reproducibility.  ``--seed`` is recorded in the report for subcommands
that sample; the current set is fully deterministic and ignores it.

Exit codes: 0 success, 1 malformed input document (message carries a
JSON pointer), 2 violated mathematical precondition, 3 internal
consistency failure or any other unexpected exception (always a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from datetime import datetime, timezone
from typing import Dict, List, Optional, Tuple

from . import __version__
from .arithmeticity import classify, non_arithmeticity_report
from .cohomology import (
    conjugation_action,
    derivation_space,
    equivariant_units,
    h1,
    rewriting_table,
)
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
from .lie import LieAutomorphism, action_on_cohomology, build_koszul, invariant_subcomplex
from .linalg import Matrix, jordan_chevalley
from .presentations import DihedralEngine, FreeAbelianEngine
from .quadratic import QuadOrder
from .semidirect import build_gamma_epsilon

Handler = Tuple[dict, Dict[str, dict], dict, List[str]]


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


def _digest_entry(path: str, digest: str) -> dict:
    return {"path": path, "sha256": digest}


def _load_group(path: str):
    doc, digest = load_document(path)
    return parse_group_document(doc), digest


def _engine_for(document: GroupDocument):
    if document.engine is None:
        raise SchemaError(
            "/engine", "this command needs a normal form engine tag (dihedral or free_abelian)"
        )
    if document.engine == "dihedral":
        if len(document.presentation.generators) != 2:
            raise PreconditionError("the dihedral engine needs exactly two generators")
        return DihedralEngine()
    return FreeAbelianEngine(
        len(document.presentation.generators), document.presentation.generators
    )


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_pell(ns) -> Handler:
    unit = QuadOrder(ns.d).fundamental_unit()
    results = {"d": ns.d, "a": unit.x, "b": unit.y}
    pretty = [
        f"d = {ns.d}",
        f"fundamental norm-one unit: {unit}",
        f"a = {unit.x}, b = {unit.y}",
    ]
    return results, {}, {"d": ns.d}, pretty


def cmd_gamma_epsilon(ns) -> Handler:
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
        pretty.extend(_matrix_lines(mat, f"action of {name}:"))
    return results, {}, {"d": ns.d}, pretty


def cmd_derivations(ns) -> Handler:
    document, digest = _load_group(ns.spec)
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
    return results, {"spec": _digest_entry(ns.spec, digest)}, {}, pretty


def cmd_h1(ns) -> Handler:
    document, digest = _load_group(ns.spec)
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
    return results, {"spec": _digest_entry(ns.spec, digest)}, {}, pretty


def cmd_der_action(ns) -> Handler:
    document, digest = _load_group(ns.spec)
    engine = _engine_for(document)
    word = parse_element_text(ns.element, document.presentation, "/element")
    lattice = derivation_space(document.presentation, document.action)
    table = rewriting_table(engine, word)
    matrix = conjugation_action(word, table, lattice)
    results = {
        "element": ns.element,
        "rank": lattice.rank,
        "matrix": matrix_to_json(matrix),
        "determinant": matrix.det(),
    }
    pretty = [f"element: {ns.element}", f"derivation lattice rank: {lattice.rank}"]
    pretty.extend(_matrix_lines(matrix, "action on the derivation basis (rows are images):"))
    pretty.append(f"determinant: {matrix.det()}")
    files = {"spec": _digest_entry(ns.spec, digest)}
    return results, files, {"element": ns.element}, pretty


def cmd_equivariant_units(ns) -> Handler:
    document, digest = _load_group(ns.spec)
    units = equivariant_units(document.action, ns.bound)
    results = {
        "bound": ns.bound,
        "count": len(units),
        "units": [matrix_to_json(u) for u in units],
    }
    pretty = [f"entry bound: {ns.bound}", f"units found: {len(units)}"]
    for t, u in enumerate(units, start=1):
        pretty.extend(_matrix_lines(u, f"unit {t}:"))
    files = {"spec": _digest_entry(ns.spec, digest)}
    return results, files, {"bound": ns.bound}, pretty


def cmd_jordan(ns) -> Handler:
    doc, digest = load_document(ns.matrix)
    matrix = parse_matrix(doc, "")
    pair = jordan_chevalley(matrix)
    results = {
        "semisimple_part": matrix_to_json(pair.semisimple),
        "unipotent_part": matrix_to_json(pair.unipotent),
    }
    pretty = _matrix_lines(pair.semisimple, "semisimple part:")
    pretty.extend(_matrix_lines(pair.unipotent, "unipotent part:"))
    files = {"matrix": _digest_entry(ns.matrix, digest)}
    return results, files, {}, pretty


def cmd_arith_check(ns) -> Handler:
    doc, digest = load_document(ns.matrix)
    matrix = parse_matrix(doc, "")
    verdict = classify(matrix)
    results = {
        "classification": verdict.classification,
        "order": verdict.order,
        "semisimple_part": matrix_to_json(verdict.witness.semisimple),
        "unipotent_part": matrix_to_json(verdict.witness.unipotent),
        "note": verdict.interpretation(),
    }
    pretty = _matrix_lines(matrix, "input:")
    pretty.extend(_matrix_lines(verdict.witness.semisimple, "semisimple part:"))
    pretty.extend(_matrix_lines(verdict.witness.unipotent, "unipotent part:"))
    if verdict.order is not None:
        pretty.append(f"order: {verdict.order}")
    pretty.append(f"note: {verdict.interpretation()}")
    pretty.append(f"classification: {verdict.classification}")
    files = {"matrix": _digest_entry(ns.matrix, digest)}
    return results, files, {}, pretty


def cmd_teob(ns) -> Handler:
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
        "classification": verdict.classification,
        "order": verdict.order,
        "semisimple_part": matrix_to_json(verdict.witness.semisimple),
        "unipotent_part": matrix_to_json(verdict.witness.unipotent),
        "note": verdict.interpretation(),
    }
    pretty = [
        f"d = {report.d}, epsilon = {report.a} + {report.b}*sqrt({report.d})",
        f"derivation lattice rank: {report.derivation_rank}",
        f"coupling gcd(a+1, b*d) = {report.coupling} (resolved lower-block entry: {report.resolved_entry})",
    ]
    pretty.extend(
        _matrix_lines(report.inner_action, "conjugation by the translation generator on derivations:")
    )
    pretty.extend(_matrix_lines(report.unipotent_block, "unipotent block:"))
    pretty.append(f"semisimple factor: {report.infinite_order_factor}")
    pretty.append(f"note: {verdict.interpretation()}")
    pretty.append(f"classification: {verdict.classification}")
    return results, {}, {"d": ns.d}, pretty


def _parse_lie_file(path: str):
    doc, digest = load_document(path)
    return parse_lie_algebra(doc, ""), digest


def _automorphisms_from_file(algebra, path: str):
    doc, digest = load_document(path)
    mats = parse_matrices_list(doc, "")
    return [LieAutomorphism(algebra, m) for m in mats], digest


def cmd_lie_cohomology(ns) -> Handler:
    algebra, digest = _parse_lie_file(ns.algebra)
    kos = build_koszul(algebra)
    betti = kos.betti()
    euler = kos.euler_characteristic()
    nil_class = algebra.nilpotency_class()
    results = {
        "dim": algebra.dim,
        "betti": list(betti),
        "euler_characteristic": euler,
        "nilpotency_class": nil_class,
        "algebra": lie_algebra_to_json(algebra),
    }
    files = {"algebra": _digest_entry(ns.algebra, digest)}
    pretty = [
        f"dimension: {algebra.dim}",
        f"nilpotency class: {nil_class}",
        "betti numbers: " + " ".join(str(b) for b in betti),
        f"euler characteristic: {euler}",
    ]
    if ns.automorphism is not None:
        autos, adigest = _automorphisms_from_file(algebra, ns.automorphism)
        files["automorphism"] = _digest_entry(ns.automorphism, adigest)
        if not autos:
            raise SchemaError("/matrices", "at least one matrix is required")
        phi = autos[0]
        for other in autos[1:]:
            phi = phi.compose(other)
        action = [action_on_cohomology(phi, p, kos) for p in range(algebra.dim + 1)]
        results["cohomology_action"] = [matrix_to_json(m) for m in action]
        for p, m in enumerate(action):
            pretty.extend(_matrix_lines(m, f"induced map on degree {p} cohomology:"))
    if ns.invariants is not None:
        autos, idigest = _automorphisms_from_file(algebra, ns.invariants)
        files["invariants"] = _digest_entry(ns.invariants, idigest)
        inv = invariant_subcomplex(kos, autos)
        results["invariant"] = {
            "subspace_dims": list(inv.subspace_dims),
            "invariant_betti": list(inv.invariant_betti),
            "fixed_cohomology_dims": list(inv.fixed_cohomology_dims),
        }
        pretty.append("invariant betti numbers: " + " ".join(str(b) for b in inv.invariant_betti))
    params = {}
    if ns.automorphism is not None:
        params["automorphism"] = ns.automorphism
    if ns.invariants is not None:
        params["invariants"] = ns.invariants
    return results, files, params, pretty


def cmd_koszul_invariants(ns) -> Handler:
    algebra, digest = _parse_lie_file(ns.algebra)
    kos = build_koszul(algebra)
    autos, idigest = _automorphisms_from_file(algebra, ns.matrices)
    inv = invariant_subcomplex(kos, autos)
    betti = kos.betti()
    results = {
        "dim": algebra.dim,
        "betti": list(betti),
        "subspace_dims": list(inv.subspace_dims),
        "invariant_betti": list(inv.invariant_betti),
        "fixed_cohomology_dims": list(inv.fixed_cohomology_dims),
        "dims_agree": list(inv.invariant_betti) == list(inv.fixed_cohomology_dims),
    }
    files = {
        "algebra": _digest_entry(ns.algebra, digest),
        "matrices": _digest_entry(ns.matrices, idigest),
    }
    pretty = [
        "betti numbers: " + " ".join(str(b) for b in betti),
        "invariant subcomplex dimensions: " + " ".join(str(x) for x in inv.subspace_dims),
        "invariant betti numbers: " + " ".join(str(b) for b in inv.invariant_betti),
        "fixed subspaces of the cohomology action: "
        + " ".join(str(x) for x in inv.fixed_cohomology_dims),
        "cohomology of invariants matches invariants of cohomology: "
        + ("yes" if results["dims_agree"] else "no"),
    ]
    return results, files, {}, pretty


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="human readable output")
    common.add_argument("--seed", type=int, default=None, help="echoed into the report")
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
    p.set_defaults(handler=cmd_pell)

    p = sub.add_parser(
        "gamma-epsilon", parents=[common], help="emit the Pell family group description"
    )
    p.add_argument("d", type=int)
    p.set_defaults(handler=cmd_gamma_epsilon)

    p = sub.add_parser(
        "derivations", parents=[common], help="basis of the derivation lattice of a group spec"
    )
    p.add_argument("spec")
    p.set_defaults(handler=cmd_derivations)

    p = sub.add_parser(
        "h1", parents=[common], help="first cohomology (cocycles modulo coboundaries)"
    )
    p.add_argument("spec")
    p.set_defaults(handler=cmd_h1)

    p = sub.add_parser(
        "der-action", parents=[common], help="conjugation action of an element on derivations"
    )
    p.add_argument("spec")
    p.add_argument("--element", required=True, help='word such as "A" or "A t A^-1"')
    p.set_defaults(handler=cmd_der_action)

    p = sub.add_parser(
        "equivariant-units",
        parents=[common],
        help="equivariant unimodular matrices within an entry bound",
    )
    p.add_argument("spec")
    p.add_argument("--bound", type=int, default=10)
    p.set_defaults(handler=cmd_equivariant_units)

    p = sub.add_parser(
        "jordan", parents=[common], help="multiplicative Jordan decomposition of a rational matrix"
    )
    p.add_argument("matrix")
    p.set_defaults(handler=cmd_jordan)

    p = sub.add_parser(
        "arith-check",
        parents=[common],
        help="necessary-condition classification of an integer matrix",
    )
    p.add_argument("matrix")
    p.set_defaults(handler=cmd_arith_check)

    p = sub.add_parser(
        "teob", parents=[common], help="full non-arithmeticity report for a Pell parameter"
    )
    p.add_argument("d", type=int)
    p.set_defaults(handler=cmd_teob)

    p = sub.add_parser(
        "lie-cohomology", parents=[common], help="Betti numbers and actions for a Lie algebra"
    )
    p.add_argument("algebra")
    p.add_argument("--automorphism", default=None, help="matrices file; composed left to right")
    p.add_argument("--invariants", default=None, help="matrices file of commuting semisimple maps")
    p.set_defaults(handler=cmd_lie_cohomology)

    p = sub.add_parser(
        "koszul-invariants",
        parents=[common],
        help="invariant subcomplex cohomology against fixed subspaces",
    )
    p.add_argument("algebra")
    p.add_argument("matrices")
    p.set_defaults(handler=cmd_koszul_invariants)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        results, files, params, pretty = ns.handler(ns)
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
        traceback.print_exc()
        return 3

    if ns.seed is not None:
        params["seed"] = ns.seed
    report = {
        "command": ns.command,
        "inputs": {"files": files, "parameters": params},
        "results": results,
        "version": __version__,
    }
    if ns.timestamps:
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    if ns.pretty:
        print("\n".join(pretty))
    else:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
