"""JSON document formats for the command line tool.

All rationals travel as canonical strings "p" or "p/q" (lowest terms,
positive denominator); floats are rejected outright, including inside
the JSON parser itself.  Parse errors carry a JSON pointer to the
offending field so hand-written documents fail with a usable message.

Validation here is structural only, but for a Lie algebra ``dim`` over
the dimension cap, refused before the algebra is built.  Mathematical
preconditions (say a determinant condition or the Jacobi identity) are
checked by the library types the parsed documents are fed into.

At import this module loads only :mod:`polyarith.matrix`: each parser of
a presentation, action, word or Lie algebra imports the type it builds
when it runs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .errors import SchemaError
from .matrix import Matrix, Scalar

if TYPE_CHECKING:
    from .lie import LieAlgebra
    from .polynomials import Poly
    from .presentations import ModuleAction, Presentation, Word

_SCALAR_RE = re.compile(r"^-?\d+(/\d+)?$")
_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


def render_scalar(x: Scalar) -> str:
    if type(x) is int:
        return str(x)
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def scalar_to_json(x: Scalar):
    """Integers as JSON numbers, everything else as a canonical string."""
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else render_scalar(f)


def _canonical_int(obj) -> Optional[int]:
    """A JSON integer as it is, and a string that is the canonical form of
    an integer as that integer: the fast path of :func:`parse_scalar`,
    which needs neither the pattern nor a pointer.  None for anything
    else."""
    if type(obj) is int:
        return obj
    if type(obj) is str:
        try:
            value = int(obj)
        except ValueError:
            return None
        if str(value) == obj:
            return value
    return None


def parse_scalar(obj, path: str) -> Scalar:
    value = _canonical_int(obj)
    if value is not None:
        return value
    if isinstance(obj, bool):
        raise SchemaError(path, "expected a rational, got a boolean")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        raise SchemaError(path, "floating point numbers are not accepted")
    if not isinstance(obj, str):
        raise SchemaError(path, f"expected a rational, got {type(obj).__name__}")
    if not _SCALAR_RE.match(obj):
        raise SchemaError(path, f"malformed rational string {obj!r}")
    num_s, _, den_s = obj.partition("/")
    if den_s == "0":
        raise SchemaError(path, "zero denominator")
    value = Fraction(int(num_s), int(den_s)) if den_s else int(num_s)
    if obj != render_scalar(value):
        raise SchemaError(path, f"rational {obj!r} is not in canonical form")
    # a canonical "p/q" has q > 1
    return value


def parse_int(obj, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(path, f"expected an integer, got {type(obj).__name__}")
    if minimum is not None and obj < minimum:
        raise SchemaError(path, f"expected an integer >= {minimum}, got {obj}")
    return obj


def _require_keys(obj, path: str, required: Sequence[str], optional: Sequence[str] = ()):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise SchemaError(path, f"missing required field {key!r}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}/{key}", "unknown field")


def _require_list(obj, path: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(path, f"expected an array, got {type(obj).__name__}")
    return obj


# ---------------------------------------------------------------------------
# matrices


def matrix_to_json(m: Matrix) -> dict:
    return {
        "rows": m.nrows,
        "cols": m.ncols,
        "entries": [[render_scalar(x) for x in row] for row in m.entries],
    }


def parse_matrix(obj, path: str) -> Matrix:
    _require_keys(obj, path, ("rows", "cols", "entries"))
    nrows = parse_int(obj["rows"], f"{path}/rows", minimum=0)
    ncols = parse_int(obj["cols"], f"{path}/cols", minimum=0)
    entries = _require_list(obj["entries"], f"{path}/entries")
    if len(entries) != nrows:
        raise SchemaError(f"{path}/entries", f"expected {nrows} rows, got {len(entries)}")
    rows = []
    for i, row in enumerate(entries):
        row = _require_list(row, f"{path}/entries/{i}")
        if len(row) != ncols:
            raise SchemaError(f"{path}/entries/{i}", f"expected {ncols} entries, got {len(row)}")
        rows.append([
            v if (v := _canonical_int(x)) is not None else parse_scalar(x, f"{path}/entries/{i}/{j}")
            for j, x in enumerate(row)
        ])
    return Matrix(rows, ncols=ncols)


def parse_matrices_list(obj, path: str) -> List[Matrix]:
    _require_keys(obj, path, ("matrices",))
    items = _require_list(obj["matrices"], f"{path}/matrices")
    return [parse_matrix(m, f"{path}/matrices/{i}") for i, m in enumerate(items)]


# ---------------------------------------------------------------------------
# presentations and actions


def word_to_json(w: Word, pres: Presentation) -> list:
    return [[pres.generators[idx], exp] for idx, exp in w]


def parse_word(obj, path: str, pres: Presentation) -> Word:
    from .presentations import make_word

    items = _require_list(obj, path)
    pairs = []
    for i, letter in enumerate(items):
        letter = _require_list(letter, f"{path}/{i}")
        if len(letter) != 2:
            raise SchemaError(f"{path}/{i}", "a letter is a [name, exponent] pair")
        name, exp = letter
        if not isinstance(name, str) or name not in pres.generators:
            raise SchemaError(f"{path}/{i}/0", f"unknown generator {name!r}")
        exp = parse_int(exp, f"{path}/{i}/1")
        if exp == 0:
            raise SchemaError(f"{path}/{i}/1", "letter exponent must be nonzero")
        pairs.append((pres.generator_index(name), exp))
    return make_word(pairs)


def presentation_to_json(pres: Presentation) -> dict:
    return {
        "generators": list(pres.generators),
        "relators": [word_to_json(w, pres) for w in pres.relators],
    }


def parse_presentation(obj, path: str) -> Presentation:
    from .presentations import Presentation

    _require_keys(obj, path, ("generators", "relators"))
    gens = _require_list(obj["generators"], f"{path}/generators")
    names = []
    for i, name in enumerate(gens):
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise SchemaError(f"{path}/generators/{i}", f"bad generator name {name!r}")
        if name in names:
            raise SchemaError(f"{path}/generators/{i}", f"duplicate generator name {name!r}")
        names.append(name)
    skeleton = Presentation(tuple(names), ())
    relators = _require_list(obj["relators"], f"{path}/relators")
    words = tuple(
        parse_word(w, f"{path}/relators/{i}", skeleton) for i, w in enumerate(relators)
    )
    return Presentation(tuple(names), words)


def action_to_json(action: ModuleAction, pres: Presentation) -> dict:
    return {
        "rank": action.rank,
        "matrices": {
            name: matrix_to_json(action.matrices[i]) for i, name in enumerate(pres.generators)
        },
    }


def parse_action(obj, path: str, pres: Presentation) -> ModuleAction:
    from .presentations import ModuleAction

    _require_keys(obj, path, ("rank", "matrices"))
    rank = parse_int(obj["rank"], f"{path}/rank", minimum=0)
    mats = obj["matrices"]
    if not isinstance(mats, dict):
        raise SchemaError(f"{path}/matrices", "expected an object keyed by generator name")
    for name in pres.generators:
        if name not in mats:
            raise SchemaError(f"{path}/matrices", f"missing matrix for generator {name!r}")
    for name in mats:
        if name not in pres.generators:
            raise SchemaError(f"{path}/matrices/{name}", "unknown generator")
    matrices = tuple(
        parse_matrix(mats[name], f"{path}/matrices/{name}") for name in pres.generators
    )
    return ModuleAction(rank, matrices)


ENGINE_TAGS = ("dihedral", "free_abelian")


@dataclass(frozen=True)
class GroupDocument:
    """Parsed form of a semidirect product description file."""

    presentation: Presentation
    action: ModuleAction
    engine: Optional[str]
    metadata: Dict[str, object]


def group_document_to_json(doc: GroupDocument) -> dict:
    out = dict(doc.metadata)
    out["presentation"] = presentation_to_json(doc.presentation)
    out["action"] = action_to_json(doc.action, doc.presentation)
    if doc.engine is not None:
        out["engine"] = doc.engine
    return out


def parse_group_document(obj, path: str = "") -> GroupDocument:
    _require_keys(
        obj, path, ("presentation", "action"), optional=("engine", "d", "epsilon")
    )
    pres = parse_presentation(obj["presentation"], f"{path}/presentation")
    action = parse_action(obj["action"], f"{path}/action", pres)
    engine = None
    if "engine" in obj:
        engine = obj["engine"]
        if engine not in ENGINE_TAGS:
            raise SchemaError(
                f"{path}/engine", f"unknown engine {engine!r}; expected one of {ENGINE_TAGS}"
            )
    metadata: Dict[str, object] = {}
    if "d" in obj:
        metadata["d"] = parse_int(obj["d"], f"{path}/d")
    if "epsilon" in obj:
        eps = obj["epsilon"]
        _require_keys(eps, f"{path}/epsilon", ("a", "b", "d"))
        metadata["epsilon"] = {
            key: parse_int(eps[key], f"{path}/epsilon/{key}") for key in ("a", "b", "d")
        }
    return GroupDocument(pres, action, engine, metadata)


# ---------------------------------------------------------------------------
# Lie algebras


def lie_algebra_to_json(algebra: LieAlgebra) -> dict:
    brackets = []
    for (i, j), terms in algebra.bracket_table():
        for k, c in terms:
            brackets.append({"i": i + 1, "j": j + 1, "k": k + 1, "c": render_scalar(c)})
    return {"dim": algebra.dim, "brackets": brackets}


def parse_lie_algebra(obj, path: str = "") -> LieAlgebra:
    from .lie import LieAlgebra, _check_dimension

    _require_keys(obj, path, ("dim", "brackets"))
    dim = parse_int(obj["dim"], f"{path}/dim", minimum=0)
    items = _require_list(obj["brackets"], f"{path}/brackets")
    table: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for t, entry in enumerate(items):
        here = f"{path}/brackets/{t}"
        _require_keys(entry, here, ("i", "j", "k", "c"))
        i = parse_int(entry["i"], f"{here}/i", minimum=1)
        j = parse_int(entry["j"], f"{here}/j", minimum=1)
        k = parse_int(entry["k"], f"{here}/k", minimum=1)
        if not (i < j <= dim and k <= dim):
            raise SchemaError(here, "indices must satisfy 1 <= i < j <= dim and k <= dim")
        c = parse_scalar(entry["c"], f"{here}/c")
        slot = table.setdefault((i - 1, j - 1), {})
        if k - 1 in slot:
            raise SchemaError(here, f"duplicate bracket component ({i}, {j}) -> {k}")
        slot[k - 1] = c
    _check_dimension(dim)
    return LieAlgebra(dim, table)


# ---------------------------------------------------------------------------
# small output helpers


def poly_to_json(p: Poly) -> dict:
    return {"coefficients": [scalar_to_json(c) for c in p.coeffs], "text": str(p)}


def vector_to_json(v: Sequence[Scalar]) -> list:
    return [scalar_to_json(x) for x in v]


def parse_element_text(text: str, pres: Presentation, path: str) -> Word:
    """Words typed on the command line: whitespace separated tokens
    ``name`` or ``name^exponent``, for example "A t A^-1"."""
    from .presentations import make_word

    pairs = []
    for token in text.split():
        name, _, exp_s = token.partition("^")
        if name not in pres.generators:
            raise SchemaError(path, f"unknown generator {name!r} in element word")
        if exp_s:
            try:
                exp = int(exp_s)
            except ValueError:
                raise SchemaError(path, f"bad exponent {exp_s!r} in element word") from None
            if exp == 0:
                raise SchemaError(path, "zero exponent in element word")
        else:
            exp = 1
        pairs.append((pres.generator_index(name), exp))
    return make_word(pairs)


def _reject_float(_: str):
    raise SchemaError("", "floating point numbers are not accepted")


def loads_document(text: str):
    try:
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as e:
        raise SchemaError("", f"invalid JSON: {e}") from None


def load_document(filename: str) -> Tuple[object, str]:
    """Parse a JSON file and return (document, sha256 hex of the bytes)."""
    import hashlib

    try:
        with open(filename, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise SchemaError("", f"cannot read {filename}: {e.strerror}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise SchemaError("", f"{filename} is not valid UTF-8") from None
    return loads_document(text), digest
