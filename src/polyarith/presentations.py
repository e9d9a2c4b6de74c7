"""Finitely presented groups, words, and integer matrix actions.

A word is a tuple of letters ``(generator_index, exponent)`` with
exponent +1 or -1.  Matrix actions are by unimodular integer matrices
on column vectors, so a word acts by the ordered product of its
letters' matrices.

Normal form engines are provided for the two group families the rest
of the package needs: the infinite dihedral group and free abelian
groups.  An engine has four members: the attributes ``presentation``
and ``identity``, ``normal_form(word)`` and ``to_word(form)``, with
``normal_form(to_word(form)) == form``.  Any object with these can be
plugged in instead.  ``SemidirectGroup`` derives the group law and the
matrix of a form from words: a product is the normal form of the
concatenated words, and a form acts by ``evaluate_word`` of its word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import mul
from typing import Iterable, Optional, Sequence, Tuple

from .errors import PreconditionError
from .matrix import Matrix

Letter = Tuple[int, int]
Word = Tuple[Letter, ...]


def make_word(pairs: Iterable[Tuple[int, int]]) -> Word:
    """Expand ``(index, exponent)`` pairs with arbitrary exponents into letters."""
    out = []
    for idx, exp in pairs:
        if exp == 0:
            continue
        step = 1 if exp > 0 else -1
        out.extend((idx, step) for _ in range(abs(exp)))
    return tuple(out)


def invert_word(w: Word) -> Word:
    return tuple((i, -e) for i, e in reversed(w))


def concat_words(*ws: Word) -> Word:
    out = []
    for w in ws:
        out.extend(w)
    return tuple(out)


@dataclass(frozen=True)
class Presentation:
    generators: Tuple[str, ...]
    relators: Tuple[Word, ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise PreconditionError("generator names must be distinct")
        for name in self.generators:
            if not name or not isinstance(name, str):
                raise PreconditionError("generator names must be nonempty strings")
        for w in self.relators:
            for idx, exp in w:
                if not 0 <= idx < len(self.generators):
                    raise PreconditionError(f"letter index {idx} out of range")
                if exp not in (1, -1):
                    raise PreconditionError("letters must carry exponent +1 or -1")

    def generator_index(self, name: str) -> int:
        try:
            return self.generators.index(name)
        except ValueError:
            raise PreconditionError(f"unknown generator {name!r}") from None

    def word(self, pairs: Iterable[Tuple[str, int]]) -> Word:
        return make_word((self.generator_index(n), e) for n, e in pairs)


def dihedral_presentation() -> Presentation:
    """Infinite dihedral group on a translation A and a reflection t."""
    a, t = (0, 1), (1, 1)
    return Presentation(("A", "t"), ((t, t), (a, t, a, t)))


def free_abelian_presentation(rank: int, names: Optional[Sequence[str]] = None) -> Presentation:
    if names is None:
        names = tuple(f"g{i + 1}" for i in range(rank))
    rels = []
    for i in range(rank):
        for j in range(i + 1, rank):
            rels.append(((i, 1), (j, 1), (i, -1), (j, -1)))
    return Presentation(tuple(names), tuple(rels))


@dataclass(frozen=True)
class ModuleAction:
    """One unimodular integer matrix per generator, acting on Z^rank."""

    rank: int
    matrices: Tuple[Matrix, ...]

    def __post_init__(self):
        for m in self.matrices:
            if m.nrows != self.rank or m.ncols != self.rank:
                raise PreconditionError("action matrices must be rank x rank")
            if not m.is_integral():
                raise PreconditionError("action matrices must be integral")
            if m.det() not in (1, -1):
                raise PreconditionError("action matrices must have determinant +-1")

    @cached_property
    def _inverses(self) -> Tuple[Matrix, ...]:
        return tuple(m.inverse() for m in self.matrices)

    def letter_matrix(self, idx: int, exp: int) -> Matrix:
        return self.matrices[idx] if exp == 1 else self._inverses[idx]


def evaluate_word(action: ModuleAction, w: Word) -> Matrix:
    """Ordered product of the letters' matrices (left action on columns),
    the identity for the empty word."""
    letters = [action.letter_matrix(idx, exp) for idx, exp in w]
    return reduce(mul, letters) if letters else Matrix.identity(action.rank)


def validate_action(pres: Presentation, action: ModuleAction) -> Optional[Word]:
    """None if every relator acts trivially, else the first violated relator."""
    if len(action.matrices) != len(pres.generators):
        raise PreconditionError("one matrix per generator required")
    for w in pres.relators:
        if not evaluate_word(action, w).is_identity():
            return w
    return None


def _refuse_relator(bad: Optional[Word]) -> None:
    """The relator rule: ``bad``, a relator that does not act trivially, is refused."""
    if bad is not None:
        raise PreconditionError(f"relator {bad} does not act trivially")


def checked_action(pres: Presentation, matrices: Sequence[Matrix], rank: int) -> ModuleAction:
    action = ModuleAction(rank, tuple(matrices))
    _refuse_relator(validate_action(pres, action))
    return action


# ---------------------------------------------------------------------------
# normal form engines


class DihedralEngine:
    """Normal forms for the infinite dihedral group <A, t | t^2, (A t)^2>."""

    def __init__(self):
        self.presentation = dihedral_presentation()
        self.identity = (0, 0)

    def normal_form(self, w: Word) -> Tuple[int, int]:
        """Normal form (k, t) for A^k t^t: t A = A^-1 t moves each t to the right."""
        k, t = 0, 0
        for idx, exp in w:
            if idx == 0:
                k += exp if t == 0 else -exp
            elif idx == 1:
                t ^= 1
            else:
                raise PreconditionError("dihedral words use generators 0 and 1 only")
        return k, t

    def to_word(self, a) -> Word:
        k, t = a
        w = make_word([(0, k)])
        return w + ((1, 1),) if t else w


class FreeAbelianEngine:
    """Normal forms (exponent vectors) for Z^rank."""

    def __init__(self, rank: int, names: Optional[Sequence[str]] = None):
        self.rank = rank
        self.presentation = free_abelian_presentation(rank, names)
        self.identity = (0,) * rank

    def normal_form(self, w: Word):
        out = [0] * self.rank
        for idx, exp in w:
            out[idx] += exp
        return tuple(out)

    def to_word(self, a) -> Word:
        return make_word(list(enumerate(a)))


def _check_engine(pres: Presentation, engine) -> None:
    """Refuse an engine that does not fit the presentation: it must have the
    same number of generators, and each of its relators must be a relator
    of the presentation, as the same index word.  Otherwise the engine's
    normal forms would rewrite words the presentation does not identify."""
    want, have = len(engine.presentation.generators), len(pres.generators)
    if want != have:
        raise PreconditionError(f"the engine needs {want} generators, the presentation has {have}")
    relators = set(pres.relators)
    for w in engine.presentation.relators:
        if w not in relators:
            raise PreconditionError(f"engine relator {w} is not a relator of the presentation")
