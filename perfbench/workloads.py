"""Seeded job decks for the benchmark workloads.

A deck is the list of polyarith jobs one run cycles through.  Every job
is drawn from a finite pool: a *slot* fixes the shape of the input (the
stratum of a Pell unit, the lattice matrix, the Lie algebra family) and
a *variant* index fixes the seeded details inside that shape (which d,
which sign change of basis, which basis relabelling and torus).  The
run seed only picks variants, so every run of a workload has the same
composition of slots and therefore nearly the same cost, while the
inputs change from seed to seed.  The expected ``results`` of every
pool entry are stored in ``expected/<workload>.json``; they were
computed once with the program and cross-checked independently by
``gen_expected.py``.

This module is standard library only and never imports polyarith:
the program receives nothing but the files and argv built here.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt
from typing import Dict, List, Tuple

WORKLOADS = ("pell_sweep", "lattice_h1", "koszul_betti", "koszul_action")

KOSZUL_VARIANTS = 8  # pool entries per slot of the two Lie algebra workloads

Brackets = Dict[Tuple[int, int], Dict[int, int]]


class Job:
    """One ``polyarith`` invocation: argv with ``{name}`` placeholders for
    the input files, and the documents to write for those names."""

    def __init__(self, key: str, argv: List[str], files: Dict[str, object]):
        self.key = key
        self.argv = argv
        self.files = files

    def file_bytes(self) -> Dict[str, bytes]:
        return {name: dump_document(doc) for name, doc in self.files.items()}


def dump_document(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


# ---------------------------------------------------------------------------
# pell_sweep: teob d, stratified by the bit length of the Pell unit

PELL_RANGE = (2, 1000)
# Bit-length strata of the fundamental unit x + y sqrt(d), each holding at
# least 25 values of d; together they cover every unit from 2 bits (d = 3)
# to 124 bits (d = 661).
PELL_STRATA = ((2, 4), (5, 6), (7, 9), (10, 14), (15, 20), (21, 28), (29, 44), (45, 124))
PELL_PER_STRATUM = 16


def pell_unit(d: int) -> Tuple[int, int]:
    """Least x, y > 0 with x^2 - d y^2 = 1, by the continued fraction of sqrt(d)."""
    a0 = isqrt(d)
    m, q, a = 0, 1, a0
    p_prev, p = 1, a0
    y_prev, y = 0, 1
    while p * p - d * y * y != 1:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        p_prev, p = p, a * p + p_prev
        y_prev, y = y, a * y + y_prev
    return p, y


def pell_pool() -> Dict[int, List[int]]:
    """Nonsquare d in PELL_RANGE grouped by stratum index."""
    pool: Dict[int, List[int]] = {s: [] for s in range(len(PELL_STRATA))}
    for d in range(PELL_RANGE[0], PELL_RANGE[1] + 1):
        if isqrt(d) ** 2 == d:
            continue
        bits = pell_unit(d)[0].bit_length()
        for s, (lo, hi) in enumerate(PELL_STRATA):
            if lo <= bits <= hi:
                pool[s].append(d)
    return pool


def pell_job(d: int) -> Job:
    return Job(f"teob/{d}", ["teob", str(d)], {})


def pell_deck(seed: int) -> List[Job]:
    rng = _rng("pell_sweep", seed)
    picks = [rng.sample(ds, PELL_PER_STRATUM) for ds in pell_pool().values()]
    # round robin over strata, so any prefix of the deck is balanced
    return [pell_job(column[i]) for i in range(PELL_PER_STRATUM) for column in picks]


# ---------------------------------------------------------------------------
# lattice_h1: h1 and der-action on free abelian groups acting on Z^n

# (n, k): Z^k acting on Z^n.  A pass runs h1 and der-action on each of the
# LATTICE_MATRICES seeded matrices M of every slot, after a change of basis
# by a sign matrix D (M -> DMD) that the run seed picks from LATTICE_SIGNS.
# The cost of a k = 2 slot at n = 10 or 12 varies fourfold from one M to
# the next with its coefficient growth, and hardly at all with D; so every
# pass keeps the same matrices and the seed varies only D.
LATTICE_SLOTS = ((6, 1), (7, 2), (8, 1), (9, 2), (10, 1), (10, 2), (12, 1), (12, 2))
LATTICE_MATRICES = 8
LATTICE_SIGNS = 8


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _matrix_doc(rows) -> dict:
    return {
        "rows": len(rows),
        "cols": len(rows[0]) if rows else 0,
        "entries": [[_render(x) for x in row] for row in rows],
    }


def _render(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def lattice_matrix(n: int, rng: random.Random):
    """Seeded product of 3n to 4n elementary matrices with multipliers +-1, +-2.

    Operation t adds a multiple of a random other row to row t mod n, so
    every row is changed three or four times.
    """
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(rng.randint(3 * n, 4 * n)):
        i = t % n
        j = rng.choice([x for x in range(n) if x != i])
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def lattice_document(n: int, k: int, variant: int, signs: int) -> dict:
    m = lattice_matrix(n, _rng("lattice_h1", n, k, variant))
    rng = _rng("lattice_h1", n, k, variant, "signs", signs)
    d = [rng.choice((-1, 1)) for _ in range(n)]
    m = [[d[i] * x * d[j] for j, x in enumerate(row)] for i, row in enumerate(m)]
    mats = [m, _matmul(m, m)][:k]
    names = [f"g{i + 1}" for i in range(k)]
    relators = [
        [[names[i], 1], [names[j], 1], [names[i], -1], [names[j], -1]]
        for i, j in combinations(range(k), 2)
    ]
    return {
        "presentation": {"generators": names, "relators": relators},
        "action": {"rank": n, "matrices": {nm: _matrix_doc(x) for nm, x in zip(names, mats)}},
        "engine": "free_abelian",
    }


def lattice_jobs(n: int, k: int, variant: int, signs: int) -> List[Job]:
    doc = {"spec": lattice_document(n, k, variant, signs)}
    stem = f"n{n}k{k}/v{variant}s{signs}"
    return [
        Job(f"h1/{stem}", ["h1", "{spec}"], doc),
        Job(f"der-action/{stem}", ["der-action", "{spec}", "--element", "g1"], doc),
    ]


def lattice_deck(seed: int) -> List[Job]:
    rng = _rng("lattice_h1", seed)
    return [
        job
        for v in range(LATTICE_MATRICES)
        for n, k in LATTICE_SLOTS
        for job in lattice_jobs(n, k, v, rng.randrange(LATTICE_SIGNS))
    ]


# ---------------------------------------------------------------------------
# Lie algebras (0-based structure constants, [e_i, e_j] = sum c e_k, i < j)


def filiform(n: int) -> Tuple[int, Brackets]:
    return n, {(0, i): {i + 1: 1} for i in range(1, n - 1)}


def heisenberg(pairs: int) -> Tuple[int, Brackets]:
    dim = 2 * pairs + 1
    return dim, {(2 * i, 2 * i + 1): {dim - 1: 1} for i in range(pairs)}


def abelian(n: int) -> Tuple[int, Brackets]:
    return n, {}


def free_two_step(g: int) -> Tuple[int, Brackets]:
    pairs = list(combinations(range(g), 2))
    return g + len(pairs), {(i, j): {g + t: 1} for t, (i, j) in enumerate(pairs)}


def strictly_upper(size: int) -> Tuple[int, Brackets]:
    slots = list(combinations(range(size), 2))
    index = {s: t for t, s in enumerate(slots)}
    out: Brackets = {}
    for p, (i, j) in enumerate(slots):
        for q, (k, l) in enumerate(slots):
            if p >= q:
                continue
            comps: Dict[int, int] = {}
            if j == k:
                comps[index[(i, l)]] = comps.get(index[(i, l)], 0) + 1
            if l == i:
                comps[index[(k, j)]] = comps.get(index[(k, j)], 0) - 1
            comps = {t: c for t, c in comps.items() if c}
            if comps:
                out[(p, q)] = comps
    return len(slots), out


def direct_sum(*parts: Tuple[int, Brackets]) -> Tuple[int, Brackets]:
    dim, out = 0, {}
    for n, br in parts:
        for (i, j), comps in br.items():
            out[(i + dim, j + dim)] = {k + dim: c for k, c in comps.items()}
        dim += n
    return dim, out


def relabelling(n: int, rng: random.Random) -> Tuple[List[int], List[int]]:
    """A seeded permutation tau and signs for relabel()."""
    tau = list(range(n))
    rng.shuffle(tau)
    return tau, [rng.choice((-1, 1)) for _ in range(n)]


def relabel(algebra: Tuple[int, Brackets], tau: List[int], sign: List[int]) -> Tuple[int, Brackets]:
    """The same algebra on the basis f_tau(i) = sign_i e_i."""
    n, br = algebra
    out: Brackets = {}
    for (i, j), comps in br.items():
        a, b, s = tau[i], tau[j], sign[i] * sign[j]
        if a > b:
            a, b, s = b, a, -s
        out[(a, b)] = {tau[k]: s * sign[k] * c for k, c in comps.items()}
    return n, out


def algebra_document(algebra: Tuple[int, Brackets]) -> dict:
    n, br = algebra
    brackets = [
        {"i": i + 1, "j": j + 1, "k": k + 1, "c": _render(c)}
        for (i, j) in sorted(br)
        for k, c in sorted(br[(i, j)].items())
    ]
    return {"dim": n, "brackets": brackets}


# ---------------------------------------------------------------------------
# koszul_betti: lie-cohomology without an automorphism, dimension 8 to 10

# Each pass runs `copies` relabellings of each algebra.  free_two_step(4)
# and strictly_upper(5) (dimension 10) are left out: one job of either
# takes 6 to 8 s on a 2-vCPU Xeon, longer than a third of a run.  abelian_9 fills the two
# middle places of the eight by cost, well apart from its neighbours, so
# the median latency falls inside one algebra's cluster and rests on twice
# the samples.
BETTI_SLOTS = {
    "heisenberg_5+abelian_3": (lambda: direct_sum(heisenberg(2), abelian(3)), 1),
    "filiform_8": (lambda: filiform(8), 1),
    "filiform_5+heisenberg_3": (lambda: direct_sum(filiform(5), heisenberg(1)), 1),
    "abelian_9": (lambda: abelian(9), 2),
    "free_two_step_6+heisenberg_3": (lambda: direct_sum(free_two_step(3), heisenberg(1)), 1),
    "heisenberg_9": (lambda: heisenberg(4), 1),
    "heisenberg_3+heisenberg_7": (lambda: direct_sum(heisenberg(1), heisenberg(3)), 1),
}


def betti_job(slot: str, variant: int) -> Job:
    base = BETTI_SLOTS[slot][0]()
    algebra = relabel(base, *relabelling(base[0], _rng("koszul_betti", slot, variant)))
    return Job(
        f"lie-cohomology/{slot}/v{variant}",
        ["lie-cohomology", "{algebra}"],
        {"algebra": algebra_document(algebra)},
    )


def betti_deck(seed: int) -> List[Job]:
    rng = _rng("koszul_betti", seed)
    return [
        betti_job(slot, v)
        for slot, (_, copies) in BETTI_SLOTS.items()
        for v in rng.sample(range(KOSZUL_VARIANTS), copies)
    ]


# ---------------------------------------------------------------------------
# koszul_action: torus invariants and inner automorphism actions, dimension 6 to 8


def _rational_kernel(rows: List[List[int]], ncols: int) -> List[List[Fraction]]:
    """Basis of {x : rows x = 0} over Q by Gauss-Jordan elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                g = a[i][c]
                a[i] = [x - g * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -a[i][f]
        basis.append(v)
    return basis


def torus_weights(algebra: Tuple[int, Brackets]) -> List[List[int]]:
    """Integer basis of the weights w with w_i + w_j = w_k whenever c_ij^k != 0."""
    n, br = algebra
    rows = []
    for (i, j), comps in br.items():
        for k in comps:
            row = [0] * n
            row[i] += 1
            row[j] += 1
            row[k] -= 1
            rows.append(row)
    out = []
    for v in _rational_kernel(rows, n):
        den = 1
        for x in v:
            den = den * x.denominator // gcd(den, x.denominator)
        out.append([int(x * den) for x in v])
    return out


def torus_matrices(algebra: Tuple[int, Brackets], tau: List[int]) -> List[List[List[Fraction]]]:
    """Two commuting diagonal automorphisms 2^w and 3^v of relabel(algebra, tau, ...).

    w and v are the sum and the alternating sum of the weight basis of the
    algebra before relabelling, so every relabelling of one algebra gets
    the same torus and the same invariant subcomplex.  Seeded weights would
    change the size of that subcomplex, and with it the cost of a job.
    """
    n = algebra[0]
    basis = torus_weights(algebra)
    mats = []
    for base, signs in ((2, [1] * len(basis)), (3, [(-1) ** t for t in range(len(basis))])):
        w = [sum(c * b[i] for c, b in zip(signs, basis)) for i in range(n)]
        diag = [Fraction(0)] * n
        for i in range(n):
            diag[tau[i]] = Fraction(base) ** w[i]
        mats.append([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return mats


def ad_matrix(algebra: Tuple[int, Brackets], x: List[int]) -> List[List[int]]:
    """Matrix of ad x, column j holding [x, e_j]."""
    n, br = algebra
    m = [[0] * n for _ in range(n)]
    for (i, j), comps in br.items():
        for k, c in comps.items():
            m[k][j] += x[i] * c  # [x_i e_i, e_j]
            m[k][i] -= x[j] * c  # [x_j e_j, e_i]
    return m


def inner_matrix(algebra: Tuple[int, Brackets], rng: random.Random) -> List[List[Fraction]]:
    """exp(ad x) for a seeded x with every coordinate -1 or 1.

    Coordinates of size 2 would make the cost of a job swing with how many
    of them a seed draws.
    """
    n = algebra[0]
    x = [rng.choice((-1, 1)) for _ in range(n)]
    ad = [[Fraction(v) for v in row] for row in ad_matrix(algebra, x)]
    acc = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    term = [row[:] for row in acc]
    for k in range(1, n + 1):
        term = [[v / k for v in row] for row in _matmul(term, ad)]
        if not any(any(row) for row in term):
            break
        acc = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(acc, term)]
    return acc


# One job of each slot per pass.  Tori on dimension 8 are left out: one
# koszul-invariants job there takes 5 to 7 s on a 2-vCPU Xeon.  As in koszul_betti, the
# slot count is odd and the middle slot by cost (the torus on
# free_two_step_6) costs well apart from its neighbours, so the median
# latency falls inside one slot's cluster.
ACTION_SLOTS = {
    "inner/heisenberg_3+heisenberg_3": (lambda: direct_sum(heisenberg(1), heisenberg(1)), "inner"),
    "inner/heisenberg_5+line": (lambda: direct_sum(heisenberg(2), abelian(1)), "inner"),
    "torus/free_two_step_6": (lambda: free_two_step(3), "torus"),
    "inner/filiform_6": (lambda: filiform(6), "inner"),
    "torus/filiform_7": (lambda: filiform(7), "torus"),
    "inner/heisenberg_7": (lambda: heisenberg(3), "inner"),
    "inner/heisenberg_3+heisenberg_5": (lambda: direct_sum(heisenberg(1), heisenberg(2)), "inner"),
}


def action_job(slot: str, variant: int) -> Job:
    make, kind = ACTION_SLOTS[slot]
    rng = _rng("koszul_action", slot, variant)
    base = make()
    tau, sign = relabelling(base[0], rng)
    algebra = relabel(base, tau, sign)
    files: Dict[str, object] = {"algebra": algebra_document(algebra)}
    if kind == "torus":
        files["tori"] = {"matrices": [_matrix_doc(m) for m in torus_matrices(base, tau)]}
        argv = ["koszul-invariants", "{algebra}", "{tori}"]
    else:
        files["inner"] = {"matrices": [_matrix_doc(inner_matrix(algebra, rng))]}
        argv = ["lie-cohomology", "{algebra}", "--automorphism", "{inner}"]
    return Job(f"{argv[0]}/{slot}/v{variant}", argv, files)


def action_deck(seed: int) -> List[Job]:
    rng = _rng("koszul_action", seed)
    return [action_job(slot, rng.randrange(KOSZUL_VARIANTS)) for slot in ACTION_SLOTS]


DECKS = {
    "pell_sweep": pell_deck,
    "lattice_h1": lattice_deck,
    "koszul_betti": betti_deck,
    "koszul_action": action_deck,
}


def pool(workload: str) -> List[Job]:
    """Every job a seed can draw for the workload."""
    if workload == "pell_sweep":
        return [pell_job(d) for ds in pell_pool().values() for d in ds]
    if workload == "lattice_h1":
        return [
            job
            for n, k in LATTICE_SLOTS
            for v in range(LATTICE_MATRICES)
            for signs in range(LATTICE_SIGNS)
            for job in lattice_jobs(n, k, v, signs)
        ]
    if workload == "koszul_betti":
        return [betti_job(slot, v) for slot in BETTI_SLOTS for v in range(KOSZUL_VARIANTS)]
    return [action_job(slot, v) for slot in ACTION_SLOTS for v in range(KOSZUL_VARIANTS)]
