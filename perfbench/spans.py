"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of each polyarith
module, and the methods of ``Matrix`` and ``KoszulComplex``, with
wrappers that time every call.  A module binds kernels by name (``from
.linalg import hnf``), so a function is replaced in every polyarith
module namespace that holds it.  ``Tracer.uninstall`` puts every
original back.  Nothing under ``src/`` is changed.

Each wrapped function records ``calls`` and ``self_ms``: the span
minus the spans of wrapped functions it called.  Kernels also record
input and output sizes; the time spent measuring sizes is charged to
no span.  ``<module>.errors`` counts exceptions that leave a module
through one of its wrapped functions.
"""

from __future__ import annotations

import importlib
import inspect
from fractions import Fraction
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

MODULES = (
    "cli",
    "jsonio",
    "arithmeticity",
    "semidirect",
    "cohomology",
    "presentations",
    "quadratic",
    "polynomials",
    "lie",
    "linalg",
)

OPERATORS = ("__add__", "__sub__", "__mul__", "__neg__", "__floordiv__", "__mod__", "__call__")


def entry_bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


def matrix_bits(m) -> int:
    return max((entry_bits(x) for row in m.entries for x in row), default=0)


def matrix_nnz(m) -> int:
    return sum(1 for row in m.entries for x in row if x != 0)


class Stat:
    __slots__ = ("calls", "self_ns", "extra")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.extra: Dict[str, float] = {}

    def keep_max(self, name: str, value: float):
        if value > self.extra.get(name, 0):
            self.extra[name] = value

    def add(self, name: str, value: float):
        self.extra[name] = self.extra.get(name, 0) + value


# --- size recorders: (tracer, stat, args, result, rank calls at entry) -------


def _size_matmul(tr, st, args, result, rank_before):
    a, b = args[0], args[1]
    st.keep_max("max_cols", max(a.ncols, getattr(b, "ncols", 0)))


def _size_rank(tr, st, args, result, rank_before):
    m = args[0]
    st.keep_max("max_rows", m.nrows)
    st.keep_max("max_cols", m.ncols)
    st.keep_max("nnz", matrix_nnz(m))


def _size_normal_form(tr, st, args, result, rank_before):
    m = args[0]
    st.keep_max("max_rows", m.nrows)
    st.keep_max("max_cols", m.ncols)
    st.keep_max("max_in_bits", matrix_bits(m))
    outs = result if isinstance(result, tuple) else (result.d, result.u, result.v)
    st.keep_max("max_out_bits", max(matrix_bits(x) for x in outs))


def _size_out_bits(tr, st, args, result, rank_before):
    st.keep_max("max_out_bits", matrix_bits(result))


def _size_coordinates(tr, st, args, result, rank_before):
    key = args[0].entries
    if key in tr.seen_bases:
        st.add("repeats", 1)
    else:
        tr.seen_bases.add(key)


def _size_wedge(tr, st, args, result, rank_before):
    st.keep_max("max_cols", result.ncols)


def _size_koszul(tr, st, args, result, rank_before):
    st.keep_max("total_dim", sum(len(b) for b in result.bases))
    st.keep_max("nnz", sum(matrix_nnz(d) for d in result.differentials))


def _size_betti(tr, st, args, result, rank_before):
    st.add("differentials", len(args[0].differentials))
    st.add("rank_calls", tr.stats["linalg.rank"].calls - rank_before)


def _size_pell(tr, st, args, result, rank_before):
    st.keep_max("max_out_bits", max(entry_bits(x) for x in result))


# (metric prefix, module, class or None, attribute, size recorder, extra stats)
KERNELS: Tuple[Tuple[str, str, Optional[str], str, Optional[Callable], Tuple[str, ...]], ...] = (
    ("linalg.matrix_init", "linalg", "Matrix", "__init__", None, ()),
    ("linalg.matmul", "linalg", "Matrix", "__mul__", _size_matmul, ("max_cols",)),
    ("linalg.det", "linalg", "Matrix", "det", None, ()),
    ("linalg.inverse", "linalg", "Matrix", "inverse", None, ()),
    ("linalg.hnf", "linalg", None, "hnf", _size_normal_form,
     ("max_rows", "max_cols", "max_in_bits", "max_out_bits")),
    ("linalg.snf", "linalg", None, "snf", _size_normal_form,
     ("max_rows", "max_cols", "max_in_bits", "max_out_bits")),
    ("linalg.kernel_lattice", "linalg", None, "kernel_lattice", _size_out_bits, ("max_out_bits",)),
    ("linalg.lattice_coordinates", "linalg", None, "lattice_coordinates", _size_coordinates,
     ("repeat_ratio",)),
    ("linalg.rank", "linalg", "Matrix", "rank", _size_rank, ("max_rows", "max_cols", "nnz")),
    ("linalg.rref", "linalg", None, "rref", None, ()),
    ("linalg.rational_kernel", "linalg", None, "rational_kernel", None, ()),
    ("linalg.solve", "linalg", None, "solve", None, ()),
    ("linalg.char_poly", "linalg", None, "char_poly", None, ()),
    ("linalg.min_poly", "linalg", None, "min_poly", None, ()),
    ("linalg.jordan_chevalley", "linalg", None, "jordan_chevalley", None, ()),
    ("linalg.finite_order", "linalg", None, "finite_order", None, ()),
    ("linalg.wedge_power", "linalg", None, "wedge_power", _size_wedge, ("max_cols",)),
    ("lie.LieAlgebra", "lie", "LieAlgebra", "__init__", None, ()),
    ("lie.build_koszul", "lie", None, "build_koszul", _size_koszul, ("total_dim", "nnz")),
    ("lie.betti", "lie", "KoszulComplex", "betti", _size_betti, ("rank_calls_per_differential",)),
    ("lie.cocycles", "lie", "KoszulComplex", "cocycles", None, ()),
    ("lie.coboundaries", "lie", "KoszulComplex", "coboundaries", None, ()),
    ("lie.representatives", "lie", "KoszulComplex", "representatives", None, ()),
    ("lie.form_action", "lie", None, "form_action", None, ()),
    ("lie.action_on_cohomology", "lie", None, "action_on_cohomology", None, ()),
    ("lie.invariant_subcomplex", "lie", None, "invariant_subcomplex", None, ()),
    ("cohomology.derivation_space", "cohomology", None, "derivation_space", None, ()),
    ("cohomology.principal_derivations", "cohomology", None, "principal_derivations", None, ()),
    ("cohomology.h1", "cohomology", None, "h1", None, ()),
    ("cohomology.rewriting_table", "cohomology", None, "rewriting_table", None, ()),
    ("cohomology.conjugation_action", "cohomology", None, "conjugation_action", None, ()),
    ("cohomology.word_value", "cohomology", None, "word_value", None, ()),
    ("arithmeticity.non_arithmeticity_report", "arithmeticity", None,
     "non_arithmeticity_report", None, ()),
    ("arithmeticity.classify", "arithmeticity", None, "classify", None, ()),
    ("semidirect.build_gamma_epsilon", "semidirect", None, "build_gamma_epsilon", None, ()),
    ("semidirect.gamma_epsilon_derivation_basis", "semidirect", None,
     "gamma_epsilon_derivation_basis", None, ()),
    ("quadratic.fundamental_pell", "quadratic", None, "fundamental_pell", _size_pell,
     ("max_out_bits",)),
    ("jsonio.load_document", "jsonio", None, "load_document", None, ()),
    ("cli.build_parser", "cli", None, "build_parser", None, ()),
    ("cli.main", "cli", None, "main", None, ()),
)

# Families of functions whose calls and self time are summed under one name.
GROUPS = (
    ("jsonio.parse", "jsonio", lambda name: name.startswith("parse_"), False),
    ("jsonio.emit", "jsonio", lambda name: name.endswith("_to_json"), False),
    ("polynomials.public", "polynomials", lambda name: not name.startswith("_"), True),
    ("presentations.public", "presentations", lambda name: not name.startswith("_"), True),
)

EXTRA_UNITS = {
    "max_rows": "count",
    "max_cols": "count",
    "nnz": "count",
    "total_dim": "count",
    "max_in_bits": "bits",
    "max_out_bits": "bits",
    "repeat_ratio": "ratio",
    "rank_calls_per_differential": "ratio",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit, in order."""
    out: Dict[str, str] = {}
    for prefix, _, _, _, _, extras in KERNELS:
        out[f"{prefix}.calls"] = "count"
        out[f"{prefix}.self_ms"] = "ms"
        for name in extras:
            out[f"{prefix}.{name}"] = EXTRA_UNITS[name]
    for prefix, _, _, _ in GROUPS:
        out[f"{prefix}.calls"] = "count"
        out[f"{prefix}.self_ms"] = "ms"
    for module in MODULES:
        out[f"{module}.errors"] = "count"
    out["trace.overhead"] = "ratio"
    out["trace.coverage"] = "ratio"
    return out


def _polyarith_modules() -> Dict[str, object]:
    return {m: importlib.import_module(f"polyarith.{m}") for m in MODULES}


class Tracer:
    """Installs timing wrappers; one tracer is installed at a time."""

    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self.errors: Dict[str, int] = {m: 0 for m in MODULES}
        # each frame: [nanoseconds covered by child spans, module name]
        self.stack: List[list] = [[0, None]]
        self.seen_bases: set = set()
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_job(self):
        """Start a job: lattice_coordinates repeats are counted within one job."""
        self.seen_bases = set()
        self.stack[:] = [[0, None]]

    def _wrap(self, prefix: str, module: str, fn: Callable, sizer: Optional[Callable]):
        st = self.stats.setdefault(prefix, Stat())
        rank = self.stats.setdefault("linalg.rank", Stat())
        frames = self.stack
        errors = self.errors
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0, module]
            frames.append(frame)
            before = rank.calls
            t0 = perf_counter_ns()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            except BaseException:
                if frames[-2][1] != module:
                    errors[module] += 1
                raise
            finally:
                t1 = perf_counter_ns()
                frames.pop()
                st.calls += 1
                st.self_ns += (t1 - t0) - frame[0]
                if sizer is not None and not failed:
                    sizer(tracer, st, args, result, before)
                frames[-1][0] += perf_counter_ns() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, modules, original, replacement):
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, replacement)

    def _replace_attr(self, owner, name, replacement):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _polyarith_modules()
        for prefix, module, cls, attr, sizer, _ in KERNELS:
            mod = modules[module]
            if cls is None:
                fn = getattr(mod, attr)
                self._replace_everywhere(modules, fn, self._wrap(prefix, module, fn, sizer))
            else:
                owner = getattr(mod, cls)
                fn = owner.__dict__[attr]
                self._replace_attr(owner, attr, self._wrap(prefix, module, fn, sizer))
        for prefix, module, keep, with_methods in GROUPS:
            mod = modules[module]
            for name, value in list(vars(mod).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and keep(name)
                ):
                    self._replace_everywhere(
                        modules, value, self._wrap(prefix, module, value, None)
                    )
                elif with_methods and inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._wrap_methods(prefix, module, value)

    def _wrap_methods(self, prefix: str, module: str, cls):
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            if inspect.isfunction(value):
                self._replace_attr(cls, name, self._wrap(prefix, module, value, None))
            elif isinstance(value, staticmethod):
                wrapped = self._wrap(prefix, module, value.__func__, None)
                self._replace_attr(cls, name, staticmethod(wrapped))
            elif isinstance(value, property) and value.fget is not None:
                wrapped = self._wrap(prefix, module, value.fget, None)
                self._replace_attr(cls, name, property(wrapped, value.fset, value.fdel))

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore = []

    # -- reporting ---------------------------------------------------------

    def metrics(self, passes: int, job_wall_ns: int, overhead: float) -> Dict[str, float]:
        """Per-layer metrics.  Counts and self times are per pass of the deck,
        so a seed gives the same counts however many passes fit in a run;
        ``job_wall_ns`` is the summed wall time of the traced ``cli.main``
        calls, as the benchmark loop measured them."""
        out: Dict[str, float] = {}
        units = metric_units()
        for name in units:
            prefix, _, stat = name.rpartition(".")
            if prefix == "trace" or stat == "errors":
                continue
            st = self.stats.get(prefix, Stat())
            if stat == "calls":
                out[name] = st.calls / passes
            elif stat == "self_ms":
                out[name] = st.self_ns / 1e6 / passes
            elif stat == "repeat_ratio":
                out[name] = st.extra.get("repeats", 0) / st.calls if st.calls else 0.0
            elif stat == "rank_calls_per_differential":
                diffs = st.extra.get("differentials", 0)
                out[name] = st.extra.get("rank_calls", 0) / diffs if diffs else 0.0
            else:
                out[name] = st.extra.get(stat, 0)
        for module in MODULES:
            out[f"{module}.errors"] = self.errors[module] / passes
        main_self = self.stats.get("cli.main", Stat()).self_ns
        out["trace.overhead"] = overhead
        out["trace.coverage"] = 1.0 - main_self / job_wall_ns if job_wall_ns else 0.0
        return {name: out[name] for name in units}
