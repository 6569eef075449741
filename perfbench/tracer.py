"""Spans around the package's functions, and the per-layer metrics built
from them.

The child side (:class:`Recorder`) runs inside a traced ``permsym``
process: it replaces the functions named in :data:`TRACED` with wrappers
that record (name, parent, start, end, attributes) and writes the spans out
when the operation ends.  Nothing inside the package changes.  The parent
side (:func:`pass_metrics`) turns the spans of one workload pass into the
metrics of :data:`PER_LAYER`.  A layer is a package module.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

#: functions wrapped in spans, by module.  Hot leaf functions (matrix
#: elements, permutation algebra) are left out: a span would cost more than
#: the call, and their time stays in the caller's self time.
TRACED = {
    "cli": ("main",),
    "symgroup": ("character_table",),
    "oscillator": (
        "make_model",
        "enumerate_levels",
        "make_level",
        "permutation_action_matrix",
        "_level_rep_matrices",  # spans on cache misses only: the builds
        "uncoupled_expansion",
    ),
    "levelsym": (
        "attach_multiplicities",
        "level_characters",
        "irrep_multiplicities",
        "character_projector",
        "salc",
    ),
    "spin": (
        "allowed_spatial_irreps",
        "multiplet_table",
        "first_level_with_irrep",
        "constructive_allowed_spins",
        "antisymmetrize_space_spin",
    ),
    "ci": ("build_basis", "ci_solve", "hamiltonian_matrix", "s_squared_matrix", "compare"),
}

#: per-layer metric name -> unit; the order is the order of the report
PER_LAYER = {
    "ci.build_basis_s": "s",
    "ci.hamiltonian_matrix_s": "s",
    "ci.s_squared_matrix_s": "s",
    "ci.eigensolve_s": "s",
    "ci.label_s": "s",
    "ci.ci_solve_s": "s",
    "ci.compare_s": "s",
    "ci.basis_dim": "count",
    "ci.blocks": "count",
    "ci.h_nnz": "count",
    "ci.h_density": "ratio",
    "ci.h_dense_mb_computed": "MB",
    "ci.label_gb_computed": "GB",
    "ci.states_matched": "count",
    "ci.states_spurious": "count",
    "ci.levels_missing": "count",
    "oscillator.rep_matrices_s": "s",
    "oscillator.rep_matrix_calls": "count",
    "oscillator.rep_levels_built": "count",
    "oscillator.rep_cache_hit_ratio": "ratio",
    "oscillator.uncoupled_expansion_s": "s",
    "oscillator.max_n_sym": "count",
    "levelsym.attach_multiplicities_s": "s",
    "levelsym.levels": "count",
    "levelsym.slowest_level_s": "s",
    "levelsym.character_projector_s": "s",
    "levelsym.character_projector_calls": "count",
    "spin.allowed_spatial_irreps_s": "s",
    "spin.first_level_with_irrep_s": "s",
    "spin.constructive_s": "s",
    "spin.antisymmetrize_calls": "count",
    "spin.antisymmetrize_nonzero_ratio": "ratio",
    "spin.projector_rebuild_ratio": "ratio",
    "symgroup.character_table_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "count",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# child side


def _nnz(result):
    import numpy as np

    return {"nnz": int(np.count_nonzero(result))}


def _projector_key(args):
    _, level, _, irrep = args
    label = irrep if isinstance(irrep, str) else irrep.label
    return {"key": [level.n_sym, level.n_last, label]}


def _report_counts(report):
    return {
        "matched": len(report.matched),
        "spurious": len(report.spurious),
        "missing": len(report.missing),
    }


#: span attributes taken from the arguments, when the call starts
_ON_CALL = {
    "ci.ci_solve": lambda args: {"dim": len(args[1])},
    "ci.hamiltonian_matrix": lambda args: {"dim": len(args[1])},
    "levelsym.character_projector": _projector_key,
    "oscillator.rep_build": lambda args: {"n_sym": args[1]},
}
#: span attributes taken from the result, inside the span
_ON_RETURN = {
    "ci.hamiltonian_matrix": _nnz,
    "ci.compare": _report_counts,
    "spin.antisymmetrize_space_spin": lambda result: {"nonzero": bool(result.nonzero)},
}


class Recorder:
    """Keeps the spans of one traced process in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, attrs]
        self._stack: list[int] = []
        self._rep_cache = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        on_call, on_return = _ON_CALL.get(name), _ON_RETURN.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = on_call(args) if on_call else {}
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0, attrs])
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_return:
                    attrs.update(on_return(result))
                return result
            finally:
                spans[sid][3] = perf_counter()
                spans[sid][2] = start
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every function of :data:`TRACED` wherever the package holds a
        reference to it, and ``numpy.linalg.eigh`` when ``ci_solve`` calls it."""
        import numpy.linalg

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "permsym"]
        for mod_name, names in TRACED.items():
            module = sys.modules[f"permsym.{mod_name}"]
            for fn_name in names:
                orig = getattr(module, fn_name)
                if fn_name == "_level_rep_matrices":
                    # a fresh cache around the traced build, so that only
                    # misses make spans; hits are counted by the cache
                    build = self._wrap("oscillator.rep_build", orig.__wrapped__)
                    wrapped = self._rep_cache = functools.lru_cache(maxsize=None)(build)
                else:
                    wrapped = self._wrap(f"{mod_name}.{fn_name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)

        # the eigensolve inside ci_solve; other callers (cluster rotation,
        # spin) are not spans, so their time stays where they are called
        eigh = numpy.linalg.eigh
        traced_eigh = self._wrap("ci.eigensolve", eigh)
        solve_code = sys.modules["permsym.ci"].ci_solve.__wrapped__.__code__

        def eigh_switch(*args, **kwargs):
            if sys._getframe(1).f_code is solve_code:
                return traced_eigh(*args, **kwargs)
            return eigh(*args, **kwargs)

        numpy.linalg.eigh = eigh_switch

    def dump(self, path: str, op_id: int) -> None:
        counters = {"oscillator.rep_build": self._rep_cache.cache_info()._asdict()}
        with open(path, "w") as fh:
            json.dump({"op": op_id, "spans": self.spans, "counters": counters}, fh)


# ---------------------------------------------------------------------------
# parent side


class _Span:
    __slots__ = ("name", "layer", "start", "end", "attrs", "children")

    def __init__(self, name, start, end, attrs):
        self.name = name
        self.layer = name.split(".")[0]
        self.start, self.end, self.attrs = start, end, attrs
        self.children: list[_Span] = []

    @property
    def dur(self) -> float:
        return self.end - self.start


def _tree(dump: dict) -> list[_Span]:
    """All spans of one operation, with children linked and nesting checked:
    children lie inside their parent and do not overlap one another."""
    spans = [_Span(name, start, end, attrs) for name, _, start, end, attrs in dump["spans"]]
    for (_, parent, *_), span in zip(dump["spans"], spans):
        if parent >= 0:
            spans[parent].children.append(span)
    for span in spans:
        prev_end = span.start
        for child in sorted(span.children, key=lambda c: c.start):
            if child.start < prev_end or child.end > span.end:
                raise RuntimeError(f"span {child.name} is not nested in {span.name}")
            prev_end = child.end
    return spans


def _function_self(span: _Span) -> float:
    return span.dur - sum(c.dur for c in span.children)


def _foreign(span: _Span, layer: str) -> float:
    if span.layer != layer:
        return span.dur
    return sum(_foreign(c, layer) for c in span.children)


def _layer_self(span: _Span) -> float:
    """The span's time minus the time spent in other layers below it."""
    return span.dur - sum(_foreign(c, span.layer) for c in span.children)


def pass_metrics(dumps: list[dict], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one workload pass (one dump per operation).

    A ratio whose base is zero, and any figure of a layer the pass does not
    use, reads 0.
    """
    spans: list[_Span] = []
    rebuild_base = 0
    hits = misses = 0
    for dump in dumps:
        op_spans = _tree(dump)
        spans += op_spans
        rebuild_base += len({
            tuple(s.attrs["key"]) for s in op_spans
            if s.name == "levelsym.character_projector"
        })
        info = dump["counters"].get("oscillator.rep_build")
        if info:
            hits += info["hits"]
            misses += info["misses"]

    by_name: dict[str, list[_Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.dur for s in named(name))

    def calls(name):
        return len(named(name))

    def attr_sum(name, key):
        # a call that raised has no attributes from its result
        return sum(s.attrs.get(key, 0) for s in named(name))

    def ratio(num, den):
        return num / den if den else 0.0

    solve_parts = {"ci.hamiltonian_matrix", "ci.s_squared_matrix", "ci.eigensolve"}
    for s in named("ci.ci_solve"):
        extra = {c.name for c in s.children} - solve_parts
        if extra:
            raise RuntimeError(f"unexpected spans inside ci_solve: {sorted(extra)}")

    dims = [s.attrs["dim"] for s in named("ci.hamiltonian_matrix")]
    dim_sq = sum(d * d for d in dims)
    antisym = named("spin.antisymmetrize_space_spin")
    attach = named("levelsym.attach_multiplicities")
    projector_calls = calls("levelsym.character_projector")
    out = {
        "ci.build_basis_s": total("ci.build_basis"),
        "ci.hamiltonian_matrix_s": total("ci.hamiltonian_matrix"),
        "ci.s_squared_matrix_s": total("ci.s_squared_matrix"),
        "ci.eigensolve_s": total("ci.eigensolve"),
        "ci.label_s": sum(_function_self(s) for s in named("ci.ci_solve")),
        "ci.ci_solve_s": total("ci.ci_solve"),
        "ci.compare_s": total("ci.compare"),
        "ci.basis_dim": attr_sum("ci.ci_solve", "dim"),
        "ci.blocks": len(dims),
        "ci.h_nnz": attr_sum("ci.hamiltonian_matrix", "nnz"),
        "ci.h_density": ratio(attr_sum("ci.hamiltonian_matrix", "nnz"), dim_sq),
        "ci.h_dense_mb_computed": 8 * dim_sq / 1e6,
        "ci.label_gb_computed": 8 * sum(d**3 for d in dims) / 1e9,
        "ci.states_matched": attr_sum("ci.compare", "matched"),
        "ci.states_spurious": attr_sum("ci.compare", "spurious"),
        "ci.levels_missing": attr_sum("ci.compare", "missing"),
        "oscillator.rep_matrices_s": total("oscillator.permutation_action_matrix"),
        "oscillator.rep_matrix_calls": calls("oscillator.permutation_action_matrix"),
        "oscillator.rep_levels_built": calls("oscillator.rep_build"),
        "oscillator.rep_cache_hit_ratio": ratio(hits, hits + misses),
        "oscillator.uncoupled_expansion_s": total("oscillator.uncoupled_expansion"),
        "oscillator.max_n_sym": max(
            (s.attrs["n_sym"] for s in named("oscillator.rep_build")), default=0
        ),
        "levelsym.attach_multiplicities_s": sum(_layer_self(s) for s in attach),
        "levelsym.levels": len(attach),
        "levelsym.slowest_level_s": max((s.dur for s in attach), default=0.0),
        "levelsym.character_projector_s": total("levelsym.character_projector"),
        "levelsym.character_projector_calls": projector_calls,
        "spin.allowed_spatial_irreps_s": total("spin.allowed_spatial_irreps"),
        "spin.first_level_with_irrep_s": total("spin.first_level_with_irrep"),
        "spin.constructive_s": sum(
            _layer_self(s) for s in named("spin.constructive_allowed_spins")
        ),
        "spin.antisymmetrize_calls": len(antisym),
        "spin.antisymmetrize_nonzero_ratio": ratio(
            attr_sum("spin.antisymmetrize_space_spin", "nonzero"), len(antisym)
        ),
        "spin.projector_rebuild_ratio": ratio(projector_calls, rebuild_base),
        "symgroup.character_table_s": total("symgroup.character_table"),
        "cli.main_s": total("cli.main"),
        "cli.self_s": sum(_layer_self(s) for s in named("cli.main")),
        "cli.output_bytes": output_bytes,
    }
    return out



def ci_blocks(dumps: list[dict]) -> list[tuple[int, int]]:
    """(dim, nnz) of every CI Hamiltonian block, in the order built."""
    return [
        (attrs["dim"], attrs.get("nnz"))
        for dump in dumps
        for name, _, _, _, attrs in dump["spans"]
        if name == "ci.hamiltonian_matrix"
    ]
