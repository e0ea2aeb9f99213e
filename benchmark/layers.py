"""Outside-in tracing of ``auditgames``: spans and counters around the
public functions of each module, without changing the program.

Modules import each other's names (``from .lp import solve_lp``), so each
wrapper replaces the original function in every loaded ``auditgames``
module that holds it.  Spans and counters stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

# (module, function) pairs timed as spans.
SPANNED = (
    ("model", "load_game"),
    ("lp", "solve_lp"), ("lp", "solve_feasibility"), ("lp", "implies"),
    ("constraints", "constraint_find"), ("constraints", "prune_implied"),
    ("constraints", "liftable_to_grid"),
    ("fpt", "solve_fpt"), ("fpt", "verify_solution"),
    ("fptas", "solve_fptas"), ("fptas", "build_subproblem"),
    ("fptas", "apx_candidates"), ("fptas", "recover_full_solution"),
    ("poly", "isolate_roots"),
    ("target_specific", "solve_px"), ("target_specific", "solve_socp_fixed"),
    ("alloc", "recover_allocation"), ("alloc", "bvn_decompose"),
)
# Pairs whose calls are only counted; their time stays in the caller's
# self time (sturm chains in isolate_roots, Newton runs in
# solve_socp_fixed, matchings in bvn_decompose).
COUNTED = (
    ("model", "compute_deltas"), ("poly", "sturm_sequence"),
    ("target_specific", "_newton_minimize"), ("alloc", "_perfect_matching"),
)


class Tracer:
    """Span stack with self-time accounting plus named counters.

    A span's self time is its duration minus the durations of the spans
    it directly encloses.  Each span records [id, parent id, operation id,
    name, start, end]; spans of one solve or decompose share the id of
    the operation's root span.
    """

    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()
        self.maxima = {}
        self._stack = []  # [span id, name, start, child seconds]
        self._op = None

    def begin(self, name: str) -> None:
        span_id = len(self.spans)
        self.spans.append(None)
        if not self._stack:
            self._op = span_id
        self._stack.append([span_id, name, time.perf_counter(), 0.0])

    def end(self) -> None:
        stop = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = stop - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans[span_id] = [span_id, parent[0] if parent else None,
                               self._op, name, start, stop]
        self.self_s[name] += duration - child
        self.calls[name] += 1

    def maximum(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def install(self, package) -> None:
        """Wrap the SPANNED and COUNTED functions of the imported package."""
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__
                   or key.startswith(package.__name__ + ".")]
        for pairs, wrap in ((SPANNED, self._span), (COUNTED, self._count)):
            for mod_name, fn_name in pairs:
                original = getattr(
                    sys.modules[f"{package.__name__}.{mod_name}"], fn_name)
                self._replace(modules, original,
                              wrap(f"{mod_name}.{fn_name}", original))
        cx = sys.modules[f"{package.__name__}.constraints"]
        original = cx.enumerate_connected_subgraphs
        self._replace(modules, original, self._yields(
            "constraints.subgraphs", original))

    @staticmethod
    def _replace(modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _span(self, name, fn):
        observe = _OBSERVERS.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self.end()
            if observe is not None:
                observe(self, args, result)
            return result
        return wrapper

    def _count(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _yields(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counters[name] += 1
                yield item
        return wrapper

    def write(self, path, meta: dict) -> None:
        data = {
            **meta,
            "span_fields": ["id", "parent", "operation", "name", "start", "end"],
            "self_s": dict(sorted(self.self_s.items())),
            "calls": dict(sorted(self.calls.items())),
            "counters": dict(sorted(self.counters.items())),
            "maxima": dict(sorted(self.maxima.items())),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def _lp_outcome(tracer, args, out):
    tracer.counters["lp.pivots"] += int(out.iterations)
    if out.status == "infeasible":
        tracer.counters["lp.infeasible"] += 1
    tracer.maximum("lp.vars_max", int(args[0].objective.size))


def _pruned(tracer, args, cset):
    tracer.counters["constraints.prune.in"] += len(args[0].constraints)
    tracer.counters["constraints.prune.kept"] += len(cset.constraints)


def _fpt_solution(tracer, args, sol):
    for key in ("solved", "screened", "lp_infeasible"):
        tracer.counters[f"fpt.pairs_{key}"] += sol.details[key]


def _fptas_solution(tracer, args, sol):
    tracer.counters["fptas.bands_won"] += len(sol.details["band_winners"])
    tracer.counters["fptas.discarded"] += sol.details["discarded_candidates"]


def _candidates(tracer, args, found):
    tracer.counters["fptas.candidates"] += len(found)


def _roots(tracer, args, roots):
    tracer.counters["poly.roots"] += len(roots)


def _mixture(tracer, args, mixture):
    tracer.counters["alloc.components"] += len(mixture.weights)


_OBSERVERS = {
    "lp.solve_lp": _lp_outcome,
    "constraints.prune_implied": _pruned,
    "fpt.solve_fpt": _fpt_solution,
    "fptas.solve_fptas": _fptas_solution,
    "fptas.apx_candidates": _candidates,
    "poly.isolate_roots": _roots,
    "alloc.bvn_decompose": _mixture,
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer figures per round: self seconds, call counts, counters."""
    s, calls, c = tracer.self_s, tracer.calls, tracer.counters
    subproblems = calls["target_specific.solve_socp_fixed"]
    infeasible = c["target_specific.solve_socp_fixed.raised.Infeasible"]
    lps_run = c["fpt.pairs_solved"] + c["fpt.pairs_lp_infeasible"]
    counts = {
        "model.compute_deltas.calls": calls["model.compute_deltas"],
        "lp.solve_lp.calls": calls["lp.solve_lp"],
        "lp.pivots": c["lp.pivots"],
        "lp.infeasible": c["lp.infeasible"],
        "lp.solve_feasibility.calls": calls["lp.solve_feasibility"],
        "lp.implies.calls": calls["lp.implies"],
        "constraints.subgraphs": c["constraints.subgraphs"],
        "constraints.prune.in": c["constraints.prune.in"],
        "constraints.prune.kept": c["constraints.prune.kept"],
        "constraints.liftable_to_grid.calls": calls["constraints.liftable_to_grid"],
        "fpt.pairs_solved": c["fpt.pairs_solved"],
        "fpt.pairs_screened": c["fpt.pairs_screened"],
        "fpt.pairs_lp_infeasible": c["fpt.pairs_lp_infeasible"],
        "fptas.bands": calls["fptas.build_subproblem"],
        "fptas.candidates": c["fptas.candidates"],
        "fptas.recover.calls": calls["fptas.recover_full_solution"],
        "fptas.discarded": c["fptas.discarded"],
        "poly.isolate_roots.calls": calls["poly.isolate_roots"],
        "poly.roots": c["poly.roots"],
        "poly.sturm_sequence.calls": calls["poly.sturm_sequence"],
        "target_specific.subproblems": subproblems,
        "target_specific.infeasible": infeasible,
        "target_specific.newton.calls": calls["target_specific._newton_minimize"],
        "alloc.components": c["alloc.components"],
        "alloc.matchings": calls["alloc._perfect_matching"],
    }
    seconds = {
        "model.load_game.s": s["model.load_game"],
        "lp.solve_lp.s": s["lp.solve_lp"],
        "lp.solve_feasibility.s": s["lp.solve_feasibility"],
        "lp.implies.s": s["lp.implies"],
        "constraints.constraint_find.s": s["constraints.constraint_find"],
        "constraints.prune.s": s["constraints.prune_implied"],
        "constraints.liftable_to_grid.s": s["constraints.liftable_to_grid"],
        "fpt.solve_fpt.s": s["fpt.solve_fpt"],
        "fpt.verify_solution.s": s["fpt.verify_solution"],
        "fptas.build_subproblem.s": s["fptas.build_subproblem"],
        "fptas.apx_candidates.s": s["fptas.apx_candidates"],
        "poly.isolate_roots.s": s["poly.isolate_roots"],
        "target_specific.solve_socp_fixed.s": s["target_specific.solve_socp_fixed"],
        "alloc.recover_allocation.s": s["alloc.recover_allocation"],
        "alloc.bvn_decompose.s": s["alloc.bvn_decompose"],
    }
    out = {name: value / rounds for name, value in counts.items()}
    out.update({name: value / rounds for name, value in seconds.items()})
    out["lp.vars_max"] = tracer.maxima.get("lp.vars_max", 0)
    out["fpt.lp_yield"] = _ratio(c["fpt.pairs_solved"], lps_run)
    out["fptas.band_yield"] = _ratio(c["fptas.bands_won"],
                                     calls["fptas.build_subproblem"])
    out["target_specific.feasible_yield"] = _ratio(subproblems - infeasible,
                                                   subproblems)
    return out
