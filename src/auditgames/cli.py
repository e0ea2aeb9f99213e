"""Command-line front end, instance generator, and benchmark harness."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import constraints as cx
from .alloc import bvn_decompose, recover_allocation
from .errors import DivisibilityError, InternalError, UsageError, UserError
from .fpt import (
    VERIFY_TOL,
    SolveConfig,
    _ProgramCache,
    compare_formulations,
    full_objective,
    solve_fpt,
    x_grid,
)
from .fptas import solve_fptas
from .model import (
    AuditGame,
    DEFAULT_INPUT_BITS,
    game_from_dict,
    game_to_dict,
    is_real,
    load_game,
    validate_game,
)
from .target_specific import solve_px


@dataclass(frozen=True)
class BenchConfig:
    n_targets: int
    n_resources: int
    group_size: int
    epsilon: float = 0.05
    seed: int = 0
    repetitions: int = 1

    def __post_init__(self):
        if self.repetitions < 1:
            raise DivisibilityError("repetitions must be >= 1")


@dataclass(frozen=True)
class CurvePoint:
    x: float
    best_objective: float | None


def snap_to_bits(value: float, bits: int = DEFAULT_INPUT_BITS) -> float:
    scale = 2.0 ** bits
    return round(value * scale) / scale


def generate_instance(cfg: BenchConfig,
                      input_bits: int = DEFAULT_INPUT_BITS) -> AuditGame:
    """Seeded random instance with disjoint resource groups.

    Utilities are uniform on [0, 1] snapped to the input-bit grid, with
    the two orderings enforced by swapping; resources split into equal
    groups, each allowed to audit only its own block of targets.
    """
    n, k, gsize = cfg.n_targets, cfg.n_resources, cfg.group_size
    if k < 1 or gsize < 1 or k % gsize:
        raise DivisibilityError(
            f"{k} resources do not split into groups of {gsize}")
    n_groups = k // gsize
    if n % n_groups:
        raise DivisibilityError(
            f"{n} targets do not split across {n_groups} groups")
    block = n // n_groups
    rng = np.random.default_rng(cfg.seed)
    utilities = []
    for _ in range(n):
        ud = sorted((snap_to_bits(v, input_bits) for v in rng.random(2)),
                    reverse=True)
        ua = sorted(snap_to_bits(v, input_bits) for v in rng.random(2))
        utilities.append((ud[0], ud[1], ua[0], ua[1]))
    restrictions = []
    for j in range(k):
        g = j // gsize
        lo, hi = g * block, (g + 1) * block
        restrictions.extend((j, i) for i in range(n) if not lo <= i < hi)
    return validate_game(n, k, utilities, restrictions,
                         cost_a=0.01, cost_a1=0.0, input_bits=input_bits)


def bench(cfg: BenchConfig, solve_cfg: SolveConfig | None = None,
          include_extraction: bool = False) -> dict:
    """Timing report for both formulations, averaged over repetitions."""
    solve_cfg = solve_cfg or SolveConfig(epsilon=cfg.epsilon)
    runs = []
    for rep in range(cfg.repetitions):
        game = generate_instance(BenchConfig(
            cfg.n_targets, cfg.n_resources, cfg.group_size,
            cfg.epsilon, cfg.seed + rep, 1))
        runs.append(compare_formulations(
            game, solve_cfg, include_extraction=include_extraction))
    def stats(key):
        vals = [r[key] for r in runs]
        return {"mean": sum(vals) / len(vals), "min": min(vals), "max": max(vals)}
    return {
        "config": {
            "targets": cfg.n_targets, "resources": cfg.n_resources,
            "group_size": cfg.group_size, "epsilon": cfg.epsilon,
            "seed": cfg.seed, "repetitions": cfg.repetitions,
        },
        "timing": {
            "grid": stats("time_grid"),
            "transformed": stats("time_transformed"),
            "extraction": stats("time_extraction"),
            "speedup": stats("speedup"),
            "include_extraction": include_extraction,
        },
        "objective_max_diff": max(r["objective_max_diff"] for r in runs),
        "feasibility_mismatches": sum(
            len(r["feasibility_mismatches"]) for r in runs),
        "best_objective": runs[0]["best_objective"],
        "n_constraints": runs[0]["n_constraints"],
    }


COUNTEREXAMPLE_ROWS = (
    (0.614, 0.598, 0.202, 0.287),
    (0.719, 0.036, 0.869, 0.999),
    (0.664, 0.063, 0.597, 0.946),
    (0.440, 0.322, 0.023, 0.624),
    (0.154, 0.098, 0.899, 0.902),
    (0.507, 0.170, 0.452, 0.629),
    (0.662, 0.371, 1.000, 0.999),
)
COUNTEREXAMPLE_STAR = 6  # the seventh target, as published


def counterexample_game() -> AuditGame:
    """The published 7-target, single-resource instance, verbatim.

    Its seventh row narrowly violates the attacker utility ordering
    (audited 1.000 vs unaudited 0.999), so lenient validation is required.
    """
    return validate_game(7, 1, COUNTEREXAMPLE_ROWS, (), cost_a=0.01,
                         lenient=True)


def counterexample_curve(step: float = 0.005, star: int = COUNTEREXAMPLE_STAR):
    """Objective-versus-punishment curve for the published instance.

    Solves the fixed-best-response program at every grid point in closed
    form, as the transformed sweep does, and reports the strict interior
    local maxima of the curve.
    Returns (curve points, peaks, game).
    """
    if not 0.0 < step <= 0.005 + 1e-15:
        raise UsageError(f"step must be in (0, 0.005], got {step!r}")
    game = counterexample_game()
    xs = x_grid(step)
    feasible, p = _ProgramCache(game, cx.coverage_set(game)).closed_form(
        star, xs)
    points = [CurvePoint(x, full_objective(game, star, float(q[star]), x)
                         if ok else None)
              for x, ok, q in zip(xs, feasible, p)]
    peaks = []
    for i in range(1, len(points) - 1):
        a, b, c = points[i - 1].best_objective, points[i].best_objective, \
            points[i + 1].best_objective
        if b is not None and a is not None and c is not None and b > a and b > c:
            peaks.append({"x": points[i].x, "objective": b})
    return points, peaks, game


# --- command dispatch ------------------------------------------------------

def _emit(data: dict, path: str | None) -> None:
    """Write ``data`` as JSON with one top-level key a line.  Each value is
    encoded on its own by json's C encoder, which ``indent`` would switch
    off."""
    text = "{\n" + ",\n".join(
        f"  {json.dumps(key)}: "
        f"{json.dumps(data[key], sort_keys=True, default=float)}"
        for key in sorted(data)) + "\n}\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _solution_report(game: AuditGame, sol) -> dict:
    report = {
        "method": sol.method,
        "formulation": sol.formulation,
        "objective": sol.objective,
        "star": sol.star,
        "p": [float(v) for v in sol.p],
        "details": sol.details,
        "game": game_to_dict(game),
    }
    if np.ndim(sol.x) == 0:
        report["x"] = float(sol.x)
    else:
        report["x_vector"] = [float(v) for v in sol.x]
    return report


def _solve_config(**kwargs) -> SolveConfig:
    try:
        return SolveConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_solve(args) -> int:
    if not args.infile:
        raise UsageError("solve requires --in PATH")
    game = load_game(args.infile, lenient=args.lenient)
    epsilon = args.epsilon if args.epsilon is not None else (
        0.01 if args.method == "tsp" else 0.005)
    cfg = _solve_config(epsilon=epsilon, formulation=args.form,
                        enumeration_cap=args.cap, root_bits=args.root_bits)
    if args.method == "fpt":
        sol = solve_fpt(game, cfg)
    elif args.method == "fptas":
        sol = solve_fptas(game, cfg)
    else:
        sol = solve_px(game, cfg)
    _emit(_solution_report(game, sol), args.out)
    return 0


def _cmd_constraints(args) -> int:
    if not args.infile:
        raise UsageError("constraints requires --in PATH")
    if args.cap < 1:
        raise UsageError("enumeration cap must be at least 1")
    game = load_game(args.infile, lenient=args.lenient)
    cset = cx.constraint_find(game, cap=args.cap)
    graph = cx.build_intersection_graph(cx.merge_targets(game))
    report = {
        "constraints": [
            {"targets": list(c.target_indices), "bound": c.bound}
            for c in cset.constraints
        ],
        "pinned_targets": list(cset.pinned),
        "tractability": cx.tractability_check(graph).to_dict(),
    }
    _emit(report, args.out)
    return 0


def _cmd_decompose(args) -> int:
    if not args.infile:
        raise UsageError("decompose requires --in PATH (a solve report)")
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read solution report: {exc}") from exc
    if not isinstance(report, dict) or not {"game", "p"} <= set(report):
        raise UsageError("solution report must carry 'game' and 'p'")
    game = game_from_dict(report["game"], lenient=True)
    p = report["p"]
    size = len(p) if isinstance(p, list) else "no"
    if size != game.n_targets:
        raise UsageError(f"report's 'p' lists {size} coverages for "
                         f"{game.n_targets} targets")
    for i, v in enumerate(p):
        if not (is_real(v) and -VERIFY_TOL <= v <= 1.0 + VERIFY_TOL):
            raise UsageError(f"report's p[{i}] = {v!r} is not a coverage")
    alloc = recover_allocation(game, np.asarray(p, dtype=float))
    mixture = bvn_decompose(alloc)
    out = {
        "weights": list(mixture.weights),
        "assignments": list(mixture.assignments),
        "column_marginals": [float(v) for v in mixture.column_marginals],
        "components": len(mixture.weights),
    }
    _emit(out, args.out)
    return 0


def _cmd_bench(args) -> int:
    epsilon = args.epsilon if args.epsilon is not None else (
        0.005 if args.paper_scale else 0.05)
    reps = args.repetitions if args.repetitions is not None else (
        5 if args.paper_scale else 1)
    cfg = BenchConfig(args.targets, args.resources, args.group,
                      epsilon=epsilon, seed=args.seed, repetitions=reps)
    report = bench(cfg, _solve_config(epsilon=epsilon),
                   include_extraction=args.include_extraction)
    _emit(report, args.out)
    return 0


def _cmd_counterexample(args) -> int:
    points, peaks, game = counterexample_curve(step=args.step)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("x,objective\n")
            for pt in points:
                obj = "" if pt.best_objective is None else repr(pt.best_objective)
                fh.write(f"{pt.x!r},{obj}\n")
    feasible = [pt for pt in points if pt.best_objective is not None]
    report = {
        "step": args.step,
        "star": COUNTEREXAMPLE_STAR,
        "points": len(points),
        "feasible_points": len(feasible),
        "max_objective": max((pt.best_objective for pt in feasible),
                             default=None),
        "argmax_x": max(feasible, key=lambda pt: pt.best_objective).x
        if feasible else None,
        "peaks": peaks,
        "peak_count": len(peaks),
        "game": game_to_dict(game),
    }
    _emit(report, args.out)
    return 0


def _cmd_generate(args) -> int:
    cfg = BenchConfig(args.targets, args.resources, args.group,
                      seed=args.seed)
    game = generate_instance(cfg)
    _emit(game_to_dict(game), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auditgames",
        description="Solvers for audit games with restricted resources "
                    "and a configurable punishment rate.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--in", dest="infile", metavar="PATH")
        p.add_argument("--out", metavar="PATH")
        p.add_argument("--cap", type=int, default=cx.DEFAULT_SUBGRAPH_CAP,
                       help="enumeration cap; solve takes C from the "
                            "connected subgraphs or the 2^k resource subsets, "
                            "whichever are fewer, so it bounds the smaller "
                            "count (fpt falls back to the grid formulation "
                            "past it; tsp takes no C and ignores it); "
                            "constraints caps the subgraphs")
        p.add_argument("--lenient", action="store_true",
                       help="accept instances that narrowly break the "
                            "attacker utility ordering")

    p = sub.add_parser("solve", help="solve an instance file")
    add_common(p)
    p.add_argument("--method", choices=("fpt", "fptas", "tsp"), default="fpt")
    p.add_argument("--form", choices=("grid", "transformed", "auto"),
                   default="auto")
    p.add_argument("--epsilon", type=float, default=None,
                   help="grid step (default 0.005; 0.01 for tsp)")
    p.add_argument("--root-bits", dest="root_bits", type=int, default=20,
                   help="fptas root radius 2^-BITS, BITS in 1..52 "
                        "(default 20)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("constraints", help="extract coverage constraints")
    add_common(p)
    p.set_defaults(func=_cmd_constraints)

    p = sub.add_parser("decompose",
                       help="turn a solve report into a pure-strategy mixture")
    add_common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("bench", help="time both formulations on a generated "
                                     "grouped instance")
    add_common(p)
    p.add_argument("--targets", type=int, required=True)
    p.add_argument("--resources", type=int, required=True)
    p.add_argument("--group", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repetitions", type=int, default=None)
    p.add_argument("--paper-scale", action="store_true",
                   help="full-fidelity settings: epsilon 0.005, 5 repetitions")
    p.add_argument("--include-extraction", action="store_true",
                   help="charge extraction time to the transformed column")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("counterexample",
                       help="reproduce the published multi-peak instance")
    add_common(p)
    p.add_argument("--step", type=float, default=0.005)
    p.add_argument("--csv", metavar="PATH", help="also write x,objective CSV")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("generate", help="write a seeded grouped instance")
    add_common(p)
    p.add_argument("--targets", type=int, required=True)
    p.add_argument("--resources", type=int, required=True)
    p.add_argument("--group", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
