"""End-to-end benchmark of `auditgames solve` and `auditgames decompose`.

One run, in one process:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

generates the workload's instances from the seed, then repeats whole rounds
(solve every instance through the CLI entry point, then decompose every
report) until S seconds have passed, checks every output with code that
does not import auditgames, and prints one JSON line.  With --trace 0 it
reports the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run (and writes the spans to benchmark/out/).  Decomposition
times are scaled to a reference host speed by a calibration kernel run
between them (calibrate.py); solve and set-up times are wall times.

    python3 benchmark/run.py --workload all [--seed N] [--trace 1]

runs every workload, each in its own process, and prints a table.
"""

import os

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Calibration kernel runs (calibrate.py) before a report's first
# decomposition and after each one.
KERNELS_PER_CALL = 2
# Set-up is timed this many times per run and the median counts: a fresh
# interpreter importing the CLI, and the workload's instance generation.
SETUP_REPEATS = 5


def _fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the CLI and exits."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import auditgames.cli"],
                   env=env, check=True)
    return time.perf_counter() - start


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    import auditgames
    from auditgames import cli
    import calibrate

    work = OUT / f"{workload}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    imports, generations = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(_import_seconds())
        start = time.perf_counter()
        ops = WORKLOADS[workload](seed)
        for op in ops:
            _write_json(work / f"{op.name}.game.json", op.instance)
        generations.append(time.perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(generations)

    tracer = None
    if trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install(auditgames)

    def timed(kind: str, op, argv) -> float:
        """Seconds one CLI call took; a non-zero exit marks ``op`` failed."""
        if tracer:
            tracer.begin(f"{kind}:{op.name}")
        start = time.perf_counter()
        code = cli.run([kind] + argv)
        seconds = time.perf_counter() - start
        if tracer:
            tracer.end()
        tally["attempted"] += 1
        if code != 0:
            print(f"benchmark: {kind} {op.name} exited {code}", file=sys.stderr)
            tally["failed"] += 1
            failed_ops.add(op.name)
        return seconds

    def decompose(op, report: str, mixture: str) -> float:
        """Mean seconds of one decomposition of ``op``'s report, on a host
        where the calibration kernel takes REFERENCE_S: the wall times are
        scaled by the kernel runs interleaved with them."""
        calls, kernel = [], calibrate.burst(KERNELS_PER_CALL)
        for _ in range(op.decompose_repeats):
            calls.append(timed("decompose", op,
                               ["--in", report, "--out", mixture]))
            kernel += calibrate.burst(KERNELS_PER_CALL)
        wall_decompose.append(statistics.fmean(calls))
        return (statistics.fmean(calls) * calibrate.REFERENCE_S
                / statistics.fmean(kernel))

    calibrate.burst(KERNELS_PER_CALL)  # warm-up
    wall_decompose = []
    solve_rounds, decompose_rounds = [], []
    tally = {"attempted": 0, "failed": 0}
    failed_ops = set()
    started = time.perf_counter()
    while True:
        solve_s = decompose_s = 0.0
        for op in ops:
            game, report, mixture = (str(work / f"{op.name}.{kind}.json")
                                     for kind in ("game", "report", "mixture"))
            solve_s += timed("solve", op, ["--in", game, "--out", report]
                             + op.solve_args)
            if op.name not in failed_ops:
                decompose_s += decompose(op, report, mixture)
        solve_rounds.append(solve_s)
        decompose_rounds.append(decompose_s)
        if time.perf_counter() - started >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"benchmark: decompose wall "
          f"{sum(wall_decompose) / len(solve_rounds):.5f} s per round, "
          f"scaled {statistics.fmean(decompose_rounds):.5f} s", file=sys.stderr)

    import checks
    correct = True
    for op in ops:
        if op.name in failed_ops:
            continue
        report = json.loads((work / f"{op.name}.report.json").read_text())
        mixture = json.loads((work / f"{op.name}.mixture.json").read_text())
        errors = (checks.check_solution(op.instance, op, report)
                  + checks.check_mixture(op.instance, report, mixture))
        for message in errors:
            print(f"benchmark: check failed on {op.name}: {message}",
                  file=sys.stderr)
        correct &= not errors

    rounds = len(solve_rounds)
    if tracer:
        from layers import layer_metrics
        metrics = {name: (value, _unit(name))
                   for name, value in layer_metrics(tracer, rounds).items()}
        metrics["trace.solve_s"] = (statistics.median(solve_rounds), "s")
        metrics["trace.decompose_s"] = (statistics.median(decompose_rounds), "s")
        tracer.write(work / "trace.json",
                     {"workload": workload, "seed": seed, "rounds": rounds})
    else:
        metrics = {
            "solve_s": (statistics.median(solve_rounds), "s"),
            "decompose_s": (statistics.median(decompose_rounds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
    return {
        "correct": correct,
        **tally,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("yield"):
        return "ratio"
    return "count"


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints one table."""
    from workloads import WORKLOADS
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
        if not result["correct"] or result["failed"]:
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "auditgames" / "cli.py").is_file():
        _fail(f"no auditgames source under {SRC}")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or 'all'")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
