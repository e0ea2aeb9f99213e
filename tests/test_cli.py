import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import auditgames
from auditgames import constraints as cx
from auditgames.cli import (
    BenchConfig,
    COUNTEREXAMPLE_ROWS,
    COUNTEREXAMPLE_STAR,
    _emit,
    bench,
    counterexample_curve,
    counterexample_game,
    generate_instance,
    run,
)
from auditgames.errors import DivisibilityError
from auditgames.fpt import _ProgramCache, full_objective
from auditgames.lp import solve_lp
from auditgames.model import game_from_dict, game_to_dict

from helpers import bound_games


def test_generate_groups():
    cfg = BenchConfig(100, 10, 2, seed=3)
    g = generate_instance(cfg)
    assert g.n_targets == 100 and g.n_resources == 10
    # 5 groups, each of 2 resources auditing a 20-target block
    from auditgames.constraints import build_intersection_graph, merge_targets
    graph = build_intersection_graph(merge_targets(g))
    assert graph.n_nodes == 5
    assert all(len(a) == 0 for a in graph.adjacency)
    assert g.cost_a == 0.01 and g.cost_a1 == 0.0


def test_generate_snapped_utilities():
    g = generate_instance(BenchConfig(8, 4, 2, seed=1))
    scale = 2.0 ** g.input_bits
    for quad in g.utilities:
        for v in quad:
            assert v * scale == round(v * scale)


def test_generate_deterministic():
    a = generate_instance(BenchConfig(12, 4, 2, seed=9))
    b = generate_instance(BenchConfig(12, 4, 2, seed=9))
    assert a == b


def test_generate_divisibility_errors():
    with pytest.raises(DivisibilityError):
        generate_instance(BenchConfig(10, 4, 3))  # 4 resources, groups of 3
    with pytest.raises(DivisibilityError):
        generate_instance(BenchConfig(9, 4, 2))   # 2 groups cannot split 9


@pytest.mark.parametrize("command", [
    ["generate", "--targets", "10", "--resources", "0", "--group", "1"],
    ["bench", "--targets", "10", "--resources", "0", "--group", "1"],
])
def test_cli_rejects_zero_resources(tmp_path, capsys, command):
    with pytest.raises(DivisibilityError):
        generate_instance(BenchConfig(10, 0, 1))
    assert run(command + ["--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_bench_objective_agreement():
    rep = bench(BenchConfig(8, 4, 2, epsilon=0.25, seed=5, repetitions=2))
    assert rep["objective_max_diff"] <= 1e-6
    assert rep["feasibility_mismatches"] == 0
    assert set(rep["timing"]["grid"]) == {"mean", "min", "max"}


def test_counterexample_game_rows_verbatim():
    g = counterexample_game()
    assert g.utilities == tuple(COUNTEREXAMPLE_ROWS)
    assert g.cost_a == 0.01
    assert len(g.order_warnings) == 1  # the published seventh row


def test_counterexample_roundtrip_bit_exact(tmp_path):
    g = counterexample_game()
    data = game_to_dict(g)
    path = tmp_path / "ce.json"
    with open(path, "w") as fh:
        json.dump(data, fh)
    g2 = game_from_dict(json.load(open(path)), lenient=True)
    assert g2.utilities == g.utilities
    assert g2 == g


def test_counterexample_curve_golden_values():
    # frozen from the first verified run; stable under step halving
    points, peaks, _ = counterexample_curve(step=0.005)
    assert len(points) == 201
    by_x = {round(pt.x, 6): pt.best_objective for pt in points}
    assert by_x[0.0] == pytest.approx(0.662, abs=1e-9)
    assert by_x[0.5] == pytest.approx(0.4743334, abs=1e-6)
    assert by_x[1.0] == pytest.approx(0.4523029, abs=1e-6)
    fine_points, fine_peaks, _ = counterexample_curve(step=0.0025)
    fine_by_x = {round(pt.x, 6): pt.best_objective for pt in fine_points}
    for x in (0.0, 0.5, 1.0):
        assert fine_by_x[x] == pytest.approx(by_x[x], abs=1e-9)
    assert len(fine_peaks) == len(peaks)


def test_counterexample_curve_matches_lp_oracle():
    points, peaks, game = counterexample_curve(step=0.005)
    star = COUNTEREXAMPLE_STAR
    cache = _ProgramCache(game, cx.coverage_set(game))
    oracle = []
    for pt in points:
        out = solve_lp(cache.build(star, pt.x, "transformed"))
        if out.status != "optimal":
            oracle.append(None)
            continue
        p = cache.coverage_from_solution("transformed", out.solution)
        oracle.append(full_objective(game, star, float(p[star]), pt.x))
    for pt, want in zip(points, oracle, strict=True):
        if want is None:
            assert pt.best_objective is None, pt.x
        else:
            assert abs(pt.best_objective - want) <= 1e-12, pt.x
    oracle_peaks = [
        points[i].x for i in range(1, len(oracle) - 1)
        if None not in oracle[i - 1:i + 2]
        and oracle[i] > max(oracle[i - 1], oracle[i + 1])]
    assert [pk["x"] for pk in peaks] == oracle_peaks


def test_cli_solve_all_methods(tmp_path):
    game_path = tmp_path / "g.json"
    assert run(["generate", "--targets", "6", "--resources", "2", "--group",
                "1", "--seed", "2", "--out", str(game_path)]) == 0
    for method, extra in (("fpt", ["--epsilon", "0.1"]),
                          ("fptas", ["--root-bits", "16"]),
                          ("tsp", ["--epsilon", "0.2"])):
        out = tmp_path / f"r_{method}.json"
        rc = run(["solve", "--in", str(game_path), "--method", method,
                  "--out", str(out)] + extra)
        assert rc == 0, method
        rep = json.loads(out.read_text())
        assert rep["method"] == method
        assert "game" in rep and len(rep["p"]) == 6


def test_cli_exit_codes(tmp_path):
    assert run(["solve", "--in", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"targets": [], "resources": 1}')
    assert run(["solve", "--in", str(bad)]) == 1


def test_cli_rejects_bad_solve_options(tmp_path, capsys):
    game_path = tmp_path / "g.json"
    run(["generate", "--targets", "4", "--resources", "2", "--group", "1",
         "--out", str(game_path)])
    capsys.readouterr()
    for option in (["--epsilon", "0"], ["--root-bits", "0"],
                   ["--root-bits", "53"]):
        assert run(["solve", "--in", str(game_path), "--method", "fptas",
                    "--out", str(tmp_path / "r.json")] + option) == 1, option
        assert "error:" in capsys.readouterr().err, option


@pytest.mark.parametrize("epsilon", ["0", "0.75", "-0.1"])
def test_cli_bench_rejects_epsilon_outside_the_range(tmp_path, capsys,
                                                     epsilon):
    assert run(["bench", "--targets", "4", "--resources", "2", "--group",
                "1", "--epsilon", epsilon,
                "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err == "error: epsilon must be in (0, 0.5]\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("form", ["auto", "grid"])
def test_cli_fpt_keeps_feasible_lenient_pairs(tmp_path, form):
    # seed 7's star 5 is feasible at x = 0 and 0.05 only: a cut at its
    # first infeasible x, or a screen by full coverage, finds only 0.5601
    game_path, out = tmp_path / "g.json", tmp_path / "r.json"
    game_path.write_text(json.dumps(game_to_dict(list(bound_games())[7])))
    assert run(["solve", "--in", str(game_path), "--lenient", "--method",
                "fpt", "--epsilon", "0.005", "--form", form,
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["objective"] == pytest.approx(
        0.9219, abs=5e-5)


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cli_rejects_enumeration_caps_below_one(tmp_path, capsys, cap):
    game_path = tmp_path / "g.json"
    run(["generate", "--targets", "4", "--resources", "2", "--group", "1",
         "--out", str(game_path)])
    capsys.readouterr()
    for command in (["solve", "--method", "fpt"],
                    ["solve", "--method", "fptas"],
                    ["constraints"]):
        assert run(command + ["--in", str(game_path), "--cap", cap, "--out",
                              str(tmp_path / "r.json")]) == 1, command
        assert "enumeration cap must be at least 1" in \
            capsys.readouterr().err, command
    assert not (tmp_path / "r.json").exists()


def test_cli_decompose_closes_loop(tmp_path):
    game_path = tmp_path / "g.json"
    run(["generate", "--targets", "8", "--resources", "4", "--group", "2",
         "--seed", "7", "--out", str(game_path)])
    rep_path = tmp_path / "rep.json"
    assert run(["solve", "--in", str(game_path), "--method", "fpt",
                "--epsilon", "0.1", "--out", str(rep_path)]) == 0
    mix_path = tmp_path / "mix.json"
    assert run(["decompose", "--in", str(rep_path), "--out",
                str(mix_path)]) == 0
    rep = json.loads(rep_path.read_text())
    mix = json.loads(mix_path.read_text())
    assert sum(mix["weights"]) == pytest.approx(1.0, abs=1e-9)
    err = np.abs(np.asarray(mix["column_marginals"])
                 - np.asarray(rep["p"])).max()
    assert err <= 1e-9


def _error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("change", [
    {"restrictions": [[0]]},
    {"restrictions": 7},
    {"restrictions": [[0.5, 1]]},
    {"restrictions": [[False, 1]]},
    {"resources": "1"},
    {"resources": 1.0},
    {"a_vec": 5},
    {"a": "x"},
    {"targets": [{"ud_a": "x", "ud_u": 0.1, "ua_a": 0.2, "ua_u": 0.3}] * 3},
])
def test_cli_rejects_malformed_instances(tmp_path, capsys, change):
    data = game_to_dict(generate_instance(BenchConfig(3, 1, 1)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**data, **change}))
    for command in (["solve"], ["constraints"]):
        assert run(command + ["--in", str(path), "--out",
                              str(tmp_path / "r.json")]) == 1, command
        _error_line(capsys)


def test_cli_decompose_checks_p_against_the_game(tmp_path, capsys):
    game_path = tmp_path / "g.json"
    run(["generate", "--targets", "4", "--resources", "2", "--group", "1",
         "--out", str(game_path)])
    rep_path = tmp_path / "rep.json"
    assert run(["solve", "--in", str(game_path), "--method", "fpt",
                "--epsilon", "0.1", "--out", str(rep_path)]) == 0
    capsys.readouterr()
    rep = json.loads(rep_path.read_text())
    p = rep["p"]
    for bad, needle in ((p[:1], "lists 1 coverages for 4 targets"),
                        (p + [0.0], "lists 5 coverages for 4 targets"),
                        (p[:3] + ["x"], "p[3] = 'x'"),
                        (p[:3] + [1.5], "p[3] = 1.5")):
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps({**rep, "p": bad}))
        assert run(["decompose", "--in", str(bad_path), "--out",
                    str(tmp_path / "mix.json")]) == 1, bad
        assert needle in _error_line(capsys), bad
    assert not (tmp_path / "mix.json").exists()


def test_cli_constraints_report(tmp_path):
    game_path = tmp_path / "g.json"
    run(["generate", "--targets", "8", "--resources", "4", "--group", "2",
         "--seed", "1", "--out", str(game_path)])
    out = tmp_path / "c.json"
    assert run(["constraints", "--in", str(game_path), "--out",
                str(out)]) == 0
    rep = json.loads(out.read_text())
    assert all(set(c) == {"targets", "bound"} for c in rep["constraints"])
    assert "tractability" in rep


def test_cli_counterexample_csv(tmp_path):
    out = tmp_path / "ce.json"
    csv = tmp_path / "ce.csv"
    assert run(["counterexample", "--out", str(out), "--csv",
                str(csv)]) == 0
    rep = json.loads(out.read_text())
    lines = csv.read_text().splitlines()
    assert lines[0] == "x,objective"
    assert len(lines) == 202
    assert rep["points"] == 201


@pytest.mark.parametrize("step", ["0", "-0.01", "0.0051"])
def test_cli_counterexample_rejects_steps_outside_the_range(step, capsys):
    assert run(["counterexample", "--step", step]) == 1
    assert "step must be in (0, 0.005]" in capsys.readouterr().err


def test_cli_counterexample_grid_ends_at_one(tmp_path):
    out = tmp_path / "ce.json"
    csv = tmp_path / "ce.csv"
    assert run(["counterexample", "--step", "0.003", "--out", str(out),
                "--csv", str(csv)]) == 0
    # 0, 0.003, ..., 0.999 and then 1
    assert json.loads(out.read_text())["points"] == 335
    assert csv.read_text().splitlines()[-1].startswith("1.0,")


def test_cli_reports_deterministic(tmp_path):
    game_path = tmp_path / "g.json"
    run(["generate", "--targets", "6", "--resources", "3", "--group", "3",
         "--seed", "11", "--out", str(game_path)])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run(["solve", "--in", str(game_path), "--method", "fptas", "--out", str(r1)])
    run(["solve", "--in", str(game_path), "--method", "fptas", "--out", str(r2)])
    assert r1.read_text() == r2.read_text()


def test_emit_writes_one_top_level_key_a_line(tmp_path):
    game_path = tmp_path / "g.json"
    run(["generate", "--targets", "8", "--resources", "4", "--group", "2",
         "--seed", "3", "--out", str(game_path)])
    rep_path, mix_path = tmp_path / "rep.json", tmp_path / "mix.json"
    assert run(["solve", "--in", str(game_path), "--method", "fpt",
                "--epsilon", "0.1", "--out", str(rep_path)]) == 0
    assert run(["decompose", "--in", str(rep_path), "--out",
                str(mix_path)]) == 0
    for path in (rep_path, mix_path):
        data = json.loads(path.read_text())
        out = tmp_path / "again.json"
        _emit(data, str(out))
        text = out.read_text()
        assert json.loads(text) == data
        lines = text.splitlines()
        assert lines[0] == "{" and lines[-1] == "}"
        # each inner line holds one key and its whole value
        assert [json.loads("{" + line.rstrip(",") + "}")
                for line in lines[1:-1]] == [{key: data[key]}
                                             for key in sorted(data)]


def test_cli_import_leaves_scipy_solvers_unloaded():
    # scipy.optimize, scipy.linalg and scipy.sparse load on the first LP or
    # max flow, not on import
    src = str(Path(auditgames.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, auditgames.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.linalg', 'scipy.optimize', "
            "'scipy.sparse'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_module_runs_as_a_script(tmp_path):
    src = str(Path(auditgames.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "g.json"
    subprocess.run([sys.executable, "-m", "auditgames.cli", "generate",
                    "--targets", "4", "--resources", "2", "--group", "1",
                    "--out", str(out)], env=env, check=True)
    assert game_from_dict(json.loads(out.read_text())).n_targets == 4
