import json
import math

import numpy as np
import pytest

from auditgames.constraints import CoverageNetwork
from auditgames.errors import GameValidationError, UsageError
from auditgames.model import (
    audit_sets,
    compute_deltas,
    game_from_dict,
    game_to_dict,
    load_game,
    validate_game,
)

from helpers import explosion_game, rand_game

UTIL_OK = (0.6, 0.5, 0.2, 0.3)


def kinds(excinfo):
    return {v.kind for v in excinfo.value.violations}


def test_k_must_be_below_n():
    with pytest.raises(GameValidationError) as e:
        validate_game(1, 1, [UTIL_OK], cost_a=0.01)
    assert "KTooLarge" in kinds(e)


def test_two_target_instance_valid():
    g = validate_game(2, 1, [UTIL_OK, (0.7, 0.0, 0.8, 0.9)], cost_a=0.01)
    assert g.n_targets == 2 and g.n_resources == 1
    assert g.unauditable == (False, False)


def test_attacker_order_violation():
    with pytest.raises(GameValidationError) as e:
        validate_game(2, 1, [UTIL_OK, (0.7, 0.0, 0.9, 0.5)], cost_a=0.01)
    assert "UtilityOrderViolation" in kinds(e)


def test_defender_order_violation():
    with pytest.raises(GameValidationError) as e:
        validate_game(2, 1, [UTIL_OK, (0.1, 0.4, 0.2, 0.3)], cost_a=0.01)
    assert "UtilityOrderViolation" in kinds(e)


def test_lenient_downgrades_attacker_order_only():
    g = validate_game(2, 1, [UTIL_OK, (0.7, 0.0, 0.9, 0.5)], cost_a=0.01,
                      lenient=True)
    assert len(g.order_warnings) == 1
    with pytest.raises(GameValidationError):
        validate_game(2, 1, [(0.1, 0.4, 0.2, 0.3), UTIL_OK], cost_a=0.01,
                      lenient=True)


def test_restriction_index_out_of_range():
    with pytest.raises(GameValidationError) as e:
        validate_game(2, 1, [UTIL_OK, UTIL_OK], [(1, 0)], cost_a=0.01)
    assert "IndexOutOfRange" in kinds(e)


def test_precision_overflow():
    with pytest.raises(GameValidationError) as e:
        validate_game(2, 1, [UTIL_OK, (2.0 ** 45, 0.0, 0.0, 0.1)],
                      cost_a=0.01, input_bits=20)
    assert "PrecisionOverflow" in kinds(e)


def test_unauditable_target_flagged_not_rejected():
    g = validate_game(2, 1, [UTIL_OK, UTIL_OK], [(0, 1)], cost_a=0.01)
    assert g.unauditable == (False, True)


def test_violations_are_collected_not_first_only():
    with pytest.raises(GameValidationError) as e:
        validate_game(1, 2, [(0.1, 0.4, 0.9, 0.5)], [(5, 5)], cost_a=0.01)
    assert len(e.value.violations) >= 3


def test_deltas_paper_row():
    g = validate_game(2, 1, [(0.614, 0.598, 0.202, 0.287), UTIL_OK],
                      cost_a=0.01)
    d = compute_deltas(g)
    assert abs(d.delta_d[0] - 0.016) < 1e-12
    assert abs(d.delta[0] - 0.085) < 1e-12


def test_delta_pair_antisymmetric_and_zero_diag():
    g = rand_game(5, 2, seed=3)
    d = compute_deltas(g)
    assert np.array_equal(d.delta_pair, -d.delta_pair.T)
    assert np.all(np.diag(d.delta_pair) == 0.0)


def test_delta_pair_from_table_rows():
    g = validate_game(
        2, 1, [(0.614, 0.598, 0.202, 0.287), (0.719, 0.036, 0.869, 0.999)],
        cost_a=0.01)
    d = compute_deltas(g)
    assert abs(d.delta_pair[0, 1] - (-0.712)) < 1e-12


def test_deltas_exact_on_dyadic_grid():
    # utilities on the 2^-K grid subtract without any rounding at all
    for seed in range(20):
        g = rand_game(4, 2, seed=seed, snap_bits=20)
        d = compute_deltas(g)
        u = np.asarray(g.utilities)
        scale = 2.0 ** 20
        assert np.all(d.delta_d * scale == np.round(d.delta_d * scale))
        assert np.all(d.delta * scale == np.round(d.delta * scale))


def test_audit_sets_empty_restriction():
    g = validate_game(4, 3, [UTIL_OK] * 4, cost_a=0.01)
    fmap = audit_sets(g)
    assert all(fmap[i] == frozenset({0, 1, 2}) for i in range(4))


def test_audit_sets_single_exclusion():
    g = validate_game(4, 3, [UTIL_OK] * 4, [(1, 0)], cost_a=0.01)
    fmap = audit_sets(g)
    assert fmap[0] == frozenset({0, 2})


def test_audit_sets_explosion_family():
    g = explosion_game(4)
    fmap = audit_sets(g)
    assert fmap[2] == frozenset({1})          # third target: second resource
    assert fmap[0] == frozenset({0, 1, 2, 3})  # first target: all


def test_audit_sets_restriction_involution():
    for seed in range(25):
        g = rand_game(5, 3, density=0.3, seed=seed)
        fmap = audit_sets(g)
        assert frozenset(
            (j, i) for i in range(g.n_targets)
            for j in range(g.n_resources) if j not in fmap[i]
        ) == g.restrictions
        # the one audit graph, against a brute force from the restrictions
        brute = tuple(
            tuple(j for j in range(g.n_resources)
                  if (j, i) not in g.restrictions)
            for i in range(g.n_targets))
        assert g.unauditable == tuple(not r for r in brute)
        assert fmap == tuple(map(frozenset, brute))
        assert CoverageNetwork(g).resources == brute


def test_validation_matches_perturbation():
    # random valid instances pass; a single injected violation fails
    rng = np.random.default_rng(0)
    for seed in range(30):
        g = rand_game(4, 2, density=0.2, seed=seed)
        utils = [list(q) for q in g.utilities]
        i = int(rng.integers(0, 4))
        if rng.random() < 0.5:
            utils[i][0], utils[i][1] = min(utils[i][0], utils[i][1]) - 0.1, \
                max(utils[i][0], utils[i][1])
        else:
            utils[i][2], utils[i][3] = max(utils[i][2], utils[i][3]) + 0.1, \
                min(utils[i][2], utils[i][3])
        with pytest.raises(GameValidationError):
            validate_game(4, 2, utils, g.restrictions, cost_a=0.01)


def test_file_roundtrip_bit_exact(tmp_path):
    g = rand_game(5, 2, density=0.25, seed=9, a_vec=True)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_dict(g), indent=2, sort_keys=True))
    g2 = load_game(path)
    assert g2.utilities == g.utilities
    assert g2.restrictions == g.restrictions
    assert g2.per_target_costs == g.per_target_costs
    assert g2.cost_a == g.cost_a and g2.input_bits == g.input_bits


def test_file_unknown_keys_rejected():
    data = game_to_dict(rand_game(3, 1, seed=1))
    data["extra"] = 1
    with pytest.raises(UsageError):
        game_from_dict(data)
    data.pop("extra")
    data["targets"][0]["bogus"] = 2.0
    with pytest.raises(UsageError):
        game_from_dict(data)


def test_target_costs_default_to_uniform_cost():
    g = rand_game(3, 1, seed=2, cost_a=0.03)
    assert g.target_costs == (0.03, 0.03, 0.03)
