"""Audit game instances, derived utility differences, and validation.

An instance has ``n`` targets and ``k < n`` inspection resources.  Each
resource audits at most one target and may be barred from some targets
by the restriction set ``R`` (pairs ``(j, i)`` meaning resource ``j``
cannot audit target ``i``).  The defender additionally chooses a
punishment rate ``x`` in ``[0, 1]`` whose cost enters the objective as
``-a*x`` and, optionally, ``-a1*x`` scaled by the covered probability.

The audit graph, each target's ascending tuple of allowed resources
(``AuditGame.auditors``), is derived from ``R`` once, by
:func:`validate_game`; no other module reads ``R``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from .errors import GameValidationError, UsageError

DEFAULT_INPUT_BITS = 20

# Fixed-point magnitude guard: a utility u declared at K fractional bits
# must keep u * 2^K inside a 63-bit register.
_FIXED_POINT_LIMIT = 2.0 ** 62


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


@dataclass(frozen=True)
class AuditGame:
    """Validated audit game instance.  Immutable; safe to share."""

    n_targets: int
    n_resources: int
    utilities: tuple  # per target: (ud_audited, ud_unaudited, ua_audited, ua_unaudited)
    restrictions: frozenset  # of (resource j, target i)
    cost_a: float
    cost_a1: float = 0.0
    per_target_costs: tuple | None = None
    input_bits: int = DEFAULT_INPUT_BITS
    auditors: tuple = ()  # per target: ascending tuple of allowed resources
    unauditable: tuple = ()  # per-target flag: no allowed resource
    order_warnings: tuple = ()  # violations accepted under lenient validation

    @property
    def target_costs(self) -> tuple:
        """Per-target punishment costs, defaulting every entry to cost_a."""
        if self.per_target_costs is not None:
            return self.per_target_costs
        return (self.cost_a,) * self.n_targets


@dataclass(frozen=True)
class DeltaTable:
    """Utility differences used throughout the solvers.

    delta_d[i]      = ud_audited(i) - ud_unaudited(i)   (defender gain from coverage)
    delta[i]        = ua_unaudited(i) - ua_audited(i)   (attacker loss from coverage)
    delta_pair[i,j] = ua_unaudited(i) - ua_unaudited(j)
    """

    delta_d: np.ndarray
    delta: np.ndarray
    delta_pair: np.ndarray


def is_real(v, kind=numbers.Real) -> bool:
    """Whether ``v`` is a number of ``kind``; bools are not numbers."""
    return (type(v) is int or type(v) is float and kind is numbers.Real
            or isinstance(v, kind) and not isinstance(v, bool))


def _check_utilities(utilities, input_bits, lenient):
    violations = []
    warnings = []
    for i, quad in enumerate(utilities):
        if len(quad) != 4:
            violations.append(Violation(
                "IndexOutOfRange", f"target {i}: expected 4 utilities, got {len(quad)}"))
            continue
        ud_a, ud_u, ua_a, ua_u = quad
        for v in quad:
            if not math.isfinite(v):
                violations.append(Violation(
                    "PrecisionOverflow", f"target {i}: non-finite utility {v!r}"))
            elif abs(v) * 2.0 ** input_bits > _FIXED_POINT_LIMIT:
                violations.append(Violation(
                    "PrecisionOverflow",
                    f"target {i}: |{v}| needs more than {input_bits} fixed-point bits"))
        if ud_a < ud_u:
            violations.append(Violation(
                "UtilityOrderViolation",
                f"target {i}: ud_audited {ud_a} < ud_unaudited {ud_u}"))
        if ua_u < ua_a:
            v = Violation(
                "UtilityOrderViolation",
                f"target {i}: ua_audited {ua_a} > ua_unaudited {ua_u}")
            if lenient:
                warnings.append(v)
            else:
                violations.append(v)
    return violations, warnings


def validate_game(
    n_targets: int,
    n_resources: int,
    utilities,
    restrictions=(),
    cost_a: float = 0.0,
    cost_a1: float = 0.0,
    per_target_costs=None,
    input_bits: int = DEFAULT_INPUT_BITS,
    lenient: bool = False,
) -> AuditGame:
    """Build a validated :class:`AuditGame` or raise :class:`GameValidationError`.

    All violations are collected before raising.  With ``lenient=True`` the
    attacker-side utility ordering is downgraded to a recorded warning; this
    exists for published instances that narrowly break the ordering.
    """
    violations = []
    if n_targets < 1:
        violations.append(Violation("IndexOutOfRange", f"n_targets {n_targets} < 1"))
    if n_resources < 1:
        violations.append(Violation("IndexOutOfRange", f"n_resources {n_resources} < 1"))
    if n_resources >= max(n_targets, 1):
        violations.append(Violation(
            "KTooLarge", f"k={n_resources} must be < n={n_targets}"))
    if len(utilities) != n_targets:
        violations.append(Violation(
            "IndexOutOfRange",
            f"{len(utilities)} utility rows for {n_targets} targets"))
    if not (is_real(input_bits, numbers.Integral) and 1 <= input_bits <= 52):
        violations.append(Violation(
            "PrecisionOverflow", f"input_bits {input_bits!r} not an int in [1, 52]"))
        input_bits = DEFAULT_INPUT_BITS

    util_violations, warnings = _check_utilities(utilities, input_bits, lenient)
    violations.extend(util_violations)

    restricted = set()
    for pair in restrictions:
        try:
            j, i = pair
        except (TypeError, ValueError):
            j = i = None
        if type(j) is not int or type(i) is not int:
            if not (is_real(j, numbers.Integral)
                    and is_real(i, numbers.Integral)):
                violations.append(Violation(
                    "MalformedInput", f"restriction {pair!r} is not two indices"))
                continue
            j, i = int(j), int(i)
        if not (0 <= j < n_resources and 0 <= i < n_targets):
            violations.append(Violation(
                "IndexOutOfRange", f"restriction ({j}, {i}) out of range"))
        else:
            restricted.add((j, i))

    if per_target_costs is not None:
        if len(per_target_costs) != n_targets:
            violations.append(Violation(
                "IndexOutOfRange",
                f"{len(per_target_costs)} per-target costs for {n_targets} targets"))
        elif any(c < 0 for c in per_target_costs):
            violations.append(Violation(
                "UtilityOrderViolation", "per-target costs must be nonnegative"))
    if cost_a < 0 or cost_a1 < 0:
        violations.append(Violation(
            "UtilityOrderViolation", "cost coefficients must be nonnegative"))

    if violations:
        raise GameValidationError(violations)

    # The audit graph.  A target barred from every resource is legal but
    # flagged; its coverage probability is pinned to 0 by every solver.
    allowed = [[True] * n_resources for _ in range(n_targets)]
    for j, i in restricted:
        allowed[i][j] = False
    auditors = tuple(tuple(compress(range(n_resources), row)) for row in allowed)
    return AuditGame(
        n_targets=n_targets,
        n_resources=n_resources,
        utilities=tuple(tuple(float(v) for v in quad) for quad in utilities),
        restrictions=frozenset(restricted),
        cost_a=float(cost_a),
        cost_a1=float(cost_a1),
        per_target_costs=None if per_target_costs is None
        else tuple(float(c) for c in per_target_costs),
        input_bits=input_bits,
        auditors=auditors,
        unauditable=tuple(not r for r in auditors),
        order_warnings=tuple(warnings),
    )


def compute_deltas(game: AuditGame) -> DeltaTable:
    """Exact elementwise utility differences (native float arithmetic)."""
    u = np.asarray(game.utilities, dtype=float)
    delta_d = u[:, 0] - u[:, 1]
    delta = u[:, 3] - u[:, 2]
    ua_u = u[:, 3]
    delta_pair = ua_u[:, None] - ua_u[None, :]
    return DeltaTable(delta_d=delta_d, delta=delta, delta_pair=delta_pair)


def audit_sets(game: AuditGame) -> tuple:
    """F(t_i) per target i: the frozenset of resources not excluded from
    target i by the restrictions."""
    return tuple(map(frozenset, game.auditors))


# --- instance files -------------------------------------------------------

_TOP_KEYS = {"targets", "resources", "restrictions", "a", "a1", "a_vec", "input_bits"}
_TARGET_KEYS = {"ud_a", "ud_u", "ua_a", "ua_u"}


def game_from_dict(data: dict, lenient: bool = False) -> AuditGame:
    if not isinstance(data, dict):
        raise UsageError("instance must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise UsageError(f"unknown instance keys: {sorted(unknown)}")
    for key in ("targets", "resources", "a"):
        if key not in data:
            raise UsageError(f"instance missing required key {key!r}")
    for key in ("targets", "restrictions", "a_vec"):
        if not isinstance(data.get(key, []), list):
            raise UsageError(f"{key!r} must be an array")
    targets = data["targets"]
    utilities = []
    for i, entry in enumerate(targets):
        if not isinstance(entry, dict):
            raise UsageError(f"target {i} must be an object")
        unknown = set(entry) - _TARGET_KEYS
        if unknown:
            raise UsageError(f"target {i}: unknown keys {sorted(unknown)}")
        missing = _TARGET_KEYS - set(entry)
        if missing:
            raise UsageError(f"target {i}: missing keys {sorted(missing)}")
        utilities.append((entry["ud_a"], entry["ud_u"], entry["ua_a"], entry["ua_u"]))
    if not is_real(data["resources"], numbers.Integral):
        raise UsageError("'resources' must be an integer")
    costs = [data["a"], data.get("a1", 0.0), *(data.get("a_vec") or ())]
    if not all(map(is_real, chain(costs, *utilities))):
        raise UsageError("utilities and costs must be numbers")
    return validate_game(
        n_targets=len(targets),
        n_resources=data["resources"],
        utilities=utilities,
        restrictions=data.get("restrictions", ()),
        cost_a=data["a"],
        cost_a1=data.get("a1", 0.0),
        per_target_costs=data.get("a_vec"),
        input_bits=data.get("input_bits", DEFAULT_INPUT_BITS),
        lenient=lenient,
    )


def game_to_dict(game: AuditGame) -> dict:
    data = {
        "targets": [
            {"ud_a": q[0], "ud_u": q[1], "ua_a": q[2], "ua_u": q[3]}
            for q in game.utilities
        ],
        "resources": game.n_resources,
        "restrictions": sorted([j, i] for (j, i) in game.restrictions),
        "a": game.cost_a,
        "a1": game.cost_a1,
        "input_bits": game.input_bits,
    }
    if game.per_target_costs is not None:
        data["a_vec"] = list(game.per_target_costs)
    return data


def load_game(path, lenient: bool = False) -> AuditGame:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read instance file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed instance file {path}: {exc}") from exc
    return game_from_dict(data, lenient=lenient)

