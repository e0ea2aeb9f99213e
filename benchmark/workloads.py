"""Seeded instance generators and the operations of each workload.

Everything here is independent of ``auditgames``: instances are plain
dicts in the instance-file format (``targets``, ``resources``,
``restrictions``, ``a``, ``a1``, optional ``a_vec``, ``input_bits``), and
the program only ever sees them as JSON files.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

INPUT_BITS = 20
COST_A = 0.01

# The published 7-target, single-resource instance.  Its seventh row has
# ua_audited 1.000 > ua_unaudited 0.999, so it needs --lenient.
PUBLISHED_ROWS = (
    (0.614, 0.598, 0.202, 0.287),
    (0.719, 0.036, 0.869, 0.999),
    (0.664, 0.063, 0.597, 0.946),
    (0.440, 0.322, 0.023, 0.624),
    (0.154, 0.098, 0.899, 0.902),
    (0.507, 0.170, 0.452, 0.629),
    (0.662, 0.371, 1.000, 0.999),
)


@dataclass(frozen=True)
class Operation:
    """One instance: solved with ``solve_args``, then decomposed."""

    name: str
    instance: dict
    method: str            # fpt | fptas | tsp
    epsilon: float | None  # grid step passed to the solver (fpt, tsp)
    lenient: bool = False
    cap: int | None = None  # connected-subgraph enumeration cap (--cap)
    # Times each report is decomposed per round; the mean time counts.
    decompose_repeats: int = 1

    @property
    def solve_args(self) -> list:
        args = ["--method", self.method]
        if self.method == "fptas":
            args += ["--root-bits", "20"]
        else:
            args += ["--epsilon", repr(self.epsilon)]
        if self.cap is not None:
            args += ["--cap", str(self.cap)]
        if self.lenient:
            args.append("--lenient")
        return args


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _snap(values) -> list:
    scale = 2.0 ** INPUT_BITS
    return [round(float(v) * scale) / scale for v in values]


def _utilities(rng, n: int) -> list:
    """Uniform payoffs on the input-bit grid, split at 1/2: audited defender
    and unaudited attacker payoffs lie in [1/2, 1), the other two in
    [0, 1/2).  So across targets, too, an audited attack is worse for the
    attacker and better for the defender than any unaudited one, and no
    target is cheap to concede.

    With unsplit uniform payoffs some optimum concedes a near-harmless
    target at almost no coverage.  On 80/40/10 that happened to about a
    third of the instances: total coverage fell from 30-40 to 2-5 and the
    decomposition became ten times cheaper, so decompose_s swung 2x between
    seeds.  fptas can miss such optima (see README.md).
    """
    rows = []
    for _ in range(n):
        r = rng.random(4)
        rows.append(tuple(_snap([0.5 + 0.5 * r[0], 0.5 * r[1],
                                 0.5 * r[2], 0.5 + 0.5 * r[3]])))
    return rows


def _instance(rows, k: int, restrictions, a_vec=None) -> dict:
    data = {
        "targets": [{"ud_a": r[0], "ud_u": r[1], "ua_a": r[2], "ua_u": r[3]}
                    for r in rows],
        "resources": k,
        "restrictions": sorted([int(j), int(i)] for j, i in restrictions),
        "a": COST_A,
        "a1": 0.0,
        "input_bits": INPUT_BITS,
    }
    if a_vec is not None:
        data["a_vec"] = list(a_vec)
    return data


def grouped_instance(rng, n: int, k: int, group: int) -> dict:
    """The paper's family: resources in disjoint groups of ``group``, each
    group allowed to audit only its own equal block of targets."""
    n_groups = k // group
    block = n // n_groups
    restrictions = [(j, i) for j in range(k) for i in range(n)
                    if not (j // group) * block <= i < (j // group + 1) * block]
    return _instance(_utilities(rng, n), k, restrictions)


def _restrictions(rng, n: int, k: int, density: float) -> list:
    """Exactly ``round(density * n * k)`` restricted pairs, spread evenly:
    each target loses the floor or the ceiling of the mean number of
    resources.  Targets losing the same number lose different sets until
    every set of that size is used, so audit sets are as varied as they
    can be, and the constraint extraction has the same graph to walk on
    every seed."""
    low, extra = divmod(round(density * n * k), n)
    pools = {}
    pairs = []
    for i, size in enumerate(rng.permutation([low + 1] * extra
                                             + [low] * (n - extra))):
        pool = pools.get(size) or list(combinations(range(k), int(size)))
        pairs.extend((j, i) for j in pool.pop(rng.integers(len(pool))))
        pools[size] = pool
    return pairs


def spread_instance(rng, n: int, k: int, density: float,
                    per_target_costs: bool = False) -> dict:
    """Restrictions spread evenly (see _restrictions)."""
    rows = _utilities(rng, n)
    a_vec = _snap(rng.uniform(0.005, 0.05, n)) if per_target_costs else None
    return _instance(rows, k, _restrictions(rng, n, k, density), a_vec)


def grouped_fpt(seed: int) -> list:
    return [Operation(f"grouped{idx}",
                      grouped_instance(_rng(seed, 1, idx), 80, 40, 10),
                      "fpt", 0.05, decompose_repeats=3)
            for idx in range(2)]


# Enumeration cap of the dense instances.  At the program's default cap of
# 10^6 one solve takes 20-45 s and 2.1 GB; at this cap it takes the same
# path (cap tripped, grid fallback) in a fifth of the time and a quarter
# of the memory.
DENSE_CAP = 150_000


def dense_restriction(seed: int) -> list:
    return [Operation(f"dense{idx}",
                      spread_instance(_rng(seed, 2, idx), 32, 8, 0.3),
                      "fpt", 0.05, cap=DENSE_CAP, decompose_repeats=15)
            for idx in range(2)]


def small_games(seed: int) -> list:
    ops = [Operation(f"grouped20-{idx}",
                     grouped_instance(_rng(seed, 3, idx), 20, 10, 5),
                     "fptas", None, decompose_repeats=7)
           for idx in range(2)]
    ops += [Operation(f"tsp8-{idx}", spread_instance(
                _rng(seed, 5, idx), 8, 2, 0.2, per_target_costs=True),
                      "tsp", 0.04, decompose_repeats=7)
            for idx in range(2)]
    published = _instance(PUBLISHED_ROWS, 1, ())
    ops.append(Operation("published", published, "fpt", 0.005, lenient=True,
                         decompose_repeats=7))
    return ops


WORKLOADS = {
    "grouped-fpt": grouped_fpt,
    "dense-restriction": dense_restriction,
    "small-games": small_games,
}
