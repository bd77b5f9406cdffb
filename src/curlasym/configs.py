"""Named curvature configurations used across the verification suites.

The 24 unit configurations place a single 1 in either the Ricci tensor at
the origin (c1 .. c6, ordered by the index pairs 11, 12, 13, 22, 23, 33,
off-diagonal entries set symmetrically) or in one slot of its covariant
derivative (c7 .. c24, ordered by derivative direction 1, 2, 3 times the
same six index pairs).  "flat" is the all-zero configuration.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .geometry import CurvatureConfig

_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

UNIT_CONFIG_NAMES = tuple(f"c{i}" for i in range(1, 25))


def unit_config(name: str) -> CurvatureConfig:
    """Configuration by name: "flat" or "c1" .. "c24"."""
    if name == "flat":
        return CurvatureConfig.flat()
    if name not in UNIT_CONFIG_NAMES:
        raise ValueError(f"unknown configuration {name!r}")
    idx = int(name[1:]) - 1
    ric = [[Fraction(0)] * 3 for _ in range(3)]
    dric = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    if idx < 6:
        a, b = _PAIRS[idx]
        ric[a][b] = Fraction(1)
        ric[b][a] = Fraction(1)
    else:
        s, pair = divmod(idx - 6, 6)
        a, b = _PAIRS[pair]
        dric[s][a][b] = Fraction(1)
        dric[s][b][a] = Fraction(1)
    return CurvatureConfig(ric, dric)


def random_config(rng: random.Random) -> CurvatureConfig:
    """Random symmetric configuration with entries p/q, |p| <= 3, 1 <= q <= 6."""

    def draw():
        num = rng.randint(-3, 3)
        den = rng.randint(1, 6)
        return Fraction(num, den)

    ric = [[Fraction(0)] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(a, 3):
            v = draw()
            ric[a][b] = v
            ric[b][a] = v
    dric = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for s in range(3):
        for a in range(3):
            for b in range(a, 3):
                v = draw()
                dric[s][a][b] = v
                dric[s][b][a] = v
    return CurvatureConfig(ric, dric)


def random_bianchi_config(rng: random.Random) -> CurvatureConfig:
    """Random Ricci-flat-at-origin config obeying the contracted Bianchi rule.

    Enforces div Ric = (1/2) grad Sc on the derivative data, the constraint
    every genuine metric satisfies.  The direct curvature-tensor assembly of
    the Laplacian symbol parts agrees with the operator-composition oracle
    exactly on this class (and only on it).
    """
    base = random_config(rng)
    z = ((Fraction(0),) * 3,) * 3
    dric = [[list(row) for row in sl] for sl in base.dric0]
    for nu in (0, 1):
        defect = Fraction(1, 2) * sum(dric[nu][i][i] for i in range(3)) - sum(
            dric[mu][mu][nu] for mu in range(3)
        )
        dric[2][2][nu] += defect
        dric[2][nu][2] += defect
    defect = Fraction(1, 2) * sum(dric[2][i][i] for i in range(3)) - sum(
        dric[mu][mu][2] for mu in range(3)
    )
    dric[2][2][2] += 2 * defect
    return CurvatureConfig(z, dric)
