"""The curvature input and the named configurations of the verification suites.

The asymmetry operator is determined by the Riemannian manifold and its
orientation.  At a point that input is the Ricci tensor and its covariant
derivative (``CurvatureConfig``) and the orientation symbol ``EPSILON``.

The 24 unit configurations place a single 1 in either the Ricci tensor at
the origin (c1 .. c6, ordered by the index pairs 11, 12, 13, 22, 23, 33,
off-diagonal entries set symmetrically) or in one slot of its covariant
derivative (c7 .. c24, ordered by derivative direction 1, 2, 3 times the
same six index pairs).  "flat" is the all-zero configuration.

Only c1 .. c6, c11, c15 and c20 obey the contracted Bianchi identity
sum_a dric0[a][a][b] = (1/2) sum_a dric0[b][a][a], which holds for every
metric.  No metric has the other 15, so on them the agreement of the
asymmetry value with its closed form is a formal identity in the constants.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .exactpoly import parse_rational

#: Totally antisymmetric symbol epsilon_{abc} on index triples (0-based).
EPSILON = {
    (0, 1, 2): 1,
    (1, 2, 0): 1,
    (2, 0, 1): 1,
    (0, 2, 1): -1,
    (2, 1, 0): -1,
    (1, 0, 2): -1,
}


@dataclass(frozen=True)
class CurvatureConfig:
    """Ricci tensor and its covariant derivative at the origin.

    ric0 is a symmetric 3x3 matrix of rationals; dric0 holds the three
    symmetric 3x3 matrices (grad_1 Ric, grad_2 Ric, grad_3 Ric).  Entries are
    stored as nested tuples of Fractions (strings are parsed exactly; floats
    are refused, since a binary fraction is not the decimal that was meant).
    Symmetry in the last two indices is enforced; no differential identity
    relating the 24 constants is imposed, they are treated as independent.
    """

    __slots__ = ("ric0", "dric0")
    ric0: Sequence
    dric0: Sequence

    def __post_init__(self) -> None:
        ric = _exact_array(self.ric0, 2, "ric")
        dric = _exact_array(self.dric0, 3, "dric")
        if ric != tuple(zip(*ric)):
            raise ValueError("ric0 must be symmetric")
        if any(m != tuple(zip(*m)) for m in dric):
            raise ValueError("each dric0 slice must be symmetric")
        object.__setattr__(self, "ric0", ric)
        object.__setattr__(self, "dric0", dric)

    @property
    def denominator(self) -> int:
        """2 times the lcm of the 36 entries' denominators; it times an entry,
        half a scalar curvature or a Riemann entry is an integer."""
        entries = (v for m in (self.ric0, *self.dric0) for row in m for v in row)
        return 2 * lcm(*(v.denominator for v in entries))

    @property
    def ricci_flat(self) -> bool:
        """Whether the Ricci tensor vanishes at the origin."""
        return not any(v for row in self.ric0 for v in row)

    def scalar0(self) -> object:
        return sum(self.ric0[i][i] for i in range(3))

    def dscalar0(self, s: int) -> object:
        return sum(self.dric0[s][i][i] for i in range(3))

    def to_dict(self) -> dict:
        return {
            "ric": [[str(v) for v in row] for row in self.ric0],
            "dric": [[[str(v) for v in row] for row in m] for m in self.dric0],
        }

    @staticmethod
    def from_dict(data: object) -> "CurvatureConfig":
        """Inverse of to_dict.

        Entries must be integers, exact rationals or rational strings; read
        JSON with ``parse_float=parse_rational`` so that decimals stay exact.
        """
        if not isinstance(data, Mapping) or not {"ric", "dric"} <= data.keys():
            raise ValueError("config must be an object with keys 'ric' and 'dric'")
        return CurvatureConfig(data["ric"], data["dric"])

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @staticmethod
    def loads(text: str) -> "CurvatureConfig":
        try:
            data = json.loads(text, parse_float=parse_rational)
        except RecursionError:
            raise ValueError("config JSON nests too deeply") from None
        return CurvatureConfig.from_dict(data)


def _exact_array(value: object, depth: int, key: str) -> tuple:
    """value as nested tuples of Fractions, if it is a depth-fold nested
    3-list of integers, Fractions or rational strings; else ValueError."""

    def walk(v: object, d: int):
        if d:
            if isinstance(v, (list, tuple)) and len(v) == 3:
                return tuple(walk(w, d - 1) for w in v)
        elif isinstance(v, float):
            raise ValueError(f"entry {v!r} is a float: give it as a 'p/q' string")
        elif isinstance(v, str):
            try:
                return parse_rational(v)
            except ZeroDivisionError:
                raise ValueError(f"entry {v!r} divides by zero") from None
        elif isinstance(v, (int, Fraction)) and not isinstance(v, bool):
            return v if isinstance(v, Fraction) else Fraction(v)
        raise ValueError(
            f"{key} must be a {'x'.join('3' * depth)} list of integers, "
            "decimals or 'p/q' strings"
        )

    return walk(value, depth)


_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

UNIT_CONFIG_NAMES = tuple(f"c{i}" for i in range(1, 25))


@functools.cache  # a frozen config of Fractions: every caller shares one
def unit_config(name: str) -> CurvatureConfig:
    """Configuration by name: "flat" or "c1" .. "c24"."""
    ric = [[Fraction(0)] * 3 for _ in range(3)]
    dric = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    if name == "flat":
        return CurvatureConfig(ric, dric)
    if name not in UNIT_CONFIG_NAMES:
        raise ValueError(f"unknown configuration {name!r}")
    idx = int(name[1:]) - 1
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
