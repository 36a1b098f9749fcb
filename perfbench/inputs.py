"""Seeded input generation for the three benchmark workloads.

Every generator is a pure function of (seed, n): the same seed gives the
same inputs, and the first n inputs do not depend on n.  The program under
test only ever sees these inputs; the expected answers come from how each
input was constructed, never from the program.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Dict, List

BRANCH_PARAMS = {"generic": ("b", "c", "e"), "b_zero": ("c", "e"), "c_zero": ("b", "e")}

# One cycle of the decide workload.  The small tier follows verify-quartic,
# which makes one decision per branch per trial, so each branch gets 3 small
# points.  The tall tier is a stress share on top of that: one tall point per
# branch, a quarter of all ops.
DECIDE_MIX = (("generic", "small"), ("b_zero", "small"), ("c_zero", "small"),
              ("generic", "tall"),
              ("generic", "small"), ("b_zero", "small"), ("c_zero", "small"),
              ("b_zero", "tall"),
              ("generic", "small"), ("b_zero", "small"), ("c_zero", "small"),
              ("c_zero", "tall"))

# Tall tier heights.  b and c are rationals with numerator and denominator
# near 10^6.  e stays an integer near 10^6: with e = n/d at 10^6/10^6 one
# b = 0 decision takes 0.2 s to 12 s in the O(sqrt|coeff|) rational-root
# search, and the roadmap's e = 10^9 + 7 does not finish in 60 s, so
# neither fits an operation that must finish.
TALL_LOW, TALL_HIGH = 5 * 10 ** 5, 2 * 10 ** 6

NUMERIC_KINDS = ("member", "non_member", "beta_member")


def _nonzero(rng: random.Random, low: int, high: int) -> int:
    v = 0
    while v == 0:
        v = rng.randint(low, high)
    return v


def _tall_int(rng: random.Random) -> int:
    return rng.choice((-1, 1)) * rng.randint(TALL_LOW, TALL_HIGH)


def _draw(rng: random.Random, tier: str, param: str) -> Fraction:
    if tier == "small":
        # the range verify-quartic draws its trial points from
        return Fraction(_nonzero(rng, -20, 20))
    if param == "e":
        return Fraction(_tall_int(rng))
    return Fraction(_tall_int(rng), rng.randint(TALL_LOW, TALL_HIGH))


def cold_verify_inputs(seed: int, n: int) -> List[Dict]:
    """Seeds passed to `verify-quartic --seed`."""
    rng = random.Random(f"cold-verify|{seed}")
    return [{"seed": rng.randrange(10 ** 9)} for _ in range(n)]


def decide_inputs(seed: int, n: int) -> List[Dict]:
    """Branch, height tier and exact parameter point of each decision."""
    rng = random.Random(f"decide|{seed}")
    out = []
    for i in range(n):
        branch, tier = DECIDE_MIX[i % len(DECIDE_MIX)]
        point = {p: _draw(rng, tier, p) for p in BRANCH_PARAMS[branch]}
        out.append({"branch": branch, "tier": tier, "point": point})
    return out


def _quartic_text(rng: random.Random) -> str:
    coeffs = [_nonzero(rng, -3, 3) for _ in range(4)] + [rng.choice((-2, -1, 1, 2))]
    return " + ".join(f"({c})*x1^{k}" for k, c in enumerate(coeffs))


def numeric_inputs(seed: int, n: int) -> List[Dict]:
    """Potentials of three kinds with initial data on the invariant plane.

    Every coefficient is nonzero, so each kind has a fixed term count and
    a fixed cost per RK4 step.

    member:      lambda0 + P4(x1)*x2^2; phi is constant, so x1 is linear in t
                 and the NVE coefficient is a quartic polynomial in t.
    non_member:  lambda0 + k*x1^2/2 + P4(x1)*x2^2; the plane motion
                 oscillates, so the coefficient is not polynomial in t.
    beta_member: a member plus a beta(x1)*x2^3 term, invisible on the plane.
    """
    rng = random.Random(f"numeric|{seed}")
    out = []
    for i in range(n):
        kind = NUMERIC_KINDS[i % len(NUMERIC_KINDS)]
        phi = str(_nonzero(rng, -3, 3))
        if kind == "non_member":
            phi += f" + {rng.randint(1, 3)}*x1^2/2"
        text = f"{phi} + ({_quartic_text(rng)})*x2^2"
        if kind == "beta_member":
            text += f" + ({_nonzero(rng, -3, 3)} + ({_nonzero(rng, -3, 3)})*x1)*x2^3"
        init = [round(rng.uniform(0.3, 1.2), 3), round(rng.uniform(0.4, 1.4), 3), 0.0, 0.0]
        out.append({"kind": kind, "potential": text, "init": init})
    return out


GENERATORS = {"cold-verify": cold_verify_inputs, "decide": decide_inputs,
              "numeric": numeric_inputs}


def dumps(inputs) -> str:
    """Canonical text of a list of inputs (rationals as 'p/q' strings)."""
    return json.dumps(inputs, sort_keys=True, default=str)
