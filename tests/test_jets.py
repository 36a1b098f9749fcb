"""Jet layer: Lie derivative, coefficient recurrence, membership."""

import random
from fractions import Fraction

import pytest

from lie import lie_derivative
from quartic_nve.jets import (alpha_jet, conditions_vanish, enk_table,
                              generate_conditions, phi_jet)
from quartic_nve.mpoly import MPoly

y1 = MPoly.var("y1")
a0 = MPoly.var(alpha_jet(0))
a1 = MPoly.var(alpha_jet(1))
a2 = MPoly.var(alpha_jet(2))
a3 = MPoly.var(alpha_jet(3))
p1 = MPoly.var(phi_jet(1))
p2 = MPoly.var(phi_jet(2))
p3 = MPoly.var(phi_jet(3))


class TestLieDerivative:
    def test_first(self):
        assert lie_derivative(a0) == y1 * a1

    def test_second(self):
        assert lie_derivative(y1 * a1) == y1 ** 2 * a2 - p1 * a1

    def test_pure_jet_shift(self):
        assert lie_derivative(a2) == y1 * a3


class TestEnkTable:
    def test_top_entries_are_jets(self):
        t = enk_table(8)
        for n in range(1, 9):
            assert t.entry(n, n) == MPoly.var(alpha_jet(n))

    def test_parity_zeros(self):
        t = enk_table(8)
        for n in range(1, 9):
            for k in range(0, n + 1):
                if (n - k) % 2 == 1:
                    assert t.entry(n, k).is_zero
        assert t.entry(3, 2).is_zero

    def test_hand_expanded_entry(self):
        # E(4,2) from the recurrence by hand, starting at
        # E(3,1) = -(phi2*alpha1 + 3*phi1*alpha2) and E(3,3) = alpha3
        t = enk_table(4)
        assert t.entry(3, 1) == -(p2 * a1 + 3 * p1 * a2)
        expected = -(p3 * a1 + 4 * p2 * a2 + 6 * p1 * a3)
        assert t.entry(4, 2) == expected

    def test_matches_iterated_operator(self):
        # the recurrence is cross-checked against the semantic oracle:
        # coefficient extraction from eight iterated Lie derivatives
        t = enk_table(8)
        power = a0
        for n in range(1, 9):
            power = lie_derivative(power)
            for k in range(0, n + 1):
                assert power.coefficient("y1", k) == t.entry(n, k), (n, k)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            enk_table(0)


class TestGenerateConditions:
    def test_quartic_set(self):
        cond = generate_conditions(4)
        assert [(n, k) for (n, k, _) in cond.conditions] == [(5, 5), (5, 3), (5, 1)]

    def test_constant_coefficient(self):
        cond = generate_conditions(0)
        assert len(cond.conditions) == 1
        assert cond.conditions[0][2] == a1

    def test_quadratic_set(self):
        # parity rule: only E(3,3) and E(3,1) survive
        cond = generate_conditions(2)
        polys = {(n, k): p for (n, k, p) in cond.conditions}
        assert set(polys) == {(3, 3), (3, 1)}
        assert polys[(3, 3)] == a3
        assert polys[(3, 1)] == -(p2 * a1 + 3 * p1 * a2)

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            generate_conditions(-1)

    def test_no_underived_alpha(self):
        for d in range(0, 7):
            for (_, _, poly) in generate_conditions(d).conditions:
                assert alpha_jet(0) not in poly.vars

    def test_odd_degree_includes_order_zero(self):
        # for odd target degree the y1^0 coefficient is a genuine condition
        cond = generate_conditions(1)
        polys = {(n, k): p for (n, k, p) in cond.conditions}
        assert (2, 0) in polys
        assert polys[(2, 0)] == -(a1 * p1)


def concrete_flow(alpha, phi, n):
    """X_h^n alpha for concrete alpha(x1), phi(x1), iterated directly on
    polynomials in (x1, y1): X_h = y1 d/dx1 - phi'(x1) d/dy1."""
    dphi = phi.diff("x1")
    for _ in range(n):
        alpha = y1 * alpha.diff("x1") - dphi * alpha.diff("y1")
    return alpha


def random_poly(rng, degree):
    x1 = MPoly.var("x1")
    out = MPoly.zero()
    for i in range(degree + 1):
        out = out + MPoly.const(Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))) * x1 ** i
    return out


class TestPullback:
    def test_first_derivative(self):
        # alpha = x1^2 along free motion: a' = 2 x1 y1 survives at degree 0
        x1 = MPoly.var("x1")
        assert concrete_flow(x1 ** 2, MPoly.zero(), 1) == 2 * x1 * y1
        assert not conditions_vanish(generate_conditions(0), x1 ** 2, MPoly.zero())

    def test_zero_alpha(self):
        for d in range(5):
            assert conditions_vanish(generate_conditions(d), MPoly.zero(), MPoly.var("x1"))

    def test_quartic_with_flat_phi(self):
        x1 = MPoly.var("x1")
        assert conditions_vanish(generate_conditions(4), x1 ** 4, MPoly.zero())

    def test_vanishes_for_low_degree_alpha_flat_phi(self):
        # forward direction at constant phi: alpha of degree <= d satisfies
        # the degree-d conditions
        rng = random.Random(3)
        x1 = MPoly.var("x1")
        for _ in range(20):
            d = rng.randint(0, 6)
            alpha = MPoly.zero()
            for i in range(d + 1):
                alpha = alpha + MPoly.const(Fraction(rng.randint(-5, 5))) * x1 ** i
            assert conditions_vanish(generate_conditions(d), alpha, MPoly.const(3))

    def test_nonmember_detected(self):
        # phi = x1^2/2, alpha = x1^4: the degree-4 conditions do not all vanish
        x1 = MPoly.var("x1")
        assert not conditions_vanish(generate_conditions(4), x1 ** 4,
                                     MPoly.const(Fraction(1, 2)) * x1 ** 2)

    def test_agrees_with_concrete_flow(self):
        # members come from free motion (phi constant, deg alpha <= d),
        # constant force (phi linear, 2 deg alpha <= d) and constant alpha;
        # the rest are random
        rng = random.Random(17)
        conds = {d: generate_conditions(d) for d in range(7)}
        outcomes = []
        for _ in range(300):
            d = rng.randint(0, 6)
            kind = rng.randrange(5)
            if kind == 0:
                alpha, phi = random_poly(rng, rng.randint(0, d)), random_poly(rng, 0)
            elif kind == 1:
                alpha, phi = random_poly(rng, rng.randint(0, d // 2)), random_poly(rng, 1)
            elif kind == 2:
                alpha, phi = random_poly(rng, 0), random_poly(rng, rng.randint(0, 3))
            else:
                alpha, phi = random_poly(rng, rng.randint(1, 5)), random_poly(rng, rng.randint(0, 3))
            expected = concrete_flow(alpha, phi, d + 1).is_zero
            assert conditions_vanish(conds[d], alpha, phi) == expected, (d, alpha, phi)
            outcomes.append(expected)
        assert outcomes.count(True) >= 75 and outcomes.count(False) >= 75, outcomes.count(True)
