"""Quartic specialisation, centering, rational kernels, degenerations."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from quartic_nve.jets import generate_conditions
from quartic_nve.mpoly import MPoly, poly_gcd
from quartic_nve.odes import (BRANCHES, Ansatz, LinearODE, NonlinearODE,
                              SolutionBasis, _jet_numerators, _product,
                              ansatz_denominator, branch_system, cancel,
                              center_and_reduce, degeneration_branches, derive_ansatz,
                              generic_quartic_system, quartic_alpha, rational_basis,
                              rational_kernel, residual, solves, specialize_quartic,
                              DERIVED_NL_WEIGHTS, PUBLISHED_NL_WEIGHTS)

x = MPoly.var("x")
x1 = MPoly.var("x1")
a, b, c, d, e = (MPoly.var(v) for v in "abcde")


@pytest.fixture(scope="module")
def quartic_system():
    cond = generate_conditions(4)
    linear, nonlinear = specialize_quartic(cond)
    l2, nl2, mu = center_and_reduce(linear, nonlinear)
    return cond, linear, nonlinear, l2, nl2, mu


@pytest.fixture(scope="module")
def branch_bases(quartic_system):
    _, _, _, l2, nl2, _ = quartic_system
    out = {}
    for br in BRANCHES:
        lb, nb = branch_system(br, (l2, nl2))
        out[br.name] = (lb, nb, rational_basis(lb, br.anchor))
    return out


class TestSpecializeQuartic:
    def test_linear_matches_classical_display(self, quartic_system):
        _, linear, _, _, _, _ = quartic_system
        expected = [
            MPoly.zero(),
            240 * e,
            240 * e * x1 + 60 * d,
            60 * e * x1 ** 2 + 30 * d * x1 + 10 * c,
            4 * e * x1 ** 3 + 3 * d * x1 ** 2 + 2 * c * x1 + b,
        ]
        norm = linear.normalized()
        # equality up to exactly one overall nonzero constant: after joint
        # primitive normalisation both coefficient vectors agree termwise
        target = LinearODE("x1", tuple(expected)).normalized()
        assert norm.coeffs == target.coeffs

    def test_constant_term_of_alpha_absent(self, quartic_system):
        _, linear, nonlinear, _, _, _ = quartic_system
        for cf in linear.coeffs:
            assert "a" not in cf.vars
        assert "a" not in nonlinear.poly.vars

    def test_nonlinear_weights_derived_not_published(self, quartic_system):
        # the quadratic condition is alpha1*(y')^2 + 3*alpha1*y*y''
        # + 15*alpha2*y*y' + 15*alpha3*y^2 up to one constant; the classical
        # printed display (weights (3, 7, 1, 1)) is not proportional to it
        _, _, nonlinear, _, _, _ = quartic_system
        y, yp, ypp = (MPoly.var(v) for v in ("y", "yp", "ypp"))
        alpha1 = b + 2 * c * x1 + 3 * d * x1 ** 2 + 4 * e * x1 ** 3
        alpha2 = 2 * c + 6 * d * x1 + 12 * e * x1 ** 2
        alpha3 = 6 * d + 24 * e * x1
        w_y2, w_yyp, w_yp2, w_yypp = DERIVED_NL_WEIGHTS
        derived = (w_y2 * alpha3 * y ** 2 + w_yyp * alpha2 * y * yp
                   + w_yp2 * alpha1 * yp ** 2 + w_yypp * alpha1 * y * ypp)
        assert nonlinear.normalized().poly == NonlinearODE("x1", derived).normalized().poly
        pw_y2, pw_yyp, pw_yp2, pw_yypp = PUBLISHED_NL_WEIGHTS
        published = (pw_y2 * alpha3 * y ** 2 + pw_yyp * alpha2 * y * yp
                     + pw_yp2 * alpha1 * yp ** 2 + pw_yypp * alpha1 * y * ypp)
        assert nonlinear.normalized().poly != NonlinearODE("x1", published).normalized().poly
        # same monomial support, different constants
        assert set(nonlinear.normalized().poly.terms) == set(
            NonlinearODE("x1", published).normalized().poly.terms)

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            specialize_quartic(generate_conditions(2))


def _at(ode, point):
    """A linear equation with the substitution applied to every coefficient."""
    return LinearODE(ode.var, tuple(cf.subs(point) for cf in ode.coeffs)).normalized()


def _centered_point(coeffs):
    """mu = -d/(4e) and the (b, c, e) of alpha(x + mu), alpha from coeffs."""
    mu = -Fraction(coeffs[3]) / (4 * coeffs[4])
    shifted = quartic_alpha("x1").subs({**dict(zip("abcde", coeffs)),
                                        "x1": x + MPoly.const(mu)})
    assert shifted.coefficient("x", 3).is_zero
    return mu, {v: shifted.coefficient("x", k).constant_value()
                for v, k in (("b", 1), ("c", 2), ("e", 4))}


class TestCenterAndReduce:
    def test_binomial_shift(self, quartic_system):
        # alpha = (x1 - 1)^4: the translation by mu = 1 recenters to x^4, and
        # the uncentered equation at x1 = x + 1 is L2 at (b, c, e) = (0, 0, 1)
        _, linear, _, l2, _, (mu, pole) = quartic_system
        coeffs = (1, -4, 6, -4, 1)
        point = dict(zip("abcde", coeffs))
        assert mu.subs(point) == _product(pole).subs(point)
        assert _centered_point(coeffs) == (1, {"b": 0, "c": 0, "e": 1})
        moved = _at(LinearODE("x", linear.coeffs[1:]), {**point, "x1": x + 1})
        assert moved.coeffs == _at(l2, {"b": 0, "c": 0, "e": 1}).coeffs

    def test_already_centered(self, quartic_system):
        _, linear, _, l2, _, (mu, _) = quartic_system
        point = dict(zip("abcde", (2, 3, 5, 0, 7)))
        assert mu.subs(point).is_zero
        moved = _at(LinearODE("x", linear.coeffs[1:]), {**point, "x1": x})
        assert moved.coeffs == _at(l2, {"b": 3, "c": 5, "e": 7}).coeffs

    def test_symbolic_shift(self, quartic_system):
        # mu = -d / (4e), cross-multiplied
        mu, pole = quartic_system[5]
        assert mu * 4 * e == -d * _product(pole)

    def test_generic_l2_matches_display(self, quartic_system):
        _, _, _, l2, _, _ = quartic_system
        expected = LinearODE("x", (
            240 * e, 240 * e * x, 60 * e * x ** 2 + 10 * c,
            4 * e * x ** 3 + 2 * c * x + b)).normalized()
        assert l2.normalized().coeffs == expected.coeffs


FROZEN_BASES = {
    # anchored reduced-echelon kernels, integer-primitive, anchor coordinate
    # positive; re-derived from scratch by rational_kernel and residual-checked
    "generic": (
        -8 * c ** 2 * e ** 2 * x ** 6 + 84 * b * c * e ** 2 * x ** 5
        + (168 * b ** 2 * e ** 2 + 12 * c ** 3 * e) * x ** 4
        - 21 * b ** 3 * e * x + 3 * b ** 2 * c ** 2,
        4 * c ** 2 * e * x ** 6 - 42 * b * c * e * x ** 5
        - (48 * b ** 2 * e + 6 * c ** 3) * x ** 4 + 9 * b ** 2 * c * x ** 2
        + 6 * b ** 3 * x,
        -8 * c ** 2 * e * x ** 6 + 12 * b * c * e * x ** 5
        + (24 * b ** 2 * e + 12 * c ** 3) * x ** 4 + 12 * b * c ** 2 * x ** 3
        - 3 * b ** 3 * x,
    ),
    "b_zero": (
        16 * e ** 3 * x ** 6 + 6 * c ** 2 * e * x ** 2 + c ** 3,
        c * x ** 3 - 6 * e * x ** 5,
        3 * c * x ** 4 - 2 * e * x ** 6,
    ),
    "c_zero": (
        16 * e ** 2 * x ** 6 - 28 * b * e * x ** 3 + b ** 2,
        b * x - 8 * e * x ** 4,
        b * x ** 2 - 2 * e * x ** 5,
    ),
}

# classical published numerators (x^3-cleared for the b = 0 case)
PUBLISHED_N1 = (4 * e * c ** 2 * x ** 6 - 42 * b * e * c * x ** 5
                - (6 * c ** 3 + 48 * e * b ** 2) * x ** 4
                + 9 * b ** 2 * c * x ** 2 + 6 * b ** 3 * x)
PUBLISHED_N2_PRINTED = (8 * e * c * x ** 6 - 12 * b * c * e * x ** 5
                        - (24 * e * b ** 2 + 12 * c ** 3) * x ** 4
                        - 12 * b * c ** 2 * x ** 3 + 3 * b ** 3 * x)
PUBLISHED_N3 = (8 * c ** 2 * e ** 2 * x ** 6 - 84 * b * c * e ** 2 * x ** 5
                - (12 * c ** 3 * e + 168 * b ** 2 * e ** 2) * x ** 4
                + 21 * b ** 3 * e * x - 3 * b ** 2 * c ** 2)
PUBLISHED_A = (
    x ** 3 * (6 * e * x ** 2 - c),
    x ** 3 * x * (-3 * c + 2 * e * x ** 2),
    c ** 3 + 6 * e * c ** 2 * x ** 2 + 16 * e ** 3 * x ** 6,
)
PUBLISHED_B = (
    x * (b - 8 * e * x ** 3),
    x ** 2 * (b - 2 * e * x ** 3),
    b ** 2 - 28 * e * b * x ** 3 + 16 * e ** 2 * x ** 6,
)


class TestRationalKernel:
    def test_trivial_third_derivative(self):
        ode = LinearODE("x", (MPoly.zero(), MPoly.zero(), MPoly.zero(), MPoly.const(1)))
        basis = rational_kernel(ode, MPoly.const(1), 1, 0, 6)
        assert basis.dimension == 3
        assert basis.numerators == (MPoly.const(1), x, x ** 2)
        w, pole = basis.wronskian()
        assert w == 2 * _product(pole)

    def test_dimensions_and_frozen_numerators(self, branch_bases):
        for name, frozen in FROZEN_BASES.items():
            _, _, basis = branch_bases[name]
            assert basis.dimension == 3
            assert basis.numerators == frozen, name

    def test_residuals_vanish(self, branch_bases):
        for name in FROZEN_BASES:
            lb, _, basis = branch_bases[name]
            den = _product(basis.factors())
            for num in basis.numerators:
                assert solves(lb, num, den)
                # third order: the residual sits over den^(1 + 3)
                assert residual(lb, num, den) == (MPoly.zero(), ((den, 4),))

    def test_non_solution_has_residual(self, branch_bases):
        lb, _, basis = branch_bases["generic"]
        assert not residual(lb, x, basis.denominator)[0].is_zero

    def test_ansatz_denominators(self, branch_bases):
        gen = branch_bases["generic"][2]
        assert gen.denominator == 4 * e * x ** 3 + 2 * c * x + b
        assert gen.extra_pole_order == 0
        bz = branch_bases["b_zero"][2]
        assert bz.denominator == 2 * e * x ** 2 + c
        assert bz.extra_pole_order == 3
        cz = branch_bases["c_zero"][2]
        assert cz.denominator == 4 * e * x ** 3 + b
        assert cz.extra_pole_order == 0

    def test_derived_ansatz(self, branch_bases):
        # exponents 0, 1, -3 at each simple root of alpha' (x = 0 on b = 0),
        # and -3, -4, -5 at infinity: deg P <= 9 - 3
        expected = {"generic": (4 * e * x ** 3 + 2 * c * x + b, 0),
                    "b_zero": (2 * e * x ** 2 + c, 3),
                    "c_zero": (4 * e * x ** 3 + b, 0)}
        for name, (denom, extra) in expected.items():
            lb, _, basis = branch_bases[name]
            assert derive_ansatz(lb) == Ansatz(denom, 3, extra, 6), name
            assert ansatz_denominator(lb) == (denom, extra)
            assert basis.numerator_degree_bound == 6
            # a larger bound finds no further solution
            wider = rational_kernel(lb, denom, 3, extra, 8, anchor=basis.anchor)
            assert wider.numerators == basis.numerators, name

    def test_multiple_root_at_x_rejected(self, quartic_system):
        # b = c = 0: alpha' = 4 e x^3, where the simple-root exponents fail
        l2 = quartic_system[3]
        lb = LinearODE("x", tuple(cf.subs({"b": 0, "c": 0}) for cf in l2.coeffs))
        with pytest.raises(ValueError, match=r"x\^3 divides the leading coefficient"):
            derive_ansatz(lb)

    def test_repeated_root_of_d_rejected(self):
        # (x^2 + 1)^2 u' + 4 x (x^2 + 1) u = 0: D = (x^2 + 1)^2 has double roots
        with pytest.raises(ValueError, match=r"x\^4 \+ 2\*x\^2 \+ 1 is not square-free"):
            derive_ansatz(LinearODE("x", (4 * x * (x ** 2 + 1), (x ** 2 + 1) ** 2)))
        # a repeated parameter factor is no repeated root: b^2 (x^2 + 1)
        # u' + 6 b^2 x u = 0 is solved by (x^2 + 1)^-3
        basis = rational_basis(LinearODE("x", (6 * b ** 2 * x, b ** 2 * (x ** 2 + 1))))
        assert (basis.denominator, basis.denominator_exponent, basis.numerators) == (
            b ** 2 * (x ** 2 + 1), 3, (MPoly.const(1),))

    def test_derived_ansatz_of_small_equations(self):
        one, zero = MPoly.const(1), MPoly.zero()
        # y''' = 0: no finite pole, k (k - 1) (k - 2) at infinity
        assert rational_basis(LinearODE("x", (zero, zero, zero, one))).numerators == (
            one, x, x ** 2)
        # x y' + 3 y = 0: exponent -3 at x = 0 and at infinity, so y = 1/x^3
        euler = rational_basis(LinearODE("x", (3 * one, x)))
        assert (euler.extra_pole_order, euler.numerators) == (3, (one,))
        # y' + y = 0: no integer exponent at infinity
        assert derive_ansatz(LinearODE("x", (one, one))).numerator_degree_bound == -1
        assert rational_basis(LinearODE("x", (one, one))).dimension == 0
        # (x^2 - 1) y' + y = 0: exponents 1/2 and -1/2 at the two roots
        with pytest.raises(ValueError, match="not the same at every root"):
            derive_ansatz(LinearODE("x", (one, x ** 2 - 1)))

    def test_published_numerators_span_check(self, branch_bases):
        # classical N1, N3 are genuine solutions; the printed N2 is not
        # (its x^6 coefficient is a typo) -- the derived kernel is authoritative
        lb, _, basis = branch_bases["generic"]
        den = _product(basis.factors())
        assert solves(lb, PUBLISHED_N1, den)
        assert solves(lb, PUBLISHED_N3, den)
        assert not solves(lb, PUBLISHED_N2_PRINTED, den)
        corrected = PUBLISHED_N2_PRINTED - 8 * e * c * x ** 6 + 8 * e * c ** 2 * x ** 6
        assert solves(lb, corrected, den)
        assert corrected == -FROZEN_BASES["generic"][2]

    def test_published_branch_numerators_verify(self, branch_bases):
        lbA, _, basisA = branch_bases["b_zero"]
        denA = _product(basisA.factors())
        for num in PUBLISHED_A:
            assert solves(lbA, num, denA)
        lbB, _, basisB = branch_bases["c_zero"]
        denB = _product(basisB.factors())
        for num in PUBLISHED_B:
            assert solves(lbB, num, denB)

    def test_wronskian_consistency(self, branch_bases):
        # basis Wronskian equals the numerator Wronskian divided by the
        # cube of the common denominator
        for name in FROZEN_BASES:
            _, _, basis = branch_bases[name]
            num_w = basis.numerator_wronskian()
            den = _product(basis.factors()) ** 3
            w, pole = basis.wronskian()
            assert w * den == num_w * _product(pole)
            assert not w.is_zero

    def test_invalid_anchor_rejected(self, branch_bases):
        lb, _, _ = branch_bases["b_zero"]
        denom, pole = ansatz_denominator(lb)
        with pytest.raises(ValueError):
            rational_kernel(lb, denom, 3, pole, 8, anchor=(0, 1, 2))

    def test_anchor_semantics(self, branch_bases):
        # anchor=None picks the lexicographically first valid anchor, and a
        # valid anchor gives the reduced echelon basis on its coordinates
        lb = {name: branch_bases[name][0] for name in FROZEN_BASES}
        pole_data = {name: ansatz_denominator(lb[name]) for name in FROZEN_BASES}

        def kernel(name, bound=8, anchor=None):
            denom, pole = pole_data[name]
            return rational_kernel(lb[name], denom, 3, pole, bound, anchor=anchor)

        for name, bound, expected in (("generic", 8, (0, 1, 2)), ("b_zero", 8, (0, 3, 4)),
                                      ("c_zero", 8, (0, 1, 2)), ("generic", 6, (0, 1, 2)),
                                      ("generic", 7, (0, 1, 2))):
            assert kernel(name, bound).anchor == expected, (name, bound)
        earlier = [t for t in combinations(range(9), 3) if t < (0, 3, 4)]
        assert len(earlier) == 13
        for triple in earlier:
            with pytest.raises(ValueError, match="not valid"):
                kernel("b_zero", anchor=triple)
        for last in range(2, 7):
            basis = kernel("generic", anchor=(0, 1, last))
            assert basis.anchor == (0, 1, last)
            # the anchor block is the identity up to each numerator's
            # positive scale
            for i, num in enumerate(basis.numerators):
                for j, col in enumerate(basis.anchor):
                    coeff = num.coefficient("x", col)
                    if i == j:
                        assert coeff.leading()[1] > 0, (last, i)
                    else:
                        assert coeff.is_zero, (last, i, j)
        for last in (7, 8):
            with pytest.raises(ValueError, match="not valid"):
                kernel("generic", anchor=(0, 1, last))

    def test_row_anchors_give_classical_bases(self, branch_bases):
        # each row's anchor (None: lex-first) solves to the basis at the
        # classical anchors, anchor field included
        classical = {"generic": (0, 2, 3), "b_zero": (0, 3, 4), "c_zero": (0, 1, 2)}
        for br in BRANCHES:
            lb, _, basis = branch_bases[br.name]
            assert basis == rational_basis(lb, classical[br.name]), br.name
            assert basis.anchor == classical[br.name]

    def test_degree_bound_below_kernel_rejected(self, branch_bases):
        # bound 4 leaves one kernel vector for a three-entry anchor
        lb, _, _ = branch_bases["b_zero"]
        denom, pole = ansatz_denominator(lb)
        with pytest.raises(ValueError, match="kernel dimension 1"):
            rational_kernel(lb, denom, 3, pole, 4, anchor=(0, 3, 4))

    def test_unknown_name_in_coefficients_rejected(self):
        # a coefficient using the ansatz unknown's name p0 makes the residual
        # quadratic in the unknowns
        ode = LinearODE("x", (MPoly.var("p0"), MPoly.const(1)))
        with pytest.raises(ValueError, match="not linear and homogeneous"):
            rational_kernel(ode, MPoly.const(1), 1, 0, 2)

    def test_empty_kernel_reported(self):
        # y' + y = 0 has no rational solutions: empty basis, not an error
        ode = LinearODE("x", (MPoly.const(1), MPoly.const(1)))
        basis = rational_kernel(ode, MPoly.const(1), 1, 0, 6)
        assert basis.dimension == 0


class TestJetNumerators:
    @staticmethod
    def _random_poly(rng, degree):
        return x ** degree + sum((rng.randint(-3, 3) * x ** i for i in range(degree)),
                                 MPoly.zero())

    def test_matches_iterated_quotient_rule(self):
        # y^(j) = N_j / prod f^(k+j) for each factor shape the pipeline uses,
        # against sympy's derivatives of num / prod f^k
        import sympy

        def to_sympy(p):
            return sympy.sympify(p.to_text().replace("^", "**"))

        def power_product(factors, shift):
            return sympy.Mul(*(to_sympy(f) ** (k + shift) for f, k in factors))

        rng = random.Random(23)
        for _ in range(3):
            num = self._random_poly(rng, 3)
            den = self._random_poly(rng, 2)
            D = self._random_poly(rng, 3)
            for factors in (((den, 1),), ((D, 3),), ((x, 3), (D, 3))):
                nums = _jet_numerators(num, factors, "x", 3)
                assert len(nums) == 4
                y = to_sympy(num) / power_product(factors, 0)
                for j, n_j in enumerate(nums):
                    quotient = to_sympy(n_j) / power_product(factors, j)
                    assert sympy.cancel(sympy.together(quotient - y)) == 0, (factors, j)
                    y = sympy.diff(y, sympy.Symbol("x"))


class TestNormalized:
    def test_matches_sympy_primitive_part(self):
        # normalized() divides the coefficients by their joint content and
        # makes the leading coefficient of the top-order one positive: the
        # primitive part of sum_j coeffs[j] * u_j in sympy, sign-fixed on its
        # lex-leading coefficient with the u_j ordered top order first
        import sympy
        names = ("x", "b", "c", "e")
        syms = sympy.symbols(names)
        rng = random.Random(20261019)

        def random_coeff():
            if rng.random() < 0.25:
                return MPoly.zero()
            return MPoly(names, {tuple(rng.randint(0, 3) for _ in names):
                                 Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 6]))
                                 for _ in range(rng.randint(1, 4))})

        for trial in range(60):
            coeffs = [random_coeff() for _ in range(rng.randint(1, 4))]
            while coeffs[-1].is_zero:
                coeffs[-1] = random_coeff()
            # half the cases lead with a negative coefficient on the last one
            if (coeffs[-1].leading()[1] < 0) != (trial % 2 == 0):
                coeffs[-1] = -coeffs[-1]
            us = sympy.symbols(f"u0:{len(coeffs)}")
            expr = sum(u * sympy.sympify(cf.to_text().replace("^", "**"))
                       for u, cf in zip(us, coeffs))
            _, prim = sympy.Poly(expr, *us[::-1], *syms).primitive()
            if prim.LC() < 0:
                prim = -prim
            got = LinearODE("x", tuple(coeffs)).normalized().coeffs
            for u, cf in zip(us, got):
                want = prim.as_expr().coeff(u)
                assert sympy.expand(sympy.sympify(cf.to_text().replace("^", "**"))
                                    - want) == 0


class TestConstructorChecks:
    @pytest.mark.parametrize("coeffs", [(), (MPoly.zero(),), (x, MPoly.zero())])
    def test_linear_needs_nonzero_leading_coefficient(self, coeffs):
        with pytest.raises(ValueError, match="leading coefficient must be nonzero"):
            LinearODE("x", coeffs)

    def test_nonlinear_must_be_quadratic_in_the_jet(self):
        with pytest.raises(ValueError, match="equation must be quadratic in the jet of y"):
            NonlinearODE("x", MPoly.var("y"))

    def test_replace_runs_the_checks(self):
        with pytest.raises(ValueError, match="leading coefficient must be nonzero"):
            LinearODE("x", (x,))._replace(coeffs=())
        with pytest.raises(ValueError, match="equation must be quadratic in the jet of y"):
            NonlinearODE("x", MPoly.var("y") ** 2)._replace(poly=MPoly.var("y"))


class TestCancel:
    def test_divides_each_factor_as_often_as_it_goes(self):
        num = 6 * x ** 2 * (x + 1)
        assert cancel(num, ((x, 3), (x + 1, 2), (x - 1, 1))) == (
            MPoly.const(6), ((x, 1), (x + 1, 1), (x - 1, 1)))

    def test_zero_and_constant_factors(self):
        assert cancel(MPoly.zero(), ((x, 2),)) == (MPoly.zero(), ())
        assert cancel(x, ((MPoly.const(4), 1),)) == (x, ((MPoly.const(4), 1),))


class TestDegeneration:
    def test_generic_branch_locus(self, branch_bases):
        _, _, basis = branch_bases["generic"]
        report = degeneration_branches(basis)
        assert [br.name for br in report.branches] == ["b_zero", "c_zero"]
        assert report.content == b ** 3 * c ** 3
        assert report.complete
        # every Wronskian x-coefficient is divisible by b^3 c^3
        w = basis.numerator_wronskian()
        for coeff in w.collect("x").values():
            g = poly_gcd(coeff, b ** 3 * c ** 3)
            assert g == b ** 3 * c ** 3 or coeff.is_zero

    def test_b_zero_degenerates_only_at_c_zero(self, branch_bases):
        _, _, basis = branch_bases["b_zero"]
        report = degeneration_branches(basis)
        assert [br.name for br in report.branches] == ["c_zero"]
        assert report.complete

    def test_c_zero_never_degenerates(self, branch_bases):
        _, _, basis = branch_bases["c_zero"]
        report = degeneration_branches(basis)
        assert report.branches == ()
        assert report.complete
        w = basis.numerator_wronskian()
        top = w.coefficient("x", 12)
        assert top == 512 * e ** 4

    def test_branch_completeness_random(self, branch_bases):
        # off the branches the generic Wronskian never vanishes; on them it
        # always does
        _, _, basis = branch_bases["generic"]
        w = basis.numerator_wronskian()
        rng = random.Random(9)
        for _ in range(50):
            pt = {v: Fraction(rng.choice([k for k in range(-9, 10) if k]))
                  for v in ("b", "c", "e")}
            assert not w.subs(pt).is_zero
        for _ in range(10):
            pt = {"b": Fraction(0),
                  "c": Fraction(rng.choice([1, 2, -3])),
                  "e": Fraction(rng.choice([1, -2, 5]))}
            assert w.subs(pt).is_zero
            pt = {"c": Fraction(0),
                  "b": Fraction(rng.choice([1, 2, -3])),
                  "e": Fraction(rng.choice([1, -2, 5]))}
            assert w.subs(pt).is_zero

    def test_non_monomial_content_is_incomplete(self):
        # numerator Wronskian b (b + c): only {b = 0} is read off the
        # monomial content, so the report must not claim completeness
        basis = SolutionBasis("x", MPoly.const(1), 1, 0, 2,
                              (MPoly.const(1), x, b * (b + c) * x ** 2 / 2), (0, 1, 2))
        assert basis.numerator_wronskian() == b * (b + c)
        report = degeneration_branches(basis)
        assert [br.name for br in report.branches] == ["b_zero"]
        assert report.complete is False

    def test_non_monomial_e_coefficient_is_incomplete(self):
        # numerator Wronskian (e + 3) x + b: e + 3 is free of b and c but
        # vanishes at e = -3, so no coefficient certifies completeness
        basis = SolutionBasis("x", MPoly.const(1), 1, 0, 3,
                              (MPoly.const(1), x,
                               (e + 3) * x ** 3 / 6 + b * x ** 2 / 2), (0, 1, 2))
        assert basis.numerator_wronskian() == (e + 3) * x + b
        report = degeneration_branches(basis)
        assert report.branches == ()
        assert report.complete is False

    def test_single_term_coefficient_certifies_content(self):
        # Wronskian b c e^2 x + b^2 c e: monomial content b c e, and the
        # x-coefficient b c e^2 is that content times a power of e
        basis = SolutionBasis("x", MPoly.const(1), 1, 0, 3,
                              (MPoly.const(1), x,
                               b * c * e ** 2 * x ** 3 / 6 + b ** 2 * c * e * x ** 2 / 2),
                              (0, 1, 2))
        report = degeneration_branches(basis)
        assert report.content == b * c * e
        assert [br.name for br in report.branches] == ["b_zero", "c_zero"]
        assert report.complete is True

    def test_zero_wronskian_rejected(self):
        dep = SolutionBasis("x", MPoly.const(1), 1, 0, 2,
                            (x, 2 * x, x ** 2), (0, 1, 2))
        with pytest.raises(ValueError):
            degeneration_branches(dep)


class TestOrderReduction:
    def test_shifted_solutions_solve_uncentered_equation(self, quartic_system):
        # y(x) solves the centered system iff y(x1 - mu) solves the original
        # reduced equation; verified at random rational parameter points
        _, linear, _, _, _, _ = quartic_system
        rng = random.Random(31)
        for _ in range(3):
            coeffs = (Fraction(rng.randint(-3, 3)),
                      Fraction(rng.randint(-3, 3)),
                      Fraction(rng.randint(-3, 3)),
                      Fraction(rng.randint(1, 3)),
                      Fraction(rng.randint(1, 3)))
            mu, subs = _centered_point(coeffs)
            # centered kernel at the shifted parameter values
            gen_basis = FROZEN_BASES["generic"]
            denom = (4 * e * x ** 3 + 2 * c * x + b).subs(subs)
            reduced = _at(LinearODE("x1", linear.coeffs[1:]), dict(zip("abcde", coeffs)))
            for num in gen_basis:
                spec_num = num.subs(subs)
                if spec_num.is_zero:
                    continue
                # translate x -> x1 - mu
                translated = spec_num.subs({"x": x1 - MPoly.const(mu)})
                translated_den = (denom ** 3).subs({"x": x1 - MPoly.const(mu)})
                assert solves(reduced, translated, translated_den)
