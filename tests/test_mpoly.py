"""Exact-algebra layer: arithmetic, gcd, determinants, resultants."""

import random
from fractions import Fraction

import pytest

from quartic_nve.mpoly import (MPoly, canonical_vars, det_mpoly, exact_div,
                               poly_gcd, resultant)

x = MPoly.var("x")
b = MPoly.var("b")
c = MPoly.var("c")
e = MPoly.var("e")


def rand_poly(rng, vars=("x", "b", "c"), max_deg=3, max_terms=5):
    p = MPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = MPoly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for v in vars:
            term = term * MPoly.var(v, rng.randint(0, max_deg))
        p = p + term
    return p


class TestDiff:
    def test_power_rule(self):
        p = 4 * e * x ** 3 + 2 * c * x + b
        assert p.diff("x") == 12 * e * x ** 2 + 2 * c

    def test_constant(self):
        assert b.diff("x").is_zero

    def test_expand_then_termwise(self):
        # oracle: differentiate after expanding x*(b - 8 e x^3) term by term
        p = x * (b - 8 * e * x ** 3)
        assert p.diff("x") == b - 32 * e * x ** 3


class TestSplit:
    def test_reassembles_random_polynomials(self):
        # sum over the split of coefficient * monomial gives the polynomial
        # back, and collect is the one-variable case of the split
        rng = random.Random(5)
        for _ in range(30):
            p = rand_poly(rng, vars=("x", "b", "c", "e"))
            for names in (("x",), ("x", "c"), ("e", "b"), ("K1", "x")):
                parts = p.split(names)
                back = MPoly.zero()
                for exps, coeff in parts.items():
                    assert not coeff.is_zero
                    assert not set(coeff.vars) & set(names)
                    for v, k in zip(names, exps):
                        coeff = coeff * MPoly.var(v, k)
                    back = back + coeff
                assert back == p
            assert p.collect("c") == {k: q for (k,), q in p.split(("c",)).items()}

    def test_absent_variable_and_zero(self):
        assert (b * x).split(("x", "K1")) == {(1, 0): b}
        assert MPoly.zero().split(("x",)) == {}
        assert MPoly.const(3).collect("x") == {0: MPoly.const(3)}


class TestMonomialContent:
    def test_minimum_exponents_outside_the_main_variable(self):
        p = 3 * b ** 2 * c * e * x ** 2 - 6 * b ** 3 * c ** 2 * e * x
        assert p.monomial_content("x") == b ** 2 * c * e
        assert (p / p.monomial_content("x")).monomial_content("x") == MPoly.const(1)

    def test_non_monomial_content_is_not_found(self):
        # (b + c) divides every coefficient, but no monomial does
        assert ((b + c) * (x + e)).monomial_content("x") == MPoly.const(1)


class TestGcd:
    def test_linear_factor(self):
        assert poly_gcd(x ** 2 - 1, x ** 2 - 2 * x + 1) == x - 1

    def test_unit(self):
        assert poly_gcd(4 * e * x ** 3 + 2 * c * x + b, MPoly.const(1)) == MPoly.const(1)

    def test_gcd_with_zero(self):
        assert poly_gcd(MPoly.zero(), 3 * x - 3) == x - 1
        with pytest.raises(ValueError):
            poly_gcd(MPoly.zero(), MPoly.zero())

    def test_wronskian_coefficient_content(self):
        # transcribed x-coefficients of the classical generic-case Wronskian;
        # their common content must be a monomial multiple of b^3 c^3
        coeffs = [
            162 * c ** 3 * b ** 7,
            1296 * b ** 6 * c ** 4,
            3888 * b ** 5 * c ** 5,
            2592 * b ** 6 * e * c ** 3 + 5184 * b ** 4 * c ** 6,
            2592 * c ** 7 * b ** 3 + 15552 * b ** 5 * c ** 4 * e,
            31104 * b ** 4 * c ** 5 * e,
            15552 * b ** 5 * c ** 3 * e ** 2 + 20736 * b ** 3 * c ** 6 * e,
            62208 * b ** 4 * c ** 4 * e ** 2,
            62208 * b ** 3 * c ** 5 * e ** 2,
            41472 * b ** 4 * c ** 3 * e ** 3,
            82944 * b ** 3 * c ** 4 * e ** 3,
            41472 * b ** 3 * c ** 3 * e ** 4,
        ]
        g = coeffs[0]
        for co in coeffs[1:]:
            g = poly_gcd(g, co)
        assert g == b ** 3 * c ** 3
        quotient = exact_div(b ** 3 * c ** 3 * b, g)
        assert quotient == b  # sanity: divisibility exact


class TestDeterminant:
    def test_one_by_one(self):
        assert det_mpoly([[MPoly.const(1)]]) == MPoly.const(1)

    def test_triangular(self):
        assert det_mpoly([[MPoly.const(1), x], [MPoly.zero(), MPoly.const(1)]]) == MPoly.const(1)
        # a zero pivot is swapped away, which flips the sign
        assert det_mpoly([[MPoly.zero(), MPoly.const(1)], [MPoly.const(1), x]]) == MPoly.const(-1)

    def test_classic_wronskian(self):
        rows = [[MPoly.const(1), x, x ** 2], [MPoly.zero(), MPoly.const(1), 2 * x],
                [MPoly.zero(), MPoly.zero(), MPoly.const(2)]]
        assert det_mpoly(rows) == MPoly.const(2)

    def test_matches_evaluation(self):
        # substituting rational values before vs after the determinant
        rng = random.Random(11)
        for _ in range(50):
            mat = [[rand_poly(rng, max_deg=2, max_terms=3) for _ in range(3)]
                   for _ in range(3)]
            point = {v: Fraction(rng.randint(1, 7), rng.randint(1, 3))
                     for v in ("x", "b", "c")}
            sym = det_mpoly(mat)
            num = det_mpoly([[MPoly.const(entry.evaluate(point)) for entry in row]
                             for row in mat])
            assert sym.evaluate(point) == num.constant_value()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_mpoly([[MPoly.const(1), MPoly.const(2)]])


class TestResultant:
    def test_evaluation(self):
        assert resultant(x ** 2 + 1, x - 1, "x") == MPoly.const(2)

    def test_shared_root(self):
        K3 = MPoly.var("K3")
        assert resultant(K3 ** 2, K3 ** 2, "K3").is_zero

    def test_block_sylvester(self):
        # 2x2-block Sylvester determinant expanded by hand: (K1^2 + K2^2)^2
        K1, K2, K3 = (MPoly.var(k) for k in ("K1", "K2", "K3"))
        r = resultant(K1 ** 2 + K3 ** 2, K2 ** 2 - K3 ** 2, "K3")
        assert r == (K1 ** 2 + K2 ** 2) ** 2

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            resultant(x + 1, MPoly.const(2), "x")

    def test_vanishes_iff_common_root(self):
        # specialised resultant is zero iff the specialisations share a root,
        # detected via the degree of their gcd
        rng = random.Random(23)
        hits = 0
        for _ in range(40):
            p = rand_poly(rng, vars=("x", "b"), max_deg=3, max_terms=3)
            q = rand_poly(rng, vars=("x", "b"), max_deg=3, max_terms=3)
            if p.degree("x") < 1 or q.degree("x") < 1:
                continue
            if rng.random() < 0.5:
                q = q * (x - 1) + MPoly.zero()
                p = p * (x - 1)
            point = {"b": Fraction(rng.randint(-5, 5))}
            ps, qs = p.subs(point), q.subs(point)
            if ps.degree("x") < 1 or qs.degree("x") < 1:
                continue
            res_val = resultant(p, q, "x").subs(point)
            shares = poly_gcd(ps, qs).degree("x") > 0
            if shares:
                assert res_val.is_zero
                hits += 1
            # no common root and nonvanishing leading terms => nonzero
            elif (not p.coefficient("x", p.degree("x")).subs(point).is_zero
                  and not q.coefficient("x", q.degree("x")).subs(point).is_zero):
                assert not res_val.is_zero
        assert hits >= 5


class TestMalformedInput:
    def test_duplicate_variable_rejected(self):
        # the second "x" used to collapse onto the first: x*y, not x^2*y
        with pytest.raises(ValueError, match="duplicate"):
            MPoly(("y", "x", "x"), {(1, 1, 1): 1})

    def test_exponent_length_mismatch_rejected(self):
        # a 2-long exponent under one variable used to print as x but
        # multiply like x^2
        with pytest.raises(ValueError, match="one entry per variable"):
            MPoly(("x",), {(1, 2): 1})
        with pytest.raises(ValueError, match="one entry per variable"):
            MPoly(("x", "b"), {(1,): 1})

    def test_non_canonical_order_is_remapped(self):
        y = MPoly.var("y")
        assert MPoly(("y", "x"), {(2, 1): 3}) == 3 * x * y ** 2
        assert MPoly(("e", "b", "x"), {(1, 0, 2): Fraction(1, 2), (0, 0, 0): 0}).to_text() \
            == "1/2*x^2*e"


class TestIntegerKernelAgainstSympy:
    """Seeded property test of the integer arithmetic: every result equals
    sympy's expand/div/diff/coeff/subs term for term and is stored in normal
    form."""

    VARS = ("x", "b", "c", "e")

    def _random_poly(self, rng):
        names = [v for v in self.VARS if rng.random() < 0.7] or ["x"]
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 3) for _ in names)
            terms[exps] = Fraction(rng.choice([-9, -5, -2, -1, 1, 3, 4, 7]),
                                   rng.choice([1, 2, 3, 4, 6, 7, 10]))
        return MPoly(names, terms)

    @staticmethod
    def _assert_normal_form(p):
        assert p.vars == canonical_vars(p.vars)
        for i in range(len(p.vars)):
            assert any(exps[i] for exps in p.terms), f"unused {p.vars[i]} in {p.vars}"
        for exps, q in p.terms.items():
            assert len(exps) == len(p.vars)
            assert type(q) is Fraction and q != 0

    def _terms(self, p):
        """{exponents over VARS: Fraction} of an MPoly."""
        idx = [p.vars.index(v) if v in p.vars else None for v in self.VARS]
        return {tuple(e[i] if i is not None else 0 for i in idx): q
                for e, q in p.terms.items()}

    def _sympy_terms(self, expr, syms):
        import sympy
        poly = sympy.Poly(expr, *syms)
        return {m: Fraction(int(q.p), int(q.q)) for m, q in poly.as_dict().items()}

    def _to_sympy(self, p, syms):
        import sympy
        by_name = dict(zip(self.VARS, syms))
        total = sympy.Integer(0)
        for exps, q in p.terms.items():
            term = sympy.Rational(q.numerator, q.denominator)
            for v, k in zip(p.vars, exps):
                term *= by_name[v] ** k
            total += term
        return total

    def test_matches_sympy(self):
        import sympy
        syms = sympy.symbols(self.VARS)
        rng = random.Random(20240611)
        for _ in range(100):
            a, b_ = self._random_poly(rng), self._random_poly(rng)
            sa, sb = self._to_sympy(a, syms), self._to_sympy(b_, syms)
            # (a + b)(a - b) cancels the cross terms; (a + b) - b and
            # (a - b) + b cancel b
            p, q = a + b_, a - b_
            sp, sq = sa + sb, sa - sb
            k = rng.randint(0, 3)
            cases = [(p * q, sp * sq), (p + q, sp + sq), (p - q, sp - sq),
                     (p - b_, sa), (q + b_, sa), (a * b_, sa * sb),
                     (p ** k, sp ** k)]
            k_x = rng.randint(0, 3)
            cases += [(p.diff("x"), sympy.diff(sp, syms[0])),
                      (p.coefficient("x", k_x), sympy.expand(sp).coeff(syms[0], k_x))]
            for got, want in cases:
                self._assert_normal_form(got)
                assert self._terms(got) == self._sympy_terms(sympy.expand(want), syms)
            point = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for v in self.VARS}
            value = sp.subs({sym: sympy.Rational(r.numerator, r.denominator)
                             for sym, r in zip(syms, point.values())})
            assert p.evaluate(point) == Fraction(int(value.p), int(value.q))
            if not q.is_zero:
                quo = exact_div(p * q, q)
                self._assert_normal_form(quo)
                want, rem = sympy.div(sympy.expand(sp * sq), sq, *syms)
                assert rem == 0
                assert self._terms(quo) == self._sympy_terms(want, syms)
                assert quo == p

    def test_content_and_primitive_match_sympy(self):
        # sympy's Poly.primitive() is the positive content and the
        # integer-primitive cofactor; MPoly.primitive() also makes the
        # lex-leading coefficient positive
        import sympy
        syms = sympy.symbols(self.VARS)
        rng = random.Random(20261019)
        polys = [MPoly.zero()] + [self._random_poly(rng) for _ in range(100)]
        # scaled copies carry a content other than 1/L, some a negative one
        polys += [p * Fraction(rng.choice([-21, -6, 10, 35]), rng.randint(1, 12))
                  for p in polys[1:41]]
        for p in polys:
            content, prim = sympy.Poly(self._to_sympy(p, syms), *syms).primitive()
            assert p.content() == Fraction(str(content))
            if prim.LC() < 0:
                prim = -prim
            assert self._terms(p.primitive()) == self._sympy_terms(prim.as_expr(), syms)

    def test_subs_matches_sympy(self):
        # simultaneous substitution of scalars (0 among them) and
        # polynomials, some of which contain the substituted variable
        # (x -> x + 1), with names that p lacks or that no polynomial has
        import sympy
        syms = sympy.symbols(self.VARS)
        by_name = dict(zip(self.VARS, syms))
        rng = random.Random(20261020)
        for _ in range(100):
            p = self._random_poly(rng)
            assignment, replace = {"K1": self._random_poly(rng)}, {}
            for v in rng.sample(self.VARS, rng.randint(1, len(self.VARS))):
                kind = rng.choice(("zero", "scalar", "poly", "shift"))
                if kind == "zero":
                    value = 0
                elif kind == "scalar":
                    value = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                elif kind == "poly":
                    value = self._random_poly(rng)
                else:
                    value = MPoly.var(v) + 1
                assignment[v] = value
                replace[by_name[v]] = self._to_sympy(
                    value if isinstance(value, MPoly) else MPoly.const(value), syms)
            got = p.subs(assignment)
            self._assert_normal_form(got)
            want = sympy.expand(self._to_sympy(p, syms).xreplace(replace))
            assert self._terms(got) == self._sympy_terms(want, syms)
        assert (x * b).subs({"c": 5, "K1": x}) == x * b

    def test_inexact_division_raises(self):
        # a leading coefficient that does not divide: 2x + 1 into x^2 + 1
        with pytest.raises(ValueError):
            exact_div(x ** 2 + 1, 2 * x + 1)
        assert exact_div((2 * x + 1) * (x - Fraction(1, 3)), 4 * x + 2) \
            == Fraction(1, 2) * x - Fraction(1, 6)
        rng = random.Random(7)
        for _ in range(30):
            p = self._random_poly(rng)
            if p.is_constant():
                continue
            with pytest.raises(ValueError):
                exact_div(p * x + Fraction(1, 3), p)


class TestRingAxioms:
    def test_associativity_distributivity(self):
        rng = random.Random(5)
        for _ in range(200):
            p = rand_poly(rng, vars=("x", "b", "c", "e"), max_deg=6, max_terms=4)
            q = rand_poly(rng, vars=("x", "b", "c", "e"), max_deg=6, max_terms=4)
            r = rand_poly(rng, vars=("x", "b", "c", "e"), max_deg=6, max_terms=4)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert (p + q) + r == p + (q + r)

    def test_gcd_multiplicative(self):
        rng = random.Random(6)
        for _ in range(25):
            p = rand_poly(rng, vars=("x", "b"), max_deg=2, max_terms=2)
            q = rand_poly(rng, vars=("x", "b"), max_deg=2, max_terms=2)
            g = rand_poly(rng, vars=("x", "b"), max_deg=2, max_terms=2)
            if p.is_zero or q.is_zero or g.is_zero:
                continue
            lhs = poly_gcd(p * g, q * g)
            rhs = poly_gcd(p, q) * g
            # associates: lhs divides rhs and vice versa after normalisation
            assert lhs == rhs.primitive()


def test_golden_text_forms():
    cases = [
        (x ** 2 + 1, "x^2 + 1"),
        (MPoly.zero(), "0"),
        (-Fraction(1, 2) * MPoly.var("x2") ** 2, "-1/2*x2^2"),
        (4 * e * x ** 3 + 2 * c * x + b, "4*x^3*e + 2*x*c + b"),
        (x * b - x, "x*b - x"),
        (MPoly.const(Fraction(-3, 4)), "-3/4"),
    ]
    for poly, expected in cases:
        assert poly.to_text() == expected


def test_golden_file_round_trip():
    import pathlib
    from quartic_nve.potential import parse_mpoly
    path = pathlib.Path(__file__).parent / "golden" / "mpoly_text.txt"
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        source, expected = (part.strip() for part in line.split("|"))
        poly = parse_mpoly(source)
        assert poly.to_text() == expected
        assert parse_mpoly(expected) == poly
