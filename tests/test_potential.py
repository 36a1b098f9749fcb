"""Expression parsing, invariant-plane validation, canonical formatting."""

import random
from fractions import Fraction

import pytest

from quartic_nve.mpoly import MPoly
from quartic_nve.potential import (InvariantPlaneError, ParseError, Potential,
                                   parse_mpoly, parse_potential)


def test_member_decomposition():
    pot = parse_potential("x1^2/2 + (x1^4+1)*x2^2")
    x1 = MPoly.var("x1")
    assert pot.phi == Fraction(1, 2) * x1 ** 2
    assert pot.alpha == -2 * (x1 ** 4 + 1)


def test_beta_detected():
    pot = parse_potential("1 + x1*x2^2 + x2^3")
    assert pot.v.degree("x2") == 3
    assert pot.phi == 1
    assert pot.alpha == -2 * MPoly.var("x1")


def test_invariant_plane_violation():
    with pytest.raises(InvariantPlaneError) as info:
        parse_potential("x2")
    assert "x2" in str(info.value)
    with pytest.raises(InvariantPlaneError):
        parse_potential("x1^2/2 + x1*x2")


def test_direct_construction_is_checked():
    x1, x2 = MPoly.var("x1"), MPoly.var("x2")
    with pytest.raises(InvariantPlaneError) as info:
        Potential(x1 * x2, MPoly.zero(), MPoly.zero())
    assert str(info.value).endswith("offending linear part: (x1) * x2")
    with pytest.raises(InvariantPlaneError):
        parse_potential("x1^2*x2^2")._replace(v=x1 * x2)


def test_negative_exponent_is_syntax_error():
    with pytest.raises(ParseError) as info:
        parse_potential("x1^(-1)")
    assert info.value.position >= 0


def test_errors_carry_position():
    cases = ["x1 + ", "(x1", "x1^x1", "2x1", "x1/x2", "x3"]
    for text in cases:
        with pytest.raises(ParseError) as info:
            parse_potential(text)
        assert 0 <= info.value.position <= len(text)


def test_non_ascii_is_rejected_at_its_position():
    # digits and identifiers are ASCII: int() rejects a superscript two,
    # and an Arabic-Indic three is no silent 3
    cases = {"2\u00b2*x2^2": 1, "x1^\u00b2": 3, "\u0663*x2^2": 0,
             "\u03b1*x2^2": 0, "x1\u00e9": 2}
    for text, position in cases.items():
        with pytest.raises(ParseError) as info:
            parse_potential(text)
        assert str(info.value) == (f"unexpected character {text[position]!r} "
                                   f"(at position {position})")


def test_rational_literals_and_division():
    pot = parse_potential("3/4*x1 - x1^2/2")
    x1 = MPoly.var("x1")
    assert pot.phi == Fraction(3, 4) * x1 - Fraction(1, 2) * x1 ** 2


def test_leading_sign():
    pot = parse_potential("-x1^2 + 1")
    x1 = MPoly.var("x1")
    assert pot.phi == 1 - x1 ** 2


def test_format_examples():
    x1, x2 = MPoly.var("x1"), MPoly.var("x2")
    assert (x1 ** 2 + 1).to_text() == "x1^2 + 1"
    assert MPoly.zero().to_text() == "0"
    assert (-Fraction(1, 2) * x2 ** 2).to_text() == "-1/2*x2^2"


def test_round_trip_random():
    rng = random.Random(42)
    for _ in range(500):
        p = MPoly.zero()
        for _ in range(rng.randint(1, 6)):
            coeff = Fraction(rng.randint(-10 ** 6, 10 ** 6),
                             rng.randint(1, 10 ** 6))
            term = MPoly.const(coeff) * MPoly.var("x1", rng.randint(0, 8)) \
                * MPoly.var("x2", rng.randint(0, 8))
            p = p + term
        text = p.to_text()
        assert parse_mpoly(text, allowed=("x1", "x2")) == p
