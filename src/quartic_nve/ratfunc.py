"""Reduced rational functions over the multivariate polynomial ring.

A RatFunc is a pair num/den of MPoly with gcd(num, den) constant and den
monic in its canonical leading coefficient.  Arithmetic always returns the
reduced, sign-canonical representative, so structural equality is semantic
equality.  Values are immutable and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .mpoly import MPoly, Scalar, exact_div, poly_gcd


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: Union[MPoly, Scalar], den: Union[MPoly, Scalar] = 1):
        if not isinstance(num, MPoly):
            num = MPoly.const(num)
        if not isinstance(den, MPoly):
            den = MPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            num, den = MPoly.zero(), MPoly.const(1)
        else:
            g = poly_gcd(num, den)
            if not g.is_constant() or g.constant_value() != 1:
                num, den = exact_div(num, g), exact_div(den, g)
            lc = den.leading()[1]
            if lc != 1:
                num, den = num * (1 / lc), den * (1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):  # pragma: no cover
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(0)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(1)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == MPoly.const(1):
            return f"RatFunc({self.num.to_text()})"
        return f"RatFunc(({self.num.to_text()}) / ({self.den.to_text()}))"

    @staticmethod
    def _coerce(value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, (int, Fraction, MPoly)):
            return RatFunc(value)
        raise TypeError(f"cannot coerce {type(value)!r} to RatFunc")

    def __add__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError
            return RatFunc(self.den ** (-n), self.num ** (-n))
        return RatFunc(self.num ** n, self.den ** n)

    def diff(self, var: str) -> "RatFunc":
        """d/d var by the quotient rule, reduced."""
        return RatFunc(self.num.diff(var) * self.den - self.num * self.den.diff(var),
                       self.den * self.den)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.evaluate(point) / d

    def to_text(self) -> str:
        if self.den == MPoly.const(1):
            return self.num.to_text()
        return f"({self.num.to_text()}) / ({self.den.to_text()})"

    __str__ = to_text
