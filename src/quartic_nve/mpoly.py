"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a mapping from exponent tuples to nonzero Fraction
coefficients, relative to an ordered tuple of variable names.  The variable
order is global and canonical so that polynomials built in different modules
(solver, jets, certifier) agree term-for-term:

    x < x1 < x2 < y1 < b < c < d < e < a < K1 < K2 < K3 < y < yp < ypp
      < alpha0 < alpha1 < ... < phi1 < phi2 < ...

followed by any other identifiers in alphabetical order.  Terms are compared
lexicographically on the exponent tuple; the "leading" term is the largest.

Arithmetic runs on integers where it can: a product scales each operand to
integer coefficients by the lcm of its denominators, multiplies and
accumulates plain ints, and builds one Fraction per surviving term; exact
division does the same against a primitive integer divisor.  The one
constructor keeps Fraction coefficients as they are, remaps only variable
tuples that are not canonical, and rejects duplicate names and exponent
tuples of the wrong length.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter, sub
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

from .linsolve import _forward_eliminate

Exponents = Tuple[int, ...]
Scalar = Union[int, Fraction]

_BASE_ORDER = ("x", "x1", "x2", "y1", "b", "c", "d", "e", "a",
               "K1", "K2", "K3", "y", "yp", "ypp")
_BASE_RANK = {name: i for i, name in enumerate(_BASE_ORDER)}


def _var_key(name: str) -> tuple:
    """Sort key realising the canonical global variable order."""
    if name in _BASE_RANK:
        return (0, _BASE_RANK[name], 0, "")
    for rank, prefix in enumerate(("alpha", "phi")):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return (1, rank, int(name[len(prefix):]), "")
    return (2, 0, 0, name)


def canonical_vars(names: Iterable[str]) -> Tuple[str, ...]:
    """The distinct names in the canonical order."""
    return tuple(sorted(set(names), key=_var_key))


def _integer_terms(terms: Mapping[Exponents, Fraction]):
    """(L, [(exps, L*q)]): the terms scaled to integers by the lcm L of their
    denominators, in insertion order."""
    den = lcm(*[q.denominator for q in terms.values()])
    return den, [(e, q.numerator * (den // q.denominator)) for e, q in terms.items()]


def _lift(p: "MPoly", allvars: Tuple[str, ...]) -> Dict[Exponents, Fraction]:
    """p's terms with exponent tuples over allvars, a canonical superset of
    p.vars."""
    if p.vars == allvars:
        return p.terms
    if not p.vars:  # a constant; itemgetter of one position gives no tuple
        return {(0,) * len(allvars): q for q in p.terms.values()}
    # position -1 reads the 0 appended to each exponent tuple
    pick = itemgetter(*[p.vars.index(v) if v in p.vars else -1 for v in allvars])
    return {pick(e + (0,)): q for e, q in p.terms.items()}


def _merge(a: Mapping[Exponents, Fraction], b: Mapping[Exponents, Fraction],
           negate: bool) -> Dict[Exponents, Fraction]:
    """a + b (a - b if negate) on aligned term dicts; cancelled terms are
    dropped, surviving terms keep a's order followed by b's new terms."""
    out = dict(a)
    for e, q in b.items():
        if negate:
            q = -q
        s = out.get(e)
        if s is None:
            out[e] = q
        else:
            s += q
            if s:
                out[e] = s
            else:
                del out[e]
    return out


class MPoly:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponents, Scalar]):
        vars = tuple(vars)
        n = len(vars)
        cleaned: Dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff:
                cleaned[tuple(exps)] = coeff
        if cleaned and set(map(len, cleaned)) != {n}:
            bad = next(e for e in cleaned if len(e) != n)
            raise ValueError(f"exponent tuple {bad} does not have one entry "
                             f"per variable of {vars}")
        order = canonical_vars(vars)
        if order != vars:
            if len(order) != n:
                raise ValueError(f"duplicate variable names in {vars}")
            pick = itemgetter(*map(vars.index, order))
            cleaned = {pick(e): q for e, q in cleaned.items()}
            vars = order
        # drop variables that never occur with positive exponent
        if not cleaned:
            vars = ()
        elif not all(map(any, zip(*cleaned))):
            used = [i for i, column in enumerate(zip(*cleaned)) if any(column)]
            vars = tuple(vars[i] for i in used)
            cleaned = {tuple(e[i] for i in used): q for e, q in cleaned.items()}
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *_):  # pragma: no cover
        raise AttributeError("MPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, value: Scalar) -> "MPoly":
        return cls((), {(): value})

    @classmethod
    def var(cls, name: str, power: int = 1) -> "MPoly":
        if power < 0:
            raise ValueError("negative power")
        if power == 0:
            return cls.const(1)
        return cls((name,), {(power,): Fraction(1)})

    @classmethod
    def zero(cls) -> "MPoly":
        return cls((), {})

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self) -> Fraction:
        if self.vars:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), Fraction(0))

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def leading(self) -> Tuple[Exponents, Fraction]:
        """Largest term under the canonical lexicographic order."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms)
        return exps, self.terms[exps]

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MPoly({self.to_text()})"

    # -- arithmetic ---------------------------------------------------

    def _aligned(self, other: "MPoly"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        allvars = canonical_vars(self.vars + other.vars)
        return allvars, _lift(self, allvars), _lift(other, allvars)

    # values are immutable, so a sum or product with zero may return an operand
    def _add(self, other, negate: bool) -> "MPoly":
        """self + other, or self - other if negate."""
        if not isinstance(other, MPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MPoly.const(other)
        if not other.terms:
            return self
        if not self.terms:
            return -other if negate else other
        allvars, a, b = self._aligned(other)
        return MPoly(allvars, _merge(a, b, negate))

    def __add__(self, other) -> "MPoly":
        return self._add(other, False)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly(self.vars, {e: -q for e, q in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self._add(other, True)

    def __rsub__(self, other) -> "MPoly":
        return (-self) + other

    def __mul__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return MPoly.zero()
            return MPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        if not self.terms:
            return self
        if not other.terms:
            return other
        allvars, a, b = self._aligned(other)
        da, ia = _integer_terms(a)
        db, ib = _integer_terms(b)
        out: Dict[Exponents, int] = {}
        get = out.get
        for e1, n1 in ia:
            for e2, n2 in ib:
                key = tuple(map(add, e1, e2))
                out[key] = get(key, 0) + n1 * n2
        den = da * db
        return MPoly(allvars, {e: Fraction(n, den) for e, n in out.items() if n})

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MPoly":
        """Exact quotient (`exact_div`): raises ValueError if other does not
        divide self."""
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return exact_div(self, other)

    # the exact quotient is also `//`, so linsolve's elimination divides
    # MPoly and int entries alike
    __floordiv__ = __truediv__

    def __pow__(self, n: int) -> "MPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure ----------------------------------------------------

    def split(self, names: Sequence[str]) -> Dict[Exponents, "MPoly"]:
        """Coefficients by exponent tuple over `names`, as polynomials in the
        other variables; one pass over the terms."""
        names = tuple(names)
        # position -1 reads the 0 appended to each exponent tuple
        picks = [self.vars.index(v) if v in self.vars else -1 for v in names]
        keep = [i for i, v in enumerate(self.vars) if v not in names]
        rest = tuple(self.vars[i] for i in keep)
        buckets: Dict[Exponents, Dict[Exponents, Fraction]] = {}
        for e, q in self.terms.items():
            padded = e + (0,)
            key = tuple(padded[i] for i in picks)
            buckets.setdefault(key, {})[tuple(e[i] for i in keep)] = q
        return {k: MPoly(rest, t) for k, t in buckets.items()}

    def collect(self, var: str) -> Dict[int, "MPoly"]:
        """Coefficients by power of `var`, as polynomials in the rest."""
        return {k: p for (k,), p in self.split((var,)).items()}

    def coefficient(self, var: str, power: int) -> "MPoly":
        return self.collect(var).get(power, MPoly.zero())

    def subs(self, assignment: Mapping[str, Union["MPoly", Scalar]]) -> "MPoly":
        """Substitute polynomials or scalars for variables, all at once: each
        coefficient of the split over the substituted variables times the
        product of their values' powers."""
        names = [v for v in self.vars if v in assignment]
        if not names:
            return self
        result = MPoly.zero()
        for exps, coeff in self.split(names).items():
            for v, k in zip(names, exps):
                if k:
                    coeff = coeff * assignment[v] ** k
            result = result + coeff
        return result

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Full evaluation at a rational point."""
        total = Fraction(0)
        for e, q in self.terms.items():
            val = q
            for i, v in enumerate(self.vars):
                if e[i]:
                    val *= Fraction(point[v]) ** e[i]
            total += val
        return total

    def diff(self, var: str) -> "MPoly":
        if var not in self.vars:
            return MPoly.zero()
        i = self.vars.index(var)
        # e -> e - unit(i) is injective, so no two terms meet
        return MPoly(self.vars, {e[:i] + (e[i] - 1,) + e[i + 1:]: q * e[i]
                                 for e, q in self.terms.items() if e[i]})

    # -- normalisation ------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive; 0 for zero."""
        if self.is_zero:
            return Fraction(0)
        den, ints = _integer_terms(self.terms)
        return Fraction(gcd(*[n for _, n in ints]), den)

    def primitive(self) -> "MPoly":
        """Integer-primitive associate with positive leading coefficient."""
        if self.is_zero:
            return self
        c = self.content()
        if self.terms[max(self.terms)] < 0:
            c = -c
        return self * (1 / c)

    def monomial_content(self, var: str) -> "MPoly":
        """The monic monomial in the variables other than `var` that divides
        every term: the componentwise minimum of their exponents."""
        low = [min(column) for column in zip(*self.terms)]
        if var in self.vars:
            low[self.vars.index(var)] = 0
        return MPoly(self.vars, {tuple(low): 1})

    def to_text(self) -> str:
        """Canonical text: terms in decreasing order, explicit * and ^."""
        if self.is_zero:
            return "0"
        pieces = []
        for e in sorted(self.terms, reverse=True):
            q = self.terms[e]
            factors = []
            for i, v in enumerate(self.vars):
                if e[i] == 1:
                    factors.append(v)
                elif e[i] > 1:
                    factors.append(f"{v}^{e[i]}")
            mag = abs(q)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            pieces.append(("-" if q < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    __str__ = to_text


# ---------------------------------------------------------------------------
# division, gcd, resultant
# ---------------------------------------------------------------------------


def exact_div(p: MPoly, d: MPoly) -> MPoly:
    """Exact polynomial quotient p/d; raises ValueError if d does not divide p.

    Single-divisor division under the canonical lex order: when p is a
    multiple of d the leading terms always divide, so the loop terminates
    with remainder zero.  It runs on integers: p is scaled to integer
    coefficients and d to a primitive integer polynomial, and by Gauss's
    lemma the quotient of those is then an integer polynomial, so every
    quotient coefficient is an exact integer division.
    """
    if d.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero:
        return p
    if d.is_constant():
        return p * (1 / d.constant_value())
    allvars, pt, dt = p._aligned(d)
    lp, rem = _integer_terms(pt)
    ld, dint = _integer_terms(dt)
    g = gcd(*[c for _, c in dint])
    dint = [(e, c // g) for e, c in dint]
    lead_d, lc_d = max(dint)
    rem = dict(rem)
    quo: Dict[Exponents, int] = {}
    while rem:
        lead_r = max(rem)
        qexp = tuple(map(sub, lead_r, lead_d))
        qc, r = divmod(rem[lead_r], lc_d)
        if r or min(qexp) < 0:
            raise ValueError("not an exact multiple")
        quo[qexp] = qc
        for e, c in dint:
            key = tuple(map(add, qexp, e))
            val = rem.get(key, 0) - qc * c
            if val:
                rem[key] = val
            else:
                del rem[key]
    den = lp * g
    return MPoly(allvars, {e: Fraction(n * ld, den) for e, n in quo.items()})


def _coeff_list(p: MPoly, var: str):
    """Dense coefficient list [c_0 .. c_deg] of p in var (MPoly coefficients)."""
    by_power = p.collect(var)
    deg = max(by_power) if by_power else 0
    return [by_power.get(k, MPoly.zero()) for k in range(deg + 1)]


def _pseudo_rem(f: Sequence[MPoly], g: Sequence[MPoly]):
    """Pseudo-remainder of dense coefficient lists (univariate in main var)."""
    f = list(f)
    n, m = len(f) - 1, len(g) - 1
    if n < m:
        return f
    lc_g = g[m]
    for _ in range(n - m + 1):
        if len(f) - 1 < m:
            f = [c * lc_g for c in f]
            continue
        lc_f = f[-1]
        shift = len(f) - 1 - m
        f = [c * lc_g for c in f[:-1]]
        for i in range(m):
            f[shift + i] = f[shift + i] - lc_f * g[i]
        while f and f[-1].is_zero:
            f.pop()
    return f


def _content_wrt(p: MPoly, var: str) -> MPoly:
    """Content of p as a polynomial in var: the gcd of its coefficients."""
    coeffs = [c for c in p.collect(var).values() if not c.is_zero]
    g = MPoly.zero()
    for c in coeffs:
        g = poly_gcd(g, c)
    return g


def _div(p: MPoly, d: MPoly) -> MPoly:
    """exact_div(p, d), skipped when d is 1 (a trivial content or the first
    subresultant step)."""
    return p if d == 1 else exact_div(p, d)


def poly_gcd(p: MPoly, q: MPoly) -> MPoly:
    """GCD via subresultant pseudo-remainder sequences with recursive content.

    The result is integer-primitive with positive leading coefficient;
    poly_gcd(p, 0) is the normalised p.  Both inputs zero is an error.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero:
        return q.primitive()
    if q.is_zero:
        return p.primitive()
    if p.is_constant() or q.is_constant():
        return MPoly.const(1)
    main = min(set(p.vars) | set(q.vars), key=_var_key)
    if main not in p.vars or main not in q.vars:
        # main variable missing from one input: gcd divides its content
        if main in p.vars:
            return poly_gcd(_content_wrt(p, main), q)
        return poly_gcd(p, _content_wrt(q, main))
    cont_p, cont_q = _content_wrt(p, main), _content_wrt(q, main)
    cont = poly_gcd(cont_p, cont_q) if not (cont_p.is_constant() and cont_q.is_constant()) else MPoly.const(1)
    f = [_div(c, cont_p) for c in _coeff_list(p, main)]
    g = [_div(c, cont_q) for c in _coeff_list(q, main)]
    if len(f) < len(g):
        f, g = g, f
    h = MPoly.const(1)
    s = MPoly.const(1)
    while True:
        delta = len(f) - len(g)
        r = _pseudo_rem(f, g)
        if not r:
            break
        if len(r) == 1:
            g = [MPoly.const(1)]
            break
        denom_poly = s * h ** delta
        f, g = g, [_div(c, denom_poly) for c in r]
        s = f[-1]
        h = _div(s ** delta, h ** (delta - 1)) if delta > 0 else h
    result = sum((c * MPoly.var(main, k) for k, c in enumerate(g)), MPoly.zero())
    pp = _div(result, _content_wrt(result, main))
    return (cont * pp).primitive()


def resultant(p: MPoly, q: MPoly, var: str) -> MPoly:
    """Sylvester resultant of p and q eliminating var."""
    n, m = p.degree(var), q.degree(var)
    if n <= 0 or m <= 0:
        raise ValueError("resultant needs positive degree in the eliminated variable")
    pc = _coeff_list(p, var)
    qc = _coeff_list(q, var)
    size = n + m
    rows = []
    for i in range(m):
        row = [MPoly.zero()] * size
        for j, cval in enumerate(reversed(pc)):
            row[i + j] = cval
        rows.append(row)
    for i in range(n):
        row = [MPoly.zero()] * size
        for j, cval in enumerate(reversed(qc)):
            row[i + j] = cval
        rows.append(row)
    return det_mpoly(rows)


def det_mpoly(matrix: Sequence[Sequence[MPoly]]) -> MPoly:
    """Determinant of a square MPoly matrix: the row-swap sign times the last
    pivot of the fraction-free (Bareiss) elimination, 0 below full rank."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n == 0:
        return MPoly.const(1)
    ech, pivots, sign = _forward_eliminate(matrix)
    if len(pivots) < n:
        return MPoly.zero()
    return ech[n - 1][n - 1] * sign
