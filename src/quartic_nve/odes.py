"""Specialisation of the quartic conditions into concrete ODE systems.

Degree-4 conditions force alpha to be a quartic a + b*x1 + c*x1^2 + d*x1^3
+ e*x1^4 (e != 0).  The two remaining conditions become a linear and a
quadratic ordinary differential equation in phi'.  After the centering
translation x = x1 + d/(4e) (which kills the cubic coefficient) and the
order reduction y = phi', the system is

    (L2)  alpha'(x) y''' + 5 alpha''(x) y'' + 10 alpha'''(x) y' + 10 alpha''''(x) y = 0
    (NL2) 15 alpha''' y^2 + 15 alpha'' y y' + alpha' (y')^2 + 3 alpha' y y'' = 0

with alpha = a + b x + c x^2 + e x^4.  All coefficients of (L2) match the
classical published display; the constants of the published nonlinear display
(72e x, 14c + 84e x^2, 1, 1 pattern) do not agree with the recurrence-derived
equation above, and the toolkit treats the derived equation as authoritative
(the discrepancy is recorded in certificates; see `PUBLISHED_NL_WEIGHTS`).

Rational solution bases for (L2) and its b = 0 / c = 0 specialisations are
found in an ansatz read off the indicial equations of (L2) (pole orders at
the roots of alpha', numerator degree at infinity; Abramov 1989) and
normalised to reduced echelon form with respect to numerator-coefficient
anchors (pinned on the generic branch, lex-first on b = 0 and c = 0), which
reproduces the classical bases together with their degeneration loci.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .jets import DiffCondition, alpha_jet, generate_conditions, phi_jet, x1_jets
from .linsolve import matrix_kernel
from .mpoly import MPoly, det_mpoly, exact_div, poly_gcd

Y_JETS = ("y", "yp", "ypp")

# a denominator prod f^k as its (f, k) pairs
Factors = Tuple[Tuple[MPoly, int], ...]
# num / prod f^k as (num, factors)
Quotient = Tuple[MPoly, Factors]


class LinearODE(NamedTuple("LinearODE", [("var", str), ("coeffs", Tuple[MPoly, ...])])):
    """sum_j coeffs[j] * u^(j) = 0 in the unknown u(var)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, var: str, coeffs: Tuple[MPoly, ...]):
        if not coeffs or coeffs[-1].is_zero:
            raise ValueError("leading coefficient must be nonzero")
        return super().__new__(cls, var, coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def normalized(self) -> "LinearODE":
        """Scale the whole equation to joint integer-primitive form with a
        positive leading coefficient polynomial."""
        scale = _joint_primitive_scale(self.coeffs)
        return LinearODE(self.var, tuple(cf * scale for cf in self.coeffs))

    def to_text(self) -> str:
        return " + ".join(f"({self.coeffs[j].to_text()})*u" + "'" * j
                          for j in range(self.order, -1, -1) if self.coeffs[j]) + " = 0"


class NonlinearODE(NamedTuple("NonlinearODE", [("var", str), ("poly", MPoly)])):
    """Polynomial equation in y, y', y'' (variables y, yp, ypp),
    homogeneous of degree two in that jet, with x-polynomial coefficients."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, var: str, poly: MPoly):
        if any(sum(jets) != 2 for jets in poly.split(Y_JETS)):
            raise ValueError("equation must be quadratic in the jet of y")
        return super().__new__(cls, var, poly)

    def normalized(self) -> "NonlinearODE":
        return NonlinearODE(self.var, self.poly.primitive())

    def to_text(self) -> str:
        return self.poly.to_text().replace("ypp", "y''").replace("yp", "y'") + " = 0"


def _joint_primitive_scale(polys: Sequence[MPoly]) -> Fraction:
    nonzero = [p for p in polys if not p.is_zero]
    if not nonzero:
        return Fraction(1)
    contents = [p.content() for p in nonzero]
    scale = Fraction(lcm(*[c.denominator for c in contents]),
                     gcd(*[c.numerator for c in contents]))
    lead = nonzero[-1].leading()[1]
    if lead * scale < 0:
        scale = -scale
    return scale


class SolutionBasis(NamedTuple):
    """Rational kernel y_i = numerators[i] / (x^p * denominator^exponent),
    solved for numerators of degree at most numerator_degree_bound."""

    var: str
    denominator: MPoly
    denominator_exponent: int
    extra_pole_order: int
    numerator_degree_bound: int
    numerators: Tuple[MPoly, ...]
    anchor: Tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.numerators)

    def factors(self) -> Factors:
        return _pole_factors(self.var, self.denominator, self.denominator_exponent,
                             self.extra_pole_order)

    def numerator_wronskian(self) -> MPoly:
        rows = []
        cur = list(self.numerators)
        for _ in range(self.dimension):
            rows.append(cur)
            cur = [p.diff(self.var) for p in cur]
        return det_mpoly(rows)

    def wronskian(self) -> Quotient:
        """The Wronskian of the y_i: the numerator Wronskian over the
        denominator to the power dimension, cancelled by trial division."""
        return cancel(self.numerator_wronskian(),
                      tuple((f, k * self.dimension) for f, k in self.factors()))


class Branch(NamedTuple):
    """Parameter stratum of the case analysis; e != 0 is implicit on all.

    On a row of BRANCHES, `anchor` is the kernel anchor its basis is solved
    at (None: the lex-first valid anchor) and `degenerations` names the
    components the certificate expects that basis to degenerate on.  The
    children that `degeneration_branches` reports keep both defaults.
    """

    name: str
    constraints: Dict[str, Fraction]
    anchor: Optional[Tuple[int, ...]] = None
    degenerations: Tuple[str, ...] = ()

    @property
    def live(self) -> Tuple[str, ...]:
        """The parameters of alpha that this stratum leaves free."""
        return tuple(p for p in ("b", "c", "e") if p not in self.constraints)


# Reduced-echelon anchors (numerator coefficient positions) reproducing the
# classical solution bases; b_zero and c_zero take the lex-first valid
# triples, the generic anchor is pinned so that the basis degenerates
# exactly on {b=0} and {c=0} as in the classical case split.
BRANCHES: Tuple[Branch, ...] = (
    Branch("generic", {}, (0, 2, 3), ("b_zero", "c_zero")),
    Branch("b_zero", {"b": Fraction(0)}, None, ("c_zero",)),
    Branch("c_zero", {"c": Fraction(0)}),
)

# read only by perfbench/run.py
BRANCH_ANCHORS = {b.name: b.anchor for b in BRANCHES}

# Constant weights (y^2, y*y', (y')^2, y*y'') relative to
# (alpha''', alpha'', alpha', alpha') in the quadratic condition:
# derived from the recurrence vs. the classical printed display.
DERIVED_NL_WEIGHTS = (15, 15, 1, 3)
PUBLISHED_NL_WEIGHTS = (3, 7, 1, 1)


def quartic_alpha(var: str = "x1") -> MPoly:
    """a + b*var + c*var^2 + d*var^3 + e*var^4 with symbolic coefficients."""
    v = MPoly.var(var)
    return (MPoly.var("a") + MPoly.var("b") * v + MPoly.var("c") * v ** 2
            + MPoly.var("d") * v ** 3 + MPoly.var("e") * v ** 4)


def specialize_quartic(conditions: DiffCondition) -> Tuple[LinearODE, NonlinearODE]:
    """Instantiate the degree-4 conditions at the symbolic quartic alpha.

    Returns the linear 4th-order equation in phi (the coefficient of phi
    itself is zero, so it reduces to 3rd order in y = phi') and the
    quadratic equation in the jet of y.  Both are normalised to joint
    integer-primitive form with positive leading sign, so they agree with
    the classical displays up to exactly one overall constant.
    """
    if conditions.degree != 4:
        raise ValueError("expected conditions generated for degree 4")
    if len(conditions.conditions) != 3:
        raise ValueError("expected three degree-4 conditions")
    jet_values = x1_jets(quartic_alpha("x1"), alpha_jet, 5)
    by_nk = {(n, k): p for (n, k, p) in conditions.conditions}
    top = by_nk[(5, 5)].subs(jet_values)
    if not top.is_zero:
        raise ValueError("E(5,5) does not vanish: alpha is not quartic")
    # the coefficient of phi^(j) is the part of degree one in phi^(j) alone
    by_phi = by_nk[(5, 3)].subs(jet_values).split([phi_jet(j) for j in range(1, 5)])
    coeffs = [MPoly.zero()] + [by_phi.get(tuple(int(i == j) for i in range(4)), MPoly.zero())
                               for j in range(4)]
    linear = LinearODE("x1", tuple(coeffs)).normalized()
    nl_jet = by_nk[(5, 1)].subs(jet_values)
    nl_poly = nl_jet.subs({phi_jet(1): MPoly.var("y"),
                           phi_jet(2): MPoly.var("yp"),
                           phi_jet(3): MPoly.var("ypp")})
    nonlinear = NonlinearODE("x1", nl_poly).normalized()
    if any("a" in cf.vars for cf in linear.coeffs):
        raise AssertionError("constant term of alpha leaked into the linear equation")
    if "a" in nonlinear.poly.vars:
        raise AssertionError("constant term of alpha leaked into the nonlinear equation")
    return linear, nonlinear


def center_and_reduce(linear: LinearODE, nonlinear: NonlinearODE
                      ) -> Tuple[LinearODE, NonlinearODE, Quotient]:
    """Order reduction y = phi' plus the translation x = x1 - mu, mu = -d/(4e).

    The translation annihilates the cubic coefficient of alpha.  The
    returned equations reuse the symbols b, c for the shifted linear and
    quadratic coefficients, and mu is (-d, ((4e, 1),)).  A concrete alpha
    is a substitution into these symbolic equations.
    """
    if not linear.coeffs[0].is_zero:
        raise ValueError("expected no zeroth-order term before reduction")
    mu = (-MPoly.var("d"), ((4 * MPoly.var("e"), 1),))
    values = {"d": 0, "x1": MPoly.var("x")}
    l2 = LinearODE("x", tuple(cf.subs(values) for cf in linear.coeffs[1:])).normalized()
    nl2 = NonlinearODE("x", nonlinear.poly.subs(values)).normalized()
    return l2, nl2, mu


def generic_quartic_system() -> Tuple[LinearODE, NonlinearODE]:
    """The centered system (L2, NL2) with symbolic b, c, e."""
    linear, nonlinear = specialize_quartic(generate_conditions(4))
    l2, nl2, _ = center_and_reduce(linear, nonlinear)
    return l2, nl2


def branch_system(branch: Branch, base: Tuple[LinearODE, NonlinearODE]
                  ) -> Tuple[LinearODE, NonlinearODE]:
    """Specialise (L2, NL2) to a parameter stratum of the case analysis."""
    l2, nl2 = base
    if not branch.constraints:
        return l2, nl2
    subs = branch.constraints
    return (LinearODE(l2.var, tuple(cf.subs(subs) for cf in l2.coeffs)).normalized(),
            NonlinearODE(nl2.var, nl2.poly.subs(subs)).normalized())


class Ansatz(NamedTuple):
    """y = P(x) / (x^p * denominator^exponent) with deg P <= numerator_degree_bound,
    in the order of `rational_kernel`'s arguments."""

    denominator: MPoly
    exponent: int
    extra_pole_order: int
    numerator_degree_bound: int


def derive_ansatz(ode: LinearODE) -> Ansatz:
    """The shape of every rational solution, read off the indicial equations.

    At a simple root of the leading coefficient c_n the exponents are
    0, ..., n - 2 and n - 1 - c_{n-1}/c_n'.  The last one must be the same at
    every root, so c_{n-1} = lam * c_n' for a constant lam is required; when
    it is a negative integer -m, m is the pole order.  The roots are x = 0
    when x divides c_n, which must then be simple, and those of the x-free
    part D of c_n, which must be simple too: gcd(D, D') has x-degree 0 (else
    ValueError in both cases).  The denominator is x^m D^m, or D^m without
    the x-factor.  At infinity y ~ x^k makes the terms of largest
    deg c_j - j lead with sum lc(c_j) k (k - 1) ... (k - j + 1), so k is an
    integer root of that polynomial and deg P <= deg(x^m D^m) plus the
    largest such root (Abramov 1989).
    """
    x, n = ode.var, ode.order
    lead = ode.coeffs[-1]
    x_mult = 0
    while lead.coefficient(x, 0).is_zero:
        lead = exact_div(lead, MPoly.var(x))
        x_mult += 1
    if x_mult > 1:
        raise ValueError(f"{x}^{x_mult} divides the leading coefficient; "
                         "the ansatz needs simple roots")
    denom = lead.primitive()
    if poly_gcd(denom, denom.diff(x)).degree(x) > 0:
        raise ValueError(f"{denom.to_text()} is not square-free in {x}; "
                         "the ansatz needs simple roots")
    pole = 0
    if x_mult or denom.degree(x) > 0:
        try:
            lam = exact_div(ode.coeffs[-2], ode.coeffs[-1].diff(x))
        except ValueError:
            lam = None
        if lam is None or not lam.is_constant():
            raise ValueError("the root exponent n - 1 - c_{n-1}/c_n' is not "
                             "the same at every root")
        m = lam.constant_value() - (n - 1)
        pole = int(m) if m.denominator == 1 and m > 0 else 0
    k = MPoly.var("k")
    shift = max(cf.degree(x) - j for j, cf in enumerate(ode.coeffs) if cf)
    indicial = MPoly.zero()
    for j, cf in enumerate(ode.coeffs):
        if cf and cf.degree(x) - j == shift:
            indicial = indicial + cf.coefficient(x, j + shift) * _product(
                [(k - i, 1) for i in range(j)])
    k_max = _largest_integer_root(indicial, "k")
    extra = pole if x_mult else 0
    bound = -1 if k_max is None else max(extra + pole * denom.degree(x) + k_max, -1)
    return Ansatz(denom, pole, extra, bound)


def _largest_integer_root(poly: MPoly, var: str) -> Optional[int]:
    """The largest integer r with poly = 0 at var = r identically in its
    other variables, or None.

    Such an r is a root of the coefficient g(var) of every monomial in the
    other variables; in one g, made integer-primitive and cleared of its
    factor var^low, r divides the constant term (rational root theorem).
    Only the divisors that are roots of g are substituted into poly.
    """
    g = next(iter(poly.split([v for v in poly.vars if v != var]).values()))
    coeffs = {p: int(c.constant_value()) for p, c in g.primitive().collect(var).items()}
    low = min(coeffs)
    t = abs(coeffs[low])
    candidates = {0} if low else set()
    for d in range(1, isqrt(t) + 1):
        if t % d == 0:
            candidates |= {d, -d, t // d, -(t // d)}
    roots_of_g = (r for r in candidates if sum(c * r ** p for p, c in coeffs.items()) == 0)
    return max((r for r in roots_of_g if poly.subs({var: r}).is_zero), default=None)


def ansatz_denominator(ode: LinearODE) -> Tuple[MPoly, int]:
    """(denominator, extra_pole_order) of the derived ansatz."""
    denom, _, extra, _ = derive_ansatz(ode)
    return denom, extra


def rational_basis(ode: LinearODE, anchor: Optional[Tuple[int, ...]] = None) -> SolutionBasis:
    """The rational solutions of ode, solved in its derived ansatz."""
    return rational_kernel(ode, *derive_ansatz(ode), anchor=anchor)


def rational_kernel(ode: LinearODE, denom: MPoly, denom_exponent: int,
                    extra_pole_order: int, numerator_degree_bound: int,
                    anchor: Optional[Tuple[int, ...]] = None) -> SolutionBasis:
    """Rational solutions y = P(x) / (x^p * denom^exponent), deg P bounded.

    The residual of the ansatz is split once over (x, p0..pn); each x-power
    is one equation row, and a term that is not linear and homogeneous in
    the p_i is an error.  The system is solved by one fraction-free
    elimination over the parameter ring, whose back-substitution returns
    polynomial kernel vectors: D times the reduced echelon form with
    respect to the free columns, D the last pivot (Bareiss 1968), so the
    parameter content of each vector divides D.  Each numerator is divided
    by its monomial content, the componentwise minimum of its parameter
    exponents.  On the three branches that is the whole content; a
    non-monomial remainder would stay in the numerators and reach the
    Wronskian, which `degeneration_branches` then reports as incomplete.

    The columns are ordered non-anchor first (ascending), then `anchor`
    (numerator coefficient positions), so a valid anchor becomes exactly
    the free columns; an anchor that does not is singular on the kernel
    and is rejected.  With `anchor=None` the columns are eliminated in
    reversed order, which makes the free columns the lexicographically
    first valid anchor.  Every returned numerator is an integer-primitive
    polynomial whose anchor coordinate has positive sign, and its residual
    in the equation is re-checked to be identically zero.
    """
    x = ode.var
    n_unknowns = numerator_degree_bound + 1
    unames = [f"p{i}" for i in range(n_unknowns)]
    P = sum((MPoly.var(u) * MPoly.var(x, i) for i, u in enumerate(unames)),
            MPoly.zero())
    factors = _pole_factors(x, denom, denom_exponent, extra_pole_order)
    rows_by_power: Dict[int, List[MPoly]] = {}
    for (k, *unit), coeff in _residual_parts(ode, P, factors)[0].split([x] + unames).items():
        if sum(unit) != 1:
            raise ValueError("ansatz residual is not linear and homogeneous in the unknowns")
        row = rows_by_power.setdefault(k, [MPoly.zero()] * n_unknowns)
        row[unit.index(1)] = coeff
    eq_rows = [rows_by_power[k] for k in sorted(rows_by_power, reverse=True)]
    if anchor is None:
        order = list(range(n_unknowns - 1, -1, -1))
    else:
        anchor = tuple(anchor)
        order = ([i for i in range(n_unknowns) if i not in anchor]
                 + [i for i in dict.fromkeys(anchor) if i < n_unknowns])
    kernel, _ = matrix_kernel([[row[i] for i in order] for row in eq_rows], n_unknowns)
    dim = len(kernel)
    if anchor is not None and len(anchor) != dim:
        raise ValueError(f"kernel dimension {dim} with numerator degree bound "
                         f"{numerator_degree_bound}, but the anchor {anchor} "
                         f"needs {len(anchor)}")
    if not kernel:
        return SolutionBasis(x, denom, denom_exponent, extra_pole_order,
                             numerator_degree_bound, (), ())
    # the vector of free column f is D at f and 0 beyond it, so its last
    # nonzero entry names f; free == anchor iff the anchor block is D times
    # the identity
    free = tuple(order[max(k for k, v in enumerate(vec) if v)] for vec in kernel)
    if anchor is None:
        anchor, kernel = free[::-1], kernel[::-1]
    elif free != anchor:
        raise ValueError(f"anchor {anchor} is not valid for this kernel")
    nums = []
    for vec, col in zip(kernel, anchor):
        poly = sum((v * MPoly.var(x, i) for v, i in zip(vec, order)), MPoly.zero())
        poly = (poly / poly.monomial_content(x)).primitive()
        if poly.coefficient(x, col).leading()[1] < 0:
            poly = -poly
        nums.append(poly)
    if any(_residual_parts(ode, p_num, factors)[0] for p_num in nums):
        raise AssertionError("kernel element fails the residual re-check")
    return SolutionBasis(x, denom, denom_exponent, extra_pole_order,
                         numerator_degree_bound, tuple(nums), anchor)


class DegenerationReport(NamedTuple):
    branches: Tuple[Branch, ...]
    content: MPoly
    complete: bool


def degeneration_branches(basis: SolutionBasis) -> DegenerationReport:
    """Parameter components where the basis stops being fundamental.

    M is the monomial content of the numerator Wronskian in the parameters;
    each v != e that occurs in M gives a component {v = 0}.  The report is
    `complete` when some x-coefficient of the Wronskian is a single term,
    M times a constant times a power of e: then the gcd of the coefficients
    is exactly M, so given e != 0 no further component exists.  Otherwise
    (a content such as b (b + c), or a coefficient such as e + 3) it is
    incomplete.
    """
    if not basis.numerators:
        raise ValueError("empty basis has no Wronskian")
    w = basis.numerator_wronskian()
    if w.is_zero:
        raise ValueError("Wronskian is identically zero: not a fundamental system")
    content = w.monomial_content(basis.var)

    def off_e(monomial: MPoly) -> List[Tuple[str, int]]:
        return [(v, k) for v, k in zip(monomial.vars, next(iter(monomial.terms))) if v != "e"]

    complete = any(len(cf.terms) == 1 and off_e(cf) == off_e(content)
                   for cf in w.collect(basis.var).values())
    branches = tuple(Branch(f"{v}_zero", {v: Fraction(0)})
                     for v in sorted(content.vars) if v != "e")
    return DegenerationReport(branches, content, complete)


def _pole_factors(var: str, denom: MPoly, exponent: int,
                  extra_pole_order: int = 0) -> Factors:
    """The denominator x^p * denom^exponent as (factor, exponent) pairs."""
    head = ((MPoly.var(var), extra_pole_order),) if extra_pole_order else ()
    return head + ((denom, exponent),)


def _product(factors: Factors) -> MPoly:
    """prod f^k over the (f, k) pairs."""
    out = MPoly.const(1)
    for f, k in factors:
        out = out * f ** k
    return out


def cancel(num: MPoly, factors: Factors) -> Quotient:
    """num / prod f^k with each f divided out of num as often as it goes."""
    if num.is_zero:
        return num, ()
    kept = []
    for f, k in factors:
        while k and not f.is_constant():
            try:
                num = exact_div(num, f)
            except ValueError:
                break
            k -= 1
        if k:
            kept.append((f, k))
    return num, tuple(kept)


def quotient_text(num: MPoly, factors: Factors) -> str:
    """num / prod f^k as text "(num) / (den)", den expanded and both parts
    scaled to make den's leading coefficient 1; just num when den is 1."""
    den = _product(factors)
    scale = 1 / den.leading()[1]
    num, den = num * scale, den * scale
    if den == MPoly.const(1):
        return num.to_text()
    return f"({num.to_text()}) / ({den.to_text()})"


def _jet_numerators(num: MPoly, factors: Factors, x: str, order: int) -> List[MPoly]:
    """N_0..N_order with (num / prod f^k)^(j) = N_j / prod f^(k+j).

    The quotient rule on the factored denominator, with F = prod f:
    N_{j+1} = N_j' F - N_j sum_i (k_i + j) f_i' F / f_i.  The sum is
    L + j F' for L = sum_i k_i f_i' F / f_i, so only polynomial products
    occur and each step raises every exponent by exactly one.
    """
    bases = [(f, 1) for f, _ in factors]
    full = _product(bases)
    log_part = sum((k * f.diff(x) * _product(bases[:i] + bases[i + 1:])
                    for i, (f, k) in enumerate(factors)), MPoly.zero())
    out = [num]
    for j in range(order):
        out.append(out[-1].diff(x) * full - out[-1] * (log_part + j * full.diff(x)))
    return out


def _residual_parts(ode: Union[LinearODE, NonlinearODE], num: MPoly,
                    factors: Factors) -> Tuple[MPoly, Tuple[int, ...]]:
    """Residual of y = num / prod f_i^k_i as (S, K) with residual = S / prod f_i^K_i.

    The terms are grouped by their monomial prod_j (y^(j))^d_j, whose
    denominator is prod f_i^(k_i * sum d_j + sum j d_j); K_i is the least
    exponent that clears f_i from every monomial that actually occurs.
    Only polynomial products occur, so a true solution gives S identically 0.
    """
    if isinstance(ode, LinearODE):
        groups = {tuple(int(i == j) for i in range(ode.order + 1)): cf
                  for j, cf in enumerate(ode.coeffs) if not cf.is_zero}
    else:
        groups = ode.poly.split(Y_JETS)
    weights = {jets: (sum(jets), sum(j * d for j, d in enumerate(jets))) for jets in groups}
    K = tuple(max(k * deg + shift for deg, shift in weights.values()) for _, k in factors)
    nums = _jet_numerators(num, factors, ode.var, max(len(jets) for jets in groups) - 1)
    total = MPoly.zero()
    for jets, coeff in groups.items():
        deg, shift = weights[jets]
        piece = coeff * _product([(f, big - k * deg - shift)
                                  for (f, k), big in zip(factors, K)])
        for n_j, d in zip(nums, jets):
            if d:
                piece = piece * n_j ** d
        total = total + piece
    return total, K


def residual(ode: Union[LinearODE, NonlinearODE], num: MPoly, den: MPoly) -> Quotient:
    """Exact residual of y = num/den as (S, ((den, K),)), S / den^K."""
    total, (exponent,) = _residual_parts(ode, num, ((den, 1),))
    return total, ((den, exponent),)


def solves(ode: Union[LinearODE, NonlinearODE], num: MPoly, den: MPoly) -> bool:
    """True iff num/den is an exact solution of the equation."""
    return residual(ode, num, den)[0].is_zero
