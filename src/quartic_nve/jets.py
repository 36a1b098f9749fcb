"""Differential polynomials in the jets of the restricted potential.

The restricted Hamiltonian h = y1^2/2 + phi(x1) has vector field
X_h = y1*d/dx1 - phi'(x1)*d/dy1.  Its iterated action on the transverse
curvature alpha(x1) produces polynomials in y1 whose coefficients are
differential polynomials in alpha and phi.  Jets are plain symbols in the
shared polynomial engine: alphaR stands for d^R alpha/dx1^R and phiS for
d^S phi/dx1^S (phi itself never occurs, only its derivatives).

Writing X_h^n alpha = sum_k E(n,k) * y1^k, the coefficients satisfy

    E(n+1, k) = D_x1 E(n, k-1) - (k+1) * E(n, k+1) * phi1,
    E(1, 1) = alpha1,   E(1, k) = 0 otherwise,

where D_x1 is the total derivative (jet shift alphaR -> alphaR+1,
phiS -> phiS+1).  E(n, n) = alphaN, and E(n, k) = 0 whenever n - k is odd
or k is out of range.

The simultaneous vanishing of the E(d+1, k) is equivalent to the normal
variational equation coefficient a(t) = alpha(x1(t)) being a polynomial of
degree <= d along every integral curve in the invariant plane.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Tuple

from .mpoly import MPoly

Y1 = "y1"


def alpha_jet(r: int) -> str:
    return f"alpha{r}"


def phi_jet(s: int) -> str:
    return f"phi{s}"


def x1_jets(f: MPoly, name: Callable[[int], str], top: int) -> Dict[str, MPoly]:
    """{name(r): d^r f/dx1^r for 0 <= r <= top}."""
    jets = {}
    for r in range(top + 1):
        jets[name(r)], f = f, f.diff("x1")
    return jets


def total_x1_derivative(p: MPoly) -> MPoly:
    """Total derivative in x1 of a jet polynomial: shift every jet index."""
    out = MPoly.zero()
    for v in p.vars:
        if v.startswith("alpha") and v[5:].isdigit():
            shifted = MPoly.var(alpha_jet(int(v[5:]) + 1))
        elif v.startswith("phi") and v[3:].isdigit():
            shifted = MPoly.var(phi_jet(int(v[3:]) + 1))
        elif v == Y1:
            continue
        else:
            raise ValueError(f"not a jet variable: {v}")
        out = out + p.diff(v) * shifted
    return out


class EnkTable(NamedTuple):
    """Coefficients E(n,k) of y1^k in X_h^n alpha, for 1 <= n <= max_n."""

    max_n: int
    entries: Dict[Tuple[int, int], MPoly]

    def entry(self, n: int, k: int) -> MPoly:
        return self.entries.get((n, k), MPoly.zero())


def enk_table(max_n: int) -> EnkTable:
    """Build the coefficient table from the recurrence law."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    entries: Dict[Tuple[int, int], MPoly] = {(1, 1): MPoly.var(alpha_jet(1))}
    phi1 = MPoly.var(phi_jet(1))
    for n in range(1, max_n):
        for k in range(0, n + 2):
            prev_lo = entries.get((n, k - 1), MPoly.zero())
            prev_hi = entries.get((n, k + 1), MPoly.zero())
            val = total_x1_derivative(prev_lo) - (k + 1) * prev_hi * phi1
            if not val.is_zero:
                entries[(n + 1, k)] = val
    return EnkTable(max_n, entries)


class DiffCondition(NamedTuple):
    """Vanishing conditions for an NVE coefficient of degree <= `degree`.

    `conditions` lists (n, k, E(n,k)) with n = degree + 1, k of the same
    parity as n, ordered by decreasing k.  All members are free of y1.
    """

    degree: int
    conditions: Tuple[Tuple[int, int, MPoly], ...]


def generate_conditions(degree: int) -> DiffCondition:
    """Nonzero entries E(degree+1, k): their joint vanishing characterises
    potentials whose NVE coefficient has polynomial degree <= degree."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    n = degree + 1
    entries = enk_table(n).entries      # the nonzero E(n, k) only
    return DiffCondition(degree, tuple((n, k, entries[n, k])
                                       for k in range(n, -1, -2) if (n, k) in entries))


def conditions_vanish(cond: DiffCondition, alpha: MPoly, phi: MPoly) -> bool:
    """Does every E(d+1, k) of cond vanish at the concrete alpha(x1), phi(x1)?

    X_h^(d+1) alpha = sum_k E(d+1, k) * y1^k with y1-free E(d+1, k), so this
    holds exactly when the NVE coefficient is a polynomial of degree <= d
    along every integral curve in the invariant plane.
    """
    top = cond.degree + 1
    values = {**x1_jets(alpha, alpha_jet, top), **x1_jets(phi, phi_jet, top)}
    return all(p.subs(values).is_zero for (_, _, p) in cond.conditions)
