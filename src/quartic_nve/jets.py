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

from dataclasses import dataclass
from typing import Dict, Tuple

from .mpoly import MPoly

Y1 = "y1"


def alpha_jet(r: int) -> str:
    return f"alpha{r}"


def phi_jet(s: int) -> str:
    return f"phi{s}"


def nve_jet(k: int) -> str:
    """Symbol for the k-th t-derivative of the NVE coefficient a(t)."""
    return f"a{k}"


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


def lie_derivative(p: MPoly) -> MPoly:
    """One application of X_h to a polynomial in y1 and the jets."""
    return (MPoly.var(Y1) * total_x1_derivative(p)
            - MPoly.var(phi_jet(1)) * p.diff(Y1))


@dataclass(frozen=True)
class EnkTable:
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


@dataclass(frozen=True)
class DiffCondition:
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
    table = enk_table(n)
    conds = []
    for k in range(n, -1, -1):
        if (n - k) % 2:
            continue
        p = table.entry(n, k)
        if not p.is_zero:
            conds.append((n, k, p))
    return DiffCondition(degree, tuple(conds))


def pullback_condition(q: MPoly, alpha: MPoly, phi: MPoly) -> MPoly:
    """Substitute aK -> X_h^K alpha (at concrete alpha, phi) into q.

    q must be a polynomial with constant coefficients in the jet symbols
    a0, a1, ...; the result is a polynomial in (x1, y1) that vanishes
    identically precisely when the NVE coefficient along every curve in the
    invariant plane is a differential zero of q.
    """
    orders = []
    for v in q.vars:
        if v[:1] == "a" and v[1:].isdigit():
            orders.append(int(v[1:]))
        else:
            raise ValueError(f"pullback expects jet symbols a0, a1, ...; got {v!r}")
    if not orders:
        return q
    top = max(orders)
    values: Dict[str, MPoly] = {}
    dphi = phi.diff("x1")
    cur = alpha
    for k in range(top + 1):
        if k in orders:
            values[nve_jet(k)] = cur
        if k < top:
            cur = MPoly.var(Y1) * cur.diff("x1") - dphi * cur.diff(Y1)
    return q.subs(values)
