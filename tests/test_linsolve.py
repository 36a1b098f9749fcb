"""Parametric linear algebra: kernels of fraction-free eliminations."""

import random
from fractions import Fraction

import pytest

from quartic_nve.linsolve import matrix_kernel
from quartic_nve.mpoly import MPoly


def test_ansatz_kernel_dimension_matches_constant_count():
    # the bounded ansatz system for the centered linear equation has a
    # 3-parameter solution family (one constant per fundamental solution)
    from quartic_nve.odes import generic_quartic_system

    l2, _ = generic_quartic_system()
    x = MPoly.var("x")
    denom = l2.coeffs[-1]
    unknowns = [f"p{i}" for i in range(7)]
    P = MPoly.zero()
    for i, name in enumerate(unknowns):
        P = P + MPoly.var(name) * x ** i
    dd = denom.diff("x")
    nums = [P]
    cur = P
    for j in range(3):
        cur = cur.diff("x") * x * denom - cur * (j * denom + (3 + j) * x * dd)
        nums.append(cur)
    residual = MPoly.zero()
    for j in range(4):
        scale = MPoly.var("x", 3 - j) * denom ** (3 - j) if j < 3 else MPoly.const(1)
        residual = residual + l2.coeffs[j] * nums[j] * scale
    rows = []
    for eq in residual.collect("x").values():
        row = [eq.coefficient(name, 1) for name in unknowns]
        # each equation is linear and homogeneous in the unknowns
        assert eq == sum((cf * MPoly.var(name) for cf, name in zip(row, unknowns)),
                         MPoly.zero())
        rows.append(row)
    basis, _ = matrix_kernel(rows, len(unknowns))
    assert len(basis) == 3


def test_matrix_kernel_trivial():
    rows = [[MPoly.const(1), MPoly.const(0), MPoly.const(-1)]]
    basis, pivots = matrix_kernel(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] == vec[2] * 1  # u0 = u2 on the kernel


def _random_matrix(rng, m, n, rank):
    """m x n integer matrix of rank <= `rank`, as a product of random factors."""
    left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(m)]
    right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
    return [[sum(left[i][k] * right[k][j] for k in range(rank))
             for j in range(n)] for i in range(m)]


def test_rational_kernel_matches_sympy_nullspace():
    # integer rows stay integer; over Q the vectors, each divided by its
    # free-column entry (its last nonzero entry), are sympy's reduced
    # echelon nullspace, in order
    import sympy
    rng = random.Random(20260)
    ranks = set()
    for _ in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        rows = _random_matrix(rng, m, n, rng.randint(0, min(m, n)))
        basis, _ = matrix_kernel(rows, n)
        assert all(type(v) is int for vec in basis for v in vec)
        expected = sympy.Matrix(rows).nullspace()
        ranks.add((n - len(expected), min(m, n)))
        assert len(basis) == len(expected)
        for vec, ref in zip(basis, expected):
            lead = next(v for v in reversed(vec) if v)
            assert [Fraction(v) / lead for v in vec] == [
                Fraction(int(e.p), int(e.q)) for e in ref]
    assert {r for r, _ in ranks} >= {0, 1, 2, 3, 4}
    assert any(r == full for r, full in ranks if r)


def test_entries_that_would_floor_rejected():
    # `//` floors a Fraction or a float silently; only int and MPoly rows
    # have exact quotients
    for bad, name in ((Fraction(1, 2), "Fraction"), (0.5, "float")):
        with pytest.raises(TypeError, match=name):
            matrix_kernel([[1, 2, 3], [4, bad, 6]], 3)


def test_polynomial_kernel_stays_in_the_ring():
    b, c = MPoly.var("b"), MPoly.var("c")
    r1 = [b, c, MPoly.const(1), b * c, MPoly.zero()]
    r2 = [c * c, MPoly.const(2), b - c, MPoly.zero(), b]
    r3 = [b * x + (c - 1) * y for x, y in zip(r1, r2)]
    r4 = [MPoly.const(1), b + c, c, MPoly.const(3), b * b]
    for rows in ([r1, r2, r3], [r1, r2, r3, r4], [r3, r1]):
        basis, pivots = matrix_kernel(rows, 5)
        assert len(basis) == 5 - len(pivots)
        for vec in basis:
            assert all(isinstance(v, MPoly) for v in vec)
            assert any(vec)
            for row in rows:
                assert sum((a * v for a, v in zip(row, vec)), MPoly.zero()).is_zero


def test_no_division_by_one(monkeypatch):
    # the first Bareiss step has no previous pivot, and a gcd with trivial
    # contents divides by none of them
    from quartic_nve import mpoly

    divisors = []
    real = mpoly.exact_div
    monkeypatch.setattr(mpoly, "exact_div", lambda p, d: divisors.append(d) or real(p, d))
    b, c, e = (MPoly.var(v) for v in "bce")
    basis, pivots = matrix_kernel([[b, c, e, b], [c, e, b, c], [e, b, c, e + 1]], 4)
    assert len(basis) == 1 and len(pivots) == 3
    x = MPoly.var("x")
    assert mpoly.poly_gcd((x + b) * (x - c), (x + b) * (x + e)) == x + b
    assert divisors and MPoly.const(1) not in divisors
