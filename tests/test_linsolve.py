"""Parametric linear algebra: kernels of fraction-free eliminations."""

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
