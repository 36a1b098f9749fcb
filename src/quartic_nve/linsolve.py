"""Parametric linear algebra: fraction-free elimination and kernels.

Homogeneous systems have coefficients polynomial in the parameters.
Elimination is Bareiss-style (division-controlled, every division exact),
and the kernel basis comes out of back-substitution in reduced echelon form
with respect to the free columns, so the caller chooses that normal form by
ordering the columns.  The pivot polynomials are reported: they are the
parameter conditions under which the generic solution degenerates.
Determinants live in `mpoly.det_mpoly`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .mpoly import MPoly, exact_div
from .ratfunc import RatFunc


def _forward_eliminate(rows: List[List[MPoly]]):
    """Fraction-free (Bareiss) row echelon reduction.

    Returns (echelon rows, pivot (row, col) list, pivot polynomials).
    The augmented column, if any, should be included in `rows`.
    """
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    a = [list(r) for r in rows]
    pivots: List[Tuple[int, int]] = []
    pivot_polys: List[MPoly] = []
    prev = MPoly.const(1)
    r = 0
    for col in range(ncols):
        sel = None
        for i in range(r, m):
            if not a[i][col].is_zero:
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            a[r], a[sel] = a[sel], a[r]
        piv = a[r][col]
        pivots.append((r, col))
        pivot_polys.append(piv.primitive())
        for i in range(r + 1, m):
            for j in range(col + 1, ncols):
                a[i][j] = exact_div(a[i][j] * piv - a[i][col] * a[r][j], prev)
            a[i][col] = MPoly.zero()
        prev = piv
        r += 1
        if r == m:
            break
    return a, pivots, pivot_polys


def _dedupe(polys: Sequence[MPoly]) -> List[MPoly]:
    seen = []
    for p in polys:
        if p.is_constant():
            continue
        if all(p != q for q in seen):
            seen.append(p)
    return seen


def matrix_kernel(rows: Sequence[Sequence[MPoly]], ncols: int):
    """Kernel basis of a homogeneous system with MPoly entries.

    Returns (list of kernel vectors over RatFunc, pivot polynomials).
    """
    work = [list(r) + [MPoly.zero()] for r in rows if any(not c.is_zero for c in r)]
    if not work:
        basis = []
        for j in range(ncols):
            basis.append([RatFunc(1 if k == j else 0) for k in range(ncols)])
        return basis, []
    ech, pivots, pivot_polys = _forward_eliminate(work)
    pivot_cols = [c for (_, c) in pivots]
    free_cols = [j for j in range(ncols) if j not in pivot_cols]
    basis = []
    for f in free_cols:
        vals: Dict[int, RatFunc] = {j: RatFunc(1 if j == f else 0) for j in free_cols}
        for (r, c) in reversed(pivots):
            acc = RatFunc.zero()
            for j in range(c + 1, ncols):
                if not ech[r][j].is_zero:
                    acc = acc + RatFunc(ech[r][j]) * vals[j]
            vals[c] = (-acc) / RatFunc(ech[r][c])
        basis.append([vals[j] for j in range(ncols)])
    return basis, _dedupe(pivot_polys)
