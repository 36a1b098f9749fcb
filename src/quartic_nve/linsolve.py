"""Fraction-free elimination and kernels, in the ring of the entries.

One routine serves integer rows (the conic systems at a parameter point)
and `MPoly` rows over Q[b, c, e]: it uses only `* - //` and truthiness.
Each of its divisions is exact, and `//` is then the exact quotient in
both rings: floor division of a multiple in Z, `exact_div` on `MPoly`.
Elimination is Bareiss-style, so every entry stays an element of the input
ring.  Back-substitution sets the free column to the last pivot D and
solves each pivot column with one exact division; the kernel basis is then
D times the reduced echelon form with respect to the free columns, so the
caller chooses that normal form by ordering the columns.
`mpoly.det_mpoly` reads determinants off the same elimination.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def _forward_eliminate(rows: List[list]):
    """Fraction-free (Bareiss) row echelon reduction.

    Returns (echelon rows, pivot (row, col) list, row-swap sign).  Every
    division is by the previous pivot and exact (Sylvester's identity); the
    first step has none.  Entries below a pivot are left as they were.
    """
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    a = [list(r) for r in rows]
    pivots: List[Tuple[int, int]] = []
    prev = None
    sign = 1
    r = 0
    for col in range(ncols):
        sel = next((i for i in range(r, m) if a[i][col]), None)
        if sel is None:
            continue
        if sel != r:
            a[r], a[sel] = a[sel], a[r]
            sign = -sign
        piv = a[r][col]
        pivots.append((r, col))
        for i in range(r + 1, m):
            for j in range(col + 1, ncols):
                cross = a[i][j] * piv - a[i][col] * a[r][j]
                a[i][j] = cross if prev is None else cross // prev
        prev = piv
        r += 1
        if r == m:
            break
    return a, pivots, sign


def matrix_kernel(rows: Sequence[Sequence], ncols: int):
    """Kernel basis of a homogeneous system, over the ring of its entries.

    Returns (kernel vectors, Bareiss pivots).  The vector of free column f
    is D at f, 0 at the other free columns, and solved on the pivot
    columns, where D is the last pivot: the r x r minor on the pivot rows
    and columns (1 when the matrix is zero).  By Cramer's rule every entry
    is then an r x r minor of the input, so each division is exact.  Past
    f the vector is 0, so its last nonzero entry is the D at f.  Over the
    parameters the kernel can fail to specialise only where a pivot
    vanishes.  An entry that is neither `int` nor `MPoly` raises TypeError,
    since `//` would floor it.
    """
    from .mpoly import MPoly  # mpoly imports this module

    for v in (v for r in rows for v in r if not isinstance(v, (int, MPoly))):
        raise TypeError(f"matrix entry of type {type(v).__name__}; expected int or MPoly")
    ech, pivots, _ = _forward_eliminate([r for r in rows if any(r)])
    d = ech[pivots[-1][0]][pivots[-1][1]] if pivots else 1
    pivot_cols = [c for (_, c) in pivots]
    basis = []
    for f in (j for j in range(ncols) if j not in pivot_cols):
        vals = {j: 0 * d for j in range(ncols) if j not in pivot_cols}
        vals[f] = d
        for (r, c) in reversed(pivots):
            acc = 0 * d
            for j in range(c + 1, ncols):
                if ech[r][j] and vals[j]:
                    acc = acc + ech[r][j] * vals[j]
            vals[c] = -acc // ech[r][c]
        basis.append([vals[j] for j in range(ncols)])
    return basis, [ech[r][c] for (r, c) in pivots]
