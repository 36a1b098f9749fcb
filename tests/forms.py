"""A certify.QuadraticForm as a polynomial in K, for checking conics and
witnesses in the tests."""

from quartic_nve.certify import K_VARS
from quartic_nve.mpoly import MPoly


def form_poly(form, point=None):
    """sum_ij M_ij K_i K_j, with the parameters set to `point` if given."""
    total = MPoly.zero()
    for i in range(3):
        for j in range(3):
            m = form.matrix[i][j] if point is None else form.matrix[i][j].subs(point)
            total = total + m * MPoly.var(K_VARS[i]) * MPoly.var(K_VARS[j])
    return total


def form_value(form, k, point=None):
    """The form at K = k, with the parameters set to `point` if given."""
    return form_poly(form, point).subs(dict(zip(K_VARS, k)))
