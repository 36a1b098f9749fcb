"""X_h as a derivation on polynomials in y1 and the jets, the independent
reference that the tests check the E(n,k) recurrence against."""

from quartic_nve.jets import Y1, phi_jet, total_x1_derivative
from quartic_nve.mpoly import MPoly


def lie_derivative(p: MPoly) -> MPoly:
    """One application of X_h to a polynomial in y1 and the jets."""
    return (MPoly.var(Y1) * total_x1_derivative(p)
            - MPoly.var(phi_jet(1)) * p.diff(Y1))
