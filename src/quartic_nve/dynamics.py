"""Numeric validation layer: Hamiltonian flow, NVE sampling, degree tests.

Fixed-step classical fourth-order integration of

    x1' = y1,  x2' = y2,  y1' = -dV/dx1,  y2' = -dV/dx2

for exact polynomial potentials lowered to floating point.  Along curves in
the invariant plane the normal variational equation coefficient is sampled
as a(t_i) = alpha(x1(t_i)) and its polynomial degree is tested through
forward differences of a strided subsample (a degree-d series has vanishing
(d+1)-th differences; the stride keeps cancellation noise above the
integration error floor but far below any genuine higher-degree signal).

numpy is imported on first use, inside the entry points below (and the
closures they build capture it), never at module import: the exact layers
and the CLI import this module, and their commands stay numpy-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, Tuple

from .mpoly import MPoly
from .potential import Potential

if TYPE_CHECKING:
    import numpy as np

DIVERGENCE_LIMIT = 1e8
# pass threshold on the normalised forward differences, and the coarsest
# sampling step they start from
DEGREE_TEST_TOL = 1e-6
DEGREE_TEST_STRIDE = 100


def _compile_bivariate(p: MPoly) -> Callable[[float, float], float]:
    terms = []
    for exps, coeff in p.terms.items():
        e1 = exps[p.vars.index("x1")] if "x1" in p.vars else 0
        e2 = exps[p.vars.index("x2")] if "x2" in p.vars else 0
        terms.append((float(coeff), e1, e2))

    def ev(x1: float, x2: float) -> float:
        total = 0.0
        for c, e1, e2 in terms:
            total += c * x1 ** e1 * x2 ** e2
        return total

    return ev


def _poly1d_coeffs(p: MPoly, var: str = "x1") -> np.ndarray:
    import numpy as np
    by = p.collect(var)
    deg = max(by) if by else 0
    out = np.zeros(deg + 1)
    for k, c in by.items():
        out[deg - k] = float(c.constant_value())
    return out


@dataclass(frozen=True)
class NumericPotential:
    """Floating-point evaluators lowered from an exact Potential."""

    v: Callable[[float, float], float]
    dv_dx1: Callable[[float, float], float]
    dv_dx2: Callable[[float, float], float]
    alpha_coeffs: np.ndarray
    source: Potential

    @classmethod
    def from_potential(cls, pot: Potential) -> "NumericPotential":
        return cls(_compile_bivariate(pot.v),
                   _compile_bivariate(pot.v.diff("x1")),
                   _compile_bivariate(pot.v.diff("x2")),
                   _poly1d_coeffs(pot.alpha),
                   pot)

    def hamiltonian(self, state) -> float:
        x1, y1, x2, y2 = state
        return 0.5 * (y1 * y1 + y2 * y2) + self.v(x1, x2)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # columns x1, y1, x2, y2
    energies: np.ndarray
    diverged: bool = False

    def energy_drift(self) -> float:
        import numpy as np
        scale = max(abs(self.energies[0]), 1.0)
        return float(np.max(np.abs(self.energies - self.energies[0])) / scale)

    def max_plane_deviation(self) -> float:
        import numpy as np
        return float(max(np.max(np.abs(self.states[:, 2])),
                         np.max(np.abs(self.states[:, 3]))))


def _hamilton_rhs(npot: NumericPotential) -> Callable[[np.ndarray], np.ndarray]:
    """Hamilton's equations on the state (x1, y1, x2, y2)."""
    import numpy as np
    f1, f2 = npot.dv_dx1, npot.dv_dx2

    def rhs(s):
        x1, y1, x2, y2 = s
        return np.array([y1, -f1(x1, x2), y2, -f2(x1, x2)])

    return rhs


def _rk4_step(rhs: Callable[[np.ndarray], np.ndarray], s: np.ndarray,
              dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of s' = rhs(s)."""
    k1 = rhs(s)
    k2 = rhs(s + 0.5 * dt * k1)
    k3 = rhs(s + 0.5 * dt * k2)
    k4 = rhs(s + dt * k3)
    return s + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate_hamilton(pot: NumericPotential, init: Sequence[float], dt: float,
                       horizon: float) -> Trajectory:
    """Classical fixed-step RK4 integration of Hamilton's equations.

    Initial data on the invariant plane stays there to machine precision.
    Trajectories whose state magnitude exceeds DIVERGENCE_LIMIT are
    truncated and flagged.  Non-finite dt, horizon or initial data raise
    ValueError.
    """
    import numpy as np
    if not (np.isfinite(dt) and np.isfinite(horizon)) or dt <= 0 or horizon <= 0:
        raise ValueError("dt and horizon must be positive and finite")
    state = np.array([float(v) for v in init], dtype=float)
    if state.shape != (4,):
        raise ValueError("initial state must be (x1, y1, x2, y2)")
    if not np.all(np.isfinite(state)):
        raise ValueError("initial state must be finite")
    n = int(round(horizon / dt))
    rhs = _hamilton_rhs(pot)
    states = np.empty((n + 1, 4))
    states[0] = state
    diverged = False
    for i in range(n):
        state = _rk4_step(rhs, state, dt)
        states[i + 1] = state
        if not np.all(np.isfinite(state)) or np.max(np.abs(state)) > DIVERGENCE_LIMIT:
            diverged = True
            states = states[:i + 2]
            n = i + 1
            break
    times = np.arange(states.shape[0]) * dt
    energies = np.array([pot.hamiltonian(s) for s in states])
    return Trajectory(times, states, energies, diverged)


def nve_coefficient_samples(traj: Trajectory, pot: NumericPotential) -> np.ndarray:
    """a(t_i) = alpha(x1(t_i)) along an invariant-plane trajectory."""
    import numpy as np
    if traj.max_plane_deviation() > 1e-9:
        raise ValueError("trajectory does not lie on the invariant plane")
    return np.polyval(pot.alpha_coeffs, traj.states[:, 0])


def polynomial_degree_test(samples: Sequence[float], degree: int) -> Tuple[bool, float]:
    """Is the uniformly-sampled series a polynomial of degree <= `degree`?

    Primary criterion: the maximum (degree+1)-th forward difference of the
    subsample at step DEGREE_TEST_STRIDE, normalised by the series scale,
    must stay below DEGREE_TEST_TOL.  The step is doubled while at least
    degree+2 points remain and the worst metric over all scales is used:
    genuine degree-(degree+1) content grows like step^(degree+1) while the
    integration-noise floor does not, so the multi-scale maximum separates
    the two regimes cleanly.  The
    returned residual is the relative least-squares error of the best
    degree-`degree` fit (a diagnostic, not the pass criterion).
    """
    import numpy as np
    if degree < 0:
        raise ValueError("degree must be non-negative")
    data = np.asarray(samples, dtype=float)
    if data[::DEGREE_TEST_STRIDE].size < degree + 2:
        raise ValueError("too few samples for the requested degree")
    scale = max(float(np.max(np.abs(data))), 1e-300)
    metric = 0.0
    step = DEGREE_TEST_STRIDE
    while data[::step].size >= degree + 2:
        diffs = np.diff(data[::step], n=degree + 1)
        metric = max(metric, float(np.max(np.abs(diffs))) / scale)
        step *= 2
    t = np.arange(data.size, dtype=float)
    fit = np.polyfit(t, data, degree)
    residual = float(np.max(np.abs(data - np.polyval(fit, t)))) / scale
    return metric < DEGREE_TEST_TOL, residual


def variational_consistency(pot: NumericPotential, init: Sequence[float],
                            delta: float = 1e-6, dt: float = 1e-3,
                            horizon: float = 1.0) -> float:
    """Compare the nonlinear flow against the normal variational equation.

    Integrates (i) the full system from the plane point displaced by
    (0, 0, delta, 0) and (ii) xi'' = alpha(x1(t)) xi with xi(0) = delta
    along the unperturbed plane trajectory; returns max |x2 - xi| / delta.

    With a cubic term beta*x2^3 the deviation is first order in delta.
    With beta = 0 the transverse force is exactly linear in x2, and the
    deviation comes only from the O(delta^2) back-reaction on x1, so it is
    second order in delta (err/delta ~ delta^2) and its constant grows with
    the size of alpha along the orbit; a fixed threshold on it therefore
    holds only for bounded alpha.
    """
    import numpy as np
    if not pot.source.v.diff("x2").subs({"x2": 0}).is_zero:
        raise ValueError("potential does not preserve the invariant plane")
    x10, y10, x20, y20 = (float(v) for v in init)
    if x20 != 0.0 or y20 != 0.0:
        raise ValueError("initial state must lie on the invariant plane")
    if delta == 0:
        return 0.0
    n = int(round(horizon / dt))
    rhs_full = _hamilton_rhs(pot)
    f1 = pot.dv_dx1
    alpha_c = pot.alpha_coeffs

    def rhs_nve(s):
        x1, y1, xi, xidot = s
        return np.array([y1, -f1(x1, 0.0), xidot, np.polyval(alpha_c, x1) * xi])

    full = np.array([x10, y10, delta, 0.0])
    nve = np.array([x10, y10, delta, 0.0])
    err = 0.0
    for _ in range(n):
        full = _rk4_step(rhs_full, full, dt)
        nve = _rk4_step(rhs_nve, nve, dt)
        err = max(err, abs(full[2] - nve[2]))
    return err / delta
