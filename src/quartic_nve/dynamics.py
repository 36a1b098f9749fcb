"""Numeric validation layer: Hamiltonian flow, NVE sampling, degree tests.

Fixed-step classical fourth-order integration of

    x1' = y1,  x2' = y2,  y1' = -dV/dx1,  y2' = -dV/dx2

for exact polynomial potentials lowered to floating point.  Along curves in
the invariant plane the normal variational equation coefficient is sampled
as a(t_i) = alpha(x1(t_i)) and its polynomial degree is tested through
forward differences of a strided subsample (a degree-d series has vanishing
(d+1)-th differences; the stride keeps cancellation noise above the
integration error floor but far below any genuine higher-degree signal).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, NamedTuple, Sequence, Tuple

from .mpoly import MPoly
from .potential import Potential

DIVERGENCE_LIMIT = 1e8
# the most fixed steps one integration takes: 100 times the CLI default
MAX_STEPS = 10 ** 6
# pass threshold on the normalised forward differences, and the coarsest
# sampling step they start from
DEGREE_TEST_TOL = 1e-6
DEGREE_TEST_STRIDE = 100

State = Tuple[float, float, float, float]


def _overflowing_power(x: float, e: int) -> float:
    """x ** e where it exceeds the float range: a signed infinity."""
    try:
        return x ** e
    except OverflowError:
        return math.copysign(math.inf, x) if e % 2 else math.inf


def _compile_bivariate(p: MPoly) -> Callable[[float, float], float]:
    terms = [(float(coeff.constant_value()), e1, e2)
             for (e1, e2), coeff in p.split(("x1", "x2")).items()]

    def ev(x1: float, x2: float) -> float:
        total = 0.0
        try:
            for c, e1, e2 in terms:
                total += c * x1 ** e1 * x2 ** e2
        except OverflowError:
            # float ** int raises where a power leaves the float range;
            # carry on with infinities, which the divergence check catches
            total = 0.0
            for c, e1, e2 in terms:
                total += c * _overflowing_power(x1, e1) * _overflowing_power(x2, e2)
        return total

    return ev


def _horner(coeffs: Sequence[float], x: float) -> float:
    """Horner's rule, highest power first, started from y = 0."""
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def _max_abs(values: Iterable[float]) -> float:
    """Largest absolute value; NaN if any value is NaN."""
    mags = list(map(abs, values))
    return math.nan if any(map(math.isnan, mags)) else max(mags)


class NumericPotential(NamedTuple):
    """Floating-point evaluators lowered from an exact Potential."""

    v: Callable[[float, float], float]
    dv_dx1: Callable[[float, float], float]
    dv_dx2: Callable[[float, float], float]
    alpha_coeffs: Tuple[float, ...]     # highest power of x1 first

    @classmethod
    def from_potential(cls, pot: Potential) -> "NumericPotential":
        by = pot.alpha.collect("x1")
        alpha = tuple(float(by[k].constant_value()) if k in by else 0.0
                      for k in range(max(by, default=0), -1, -1))
        return cls(_compile_bivariate(pot.v),
                   _compile_bivariate(pot.v.diff("x1")),
                   _compile_bivariate(pot.v.diff("x2")),
                   alpha)

    def hamiltonian(self, state) -> float:
        x1, y1, x2, y2 = state
        return 0.5 * (y1 * y1 + y2 * y2) + self.v(x1, x2)


class Trajectory(NamedTuple):
    times: List[float]
    states: List[State]         # (x1, y1, x2, y2) per time
    energies: List[float]
    diverged: bool = False

    def energy_drift(self) -> float:
        h0 = self.energies[0]
        return _max_abs(h - h0 for h in self.energies) / max(abs(h0), 1.0)

    def max_plane_deviation(self) -> float:
        return _max_abs((_max_abs(s[2] for s in self.states),
                         _max_abs(s[3] for s in self.states)))


Rhs = Callable[[float, float, float, float], State]


def _hamilton_rhs(npot: NumericPotential) -> Rhs:
    """Hamilton's equations on the state (x1, y1, x2, y2)."""
    f1, f2 = npot.dv_dx1, npot.dv_dx2

    def rhs(x1, y1, x2, y2):
        return (y1, -f1(x1, x2), y2, -f2(x1, x2))

    return rhs


def _step_count(horizon: float, dt: float) -> int:
    """The number of fixed steps of size dt that cover the horizon."""
    if not (math.isfinite(dt) and math.isfinite(horizon)) or dt <= 0 or horizon <= 0:
        raise ValueError("dt and horizon must be positive and finite")
    if not horizon / dt <= MAX_STEPS:
        raise ValueError(f"horizon / dt overflows the step count limit {MAX_STEPS}")
    return int(round(horizon / dt))


def _rk4_step(rhs: Rhs, s: State, dt: float) -> State:
    """One classical fourth-order Runge-Kutta step of s' = rhs(*s).

    rhs takes the four components (x1, y1, x2, y2) as separate floats and
    returns their derivatives as a 4-tuple.  Each component is combined as
    a + h * k per stage and a + dt/6 * (k1 + 2 k2 + 2 k3 + k4) at the end,
    the operation order of the same step on arrays, so both agree bit for bit.
    """
    x1, y1, x2, y2 = s
    h = 0.5 * dt
    a1, b1, c1, d1 = rhs(x1, y1, x2, y2)
    a2, b2, c2, d2 = rhs(x1 + h * a1, y1 + h * b1, x2 + h * c1, y2 + h * d1)
    a3, b3, c3, d3 = rhs(x1 + h * a2, y1 + h * b2, x2 + h * c2, y2 + h * d2)
    a4, b4, c4, d4 = rhs(x1 + dt * a3, y1 + dt * b3, x2 + dt * c3, y2 + dt * d3)
    w = dt / 6.0
    return (x1 + w * (a1 + 2 * a2 + 2 * a3 + a4),
            y1 + w * (b1 + 2 * b2 + 2 * b3 + b4),
            x2 + w * (c1 + 2 * c2 + 2 * c3 + c4),
            y2 + w * (d1 + 2 * d2 + 2 * d3 + d4))


def integrate_hamilton(pot: NumericPotential, init: Sequence[float], dt: float,
                       horizon: float) -> Trajectory:
    """Classical fixed-step RK4 integration of Hamilton's equations.

    Initial data on the invariant plane stays there to machine precision.
    Trajectories whose state magnitude exceeds DIVERGENCE_LIMIT are
    truncated and flagged.  Non-finite dt, horizon or initial data, or a
    step count horizon / dt above MAX_STEPS, raise ValueError.
    """
    steps = _step_count(horizon, dt)
    state = tuple(float(v) for v in init)
    if len(state) != 4:
        raise ValueError("initial state must be (x1, y1, x2, y2)")
    if not all(map(math.isfinite, state)):
        raise ValueError("initial state must be finite")
    rhs = _hamilton_rhs(pot)
    states = [state]
    diverged = False
    for _ in range(steps):
        state = x1, y1, x2, y2 = _rk4_step(rhs, state, dt)
        states.append(state)
        # NaN and inf fail <= as well
        if not (abs(x1) <= DIVERGENCE_LIMIT and abs(y1) <= DIVERGENCE_LIMIT
                and abs(x2) <= DIVERGENCE_LIMIT and abs(y2) <= DIVERGENCE_LIMIT):
            diverged = True
            break
    return Trajectory([i * dt for i in range(len(states))], states,
                      [pot.hamiltonian(s) for s in states], diverged)


def nve_coefficient_samples(traj: Trajectory, pot: NumericPotential) -> List[float]:
    """a(t_i) = alpha(x1(t_i)) along an invariant-plane trajectory."""
    if not traj.max_plane_deviation() <= 1e-9:  # NaN fails too
        raise ValueError("trajectory does not lie on the invariant plane")
    return [_horner(pot.alpha_coeffs, s[0]) for s in traj.states]


def polynomial_degree_test(samples: Sequence[float], degree: int) -> Tuple[bool, float]:
    """Is the uniformly-sampled series a polynomial of degree <= `degree`?

    The metric is the maximum (degree+1)-th forward difference of the
    subsample at step DEGREE_TEST_STRIDE, normalised by the series scale.
    The step is doubled while at least degree+2 points remain and the worst
    metric over all scales is kept: genuine degree-(degree+1) content grows
    like step^(degree+1) while the integration-noise floor does not, so the
    multi-scale maximum separates the two regimes cleanly.  Returns whether
    the metric is below DEGREE_TEST_TOL, and the metric; a series holding
    NaN or inf fails with metric NaN.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    data = [float(v) for v in samples]
    if len(data[::DEGREE_TEST_STRIDE]) < degree + 2:
        raise ValueError("too few samples for the requested degree")
    scale = max(_max_abs(data), 1e-300)
    if not math.isfinite(scale):
        return False, math.nan
    metric = 0.0
    step = DEGREE_TEST_STRIDE
    while len(data[::step]) >= degree + 2:
        diffs = data[::step]
        for _ in range(degree + 1):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        metric = _max_abs((metric, _max_abs(diffs) / scale))
        step *= 2
    return metric < DEGREE_TEST_TOL, metric


def variational_consistency(pot: NumericPotential, init: Sequence[float],
                            delta: float = 1e-6, dt: float = 1e-3,
                            horizon: float = 1.0) -> float:
    """Compare the nonlinear flow against the normal variational equation.

    Integrates (i) the full system from the plane point displaced by
    (0, 0, delta, 0) and (ii) xi'' = alpha(x1(t)) xi with xi(0) = delta
    along the unperturbed plane trajectory; returns max |x2 - xi| / |delta|,
    NaN if the orbit diverges.  Non-finite initial data or delta, and bad dt
    or horizon, raise ValueError.

    With a cubic term beta*x2^3 the deviation is first order in delta.
    With beta = 0 the transverse force is exactly linear in x2, and the
    deviation comes only from the O(delta^2) back-reaction on x1, so it is
    second order in delta (err/delta ~ delta^2) and its constant grows with
    the size of alpha along the orbit; a fixed threshold on it therefore
    holds only for bounded alpha.
    """
    x10, y10, x20, y20 = init = tuple(float(v) for v in init)
    if not all(map(math.isfinite, init)):
        raise ValueError("initial state must be finite")
    if x20 != 0.0 or y20 != 0.0:
        raise ValueError("initial state must lie on the invariant plane")
    steps = _step_count(horizon, dt)
    delta = float(delta)
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    if delta == 0:
        return 0.0
    rhs_full = _hamilton_rhs(pot)
    f1 = pot.dv_dx1
    alpha_c = pot.alpha_coeffs

    def rhs_nve(x1, y1, xi, xidot):
        return (y1, -f1(x1, 0.0), xidot, _horner(alpha_c, x1) * xi)

    full = nve = (x10, y10, delta, 0.0)
    # the deviation at t = 0 is 0; _max_abs keeps a NaN from a diverged orbit
    deviations = [0.0]
    for _ in range(steps):
        full = _rk4_step(rhs_full, full, dt)
        nve = _rk4_step(rhs_nve, nve, dt)
        deviations.append(full[2] - nve[2])
    return _max_abs(deviations) / abs(delta)
