"""Geodesic flow in left-trivialized coordinates, fixed-step RK4.

The state is (w, Y): exponential coordinates of the base point and the
body momentum.  The flow is the Hamiltonian flow of the energy E, so the
field is dx_i/dt = {x_i, E} for each phase-space coordinate x_i, that is

    dY/dt = G^{-1} ad^T(Y) G Y,        dw/dt = Psi(ad w) Y.

``GeodesicField`` compiles these 2n exact polynomials once per flow, so
the flow runs on any nilpotent step.  Batches integrate together: each
RK4 stage is one field call on the whole (batch, 2n) state, and each step
is written straight into the stored trajectory.  ``Evaluator.rows``
evaluates the field variable-major: one gather of the transposed state
into a (monomial factors, batch) array, one product per degree and one
``p.T.dot(coeffs)``, which rounds as the row-major product does even at
batch 1.  The state is checked for finiteness every 500 steps and at the
end; a failed check names the time of the first non-finite stored state.
"""

import numpy as np

from .integrals import Coordinate, Energy, QuotientInduced
from .poisson import PoissonEngine
from .ratpoly import Evaluator


class NonFinite(RuntimeError):
    """The trajectory left the range of floating point numbers."""


class DenominatorVanished(RuntimeError):
    """A quotient-induced integral hit |denominator| below the cutoff."""


DEN_CUTOFF = 1e-6
CHECK_EVERY = 500  # RK4 steps between finiteness checks


class GeodesicField:
    """Right-hand side {x_i, E} for batched states (batch, 2n)."""

    def __init__(self, alg):
        engine, energy = PoissonEngine(alg), Energy(alg)
        self.evaluator = Evaluator(
            [engine.bracket(Coordinate(alg, i), energy).poly
             for i in range(2 * alg.dim)])

    def __call__(self, state):
        return self.evaluator.rows(state)


class Trajectory:
    def __init__(self, times, states):
        self.times = times    # (T,)
        self.states = states  # (T, batch, 2n)

    @property
    def batch(self):
        return self.states.shape[1]


def integrate(alg, w0, y0, dt=1e-3, t_end=10.0):
    """Integrate a batch of initial conditions with classical RK4.

    ``w0`` and ``y0`` are (batch, n) arrays (or single vectors).
    """
    w0 = np.atleast_2d(np.asarray(w0, dtype=float))
    y0 = np.atleast_2d(np.asarray(y0, dtype=float))
    field = GeodesicField(alg)
    state = np.concatenate([w0, y0], axis=1)
    nsteps = int(round(t_end / dt))
    out = np.empty((nsteps + 1,) + state.shape)
    out[0] = state
    half = 0.5 * dt
    for step in range(1, nsteps + 1):
        k1 = field(state)
        k2 = field(state + half * k1)
        k3 = field(state + half * k2)
        k4 = field(state + dt * k3)
        state = np.add(state, (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
                       out=out[step])
        if step % CHECK_EVERY == 0:
            _check_finite(out, step, dt)
    _check_finite(out, nsteps, dt)
    return Trajectory(np.linspace(0.0, nsteps * dt, nsteps + 1), out)


def _check_finite(states, step, dt):
    """Raise NonFinite if states[step] is not finite, at the time of the
    first state with a non-finite entry since the last check."""
    if np.all(np.isfinite(states[step])):
        return
    start = max(step - 1, 0) // CHECK_EVERY * CHECK_EVERY
    span = states[start:step + 1]
    finite = np.isfinite(span).reshape(len(span), -1).all(axis=1)
    first = start + int(np.argmin(finite))
    raise NonFinite("state is no longer finite at t=%g" % (first * dt))


def evaluate_along(f, traj):
    """Values of one integral along a trajectory: (T, batch) array."""
    if isinstance(f, QuotientInduced):
        num = evaluate_along(f.num, traj)
        den = evaluate_along(f.den, traj)
        if np.any(np.abs(den) < DEN_CUTOFF):
            raise DenominatorVanished(
                "|denominator| fell below %g along the flow" % DEN_CUTOFF)
        return np.exp(-1.0 / den ** 2) * np.sin(2.0 * np.pi * num / den)
    coords = np.moveaxis(traj.states, 2, 0)  # (2n, T, batch) views
    n = len(coords) // 2
    values = f.value((coords[:n], coords[n:]))
    if np.isscalar(values):  # a polynomial with no terms gives the scalar 0
        return np.full(coords.shape[1:], float(values))
    return values


def conservation_report(integrals, traj):
    """Relative drift of each integral: max |f(t) - f(0)| / max(|f(0)|, 1)."""
    report = []
    for f in integrals:
        values = evaluate_along(f, traj)
        ref = np.maximum(np.abs(values[0]), 1.0)
        drift = np.max(np.abs(values - values[0]) / ref)
        report.append((f.spec_string(), float(drift)))
    return report


def write_csv(traj, stream):
    """The first batch member as CSV with header t, w1..wn, y1..yn."""
    n = traj.states.shape[2] // 2
    header = ["t"] + ["w%d" % (i + 1) for i in range(n)] \
        + ["y%d" % (i + 1) for i in range(n)]
    stream.write(",".join(header) + "\n")
    for t, row in zip(traj.times, traj.states[:, 0, :]):
        stream.write(",".join([repr(float(t))] + [repr(float(x)) for x in row]))
        stream.write("\n")
