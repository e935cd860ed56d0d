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
into a (monomial factors, batch) array it keeps for the batch size, one
in-place product per degree and one ``p.T.dot(coeffs)``, which rounds as
the row-major product does even at batch 1.  The stage states and the
step increment go through two (batch, 2n) buffers, so a step allocates
only the four field values.  The state is checked for finiteness every
500 steps and at the end; a failed check names the time of the first
non-finite stored state.

``conservation_report`` reads the trajectory in contiguous chunks of
about ``CHUNK_ROWS`` states (time x batch), so its temporaries stay a
small fixed size whatever the length of the flow.
"""

import numpy as np

from .integrals import Coordinate, Energy, QuotientInduced
from .poisson import PoissonEngine
from .ratpoly import Evaluator, phase_names


class NonFinite(RuntimeError):
    """The trajectory left the range of floating point numbers."""


class DenominatorVanished(RuntimeError):
    """A quotient-induced integral hit |denominator| below the cutoff."""


DEN_CUTOFF = 1e-6
CHECK_EVERY = 500  # RK4 steps between finiteness checks
CHUNK_ROWS = 4096  # states (time x batch) per conservation_report chunk


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
    half, sixth = 0.5 * dt, dt / 6.0
    x, incr = np.empty_like(state), np.empty_like(state)
    add, mul = np.add, np.multiply
    # a blow-up is reported as NonFinite, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, nsteps + 1):
            k1 = field(state)
            k2 = field(add(state, mul(k1, half, out=x), out=x))
            k3 = field(add(state, mul(k2, half, out=x), out=x))
            k4 = field(add(state, mul(k3, dt, out=x), out=x))
            # ((k1 + 2 k2) + 2 k3) + k4, the order of the unbuffered sum
            add(k1, mul(k2, 2.0, out=incr), out=incr)
            add(incr, mul(k3, 2.0, out=x), out=incr)
            add(incr, k4, out=incr)
            state = add(state, mul(incr, sixth, out=incr), out=out[step])
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


def _values(f, coords):
    """Values of one integral at (2n, ...) coordinates: coords.shape[1:]."""
    if isinstance(f, QuotientInduced):
        num, den = _values(f.num, coords), _values(f.den, coords)
        if np.any(np.abs(den) < DEN_CUTOFF):
            raise DenominatorVanished(
                "|denominator| fell below %g along the flow" % DEN_CUTOFF)
        return np.exp(-1.0 / den ** 2) * np.sin(2.0 * np.pi * num / den)
    n = len(coords) // 2
    values = f.value((coords[:n], coords[n:]))
    if np.isscalar(values):  # a polynomial with no terms gives the scalar 0
        return np.full(coords.shape[1:], float(values))
    return values


def conservation_report(integrals, traj):
    """Relative drift of each integral: max |f(t) - f(0)| / max(|f(0)|, 1).

    The trajectory is read in contiguous chunks of whole time steps, about
    ``CHUNK_ROWS`` states each; f(0) comes from the first chunk.  A drift
    is the ``np.max`` of the chunk maxima, so a NaN value gives a NaN
    drift."""
    states = traj.states
    span = max(1, CHUNK_ROWS // max(1, traj.batch))
    starts, refs = [None] * len(integrals), [None] * len(integrals)
    maxima = [[] for _ in integrals]
    for t0 in range(0, len(states), span):
        coords = np.ascontiguousarray(np.moveaxis(states[t0:t0 + span], 2, 0))
        for i, f in enumerate(integrals):
            values = _values(f, coords)
            if t0 == 0:
                starts[i] = values[0]
                refs[i] = np.maximum(np.abs(values[0]), 1.0)
            maxima[i].append(np.max(np.abs(values - starts[i]) / refs[i]))
    return [(f.spec_string(), float(np.max(m)))
            for f, m in zip(integrals, maxima)]


def write_csv(traj, stream):
    """The first batch member as CSV with header t, w1..wn, y1..yn."""
    header = ["t"] + phase_names(traj.states.shape[2])
    stream.write(",".join(header) + "\n")
    for t, row in zip(traj.times, traj.states[:, 0, :]):
        stream.write(",".join([repr(float(t))] + [repr(float(x)) for x in row]))
        stream.write("\n")
