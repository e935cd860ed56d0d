"""Geodesic flow in left-trivialized coordinates, fixed-step RK4.

The state is (w, Y): exponential coordinates of the base point and the
body momentum.  The equations are

    dY/dt = G^{-1} ad^T(Y) G Y,        dw/dt = Psi(ad w) Y,

with Psi = 1 + ad/2 + ad^2/12 the inverse differential of exp for step
<= 3.  The field is one matmul of the flattened outer product state ⊗ Y
against a precomputed structure table, plus one for the ad^2 term.
Batches of initial conditions integrate together.
"""

import numpy as np

from .group import StepUnsupported
from .integrals import QuotientInduced


class NonFinite(RuntimeError):
    """The trajectory left the range of floating point numbers."""


class DenominatorVanished(RuntimeError):
    """A quotient-induced integral hit |denominator| below the cutoff."""


DEN_CUTOFF = 1e-6


def structure_tensor(alg):
    """Dense float tensor C[k, i, j]: e_k coefficient of [e_i, e_j]."""
    n = alg.dim
    c = np.zeros((n, n, n))
    for (i, j), targets in alg.structure.items():
        for k, coeff in targets.items():
            c[k - 1, i - 1, j - 1] = float(coeff)
            c[k - 1, j - 1, i - 1] = -float(coeff)
    return c


class GeodesicField:
    """Right-hand side evaluator for batched states (batch, 2n)."""

    def __init__(self, alg):
        self.n = n = alg.dim
        self.step = alg.analyze().step
        if self.step > 3:
            raise StepUnsupported("flow implemented for step <= 3")
        c = structure_tensor(alg)
        # (u⊗v) @ c_flat = [u, v] and (Y⊗Y) @ q = G^{-1} ad^T(Y) G Y
        c_flat = c.transpose(1, 2, 0).reshape(n * n, n)
        g = np.eye(n) if alg.metric is None else np.array(alg.metric, float)
        q = np.tensordot(g, c, axes=(0, 0)).reshape(n * n, n) \
            @ np.linalg.inv(g).T
        # (state⊗Y) @ table = [½[w, Y] | dY/dt | [w, Y] (step 3 only)]
        self.table = np.zeros((2 * n * n, 3 * n if self.step == 3 else 2 * n))
        self.table[:n * n, :n] = 0.5 * c_flat
        self.table[n * n:, n:2 * n] = q
        if self.step == 3:
            self.table[:n * n, 2 * n:] = c_flat
            self.c_twelfth = c_flat / 12.0

    def __call__(self, state):
        n = self.n
        y = state[:, n:]
        outer = (state[:, :, None] * y[:, None, :]).reshape(len(state), -1)
        r = outer @ self.table
        r[:, :n] += y
        if self.step == 3:
            w_b1 = state[:, :n, None] * r[:, None, 2 * n:]
            r[:, :n] += w_b1.reshape(len(state), -1) @ self.c_twelfth
            return r[:, :2 * n]
        return r


class Trajectory:
    def __init__(self, times, states):
        self.times = times    # (T,)
        self.states = states  # (T, batch, 2n)

    @property
    def batch(self):
        return self.states.shape[1]


def integrate(alg, w0, y0, dt=1e-3, t_end=10.0, field=None):
    """Integrate a batch of initial conditions with classical RK4.

    ``w0`` and ``y0`` are (batch, n) arrays (or single vectors).
    """
    w0 = np.atleast_2d(np.asarray(w0, dtype=float))
    y0 = np.atleast_2d(np.asarray(y0, dtype=float))
    if field is None:
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
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[step] = state
        if step % 500 == 0 and not np.all(np.isfinite(state)):
            raise NonFinite("state is no longer finite at t=%g" % (step * dt))
    if not np.all(np.isfinite(state)):
        raise NonFinite("state is no longer finite at t=%g" % t_end)
    return Trajectory(np.linspace(0.0, nsteps * dt, nsteps + 1), out)


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


def write_csv(traj, stream, batch_index=0):
    """One batch member as CSV with header t, w1..wn, y1..yn."""
    n = traj.states.shape[2] // 2
    header = ["t"] + ["w%d" % (i + 1) for i in range(n)] \
        + ["y%d" % (i + 1) for i in range(n)]
    stream.write(",".join(header) + "\n")
    for t, row in zip(traj.times, traj.states[:, batch_index, :]):
        stream.write(",".join([repr(float(t))] + [repr(float(x)) for x in row]))
        stream.write("\n")
