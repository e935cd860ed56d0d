import io
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import filiform6, free_23, h3, tridiagonal, unit
from nilflow import catalog, geodesic
from nilflow.algebra import LieAlgebraDescriptor
from nilflow.geodesic import (
    CHUNK_ROWS,
    DEN_CUTOFF,
    DenominatorVanished,
    GeodesicField,
    NonFinite,
    Trajectory,
    conservation_report,
    integrate,
    write_csv,
)
from nilflow.integrals import Energy, Linear, QuotientInduced, RightInvariant
from nilflow.solvers import denominators_clear

DRIFT_TOL = 1e-12
ORDER_RATIO_MIN = 8.0
REVERSIBILITY_TOL = 1e-12


def test_h3_conserves_its_integrals():
    alg = h3()
    fs = [Energy(alg),
          Linear(alg, [Fraction(0), Fraction(0), Fraction(1)]),
          RightInvariant(alg, [Fraction(1), Fraction(0), Fraction(0)])]
    traj = integrate(alg, [0.4, -0.2, 0.9], [1.1, 0.3, -0.7],
                     dt=1e-3, t_end=10.0)
    for name, drift in conservation_report(fs, traj):
        assert drift < DRIFT_TOL, "%s drifted by %g" % (name, drift)


def test_non_integral_drifts():
    alg = h3()
    not_conserved = Linear(alg, [Fraction(1), Fraction(0), Fraction(0)])
    traj = integrate(alg, [0.4, -0.2, 0.9], [1.1, 0.3, -0.7],
                     dt=1e-3, t_end=10.0)
    (_, drift), = conservation_report([not_conserved], traj)
    assert drift > 1e-3


def test_step_five_flow_conserves_its_integrals():
    alg = filiform6()
    fs = [Energy(alg)] + [RightInvariant(alg, unit(6, k)) for k in range(1, 7)]
    traj = integrate(alg, [0.3, -0.5, 0.2, 0.7, -0.4, 0.1],
                     [0.8, -0.3, 0.6, 0.2, -0.9, 0.5], dt=1e-3, t_end=2.0)
    for name, drift in conservation_report(fs, traj):
        assert drift < 1e-10, "%s drifted by %g" % (name, drift)
    (_, drift), = conservation_report([Linear(alg, unit(6, 1))], traj)
    assert drift > 1e-3


def _closed_form(alg):
    """A start (w0, y0), the error of a momentum y at time t against the
    closed form, as (center part, complement part), and the closed-form
    base point w(t).

    On a 2-step algebra, Y = V + Z with Z the metric-orthogonal projection
    onto the center has Z(t) = Z0 and V(t) = e^{t j(Z0)} V0 (Eberlein,
    Ann. Sci. ENS 27, 1994).  The base point solves w' = Y + [w, Y] / 2,
    whose bracket is central, so w(t) = w0 + int Y + int [w_lin, Y] / 2
    with w_lin(s) = w0 + int_0^s Y.  The integrals of e^{s j} V0 are read
    off the exponential of [[j, V0], [0, 0]], the outer one is 60-node
    Gauss-Legendre, and the bracket comes from the structure constants:
    an oracle sharing no flow code.
    """
    n = alg.dim
    split = alg.analyze()
    vb = np.array(split.v_complement, dtype=float).T
    zb = np.array(split.center_basis, dtype=float).T
    basis, dv = np.hstack([vb, zb]), vb.shape[1]
    w0, y0 = np.random.default_rng(n).uniform(-1.0, 1.0, (2, n))
    coords = np.linalg.solve(basis, y0)
    v0, z0 = coords[:dv], coords[dv:]
    j = sum(c * np.array(alg.j_map(z), dtype=float)
            for c, z in zip(z0, split.center_basis))

    def errors(t, y):
        coords = np.linalg.solve(basis, y)
        v, z = coords[:dv], coords[dv:]
        return (np.max(np.abs(zb @ (z - z0))),
                np.max(np.abs(vb @ (v - expm(t * j) @ v0))))

    consts = np.zeros((n, n, n))  # [e_i, e_j] = consts[i, j] . e
    for (i, k), targets in alg.structure.items():
        for m, c in targets.items():
            consts[i - 1, k - 1, m - 1] = float(c)
            consts[k - 1, i - 1, m - 1] = -float(c)
    aug = np.zeros((dv + 1, dv + 1))
    aug[:dv, :dv], aug[:dv, dv] = j, v0
    z = zb @ z0

    def momentum_and_integral(s):
        e = expm(s * aug)
        return vb @ (e[:dv, :dv] @ v0) + z, vb @ e[:dv, dv] + s * z

    def base_point(t):
        nodes, weights = np.polynomial.legendre.leggauss(60)
        central = np.zeros(n)
        for x, wt in zip(nodes, weights):
            y, integral = momentum_and_integral(0.5 * t * (x + 1.0))
            central += 0.5 * t * wt * np.einsum("i,j,ijk->k", w0 + integral,
                                                y, consts)
        return w0 + momentum_and_integral(t)[1] + 0.5 * central

    return w0, y0, errors, base_point


def test_two_step_flow_matches_closed_form():
    h5 = catalog.get("h5").descriptor
    cases = [h3(), h3(metric=tridiagonal(3)),
             h5, LieAlgebraDescriptor(5, h5.structure, metric=tridiagonal(5))]
    for alg in cases:
        w0, y0, errors, base_point = _closed_form(alg)
        traj = integrate(alg, w0, y0, dt=1e-3, t_end=2.0)
        assert traj.times[-1] == 2.0
        center, complement = errors(2.0, traj.states[-1, 0, alg.dim:])
        assert center < 1e-9
        assert complement < 1e-9
        w = traj.states[-1, 0, :alg.dim]
        assert np.max(np.abs(w - base_point(2.0))) < 1e-12


@pytest.mark.parametrize("metric", [None, tridiagonal(5)])
def test_rk4_global_error_scales_as_dt4(metric):
    # halving dt divides RK4's global error by about 2^4 = 16; h5 keeps
    # the finest error (about 6e-9) well above roundoff
    alg = LieAlgebraDescriptor(5, catalog.get("h5").descriptor.structure,
                               metric=metric)
    w0, y0, errors, _ = _closed_form(alg)
    errs = []
    for dt in (0.1, 0.05, 0.025):
        traj = integrate(alg, w0, y0, dt=dt, t_end=2.0)
        assert traj.times[-1] == 2.0
        errs.append(max(errors(2.0, traj.states[-1, 0, 5:])))
    for coarse, fine in zip(errs, errs[1:]):
        assert 14 <= coarse / fine <= 18, errs


def test_fourth_order_convergence():
    alg = free_23()
    w0 = [0.3, -1.1, 0.7, 0.2, -0.5]
    y0 = [1.2, 0.4, -0.9, 0.6, 1.5]
    drifts = []
    for dt in (0.05, 0.025):
        traj = integrate(alg, w0, y0, dt=dt, t_end=5.0)
        (_, drift), = conservation_report([Energy(alg)], traj)
        drifts.append(drift)
    assert drifts[0] / drifts[1] >= ORDER_RATIO_MIN


def test_momentum_reversal_runs_backwards():
    alg = free_23()
    w0 = [0.3, -1.1, 0.7, 0.2, -0.5]
    y0 = [1.2, 0.4, -0.9, 0.6, 1.5]
    fwd = integrate(alg, w0, y0, dt=1e-3, t_end=2.0)
    end = fwd.states[-1, 0]
    back = integrate(alg, list(end[:5]), list(-end[5:]), dt=1e-3, t_end=2.0)
    fin = back.states[-1, 0]
    assert np.max(np.abs(fin[:5] - np.array(w0))) < REVERSIBILITY_TOL
    assert np.max(np.abs(-fin[5:] - np.array(y0))) < REVERSIBILITY_TOL


def test_batched_matches_single():
    metric = [[2, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 0, 3, 0, 0],
              [0, 0, 0, 2, 1], [0, 0, 0, 1, 2]]
    cases = (
        (h3(), [[0.4, -0.2, 0.9], [0.1, 0.5, -0.3]],
         [[1.1, 0.3, -0.7], [0.2, -0.6, 1.4]]),
        (free_23(metric), [[0.3, -1.1, 0.7, 0.2, -0.5],
                            [0.1, 0.5, -0.3, 0.8, 0.4]],
         [[1.2, 0.4, -0.9, 0.6, 1.5], [0.2, -0.6, 1.4, -0.3, 0.7]]),
    )
    for alg, w, y in cases:
        both = integrate(alg, w, y, dt=0.01, t_end=1.0)
        assert both.batch == 2
        one = integrate(alg, w[1], y[1], dt=0.01, t_end=1.0)
        assert np.allclose(both.states[:, 1, :], one.states[:, 0, :],
                           atol=1e-14)


def test_evaluate_along_matches_value():
    alg = h3()
    f = RightInvariant(alg, [Fraction(1), Fraction(0), Fraction(0)])
    traj = integrate(alg, [0.4, -0.2, 0.9], [1.1, 0.3, -0.7],
                     dt=0.01, t_end=0.5)
    coords = np.moveaxis(traj.states, 2, 0)
    vals = f.value((coords[:3], coords[3:]))
    assert vals.shape == (len(traj.times), 1)
    w = list(traj.states[7, 0, :3])
    y = list(traj.states[7, 0, 3:])
    assert abs(vals[7, 0] - float(f.value((w, y)))) < 1e-12
    # an integral with no terms still gives one value per time and start
    zero = Linear(alg, [Fraction(0)] * 3)
    assert conservation_report([zero], traj) == [(zero.spec_string(), 0.0)]


def _old_values(f, coords):
    """The flow's values of one integral before ``QuotientInduced.value``
    took array points: the quotient formula restated elementwise."""
    if isinstance(f, QuotientInduced):
        num, den = _old_values(f.num, coords), _old_values(f.den, coords)
        return np.exp(-1.0 / den ** 2) * np.sin(2.0 * np.pi * num / den)
    n = len(coords) // 2
    values = f.value((coords[:n], coords[n:]))
    if np.isscalar(values):
        return np.full(coords.shape[1:], float(values))
    return values


def test_quotient_values_at_array_points_match_the_old_formula():
    alg = h3()
    vec = [[Fraction(c) for c in v] for v in ([1, 0, 0], [0, 0, 1], [0, 0, 0])]
    inner = QuotientInduced(RightInvariant(alg, vec[0]), Linear(alg, vec[1]))
    fs = [inner, QuotientInduced(Linear(alg, vec[2]), Linear(alg, vec[1])),
          QuotientInduced(inner, Linear(alg, vec[1])),
          QuotientInduced(RightInvariant(alg, vec[0]), inner)]
    coords = np.random.default_rng(5).uniform(-2.0, 2.0, (6, 40, 3))
    for f in fs:
        # the last one divides by values of inner that underflow to 0
        with np.errstate(all="ignore"):
            new = f.value((coords[:3], coords[3:]))
            old = _old_values(f, coords)
        assert new.shape == (40, 3)
        # bit for bit, signed zeros included
        assert new.tobytes() == old.tobytes()


def test_nested_denominators_stop_at_a_vanished_inner_one(monkeypatch):
    # inner = right:e1 / lin:e3 vanishes with y3; the outer denominator
    # divides by it and must not be evaluated where y3 = 0
    alg = h3()
    vec = [[Fraction(c) for c in v] for v in ([1, 0, 0], [0, 0, 1])]
    inner = QuotientInduced(RightInvariant(alg, vec[0]), Linear(alg, vec[1]))
    outer = QuotientInduced(Linear(alg, vec[1]), inner)

    def unreachable(point):
        raise AssertionError("the outer denominator was evaluated")

    monkeypatch.setattr(inner, "value", unreachable)
    assert not denominators_clear([outer], [([0.1, 0.2, 0.3],
                                             [1.0, 0.5, 0.0])])
    traj = integrate(alg, [0.1, 0.2, 0.3], [1.0, 0.5, 0.0], dt=0.01,
                     t_end=0.05)
    with pytest.raises(DenominatorVanished,
                       match=r"^\|denominator\| fell below 1e-06 along "
                             r"the flow$"):
        conservation_report([Energy(alg), outer], traj)


def test_quotient_denominator_cutoff():
    alg = h3()
    num = RightInvariant(alg, [Fraction(1), Fraction(0), Fraction(0)])
    den = Linear(alg, [Fraction(0), Fraction(0), Fraction(1)])
    q = QuotientInduced(num, den)
    # y3 = 0 along the whole flow started with zero center momentum
    traj = integrate(alg, [0.1, 0.2, 0.3], [1.0, 0.5, 0.0], dt=0.01, t_end=0.5)
    with pytest.raises(DenominatorVanished):
        conservation_report([q], traj)
    # well away from the cutoff the values are finite and drift-free
    traj = integrate(alg, [0.1, 0.2, 0.3], [1.0, 0.5, 0.8], dt=1e-3, t_end=2.0)
    (_, drift), = conservation_report([q], traj)
    assert drift < 1e-10


def test_write_csv_round_trip():
    alg = h3()
    traj = integrate(alg, [0.4, -0.2, 0.9], [1.1, 0.3, -0.7],
                     dt=0.1, t_end=0.5)
    buf = io.StringIO()
    write_csv(traj, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,w1,w2,w3,y1,y2,y3"
    assert len(lines) == len(traj.times) + 1
    row3 = [float(v) for v in lines[3].split(",")]
    assert row3[0] == pytest.approx(float(traj.times[2]))
    assert row3[1:] == pytest.approx(list(traj.states[2, 0, :]))


def _reference_rk4(alg, w0, y0, dt, t_end):
    """The RK4 loop before steps were written into the trajectory in place:
    each new state is allocated, then copied into the stored array."""
    field = GeodesicField(alg)
    state = np.concatenate([np.atleast_2d(w0), np.atleast_2d(y0)], axis=1)
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
    return out


@pytest.mark.parametrize("alg", [h3(), catalog.get("n6_25").descriptor],
                         ids=["h3", "n6_25"])
def test_trajectory_matches_the_reference_loop(alg):
    w0, y0 = np.random.default_rng(alg.dim).uniform(-1.5, 1.5, (2, 3, alg.dim))
    for w, y in ((w0[:1], y0[:1]), (w0, y0)):
        traj = integrate(alg, w, y, dt=1e-3, t_end=0.2)
        assert traj.states.shape == (201, len(w), 2 * alg.dim)
        assert np.array_equal(traj.states,
                              _reference_rk4(alg, w, y, dt=1e-3, t_end=0.2))


def test_integrate_calls_the_field_four_times_a_step(monkeypatch):
    # the benchmark tracer counts field rows through GeodesicField.__call__
    # and expects 4 calls per RK4 step, each on the whole (batch, 2n) state
    shapes = []
    call = GeodesicField.__call__

    def counting(self, state):
        shapes.append(state.shape)
        return call(self, state)

    monkeypatch.setattr(GeodesicField, "__call__", counting)
    alg = free_23()
    traj = integrate(alg, np.zeros((3, 5)), np.ones((3, 5)), dt=0.01,
                     t_end=0.37)
    assert len(traj.times) - 1 == 37
    assert shapes == [(3, 10)] * (4 * 37)


def test_non_finite_reports_the_first_bad_state(monkeypatch):
    # the field turns infinite on the first stage of step 701, between the
    # finiteness checks at steps 500 and 1000
    calls = []
    call = GeodesicField.__call__

    def overflowing(self, state):
        calls.append(None)
        out = call(self, state)
        return out if len(calls) <= 4 * 700 else np.full(out.shape, np.inf)

    monkeypatch.setattr(GeodesicField, "__call__", overflowing)
    with np.errstate(invalid="ignore"), \
            pytest.raises(NonFinite, match=r"no longer finite at t=0\.701$"):
        integrate(h3(), [0.4, -0.2, 0.9], [1.1, 0.3, -0.7], dt=1e-3,
                  t_end=2.0)
    assert len(calls) == 4 * 1000


def test_blow_up_raises_non_finite_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=r"no longer finite at t=0\.001$"):
            integrate(h3(), [1e200] * 3, [1e200, 1, 1], t_end=0.01)


def _whole_trajectory_report(integrals, traj):
    """conservation_report before it read the trajectory in chunks: each
    integral evaluated at once on strided (T, batch) views of the whole
    trajectory."""
    def along(f):
        if isinstance(f, QuotientInduced):
            num, den = along(f.num), along(f.den)
            if np.any(np.abs(den) < DEN_CUTOFF):
                raise DenominatorVanished(
                    "|denominator| fell below %g along the flow" % DEN_CUTOFF)
            return np.exp(-1.0 / den ** 2) * np.sin(2.0 * np.pi * num / den)
        coords = np.moveaxis(traj.states, 2, 0)
        n = len(coords) // 2
        values = f.value((coords[:n], coords[n:]))
        if np.isscalar(values):
            return np.full(coords.shape[1:], float(values))
        return values

    report = []
    for f in integrals:
        values = along(f)
        ref = np.maximum(np.abs(values[0]), 1.0)
        report.append((f.spec_string(),
                       float(np.max(np.abs(values - values[0]) / ref))))
    return report


def test_chunked_report_matches_the_whole_trajectory_report():
    alg = h3()
    vec = [[Fraction(c) for c in v] for v in ([1, 0, 0], [0, 0, 1], [1, -1, 0])]
    quotient = QuotientInduced(RightInvariant(alg, vec[0]), Linear(alg, vec[1]))
    fs = [Energy(alg), RightInvariant(alg, vec[0]), Linear(alg, vec[2]),
          Linear(alg, [Fraction(0)] * 3), quotient]
    batch = 3
    traj = integrate(alg, [[0.4, -0.2, 0.9], [0.1, 0.5, -0.3], [0, 0, 1]],
                     [[1.1, 0.3, -0.7], [0.2, -0.6, 1.4], [1, 1, 1]],
                     dt=1e-3, t_end=4.5)
    assert len(traj.times) > 3 * (CHUNK_ROWS // batch)
    report = conservation_report(fs, traj)
    assert report == _whole_trajectory_report(fs, traj)
    assert all(0 < drift < 1e-9 for _, drift in report[:2] + report[4:])
    assert report[2][1] > 1e-3 and report[3][1] == 0.0

    # values overflow to inf in the second chunk and are NaN in the third
    states = traj.states.copy()
    states[2000, 1, 3:] = [1e200, 1e200, 1.0]
    states[3000, 2, 3:] = [np.inf, np.inf, 1.0]
    bad = Trajectory(traj.times, states)
    with np.errstate(over="ignore", invalid="ignore"):
        report = conservation_report(fs[:3], bad)
        old = _whole_trajectory_report(fs[:3], bad)
    assert repr(report) == repr(old)
    assert [d for _, d in report][:2] == [np.inf, np.inf]
    assert np.isnan(report[2][1])

    # a vanishing denominator only in the last chunk: the same error
    states = traj.states.copy()
    states[-1, 0, 5] = 0.0
    vanished = Trajectory(traj.times, states)
    messages = []
    for run in (conservation_report, _whole_trajectory_report):
        with pytest.raises(DenominatorVanished) as err:
            run(fs, vanished)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_report_memory_stays_bounded():
    # temporaries are a few chunks, not a few (T, batch) arrays
    entry = catalog.get("n6_25")
    fs = list(entry.complete_set) + [Energy(entry.descriptor)]
    states = np.random.default_rng(0).uniform(-1.5, 1.5, (1001, 256, 12))
    traj = Trajectory(np.linspace(0.0, 1.0, 1001), states)
    conservation_report(fs, Trajectory(traj.times[:2], states[:2]))  # compile
    tracemalloc.start()
    try:
        conservation_report(fs, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < states.nbytes / 8, (peak, states.nbytes)


def test_a_flow_above_the_storage_limit_is_refused(monkeypatch):
    alg = h3()
    w0, y0 = np.zeros((2, 3)), np.ones((2, 3))
    with pytest.raises(ValueError, match="above the limit"):
        integrate(alg, w0[0], y0[0], dt=1.0, t_end=1e12)  # about 44 TiB
    # 11 stored states of 2 x 6 floats: exactly the limit runs, less refuses
    monkeypatch.setattr(geodesic, "MAX_TRAJECTORY_FLOATS", 11 * 2 * 6)
    assert integrate(alg, w0, y0, dt=0.1, t_end=1.0).states.shape == (11, 2, 6)
    monkeypatch.setattr(geodesic, "MAX_TRAJECTORY_FLOATS", 11 * 2 * 6 - 1)
    with pytest.raises(ValueError, match="would store 132 floats"):
        integrate(alg, w0, y0, dt=0.1, t_end=1.0)
