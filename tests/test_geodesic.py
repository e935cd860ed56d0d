import io
from fractions import Fraction

import numpy as np
import pytest

from nilflow.algebra import LieAlgebraDescriptor
from nilflow.geodesic import (
    DenominatorVanished,
    conservation_report,
    evaluate_along,
    integrate,
    structure_tensor,
    write_csv,
)
from nilflow.integrals import Energy, Linear, QuotientInduced, RightInvariant

DRIFT_TOL = 1e-12
ORDER_RATIO_MIN = 8.0
REVERSIBILITY_TOL = 1e-12


def _h3():
    return LieAlgebraDescriptor(3, {(1, 2): {3: Fraction(1)}}, name="h3")


def _free_23(metric=None):
    structure = {
        (1, 2): {3: Fraction(1)},
        (1, 3): {4: Fraction(1)},
        (2, 3): {5: Fraction(1)},
    }
    return LieAlgebraDescriptor(5, structure, metric=metric, name="free23")


def test_structure_tensor_antisymmetric():
    c = structure_tensor(_free_23())
    assert c.shape == (5, 5, 5)
    assert c[2, 0, 1] == 1.0 and c[2, 1, 0] == -1.0
    assert np.allclose(c, -np.transpose(c, (0, 2, 1)))


def test_h3_conserves_its_integrals():
    alg = _h3()
    fs = [Energy(alg),
          Linear(alg, [Fraction(0), Fraction(0), Fraction(1)]),
          RightInvariant(alg, [Fraction(1), Fraction(0), Fraction(0)])]
    traj = integrate(alg, [0.4, -0.2, 0.9], [1.1, 0.3, -0.7],
                     dt=1e-3, t_end=10.0)
    for name, drift in conservation_report(fs, traj):
        assert drift < DRIFT_TOL, "%s drifted by %g" % (name, drift)


def test_non_integral_drifts():
    alg = _h3()
    not_conserved = Linear(alg, [Fraction(1), Fraction(0), Fraction(0)])
    traj = integrate(alg, [0.4, -0.2, 0.9], [1.1, 0.3, -0.7],
                     dt=1e-3, t_end=10.0)
    (_, drift), = conservation_report([not_conserved], traj)
    assert drift > 1e-3


def test_fourth_order_convergence():
    alg = _free_23()
    w0 = [0.3, -1.1, 0.7, 0.2, -0.5]
    y0 = [1.2, 0.4, -0.9, 0.6, 1.5]
    drifts = []
    for dt in (0.05, 0.025):
        traj = integrate(alg, w0, y0, dt=dt, t_end=5.0)
        (_, drift), = conservation_report([Energy(alg)], traj)
        drifts.append(drift)
    assert drifts[0] / drifts[1] >= ORDER_RATIO_MIN


def test_momentum_reversal_runs_backwards():
    alg = _free_23()
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
        (_h3(), [[0.4, -0.2, 0.9], [0.1, 0.5, -0.3]],
         [[1.1, 0.3, -0.7], [0.2, -0.6, 1.4]]),
        (_free_23(metric), [[0.3, -1.1, 0.7, 0.2, -0.5],
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
    alg = _h3()
    f = RightInvariant(alg, [Fraction(1), Fraction(0), Fraction(0)])
    traj = integrate(alg, [0.4, -0.2, 0.9], [1.1, 0.3, -0.7],
                     dt=0.01, t_end=0.5)
    vals = evaluate_along(f, traj)
    assert vals.shape == (len(traj.times), 1)
    w = list(traj.states[7, 0, :3])
    y = list(traj.states[7, 0, 3:])
    assert abs(vals[7, 0] - float(f.value((w, y)))) < 1e-12
    # an integral with no terms still gives one value per time and start
    zero = Linear(alg, [Fraction(0)] * 3)
    assert np.array_equal(evaluate_along(zero, traj), np.zeros(vals.shape))


def test_quotient_denominator_cutoff():
    alg = _h3()
    num = RightInvariant(alg, [Fraction(1), Fraction(0), Fraction(0)])
    den = Linear(alg, [Fraction(0), Fraction(0), Fraction(1)])
    q = QuotientInduced(num, den)
    # y3 = 0 along the whole flow started with zero center momentum
    traj = integrate(alg, [0.1, 0.2, 0.3], [1.0, 0.5, 0.0], dt=0.01, t_end=0.5)
    with pytest.raises(DenominatorVanished):
        evaluate_along(q, traj)
    # well away from the cutoff the values are finite and drift-free
    traj = integrate(alg, [0.1, 0.2, 0.3], [1.0, 0.5, 0.8], dt=1e-3, t_end=2.0)
    (_, drift), = conservation_report([q], traj)
    assert drift < 1e-10


def test_write_csv_round_trip():
    alg = _h3()
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
