"""Builders, an exact span oracle and the in-process CLI runner that
several test modules share."""

import contextlib
import io
import os
from fractions import Fraction

from nilflow import cli
from nilflow.algebra import LieAlgebraDescriptor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def h3(metric=None):
    return LieAlgebraDescriptor(3, {(1, 2): {3: Fraction(1)}}, metric=metric)


def free_23(metric=None):
    structure = {
        (1, 2): {3: Fraction(1)},
        (1, 3): {4: Fraction(1)},
        (2, 3): {5: Fraction(1)},
    }
    return LieAlgebraDescriptor(5, structure, metric=metric, name="free23")


def filiform6():
    # [e1, e_k] = e_{k+1}: step 5, so Psi reaches ad(w)^4
    return LieAlgebraDescriptor(6, {(1, k): {k + 1: Fraction(1)}
                                    for k in range(2, 6)})


def tridiagonal(n):
    return [[2 if i == j else 1 if abs(i - j) == 1 else 0 for j in range(n)]
            for i in range(n)]


def unit(n, i):
    """The basis vector e_i of Q^n, 1-based."""
    return [Fraction(int(k == i)) for k in range(1, n + 1)]


def fr(*vals):
    return [Fraction(v) for v in vals]


def in_span(mats, target):
    """Exact membership of target in the rational span of mats."""
    if not mats:
        return all(all(c == 0 for c in row) for row in target)
    n = len(target)
    k = len(mats)
    # Gaussian elimination on the (n^2) x k system
    rows = [[m[i][j] for m in mats] + [target[i][j]]
            for i in range(n) for j in range(n)]
    pivot_row = 0
    for col in range(k):
        sel = next((r for r in range(pivot_row, len(rows))
                    if rows[r][col] != 0), None)
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        pv = rows[pivot_row][col]
        rows[pivot_row] = [c / pv for c in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
    # inconsistent iff some row is (0,...,0 | nonzero)
    return not any(all(c == 0 for c in r[:-1]) and r[-1] != 0 for r in rows)


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call from the
    repository root; an argparse rejection counts with its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()
