"""Exact linear programming by a fraction-free two-phase tableau simplex.

Problems are in standard equality form: maximize c.x subject to A x = b,
x >= 0, with every entry a Fraction (or int).  Bland's smallest-index rule
is used for both the entering and leaving choice, so the solver cannot
cycle and is deterministic.  Results carry certificates that re-verify by
plain substitution: a feasible optimal point, or a Farkas witness y with
y.A <= 0 and y.b > 0 for infeasible systems.

The tableau holds integers.  Every constraint row and the rhs are
multiplied by one common denominator L (artificial columns keep their
coefficient 1), and the phase-2 costs by the common denominator of the
objective (``hyperreal.scaled``).  Each row of the integer tableau, and
the z row, is D times the scaled problem's rational tableau row, where
D > 0 is the absolute determinant of the current basis; a pivot divides
by the previous D exactly (Edmonds 1967, Bareiss 1968).  The pivot
sequence is the rational simplex's: scaling all rows by one L multiplies
the phase-1 objective by L and every ratio of a ratio test by the same
factor, and D > 0 changes no sign, so each comparison Bland's rule makes
has the same outcome.  Points, values and Farkas witnesses are read back as
Fractions over D.  docs/exactness.md gives both arguments in full.
"""

from dataclasses import dataclass
from fractions import Fraction

from .hyperreal import scaled

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class LPProblem:
    """maximize objective.x  s.t.  rows[k].x == rhs[k] for all k,  x >= 0."""

    objective: list
    rows: list
    rhs: list

    def check(self):
        n = len(self.objective)
        if len(self.rows) != len(self.rhs):
            raise ValueError("row/rhs count mismatch")
        for row in self.rows:
            if len(row) != n:
                raise ValueError("row width mismatch")


@dataclass
class LPResult:
    status: str           # "optimal" | "infeasible" | "unbounded"
    x: list = None        # optimal point (status == "optimal")
    value: Fraction = None
    farkas: list = None   # infeasibility witness (status == "infeasible")


def _pivot(rows, r, c, det):
    """Fraction-free pivot on rows[r][c]; returns the new determinant.

    Every row holds ``det`` times its rational tableau row, and keeps
    holding the new determinant times it: the division by ``det`` is
    exact by Sylvester's identity.  A negative pivot flips every sign, so
    the determinant stays positive and no comparison changes direction.
    """
    prow = rows[r]
    piv = prow[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(a * piv - f * b) // det for a, b in zip(row, prow)]
        elif piv != det:
            rows[i] = [a * piv // det for a in row]
    if piv < 0:
        for i, row in enumerate(rows):
            rows[i] = [-a for a in row]
        piv = -piv
    return piv


def _iterate(tab, basis, ncols, det):
    """Bland-rule simplex until optimal or unbounded.

    ``tab`` holds the constraint rows and then the z row, rhs last.
    Returns (status, determinant).
    """
    m = len(tab) - 1
    zrow = tab[m]
    while True:
        enter = -1
        for j in range(ncols):
            if zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal", det
        leave = -1
        best_n = best_d = None  # best ratio as exact pair, compared crosswise
        for r in range(m):
            coef = tab[r][enter]
            if coef > 0:
                num = tab[r][-1]
                if leave < 0:
                    better = True
                else:
                    lhs = num * best_d
                    rhs = best_n * coef
                    better = lhs < rhs or (lhs == rhs
                                           and basis[r] < basis[leave])
                if better:
                    best_n, best_d, leave = num, coef, r
        if leave < 0:
            return "unbounded", det
        det = _pivot(tab, leave, enter, det)
        basis[leave] = enter
        zrow = tab[m]


def solve(problem):
    """Two-phase exact simplex for an LPProblem in standard form."""
    problem.check()
    n = len(problem.objective)
    m = len(problem.rows)
    cells, _ = scaled([v for row in problem.rows for v in row]
                      + list(problem.rhs))
    tab = []
    for r, b in enumerate(problem.rhs):
        body = cells[r * n:(r + 1) * n] + [cells[m * n + r]]
        if b < 0:
            body = [-v for v in body]
        tab.append(body[:n] + [1 if k == r else 0 for k in range(m)]
                   + body[n:])
    basis = [n + r for r in range(m)]

    # phase 1: maximize -(sum of artificials); initial basis is artificial
    zrow = [-sum(col) for col in zip(*tab)] if tab else [0] * (n + 1)
    zrow[n:n + m] = [0] * m
    tab.append(zrow)
    status, det = _iterate(tab, basis, n + m, 1)
    assert status == "optimal"  # phase-1 objective is bounded above by 0
    zrow = tab.pop()
    if zrow[-1] < 0:  # artificial mass left: infeasible
        y = [ONE - Fraction(zrow[n + k], det) for k in range(m)]
        for k, b in enumerate(problem.rhs):
            if b < 0:
                y[k] = -y[k]
        return LPResult(status="infeasible", farkas=y)

    # the artificial columns are never read again
    tab = [row[:n] + row[-1:] for row in tab]
    # drive zero-level artificials out of the basis, drop redundant rows
    r = 0
    while r < len(tab):
        if basis[r] >= n:
            piv = next((j for j in range(n) if tab[r][j] != 0), None)
            if piv is None:
                del tab[r]
                del basis[r]
                continue
            det = _pivot(tab, r, piv, det)
            basis[r] = piv
        r += 1

    # phase 2 on structural columns
    costs, _ = scaled(problem.objective)
    zrow = [-det * c for c in costs] + [0]
    for j, row in zip(basis, tab):
        cb = costs[j]
        if cb:
            zrow = [z + cb * v for z, v in zip(zrow, row)]
    tab.append(zrow)
    status, det = _iterate(tab, basis, n, det)
    if status == "unbounded":
        return LPResult(status="unbounded")
    x = [ZERO] * n
    for row, j in zip(tab, basis):
        x[j] = Fraction(row[-1], det)
    value = sum(c * v for c, v in zip(problem.objective, x))
    return LPResult(status="optimal", x=x, value=value)
