"""Exact linear programming by a fraction-free tableau simplex.

Problems are in canonical form: maximize c.x subject to A x <= b and
x >= 0, with every entry an int and b >= 0.  ``solve`` appends one slack
column per row and starts at x = 0, the slack basis, which b >= 0 makes
feasible, so there is no phase 1.  Bland's smallest-index rule is used
for both the entering and leaving choice, so the solver cannot cycle and
is deterministic.  Results carry certificates that re-verify by plain
substitution: an optimal point with its reduced costs, whose slack
entries are the optimal dual, or an unbounded ray d >= 0 with A d <= 0
and c.d > 0.

The tableau holds the problem's integers as given, with the slack
columns at coefficient 1.  Each row of it, and the z row, is D times the
rational tableau row, where D > 0 is the absolute determinant of the
current basis; a pivot divides by the previous D exactly (Edmonds 1967,
Bareiss 1968), and D > 0 changes no sign, so each comparison Bland's
rule makes is the rational simplex's.  Points, values, reduced costs and
rays are returned as integers over D (``LPResult.den``).  A caller with
rational data scales every row and the rhs by one common factor and the
objective by another, which keeps every pivot; docs/exactness.md gives
the arguments in full ("Fraction-free simplex").
"""

from dataclasses import dataclass


@dataclass
class LPProblem:
    """maximize objective.x  s.t.  rows[k].x <= rhs[k] for all k,  x >= 0,
    with every rhs[k] >= 0."""

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
        # a Fraction would be floored by the pivots' exact division
        if not all(type(v) is int
                   for part in (self.objective, self.rhs, *self.rows)
                   for v in part):
            raise ValueError("LP entries must be ints")
        # the slack basis x = 0 is the start, so it must be feasible
        if any(b < 0 for b in self.rhs):
            raise ValueError("LP rhs must be >= 0")


@dataclass
class LPResult:
    """x, value, reduced and ray are integers over ``den`` = D > 0."""

    status: str           # "optimal" | "unbounded"
    den: int = None
    x: list = None        # optimal point over the structural columns
    value: int = None
    reduced: list = None  # reduced costs, structural then slack columns
    ray: list = None      # unbounded direction (status == "unbounded")


def _pivot(rows, r, c, det):
    """Fraction-free pivot on rows[r][c] > 0; returns the new determinant.

    Every row holds ``det`` times its rational tableau row, and keeps
    holding the new determinant, the pivot, times it: the division by
    ``det`` is exact by Sylvester's identity.
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
    return piv


def _iterate(tab, basis, det):
    """Bland-rule simplex until optimal or unbounded.

    ``tab`` holds the constraint rows and then the z row, rhs last.
    Returns (entering column, determinant): the column no row limits
    when unbounded, -1 when optimal.
    """
    m = len(tab) - 1
    ncols = len(tab[m]) - 1
    while True:
        zrow = tab[m]
        enter = -1
        for j in range(ncols):
            if zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            return -1, det
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
            return enter, det
        det = _pivot(tab, leave, enter, det)
        basis[leave] = enter


def solve(problem):
    """One-phase exact simplex for an LPProblem in canonical form, from
    the slack basis."""
    problem.check()
    n = len(problem.objective)
    m = len(problem.rows)
    tab = [[*row, *(int(k == r) for k in range(m)), b]
           for r, (row, b) in enumerate(zip(problem.rows, problem.rhs))]
    tab.append([-c for c in problem.objective] + [0] * (m + 1))
    basis = list(range(n, n + m))
    enter, det = _iterate(tab, basis, 1)
    if enter >= 0:
        # the entering column's edge: D per unit of it, and each basic
        # variable falls by its tableau entry, none of which is positive
        ray = [0] * (n + m)
        ray[enter] = det
        for row, j in zip(tab, basis):
            ray[j] = -row[enter]
        return LPResult(status="unbounded", den=det, ray=ray[:n])
    x = [0] * (n + m)
    for row, j in zip(tab, basis):
        x[j] = row[-1]
    # the z row's rhs is D times c.x, its other entries D times the
    # reduced costs, those of the slack columns being the duals
    zrow = tab[-1]
    return LPResult(status="optimal", den=det, x=x[:n], value=zrow[-1],
                    reduced=zrow[:-1])
