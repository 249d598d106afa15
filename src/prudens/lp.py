"""Exact linear programming by a fraction-free two-phase tableau simplex.

Problems are in standard equality form: maximize c.x subject to A x = b,
x >= 0, with every entry an int.  Bland's smallest-index rule is used
for both the entering and leaving choice, so the solver cannot cycle and
is deterministic.  Results carry certificates that re-verify by plain
substitution: a feasible optimal point with its reduced costs, or a
Farkas witness y with y.A <= 0 and y.b > 0 for infeasible systems.

The simplex starts at the slack basis where it can: a column that is
exactly e_r, in a row whose rhs is >= 0, starts basic in row r, and only
the other rows get an artificial column, so a problem with a unit column
in every row takes no phase-1 pivot.  The tableau holds the problem's
integers as given (artificial columns get coefficient 1).  Each row of
it, and the z row, is D times the rational tableau row, where D > 0 is
the absolute determinant of the current basis; a pivot divides by the
previous D exactly (Edmonds 1967, Bareiss 1968), and D > 0 changes no
sign, so each comparison Bland's rule makes is the rational simplex's.
Points, values, reduced costs and Farkas witnesses are returned as
integers over D (``LPResult.den``).  A caller with rational data scales
every row and the rhs by one common factor and the objective by
another, which keeps every pivot as long as it keeps the same unit
columns; docs/exactness.md gives the arguments in full ("Fraction-free
simplex").
"""

from dataclasses import dataclass


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
        # a Fraction would be floored by the pivots' exact division
        if not all(type(v) is int
                   for part in (self.objective, self.rhs, *self.rows)
                   for v in part):
            raise ValueError("LP entries must be ints")


@dataclass
class LPResult:
    """x, value, reduced and farkas are integers over ``den`` = D > 0."""

    status: str           # "optimal" | "infeasible" | "unbounded"
    den: int = None       # unset when unbounded
    x: list = None        # optimal point (status == "optimal")
    value: int = None
    reduced: list = None  # phase-2 reduced costs (status == "optimal")
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


def _unit_columns(rows, rhs):
    """{row r: the least column that is exactly e_r}, for the rows with
    rhs >= 0 that have one."""
    unit = {}
    for j, column in enumerate(zip(*rows)):
        if 1 in column:
            r = column.index(1)
            if r not in unit and rhs[r] >= 0 and not any(column[:r]) \
                    and not any(column[r + 1:]):
                unit[r] = j
    return unit


def solve(problem):
    """Two-phase exact simplex for an LPProblem in standard form."""
    problem.check()
    n = len(problem.objective)
    m = len(problem.rows)
    # slack-basis start: a unit column starts basic in its row, and only
    # the other rows get an artificial, numbered in row order
    unit = _unit_columns(problem.rows, problem.rhs)
    basis = []
    na = 0
    for r in range(m):
        if r in unit:
            basis.append(unit[r])
        else:
            basis.append(n + na)
            na += 1
    start = list(basis)
    tab = []
    for row, b, j in zip(problem.rows, problem.rhs, start):
        body = [*row, b]
        if b < 0:
            body = [-v for v in body]
        tab.append(body[:n] + [1 if n + k == j else 0 for k in range(na)]
                   + body[n:])

    # phase 1: maximize -(sum of artificials), from the starting basis; it
    # takes no pivot when every row has a unit column
    zrow = [0] * (n + na + 1)
    for row, j in zip(tab, start):
        if j >= n:
            zrow = [z - v for z, v in zip(zrow, row)]
    zrow[n:n + na] = [0] * na
    tab.append(zrow)
    status, det = _iterate(tab, basis, n + na, 1)
    assert status == "optimal"  # phase-1 objective is bounded above by 0
    zrow = tab.pop()
    if zrow[-1] < 0:  # artificial mass left: infeasible
        # y = -D times the phase-1 multipliers: an artificial's cost is -1,
        # a unit column's 0
        y = [(det if j >= n else 0) - zrow[j] for j in start]
        for k, b in enumerate(problem.rhs):
            if b < 0:
                y[k] = -y[k]
        return LPResult(status="infeasible", den=det, farkas=y)

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
    zrow = [-det * c for c in problem.objective] + [0]
    for j, row in zip(basis, tab):
        cb = problem.objective[j]
        if cb:
            zrow = [z + cb * v for z, v in zip(zrow, row)]
    tab.append(zrow)
    status, det = _iterate(tab, basis, n, det)
    if status == "unbounded":
        return LPResult(status="unbounded")
    x = [0] * n
    for row, j in zip(tab, basis):
        x[j] = row[-1]
    # the z row's rhs is D times c.x, its other entries D times the
    # reduced costs
    zrow = tab[-1]
    return LPResult(status="optimal", den=det, x=x, value=zrow[-1],
                    reduced=zrow[:n])
