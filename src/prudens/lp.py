"""Exact linear programming by a fraction-free two-phase tableau simplex.

Problems are in standard equality form: maximize c.x subject to A x = b,
x >= 0, with every entry an int.  Bland's smallest-index rule is used
for both the entering and leaving choice, so the solver cannot cycle and
is deterministic.  Results carry certificates that re-verify by plain
substitution: a feasible optimal point, or a Farkas witness y with
y.A <= 0 and y.b > 0 for infeasible systems.

The tableau holds the problem's integers as given (artificial columns
get coefficient 1).  Each row of it, and the z row, is D times the
rational tableau row, where D > 0 is the absolute determinant of the
current basis; a pivot divides by the previous D exactly (Edmonds 1967,
Bareiss 1968), and D > 0 changes no sign, so each comparison Bland's
rule makes is the rational simplex's.  Points, values and Farkas
witnesses are returned as integers over D (``LPResult.den``).  A caller
with rational data scales every row and the rhs by one common factor
and the objective by another, which keeps every pivot; docs/exactness.md
gives both arguments in full ("Fraction-free simplex").
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
    """x, value and farkas are integers over ``den`` = D > 0."""

    status: str           # "optimal" | "infeasible" | "unbounded"
    den: int = None       # unset when unbounded
    x: list = None        # optimal point (status == "optimal")
    value: int = None
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
    tab = []
    for r, (row, b) in enumerate(zip(problem.rows, problem.rhs)):
        body = [*row, b]
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
        y = [det - zrow[n + k] for k in range(m)]
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
    # the z row's rhs is D times c.x
    return LPResult(status="optimal", den=det, x=x, value=tab[-1][-1])
