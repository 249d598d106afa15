import copy
import math
import random

from fractions import Fraction

import pytest

from prudens import lp

import oracles
from oracles import (fraction_simplex, integer_problem, lp_certificate_holds,
                     rational)


def test_simple_optimum():
    # max x0 + x1 s.t. x0 + 2 x1 + s0 = 4, 3 x0 + x1 + s1 = 6
    problem = lp.LPProblem(
        objective=[1, 1, 0, 0],
        rows=[[1, 2, 1, 0], [3, 1, 0, 1]],
        rhs=[4, 6])
    result = lp.solve(problem)
    assert result.status == "optimal"
    assert lp_certificate_holds(result, problem)
    assert rational(result).value == Fraction(14, 5)


def test_infeasible_with_farkas():
    # x0 + x1 = 1 and x0 + x1 = 2 cannot both hold
    problem = lp.LPProblem(
        objective=[0, 0],
        rows=[[1, 1], [1, 1]],
        rhs=[1, 2])
    result = lp.solve(problem)
    assert result.status == "infeasible"
    assert lp_certificate_holds(result, problem)


def test_infeasible_by_sign():
    # x0 >= 0 but x0 = -1
    problem = lp.LPProblem(objective=[0], rows=[[1]], rhs=[-1])
    result = lp.solve(problem)
    assert result.status == "infeasible"
    assert lp_certificate_holds(result, problem)


def test_unbounded():
    # max x0 with x0 - x1 = 0: both can grow forever
    problem = lp.LPProblem(
        objective=[1, 0],
        rows=[[1, -1]],
        rhs=[0])
    assert lp.solve(problem).status == "unbounded"


def test_redundant_rows():
    problem = lp.LPProblem(
        objective=[1, 0],
        rows=[[1, 1], [2, 2]],
        rhs=[1, 2])
    result = lp.solve(problem)
    assert result.status == "optimal"
    assert rational(result).value == 1
    assert lp_certificate_holds(result, problem)


def test_degenerate_ties_terminate():
    # heavily degenerate square system; Bland's rule must not cycle
    problem = lp.LPProblem(
        objective=[1, 1, 1, 0, 0, 0],
        rows=[[1, 1, 0, 1, 0, 0],
              [0, 1, 1, 0, 1, 0],
              [1, 0, 1, 0, 0, 1]],
        rhs=[0, 0, 0])
    result = lp.solve(problem)
    assert result.status == "optimal"
    assert result.value == 0
    assert lp_certificate_holds(result, problem)


def test_random_problems_verify_and_are_deterministic():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randrange(1, 6)
        m = rng.randrange(1, 4)
        problem = lp.LPProblem(
            objective=[rng.randrange(-3, 4) for _ in range(n)],
            rows=[[rng.randrange(-3, 4) for _ in range(n)]
                  for _ in range(m)],
            rhs=[rng.randrange(-3, 4) for _ in range(m)])
        first = lp.solve(problem)
        again = lp.solve(problem)
        assert first.status == again.status
        if first.status != "unbounded":
            assert lp_certificate_holds(first, problem)
            if first.status == "optimal":
                assert (first.x, first.den) == (again.x, again.den)


def _outcome(result):
    return (result.status, result.x, result.value, result.reduced,
            result.farkas)


def _reference_outcome(problem):
    """``fraction_simplex``'s answer to a rational problem, its value and
    reduced costs multiplied by the objective's factor in
    ``integer_problem``."""
    reference = fraction_simplex(problem)
    if reference.value is not None:
        factor = math.lcm(*(Fraction(c).denominator
                            for c in problem.objective))
        reference.value *= factor
        reference.reduced = [factor * v for v in reference.reduced]
    return _outcome(reference)


def _random_problem(rng):
    """Small LP with entries in {-4..4}/{1,2,3,6}; some rhs are negative
    and about a third of the problems repeat one of their rows."""
    def entry():
        return Fraction(rng.randrange(-4, 5), rng.choice((1, 2, 3, 6)))

    n = rng.randrange(1, 7)
    m = rng.randrange(1, 5)
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    rhs = [entry() for _ in range(m)]
    if rng.random() < 0.35:
        k = rng.randrange(m)
        rows.append(list(rows[k]))
        rhs.append(rhs[k])
    return lp.LPProblem([entry() for _ in range(n)], rows, rhs)


def test_matches_rational_simplex_on_random_problems():
    """The integer tableau of the scaled problem takes the rational
    tableau's pivots, so every status, point and Farkas witness is
    equal, and the value and reduced costs are the objective's factor
    times the rational ones.  Where the factor turns a unit column e_r
    into L e_r, or a column into e_r, the two start from different
    bases; on these problems they still reach the same answer."""
    rng = random.Random(20240817)
    statuses = set()
    for _ in range(2500):
        problem = _random_problem(rng)
        posed = integer_problem(problem)
        result = lp.solve(posed)
        assert _outcome(rational(result)) == _reference_outcome(problem)
        if result.status != "unbounded":
            assert lp_certificate_holds(result, posed)
        statuses.add(result.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_negative_drive_out_pivot(monkeypatch):
    # one artificial leaves phase 1 basic at zero level and is driven out
    # on a negative entry; phase 2 then pivots, and would pick a wrong
    # column if the tableau kept the negative determinant
    problem = lp.LPProblem(
        objective=[1, -2, 2],
        rows=[[0, -2, 2], [1, 2, -1]],
        rhs=[-1, 1])
    pivots = []
    real = lp._pivot

    def spy(rows, r, c, det):
        pivots.append(rows[r][c])
        return real(rows, r, c, det)

    monkeypatch.setattr(lp, "_pivot", spy)
    result = lp.solve(problem)
    assert any(p < 0 for p in pivots)
    answer = rational(result)
    assert _outcome(answer) == _outcome(fraction_simplex(problem))
    assert answer.x == [0, Fraction(1, 2), 0] and answer.value == -1
    assert lp_certificate_holds(result, problem)


def test_plain_int_entries():
    problem = lp.LPProblem(objective=[1, 1, 0, 0],
                           rows=[[1, 2, 1, 0], [3, 1, 0, 1]], rhs=[4, 6])
    result = lp.solve(problem)
    assert _outcome(rational(result)) == _outcome(fraction_simplex(problem))
    assert all(type(v) is int for v in result.x + [result.value, result.den])
    assert result.den > 0
    assert lp_certificate_holds(result, problem)


@pytest.mark.parametrize("part", ["objective", "row", "rhs"])
def test_fraction_entry_refused(part):
    """The pivots' exact division would floor a Fraction silently."""
    objective, rows, rhs = [1, 1, 0, 0], [[1, 2, 1, 0], [3, 1, 0, 1]], [4, 6]
    entries = {"objective": objective, "row": rows[1], "rhs": rhs}[part]
    entries[0] = Fraction(entries[0])
    with pytest.raises(ValueError, match="must be ints"):
        lp.solve(lp.LPProblem(objective, rows, rhs))


def test_problem_is_not_mutated():
    problem = integer_problem(lp.LPProblem(
        objective=[Fraction(1), Fraction(-1, 2), Fraction(0)],
        rows=[[Fraction(1, 3), Fraction(1), Fraction(-1)],
              [Fraction(1, 3), Fraction(1), Fraction(-1)],
              [Fraction(-1, 6), Fraction(2), Fraction(1)]],
        rhs=[Fraction(-1, 2), Fraction(-1, 2), Fraction(3)]))
    before = copy.deepcopy(problem)
    result = lp.solve(problem)
    assert problem == before
    assert _outcome(rational(result)) == _outcome(fraction_simplex(problem))


def _counted(monkeypatch):
    """Pivots per ``lp._iterate`` call (phase 1, then phase 2) and per
    rational reference pivot, recorded as they happen."""
    counts = {"phases": [], "reference": 0}
    real_iterate, real_pivot = lp._iterate, lp._pivot
    real_fraction_pivot = oracles._fraction_pivot

    def iterate(*args):
        counts["phases"].append(0)
        return real_iterate(*args)

    def pivot(*args):
        if counts["phases"]:
            counts["phases"][-1] += 1
        return real_pivot(*args)

    def fraction_pivot(*args):
        counts["reference"] += 1
        return real_fraction_pivot(*args)

    monkeypatch.setattr(lp, "_iterate", iterate)
    monkeypatch.setattr(lp, "_pivot", pivot)
    monkeypatch.setattr(oracles, "_fraction_pivot", fraction_pivot)
    return counts


def test_unit_column_in_every_row_takes_no_phase_one_pivot(monkeypatch):
    """Columns 2 and 3 are e_0 and e_1 with rhs >= 0, so the slack basis
    is feasible: phase 1 takes no pivot, phase 2 two, as the reference
    does, and the reduced costs carry a dual certificate."""
    counts = _counted(monkeypatch)
    problem = lp.LPProblem(objective=[1, 1, 0, 0],
                           rows=[[1, 2, 1, 0], [3, 1, 0, 1]], rhs=[4, 6])
    result = lp.solve(problem)
    assert counts["phases"] == [0, 2]
    reference = fraction_simplex(problem)
    assert counts["reference"] == 2
    assert _outcome(rational(result)) == _outcome(reference)
    assert rational(result).reduced == [0, 0, Fraction(2, 5),
                                        Fraction(1, 5)]
    assert lp_certificate_holds(result, problem)


def test_dual_certificate_is_checked():
    """With a unit column in every row the certificate check reads the
    duals y_k = reduced[u_k] + den c[u_k] and requires y.A >= den c and
    y.b == value: a reduced cost or value moved by one fails it."""
    problem = lp.LPProblem(objective=[1, 1, 0, 0],
                           rows=[[1, 2, 1, 0], [3, 1, 0, 1]], rhs=[4, 6])
    result = lp.solve(problem)
    assert lp_certificate_holds(result, problem)
    for field, k in (("reduced", 2), ("reduced", 3)):
        wrong = copy.deepcopy(result)
        getattr(wrong, field)[k] -= 1
        assert not lp_certificate_holds(wrong, problem)


def test_infeasible_mixing_unit_and_artificial_rows(monkeypatch):
    """Row 0 has the unit column 1 and row 1 an artificial: x0 <= 1 and
    x0 = 2.  The Farkas entry of the unit row is -z[1] and that of the
    artificial row D - z[artificial], so y = (-1, 1); reading both as
    D - z would give (0, 1), which is no certificate."""
    counts = _counted(monkeypatch)
    problem = lp.LPProblem(objective=[0, 0], rows=[[1, 1], [1, 0]],
                           rhs=[1, 2])
    result = lp.solve(problem)
    assert result.status == "infeasible"
    assert counts["phases"] == [1]
    assert (result.farkas, result.den) == ([-1, 1], 1)
    assert lp_certificate_holds(result, problem)
    assert _outcome(rational(result)) == _outcome(fraction_simplex(problem))
    assert counts["reference"] == 1
    assert not lp_certificate_holds(
        lp.LPResult("infeasible", den=1, farkas=[0, 1]), problem)


def test_unit_column_with_negative_rhs_gets_an_artificial(monkeypatch):
    """e_0 in a row with rhs -1 is no start: flipped, it reads -e_0, so
    row 0 gets an artificial, and the LP is infeasible."""
    counts = _counted(monkeypatch)
    problem = lp.LPProblem(objective=[1, 0], rows=[[1, 1]], rhs=[-1])
    result = lp.solve(problem)
    assert result.status == "infeasible"
    assert counts["phases"] == [0]
    assert lp_certificate_holds(result, problem)
    assert _outcome(rational(result)) == _outcome(fraction_simplex(problem))


def test_identity_columns_match_the_reference_pivot_for_pivot(monkeypatch):
    """Random integer problems with some unit columns inserted, so that
    each row with rhs >= 0 may or may not start at a unit column: every
    status, point, value, reduced cost and Farkas witness, and the pivot
    count, are the rational reference's, and each certificate holds.
    Where every row has a unit column and rhs >= 0, phase 1 takes no
    pivot and the dual certificate is checked too."""
    counts = _counted(monkeypatch)
    rng = random.Random(23)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0, "slack": 0,
            "mixed": 0}
    for _ in range(1500):
        n = rng.randrange(1, 6)
        m = rng.randrange(1, 5)
        rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randrange(-2, 5) for _ in range(m)]
        for k in range(m):
            if rng.random() < 0.7:
                at = rng.randrange(len(rows[0]) + 1)
                for r, row in enumerate(rows):
                    row.insert(at, int(r == k))
        width = len(rows[0])
        problem = lp.LPProblem([rng.randrange(-3, 4) for _ in range(width)],
                               rows, rhs)
        del counts["phases"][:]
        counts["reference"] = 0
        result = lp.solve(problem)
        phases = list(counts["phases"])
        reference = fraction_simplex(problem)
        assert sum(phases) == counts["reference"]
        assert _outcome(rational(result)) == _outcome(reference)
        if result.status != "unbounded":
            assert lp_certificate_holds(result, problem)
        starts = oracles.unit_columns(problem)
        if len(starts) == m and min(rhs) >= 0:
            assert phases[0] == 0
            seen["slack"] += 1
        elif any(rhs[k] >= 0 for k in starts):
            seen["mixed"] += 1  # unit-column rows and artificial rows
        seen[result.status] += 1
    assert min(seen.values()) >= 50, seen
