import copy
import math
import random

from fractions import Fraction

import pytest

from prudens import lp

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
    return result.status, result.x, result.value, result.farkas


def _reference_outcome(problem):
    """``fraction_simplex``'s answer to a rational problem, its value
    multiplied by the objective's factor in ``integer_problem``."""
    reference = fraction_simplex(problem)
    if reference.value is not None:
        reference.value *= math.lcm(
            *(Fraction(c).denominator for c in problem.objective))
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
    equal, and the value is the objective's factor times the rational
    one."""
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
