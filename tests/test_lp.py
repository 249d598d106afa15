import copy
import math
import random

from fractions import Fraction

import pytest

from prudens import lp

import oracles
from oracles import (fraction_simplex, integer_problem, lp_certificate_holds,
                     rational, with_slacks)


def test_simple_optimum():
    # max x0 + x1 s.t. x0 + 2 x1 <= 4, 3 x0 + x1 <= 6
    problem = lp.LPProblem(
        objective=[1, 1],
        rows=[[1, 2], [3, 1]],
        rhs=[4, 6])
    result = lp.solve(problem)
    assert result.status == "optimal"
    assert lp_certificate_holds(result, problem)
    assert rational(result).value == Fraction(14, 5)


def test_infeasible_by_sign():
    """x0 <= -1 has no point with x >= 0: a negative rhs is refused, since
    the slack basis x = 0, where the simplex starts, must be feasible."""
    problem = lp.LPProblem(objective=[0], rows=[[1]], rhs=[-1])
    with pytest.raises(ValueError, match="rhs must be >= 0"):
        lp.solve(problem)


def test_unbounded():
    # max x0 with x0 - x1 <= 0: both can grow forever
    problem = lp.LPProblem(
        objective=[1, 0],
        rows=[[1, -1]],
        rhs=[0])
    result = lp.solve(problem)
    assert result.status == "unbounded"
    # x0 enters at level 0, then x1 enters with no row to stop it
    assert (result.ray, result.den) == ([1, 1], 1)
    assert lp_certificate_holds(result, problem)


def test_ray_certificate_is_checked():
    """A ray must keep A.d <= 0 and c.d > 0 with d >= 0: without its
    entering entry, a negated entry or a zero objective it fails."""
    problem = lp.LPProblem(objective=[1, 0], rows=[[1, -1]], rhs=[0])
    result = lp.solve(problem)
    for ray in ([1, 0], [-1, -1], [0, 0]):
        wrong = copy.deepcopy(result)
        wrong.ray = ray
        assert not lp_certificate_holds(wrong, problem)


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
    statuses = set()
    for _ in range(120):
        n = rng.randrange(1, 6)
        m = rng.randrange(1, 4)
        problem = lp.LPProblem(
            objective=[rng.randrange(-3, 4) for _ in range(n)],
            rows=[[rng.randrange(-3, 4) for _ in range(n)]
                  for _ in range(m)],
            rhs=[rng.randrange(0, 4) for _ in range(m)])
        first = lp.solve(problem)
        again = lp.solve(problem)
        assert first == again
        assert lp_certificate_holds(first, problem)
        statuses.add(first.status)
    assert statuses == {"optimal", "unbounded"}


def _outcome(result):
    """(status, point, value, reduced costs, ray direction): a ray is
    read over its sum, since only its direction is defined."""
    ray = result.ray and [v / sum(result.ray) for v in result.ray]
    return (result.status, result.x, result.value, result.reduced, ray)


def _factor(values):
    return math.lcm(*(Fraction(v).denominator for v in values))


def _reference_outcome(problem):
    """``fraction_simplex``'s answer to a rational canonical problem with
    its identity appended, in the terms of ``lp.solve``'s answer to
    ``integer_problem(problem)``: the value and structural reduced costs
    times the objective's factor K, the duals times K / L, L the rows'
    factor, and the point and ray over the structural columns."""
    n = len(problem.objective)
    reference = fraction_simplex(with_slacks(problem))
    costs = _factor(problem.objective)
    cells = _factor([v for row in problem.rows for v in row] + problem.rhs)
    if reference.value is not None:
        reference.x = reference.x[:n]
        reference.value *= costs
        reference.reduced = [costs * v for v in reference.reduced[:n]] + \
            [costs * v / cells for v in reference.reduced[n:]]
    if reference.ray is not None:
        reference.ray = reference.ray[:n]
    return _outcome(reference)


def _random_problem(rng):
    """Small canonical LP with entries in {-4..4}/{1,2,3,6}, its rhs
    >= 0; about a third of the problems repeat one of their rows."""
    def entry():
        return Fraction(rng.randrange(-4, 5), rng.choice((1, 2, 3, 6)))

    n = rng.randrange(1, 7)
    m = rng.randrange(1, 5)
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    rhs = [abs(entry()) for _ in range(m)]
    if rng.random() < 0.35:
        k = rng.randrange(m)
        rows.append(list(rows[k]))
        rhs.append(rhs[k])
    return lp.LPProblem([entry() for _ in range(n)], rows, rhs)


def _counted(monkeypatch):
    """Pivots of ``lp.solve`` and of the rational reference, recorded as
    they happen."""
    counts = {"lp": 0, "reference": 0}
    real_pivot = lp._pivot
    real_fraction_pivot = oracles._fraction_pivot

    def pivot(*args):
        counts["lp"] += 1
        return real_pivot(*args)

    def fraction_pivot(*args):
        counts["reference"] += 1
        return real_fraction_pivot(*args)

    monkeypatch.setattr(lp, "_pivot", pivot)
    monkeypatch.setattr(oracles, "_fraction_pivot", fraction_pivot)
    return counts


def test_matches_rational_simplex_on_random_problems(monkeypatch):
    """The integer tableau of the scaled problem takes the pivots of the
    rational tableau of the problem with its identity appended, both
    from the slack basis, so every status, point and ray direction is
    equal, and the value and reduced costs are the rational ones times
    the factors ``_reference_outcome`` names."""
    counts = _counted(monkeypatch)
    rng = random.Random(20240817)
    statuses = set()
    for _ in range(2500):
        problem = _random_problem(rng)
        posed = integer_problem(problem)
        counts["lp"] = counts["reference"] = 0
        result = lp.solve(posed)
        assert _outcome(rational(result)) == _reference_outcome(problem)
        assert counts["lp"] == counts["reference"]
        assert lp_certificate_holds(result, posed)
        statuses.add(result.status)
    assert statuses == {"optimal", "unbounded"}


def test_plain_int_entries():
    problem = lp.LPProblem(objective=[1, 1], rows=[[1, 2], [3, 1]],
                           rhs=[4, 6])
    result = lp.solve(problem)
    assert _outcome(rational(result)) == _reference_outcome(problem)
    assert all(type(v) is int
               for v in result.x + result.reduced + [result.value,
                                                     result.den])
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
        rhs=[Fraction(1, 2), Fraction(1, 2), Fraction(3)]))
    before = copy.deepcopy(problem)
    result = lp.solve(problem)
    assert problem == before
    assert _outcome(rational(result)) == _reference_outcome(problem)


def test_unit_column_in_every_row_takes_no_phase_one_pivot(monkeypatch):
    """Every row gets its own slack column, a unit column at rhs >= 0,
    so the slack basis is feasible and there is no phase 1: the simplex
    takes two pivots, as the reference does on the problem with its
    identity appended, and the slack columns' reduced costs are the
    optimal dual."""
    counts = _counted(monkeypatch)
    problem = lp.LPProblem(objective=[1, 1], rows=[[1, 2], [3, 1]],
                           rhs=[4, 6])
    result = lp.solve(problem)
    assert counts["lp"] == 2
    assert _outcome(rational(result)) == _reference_outcome(problem)
    assert counts["reference"] == 2
    assert rational(result).reduced == [0, 0, Fraction(2, 5),
                                        Fraction(1, 5)]
    assert lp_certificate_holds(result, problem)


def test_dual_certificate_is_checked():
    """The certificate check reads the duals y = reduced[n:] and requires
    y >= 0, y.A >= den c, y.b == value and reduced[:n] == y.A - den c:
    a dual or the value moved by one fails it."""
    problem = lp.LPProblem(objective=[1, 1], rows=[[1, 2], [3, 1]],
                           rhs=[4, 6])
    result = lp.solve(problem)
    assert lp_certificate_holds(result, problem)
    for k in (2, 3):
        wrong = copy.deepcopy(result)
        wrong.reduced[k] -= 1
        assert not lp_certificate_holds(wrong, problem)
    wrong = copy.deepcopy(result)
    wrong.value += 1
    assert not lp_certificate_holds(wrong, problem)


def test_identity_columns_match_the_reference_pivot_for_pivot(monkeypatch):
    """Random integer problems with some unit columns inserted, so that
    the problem itself may have a column e_k: ``lp.solve`` still starts
    at its own slacks, and the reference on the problem with its
    identity appended starts at the appended columns, the greatest unit
    columns.  Every status, point, value, reduced cost and ray
    direction, and the pivot count, are the reference's, and each
    certificate holds."""
    counts = _counted(monkeypatch)
    rng = random.Random(23)
    seen = {"optimal": 0, "unbounded": 0, "unit": 0}
    for _ in range(1500):
        n = rng.randrange(1, 6)
        m = rng.randrange(1, 5)
        rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randrange(0, 5) for _ in range(m)]
        for k in range(m):
            if rng.random() < 0.7:
                at = rng.randrange(len(rows[0]) + 1)
                for r, row in enumerate(rows):
                    row.insert(at, int(r == k))
        width = len(rows[0])
        problem = lp.LPProblem([rng.randrange(-3, 4) for _ in range(width)],
                               rows, rhs)
        counts["lp"] = counts["reference"] = 0
        result = lp.solve(problem)
        assert _outcome(rational(result)) == _reference_outcome(problem)
        assert counts["lp"] == counts["reference"]
        assert lp_certificate_holds(result, problem)
        seen["unit"] += bool(oracles.unit_columns(problem))
        seen[result.status] += 1
    assert min(seen.values()) >= 50, seen
