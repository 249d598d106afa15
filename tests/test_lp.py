import copy
import random

from fractions import Fraction

from prudens import lp

from oracles import fraction_simplex, lp_certificate_holds


def F(x):
    return Fraction(x)


def test_simple_optimum():
    # max x0 + x1 s.t. x0 + 2 x1 + s0 = 4, 3 x0 + x1 + s1 = 6
    problem = lp.LPProblem(
        objective=[F(1), F(1), F(0), F(0)],
        rows=[[F(1), F(2), F(1), F(0)], [F(3), F(1), F(0), F(1)]],
        rhs=[F(4), F(6)])
    result = lp.solve(problem)
    assert result.status == "optimal"
    assert lp_certificate_holds(result, problem)
    assert result.value == Fraction(14, 5)


def test_infeasible_with_farkas():
    # x0 + x1 = 1 and x0 + x1 = 2 cannot both hold
    problem = lp.LPProblem(
        objective=[F(0), F(0)],
        rows=[[F(1), F(1)], [F(1), F(1)]],
        rhs=[F(1), F(2)])
    result = lp.solve(problem)
    assert result.status == "infeasible"
    assert lp_certificate_holds(result, problem)


def test_infeasible_by_sign():
    # x0 >= 0 but x0 = -1
    problem = lp.LPProblem(objective=[F(0)], rows=[[F(1)]], rhs=[F(-1)])
    result = lp.solve(problem)
    assert result.status == "infeasible"
    assert lp_certificate_holds(result, problem)


def test_unbounded():
    # max x0 with x0 - x1 = 0: both can grow forever
    problem = lp.LPProblem(
        objective=[F(1), F(0)],
        rows=[[F(1), F(-1)]],
        rhs=[F(0)])
    assert lp.solve(problem).status == "unbounded"


def test_redundant_rows():
    problem = lp.LPProblem(
        objective=[F(1), F(0)],
        rows=[[F(1), F(1)], [F(2), F(2)]],
        rhs=[F(1), F(2)])
    result = lp.solve(problem)
    assert result.status == "optimal"
    assert result.value == 1
    assert lp_certificate_holds(result, problem)


def test_degenerate_ties_terminate():
    # heavily degenerate square system; Bland's rule must not cycle
    problem = lp.LPProblem(
        objective=[F(1), F(1), F(1), F(0), F(0), F(0)],
        rows=[[F(1), F(1), F(0), F(1), F(0), F(0)],
              [F(0), F(1), F(1), F(0), F(1), F(0)],
              [F(1), F(0), F(1), F(0), F(0), F(1)]],
        rhs=[F(0), F(0), F(0)])
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
            objective=[F(rng.randrange(-3, 4)) for _ in range(n)],
            rows=[[F(rng.randrange(-3, 4)) for _ in range(n)]
                  for _ in range(m)],
            rhs=[F(rng.randrange(-3, 4)) for _ in range(m)])
        first = lp.solve(problem)
        again = lp.solve(problem)
        assert first.status == again.status
        if first.status != "unbounded":
            assert lp_certificate_holds(first, problem)
            if first.status == "optimal":
                assert first.x == again.x


def _outcome(result):
    return result.status, result.x, result.value, result.farkas


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
    """The integer tableau takes the rational tableau's pivots, so every
    status, point, value and Farkas witness is equal."""
    rng = random.Random(20240817)
    statuses = set()
    for _ in range(2500):
        problem = _random_problem(rng)
        result = lp.solve(problem)
        assert _outcome(result) == _outcome(fraction_simplex(problem))
        if result.status != "unbounded":
            assert lp_certificate_holds(result, problem)
        statuses.add(result.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_negative_drive_out_pivot(monkeypatch):
    # one artificial leaves phase 1 basic at zero level and is driven out
    # on a negative entry; phase 2 then pivots, and would pick a wrong
    # column if the tableau kept the negative determinant
    problem = lp.LPProblem(
        objective=[F(1), F(-2), F(2)],
        rows=[[F(0), F(-2), F(2)], [F(1), F(2), F(-1)]],
        rhs=[F(-1), F(1)])
    pivots = []
    real = lp._pivot

    def spy(rows, r, c, det):
        pivots.append(rows[r][c])
        return real(rows, r, c, det)

    monkeypatch.setattr(lp, "_pivot", spy)
    result = lp.solve(problem)
    assert any(p < 0 for p in pivots)
    assert _outcome(result) == _outcome(fraction_simplex(problem))
    assert result.x == [0, Fraction(1, 2), 0] and result.value == -1
    assert lp_certificate_holds(result, problem)


def test_plain_int_entries():
    problem = lp.LPProblem(objective=[1, 1, 0, 0],
                           rows=[[1, 2, 1, 0], [3, 1, 0, 1]], rhs=[4, 6])
    result = lp.solve(problem)
    assert _outcome(result) == _outcome(fraction_simplex(problem))
    assert result.value == Fraction(14, 5)
    assert all(isinstance(v, Fraction) for v in result.x)
    assert lp_certificate_holds(result, problem)


def test_problem_is_not_mutated():
    problem = lp.LPProblem(
        objective=[F(1), Fraction(-1, 2), F(0)],
        rows=[[Fraction(1, 3), F(1), F(-1)], [Fraction(1, 3), F(1), F(-1)],
              [Fraction(-1, 6), F(2), F(1)]],
        rhs=[Fraction(-1, 2), Fraction(-1, 2), F(3)])
    before = copy.deepcopy(problem)
    result = lp.solve(problem)
    assert problem == before
    assert _outcome(result) == _outcome(fraction_simplex(problem))
