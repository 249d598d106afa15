"""Independent brute-force oracles for differential testing.

Everything here recomputes results from first principles (tree walks,
exhaustive enumeration, vertex enumeration, symbolic limits) and shares no
decision logic with the library implementations it checks.  Two kinds
are exceptions, kept on purpose as the rational versions of integer code
that must agree with them exactly, result for result:
``fraction_simplex``, the rational two-phase tableau simplex that
``lp.solve`` replaces with one-phase integer pivoting (on a problem with
its identity appended by ``with_slacks`` it takes the same Bland-rule
pivots) and which ``integer_problem`` and ``rational`` translate to and
from, and
``fraction_value_row`` / ``fraction_best_replies_to_measure``, the
per-strategy Fraction sums that ``best_reply`` replaces with integer
twin-class sums.  ``full_justifier_problem`` is the justifier LP in
primal form with one constraint per rival, the construction whose
repeated rows ``dominance`` drops, whose other rows it adds only as
rivals beat its measures, and which it poses as the dual of its
Charnes-Cooper form; its optimum must be the one ``dominance``
reaches.
``reduce_by_enumeration`` lists every plan and keys it by the histories
it allows, found by ``allows_by_path``, the construction
``Game.reduced_form`` replaces with a count and a listing of the classes
from the tree.
``full_slack_problem`` is the slack LP over every co-profile, with no
columns merged, whose positive optimum the justifier dual's ray
replaces as the test for a dominating mixture.  ``condition_ladder``
conditions a lexicographic probability system rung by rung, the
construction that
``PriorCNPS.standard_part`` replaces with one read of the prior's
least-degree layer, and ``mass_within`` and ``singleton_mass`` sum a
belief's masses, which the library's operators never do.
"""

import itertools
import math
from fractions import Fraction
from operator import mul

import sympy

from prudens import lp
from prudens.beliefs import BeliefError
from prudens.hyperreal import Hyperreal, infinitely_greater


def tree_walk_payoff(game, profile, i):
    """Payoff by literal recursive descent through the history tree."""
    def descend(h):
        if h in game.payoffs:
            return game.payoffs[h][i]
        profile_here = tuple(s.choices[game.h_index[h]] for s in profile)
        return descend(h + (profile_here,))
    return descend(())


def terminal_of(game, profile):
    h = ()
    while h not in game.payoffs:
        h = h + (tuple(s.choices[game.h_index[h]] for s in profile),)
    return h


def allows_by_path(game, s, h):
    """s allows h iff some completion of the profile realizes h as a prefix."""
    n = len(game.players)
    others = [game.strategies(j) for j in range(n)]
    others[s.player] = (s,)
    for profile in itertools.product(*others):
        z = terminal_of(game, profile)
        if z[:len(h)] == h:
            return True
    return False


def realization_equivalent(game, s, t):
    n = len(game.players)
    co = [game.strategies(j) for j in range(n) if j != s.player]
    for rest in itertools.product(*co):
        profile_s = list(rest)
        profile_s.insert(s.player, s)
        profile_t = list(rest)
        profile_t.insert(t.player, t)
        if terminal_of(game, tuple(profile_s)) != terminal_of(game, tuple(profile_t)):
            return False
    return True


def reduce_by_enumeration(game, i):
    """Partition of S_i into behavioral-equivalence classes, found by
    listing every plan and keying it by its allowed histories and its
    choices there.  Classes, and the members of each, are in canonical
    order; the first member of a class is its representative."""
    groups = {}
    for s in game.strategies(i):
        hs = tuple(h for h in game.nonterminal if allows_by_path(game, s, h))
        key = (hs, tuple(s.choices[game.h_index[h]] for h in hs))
        groups.setdefault(key, []).append(s)
    return list(groups.values())


def form_by_profiles(game, strat_lists):
    """The tables of the strategic form over ``strat_lists``, one full
    profile at a time: each profile's terminal history by ``terminal_of``
    and each allow set by ``allows_by_path``.  Returns a dict with the
    ``StrategicForm`` attribute names as keys."""
    n = len(game.players)
    strats = [list(lst) for lst in strat_lists]
    counts = [len(lst) for lst in strats]
    co_players = [tuple(j for j in range(n) if j != i) for i in range(n)]
    co_profiles = [list(itertools.product(
        *(range(counts[j]) for j in co_players[i]))) for i in range(n)]
    dens = [math.lcm(*(pv[i].denominator for pv in game.payoffs.values()))
            for i in range(n)]
    payoff = [[[None] * len(co_profiles[i]) for _ in range(counts[i])]
              for i in range(n)]
    for ids in itertools.product(*(range(c) for c in counts)):
        z = terminal_of(game, tuple(strats[j][ids[j]] for j in range(n)))
        for i in range(n):
            coid = co_profiles[i].index(
                tuple(ids[j] for j in co_players[i]))
            true = Fraction(game.payoffs[z][i]) * dens[i]
            assert true.denominator == 1
            payoff[i][ids[i]][coid] = true.numerator
    allow = [[frozenset(sid for sid, s in enumerate(strats[i])
                        if allows_by_path(game, s, h))
              for h in game.nonterminal] for i in range(n)]
    co_allow = [[frozenset(
        coid for coid, co in enumerate(co_profiles[i])
        if all(c in allow[j][k] for c, j in zip(co, co_players[i])))
        for k in range(len(game.nonterminal))] for i in range(n)]
    events = []
    for i in range(n):
        seen = {}
        for k, ev in enumerate(co_allow[i]):
            seen.setdefault(ev, []).append(k)
        events.append([(ev, tuple(ks)) for ev, ks in seen.items()])
    allowed_hist = [[tuple(k for k in range(len(game.nonterminal))
                           if sid in allow[i][k])
                     for sid in range(counts[i])] for i in range(n)]
    return {"strats": strats, "payoff": payoff, "payoff_den": dens,
            "allow": allow, "co_allow": co_allow, "events": events,
            "allowed_hist": allowed_hist}


def naive_expected_payoff(game, i, r, h, mass_of):
    """Textbook conditional expectation: enumerate co-profiles allowing h.

    ``mass_of`` maps a co-profile (tuple of strategies) to its prior mass;
    the result is the unnormalized sum, like the library's convention.
    """
    co_players = [j for j in range(len(game.players)) if j != i]
    total = None
    for co in itertools.product(*(game.strategies(j) for j in co_players)):
        if not _co_allows(game, i, co, h):
            continue
        profile = list(co)
        profile.insert(i, r)
        u = tree_walk_payoff(game, tuple(profile), i)
        term = u * mass_of(co)
        total = term if total is None else total + term
    return total


def _co_allows(game, i, co, h):
    for s_i in game.strategies(i):
        profile = list(co)
        profile.insert(i, s_i)
        z = terminal_of(game, tuple(profile))
        if z[:len(h)] == h:
            return True
    return False


# -- exact linear algebra ------------------------------------------------

def solve_linear(rows, rhs):
    """Gaussian elimination over Fractions; None if singular/inconsistent."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(v) for v in row] + [Fraction(b)]
         for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((k for k in range(r, m) if a[k][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for k in range(m):
            if k != r and a[k][c] != 0:
                f = a[k][c]
                a[k] = [v - f * w for v, w in zip(a[k], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for k in range(r, m):
        if a[k][n] != 0:
            return None  # inconsistent
    if len(pivots) < n:
        return None  # underdetermined: not a vertex candidate
    x = [Fraction(0)] * n
    for row_idx, c in enumerate(pivots):
        x[c] = a[row_idx][n]
    return x


# -- dominance by vertex enumeration -------------------------------------

def vertex_weakly_dominated(game, Q, i, s):
    """Decide weak dominance of s w.r.t. Q by enumerating the vertices of
    the weak-inequality polytope and checking for positive total slack."""
    q_i = list(Q.part(i))
    co_players = [j for j in range(len(game.players)) if j != i]
    co_profiles = list(itertools.product(*(Q.part(j) for j in co_players)))
    k = len(q_i)

    def payoff(r, co):
        profile = list(co)
        profile.insert(i, r)
        return tree_walk_payoff(game, tuple(profile), i)

    d = [[payoff(r, co) - payoff(s, co) for r in q_i] for co in co_profiles]

    # constraint rows (as linear forms over sigma): sigma_r >= 0, d.sigma >= 0
    forms = []
    for r in range(k):
        forms.append([Fraction(1) if j == r else Fraction(0)
                      for j in range(k)])
    forms.extend([list(row) for row in d])
    objective = [sum(col, Fraction(0)) for col in zip(*d)] if d else \
        [Fraction(0)] * k

    best = Fraction(0)
    for tight in itertools.combinations(range(len(forms)), k - 1):
        rows = [[Fraction(1)] * k] + [forms[t] for t in tight]
        rhs = [Fraction(1)] + [Fraction(0)] * len(tight)
        x = solve_linear(rows, rhs)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        if any(sum(f * v for f, v in zip(form, x)) < 0 for form in forms):
            continue
        value = sum(o * v for o, v in zip(objective, x))
        if value > best:
            best = value
    return best > 0


def brute_iterated_admissibility(game):
    """IA decided entirely by the vertex-enumeration dominance oracle."""
    from prudens.game import ProductRestriction
    current = [list(game.strategies(i)) for i in range(len(game.players))]
    steps = [ProductRestriction(current)]
    while True:
        Q = ProductRestriction(current)
        nxt = []
        changed = False
        for i in range(len(game.players)):
            keep = [s for s in current[i]
                    if not vertex_weakly_dominated(game, Q, i, s)]
            changed = changed or len(keep) != len(current[i])
            nxt.append(keep)
        steps.append(ProductRestriction(nxt))
        current = nxt
        if not changed:
            return steps


# -- symbolic conditional systems ----------------------------------------

def sympy_value(mass, eps):
    return sum((sympy.Rational(c.numerator, c.denominator) * eps ** k
                for k, c in enumerate(mass.coeffs)), sympy.Integer(0))


def sympy_standard_part(expr, eps):
    return sympy.limit(expr, eps, 0, "+")


def sympy_cautiously_believes(belief, h, event_ids):
    """Def-style check with symbolic division and limits."""
    eps = sympy.Symbol("eps", positive=True)
    ev = belief.family.event_for_history(h)
    inter = event_ids & ev
    if not inter:
        return False
    comp = sum((sympy_value(belief.prior[c], eps) for c in ev - event_ids),
               sympy.Integer(0))
    for coid in inter:
        single = sympy_value(belief.prior[coid], eps)
        if sympy_standard_part(sympy.simplify(comp / single), eps) != 0:
            return False
    return True


def mass_within(belief, event_ids, subset_ids):
    """The mass of subset_ids at an event, summed: a Hyperreal restriction
    of a prior, or a rational from an explicit table."""
    if belief.standard:
        dist = belief.table[frozenset(event_ids)]
        return sum((dist.get(c, Fraction(0)) for c in subset_ids),
                   Fraction(0))
    return sum((belief.prior[c] for c in subset_ids if c in event_ids),
               Hyperreal.zero(belief.degree_bound))


def singleton_mass(belief, event_ids, coid):
    return mass_within(belief, event_ids, (coid,))


def condition_measure(measure, event_ids):
    """A measure (coid -> Fraction) conditioned on an event, keeping its
    positive masses; None when the event has zero mass."""
    total = sum((measure.get(c, Fraction(0)) for c in event_ids),
                Fraction(0))
    if total == 0:
        return None
    return {c: measure[c] / total
            for c in event_ids if measure.get(c, Fraction(0)) > 0}


def condition_ladder(family, ladder):
    """Lexicographic conditioning of a ladder of measures (Blume,
    Brandenburger and Dekel 1991): at each event of the family, the
    conditional of the first measure giving the event positive mass.
    Raises BeliefError if none does."""
    table = {}
    for ev, _ in family.events:
        for measure in ladder:
            table[ev] = condition_measure(measure, ev)
            if table[ev] is not None:
                break
        else:
            raise BeliefError("no measure in the ladder reaches an event")
    return table


def c_strongly_believes_intersection_form(belief, event_ids):
    """Cautious strong belief in an event (a set of co-profile ids), with
    the complement's mass taken over (ev - E) & ev at each event ev."""
    for ev, _ in belief.family.events:
        inter = event_ids & ev
        if not inter:
            continue
        comp = mass_within(belief, ev, (frozenset(ev) - event_ids) & ev)
        for coid in inter:
            single = singleton_mass(belief, ev, coid)
            if isinstance(single, Hyperreal):
                if not infinitely_greater(single, comp):
                    return False
            elif not (single > 0 and comp == 0):
                return False
    return True


def sympy_conditional(belief, event_ids, subset_ids, eps):
    """Normalized conditional probability as an exact symbolic expression."""
    num = sum((sympy_value(belief.prior[c], eps)
               for c in subset_ids & event_ids), sympy.Integer(0))
    den = sum((sympy_value(belief.prior[c], eps) for c in event_ids),
              sympy.Integer(0))
    return sympy.simplify(num / den)


def sympy_chain_rule_holds(belief):
    """Chain rule for the normalized conditionals of a prior system."""
    eps = sympy.Symbol("eps", positive=True)
    events = [ev for ev, _ in belief.family.events]
    for c_ev in events:
        for d_ev in events:
            if d_ev == c_ev or not d_ev <= c_ev:
                continue
            for coid in d_ev:
                lhs = sympy_conditional(belief, c_ev, frozenset([coid]), eps)
                rhs = (sympy_conditional(belief, d_ev, frozenset([coid]), eps)
                       * sympy_conditional(belief, c_ev, d_ev, eps))
                if sympy.simplify(lhs - rhs) != 0:
                    return False
    return True


def standard_part_conditional(prior, event_ids):
    """The standard part of a positive Q[e] prior conditioned on an event.

    In the limit only the masses of least leading degree d over the event
    count: each conditional mass tends to its e^d coefficient over the
    sum of the event's e^d coefficients.  Returns the positive entries.
    """
    d = min(prior[c].leading_degree() for c in event_ids)
    weights = {c: prior[c].coefficient(d) for c in event_ids}
    total = sum(weights.values(), Fraction(0))
    return {c: w / total for c, w in weights.items() if w != 0}


# -- rational simplex ----------------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fraction_pivot(a, zrow, basis, r, c, last):
    """In-place Gauss-Jordan step on row r, column c (rhs at index last)."""
    row = a[r]
    piv = row[c]
    if piv != 1:
        inv = _ONE / piv
        for j in range(last + 1):
            if row[j]:
                row[j] *= inv
    hot = [j for j in range(last + 1) if row[j]]
    for other in a:
        if other is row:
            continue
        f = other[c]
        if f:
            for j in hot:
                other[j] -= f * row[j]
    f = zrow[c]
    if f:
        for j in hot:
            zrow[j] -= f * row[j]
    basis[r] = c


def _fraction_iterate(a, zrow, basis, ncols, last):
    """Bland-rule simplex until optimal or unbounded.  Returns -1 when
    optimal, else the entering column that no row limits."""
    m = len(a)
    while True:
        enter = -1
        for j in range(ncols):
            if zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            return -1
        leave = -1
        best_n = best_d = None  # best ratio as exact pair, compared crosswise
        for r in range(m):
            coef = a[r][enter]
            if coef > 0:
                num = a[r][last]
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
            return enter
        _fraction_pivot(a, zrow, basis, leave, enter, last)


def _fraction_zrow(a, basis, costs, ncols, last):
    zrow = [-c for c in costs] + [_ZERO]
    for r, row in enumerate(a):
        cb = costs[basis[r]]
        if cb:
            for j in range(ncols):
                if row[j]:
                    zrow[j] += cb * row[j]
            zrow[ncols] += cb * row[last]
    # squeeze the z row to tableau width
    out = [_ZERO] * (last + 1)
    for j in range(ncols):
        out[j] = zrow[j]
    out[last] = zrow[ncols]
    return out


def integer_problem(problem):
    """A rational ``lp.LPProblem`` as the integers ``lp.solve`` takes:
    every row and the rhs times one least common denominator L, the
    objective times its own K.  The pivots, the point and the ray's
    direction are the rational problem's; the value and the structural
    reduced costs are multiplied by K, the duals by K / L."""
    def factor(values):
        return math.lcm(*(Fraction(v).denominator for v in values))

    cells = factor([v for row in problem.rows for v in row] + problem.rhs)
    costs = factor(problem.objective)
    return lp.LPProblem([int(c * costs) for c in problem.objective],
                        [[int(v * cells) for v in row]
                         for row in problem.rows],
                        [int(b * cells) for b in problem.rhs])


def with_slacks(problem):
    """A canonical ``lp.LPProblem`` (A x <= b) in standard equality form,
    [A | I] (x, s) = b, the identity appended as ``lp.solve`` appends
    it, for ``fraction_simplex``."""
    m = len(problem.rows)
    return lp.LPProblem(
        list(problem.objective) + [0] * m,
        [list(row) + [int(r == k) for k in range(m)]
         for r, row in enumerate(problem.rows)],
        list(problem.rhs))


def rational(result):
    """An ``lp.LPResult`` with its point, value, reduced costs and ray
    read as Fractions over its ``den``."""
    def over(values):
        return values and [Fraction(v, result.den) for v in values]

    value = result.value
    return lp.LPResult(result.status, x=over(result.x),
                       value=None if value is None
                       else Fraction(value, result.den),
                       reduced=over(result.reduced), ray=over(result.ray))


def unit_columns(problem):
    """{row k: the greatest column of problem that is exactly e_k}, so
    that an appended identity (``with_slacks``) supplies every one."""
    unit = {}
    for k in range(len(problem.rows)):
        for j in reversed(range(len(problem.objective))):
            if all(row[j] == (1 if r == k else 0)
                   for r, row in enumerate(problem.rows)):
                unit[k] = j
                break
    return unit


def lp_certificate_holds(result, problem):
    """Re-check an ``lp.LPResult`` for a canonical problem (maximize c.x
    subject to A x <= b, x >= 0) by substitution, in integers over its
    ``den`` > 0.  An optimum: x >= 0 with A.x <= den b and c.x the value,
    and the dual y = ``reduced[n:]`` >= 0 with y.A >= den c, y.b the
    value and ``reduced[:n]`` = y.A - den c, so the value is the
    optimum.  An unbounded answer: a ray d >= 0 with A.d <= 0 and
    c.d > 0, so c.x grows without bound from x = 0."""
    rows, b, c = problem.rows, problem.rhs, problem.objective
    n = len(c)
    columns = [[row[j] for row in rows] for j in range(n)]
    if type(result.den) is not int or result.den <= 0:
        return False
    if result.status == "unbounded":
        d = result.ray
        return len(d) == n and all(v >= 0 for v in d) and \
            all(sum(map(mul, row, d)) <= 0 for row in rows) and \
            sum(map(mul, c, d)) > 0
    if result.status != "optimal":
        return False
    den, x = result.den, result.x
    y = result.reduced[n:]
    return len(x) == n and len(y) == len(rows) and \
        all(v >= 0 for v in x + y) and \
        all(sum(map(mul, row, x)) <= den * bk for row, bk in zip(rows, b)) \
        and sum(map(mul, c, x)) == result.value and \
        sum(map(mul, y, b)) == result.value and \
        result.reduced[:n] == [sum(map(mul, y, column)) - den * cj
                               for column, cj in zip(columns, c)] and \
        all(v >= 0 for v in result.reduced[:n])


def full_justifier_problem(value, sid):
    """The justifier LP for own row sid of ``value`` with one constraint
    row and one slack column per rival own strategy, repeated rows and
    sid's twins included: maximize m subject to ngroups*m + sum(w) = 1 and,
    for every rival r, sum_g (value[sid][g] - value[r][g]) (m + w_g) -
    s_r = 0, over m, w, s >= 0."""
    own = value[sid]
    ngroups = len(own)
    others = [r for r in range(len(value)) if r != sid]
    rows = [[Fraction(ngroups)] + [_ONE] * ngroups + [_ZERO] * len(others)]
    rhs = [_ONE]
    for j, r in enumerate(others):
        diff = [own[g] - value[r][g] for g in range(ngroups)]
        slack = [-_ONE if j == k else _ZERO for k in range(len(others))]
        rows.append([sum(diff, _ZERO)] + diff + slack)
        rhs.append(_ZERO)
    objective = [_ONE] + [_ZERO] * (ngroups + len(others))
    return lp.LPProblem(objective, rows, rhs)


def true_payoffs(form, i):
    """Player i's payoff table as rationals: the form's integer table
    over its denominator."""
    den = form.payoff_den[i]
    return [[Fraction(u, den) for u in row] for row in form.payoff[i]]


def full_slack_problem(form, q_sets, i, sid):
    """The slack LP of sid against Q_{-i} with one row and one slack
    column per co-profile, equal columns included: maximize sum_c t_c
    subject to sum_r sigma_r = 1 and, for every co-profile c,
    sum_r sigma_r u_i(r, c) - t_c = u_i(sid, c), over sigma on Q_i and
    t >= 0.  sid is weakly dominated exactly when the optimum is
    positive."""
    q_i = sorted(q_sets[i])
    co = [form.co_profiles[i].index(ids) for ids in itertools.product(
        *(sorted(q_sets[j]) for j in form.co_players[i]))]
    payoff = true_payoffs(form, i)
    rows = [[_ONE] * len(q_i) + [_ZERO] * len(co)]
    rhs = [_ONE]
    for k, c in enumerate(co):
        slack = [-_ONE if k == j else _ZERO for j in range(len(co))]
        rows.append([payoff[r][c] for r in q_i] + slack)
        rhs.append(payoff[sid][c])
    objective = [_ZERO] * len(q_i) + [_ONE] * len(co)
    return lp.LPProblem(objective, rows, rhs)


def fraction_simplex(problem):
    """The two-phase Bland-rule simplex over a Fraction tableau, for a
    problem in standard equality form, A x = b and x >= 0.  Each row
    with rhs >= 0 and a unit column starts with it basic; every other
    row gets the next artificial.  On ``with_slacks(p)`` it therefore
    starts at the slack basis and takes no phase-1 pivot, so
    ``lp.solve(p)`` must agree with it pivot for pivot, over Fraction or
    int entries.  An optimum carries its phase-2 reduced costs, an
    unbounded answer its ray over the structural columns, and an
    infeasible one nothing."""
    n = len(problem.objective)
    m = len(problem.rows)
    unit = {k: j for k, j in unit_columns(problem).items()
            if problem.rhs[k] >= 0}
    start = []
    for k in range(m):
        start.append(unit[k] if k in unit
                     else n + sum(j >= n for j in start))
    na = m - len(unit)
    a = []
    for r, (row, b) in enumerate(zip(problem.rows, problem.rhs)):
        flip = b < 0
        body = [-v if flip else Fraction(v) for v in row]
        body += [_ONE if n + k == start[r] else _ZERO for k in range(na)]
        body.append(-b if flip else Fraction(b))
        a.append(body)
    last = n + na
    basis = list(start)

    # phase 1: maximize -(sum of artificials) from the starting basis
    costs1 = [_ZERO] * n + [Fraction(-1)] * na
    zrow = _fraction_zrow(a, basis, costs1, n + na, last)
    # the phase-1 objective is bounded above by 0
    assert _fraction_iterate(a, zrow, basis, n + na, last) < 0
    if zrow[last] < 0:  # artificial mass left: infeasible
        return lp.LPResult(status="infeasible")

    # drive zero-level artificials out of the basis, drop redundant rows
    r = 0
    while r < len(a):
        if basis[r] >= n:
            piv = next((j for j in range(n) if a[r][j] != 0), None)
            if piv is None:
                del a[r]
                del basis[r]
                continue
            _fraction_pivot(a, zrow, basis, r, piv, last)
        r += 1

    # phase 2 on structural columns
    costs2 = list(problem.objective)
    zrow = _fraction_zrow(a, basis, costs2, n, last)
    enter = _fraction_iterate(a, zrow, basis, n, last)
    if enter >= 0:
        ray = [_ZERO] * n
        ray[enter] = _ONE
        for r, j in enumerate(basis):
            ray[j] = -a[r][enter]
        return lp.LPResult(status="unbounded", ray=ray)
    x = [_ZERO] * n
    for r, j in enumerate(basis):
        x[j] = a[r][last]
    value = sum(c * v for c, v in zip(problem.objective, x))
    return lp.LPResult(status="optimal", x=x, value=value,
                       reduced=zrow[:n])


# -- Fraction expected payoffs ------------------------------------------

def fraction_value_row(form, belief, i, h_idx):
    """Conditional expected payoff of every strategy allowing h_idx, one
    Fraction sum per strategy: the loop ``best_reply`` replaced with
    integer twin-class sums, which must give the same values."""
    event = form.co_allow[i][h_idx]
    if belief.standard:
        masses = belief.table[event]
    else:
        masses = {c: belief.prior[c] for c in event}
    payoff = true_payoffs(form, i)
    out = {}
    if belief.standard:
        for sid in form.allow[i][h_idx]:
            row = payoff[sid]
            total = Fraction(0)
            for coid, p in masses.items():
                if p:
                    total += row[coid] * p
            out[sid] = total
    else:
        bound = belief.degree_bound
        for sid in form.allow[i][h_idx]:
            row = payoff[sid]
            acc = [Fraction(0)] * (bound + 1)
            width = 0
            for coid, mass in masses.items():
                u = row[coid]
                if u:
                    coeffs = mass.coeffs
                    if len(coeffs) > width:
                        width = len(coeffs)
                    for d, c in enumerate(coeffs):
                        if c:
                            acc[d] += u * c
            out[sid] = Hyperreal(acc[:width], bound)
    return out


def fraction_best_replies_to_measure(form, i, measure):
    """Ids maximizing the Fraction expected payoff against a standard
    measure over all of player i's strategies."""
    best = None
    arg = []
    payoff = true_payoffs(form, i)
    support = [(coid, p) for coid, p in measure.items() if p]
    for sid in range(form.counts[i]):
        row = payoff[sid]
        total = Fraction(0)
        for coid, p in support:
            total += row[coid] * p
        if best is None or total > best:
            best = total
            arg = [sid]
        elif total == best:
            arg.append(sid)
    return frozenset(arg)
