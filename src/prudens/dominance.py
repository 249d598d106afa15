"""Admissibility: weak dominance tests, iterated elimination, justifiers.

Two dual routes decide admissibility exactly, and each returns an object
that re-verifies by substitution:

* ``weakly_dominated`` searches for a dominating mixture by maximizing
  total slack over the weak-inequality polytope (dominated iff the
  optimum is positive);
* ``justifying_full_support_measure`` searches for a measure with support
  exactly the co-player restriction against which the strategy maximizes
  expected payoff among all own strategies, by maximizing the minimum
  mass (one exists iff the optimum is positive).

On restrictions arising from iterated elimination the two answers are
complementary; the test suite exercises that equivalence instance by
instance rather than assuming it.

Co-player profiles with identical payoff columns are interchangeable in
both problems, so the solvers work over distinct columns (with measures
spread back uniformly within each group).  A strategy whose row sum
over those columns is the largest of all gets the measure uniform over
them as its justifier, the LP's unique optimum, without a tableau.  The
slack solver keeps a strategy that has a justifier and poses its tableau
only for one that has none (docs/exactness.md, "Questions the uniform
measure settles").

Own strategies with identical rows over those columns (twins, such as
the behaviourally equivalent plans of a sequential game) get the same answer
from both solvers, so a :class:`Columns` solves each question once per
twin class and hands the answer to every member; each member's answer is
still substituted on its own (see docs/exactness.md, "Twin-shared LP
answers").  Every id-level question and substitution check takes i's
``Columns`` over q_sets as ``cols``, so the elimination builds one per
player and level, and a public query one.  The justifier LP draws its
constraints from the distinct rival rows (docs/exactness.md,
"Deduplicated justifier rows") and poses only those that beat sid
against the uniform measure, then against each optimum in turn, until
none does (docs/exactness.md, "Justifier LPs by rival-row
generation"); twins pose the identical LPs.  The simplex is handed the
dual of the justifier LP's Charnes-Cooper form, with one column per
posed rival and a unit column per distinct column, which is feasible
at its slack basis: unbounded exactly when there is no justifier, and
otherwise its reduced costs give the measure (docs/exactness.md,
"Justifier LPs in dual form").  Both LPs are posed in the form's
integers, the slack LP as exactly the payoff denominator times the
rational problem and the dual with its rival columns times it, which
keeps the simplex's pivots, and ``lp.solve`` hands its answer back as
integers over its determinant D.  Each answer is one integer layer made
from those integers: a mixture (weights, den), the vertex's weights and
D reduced by their gcd, or a justifier (on, den), mass ``on[c] / den``,
each column's mass spread over its group by the one ``scaled`` call.
"""

import math
from fractions import Fraction
from operator import mul

from . import lp
from .best_reply import best_replies_to_measure
from .hyperreal import as_fraction, scaled


class DominanceError(Exception):
    pass


class MixedStrategy:
    """A mixture over one player's strategies, in canonical order."""

    __slots__ = ("player", "weights")

    def __init__(self, player, weights):
        self.player = player
        weights = {s: as_fraction(w) for s, w in weights.items()}
        self.weights = {s: w for s, w in weights.items() if w}
        if any(w < 0 for w in self.weights.values()):
            raise DominanceError("negative mixture weight")
        if sum(self.weights.values()) != 1:
            raise DominanceError("mixture weights must sum to 1")

    def support(self):
        return set(self.weights)

    def __repr__(self):
        return "MixedStrategy(p%d, %d-point support)" % (
            self.player, len(self.weights))


# -- engine (id-based) -------------------------------------------------

class Columns:
    """Distinct payoff columns of player i over a co-player restriction,
    and the twin classes of i's own strategies over them.

    ``q_sets`` is the restriction it was built from (one id set per
    player), ``co_event`` its set of co-profiles and ``co_ids`` the same
    sorted.  ``value`` holds true payoffs times ``den``, as integers.
    ``twin[r]`` is the least own strategy whose row in ``value`` equals
    r's, and ``row_sum[r]`` the sum of that row, r's payoff against the
    measure uniform over the distinct columns times their number and den.
    ``answers`` keeps each LP question's answer per twin class, so that
    one Columns object poses each question once.
    """

    __slots__ = ("q_sets", "co_event", "co_ids", "den", "groups", "value",
                 "twin", "row_sum", "answers")

    def __init__(self, form, i, q_sets):
        self.q_sets = q_sets
        self.co_event = form.co_restriction(i, q_sets)
        self.co_ids = sorted(self.co_event)
        self.den = form.payoff_den[i]
        payoff = form.payoff[i]
        count = form.counts[i]
        grouped = {}
        for coid in self.co_ids:
            grouped.setdefault(tuple(payoff[r][coid] for r in range(count)),
                               []).append(coid)
        self.groups = list(grouped.values())
        self.value = [[key[r] for key in grouped] for r in range(count)]
        first = {}
        self.twin = [first.setdefault(tuple(row), r)
                     for r, row in enumerate(self.value)]
        self.row_sum = [sum(row) for row in self.value]
        self.answers = {}

    def shared(self, question, solve):
        """``solve()``'s answer to question, solved once, not copied."""
        if question not in self.answers:
            self.answers[question] = solve()
        return self.answers[question]

    def justifier(self, sid):
        """``justifier_ids``'s answer for sid, solved once per twin class."""
        return self.shared(("justifier", self.twin[sid]),
                           lambda: _justifier(self, sid))


def dominating_mixture_ids(form, q_sets, i, sid, cols):
    """A mixture on Q_i weakly dominating sid against Q_{-i}, or None.

    A purely dominating row of Q_i is returned as is and a strategy with
    a justifier is kept; otherwise the total dominance slack is maximized
    subject to the weak inequalities, and sid is dominated exactly when
    the optimum is positive.  sid enters only through its own row, so
    its twins in Q_i share the answer.
    """
    if sid not in q_sets[i]:
        raise DominanceError("strategy must belong to its own restriction")
    return cols.shared(("slack", cols.twin[sid]),
                       lambda: _dominating_mixture(cols, sorted(q_sets[i]),
                                                   sid))


def _dominating_mixture(cols, q_i, sid):
    value = cols.value
    own = value[sid]
    ngroups = len(own)

    # pure dominance needs no tableau
    for r in q_i:
        if r == sid:
            continue
        other = value[r]
        if all(other[g] >= own[g] for g in range(ngroups)) \
                and any(other[g] > own[g] for g in range(ngroups)):
            return {r: 1}, 1
    # a justified strategy is undominated; a None justifier decides nothing
    if cols.justifier(sid) is not None:
        return None

    # columns: sigma weights over Q_i, then one slack per distinct column;
    # every row is den times the rational one (docs/exactness.md,
    # "Integers from the source")
    den = cols.den
    rows = [[den] * len(q_i) + [0] * ngroups]
    rhs = [den]
    for g in range(ngroups):
        row = [value[r][g] for r in q_i]
        row += [-den if g == j else 0 for j in range(ngroups)]
        rows.append(row)
        rhs.append(own[g])
    objective = [0] * len(q_i) + [1] * ngroups
    result = lp.solve(lp.LPProblem(objective, rows, rhs))
    if result.status != "optimal":
        raise DominanceError("slack LP must be solvable, got %s" % result.status)
    if result.value <= 0:
        return None
    weights = result.x[:len(q_i)]
    g = math.gcd(result.den, *weights)
    return {r: w // g for r, w in zip(q_i, weights) if w}, result.den // g


def mixture_dominates_ids(form, q_sets, i, sid, mixture, cols):
    """Substitution check of a mixture (weights, den): a mixture on Q_i
    (positive weights summing to den), weakly better than sid everywhere
    and strictly somewhere, all in integers."""
    weights, den = mixture
    if not weights.keys() <= q_sets[i] or sum(weights.values()) != den \
            or any(w <= 0 for w in weights.values()):
        return False
    payoff = form.payoff[i]
    strict = False
    items = list(weights.items())
    for coid in cols.co_ids:
        mixed = sum(w * payoff[r][coid] for r, w in items)
        own = den * payoff[sid][coid]
        if mixed < own:
            return False
        if mixed > own:
            strict = True
    return strict


def justifier_ids(form, q_sets, i, sid, cols):
    """A measure (on, den) with support exactly Q_{-i} against which sid
    maximizes expected payoff over all own strategies, or None.

    Found by maximizing the minimum mass m over distinct payoff columns
    (substituting nu_g = m + w_g turns strict positivity into the sign of
    the optimum), posed to the simplex in dual form
    (``justifier_problem``), then spreading each column's mass uniformly
    over the co-profiles it aggregates.  The LP's constraints are drawn
    from the distinct own rows other than sid's: a repeated row restates
    an inequality and sid's own row states 0 >= 0.  They are posed by
    rival-row generation: first the rivals with a larger row sum, which
    beat sid against the measure uniform over the distinct columns, then
    every rival that beats sid against the last optimum, until none
    does.  A relaxation with no positive optimum (an unbounded dual)
    settles None, and a final optimum no rival beats is the full LP's
    optimum, so the optimum and the None decision are those of one
    constraint per rival, though the vertex returned may differ.  When
    no rival has a larger row sum, the uniform measure is the unique
    optimum and is returned without a tableau.  Twins pose the identical
    LPs and so share the answer.
    """
    return cols.justifier(sid)


def _justifier(cols, sid):
    ngroups = len(cols.groups)
    if not ngroups:
        return None  # no measure has full support on an empty event
    row_sum = cols.row_sum
    if row_sum[sid] == max(row_sum):
        # the uniform point m = 1/G, w = 0 is feasible, hence the unique
        # optimum: G m + sum(w) = 1 and w >= 0 force m <= 1/G
        masses = [1] * ngroups
    else:
        # rival-row generation (docs/exactness.md, "Justifier LPs by
        # rival-row generation"): pose the rivals that beat sid against
        # the uniform measure, those with a larger row sum, then every
        # rival that beats sid against the last optimum, until none does
        value = cols.value
        rivals = [r for r, t in enumerate(cols.twin)
                  if t == r and t != cols.twin[sid]]
        beaten = [r for r in rivals if row_sum[r] > row_sum[sid]]
        posed = []
        while True:
            posed = sorted(posed + beaten)
            result = lp.solve(justifier_problem(cols, sid, posed))
            # an unbounded dual is an infeasible Charnes-Cooper form: no
            # measure with full support (docs/exactness.md, "Justifier
            # LPs in dual form")
            if result.status == "unbounded":
                return None
            if result.status != "optimal":
                raise DominanceError("justifier dual is feasible at y = 0")
            # column masses D (1 + w_g), w_g the reduced cost of z_g,
            # compared below as they are
            masses = [result.den + w for w in result.reduced[len(posed):]]
            if len(posed) == len(rivals):
                break
            own = sum(map(mul, value[sid], masses))
            beaten = [r for r in rivals if r not in posed
                      and sum(map(mul, value[r], masses)) > own]
            if not beaten:
                break
    total = sum(masses)
    ints, den = scaled([Fraction(mass, total * len(members))
                        for mass, members in zip(masses, cols.groups)])
    return {coid: n for n, members in zip(ints, cols.groups)
            for coid in members}, den


def justifier_problem(cols, sid, rivals):
    """The justifier LP of own strategy sid over cols against the own
    strategies ``rivals``, in dual form, as posed to the simplex:
    maximize sum_r (row_sum[r] - row_sum[sid]) y_r subject to
    sum_r (u(sid, g) - u(r, g)) y_r + z_g = 1 per distinct column g,
    over y, z >= 0, with one y column per rival in the order given.  u
    is the payoff times ``cols.den``, so every entry is an integer, and
    each z column is a unit column, so the simplex starts feasible at
    z = 1 (docs/exactness.md, "Justifier LPs in dual form")."""
    value = cols.value
    own = value[sid]
    ngroups = len(own)
    rows = [[own[g] - value[r][g] for r in rivals]
            + [1 if g == k else 0 for k in range(ngroups)]
            for g in range(ngroups)]
    objective = [cols.row_sum[r] - cols.row_sum[sid] for r in rivals]
    return lp.LPProblem(objective + [0] * ngroups, rows, [1] * ngroups)


def measure_justifies_ids(form, q_sets, i, sid, measure, cols):
    """Substitution check: exact support, total mass 1, argmax membership."""
    on, den = measure
    if {c for c, n in on.items() if n} != cols.co_event:
        return False
    if any(n < 0 for n in on.values()) or sum(on.values()) != den:
        return False
    return sid in best_replies_to_measure(form, i, measure)


def iterated_elimination_ids(form):
    """Maximal simultaneous deletion of weakly dominated strategies.

    Returns (steps, certificates, columns): ``steps[n]`` is the
    per-player tuple of surviving ids after n rounds, including one
    confirming round equal to its predecessor;
    ``certificates[(n, i, sid)]`` is the dominating mixture that removed
    sid at round n; ``columns[n][i]`` is player i's :class:`Columns` over
    ``steps[n]``, for every n up to the confirming round's predecessor.
    The certificates are not substituted here: ``procedures`` audits each
    one once, against the same columns, as the run's
    ``dominance-substitution`` check.
    """
    current = [tuple(range(form.counts[i])) for i in range(form.n)]
    steps = [tuple(current)]
    certificates = {}
    columns = []
    n = 0
    while True:
        n += 1
        q_sets = [frozenset(part) for part in current]
        columns.append([Columns(form, i, q_sets) for i in range(form.n)])
        nxt = []
        changed = False
        for i in range(form.n):
            cols = columns[-1][i]
            keep = []
            for sid in current[i]:
                mixture = dominating_mixture_ids(form, q_sets, i, sid, cols)
                if mixture is None:
                    keep.append(sid)
                else:
                    certificates[(n, i, sid)] = mixture
                    changed = True
            if not keep:
                raise DominanceError(
                    "elimination emptied a strategy set")  # cannot happen
            nxt.append(tuple(keep))
        steps.append(tuple(nxt))
        current = nxt
        if not changed:
            return steps, certificates, columns


# -- public surface ----------------------------------------------------

def weakly_dominated(game, Q, i, s):
    """A MixedStrategy on Q_i dominating s with respect to Q, or None."""
    form = game.strategic_form()
    sid = form.strategy_id(i, s)
    q_sets = form.ids_from_restriction(Q)
    cols = Columns(form, i, q_sets)
    mixture = dominating_mixture_ids(form, q_sets, i, sid, cols)
    if mixture is None:
        return None
    if not mixture_dominates_ids(form, q_sets, i, sid, mixture, cols):
        raise DominanceError("dominating mixture failed substitution check")
    weights, den = mixture
    return MixedStrategy(i, {form.strats[i][r]: Fraction(w, den)
                             for r, w in weights.items()})


def justifying_full_support_measure(game, Q, i, s):
    """A measure on co-profiles with support exactly Q_{-i} making s a
    best reply among all of S_i, or None when no such measure exists."""
    form = game.strategic_form()
    sid = form.strategy_id(i, s)
    q_sets = form.ids_from_restriction(Q)
    cols = Columns(form, i, q_sets)
    measure = justifier_ids(form, q_sets, i, sid, cols)
    if measure is None:
        return None
    if not measure_justifies_ids(form, q_sets, i, sid, measure, cols):
        raise DominanceError("justifier failed substitution check")
    on, den = measure
    return {form.co_profile_strategies(i, coid): Fraction(n, den)
            for coid, n in on.items()}
