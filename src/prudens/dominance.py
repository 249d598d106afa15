"""Admissibility: weak dominance tests, iterated elimination, justifiers.

A strategy sid of Q_i is not weakly dominated on Q_i against Q_{-i}
exactly when some measure with support exactly Q_{-i} makes it a best
reply among Q_i (Pearce 1984, Lemma 4).  One LP per question decides
which, and its answer carries either certificate, each of which
re-verifies by substitution:

* ``justifier_ids`` returns the measure (on, den), found by maximizing
  the minimum mass, when the LP has a positive optimum;
* ``dominating_mixture_ids`` returns a mixture (weights, den) on Q_i
  that weakly dominates sid, read off the unbounded ray of the same
  LP's dual when it has none.  A purely dominating row of Q_i is
  returned first, without a tableau.

The LP's rivals are the members of Q_i.  On the elimination's sets a
best reply among Q_i against a measure with full support is one among
all of S_i, since each strategy the elimination removed hands its
payoff down a chain of dominating mixtures to a member of Q_i; the
public ``justifying_full_support_measure`` asks over all of S_i.

Co-player profiles with identical payoff columns are interchangeable, so
the LP works over distinct columns (with measures spread back uniformly
within each group).  A strategy whose row sum over those columns is the
largest in Q_i gets the measure uniform over them as its justifier, the
LP's unique optimum, without a tableau (docs/exactness.md, "Questions
the uniform measure settles").

Own strategies with identical rows over those columns (twins, such as
the behaviourally equivalent plans of a sequential game) get the same
answer, so a :class:`Columns` solves each question once per twin class
and hands the answer to every member; each member's answer is still
substituted on its own (see docs/exactness.md, "Twin-shared LP
answers").  Every id-level question and substitution check takes i's
``Columns`` over q_sets as ``cols``, so the elimination builds one per
player and level, and a public query one.  The LP draws its constraints
from the distinct rival rows (docs/exactness.md, "Deduplicated justifier
rows") and poses only those that beat sid against the uniform measure,
then against each optimum in turn, until none does (docs/exactness.md,
"Justifier LPs by rival-row generation"); twins pose the identical LPs.
The simplex is handed the dual of the LP's Charnes-Cooper form, with
one column per posed rival and one row per distinct column, which is
feasible at its slack basis: unbounded exactly when there is no
justifier, its ray then a dominating mixture (docs/exactness.md,
"Dominating mixtures from the dual's ray"), and otherwise its reduced
costs give the measure (docs/exactness.md, "Justifier LPs in dual
form").  The dual is posed with its rival columns times the payoff
denominator, which keeps the simplex's pivots, and ``lp.solve`` hands
its answer back as integers over its determinant D.  Each answer is one
integer layer made from those integers: a mixture (weights, den), the
ray's entries and their sum reduced by their gcd, or a justifier
(on, den), mass ``on[c] / den``, each column's mass spread over its
group by the one ``scaled`` call.
"""

import math
from fractions import Fraction
from operator import ge, mul

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
    ``own`` lists Q_i in id order.  ``answers`` keeps each twin class's
    LP answer, so that one Columns object poses each question once.
    """

    __slots__ = ("q_sets", "co_event", "co_ids", "den", "groups", "value",
                 "twin", "row_sum", "own", "answers")

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
        self.own = sorted(q_sets[i])
        self.answers = {}

    def answer(self, sid):
        """``_justifier``'s answer (measure, mixture) for sid, solved
        once per twin class, not copied."""
        key = self.twin[sid]
        if key not in self.answers:
            self.answers[key] = _justifier(self, sid)
        return self.answers[key]


def dominating_mixture_ids(form, q_sets, i, sid, cols):
    """A mixture (weights, den) on Q_i weakly dominating sid against
    Q_{-i}, or None.

    A purely dominating row of Q_i is returned as is; otherwise the
    answer is the one sid's justifier question found, a mixture exactly
    when no measure with support Q_{-i} makes sid a best reply among
    Q_i.  sid enters only through its own row, so its twins in Q_i
    share the answer.
    """
    if sid not in q_sets[i]:
        raise DominanceError("strategy must belong to its own restriction")
    return _dominating_mixture(cols, cols.own, sid)


def _dominating_mixture(cols, q_i, sid):
    value = cols.value
    own = value[sid]
    # pure dominance needs no tableau: a row at least sid's everywhere
    # and not equal to it is strictly above it somewhere
    for r in q_i:
        other = value[r]
        if all(map(ge, other, own)) and other != own:
            return {r: 1}, 1
    return cols.answer(sid)[1]


def mixture_dominates_ids(form, q_sets, i, sid, mixture, cols):
    """Substitution check of a mixture (weights, den): a mixture on Q_i
    (positive weights summing to den), weakly better than sid everywhere
    and strictly somewhere, all in integers."""
    mixed = mixture_payoffs(form, q_sets, i, mixture, cols)
    return mixed is not None and beats_row(form, i, sid, mixed, mixture[1],
                                           cols)


def mixture_payoffs(form, q_sets, i, mixture, cols):
    """The payoffs of a mixture (weights, den) against cols.co_ids in
    order, each times den and the payoff denominator, as integers; None
    unless it is a mixture on Q_i (positive weights summing to den).
    It does not read the strategy the mixture is to dominate."""
    weights, den = mixture
    if not weights.keys() <= q_sets[i] or sum(weights.values()) != den \
            or any(w <= 0 for w in weights.values()):
        return None
    payoff = form.payoff[i]
    items = list(weights.items())
    return [sum(w * payoff[r][coid] for r, w in items)
            for coid in cols.co_ids]


def beats_row(form, i, sid, mixed, den, cols):
    """Whether ``mixed``, a ``mixture_payoffs`` answer over den, is at
    least sid's own payoff row everywhere on cols.co_ids and above it
    somewhere."""
    row = form.payoff[i][sid]
    strict = False
    for value, coid in zip(mixed, cols.co_ids):
        own = den * row[coid]
        if value < own:
            return False
        if value > own:
            strict = True
    return strict


def justifier_ids(form, q_sets, i, sid, cols):
    """A measure (on, den) with support exactly Q_{-i} against which sid
    is a best reply among Q_i, or None.

    Found by maximizing the minimum mass m over distinct payoff columns
    (substituting nu_g = m + w_g turns strict positivity into the sign of
    the optimum), posed to the simplex in dual form
    (``justifier_problem``), then spreading each column's mass uniformly
    over the co-profiles it aggregates.  The LP's constraints are drawn
    from the twin classes that meet Q_i other than sid's, each named by
    its least member in Q_i: a repeated row restates an inequality and
    sid's own row states 0 >= 0.  They are posed by rival-row
    generation: first the rivals with a larger row sum, which beat sid
    against the measure uniform over the distinct columns, then every
    rival that beats sid against the last optimum, until none does.  A
    relaxation with no positive optimum (an unbounded dual) settles
    None, and a final optimum no rival beats is the full LP's optimum,
    so the optimum and the None decision are those of one constraint
    per rival, though the vertex returned may differ.  When no rival has
    a larger row sum, the uniform measure is the unique optimum and is
    returned without a tableau.  Twins pose the identical LPs and so
    share the answer.  On the elimination's sets a best reply among Q_i
    is one among all of S_i.
    """
    return cols.answer(sid)[0]


def _justifier(cols, sid):
    """(measure, mixture) for sid: the measure when the LP has a
    positive optimum, else the mixture its dual's ray gives; both are
    None only when there is no column."""
    ngroups = len(cols.groups)
    if not ngroups:
        return None, None  # no measure has full support on an empty event
    row_sum = cols.row_sum
    named = {}
    for r in cols.own:
        named.setdefault(cols.twin[r], r)
    rivals = [r for t, r in named.items() if t != cols.twin[sid]]
    beaten = [r for r in rivals if row_sum[r] > row_sum[sid]]
    if not beaten:
        # the uniform point m = 1/G, w = 0 is feasible, hence the unique
        # optimum: G m + sum(w) = 1 and w >= 0 force m <= 1/G
        masses = [1] * ngroups
    else:
        # rival-row generation (docs/exactness.md, "Justifier LPs by
        # rival-row generation"): pose the rivals that beat sid against
        # the uniform measure, those with a larger row sum, then every
        # rival that beats sid against the last optimum, until none does
        value = cols.value
        posed = []
        while True:
            posed = sorted(posed + beaten)
            result = lp.solve(justifier_problem(cols, sid, posed))
            if result.status == "unbounded":
                # the ray's rival entries weakly dominate sid's row
                # (docs/exactness.md, "Dominating mixtures from the
                # dual's ray")
                ray = result.ray
                g = math.gcd(*ray)
                return None, ({r: d // g for r, d in zip(posed, ray) if d},
                              sum(ray) // g)
            # column masses D (1 + w_g), w_g the reduced cost of the slack
            # z_g, compared below as they are
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
    return ({coid: n for n, members in zip(ints, cols.groups)
             for coid in members}, den), None


def justifier_problem(cols, sid, rivals):
    """The justifier LP of own strategy sid over cols against the own
    strategies ``rivals``, in dual form, as posed to the simplex:
    maximize sum_r (row_sum[r] - row_sum[sid]) y_r subject to
    sum_r (u(sid, g) - u(r, g)) y_r <= 1 per distinct column g, over
    y >= 0, with one y column per rival in the order given.  u is the
    payoff times ``cols.den``, so every entry is an integer, and the
    simplex starts feasible at y = 0, the slack z_g of row g at 1
    (docs/exactness.md, "Justifier LPs in dual form")."""
    value = cols.value
    own = value[sid]
    rows = [[own[g] - value[r][g] for r in rivals] for g in range(len(own))]
    objective = [cols.row_sum[r] - cols.row_sum[sid] for r in rivals]
    return lp.LPProblem(objective, rows, [1] * len(own))


def measure_justifies_ids(form, q_sets, i, sid, measure, cols):
    """Substitution check: exact support, total mass 1, argmax membership."""
    return measure_has_support(measure, cols) and \
        sid in best_replies_to_measure(form, i, measure)


def measure_has_support(measure, cols):
    """Whether a measure (on, den) is one with support exactly
    cols.co_event: no negative mass and total mass 1.  It does not read
    the strategy the measure is to justify."""
    on, den = measure
    return ({c for c, n in on.items() if n} == cols.co_event
            and not any(n < 0 for n in on.values())
            and sum(on.values()) == den)


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
    # rivals over all of S_i, whatever Q_i is
    q_sets[i] = frozenset(range(form.counts[i]))
    cols = Columns(form, i, q_sets)
    measure = justifier_ids(form, q_sets, i, sid, cols)
    if measure is None:
        return None
    if not measure_justifies_ids(form, q_sets, i, sid, measure, cols):
        raise DominanceError("justifier failed substitution check")
    on, den = measure
    return {form.co_profile_strategies(i, coid): Fraction(n, den)
            for coid, n in on.items()}
