"""Conditional expected payoffs and the two best-reply correspondences.

All comparisons at a fixed history share the belief's (positive)
normalizing factor, so conditional values from a prior-generated system
are kept unnormalized; argmax sets are invariant to the common scaling.

Every expected payoff is computed in integers.  The strategic form groups
the player's strategies into twin classes, one per distinct payoff row
over the conditioning event, with the rows in the form's integers over
the player's payoff denominator (``StrategicForm.twin_classes``).  The
belief hands out its masses as integer layers (``layers``: one for a
standard measure, one per power of e for a prior), each over a common
denominator.  One integer dot product per class and layer then serves
every member of the class: argmax sets compare these totals directly,
since all classes share each layer's denominator, and a value is built
only on request, as one Fraction per layer (see ``docs/exactness.md``).
The audited run hands a :class:`ReplyAnalysis` the same totals combined
from per-justifier products instead (docs/exactness.md, "Best-reply
totals from justifier products"), and asks each member only at the
histories it allows.

``sequential_best_replies`` requires the h-replacement of a strategy to be
conditionally optimal at every history.  ``weak_sequential_best_replies``
requires the strategy itself to be optimal at the histories it allows;
it never separates behaviorally equivalent strategies.
"""

from fractions import Fraction
from operator import mul

from .hyperreal import Hyperreal


class BestReplyError(Exception):
    pass


class StrategyDisallowsHistory(BestReplyError):
    pass


class ForeignGame(BestReplyError):
    pass


def _layer_totals(twins, layers):
    """Per twin class, one integer dot product per mass layer.

    ``twins`` is a ``StrategicForm.twin_classes`` triple and ``layers``
    a belief's ``layers`` over its co-profile ids.  Returns (dens,
    [(members, totals)]): a class's value in layer d is totals[d] /
    dens[d], dens[d] > 0 shared by every class, so comparing totals
    tuples lexicographically compares the values."""
    _, row_den, classes = twins
    return ([row_den * den for _, den in layers],
            [(members, tuple(sum(map(mul, nums, ints)) for ints, _ in layers))
             for members, nums in classes])


def argmax(classes):
    """The members of the classes whose totals tuple is largest, given
    (members, totals) pairs whose totals share each entry's positive
    denominator."""
    best = max((totals for _, totals in classes), default=None)
    return frozenset(sid for members, totals in classes if totals == best
                     for sid in members)


class ReplyAnalysis:
    """Per-history conditional argmax sets for one (belief, player) pair,
    over the belief's own strategic form.  Raises BestReplyError unless
    the player holds the belief.

    ``totals``, if given, maps a history index to the (members, totals)
    pairs that ``_layer_totals`` gives over the belief's layers there,
    computed by the caller some other way (``procedures`` combines them
    from per-justifier products); argmax sets then read those, and values
    still read the belief.
    """

    def __init__(self, belief, i, totals=None):
        form, owner = belief.family.form, belief.family.owner
        if i != owner:
            raise BestReplyError("a belief of %s queried as %s's"
                                 % (form.game.players[owner],
                                    form.game.players[i]))
        self.form = form
        self.belief = belief
        self.i = i
        self._totals = totals
        self._argmax = {}

    def _class_totals(self, h_idx):
        twins = self.form.twin_classes(self.i, h_idx)
        return _layer_totals(twins, self.belief.layers(
            self.form.co_allow[self.i][h_idx], twins[0]))

    def _value_row(self, h_idx):
        """Conditional expected payoff of every strategy allowing h_idx."""
        dens, classes = self._class_totals(h_idx)
        out = {}
        for members, totals in classes:
            values = [Fraction(t, d) for t, d in zip(totals, dens)]
            value = values[0] if self.belief.standard else \
                Hyperreal(values, self.belief.degree_bound)
            out.update(dict.fromkeys(members, value))
        return out

    def value(self, sid, h_idx):
        row = self._value_row(h_idx)
        if sid not in row:
            raise StrategyDisallowsHistory(
                "strategy does not allow the conditioning history")
        return row[sid]

    def argmax_ids(self, h_idx):
        if h_idx not in self._argmax:
            self._argmax[h_idx] = argmax(
                self._class_totals(h_idx)[1] if self._totals is None
                else self._totals(h_idx))
        return self._argmax[h_idx]

    def sequential_ids(self):
        form, i = self.form, self.i
        out = []
        histories = range(len(form.game.nonterminal))
        for sid in range(form.counts[i]):
            if all(form.replacement(i, k, sid) in self.argmax_ids(k)
                   for k in histories):
                out.append(sid)
        return out

    def is_weak_sequential(self, sid):
        """Whether sid is optimal at every history it allows.  Only those
        histories' argmax sets are read, each built once per analysis."""
        return all(sid in self.argmax_ids(k)
                   for k in self.form.allowed_hist[self.i][sid])

    def weak_sequential_ids(self):
        """Ids optimal at every history they allow, in id order."""
        return [sid for sid in range(self.form.counts[self.i])
                if self.is_weak_sequential(sid)]


def _analysis(game, belief, i):
    """The belief's ReplyAnalysis for player i; raises ForeignGame unless
    game is the one the belief is over."""
    if game is not belief.family.game:
        raise ForeignGame("the belief is over another game")
    return ReplyAnalysis(belief, i)


def expected_payoff(game, belief, i, r, h):
    """Conditional expected payoff of strategy r at history h.

    Unnormalized (common positive factor) for prior-generated systems,
    normalized for explicit standard systems.  game must be the belief's
    own, and r must allow h.
    """
    analysis = _analysis(game, belief, i)
    sid = analysis.form.strategy_id(i, r)
    h_idx = game.h_index.get(h)
    if h_idx is None:
        raise BestReplyError("unknown nonterminal history %r" % (h,))
    return analysis.value(sid, h_idx)


def sequential_best_replies(game, belief, i):
    """Strategies whose h-replacement is conditionally optimal at every h."""
    analysis = _analysis(game, belief, i)
    return tuple(analysis.form.strats[i][sid]
                 for sid in analysis.sequential_ids())


def weak_sequential_best_replies(game, belief, i):
    """Strategies optimal at every history they allow."""
    analysis = _analysis(game, belief, i)
    return tuple(analysis.form.strats[i][sid]
                 for sid in analysis.weak_sequential_ids())


def best_replies_to_measure(form, i, measure):
    """Ids of strategies maximizing expected payoff against a standard
    measure (on, den), coid c's mass ``on.get(c, 0) / den``, over all of
    the player's strategies."""
    on, den = measure
    twins = form.twin_classes(i, 0)
    layer = ([on.get(c, 0) for c in twins[0]], den)
    return argmax(_layer_totals(twins, [layer])[1])
