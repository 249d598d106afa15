"""Conditional belief systems about co-player behavior, and belief operators.

Two representations are used.  A :class:`PriorCNPS` is generated by a
single full-support unconditional measure with values in Q[e]; its
conditionals are restrictions of the prior, kept unnormalized (every
operator below only needs ratio or argmax comparisons, which share the
positive normalizing factor).  An :class:`ExplicitCPS` is an explicit
per-event array of standard (rational-valued) measures; nothing ties its
entries together until the chain rule is validated.

Both classes store integer layers: a prior one per power of e, a table
one per event.  Nothing outside this module decodes a mass: both answer
``layers`` (for ``best_reply``'s dot products) and ``leading_degree``,
and build Hyperreals or Fractions only for ``prior``, ``table`` and
reports.  A prior's ``standard_part`` is the explicit table of its
conditionals' standard parts, read off its layers (docs/exactness.md,
"The CPS witness is the standard part of the ladder"); the chain rule is
checked in integers (docs/exactness.md, "Integers from the source").

Conditioning events are the sets of co-player profiles allowing each
history.  Two histories inducing the same set share one event; operators
quantify over distinct events.  They compare leading degrees and sum no
masses: every validated mass is nonnegative, so a sum of masses starts
at the least degree among its terms (docs/exactness.md, "Belief
operators by leading degree").
"""

import warnings
from fractions import Fraction

from .game import format_path
from .hyperreal import Hyperreal, as_fraction, scaled


class BeliefError(Exception):
    pass


class IncompleteTable(BeliefError):
    """An explicit system is missing some conditioning event."""


class UnknownHistory(BeliefError):
    pass


class VacuousEventWarning(UserWarning):
    """Cautious belief queried at a history that contradicts the event."""


class ConditioningFamily:
    """The distinct conditioning events of one player, with their histories."""

    def __init__(self, game, owner, form=None):
        self.game = game
        self.owner = owner
        self.form = form if form is not None else game.strategic_form()
        self.events = self.form.events[owner]  # [(frozenset coids, h indices)]

    def event_for_history(self, h):
        try:
            k = self.game.h_index[h]
        except KeyError:
            raise UnknownHistory("no such nonterminal history: %r" % (h,))
        return self.form.co_allow[self.owner][k]


class PriorCNPS:
    """Belief system generated by conditioning a full-support prior.

    ``prior`` maps each co-profile id to a positive Hyperreal, or is its
    integer layers ``[(ints, den), ...]``, one per power of e, with a
    ``degree_bound`` of at least their count less one; the masses sum to
    exactly 1.  Conditionals are plain restrictions.  The layers and one
    leading degree per co-profile are kept, ``full_support`` and
    ``sums_to_one`` are read from them in integers, and ``prior`` and
    ``total`` on request.
    """

    standard = False

    def __init__(self, family, prior, degree_bound=None):
        self.family = family
        form, i = family.form, family.owner
        count = len(form.co_profiles[i])
        if isinstance(prior, dict):
            prior, degree_bound = _prior_layers(prior, count)
        if any(len(ints) != count for ints, _ in prior):
            raise BeliefError("prior must cover every co-player profile")
        if degree_bound is None or degree_bound < len(prior) - 1:
            raise BeliefError("%d prior layers need a degree bound of at "
                              "least %d" % (len(prior), len(prior) - 1))
        self.degree_bound = degree_bound
        self._layers = prior
        self._prior = None
        self._depths = [next((d for d, v in enumerate(column) if v), None)
                        for column in zip(*(ints for ints, _ in prior))]
        self.full_support = bool(prior) and all(
            d is not None and prior[d][0][coid] > 0
            for coid, d in enumerate(self._depths))
        if not self.full_support:
            raise BeliefError("prior must have full support")
        (ints, den), deeper = prior[0], prior[1:]
        self.sums_to_one = sum(ints) == den and not any(
            sum(ints) for ints, _ in deeper)
        if not self.sums_to_one:
            raise BeliefError("prior masses must sum to 1, got %s"
                              % self.total)

    @property
    def prior(self):
        """Each co-profile id's mass, a Hyperreal read off the layers."""
        if self._prior is None:
            self._prior = {coid: Hyperreal(
                [Fraction(ints[coid], den) for ints, den in self._layers],
                self.degree_bound) for coid in range(len(self._depths))}
        return self._prior

    @property
    def total(self):
        """The sum of the masses, a Hyperreal read off the layers."""
        return Hyperreal([Fraction(sum(ints), den)
                          for ints, den in self._layers], self.degree_bound)

    @classmethod
    def from_profile_map(cls, game, owner, mapping):
        family = ConditioningFamily(game, owner)
        prior = {_coid(family.form, owner, co_profile): mass
                 for co_profile, mass in mapping.items()}
        return cls(family, prior)

    def layers(self, event_ids, coids):
        """The masses of coids (ids in the event) as integer layers, one
        (ints, den) per power of e, each den shared by all co-profiles."""
        return [([ints[c] for c in coids], den) for ints, den in self._layers]

    def leading_degree(self, event_ids, coid):
        """Least power of e in coid's mass at the event, None outside it."""
        return self._depths[coid] if coid in event_ids else None

    def conditional(self, h):
        """Unnormalized conditional at h: the prior restricted to the
        co-profiles allowing h, keyed by co-profile (tuple of strategies).

        Callers compare ratios or argmax sets, never normalizing; the
        missing factor is the event's total prior mass, shared by every
        entry."""
        form, i = self.family.form, self.family.owner
        ev = self.family.event_for_history(h)
        return {form.co_profile_strategies(i, coid): self.prior[coid]
                for coid in sorted(ev)}

    def standard_part(self):
        """The standard part of the conditional at each event, as an
        explicit table of integer layers (``ExplicitCPS``): the event's
        layer of least depth over its sum there, where every deeper
        co-profile has coefficient 0."""
        table = {}
        for ev, _ in self.family.events:
            ints = self._layers[min(self._depths[c] for c in ev)][0]
            on = {c: ints[c] for c in ev if ints[c]}
            table[ev] = (on, sum(on.values()))
        return table

    def to_json(self):
        form, i = self.family.form, self.family.owner
        return {
            "kind": "cnps-prior",
            "player": form.game.players[i],
            "degree_bound": self.degree_bound,
            "co_players": [form.game.players[j] for j in form.co_players[i]],
            "prior": [
                {"profile": [s.name() for s in
                             form.co_profile_strategies(i, coid)],
                 "mass": self.prior[coid].render()}
                for coid in sorted(self.prior)],
        }


def _prior_layers(prior, count):
    """A map from every co-profile id to its Hyperreal mass as integer
    layers, one (ints, den) per power of e, and the masses' degree
    bound."""
    if set(prior) != set(range(count)):
        raise BeliefError("prior must cover every co-player profile")
    degree_bound = None
    coeffs = [None] * count
    for coid, mass in prior.items():
        if not isinstance(mass, Hyperreal):
            raise BeliefError("prior values must be Hyperreal")
        if degree_bound is None:
            degree_bound = mass.degree_bound
        elif mass.degree_bound != degree_bound:
            raise ValueError("degree bound mismatch: %d vs %d"
                             % (degree_bound, mass.degree_bound))
        coeffs[coid] = mass.coeffs
    width = max(map(len, coeffs))
    return [scaled(layer) for layer in zip(
        *[cs + (0,) * (width - len(cs)) for cs in coeffs])], degree_bound


class ExplicitCPS:
    """Explicit array of standard conditional measures, one per event,
    keyed by exactly the family's conditioning events.

    Each event's measure is kept as one integer layer (on, total), c's
    probability being ``on[c] / total``.  ``table`` gives it so, as
    ``PriorCNPS.standard_part`` does, or maps co-profile ids to
    rationals, scaled once; the ``table`` attribute is a rational view.
    """

    standard = True

    def __init__(self, family, table):
        self.family = family
        self._table = {frozenset(ev): dist for ev, dist in table.items()}
        events = [ev for ev, _ in family.events]
        for ev in events:
            if ev not in self._table:
                raise IncompleteTable("missing conditioning event")
        if len(self._table) > len(events):
            raise BeliefError("table has an entry for a set that is not a "
                              "conditioning event")
        for ev, dist in self._table.items():
            if not isinstance(dist, tuple):
                ints, den = scaled([as_fraction(p) for p in dist.values()])
                dist = self._table[ev] = (dict(zip(dist, ints)), den)
            on, total = dist
            for coid, n in on.items():
                if n < 0:
                    raise BeliefError("negative probability")
                if n > 0 and coid not in ev:
                    raise BeliefError(
                        "measure puts weight outside its conditioning event")
            if total <= 0 or sum(on.values()) != total:
                raise BeliefError("conditional measure must sum to 1")

    @property
    def table(self):
        """Per event, each stored co-profile id's probability."""
        return {ev: {c: Fraction(n, total) for c, n in on.items()}
                for ev, (on, total) in self._table.items()}

    def _entry(self, event_ids):
        """The event's (on, total); BeliefError, naming the set, unless
        it is one of the family's conditioning events."""
        entry = self._table.get(frozenset(event_ids))
        if entry is None:
            raise BeliefError("%s is not a conditioning event of player %s"
                              % (sorted(event_ids), self.family.form.game
                                 .players[self.family.owner]))
        return entry

    def layers(self, event_ids, coids):
        """The event's probabilities of coids as one layer [(ints, den)]."""
        on, total = self._entry(event_ids)
        return [([on.get(c, 0) for c in coids], total)]

    def leading_degree(self, event_ids, coid):
        """0 for a positive probability at the event, None for zero."""
        return 0 if self._entry(event_ids)[0].get(coid) else None

    def conditional(self, h):
        """The stored (normalized) conditional measure at h, keyed by
        co-profile."""
        form, i = self.family.form, self.family.owner
        on, total = self._table[self.family.event_for_history(h)]
        return {form.co_profile_strategies(i, coid): Fraction(n, total)
                for coid, n in sorted(on.items())}

    def support(self, event_ids):
        on, _ = self._entry(event_ids)
        return frozenset(c for c, n in on.items() if n > 0)

    def to_json(self):
        form, i = self.family.form, self.family.owner
        game = form.game
        out = {"kind": "cps", "player": game.players[i],
               "co_players": [game.players[j] for j in form.co_players[i]],
               "events": []}
        for ev, h_idxs in self.family.events:
            on, total = self._table[ev]
            out["events"].append({
                "histories": [
                    format_path(game.nonterminal[k]) for k in h_idxs],
                "distribution": [
                    {"profile": [s.name() for s in
                                 form.co_profile_strategies(i, coid)],
                     "mass": str(Fraction(on.get(coid, 0), total))}
                    for coid in sorted(ev)],
            })
        return out


# -- chain rule --------------------------------------------------------

def validate_chain_rule(cps):
    """Exhaustive chain-rule check over nested event pairs and singletons.

    For rational-valued conditional measures, checking singleton events E
    suffices: both sides of the identity are additive in E, so equality on
    singletons extends to every subset of D, where it is checked on the
    integer layers as ``on_C[c] T_D == on_D[c] (sum of on_C over D)``.
    Returns (ok, violations) where each violation is (coid, D, C, lhs,
    rhs), the two sides as rationals.  Raises BeliefError for anything
    but an :class:`ExplicitCPS`: a prior's conditionals satisfy the rule
    by construction.
    """
    if not isinstance(cps, ExplicitCPS):
        raise BeliefError("the chain rule is checked on an explicit "
                          "system, got %s" % type(cps).__name__)
    events = [ev for ev, _ in cps.family.events]
    violations = []
    for c_ev in events:
        on_c, t_c = cps._table[c_ev]
        for d_ev in events:
            if d_ev == c_ev or not d_ev <= c_ev:
                continue
            on_d, t_d = cps._table[d_ev]
            d_in_c = sum(on_c.get(coid, 0) for coid in d_ev)
            for coid in d_ev:
                lhs = on_c.get(coid, 0)
                rhs = on_d.get(coid, 0)
                if lhs * t_d != rhs * d_in_c:
                    violations.append((coid, d_ev, c_ev, Fraction(lhs, t_c),
                                       Fraction(rhs * d_in_c, t_d * t_c)))
    return (not violations), violations


# -- belief operators --------------------------------------------------

def _coid(form, owner, co_profile):
    """The id of a co-profile given as strategies, one per co-player of
    owner in order.  Raises BeliefError, naming it, for anything else."""
    try:
        return form.co_id(owner, [
            form.index[j][s] for j, s in
            zip(form.co_players[owner], co_profile, strict=True)])
    except (KeyError, TypeError, ValueError):
        raise BeliefError("%r is not a co-profile of player %s"
                          % (co_profile, form.game.players[owner])) from None


def _event_ids(belief, E):
    """Normalize an event, given by co-profile ids or co-profiles, to a
    frozenset of ids.  Raises BeliefError for an id out of range or a
    co-profile that is not the owner's; the empty event is valid."""
    form, i = belief.family.form, belief.family.owner
    ids = frozenset(c if isinstance(c, int) else _coid(form, i, c)
                    for c in E)
    if ids and not 0 <= min(ids) <= max(ids) < len(form.co_profiles[i]):
        raise BeliefError("event %s names a co-profile id that player %s "
                          "lacks" % (sorted(ids), form.game.players[i]))
    return ids


def cautiously_believes(belief, h, E):
    """Every profile of E consistent with h is infinitely more likely
    than the complement of E, under the conditional at h."""
    ev = belief.family.event_for_history(h)
    return _cautious_at_event(belief, ev, _event_ids(belief, E),
                              warn_vacuous=True)


def _positive_depths(belief, ev, ids):
    """Leading degrees of the positive masses of ids at event ev."""
    depths = (belief.leading_degree(ev, coid) for coid in ids)
    return [d for d in depths if d is not None]


def _cautious_at_event(belief, ev, e_ids, warn_vacuous=False):
    inter = e_ids & ev
    if not inter:
        if warn_vacuous:
            warnings.warn("event is contradicted at this history; cautious "
                          "belief is reported false", VacuousEventWarning,
                          stacklevel=3)
        return False
    inside = [belief.leading_degree(ev, coid) for coid in inter]
    if None in inside:
        return False
    outside = _positive_depths(belief, ev, ev - e_ids)
    return not outside or max(inside) < min(outside)


def c_strongly_believes(belief, E):
    """Cautious belief in E at every history not yet contradicting E."""
    e_ids = _event_ids(belief, E)
    return all(_cautious_at_event(belief, ev, e_ids)
               for ev, _ in belief.family.events if e_ids & ev)


def strongly_believes(belief, E):
    """Conditional probability exactly 1 on E wherever E is not contradicted."""
    e_ids = _event_ids(belief, E)
    return not any(e_ids & ev and _positive_depths(belief, ev, ev - e_ids)
                   for ev, _ in belief.family.events)


def weakly_believes(belief, h, E):
    """Standard part of the conditional probability of E equals 1."""
    ev = belief.family.event_for_history(h)
    e_ids = _event_ids(belief, E)
    outside = _positive_depths(belief, ev, ev - e_ids)
    inside = _positive_depths(belief, ev, e_ids & ev)
    return not outside or (bool(inside) and min(inside) < min(outside))
