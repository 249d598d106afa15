"""Mutants planted inside the shortcuts: the audit must catch each one.

Each mutant is one monkeypatch that plants a wrong answer in one
shortcut of the elimination or its justifiers, in one of the integer
scalings of payoffs, ladder priors and explicit tables, in the integer
layer of an LP answer, or in a prior's leading degrees and standard
part, in the ray an unbounded justifier LP answers with, in the
combination of justifier products into best-reply totals, or in the
layer of those totals the standard part is compared in.  Over a
fixed list of games (the corpus plus generated games of up to three
players), ``verify_equivalences`` must raise an ``EquivalenceViolation``
naming the expected stages or checks, while the unmutated list
verifies.  One mutant, every leading degree shifted by one, is one the
audit rightly accepts; its test says why.  Another, two twin classes
merged, is accepted on the games where it changes no step and no
certificate; its test checks that.  A third, the standard part's layer
one too shallow, is accepted because every class ties there; its test
says why and checks that the product route's comparison with the
belief route refuses it.
"""

from collections import Counter
from fractions import Fraction

import pytest

from prudens import beliefs, dominance, lp, procedures
from prudens.hyperreal import scaled
from prudens.procedures import EquivalenceViolation, verify_equivalences

from conftest import small_games
from test_procedures import product_route_disagreements


@pytest.fixture(scope="module")
def games(corpus_games):
    return [corpus_games[name] for name in sorted(corpus_games)] + \
        small_games(40, start=700, max_players=3, max_strategies=6)


def violations(games, accepted=None):
    """The failed checks of every game whose audit raises; the reports of
    the others go to ``accepted`` when it is given."""
    found = []
    for game in games:
        try:
            report = verify_equivalences(game)
        except EquivalenceViolation as exc:
            found.append(tuple(exc.checks))
        else:
            if accepted is not None:
                accepted.append((game, outcome(report)))
    return found


def outcome(report):
    """A report's step sets and exclusion certificates."""
    trace = report["traces"]["ia"]
    return ([step.parts for step in trace.steps],
            {key: record.mixture for key, record in trace.exclusions.items()})


def test_unmutated_list_verifies(games):
    for game in games:
        assert verify_equivalences(game)["all_verified"]


def test_uniform_justifier_everywhere(games, monkeypatch):
    """The row-sum shortcut's answer, the uniform measure over the
    distinct columns, returned for every strategy."""
    def uniform(cols, sid):
        mass = Fraction(1, len(cols.groups))
        coids = [c for members in cols.groups for c in members]
        ints, den = scaled([mass / len(members)
                            for members in cols.groups for _ in members])
        return (dict(zip(coids, ints)), den), None

    monkeypatch.setattr(dominance, "_justifier", uniform)
    found = violations(games)
    assert set(found) == {("justifiers",)}
    assert len(found) >= 20, found


def test_keep_test_keeps_an_unjustified_strategy(games, monkeypatch):
    """The pure-dominance scan, then keep: a strategy with no justifier
    is kept instead of excluded by the mixture its LP's ray gives."""
    def scan_then_keep(cols, q_i, sid):
        own = cols.value[sid]
        for r in q_i:
            other = cols.value[r]
            if other != own and all(a >= b for a, b in zip(other, own)):
                return {r: 1}, 1
        return None

    monkeypatch.setattr(dominance, "_dominating_mixture", scan_then_keep)
    found = violations(games)
    assert set(found) == {("justifiers",)}
    assert len(found) >= 2, found


def test_first_two_twin_classes_merged(games, monkeypatch):
    """Every Columns maps its second twin class onto its first, so two
    distinct rows share one LP answer.  Each member still runs its own
    pure-dominance scan, so on some games the merge changes nothing that
    leaves the run; the audit accepts exactly those, each with the
    unmutated steps and certificates."""
    expected = {id(game): outcome(verify_equivalences(game))
                for game in games}
    real = dominance.Columns.__init__

    def merged(self, form, i, q_sets):
        real(self, form, i, q_sets)
        reps = sorted(set(self.twin))
        if len(reps) > 1:
            self.twin = [reps[0] if t == reps[1] else t for t in self.twin]

    monkeypatch.setattr(dominance.Columns, "__init__", merged)
    accepted = []
    found = violations(games, accepted)
    assert set(found) == {("justifiers",)}
    assert len(found) >= 20, found
    assert all(result == expected[id(game)] for game, result in accepted)


def test_ladder_rung_without_joint_denominator(games, monkeypatch):
    """Each rung's integers, over its own denominator, subtracted from
    rung 0's as if both shared one.  The one combination builds the
    prior and the best-reply totals alike, and the prior is refused."""
    def unscaled(rungs):
        (v_0, den_0), deeper = rungs[0], rungs[1:]
        layers = [(v_0, den_0)]
        for v, den in deeper:
            layers.append(([a - b for a, b in zip(v, v_0)], den))
        return layers

    monkeypatch.setattr(procedures, "_combine_rungs", unscaled)
    found = violations(games)
    assert set(found) == {("belief-valid",)}
    assert len(found) >= 30, found


def test_rung_totals_combined_with_the_wrong_sign(games, monkeypatch):
    """The best-reply totals' deeper layers combined as
    den_ell T_0 - den_0 T_ell, the negative of the right one, while the
    prior, and so every reported belief, keeps the right combination.
    A CPS event reached only by a deeper rung then has its argmin read
    as its argmax, and a prior's ties at layer 0 are broken the wrong
    way."""
    real_combine, real_totals = procedures._combine_rungs, \
        procedures._Run.totals

    def wrong_sign(rungs):
        layers = real_combine(rungs)
        return layers[:1] + [([-a for a in ints], den)
                             for ints, den in layers[1:]]

    def totals(run, *args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(procedures, "_combine_rungs", wrong_sign)
            return real_totals(run, *args)

    monkeypatch.setattr(procedures._Run, "totals", totals)
    found = violations(games)
    assert set(found) == {("weak-sequential-best-reply",)}
    assert len(found) >= 15, found


def test_cps_total_from_a_deeper_layer(games, monkeypatch):
    """Each event's total summed from the layer below its least depth
    (the same layer where there is none, so one-rung priors keep their
    correct table)."""
    def deeper(prior):
        table = {}
        layers = prior._layers
        for ev, _ in prior.family.events:
            depth = min(prior._depths[c] for c in ev)
            ints = layers[depth][0]
            below = layers[min(depth + 1, len(layers) - 1)][0]
            table[ev] = ({c: ints[c] for c in ev if ints[c]},
                         sum(below[c] for c in ev))
        return table

    monkeypatch.setattr(beliefs.PriorCNPS, "standard_part", deeper)
    found = violations(games)
    assert set(found) == {("belief-valid",)}
    assert len(found) >= 30, found


def test_one_row_scaled_by_its_own_factor(games, monkeypatch):
    """Every Columns doubles its last own strategy's row, as if that row
    had been scaled over a denominator of its own."""
    real = dominance.Columns.__init__

    def skewed(self, form, i, q_sets):
        real(self, form, i, q_sets)
        last = len(self.value) - 1
        self.value[last] = [2 * v for v in self.value[last]]
        self.row_sum[last] = sum(self.value[last])
        first = {}
        self.twin = [first.setdefault(tuple(row), r)
                     for r, row in enumerate(self.value)]

    monkeypatch.setattr(dominance.Columns, "__init__", skewed)
    found = violations(games)
    assert set(found) == {("justifiers",), ("dominance-substitution",)}
    assert len(found) >= 30, found


def test_rivals_over_all_of_s_i(games, monkeypatch):
    """The justifier LP poses a rival for every twin class of S_i, so a
    ray can weigh a strategy eliminated earlier.  The step sets stay
    right, and each measure is still a best reply among all of S_i, but
    such a certificate is not a mixture on Q_i.  No ray on the fixed list
    weighs an eliminated strategy, so the next 40 generated games are
    asked too."""
    real = dominance.Columns.__init__

    def all_of_s_i(self, form, i, q_sets):
        real(self, form, i, q_sets)
        self.own = list(range(len(self.value)))

    monkeypatch.setattr(dominance.Columns, "__init__", all_of_s_i)
    found = violations(games + small_games(40, start=740, max_players=3,
                                           max_strategies=6))
    assert set(found) == {("dominance-substitution",)}
    assert len(found) >= 2, found


def test_ray_without_its_entering_entry(games, monkeypatch):
    """Every unbounded answer of the simplex loses its entering
    column's entry, D, and keeps only the basic columns' entries.  A
    ray whose only entry was that one reads as the empty mixture, and
    the others weigh sid's rivals wrongly."""
    real_iterate, real_solve = lp._iterate, lp.solve
    entered = []

    def iterate(*args):
        enter, det = real_iterate(*args)
        entered.append(enter)
        return enter, det

    def solve(problem):
        result = real_solve(problem)
        if result.status == "unbounded" and entered[-1] < len(result.ray):
            result.ray[entered[-1]] = 0
        return result

    monkeypatch.setattr(lp, "_iterate", iterate)
    monkeypatch.setattr(lp, "solve", solve)
    found = violations(games)
    assert set(found) == {("dominance-substitution",)}
    assert len(found) >= 2, found


def test_pure_dominator_outside_q_i(games, monkeypatch):
    """The pure-dominance scan reads every own strategy, eliminated ones
    first.  The step sets stay right (an eliminated dominator hands its
    dominance down to a mixture on Q_i), but the certificate is not a
    mixture on Q_i."""
    real = dominance._dominating_mixture

    def scan_all(cols, q_i, sid):
        own = cols.value[sid]
        for r in sorted(range(len(cols.value)), key=q_i.__contains__):
            other = cols.value[r]
            if other != own and all(a >= b for a, b in zip(other, own)):
                return {r: 1}, 1
        return real(cols, q_i, sid)

    monkeypatch.setattr(dominance, "_dominating_mixture", scan_all)
    found = violations(games)
    assert set(found) == {("dominance-substitution",)}
    assert len(found) >= 2, found


def test_doubled_mixture_weights(games, monkeypatch):
    """Every dominating mixture's weights doubled over the same
    denominator, so they sum to 2."""
    real = dominance._dominating_mixture

    def doubled(cols, q_i, sid):
        mixture = real(cols, q_i, sid)
        if mixture is None:
            return None
        weights, den = mixture
        return {r: 2 * w for r, w in weights.items()}, den

    monkeypatch.setattr(dominance, "_dominating_mixture", doubled)
    found = violations(games)
    assert set(found) == {("dominance-substitution",)}
    assert len(found) >= 40, found


def test_justifier_denominator_off_by_one(games, monkeypatch):
    """Every justifier's denominator one too large, so its masses sum
    to less than 1.  The elimination reads only whether a justifier
    exists; the witness phase substitutes it."""
    real = dominance._justifier

    def off_by_one(cols, sid):
        measure, mixture = real(cols, sid)
        if measure is None:
            return measure, mixture
        on, den = measure
        return (on, den + 1), mixture

    monkeypatch.setattr(dominance, "_justifier", off_by_one)
    found = violations(games)
    assert set(found) == {("justifiers",)}
    assert len(found) >= 50, found


def test_first_relaxation_returned(games, monkeypatch):
    """Rival-row generation stopped after its first round: the optimum
    over the rivals with a larger row sum is returned with no membership
    test, so a rival never posed may beat it.  The elimination reads only
    whether a measure exists; the witness phase substitutes it against
    every own strategy.  Only two questions on the list need a second
    round, and the audit rejects both games."""
    real = dominance._justifier

    def first_round_only(cols, sid):
        named = {}
        for r in cols.own:
            named.setdefault(cols.twin[r], r)
        larger = [r for r in named.values()
                  if cols.row_sum[r] > cols.row_sum[sid]]
        if not larger:
            return real(cols, sid)
        result = lp.solve(dominance.justifier_problem(cols, sid, larger))
        if result.status != "optimal":
            return real(cols, sid)  # the first round's ray, as unmutated
        # the dual's reduced costs w over den: column masses 1 + w_g
        masses = [result.den + w for w in result.reduced[len(larger):]]
        ints, den = scaled([Fraction(mass, sum(masses) * len(members))
                            for mass, members in zip(masses, cols.groups)])
        return ({c: n for n, members in zip(ints, cols.groups)
                 for c in members}, den), None

    monkeypatch.setattr(dominance, "_justifier", first_round_only)
    found = violations(games)
    assert set(found) == {("justifiers",)}
    assert len(found) >= 2, found


def test_leading_degree_off_by_one(games, monkeypatch):
    """Every prior mass's leading degree read one too small where it is
    positive, so the first deeper rung reads as rung 0: the c-strong
    belief checks then find the ladder's first two rungs tied."""
    real = beliefs.PriorCNPS.leading_degree

    def shallower(self, event_ids, coid):
        depth = real(self, event_ids, coid)
        return depth and depth - 1

    monkeypatch.setattr(beliefs.PriorCNPS, "leading_degree", shallower)
    found = violations(games)
    assert set(found) == {("c-strong-belief-in-round-1-survivors",)}
    assert len(found) >= 30, found


def test_leading_degree_shifted_is_accepted(games, monkeypatch):
    """Every leading degree one too large, of priors and explicit tables
    alike.  The audit rightly accepts it: the belief operators compare
    leading degrees only with one another, and a zero mass still has
    none, so no answer changes."""
    for cls in (beliefs.PriorCNPS, beliefs.ExplicitCPS):
        def deeper(self, event_ids, coid, real=cls.leading_degree):
            depth = real(self, event_ids, coid)
            return None if depth is None else depth + 1

        monkeypatch.setattr(cls, "leading_degree", deeper)
    assert violations(games) == []


def test_standard_part_reads_the_next_layer(games, monkeypatch):
    """Each event's standard part read off the layer below its least
    depth (the same layer where there is none), masses and total alike.
    That layer's entries can be negative and its total 0 or less, so the
    table is no measure and ``ExplicitCPS`` refuses it."""
    def next_layer(prior):
        table = {}
        layers = prior._layers
        for ev, _ in prior.family.events:
            depth = min(prior._depths[c] for c in ev)
            ints = layers[min(depth + 1, len(layers) - 1)][0]
            on = {c: ints[c] for c in ev if ints[c]}
            table[ev] = (on, sum(on.values()))
        return table

    monkeypatch.setattr(beliefs.PriorCNPS, "standard_part", next_layer)
    found = violations(games)
    assert set(found) == {("belief-valid",)}
    assert len(found) >= 30, found


def shifted_cps_layer(monkeypatch, shift):
    """Make the standard part's best replies read layer d + shift of the
    chain's totals, kept within the chain's layers."""
    real = procedures._Run._layer

    def layer(run, procedure, i, n, h_idx):
        d = real(run, procedure, i, n, h_idx)
        return d if d is None else min(max(d + shift, 0), n - 1)

    monkeypatch.setattr(procedures._Run, "_layer", layer)


def test_cps_layer_one_too_deep(games, monkeypatch):
    """The standard part's best replies read from layer d+1 of the
    chain's totals, one past the first rung whose level meets the
    history's event (layer d itself where the chain has no deeper one).
    That layer weighs a smaller level's justifier, so it can rank the
    classes otherwise, and the member's verdict is refused."""
    shifted_cps_layer(monkeypatch, 1)
    found = violations(games)
    assert set(found) == {("weak-sequential-best-reply",)}
    assert len(found) >= 20, found


def test_cps_layer_one_too_shallow_is_caught_by_the_belief_route(
        games, monkeypatch):
    """The standard part's best replies read from layer d-1 (layer 0
    stays).  The audit accepts it: layer d is the first whose rung's
    level meets the event, so every earlier layer, combined from rungs
    that give the event no mass, is 0 there for every class, and every
    strategy allowing the history ties as a best reply.  So the audit
    alone cannot see it; the product route's comparison with the belief
    route does, since the standard part's own totals there are layer
    d's."""
    shifted_cps_layer(monkeypatch, -1)
    assert violations(games) == []
    refused = [game for game in games if product_route_disagreements(
        procedures._Run(game.strategic_form()), Counter())]
    assert len(refused) >= 5, len(refused)
