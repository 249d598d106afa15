import random

import pytest
from fractions import Fraction

from prudens import dsl, procedures
from prudens.beliefs import (BeliefError, ConditioningFamily, ExplicitCPS,
                             PriorCNPS)
from prudens.best_reply import (BestReplyError, ForeignGame, ReplyAnalysis,
                                StrategyDisallowsHistory,
                                best_replies_to_measure, expected_payoff,
                                sequential_best_replies,
                                weak_sequential_best_replies)
from prudens.game import Game, GameError
from prudens.hyperreal import Hyperreal, scaled

from conftest import small_games
from oracles import (condition_ladder, fraction_best_replies_to_measure,
                     fraction_value_row, naive_expected_payoff,
                     reduce_by_enumeration)
from test_beliefs import co_profile, layered_prior, random_prior


def tilted_prior(game, i, top_name, D=2):
    """Mass 1-(k-1)e on the named co-profile, e on each other."""
    form = game.strategic_form()
    cos = form.co_profiles[i]
    e = Hyperreal.epsilon(D)
    mapping = {}
    rest = Hyperreal.one(D)
    names = [tuple(s.name() for s in form.co_profile_strategies(i, c))
             for c in range(len(cos))]
    for name in names:
        if ",".join(name) != top_name:
            mapping[co_profile(game, i, *name)] = e
            rest = rest - e
    top = [n for n in names if ",".join(n) == top_name]
    assert top
    mapping[co_profile(game, i, *top[0])] = rest
    return PriorCNPS.from_profile_map(game, i, mapping)


class TestExpectedPayoff:
    def test_single_co_profile(self, corpus_games):
        game = corpus_games["one_player_two_stage"]
        belief = random_prior(game, 0, random.Random(1))
        r = [s for s in game.strategies(0) if s.name() == "L,b"][0]
        v = expected_payoff(game, belief, 0, r, ())
        # the only co-profile has mass exactly 1
        assert v == Hyperreal.from_rational(Fraction(5), belief.degree_bound)

    def test_static_arithmetic(self, corpus_games):
        game = corpus_games["matching_pennies"]
        D = 2
        e = Hyperreal.epsilon(D)
        belief = tilted_prior(game, 0, "h", D)
        heads = [s for s in game.strategies(0) if s.name() == "H"][0]
        # payoffs 1 against h, -1 against t: value = (1-e) - e = 1 - 2e
        assert expected_payoff(game, belief, 0, heads, ()) == \
            Hyperreal.one(D) - 2 * e

    def test_disallowed_history_raises(self, corpus_games):
        game = corpus_games["centipede_3"]
        belief = random_prior(game, 0, random.Random(2))
        stopper = [s for s in game.strategies(0) if s.name() == "S,w,S2"][0]
        h2 = game.nonterminal[2]
        with pytest.raises(StrategyDisallowsHistory):
            expected_payoff(game, belief, 0, stopper, h2)

    def test_matches_naive_evaluator(self):
        rng = random.Random(77)
        for g in small_games(10):
            for i in range(len(g.players)):
                belief = random_prior(g, i, rng)
                form = g.strategic_form()
                ids = {form.co_profile_strategies(i, c): m
                       for c, m in belief.prior.items()}
                for k, h in enumerate(g.nonterminal):
                    for sid in sorted(form.allow[i][k]):
                        r = form.strats[i][sid]
                        got = expected_payoff(g, belief, i, r, h)
                        want = naive_expected_payoff(
                            g, i, r, h, lambda co: ids[co])
                        assert got == want


    def test_other_players_strategy_is_a_game_error(self, corpus_games):
        game = corpus_games["centipede_3"]
        belief = random_prior(game, 0, random.Random(2))
        foreign = game.strategies(1)[0]
        with pytest.raises(GameError, match="is not a strategy of player %s"
                           % game.players[0]):
            expected_payoff(game, belief, 0, foreign, ())

    def test_history_is_looked_up_in_the_beliefs_game(self, corpus_games):
        """Both games have one history at index 1, /(go,go) and /(In,w).
        Asked through the belief's own game, a history of the other game
        is unknown and its own one is answered; asked through the other
        game, the question is refused before any history is read."""
        game = corpus_games["two_stage_coordination"]
        other = corpus_games["bos_outside_option"]
        belief = random_prior(game, 0, random.Random(4))
        r = game.strategies(0)[0]
        own, foreign = game.nonterminal[1], other.nonterminal[1]
        assert other.h_index[foreign] == game.h_index[own] == 1
        with pytest.raises(BestReplyError, match="unknown nonterminal"):
            expected_payoff(game, belief, 0, r, foreign)
        form = game.strategic_form()
        assert expected_payoff(game, belief, 0, r, own) == ReplyAnalysis(
            belief, 0).value(form.strategy_id(0, r), 1)
        for h in (own, foreign):
            with pytest.raises(ForeignGame):
                expected_payoff(other, belief, 0, r, h)


class TestForeignGame:
    """Each public best-reply query takes the game its belief is over and
    refuses any other, even one with the same players and strategies."""

    @pytest.mark.parametrize("query", [
        lambda game, belief, i: expected_payoff(
            game, belief, i, game.strategies(i)[0], ()),
        sequential_best_replies, weak_sequential_best_replies])
    def test_foreign_game_is_refused(self, corpus_games, query):
        game = corpus_games["matching_pennies"]
        twin = Game(game.players, game.actions, game.payoffs)
        assert twin.strategies(0) == game.strategies(0)
        belief = random_prior(game, 0, random.Random(3))
        query(game, belief, 0)
        for foreign in (twin, corpus_games["prisoners_dilemma"]):
            with pytest.raises(ForeignGame,
                               match="belief is over another game"):
                query(foreign, belief, 0)


class TestBeliefOwner:
    """A belief answers its holder's questions only: read as another
    player's, its co-profile ids would name the wrong profiles."""

    @pytest.mark.parametrize("query", [
        lambda game, belief, i: expected_payoff(
            game, belief, i, game.strategies(i)[0], ()),
        sequential_best_replies, weak_sequential_best_replies])
    def test_other_players_belief_is_refused(self, corpus_games, query):
        game = corpus_games["matching_pennies"]
        belief = random_prior(game, 0, random.Random(3))
        query(game, belief, 0)
        with pytest.raises(BestReplyError, match="queried as"):
            query(game, belief, 1)


class TestSequentialBestReplies:
    def test_one_player_singleton(self):
        game = dsl.elaborate(dsl.parse(
            "players A\nat / actions A: hi lo\npayoff /(hi) = 1\n"
            "payoff /(lo) = 0\n"))
        belief = random_prior(game, 0, random.Random(3))
        result = sequential_best_replies(game, belief, 0)
        assert [s.name() for s in result] == ["hi"]

    def test_static_collapse_to_argmax(self, corpus_games):
        rng = random.Random(5)
        for name in ("matching_pennies", "prisoners_dilemma",
                     "three_round_static"):
            game = corpus_games[name]
            for i in range(len(game.players)):
                belief = random_prior(game, i, rng)
                rho = set(sequential_best_replies(game, belief, i))
                form = game.strategic_form()
                analysis = ReplyAnalysis(belief, i)
                argmax = {form.strats[i][sid]
                          for sid in analysis.argmax_ids(0)}
                assert rho == argmax
                assert rho == set(weak_sequential_best_replies(
                    game, belief, i))

    def test_nonempty_and_matches_definition(self):
        rng = random.Random(6)
        for g in small_games(10):
            for i in range(len(g.players)):
                belief = random_prior(g, i, rng)
                rho = set(sequential_best_replies(g, belief, i))
                assert rho, "sequential best replies must exist"
                # re-derive from the definition, literally
                form = g.strategic_form()
                analysis = ReplyAnalysis(belief, i)
                for s in g.strategies(i):
                    ok = True
                    for k, h in enumerate(g.nonterminal):
                        rep = g.replacement_strategy(s, h)
                        rep_id = form.index[i][rep]
                        if rep_id not in analysis.argmax_ids(k):
                            ok = False
                            break
                    assert ok == (s in rho)

    def test_subset_of_weak(self):
        rng = random.Random(8)
        for g in small_games(10):
            for i in range(len(g.players)):
                belief = random_prior(g, i, rng)
                rho = set(sequential_best_replies(g, belief, i))
                rho_bar = set(weak_sequential_best_replies(g, belief, i))
                assert rho <= rho_bar
                # every weak best reply is optimal at the root conditional
                form = g.strategic_form()
                analysis = ReplyAnalysis(belief, i)
                root_best = analysis.argmax_ids(0)
                assert all(form.index[i][s] in root_best for s in rho_bar)

    def test_weak_is_union_of_equivalence_classes(self):
        rng = random.Random(9)
        for g in small_games(12):
            for i in range(len(g.players)):
                belief = random_prior(g, i, rng)
                rho_bar = set(weak_sequential_best_replies(g, belief, i))
                for cls in reduce_by_enumeration(g, i):
                    hits = sum(1 for s in cls if s in rho_bar)
                    assert hits in (0, len(cls))


class TestScalingInvariance:
    class _Scaled:
        """Belief stub: the base conditionals scaled by a positive factor."""

        standard = False

        def __init__(self, base, factor):
            self.base = base
            self.factor = factor
            self.degree_bound = base.degree_bound
            self.family = base.family

        def layers(self, event_ids, coids):
            masses = [self.factor * self.base.prior[c] for c in coids]
            width = max(len(m.coeffs) for m in masses)
            return [scaled([m.coefficient(d) for m in masses])
                    for d in range(width)]

    @pytest.mark.parametrize("factor_coeffs", [(3,), (Fraction(2, 7),),
                                               (1, 1), (Fraction(1, 2), 3)])
    def test_argmax_sets_unchanged(self, corpus_games, factor_coeffs):
        rng = random.Random(10)
        game = corpus_games["bos_outside_option"]
        for i in range(2):
            belief = random_prior(game, i, rng, degree=1)
            factor = Hyperreal(
                [Fraction(c) for c in factor_coeffs], belief.degree_bound)
            scaled = self._Scaled(belief, factor)
            base_analysis = ReplyAnalysis(belief, i)
            scaled_analysis = ReplyAnalysis(scaled, i)
            for k in range(len(game.nonterminal)):
                assert base_analysis.argmax_ids(k) == \
                    scaled_analysis.argmax_ids(k)


class TestOptimalityLemma:
    def test_prior_argmax_implies_weak_sequential(self):
        """Unconditional optimality under a full-support standard prior
        carries over to every allowed history under its conditionals."""
        rng = random.Random(11)
        checked = 0
        for g in small_games(25):
            form = g.strategic_form()
            for i in range(len(g.players)):
                k = len(form.co_profiles[i])
                weights = [rng.randrange(1, 6) for _ in range(k)]
                total = sum(weights)
                measure = {c: Fraction(w, total)
                           for c, w in enumerate(weights)}
                best = best_replies_to_measure(
                    form, i, (dict(enumerate(weights)), total))
                D = 1
                prior = {c: Hyperreal((measure[c],), D) for c in measure}
                belief = PriorCNPS(ConditioningFamily(g, i, form), prior)
                analysis = ReplyAnalysis(belief, i)
                weak = set(analysis.weak_sequential_ids())
                assert best <= weak
                checked += 1
        assert checked >= 25

    def test_partial_support_version_at_reached_events(self):
        """argmax against any standard measure stays optimal at histories
        its support reaches, under the conditioned system."""
        rng = random.Random(12)
        for g in small_games(15):
            form = g.strategic_form()
            for i in range(len(g.players)):
                k = len(form.co_profiles[i])
                support = rng.sample(range(k), rng.randrange(1, k + 1))
                weights = [rng.randrange(1, 5) for _ in support]
                total = sum(weights)
                measure = {c: Fraction(w, total)
                           for c, w in zip(support, weights)}
                best = best_replies_to_measure(
                    form, i, (dict(zip(support, weights)), total))
                for sid in best:
                    for h_idx in form.allowed_hist[i][sid]:
                        ev = form.co_allow[i][h_idx]
                        mass = {c: measure.get(c, Fraction(0)) for c in ev}
                        if not any(mass.values()):
                            continue
                        row = form.payoff[i]
                        den = form.payoff_den[i]
                        value = {r: sum((Fraction(row2[c], den) * p
                                         for c, p in mass.items() if p),
                                        Fraction(0))
                                 for r, row2 in enumerate(row)
                                 if r in form.allow[i][h_idx]}
                        assert value[sid] == max(value.values())


class TestExplicitCPSBeliefs:
    def test_weak_sequential_under_conditioned_table(self, corpus_games):
        game = corpus_games["bos_outside_option"]
        family = ConditioningFamily(game, 1)
        k = len(family.form.co_profiles[1])
        measure = {c: Fraction(1, k) for c in range(k)}
        cps = ExplicitCPS(family, condition_ladder(family, [measure]))
        result = weak_sequential_best_replies(game, cps, 1)
        assert result
        form = game.strategic_form()
        best = best_replies_to_measure(form, 1, (dict.fromkeys(range(k), 1),
                                                 k))
        assert {form.index[1][s] for s in result} >= best


def int_payoff_game():
    """A three-stage game built directly, with plain int payoffs; A's two
    "stop" plans are twins."""
    go, stop = ("go", "w"), ("stop", "w")
    left, right = ("w", "l"), ("w", "r")
    actions = {(): (("go", "stop"), ("w",)),
               (go,): (("w",), ("l", "r")),
               (go, left): (("a", "b"), ("w",))}
    payoffs = {(stop,): (1, -2), (go, right): (-1, 2),
               (go, left, ("a", "w")): (3, 0),
               (go, left, ("b", "w")): (-4, 5)}
    return Game(("A", "B"), actions, payoffs)


def sparse_measure(form, i, rng):
    """A standard measure over all co-profiles with some zero masses."""
    k = len(form.co_profiles[i])
    weights = [rng.choice((0, 0, 1, 2, 3)) for _ in range(k)]
    if not any(weights):
        weights[rng.randrange(k)] = 1
    total = sum(weights)
    return {c: Fraction(w, total) for c, w in enumerate(weights)}


class TestIntegerKernel:
    """The integer twin-class sums against the per-strategy Fraction loops
    they replaced (``oracles.fraction_value_row`` and
    ``oracles.fraction_best_replies_to_measure``): exact values and argmax
    sets must agree."""

    @staticmethod
    def beliefs(game, rng):
        """(player, belief) pairs: the witnesses of the audited run
        (ladder priors and conditioned explicit systems), a layered prior,
        and an explicit system conditioned from a measure with zeros."""
        form = game.strategic_form()
        traces = procedures.verify_equivalences(game)["traces"]
        for name in (procedures.PR_CNPS, procedures.PR_CPS):
            for rec in traces[name].witnesses.values():
                if rec.belief is not None:
                    yield rec.player, rec.belief
        for i in range(form.n):
            yield i, layered_prior(form, i, rng)
            family = ConditioningFamily(game, i, form)
            try:
                yield i, ExplicitCPS(family, condition_ladder(
                    family, [sparse_measure(form, i, rng)]))
            except BeliefError:
                pass

    COVERAGE = ("zero-mass", "negative-coefficient", "interior-zero",
                "twin-row", "negative-payoff", "half-payoff")

    def check_game(self, game, rng, seen):
        form = game.strategic_form()
        for i, belief in self.beliefs(game, rng):
            analysis = ReplyAnalysis(belief, i)
            for k in range(len(game.nonterminal)):
                want = fraction_value_row(form, belief, i, k)
                assert analysis._value_row(k) == want
                best = max(want.values())
                assert analysis.argmax_ids(k) == frozenset(
                    sid for sid, v in want.items() if v == best)
                event = form.co_allow[i][k]
                if belief.standard:
                    masses = belief.table[event]
                    seen["zero-mass"] |= any(not masses.get(c) for c in event)
                else:
                    for mass in map(belief.prior.get, event):
                        cs = mass.coeffs
                        seen["negative-coefficient"] |= any(c < 0 for c in cs)
                        seen["interior-zero"] |= 0 in cs
        for i in range(form.n):
            for _ in range(3):
                measure = sparse_measure(form, i, rng)
                ints, den = scaled(list(measure.values()))
                layer = dict(zip(measure, ints)), den
                assert best_replies_to_measure(form, i, layer) == \
                    fraction_best_replies_to_measure(form, i, measure)
            for k in range(len(game.nonterminal)):
                _, _, classes = form.twin_classes(i, k)
                seen["twin-row"] |= any(len(m) > 1 for m, _ in classes)
            values = {Fraction(u, form.payoff_den[i])
                      for row in form.payoff[i] for u in row}
            seen["negative-payoff"] |= any(u < 0 for u in values)
            seen["half-payoff"] |= any(u.denominator == 2 for u in values)

    def test_corpus_and_generated_games(self, corpus_games):
        rng = random.Random(41)
        seen = dict.fromkeys(self.COVERAGE, False)
        games = [corpus_games[name] for name in sorted(corpus_games)]
        games += small_games(40, max_players=3, max_strategies=6,
                             max_histories=8)
        for game in games:
            self.check_game(game, rng, seen)
        assert all(seen.values()), seen

    def test_game_with_int_payoffs(self):
        game = int_payoff_game()
        seen = dict.fromkeys(self.COVERAGE, False)
        self.check_game(game, random.Random(42), seen)
        assert seen["twin-row"] and seen["negative-payoff"]
        form = game.strategic_form()
        # the two "stop" plans of A share one class at the root
        _, den, classes = form.twin_classes(0, 0)
        assert den == 1
        assert [len(members) for members, _ in classes] == [1, 1, 2]

    def test_twin_classes_scale_rows_exactly(self, corpus_games):
        for game in list(corpus_games.values()) + small_games(20):
            form = game.strategic_form()
            for i in range(form.n):
                for k in range(len(game.nonterminal)):
                    coids, den, classes = form.twin_classes(i, k)
                    assert form.twin_classes(i, k)[2] is classes
                    members = sorted(s for m, _ in classes for s in m)
                    assert members == sorted(form.allow[i][k])
                    assert den > 0
                    rows = set()
                    for members, nums in classes:
                        assert all(isinstance(v, int) for v in nums)
                        for sid in members:
                            assert [Fraction(form.payoff[i][sid][c],
                                             form.payoff_den[i])
                                    for c in coids] \
                                == [Fraction(v, den) for v in nums]
                        rows.add(nums)
                    assert len(rows) == len(classes)
