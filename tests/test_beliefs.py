import itertools
import random
import re
import warnings
from collections import Counter

import pytest
from fractions import Fraction

from prudens import dsl
from prudens.beliefs import (BeliefError, ConditioningFamily, ExplicitCPS,
                             PriorCNPS, UnknownHistory, VacuousEventWarning,
                             c_strongly_believes, cautiously_believes,
                             strongly_believes, validate_chain_rule,
                             weakly_believes)
from prudens.hyperreal import Hyperreal, infinitely_greater

from conftest import small_games
from oracles import (c_strongly_believes_intersection_form,
                     condition_ladder, mass_within, singleton_mass,
                     standard_part_conditional, sympy_cautiously_believes,
                     sympy_chain_rule_holds, sympy_conditional)

import sympy


def co_profile(game, i, *names):
    """Look up the co-profile tuple whose member strategies carry ``names``."""
    co_players = [j for j in range(len(game.players)) if j != i]
    out = []
    for j, name in zip(co_players, names):
        match = [s for s in game.strategies(j) if s.name() == name]
        assert match, name
        out.append(match[0])
    return tuple(out)


@pytest.fixture
def three_plans(corpus_games):
    """Ann vs Bob with plans a, b, c and the ladder prior (1-e-e^2, e, e^2)."""
    game = corpus_games["remark_nonmonotone"]
    D = 4
    e = Hyperreal.epsilon(D)
    e2 = Hyperreal.epsilon(D, power=2)
    prior = {
        co_profile(game, 0, "a"): Hyperreal.one(D) - e - e2,
        co_profile(game, 0, "b"): e,
        co_profile(game, 0, "c"): e2,
    }
    belief = PriorCNPS.from_profile_map(game, 0, prior)
    return game, belief


def event(game, belief, *names):
    return frozenset({co_profile(game, belief.family.owner, n)
                      for n in names})


class TestCautiousBelief:
    def test_full_event_always_held(self, three_plans):
        game, belief = three_plans
        assert cautiously_believes(belief, (), event(game, belief,
                                                     "a", "b", "c"))

    def test_epsilon_tail_believed(self, corpus_games):
        game = corpus_games["matching_pennies"]
        D = 2
        e = Hyperreal.epsilon(D)
        belief = PriorCNPS.from_profile_map(game, 0, {
            co_profile(game, 0, "h"): Hyperreal.one(D) - e,
            co_profile(game, 0, "t"): e,
        })
        assert cautiously_believes(belief, (), event(game, belief, "h"))

    def test_even_split_not_believed(self, corpus_games):
        game = corpus_games["matching_pennies"]
        half = Hyperreal.from_rational(Fraction(1, 2), 2)
        belief = PriorCNPS.from_profile_map(game, 0, {
            co_profile(game, 0, "h"): half,
            co_profile(game, 0, "t"): half,
        })
        assert not cautiously_believes(belief, (), event(game, belief, "h"))

    def test_event_relative_caution(self, three_plans):
        game, belief = three_plans
        assert cautiously_believes(belief, (), event(game, belief, "a", "b"))
        # c is not infinitely more likely than b, so {a, c} fails
        assert not cautiously_believes(belief, (),
                                       event(game, belief, "a", "c"))

    def test_vacuous_event_flagged(self, three_plans):
        game, belief = three_plans
        with pytest.warns(VacuousEventWarning):
            assert not cautiously_believes(belief, (), frozenset())

    def test_unknown_history(self, three_plans):
        game, belief = three_plans
        with pytest.raises(UnknownHistory):
            cautiously_believes(belief, (("x", "zzz"),),
                                event(game, belief, "a"))

    def test_matches_symbolic_division(self, three_plans):
        game, belief = three_plans
        ids = range(3)
        for size in (1, 2, 3):
            for combo in itertools.combinations(ids, size):
                ev = frozenset(combo)
                assert cautiously_believes(belief, (), ev) == \
                    sympy_cautiously_believes(belief, (), ev)


class TestCStrongBelief:
    def test_nonmonotonicity_fixture(self, three_plans):
        game, belief = three_plans
        small = event(game, belief, "a")
        large = event(game, belief, "a", "c")
        assert small <= large
        assert c_strongly_believes(belief, small)
        assert not c_strongly_believes(belief, large)

    def test_empty_event_vacuously_held(self, three_plans):
        _, belief = three_plans
        assert c_strongly_believes(belief, frozenset())

    def test_forms_agree_on_random_instances(self, corpus_games):
        rng = random.Random(11)
        for game in list(corpus_games.values())[:6]:
            for i in range(len(game.players)):
                belief = random_prior(game, i, rng)
                cos = list(range(len(
                    belief.family.form.co_profiles[i])))
                for _ in range(10):
                    ev = frozenset(rng.sample(cos,
                                              rng.randrange(1, len(cos) + 1)))
                    assert c_strongly_believes(belief, ev) == \
                        c_strongly_believes_intersection_form(belief, ev)

    def test_maintained_until_contradicted(self, corpus_games):
        # in the centipede, believing "continue" cautiously at the root is
        # compatible with any conditional at histories contradicting it
        game = corpus_games["centipede_3"]
        D = 3
        e = Hyperreal.epsilon(D)
        cont = co_profile(game, 0, "w,c,w")
        stop = co_profile(game, 0, "w,s,w")
        belief = PriorCNPS.from_profile_map(game, 0, {
            cont: Hyperreal.one(D) - e,
            stop: e,
        })
        assert c_strongly_believes(belief, frozenset({cont}))


class TestStrongVsCautious:
    def test_strong_without_caution(self, three_plans):
        game, _ = three_plans
        family = ConditioningFamily(game, 0)
        form = family.form
        ids = {s.name(): form.co_profiles[0].index((form.index[1][s],))
               for s in game.strategies(1)}
        ev = frozenset(ids.values())
        table = {ev: {ids["a"]: Fraction(1)}}
        cps = ExplicitCPS(family, table)
        target = frozenset({ids["a"], ids["b"]})
        assert strongly_believes(cps, target)
        assert not cautiously_believes(cps, (), target)

    def test_caution_without_strength(self, three_plans):
        game, belief = three_plans
        ev = event(game, belief, "a")
        assert cautiously_believes(belief, (), ev)
        assert c_strongly_believes(belief, ev)
        assert not strongly_believes(belief, ev)

    def test_full_support_prior_strongly_believes_only_everything(
            self, three_plans):
        game, belief = three_plans
        assert strongly_believes(belief, event(game, belief, "a", "b", "c"))
        assert not strongly_believes(belief, event(game, belief, "a", "b"))

    def test_strong_belief_nonmonotone_witness_by_search(self, corpus_games):
        """Search the point-mass systems over a sequential corpus game for
        a nested pair held/failed; the search itself is the oracle."""
        game = corpus_games["bos_outside_option"]
        family = ConditioningFamily(game, 1)
        cos = list(range(len(family.form.co_profiles[1])))
        found = False
        for anchor in cos:
            # point mass at the root; uniform at unreached events
            table = {}
            for ev, _ in family.events:
                if anchor in ev:
                    table[ev] = {anchor: Fraction(1)}
                else:
                    table[ev] = {c: Fraction(1, len(ev)) for c in ev}
            cps = ExplicitCPS(family, table)
            for extra in cos:
                if extra == anchor:
                    continue
                small = frozenset({anchor})
                large = frozenset({anchor, extra})
                if strongly_believes(cps, small) and \
                        not strongly_believes(cps, large):
                    found = True
        assert found


class TestWeakBelief:
    def test_epsilon_tail(self, corpus_games):
        game = corpus_games["matching_pennies"]
        D = 2
        e = Hyperreal.epsilon(D)
        belief = PriorCNPS.from_profile_map(game, 0, {
            co_profile(game, 0, "h"): Hyperreal.one(D) - e,
            co_profile(game, 0, "t"): e,
        })
        assert weakly_believes(belief, (), event(game, belief, "h"))

    def test_half_mass_fails(self, corpus_games):
        game = corpus_games["matching_pennies"]
        half = Hyperreal.from_rational(Fraction(1, 2), 2)
        belief = PriorCNPS.from_profile_map(game, 0, {
            co_profile(game, 0, "h"): half,
            co_profile(game, 0, "t"): half,
        })
        assert not weakly_believes(belief, (), event(game, belief, "h"))

    def test_cautious_implies_weak(self, corpus_games):
        rng = random.Random(23)
        for game in list(corpus_games.values())[:6]:
            for i in range(len(game.players)):
                belief = random_prior(game, i, rng)
                cos = list(range(len(belief.family.form.co_profiles[i])))
                for h in game.nonterminal:
                    for _ in range(8):
                        ev = frozenset(
                            rng.sample(cos, rng.randrange(1, len(cos) + 1)))
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore",
                                                  VacuousEventWarning)
                            held = cautiously_believes(belief, h, ev)
                        if held:
                            assert weakly_believes(belief, h, ev)


def random_prior(game, i, rng, degree=2):
    """Full-support CNPS prior with random rational coefficients.

    Constant terms are a normalized positive profile, so every mass is
    positive; higher-degree coefficients sum to zero per degree, so the
    total is exactly 1.
    """
    form = game.strategic_form()
    k = len(form.co_profiles[i])
    D = degree + 1
    weights = [rng.randrange(1, 5) for _ in range(k)]
    total = sum(weights)
    coeffs = [[Fraction(w, total)] for w in weights]
    for _ in range(degree):
        draws = [Fraction(rng.randrange(-2, 3)) for _ in range(k - 1)]
        draws.append(-sum(draws, Fraction(0)))
        for c in range(k):
            coeffs[c].append(draws[c] / (4 * total))
    prior = {coid: Hyperreal(cs, D) for coid, cs in enumerate(coeffs)}
    family = ConditioningFamily(game, i, form)
    return PriorCNPS(family, prior)


def layered_prior(form, i, rng):
    """Full-support prior of degree 3 whose e^1 layer is zero everywhere
    and whose higher layers mix negative, zero and positive coefficients
    (each layer above 0 sums to zero, so the total is 1)."""
    k = len(form.co_profiles[i])
    weights = [rng.randrange(0, 4) * 2 + 1 for _ in range(k)]
    total = sum(weights)
    coeffs = [[Fraction(w, total), Fraction(0)] for w in weights]
    for _ in range(2):
        draws = [Fraction(rng.randrange(-2, 3), rng.choice((1, 3)))
                 for _ in range(k - 1)]
        draws.append(-sum(draws, Fraction(0)))
        for c in range(k):
            coeffs[c].append(draws[c] / (5 * total))
    prior = {coid: Hyperreal(cs, 3) for coid, cs in enumerate(coeffs)}
    return PriorCNPS(ConditioningFamily(form.game, i, form), prior)


def random_ladder(family, rng, rungs):
    """Measures with random supports, the last with full support, as a
    justifier ladder is built."""
    cos = list(range(len(family.form.co_profiles[family.owner])))
    ladder = []
    for r in range(rungs):
        support = cos if r == rungs - 1 else rng.sample(
            cos, rng.randrange(1, len(cos) + 1))
        weights = {c: Fraction(rng.randrange(1, 5)) for c in support}
        total = sum(weights.values())
        ladder.append({c: w / total for c, w in weights.items()})
    return ladder


def ladder_prior(family, ladder):
    """nu_0 (1 - e - ... - e^{n-1}) + sum of e^ell nu_ell, the prior the
    procedures build from a ladder: a co-profile first reached by rung ell
    has leading degree ell."""
    zero = Fraction(0)
    prior = {}
    for coid in range(len(family.form.co_profiles[family.owner])):
        base = ladder[0].get(coid, zero)
        prior[coid] = Hyperreal(
            [base] + [nu.get(coid, zero) - base for nu in ladder[1:]],
            len(ladder))
    return PriorCNPS(family, prior)


def cautious_by_sums(belief, ev, e_ids):
    """Each mass of E at ev is infinitely greater than ev - E's sum."""
    comp = mass_within(belief, ev, ev - e_ids)

    def greater(x):
        if isinstance(x, Hyperreal):
            return infinitely_greater(x, comp)
        return x > 0 and comp == 0
    inter = e_ids & ev
    return bool(inter) and all(greater(singleton_mass(belief, ev, c))
                               for c in inter)


def strong_by_sums(belief, e_ids):
    return all(mass_within(belief, ev, e_ids & ev)
               == mass_within(belief, ev, ev)
               for ev, _ in belief.family.events if e_ids & ev)


def weak_by_support(belief, ev, e_ids):
    """The standard part of the conditional at ev lives inside E."""
    if belief.standard:
        support = belief.support(ev)
    else:
        support = standard_part_conditional(belief.prior, ev)
    return set(support) <= e_ids


class TestOperatorsAtDepth:
    """Ladder priors carry leading degrees 0-2, and their conditioned
    tables hold zero masses: every operator on either system agrees with
    its definition through ``oracles.mass_within`` sums or standard parts."""

    def test_operators_match_definitions(self, corpus_games):
        rng = random.Random(2)
        games = [corpus_games[k] for k in sorted(corpus_games)]
        games += small_games(8)
        outcomes = Counter()
        depths = set()
        for game in games:
            for i in range(len(game.players)):
                family = ConditioningFamily(game, i)
                cos = list(range(len(family.form.co_profiles[i])))
                for _ in range(4):
                    ladder = random_ladder(family, rng, rng.randrange(1, 4))
                    prior = ladder_prior(family, ladder)
                    cps = ExplicitCPS(family, prior.standard_part())
                    assert cps.table == condition_ladder(family, ladder)
                    depths |= {m.leading_degree()
                               for m in prior.prior.values()}
                    self.check_stored_masses(family, prior, cps)
                    for belief in (prior, cps):
                        for _ in range(5):
                            e_ids = frozenset(rng.sample(
                                cos, rng.randrange(len(cos) + 1)))
                            held = c_strongly_believes(belief, e_ids)
                            assert held == \
                                c_strongly_believes_intersection_form(
                                    belief, e_ids)
                            outcomes["c-strong", held] += 1
                            held = strongly_believes(belief, e_ids)
                            assert held == strong_by_sums(belief, e_ids)
                            outcomes["strong", held] += 1
                            for h in game.nonterminal:
                                ev = family.event_for_history(h)
                                with warnings.catch_warnings():
                                    warnings.simplefilter(
                                        "ignore", VacuousEventWarning)
                                    held = cautiously_believes(
                                        belief, h, e_ids)
                                assert held == cautious_by_sums(
                                    belief, ev, e_ids)
                                outcomes["cautious", held] += 1
                                held = weakly_believes(belief, h, e_ids)
                                assert held == weak_by_support(
                                    belief, ev, e_ids)
                                outcomes["weak", held] += 1
        assert depths == {0, 1, 2}
        assert all(outcomes[op, held] > 0 for held in (True, False)
                   for op in ("c-strong", "strong", "cautious", "weak"))
        assert sum(outcomes.values()) >= 6000

    @staticmethod
    def check_stored_masses(family, prior, cps):
        """``leading_degree`` is each mass's own leading degree (0 or None
        on a table, None outside the event), ``layers`` gives back
        every coefficient exactly, and the table conditioned from the
        ladder is the standard part of the prior's conditionals."""
        for ev, _ in family.events:
            coids = sorted(ev)
            dist = cps.table[ev]
            assert dist == standard_part_conditional(prior.prior, ev)
            for coid in range(len(family.form.co_profiles[family.owner])):
                inside = coid in ev
                assert prior.leading_degree(ev, coid) == (
                    prior.prior[coid].leading_degree() if inside else None)
                assert cps.leading_degree(ev, coid) == (
                    0 if dist.get(coid) else None)
            layers = prior.layers(ev, coids)
            assert all(len(prior.prior[c].coeffs) <= len(layers)
                       for c in coids)
            for k, coid in enumerate(coids):
                assert [Fraction(ints[k], den) for ints, den in layers] == \
                    [prior.prior[coid].coefficient(d)
                     for d in range(len(layers))]
            (ints, den), = cps.layers(ev, coids)
            assert [Fraction(n, den) for n in ints] == \
                [dist.get(c, 0) for c in coids]


class TestStandardPart:
    """``PriorCNPS.standard_part`` on priors whose layers above degree 0
    hold negative, zero and positive coefficients: the limit of each
    normalised conditional (``oracles.standard_part_conditional``).
    Ladder priors are checked in ``TestOperatorsAtDepth``."""

    def test_layered_and_random_priors(self, corpus_games):
        rng = random.Random(6)
        negative = False
        for game in [corpus_games[k] for k in sorted(corpus_games)]:
            form = game.strategic_form()
            for i in range(form.n):
                for prior in (layered_prior(form, i, rng),
                              random_prior(game, i, rng)):
                    negative |= any(c < 0 for m in prior.prior.values()
                                    for c in m.coeffs)
                    table = prior.standard_part()
                    events = [ev for ev, _ in prior.family.events]
                    assert list(table) == events
                    cps = ExplicitCPS(prior.family, table)
                    for ev in events:
                        assert cps.table[ev] == standard_part_conditional(
                            prior.prior, ev)
        assert negative


class TestMalformedEvents:
    """An event naming an id or a co-profile that is not the owner's is a
    BeliefError naming it, under every operator and in
    ``PriorCNPS.from_profile_map``; the empty event is valid."""

    @staticmethod
    def beliefs(game):
        rng = random.Random(17)
        belief = random_prior(game, 0, rng)
        family = belief.family
        cps = ExplicitCPS(family, condition_ladder(
            family, [{0: Fraction(1, 2), 1: Fraction(1, 2)}]))
        return belief, cps

    @staticmethod
    def operators(belief, E):
        return [lambda: c_strongly_believes(belief, E),
                lambda: strongly_believes(belief, E),
                lambda: weakly_believes(belief, (), E),
                lambda: cautiously_believes(belief, (), E)]

    def test_bad_events_raise(self, corpus_games):
        game = corpus_games["weak_dom_2x2"]
        other = corpus_games["matching_pennies"]
        left = co_profile(game, 0, "L")
        cases = {
            r"event \[99\] names a co-profile id that player Row lacks":
                frozenset({99}),
            r"event \[-1, 0\] names": frozenset({-1, 0}),
            "not a co-profile of player Row": frozenset(
                {(other.strategies(1)[0],)}),
            "is not a co-profile": frozenset({(game.strategies(0)[0],)}),
            "is not a co-profile of": frozenset({left + left}),
        }
        for belief in self.beliefs(game):
            assert len(belief.family.form.co_profiles[0]) == 2
            for message, E in cases.items():
                for ask in self.operators(belief, E):
                    with pytest.raises(BeliefError, match=message):
                        ask()

    def test_explicit_system_refuses_a_set_that_is_no_event(self,
                                                            corpus_games):
        """An explicit system answers ``support``, ``leading_degree`` and
        ``layers`` only at its conditioning events; any other set is a
        BeliefError naming it, not a KeyError."""
        from prudens.procedures import prudent_rationalizability_cps
        trace = prudent_rationalizability_cps(corpus_games["centipede_3"])
        cps = trace.witnesses[min(trace.witnesses, key=lambda key: (
            key[0], key[1], key[2].choices))].belief
        assert [sorted(ev) for ev, _ in cps.family.events] == [[0, 1], [0]]
        assert cps.support(frozenset({0})) == frozenset({0})
        for message, ask in (
                ("[1]", lambda: cps.support(frozenset({1}))),
                ("[1]", lambda: cps.leading_degree(frozenset({1}), 1)),
                ("[1]", lambda: cps.layers({1}, [1])),
                ("[]", lambda: cps.support(frozenset()))):
            with pytest.raises(BeliefError, match=re.escape(
                    message + " is not a conditioning event of player P1")):
                ask()

    def test_empty_event_is_valid(self, corpus_games):
        game = corpus_games["weak_dom_2x2"]
        for belief in self.beliefs(game):
            assert c_strongly_believes(belief, frozenset())
            assert strongly_believes(belief, frozenset())
            assert not weakly_believes(belief, (), frozenset())
            with pytest.warns(VacuousEventWarning):
                assert not cautiously_believes(belief, (), frozenset())

    def test_profile_map_refuses_long_co_profile(self, corpus_games):
        game = corpus_games["weak_dom_2x2"]
        left = co_profile(game, 0, "L")
        right = co_profile(game, 0, "R")
        half = Hyperreal.from_rational(Fraction(1, 2), 2)
        with pytest.raises(BeliefError, match="not a co-profile of player"):
            PriorCNPS.from_profile_map(game, 0, {left + right: half,
                                                 right: half})


class TestConditional:
    def test_root_restriction_is_prior(self, three_plans):
        game, belief = three_plans
        by_profile = belief.conditional(())
        assert len(by_profile) == 3
        assert sorted(by_profile.values(), key=lambda v: v.coeffs) == \
            sorted(belief.prior.values(), key=lambda v: v.coeffs)

    def test_restriction_sums_to_event_mass(self, corpus_games):
        rng = random.Random(3)
        game = corpus_games["centipede_3"]
        belief = random_prior(game, 0, rng)
        for h in game.nonterminal:
            ev = belief.family.event_for_history(h)
            total = Hyperreal.zero(belief.degree_bound)
            for m in belief.conditional(h).values():
                total = total + m
            assert total == mass_within(belief, ev, ev)
            assert total > 0

    def test_agrees_with_symbolic_normalization(self, corpus_games):
        rng = random.Random(9)
        game = corpus_games["centipede_3"]
        eps = sympy.Symbol("eps", positive=True)
        for _ in range(3):
            belief = random_prior(game, 0, rng, degree=2)
            for ev, _hs in belief.family.events:
                for coid in ev:
                    lib = singleton_mass(belief, ev, coid)
                    total = mass_within(belief, ev, ev)
                    sym = sympy_conditional(belief, ev, frozenset([coid]),
                                            eps)
                    lib_sym = (sum(sympy.Rational(c.numerator, c.denominator)
                                   * eps ** k
                                   for k, c in enumerate(lib.coeffs))
                               / sum(sympy.Rational(c.numerator,
                                                    c.denominator) * eps ** k
                                     for k, c in enumerate(total.coeffs)))
                    assert sympy.simplify(lib_sym - sym) == 0


class TestChainRule:
    def test_prior_generated_tables_pass(self, corpus_games):
        rng = random.Random(31)
        for name in ("centipede_3", "bos_outside_option",
                     "entry_deterrence"):
            game = corpus_games[name]
            for i in range(len(game.players)):
                family = ConditioningFamily(game, i)
                cos = range(len(family.form.co_profiles[i]))
                measure = {c: Fraction(rng.randrange(1, 5)) for c in cos}
                total = sum(measure.values())
                measure = {c: v / total for c, v in measure.items()}
                cps = ExplicitCPS(family, condition_ladder(family, [measure]))
                ok, violations = validate_chain_rule(cps)
                assert ok and not violations

    def test_perturbed_entry_reported(self, corpus_games):
        game = corpus_games["bos_outside_option"]
        family = ConditioningFamily(game, 1)
        cos = list(range(len(family.form.co_profiles[1])))
        measure = {c: Fraction(1, len(cos)) for c in cos}
        cps = ExplicitCPS(family, condition_ladder(family, [measure]))
        nested = [(d, c) for d, _ in family.events for c, _ in family.events
                  if d < c and len(d) >= 2]
        assert nested, "fixture needs a nested event with two profiles"
        d_ev, c_ev = nested[0]
        # perturb the conditional at d_ev: move mass between two profiles
        dist = dict(cps.table[d_ev])
        keys = sorted(dist)
        lo, hi = keys[0], keys[-1]
        assert lo != hi
        shift = dist[hi] / 2
        dist[hi] -= shift
        dist[lo] += shift
        cps = ExplicitCPS(family, {**cps.table, d_ev: dist})
        ok, violations = validate_chain_rule(cps)
        assert not ok
        assert any(v[1] == d_ev and v[2] == c_ev for v in violations)

    def test_prior_is_a_belief_error(self, corpus_games):
        """The integer check reads an explicit system's stored layers; a
        prior is refused with a typed error, not an AttributeError."""
        belief = random_prior(corpus_games["centipede_3"], 0,
                              random.Random(5))
        with pytest.raises(BeliefError, match="explicit system, got "
                           "PriorCNPS"):
            validate_chain_rule(belief)

    def test_normalized_prior_conditionals_satisfy_chain_rule_symbolically(
            self, corpus_games):
        rng = random.Random(17)
        game = corpus_games["centipede_3"]
        belief = random_prior(game, 0, rng, degree=2)
        assert sympy_chain_rule_holds(belief)

    def test_float_mass_is_a_type_error(self, corpus_games):
        game = corpus_games["matching_pennies"]
        family = ConditioningFamily(game, 0)
        ((ev, _),) = family.events
        first, second = sorted(ev)
        with pytest.raises(TypeError, match="0.5"):
            ExplicitCPS(family, {ev: {first: 0.5, second: Fraction(1, 2)}})

    def test_incomplete_table_rejected(self, corpus_games):
        game = corpus_games["centipede_3"]
        family = ConditioningFamily(game, 0)
        with pytest.raises(BeliefError):
            ExplicitCPS(family, {})

    def test_entry_for_a_non_event_rejected(self, corpus_games):
        game = corpus_games["matching_pennies"]
        family = ConditioningFamily(game, 0)
        ((ev, _),) = family.events
        first, second = sorted(ev)
        half = Fraction(1, 2)
        table = {ev: {first: half, second: half}}
        assert ExplicitCPS(family, table).table == table
        table[frozenset({first})] = {first: Fraction(1)}
        with pytest.raises(BeliefError, match="not a conditioning event"):
            ExplicitCPS(family, table)

    def test_integer_layers_checked_like_rationals(self, corpus_games):
        """A table given as integer layers (on, total) is the measure
        on[c] / total, and is refused for what a rational one would be."""
        game = corpus_games["matching_pennies"]
        family = ConditioningFamily(game, 0)
        ((ev, _),) = family.events
        first, second = sorted(ev)
        cps = ExplicitCPS(family, {ev: ({first: 1, second: 3}, 4)})
        assert cps.table == {ev: {first: Fraction(1, 4),
                                  second: Fraction(3, 4)}}
        assert cps.layers(ev, [first, second]) == [([1, 3], 4)]
        assert cps.support(ev) == ev
        for layer, message in ((({first: 0, second: 0}, 0), "sum to 1"),
                               (({first: 1, second: 2}, 4), "sum to 1"),
                               (({first: -1, second: 5}, 4), "negative"),
                               (({first: 1, second: 3, 99: 1}, 5),
                                "outside")):
            with pytest.raises(BeliefError, match=message):
                ExplicitCPS(family, {ev: layer})


class TestStandardApproximation:
    def test_cautious_iff_support_contained(self, corpus_games):
        rng = random.Random(41)
        game = corpus_games["bos_outside_option"]
        for i in range(2):
            family = ConditioningFamily(game, i)
            cos = list(range(len(family.form.co_profiles[i])))
            for _ in range(20):
                support = rng.sample(cos, rng.randrange(1, len(cos) + 1))
                weights = [Fraction(rng.randrange(1, 4)) for _ in support]
                total = sum(weights)
                measure = {c: w / total for c, w in zip(support, weights)}
                try:
                    cps = ExplicitCPS(family,
                                      condition_ladder(family, [measure]))
                except BeliefError:
                    continue  # some event got zero mass: not a CPS this way
                for h in game.nonterminal:
                    ev = family.event_for_history(h)
                    for _ in range(6):
                        e_ids = frozenset(rng.sample(
                            cos, rng.randrange(1, len(cos) + 1)))
                        inter = e_ids & ev
                        if not inter:
                            continue
                        singles_positive = all(
                            singleton_mass(cps, ev, c) > 0 for c in inter)
                        if singles_positive:
                            expected = cps.support(ev) <= e_ids
                            assert cautiously_believes(belief_or(cps), h,
                                                       e_ids) == expected


def belief_or(b):
    return b


def test_prior_must_be_exact(corpus_games):
    game = corpus_games["matching_pennies"]
    D = 2
    e = Hyperreal.epsilon(D)
    with pytest.raises(BeliefError):
        PriorCNPS.from_profile_map(game, 0, {
            co_profile(game, 0, "h"): Hyperreal.one(D),
            co_profile(game, 0, "t"): e,  # sums to 1 + e
        })
    with pytest.raises(BeliefError):
        PriorCNPS.from_profile_map(game, 0, {
            co_profile(game, 0, "h"): Hyperreal.one(D),
            co_profile(game, 0, "t"): Hyperreal.zero(D),  # not full support
        })


def prior_checks_by_sums(prior):
    """The prior's total, or the error PriorCNPS must raise, found by
    adding the masses as Hyperreals and comparing each with 0."""
    total = None
    for mass in prior.values():
        if not isinstance(mass, Hyperreal):
            raise BeliefError("prior values must be Hyperreal")
        total = mass if total is None else total + mass
    if not all(mass > 0 for mass in prior.values()):
        raise BeliefError("prior must have full support")
    if total != 1:
        raise BeliefError("prior masses must sum to 1, got %s" % total)
    return total


def outcome(build, prior):
    try:
        return build(prior)
    except (BeliefError, ValueError) as exc:
        return type(exc), str(exc)


def test_prior_checks_match_hyperreal_sums(corpus_games):
    """Random priors, most summing to 1, with masses deeper than degree
    0, negative or zero leading coefficients, mixed denominators, a
    stray degree bound or a non-Hyperreal value: PriorCNPS keeps the
    total and raises the error that Hyperreal addition and comparison
    give."""
    game = corpus_games["centipede_3"]
    family = ConditioningFamily(game, 0)
    k = len(family.form.co_profiles[0])
    rng = random.Random(2024)
    seen = Counter()

    def coefficient():
        return Fraction(rng.randrange(-1, 6), rng.choice([1, 2, 3, 6, 7]))

    for _ in range(400):
        D = rng.randrange(0, 4)
        coeffs = [[coefficient() if rng.random() < 0.7 else Fraction(0)
                   for _ in range(rng.randrange(0, D + 2))]
                  for _ in range(k)]
        width = max(D + 1, max(map(len, coeffs)))
        if rng.random() < 0.8:
            last = [Fraction(d == 0) - sum((cs[d] for cs in coeffs[:-1]
                                            if d < len(cs)), Fraction(0))
                    for d in range(width)]
            coeffs[-1] = last
        prior = {coid: Hyperreal(cs, max(D, len(cs) - 1))
                 for coid, cs in enumerate(coeffs)}
        stray = rng.randrange(k)
        if rng.random() < 0.05:
            prior[stray] = Fraction(1, k)
        elif rng.random() < 0.05:
            prior[stray] = Hyperreal(coeffs[stray], width + 1)
        want = outcome(prior_checks_by_sums, prior)
        got = outcome(lambda p: PriorCNPS(family, p).total, prior)
        assert got == want
        if isinstance(got, Hyperreal):
            belief = PriorCNPS(family, prior)
            assert belief.full_support and belief.sums_to_one
            assert belief.degree_bound == prior[0].degree_bound
            seen["valid"] += 1
        else:
            seen[got[1].split(",")[0].split(":")[0]] += 1
    assert seen["valid"] >= 20 and len(seen) == 5, seen
