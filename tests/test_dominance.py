import itertools
import math
import random
import re
from operator import mul
from unittest import mock

import pytest
from fractions import Fraction

from prudens import dominance, dsl, lp
from prudens.dominance import (MixedStrategy, justifying_full_support_measure,
                               weakly_dominated)
from prudens.game import Game, GameError, ProductRestriction
from prudens.hyperreal import scaled
from prudens.procedures import iterated_admissibility

from conftest import small_games
import oracles
from oracles import (brute_iterated_admissibility,
                     fraction_best_replies_to_measure, fraction_simplex,
                     full_justifier_problem, full_slack_problem,
                     rational, tree_walk_payoff, vertex_weakly_dominated,
                     with_slacks)


def by_name(game, i, name):
    match = [s for s in game.strategies(i) if s.name() == name]
    assert match, name
    return match[0]


class TestWeaklyDominated:
    def test_pure_domination(self, corpus_games):
        game = corpus_games["weak_dom_2x2"]
        Q = game.full_restriction()
        bottom = by_name(game, 0, "B")
        mixture = weakly_dominated(game, Q, 0, bottom)
        assert mixture is not None
        assert mixture.weights == {by_name(game, 0, "T"): Fraction(1)}

    def test_matching_pennies_admissible(self, corpus_games):
        game = corpus_games["matching_pennies"]
        Q = game.full_restriction()
        for i in range(2):
            for s in game.strategies(i):
                assert weakly_dominated(game, Q, i, s) is None
                assert not vertex_weakly_dominated(game, Q, i, s)

    def test_strict_mixture_needed(self, corpus_games):
        game = corpus_games["strict_mix_3x2"]
        Q = game.full_restriction()
        bot = by_name(game, 0, "bot")
        mixture = weakly_dominated(game, Q, 0, bot)
        assert mixture is not None
        assert len(mixture.weights) == 2  # no pure strategy works
        assert vertex_weakly_dominated(game, Q, 0, bot)
        for other in ("top", "mid"):
            assert weakly_dominated(game, Q, 0, by_name(game, 0, other)) \
                is None

    def test_differential_against_vertex_oracle(self):
        for g in small_games(25):
            Q = g.full_restriction()
            for i in range(len(g.players)):
                if len(g.strategies(i)) > 4:
                    continue
                for s in g.strategies(i):
                    got = weakly_dominated(g, Q, i, s)
                    assert (got is not None) == \
                        vertex_weakly_dominated(g, Q, i, s)

    def test_differential_on_trace_restrictions(self):
        for g in small_games(12, start=60):
            trace = iterated_admissibility(g)
            for Q in trace.steps:
                for i in range(len(g.players)):
                    if len(Q.part(i)) > 4 or Q.is_empty():
                        continue
                    for s in Q.part(i):
                        got = weakly_dominated(g, Q, i, s)
                        assert (got is not None) == \
                            vertex_weakly_dominated(g, Q, i, s)


class TestForeignArguments:
    """A strategy of another player, or a player index the game lacks, is
    a GameError naming both, not a bare KeyError or IndexError."""

    @pytest.mark.parametrize("query", [weakly_dominated,
                                       justifying_full_support_measure])
    def test_other_players_strategy(self, corpus_games, query):
        game = corpus_games["centipede_3"]
        foreign = game.strategies(1)[0]
        with pytest.raises(GameError, match="%s is not a strategy of "
                           "player %s" % (re.escape(repr(foreign)),
                                          game.players[0])):
            query(game, game.full_restriction(), 0, foreign)

    def test_player_index_out_of_range(self, corpus_games):
        game = corpus_games["centipede_3"]
        s = game.strategies(0)[0]
        for i in (7, -1):
            with pytest.raises(GameError, match="no player %d for strategy "
                               "%s" % (i, re.escape(repr(s)))):
                weakly_dominated(game, game.full_restriction(), i, s)

    @pytest.mark.parametrize("query", [weakly_dominated,
                                       justifying_full_support_measure])
    def test_restriction_with_too_few_parts(self, corpus_games, query):
        game = corpus_games["weak_dom_2x2"]
        Q = ProductRestriction([game.strategies(0)])
        with pytest.raises(GameError, match="one part per player: got 1 "
                           "for 2 players"):
            query(game, Q, 0, game.strategies(0)[0])

    @pytest.mark.parametrize("query", [weakly_dominated,
                                       justifying_full_support_measure])
    def test_restriction_with_too_many_parts(self, corpus_games, query):
        game = corpus_games["weak_dom_2x2"]
        parts = [game.strategies(0), game.strategies(1), game.strategies(1)]
        with pytest.raises(GameError, match="one part per player: got 3 "
                           "for 2 players"):
            query(game, ProductRestriction(parts), 0, game.strategies(0)[0])

    def test_restriction_of_another_game(self, corpus_games):
        game = corpus_games["centipede_3"]
        other = corpus_games["matching_pennies"]
        with pytest.raises(GameError, match="is not a strategy of player"):
            game.strategic_form().ids_from_restriction(
                other.full_restriction())


class TestOneColumnsPerQuery:
    """Each public query builds one Columns and hands it to both its LP
    question and its substitution check."""

    @pytest.mark.parametrize("query,question,check", [
        (weakly_dominated, "dominating_mixture_ids", "mixture_dominates_ids"),
        (justifying_full_support_measure, "justifier_ids",
         "measure_justifies_ids")])
    def test_one_columns_per_query(self, corpus_games, monkeypatch, query,
                                   question, check):
        built, handed = [], []

        class Counted(dominance.Columns):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        def handing(real):
            def wrapper(*args):
                handed.append(args[-1])
                return real(*args)
            return wrapper

        for name in (question, check):
            monkeypatch.setattr(dominance, name,
                                handing(getattr(dominance, name)))
        monkeypatch.setattr(dominance, "Columns", Counted)
        game = corpus_games["strict_mix_3x2"]
        answered = 0
        for s in game.strategies(0):
            del built[:], handed[:]
            answer = query(game, game.full_restriction(), 0, s)
            assert len(built) == 1
            assert handed == built * (1 if answer is None else 2)
            answered += answer is not None
        assert 0 < answered < len(game.strategies(0))


class TestCertificateIsAMixtureOnQ:
    """``mixture_dominates_ids`` accepts only a mixture on Q_i: positive
    integer weights, on Q_i, summing to the denominator.  Each malformed
    certificate below would otherwise pass the payoff comparison."""

    @staticmethod
    def check(mixture):
        text = ("players Row Col\nmatrix Row: a b c Col: L R\n"
                "a: 1,0 1,0\nb: 0,0 1,0\nc: 2,0 2,0\n")
        form = dsl.elaborate(dsl.parse(text)).strategic_form()
        q_sets = [frozenset({0, 1}), frozenset({0, 1})]
        cols = dominance.Columns(form, 0, q_sets)
        return dominance.mixture_dominates_ids(form, q_sets, 0, 1, mixture,
                                               cols)

    def test_mixture_on_q_dominates(self):
        assert self.check(({0: 1}, 1))
        assert self.check(({0: 3}, 3))

    @pytest.mark.parametrize("mixture", [
        ({2: 1}, 1),           # c dominates b, but c is not in Q_i
        ({0: 2}, 1),           # weights sum to twice the denominator
        ({0: 1, 1: 0}, 1),     # a zero weight
        ({0: 2, 1: -1}, 1),    # 2a - b dominates b and sums to 1
    ])
    def test_malformed_certificate_fails(self, mixture):
        assert not self.check(mixture)


class TestJustifier:
    def test_dominant_strategy_gets_full_support_measure(self, corpus_games):
        game = corpus_games["prisoners_dilemma"]
        Q = game.full_restriction()
        defect = by_name(game, 0, "D")
        nu = justifying_full_support_measure(game, Q, 0, defect)
        assert nu is not None
        assert all(p > 0 for p in nu.values())
        assert sum(nu.values()) == 1

    def test_dominated_strategy_has_no_justifier(self, corpus_games):
        game = corpus_games["weak_dom_2x2"]
        Q = game.full_restriction()
        assert justifying_full_support_measure(
            game, Q, 0, by_name(game, 0, "B")) is None

    def test_matching_pennies_heads(self, corpus_games):
        game = corpus_games["matching_pennies"]
        Q = game.full_restriction()
        heads = by_name(game, 0, "H")
        nu = justifying_full_support_measure(game, Q, 0, heads)
        assert nu is not None
        # substitution: H must attain the maximum against nu
        values = {}
        for s in game.strategies(0):
            values[s] = sum(
                (p * tree_walk_payoff(game, (s,) + co, 0)
                 for co, p in nu.items()), Fraction(0))
        assert values[heads] == max(values.values())

    def test_lemma_equivalence_on_trace_restrictions(self):
        instances = 0
        for g in small_games(30, start=100):
            trace = iterated_admissibility(g)
            for Q in trace.steps:
                for i in range(len(g.players)):
                    for s in Q.part(i):
                        dominated = weakly_dominated(g, Q, i, s) is not None
                        justified = justifying_full_support_measure(
                            g, Q, i, s) is not None
                        assert dominated == (not justified)
                        instances += 1
        assert instances > 300


def centipede_text(legs):
    """An alternating centipede with an even number of legs: the mover at
    leg t continues (C) or stops (S), stopping pays the mover t + 2 and
    the other player t, and the last mover prefers stopping."""
    lines = ["players P1 P2"]
    history = ""
    for t in range(legs):
        mover = t % 2
        acts = ["w", "w"]
        acts[mover] = "C S"
        lines.append("at %s actions P1: %s P2: %s" % (history or "/", *acts))
        stop = ["w", "w"]
        stop[mover] = "S"
        pay = [t, t]
        pay[mover] = t + 2
        lines.append("payoff %s/(%s,%s) = %d, %d" % (history, *stop, *pay))
        go = ["w", "w"]
        go[mover] = "C"
        history += "/(%s,%s)" % tuple(go)
    lines.append("payoff %s = %d, %d" % (history, legs + 2, legs))
    return "\n".join(lines) + "\n"


def bimatrix_games(count, k=5):
    """Static k x k two-player games, both payoffs of each cell drawn
    uniformly from -3..5, row by row, with seeds 0..count-1: games whose
    justifier questions sometimes need a second round of rival rows."""
    games = []
    for seed in range(count):
        rng = random.Random(seed)
        rows = ["r%d" % n for n in range(k)]
        cols = ["c%d" % n for n in range(k)]
        text = "players P1 P2\nmatrix P1: %s P2: %s\n" % (" ".join(rows),
                                                          " ".join(cols))
        for row in rows:
            text += "%s: %s\n" % (row, " ".join(
                "%d,%d" % (rng.randint(-3, 5), rng.randint(-3, 5))
                for _ in cols))
        games.append(dsl.elaborate(dsl.parse(text)))
    return games


def lp_games(corpus_games):
    """The corpus, 40 generated games of up to three players and the
    six-leg centipede."""
    games = [corpus_games[name] for name in sorted(corpus_games)]
    games += small_games(40, max_players=3, max_strategies=6,
                         max_histories=8)
    games.append(dsl.elaborate(dsl.parse(centipede_text(6))))
    return games


class TestTwinSharing:
    """One Columns poses each LP once per twin class of own payoff rows
    and hands the answer to every member.  At every
    level of the elimination, and for every own strategy (eliminated ones
    too), the answer shared through the elimination's Columns must equal
    the member's own, unshared one."""

    @staticmethod
    def check(game, seen):
        form = game.strategic_form()
        steps, _, columns = dominance.iterated_elimination_ids(form)
        for level, step in enumerate(steps[:-1]):
            q_sets = [frozenset(part) for part in step]
            for i in range(form.n):
                shared = columns[level][i]
                classes = {}
                for sid in range(form.counts[i]):
                    classes.setdefault(shared.twin[sid], []).append(sid)
                twins = [m for m in classes.values() if len(m) > 1]
                assert len({tuple(row) for row in shared.value}) == \
                    len(classes)
                for members in twins:
                    assert all(shared.value[sid] == shared.value[members[0]]
                               for sid in members)
                    seen["justifier"] += 1
                    for sid in members:
                        assert dominance.justifier_ids(
                            form, q_sets, i, sid, shared) == \
                            dominance.justifier_ids(
                                form, q_sets, i, sid,
                                dominance.Columns(form, i, q_sets))
                    alive = [sid for sid in members if sid in q_sets[i]]
                    seen["mixture"] += len(alive) > 1
                    for sid in alive:
                        assert dominance.dominating_mixture_ids(
                            form, q_sets, i, sid, shared) == \
                            dominance.dominating_mixture_ids(
                                form, q_sets, i, sid,
                                dominance.Columns(form, i, q_sets))
                # the elimination's own keep tests store answers too, so
                # require only the classes asked about here, each once
                # under its least member
                assert {members[0] for members in twins} \
                    <= set(shared.answers)
                assert all(shared.twin[key] == key for key in shared.answers)

    def test_shared_answers_equal_unshared_ones(self, corpus_games):
        seen = {"justifier": 0, "mixture": 0}
        for game in lp_games(corpus_games):
            self.check(game, seen)
        assert seen["justifier"] >= 200 and seen["mixture"] >= 100, seen


def all_rivals(cols, q_i, sid):
    """Every distinct rival of sid in Q_i: each own row of Q_i but sid's,
    named by its least member in Q_i, in id order."""
    named = {}
    for r in sorted(q_i):
        named.setdefault(tuple(cols.value[r]), r)
    return [r for row, r in named.items() if row != tuple(cols.value[sid])]


def dual_measure(result, nposed):
    """The column masses a justifier dual's answer gives, or None when
    the dual is unbounded: 1 + w_g over their sum, where w_g is the
    reduced cost of the slack z_g, the column after the ``nposed`` rival
    ones."""
    if result.status == "unbounded":
        return None
    ones = [1 + Fraction(w) for w in result.reduced[nposed:]]
    return [p / sum(ones) for p in ones]


def least_share(result, ngroups):
    """The optimum 1/(G + sum(w)) of the max-min-mass LP that a bounded
    justifier dual's value sum(w) gives (docs/exactness.md, "Justifier
    LPs in dual form")."""
    return 1 / (ngroups + Fraction(result.value))


def posed_justifiers(game):
    """(q_sets, cols, i, sid, problem, measure) for every own strategy of
    every player at every level of the elimination, eliminated ones
    included: the justifier LP over every distinct rival in Q_i, whether
    or not the simplex is asked to solve it, and the measure the
    unshared route returns."""
    form = game.strategic_form()
    steps, _, _ = dominance.iterated_elimination_ids(form)
    out = []
    for step in steps[:-1]:
        q_sets = [frozenset(part) for part in step]
        for i in range(form.n):
            cols = dominance.Columns(form, i, q_sets)
            for sid in range(form.counts[i]):
                problem = dominance.justifier_problem(
                    cols, sid, all_rivals(cols, q_sets[i], sid))
                measure = dominance.justifier_ids(
                    form, q_sets, i, sid, dominance.Columns(form, i, q_sets))
                out.append((q_sets, cols, i, sid, problem, measure))
    return form, out


class TestDeduplicatedJustifier:
    """The justifier dual over every distinct rival keeps one rival
    column per distinct own row of Q_i other than sid's.  That drops
    constraints of the max-min-mass LP that restate another one or read
    0 >= 0, and, on the elimination's sets, those of strategies outside
    Q_i, which bind no measure with full support there.  So its optimum
    and None decision are those of the LP with one row per rival of all
    of S_i (``oracles.full_justifier_problem``): unbounded exactly where
    that LP has no positive optimum, and otherwise of value sum(w) with
    1/(G + sum(w)) that LP's optimum."""

    def test_same_optimum_as_one_row_per_rival(self, corpus_games):
        seen = {"lps": 0, "dropped": 0, "justified": 0, "unbounded": 0}
        for game in lp_games(corpus_games):
            form, posed = posed_justifiers(game)
            for q_sets, cols, i, sid, problem, measure in posed:
                if cols.twin[sid] != sid:
                    continue  # posed by its representative (next test)
                ngroups = len(cols.value[sid])
                nrivals = len(problem.objective)
                assert len(problem.rows) == ngroups
                assert nrivals == len(all_rivals(cols, q_sets[i], sid))
                rivals = [tuple(row[j] for row in problem.rows)
                          for j in range(nrivals)]
                assert all(any(diff) for diff in rivals)
                assert len(set(rivals)) == len(rivals)
                full = full_justifier_problem(cols.value, sid)
                ours = fraction_simplex(with_slacks(problem))
                theirs = fraction_simplex(full)
                none = theirs.status == "infeasible" or theirs.value <= 0
                assert (ours.status == "unbounded") == none
                if not none:
                    assert ours.status == theirs.status == "optimal"
                    assert least_share(ours, ngroups) == theirs.value
                    assert min(dual_measure(ours, nrivals)) == theirs.value
                assert (measure is None) == none
                seen["lps"] += 1
                seen["unbounded"] += none
                seen["dropped"] += len(full.rows) - 1 > nrivals
                if measure is not None:
                    seen["justified"] += 1
                    assert dominance.measure_justifies_ids(
                        form, q_sets, i, sid, measure, cols)
        assert seen["lps"] >= 600 and seen["dropped"] >= 300, seen
        assert seen["justified"] >= 300 and seen["unbounded"] >= 50, seen

    def test_twins_pose_the_identical_lp(self, corpus_games):
        members = 0
        for game in lp_games(corpus_games):
            _, posed = posed_justifiers(game)
            rep = {}
            for _, cols, _, sid, problem, _ in posed:
                key = (id(cols), cols.twin[sid])
                if key in rep:
                    assert problem == rep[key]
                    members += 1
                else:
                    rep[key] = problem
        assert members >= 300, members

    def test_pinned_instance_differs_in_vertex_not_value(self):
        """Own rows 0, 3 and 4 are twins and 1, 2 are twins.  For sid 3
        one row per rival poses five rival rows, two of them zero and one
        a repeat; the deduplicated LP poses two, and rival-row generation
        only f's, which b does not beat at its optimum.  All have optimum
        2/11 but Bland's rule stops at different vertices, masses
        (2,2,2,3,2)/11 with every row and (3,2,2,2,2)/11 from the dual
        without the repeats, with or without b's column (w = (1/2, 0, 0,
        0, 0)), so the change is not pivot-identical.  Each vertex is a
        justifier by substitution."""
        rows = ["1 -1 -1/2 1 0", "-1 0 -1/2 0 0", "-1 0 -1/2 0 0",
                "1 -1 -1/2 1 0", "1 -1 -1/2 1 0", "0 1 0 0 0"]
        text = "players Row Col\nmatrix Row: a b c d e f Col: v w x y z\n"
        for name, row in zip("abcdef", rows):
            text += "%s: %s\n" % (name, " ".join(
                "%s,0" % v for v in row.split()))
        form = dsl.elaborate(dsl.parse(text)).strategic_form()
        q_sets = [frozenset(range(count)) for count in form.counts]
        cols = dominance.Columns(form, 0, q_sets)
        assert cols.groups == [[0], [1], [2], [3], [4]]
        assert cols.den == 2
        assert cols.value[3] == [2, -2, -1, 2, 0]
        true = [[Fraction(u, cols.den) for u in row] for row in cols.value]
        assert true[3] == [1, -1, Fraction(-1, 2), 1, 0]

        with mock.patch.object(dominance, "justifier_problem",
                               wraps=dominance.justifier_problem) as build:
            measure = dominance.justifier_ids(form, q_sets, 0, 3, cols)
        assert [call.args[2] for call in build.call_args_list] == [[5]]
        assert measure == ({0: 3, 1: 2, 2: 2, 3: 2, 4: 2}, 11)
        for posed in ([5], [1, 5]):
            dual = rational(lp.solve(dominance.justifier_problem(cols, 3,
                                                                 posed)))
            assert dual.reduced[len(posed):] == [Fraction(1, 2), 0, 0, 0, 0]
            assert dual_measure(dual, len(posed)) == \
                [Fraction(n, 11) for n in (3, 2, 2, 2, 2)]
            assert least_share(dual, 5) == Fraction(2, 11)
        full = fraction_simplex(full_justifier_problem(true, 3))
        assert full.value == Fraction(2, 11)
        assert Fraction(min(measure[0].values()), measure[1]) == full.value
        ints, den = scaled([full.x[0] + full.x[1 + g] for g in range(5)])
        vertex = dict(enumerate(ints)), den
        assert vertex == ({0: 2, 1: 2, 2: 2, 3: 3, 4: 2}, 11)
        for nu in (measure, vertex):
            assert dominance.measure_justifies_ids(form, q_sets, 0, 3, nu,
                                                   cols)


def spread(cols, nu):
    """Masses per distinct column spread uniformly over its co-profiles."""
    return {coid: nu[g] / len(members)
            for g, members in enumerate(cols.groups) for coid in members}


class TestUniformMeasure:
    """Questions settled without a tableau by the measure uniform over the
    distinct columns, whose payoffs are the row sums over G."""

    def test_row_sums(self, corpus_games):
        for game in lp_games(corpus_games)[:10]:
            form = game.strategic_form()
            for i in range(form.n):
                cols = dominance.Columns(
                    form, i, [frozenset(range(c)) for c in form.counts])
                assert cols.row_sum == [sum(row, Fraction(0))
                                        for row in cols.value]

    def test_shortcut_justifier_is_the_lp_optimum(self, corpus_games):
        """Where sid's row sum is the largest of all own rows, no tableau
        is built, and the one-row-per-rival LP, solved by the reference
        simplex, has the same measure as its optimum.  Elsewhere the
        simplex is asked once."""
        seen = {"shortcut": 0, "lp": 0}
        for game in lp_games(corpus_games):
            form, posed = posed_justifiers(game)
            for q_sets, cols, i, sid, _, _ in posed:
                fresh = dominance.Columns(form, i, q_sets)
                with mock.patch.object(lp, "solve", wraps=lp.solve) as solve:
                    measure = dominance.justifier_ids(form, q_sets, i, sid,
                                                      fresh)
                if cols.row_sum[sid] != max(cols.row_sum):
                    assert solve.call_count == 1
                    seen["lp"] += 1
                    continue
                assert solve.call_count == 0
                full = fraction_simplex(full_justifier_problem(cols.value,
                                                               sid))
                ngroups = len(cols.groups)
                assert full.status == "optimal"
                assert full.value == Fraction(1, ngroups)
                on, den = measure
                assert {c: Fraction(n, den) for c, n in on.items()} == \
                    spread(cols, [full.x[0] + full.x[1 + g]
                                  for g in range(ngroups)])
                assert dominance.measure_justifies_ids(form, q_sets, i, sid,
                                                       measure, cols)
                seen["shortcut"] += 1
        assert seen["shortcut"] >= 400 and seen["lp"] >= 500, seen


def dot(row, masses):
    return sum((u * p for u, p in zip(row, masses)), Fraction(0))


class TestRivalRowGeneration:
    """A justifier question that the uniform measure does not settle is
    solved over a growing set of distinct rival rows (docs/exactness.md,
    "Justifier LPs by rival-row generation"): first the rivals that beat
    sid against the uniform measure, then, round by round, every unposed
    rival that beats sid against the last relaxation's optimum, until
    none does or a relaxation has no positive optimum.  The rivals are
    the distinct own rows of Q_i; a relaxation with no positive optimum
    has an unbounded dual, whose ray weighs rivals into a mixture that
    dominates sid."""

    @staticmethod
    def rounds(form, q_sets, i, sid):
        """(cols, rival lists posed in order, answer, simplex calls) for
        sid's justifier question, asked of a fresh Columns."""
        cols = dominance.Columns(form, i, q_sets)
        with mock.patch.object(dominance, "justifier_problem",
                               wraps=dominance.justifier_problem) as build, \
                mock.patch.object(lp, "solve", wraps=lp.solve) as solve:
            measure = dominance.justifier_ids(form, q_sets, i, sid, cols)
        return (cols, [call.args[2] for call in build.call_args_list],
                measure, solve.call_count)

    def check(self, form, q_sets, i, sid, seen):
        cols, rounds, measure, solves = self.rounds(form, q_sets, i, sid)
        assert solves == len(rounds)
        u = [[Fraction(v, cols.den) for v in row] for row in cols.value]
        rivals = all_rivals(cols, q_sets[i], sid)
        larger = [r for r in rivals if cols.row_sum[r] > cols.row_sum[sid]]
        assert rounds[:1] == ([larger] if larger else [])

        def beaten(nu, posed):
            return [r for r in rivals
                    if r not in posed and dot(u[r], nu) > dot(u[sid], nu)]

        nu = [Fraction(1, len(cols.groups))] * len(cols.groups)
        posed = []
        settled = None
        for k, step in enumerate(rounds):
            added = beaten(nu, posed)
            assert added and step == sorted(posed + added)
            posed = step
            unscaled, _ = rational_problem(form, i, q_sets, sid, posed)
            assert len(unscaled.rows) == len(nu)
            assert len(unscaled.objective) == len(posed)
            result = fraction_simplex(with_slacks(unscaled))
            if result.status == "unbounded":
                assert k == len(rounds) - 1
                settled = "relaxation"
                break
            nu = dual_measure(result, len(posed))
        full = fraction_simplex(full_justifier_problem(u, sid))
        seen["questions"] += 1
        seen["rounds"] += len(rounds) > 1
        if measure is None:
            assert settled
            assert full.status == "infeasible" or full.value <= 0
            # the ray's mixture is on the last relaxation's rivals
            weights, den = cols.answer(sid)[1]
            assert set(weights) <= set(posed)
            assert dominance.mixture_dominates_ids(
                form, q_sets, i, sid, (weights, den), cols)
            seen["none"] += 1
            return
        assert not settled
        assert posed == rivals or not beaten(nu, posed)
        on, den = measure
        masses = {c: Fraction(n, den) for c, n in on.items()}
        column = [sum(masses[c] for c in members) for members in cols.groups]
        assert column == nu
        assert full.status == "optimal" and min(column) == full.value > 0
        assert sid in fraction_best_replies_to_measure(form, i, masses)
        seen["justified"] += 1

    def test_rounds_on_every_question(self, corpus_games):
        seen = {"questions": 0, "rounds": 0, "none": 0, "justified": 0}
        for game in lp_games(corpus_games) + bimatrix_games(6):
            form = game.strategic_form()
            steps, _, _ = dominance.iterated_elimination_ids(form)
            for step in steps[:-1]:
                q_sets = [frozenset(part) for part in step]
                for i in range(form.n):
                    for sid in range(form.counts[i]):
                        self.check(form, q_sets, i, sid, seen)
        assert seen["questions"] >= 1200 and seen["rounds"] >= 8, seen
        assert seen["none"] >= 400 and seen["justified"] >= 600, seen

    def test_pinned_second_round(self):
        """Own rows a = (0, 3, 4), b = (2, 2, 0) and c = (1, 3, 0), sid c.
        Against the uniform measure only a beats c (row sums 7, 4, 4), so
        round one poses a's column, with the unique optimum (4, 1, 1)/6.
        There b earns 5/3 and c 7/6, so round two poses a and b and
        returns (4, 4, 1)/9, against which a, b and c all earn 16/9.  Its
        least mass 1/9 is the optimum of the LP over every rival."""
        text = ("players Row Col\nmatrix Row: a b c Col: L M R\n"
                "a: 0,0 3,0 4,0\nb: 2,0 2,0 0,0\nc: 1,0 3,0 0,0\n")
        form = dsl.elaborate(dsl.parse(text)).strategic_form()
        q_sets = [frozenset(range(count)) for count in form.counts]
        cols, rounds, measure, solves = self.rounds(form, q_sets, 0, 2)
        assert rounds == [[0], [0, 1]] and solves == 2
        first = fraction_simplex(with_slacks(
            dominance.justifier_problem(cols, 2, [0])))
        assert dual_measure(first, 1) == \
            [Fraction(4, 6), Fraction(1, 6), Fraction(1, 6)]
        assert measure == ({0: 4, 1: 4, 2: 1}, 9)
        assert [dot(row, [4, 4, 1]) for row in cols.value] == [16, 16, 16]
        full = fraction_simplex(full_justifier_problem(cols.value, 2))
        assert full.value == Fraction(1, 9)
        assert dominance.measure_justifies_ids(form, q_sets, 0, 2, measure,
                                               cols)

    def test_pinned_second_round_without_justifier(self):
        """Own rows a = (3, 0), b = (2, 1) and c = (1, 4), sid b.  Round
        one poses c alone (row sums 3, 3, 5) and returns (3, 1)/4, where
        a earns 9/4 and b only 7/4.  Round two poses a and c, and its
        dual is unbounded: b matches c only with mass >= 3/4 on L, and a
        only with mass <= 1/2.  So b has no justifier, as the LP over
        every rival says, and the first round's measure is not
        returned.  The ray (1, 1) of round two weighs a and c equally, and
        (a + c) / 2 = (2, 2) dominates b."""
        text = ("players Row Col\nmatrix Row: a b c Col: L R\n"
                "a: 3,0 0,0\nb: 2,0 1,0\nc: 1,0 4,0\n")
        form = dsl.elaborate(dsl.parse(text)).strategic_form()
        q_sets = [frozenset(range(count)) for count in form.counts]
        cols, rounds, measure, solves = self.rounds(form, q_sets, 0, 1)
        assert rounds == [[2], [0, 2]] and solves == 2
        assert measure is None
        assert cols.answer(1) == (None, ({0: 1, 2: 1}, 2))
        first = fraction_simplex(with_slacks(
            dominance.justifier_problem(cols, 1, [2])))
        nu = dual_measure(first, 1)
        assert nu == [Fraction(3, 4), Fraction(1, 4)]
        assert dot(cols.value[0], nu) > dot(cols.value[1], nu)
        assert fraction_simplex(with_slacks(dominance.justifier_problem(
            cols, 1, [0, 2]))).status == "unbounded"
        assert fraction_simplex(full_justifier_problem(
            cols.value, 1)).status == "infeasible"


class TestDualForm:
    """Pinned questions of the justifier LP in dual form
    (docs/exactness.md, "Justifier LPs in dual form"): an unbounded dual
    is None, with its ray's mixture, and a bounded one's measure is read
    off the reduced costs of its slack columns."""

    def test_pinned_unbounded_dual(self):
        """Own rows a = (1, 0), b = (0, 1) and c = (2, 2), sid a.  Round
        one poses c alone (row sums 1, 1, 4): maximize 3 y subject to
        -y <= 1 and -2 y <= 1.  y enters and no row limits it, so the
        dual is unbounded with no pivot, and a has no justifier, as the
        LP over every rival, which is infeasible, says.  The ray is
        y = 1: c alone dominates a."""
        text = ("players Row Col\nmatrix Row: a b c Col: L R\n"
                "a: 1,0 0,0\nb: 0,0 1,0\nc: 2,0 2,0\n")
        form = dsl.elaborate(dsl.parse(text)).strategic_form()
        q_sets = [frozenset(range(count)) for count in form.counts]
        cols, rounds, measure, solves = TestRivalRowGeneration.rounds(
            form, q_sets, 0, 0)
        assert rounds == [[2]] and solves == 1 and measure is None
        problem = dominance.justifier_problem(cols, 0, [2])
        assert problem == lp.LPProblem([3], [[-1], [-2]], [1, 1])
        with mock.patch.object(lp, "_pivot", wraps=lp._pivot) as pivot:
            result = lp.solve(problem)
        assert (result.status, result.ray) == ("unbounded", [1])
        assert pivot.call_count == 0
        assert cols.answer(0) == (None, ({2: 1}, 1))
        assert fraction_simplex(with_slacks(problem)).status == "unbounded"
        assert fraction_simplex(full_justifier_problem(
            cols.value, 0)).status == "infeasible"

    def test_pinned_measure_differs_from_the_primal_vertex(self):
        """Own rows a = (-1, 0, 1), b = (0, 0, -1) and c = (-1, -1, 3),
        sid b.  Round one poses a and c (row sums 0, -1, 1), every
        rival.  The dual's optimum y = (0, 1), with slacks z = (0, 0, 5),
        has value sum(w) = 2 and reduced costs w = (2, 0, 0) on the
        slacks, so the measure is
        (3, 1, 1)/5, with least share 1/(3 + 2) = 1/5.  The max-min-mass
        LP over the same rivals, which the primal form posed, stops at
        (2, 2, 1)/5: the same optimum 1/5 at another vertex.  Both are
        justifiers by substitution: b ties c against each, and beats a
        against the dual's."""
        text = ("players Row Col\nmatrix Row: a b c Col: L M R\n"
                "a: -1,0 0,0 1,0\nb: 0,0 0,0 -1,0\nc: -1,0 -1,0 3,0\n")
        form = dsl.elaborate(dsl.parse(text)).strategic_form()
        q_sets = [frozenset(range(count)) for count in form.counts]
        cols, rounds, measure, solves = TestRivalRowGeneration.rounds(
            form, q_sets, 0, 1)
        assert rounds == [[0, 2]] and solves == 1
        assert measure == ({0: 3, 1: 1, 2: 1}, 5)
        dual = lp.solve(dominance.justifier_problem(cols, 1, [0, 2]))
        assert (dual.x, dual.value, dual.den) == ([0, 1], 2, 1)
        assert dual.reduced[2:] == [2, 0, 0]
        assert least_share(dual, 3) == Fraction(1, 5)
        full = fraction_simplex(full_justifier_problem(cols.value, 1))
        assert full.value == Fraction(1, 5)
        primal = [full.x[0] + full.x[1 + g] for g in range(3)]
        assert primal == [Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)]
        for nu in (measure, ({0: 2, 1: 2, 2: 1}, 5)):
            assert dominance.measure_justifies_ids(form, q_sets, 0, 1, nu,
                                                   cols)


def elimination_questions(game):
    """(form, q_sets, i, sid) for every keep question the elimination
    asks: every surviving own strategy at every level it runs."""
    form = game.strategic_form()
    steps, _, _ = dominance.iterated_elimination_ids(form)
    for step in steps[:-1]:
        q_sets = [frozenset(part) for part in step]
        for i in range(form.n):
            for sid in sorted(q_sets[i]):
                yield form, q_sets, i, sid


class TestKeepByJustifier:
    """The elimination keeps a strategy that has a justifier and excludes
    one that has none by the mixture its LP's unbounded dual gives.  A
    justifier has support exactly Q_{-i} and sid is a best reply to it,
    so no mixture on Q_i dominates sid (the easy half of Pearce's
    lemma); a ray is a dominating mixture by substitution (the other
    half, which the dual's ray proves instance by instance)."""

    def test_justified_strategies_pose_no_slack_tableau(self, corpus_games,
                                                        monkeypatch):
        """The simplex sees only sid's justifier relaxations, each over
        more of sid's distinct rivals than the one before.  Where sid has
        an unshared justifier, dominating_mixture_ids returns None and the
        slack LP over every co-profile has optimum <= 0.  Where it has
        none, the answer is a mixture that substitutes, and that LP's
        optimum is positive."""
        relaxations = []
        real_problem = dominance.justifier_problem

        def recorded(cols, sid, rivals):
            problem = real_problem(cols, sid, rivals)
            relaxations.append((list(rivals), problem))
            return problem

        monkeypatch.setattr(dominance, "justifier_problem", recorded)
        seen = {"kept": 0, "excluded": 0, "justifier_lp": 0, "ray": 0}
        for game in lp_games(corpus_games):
            for form, q_sets, i, sid in elimination_questions(game):
                justifier = dominance.justifier_ids(
                    form, q_sets, i, sid, dominance.Columns(form, i, q_sets))
                cols = dominance.Columns(form, i, q_sets)
                del relaxations[:]
                with mock.patch.object(lp, "solve", wraps=lp.solve) as solve:
                    mixture = dominance.dominating_mixture_ids(
                        form, q_sets, i, sid, cols)
                posed = [call.args[0] for call in solve.call_args_list]
                built = [problem for _, problem in relaxations]
                rounds = [set(rivals) for rivals, _ in relaxations]
                assert all(sorted(rivals) == rivals
                           for rivals, _ in relaxations)
                assert all(a < b for a, b in zip(rounds, rounds[1:]))
                assert not rounds or \
                    rounds[-1] <= set(all_rivals(cols, q_sets[i], sid))
                assert posed == built
                seen["justifier_lp"] += len(posed)
                result = fraction_simplex(full_slack_problem(
                    form, q_sets, i, sid))
                assert result.status == "optimal"
                if justifier is None:
                    assert mixture is not None
                    assert dominance.mixture_dominates_ids(
                        form, q_sets, i, sid, mixture, cols)
                    assert result.value > 0
                    seen["excluded"] += 1
                    seen["ray"] += bool(posed)
                    continue
                assert mixture is None
                assert result.value <= 0
                seen["kept"] += 1
        assert seen["kept"] >= 500 and seen["excluded"] >= 150, seen
        assert seen["justifier_lp"] >= 100 and seen["ray"] >= 1, seen

    def test_slack_lp_decides_where_no_justifier_exists(self, corpus_games):
        """On every elimination restriction of the corpus and the LP
        games, and for every strategy of Q_i, a mixture exists, from a
        pure dominator or from the justifier LP's ray, exactly where the
        slack LP over every co-profile has a positive optimum, and then
        it substitutes; a measure exists exactly where it has none.  So
        the one LP decides what the slack LP did."""
        seen = {"ray": 0, "pure": 0, "justified": 0}
        for game in lp_games(corpus_games):
            for form, q_sets, i, sid in elimination_questions(game):
                cols = dominance.Columns(form, i, q_sets)
                mixture = dominance.dominating_mixture_ids(
                    form, q_sets, i, sid, cols)
                measure, ray = cols.answer(sid)
                slack = fraction_simplex(full_slack_problem(
                    form, q_sets, i, sid))
                assert (mixture is not None) == (slack.value > 0)
                assert (measure is None) == (slack.value > 0)
                if mixture is None:
                    seen["justified"] += 1
                    continue
                assert dominance.mixture_dominates_ids(
                    form, q_sets, i, sid, mixture, cols)
                if mixture == ray:
                    assert set(ray[0]) <= q_sets[i] - {sid}
                    seen["ray"] += 1
                else:
                    assert mixture[1] == 1
                    seen["pure"] += 1
        assert seen["ray"] >= 150 and seen["pure"] >= 5, seen
        assert seen["justified"] >= 500, seen

    def test_public_queries_ask_over_their_own_sets(self):
        """Off the elimination's sets the two public queries differ: on
        Q = {a, b} x {L, R}, c beats a against every measure, so a has no
        justifier among all of S_i, which ``justifying_full_support_
        measure`` asks for.  But b ties a against the uniform measure, so
        a is a best reply among Q_i to it, and no mixture of a and b
        dominates a: ``weakly_dominated`` answers None with no tableau."""
        text = ("players Row Col\nmatrix Row: a b c Col: L R\n"
                "a: 1,0 0,0\nb: 0,0 1,0\nc: 2,0 2,0\n")
        game = dsl.elaborate(dsl.parse(text))
        a, b, _ = game.strategies(0)
        Q = ProductRestriction([(a, b), game.strategies(1)])
        with mock.patch.object(lp, "solve", wraps=lp.solve) as solve:
            assert justifying_full_support_measure(game, Q, 0, a) is None
        assert solve.call_count == 1
        form = game.strategic_form()
        cols = dominance.Columns(form, 0, [frozenset(range(3)),
                                           frozenset(range(2))])
        assert solve.call_args_list[0].args[0] == \
            dominance.justifier_problem(cols, 0, [2])
        with mock.patch.object(lp, "solve", wraps=lp.solve) as solve:
            assert weakly_dominated(game, Q, 0, a) is None
        assert solve.call_count == 0
        assert fraction_simplex(full_justifier_problem(
            cols.value, 0)).status == "infeasible"
        assert not vertex_weakly_dominated(game, Q, 0, a)

    def test_row_sum_lemma_on_elimination_sets(self, corpus_games):
        """On the elimination's sets, sid's row sum is the largest in Q_i
        exactly when it is the largest in S_i: a strategy eliminated
        earlier hands its row sum down its chain of dominating mixtures
        to a member of Q_i.  So a largest row sum in Q_i keeps sid
        through the justifier's row-sum shortcut, with no tableau."""
        seen = {True: 0, False: 0, "proper": 0}
        for game in lp_games(corpus_games):
            form = game.strategic_form()
            _, _, columns = dominance.iterated_elimination_ids(form)
            for level_columns in columns:
                for i, cols in enumerate(level_columns):
                    best_q = max(cols.row_sum[r] for r in cols.q_sets[i])
                    best_s = max(cols.row_sum)
                    for sid in cols.q_sets[i]:
                        top = cols.row_sum[sid] == best_q
                        assert top == (cols.row_sum[sid] == best_s)
                        seen[top] += 1
                        seen["proper"] += len(cols.q_sets[i]) < len(
                            cols.row_sum)
        assert seen[True] >= 350 and seen[False] >= 300, seen
        assert seen["proper"] >= 100, seen


def true_payoff(form, i, sid, coid):
    """u_i(sid, coid), read off the game tree rather than the form's
    integer table."""
    profile = list(form.co_profile_strategies(i, coid))
    profile.insert(i, form.strats[i][sid])
    return tree_walk_payoff(form.game, profile, i)


def rational_problem(form, i, q_sets, sid, rivals):
    """The justifier LP sid poses in dual form, rebuilt from true payoffs
    with no scaling: one row per distinct column over Q_{-i}, in
    first-occurrence order, and one column per distinct rival row of
    Q_i in ``rivals``."""
    count = form.counts[i]
    grouped = {}
    for coid in sorted(form.co_restriction(i, q_sets)):
        column = tuple(true_payoff(form, i, r, coid) for r in range(count))
        grouped.setdefault(column, []).append(coid)
    u = [[column[r] for column in grouped] for r in range(count)]
    ngroups = len(grouped)
    first = {}
    for r in sorted(q_sets[i]):
        first.setdefault(tuple(u[r]), r)
    others = [r for row, r in first.items() if row != tuple(u[sid])
              and r in rivals]
    # the dual of the Charnes-Cooper form, over y per rival
    rows = [[u[sid][g] - u[r][g] for r in others] for g in range(ngroups)]
    objective = [sum(u[r]) - sum(u[sid]) for r in others]
    return lp.LPProblem(objective, rows, [1] * ngroups), \
        list(grouped.values())


class TestIntegerLP:
    """The justifier LP is posed in integers from ``payoff_den[i]`` times
    the true payoffs: the rational dual with each rival column,
    objective entry included, times den, and its rhs as it is.  A
    positive factor on one column keeps every Bland comparison
    (docs/exactness.md, "Justifier LPs in dual form"), so the pivots,
    the vertex, the value and the ray's direction are the rational
    problem's."""

    def test_posed_problem_is_den_times_the_rational_one(
            self, corpus_games, monkeypatch):
        """Every posed LP, each justifier relaxation included, is the
        rational problem over the same rivals scaled as above, and takes
        the reference simplex's pivots to its vertex or ray.  Where a
        justifier question returns a measure, its last relaxation's least
        share is the optimum of the LP with one row per rival; where it
        returns None, the last dual is unbounded and that LP has no
        positive optimum."""
        from prudens.procedures import verify_equivalences
        owners = {}
        asking = []
        posed = []
        pivots = []
        rivals_of = {}
        answers = {}
        real_init = dominance.Columns.__init__
        real_justifier = dominance._justifier
        real_problem = dominance.justifier_problem
        real_solve = lp.solve
        real_pivot = lp._pivot
        real_fraction_pivot = oracles._fraction_pivot

        def init(self, form, i, q_sets):
            real_init(self, form, i, q_sets)
            owners[id(self)] = (self, form, i)

        def justifier(cols, sid):
            asking.append((cols, sid))
            try:
                answer = real_justifier(cols, sid)
            finally:
                asking.pop()
            answers[(id(cols), sid)] = answer
            return answer

        def problem(cols, sid, rivals):
            built = real_problem(cols, sid, rivals)
            rivals_of[id(built)] = list(rivals)
            return built

        def pivot(*args):
            pivots.append(args)
            return real_pivot(*args)

        def fraction_pivot(*args):
            pivots.append(args)
            return real_fraction_pivot(*args)

        def solve(problem):
            before = len(pivots)
            result = real_solve(problem)
            posed.append((asking[-1], problem, result, len(pivots) - before))
            return result

        def direction(ray):
            return [v / sum(ray) for v in ray]

        monkeypatch.setattr(dominance.Columns, "__init__", init)
        monkeypatch.setattr(dominance, "_justifier", justifier)
        monkeypatch.setattr(dominance, "justifier_problem", problem)
        monkeypatch.setattr(lp, "_pivot", pivot)
        monkeypatch.setattr(lp, "solve", solve)
        monkeypatch.setattr(oracles, "_fraction_pivot", fraction_pivot)
        seen = {"justifier": 0, "scaled": 0, "pivots": 0, "relaxed": 0,
                "decided": 0, "unbounded": 0}
        # the corpus again with player i's payoffs divided by i + 2, so
        # that its LPs are posed over denominators above 1 too
        thirds = [Game(game.players, game.actions,
                       {z: tuple(u / (i + 2) for i, u in enumerate(pv))
                        for z, pv in game.payoffs.items()})
                  for game in map(corpus_games.get, sorted(corpus_games))]
        # two 8 x 8 games too, since the dual form pivots far less
        games = lp_games(corpus_games) + thirds + bimatrix_games(4) \
            + bimatrix_games(2, k=8)
        for game in games:
            del posed[:]
            answers.clear()
            verify_equivalences(game)
            last = {}
            for (cols, sid), problem, result, count in posed:
                _, form, i = owners[id(cols)]
                entries = problem.objective + problem.rhs + [
                    v for row in problem.rows for v in row]
                assert all(type(v) is int for v in entries)
                rivals = rivals_of[id(problem)]
                unscaled, groups = rational_problem(form, i, cols.q_sets,
                                                    sid, rivals)
                assert groups == cols.groups
                den = form.payoff_den[i]
                # rival columns times den, rhs as it is
                factor = [den] * len(rivals)
                assert problem.objective == list(map(mul, factor,
                                                     unscaled.objective))
                assert problem.rhs == unscaled.rhs
                assert problem.rows == [list(map(mul, factor, row))
                                        for row in unscaled.rows]
                answer = rational(result)
                before = len(pivots)
                reference = fraction_simplex(with_slacks(unscaled))
                assert len(pivots) - before == count
                assert (reference.status, reference.value) == \
                    (answer.status, answer.value)
                if answer.status == "optimal":
                    assert reference.x[:len(rivals)] == list(map(
                        mul, factor, answer.x))
                    # the slacks' reduced costs as they are
                    assert answer.reduced == list(map(
                        mul, factor + [1] * len(groups), reference.reduced))
                else:
                    assert direction(answer.ray) == \
                        direction(reference.ray[:len(rivals)])
                    seen["unbounded"] += 1
                seen["justifier"] += 1
                seen["scaled"] += den > 1
                seen["pivots"] += count
                seen["relaxed"] += len(rivals) < len(
                    all_rivals(cols, cols.q_sets[i], sid))
                last[(id(cols), sid)] = (cols, sid, answer)
            for key, (cols, sid, answer) in last.items():
                full = fraction_simplex(full_justifier_problem(cols.value,
                                                               sid))
                if answers[key][0] is None:
                    assert answer.status == "unbounded"
                    assert full.status == "infeasible" or full.value <= 0
                else:
                    assert full.status == "optimal"
                    assert full.value == least_share(
                        answer, len(cols.groups)) > 0
                seen["decided"] += 1
        assert seen["justifier"] >= 80 and seen["unbounded"] >= 3, seen
        assert seen["scaled"] >= 20 and seen["pivots"] >= 300, seen
        assert seen["relaxed"] >= 100 and seen["decided"] >= 100, seen

    def test_every_answer_is_integers_over_a_positive_den(
            self, corpus_games, monkeypatch):
        """Every LP the audit poses is canonical and is answered in
        integers over ``den`` > 0: an optimum's value is c.x at its point,
        its reduced costs are integers, and its primal and dual
        certificates hold by substitution; an unbounded answer's ray
        holds too, as under the rational reference."""
        from prudens.procedures import verify_equivalences
        answered = []
        real_solve = lp.solve

        def solve(problem):
            answered.append((problem, real_solve(problem)))
            return answered[-1][1]

        monkeypatch.setattr(lp, "solve", solve)
        for game in lp_games(corpus_games) + bimatrix_games(4):
            verify_equivalences(game)
        statuses = {"optimal": 0, "unbounded": 0}
        for problem, result in answered:
            statuses[result.status] += 1
            assert type(result.den) is int and result.den > 0
            assert oracles.lp_certificate_holds(result, problem)
            assert fraction_simplex(with_slacks(problem)).status == \
                result.status
            if result.status == "unbounded":
                assert all(type(v) is int for v in result.ray)
                continue
            assert all(type(v) is int for v in result.x + result.reduced)
            assert result.value == sum(
                c * v for c, v in zip(problem.objective, result.x))
        assert statuses["optimal"] >= 120 and statuses["unbounded"] >= 3, \
            statuses

    def test_answers_are_integer_layers(self, corpus_games):
        """Every elimination question's answers leave dominance as one
        integer layer over its least denominator: a justifier (on, den)
        positive on exactly the co-profiles of Q_{-i}, a mixture
        (weights, den) positive on part of Q_i, each summing to den."""
        seen = {"justifier": 0, "mixture": 0}
        for game in lp_games(corpus_games):
            for form, q_sets, i, sid in elimination_questions(game):
                cols = dominance.Columns(form, i, q_sets)
                answers = {
                    "justifier": dominance.justifier_ids(
                        form, q_sets, i, sid, cols),
                    "mixture": dominance.dominating_mixture_ids(
                        form, q_sets, i, sid, cols)}
                for kind, answer in answers.items():
                    if answer is None:
                        continue
                    ints, den = answer
                    values = list(ints.values())
                    assert all(type(n) is int and n > 0 for n in values)
                    assert type(den) is int and sum(values) == den
                    assert math.gcd(den, *values) == 1
                    if kind == "justifier":
                        assert set(ints) == cols.co_event
                    else:
                        assert set(ints) <= q_sets[i]
                    seen[kind] += 1
        assert seen["justifier"] >= 500 and seen["mixture"] >= 150, seen


class TestIteratedAdmissibility:
    def test_matching_pennies_keeps_everything(self, corpus_games):
        trace = iterated_admissibility(corpus_games["matching_pennies"])
        assert trace.fixpoint == 0
        assert trace.step_sizes() == [(2, 2), (2, 2)]
        assert not trace.exclusions

    def test_weak_dom_chain(self, corpus_games):
        game = corpus_games["weak_dom_2x2"]
        trace = iterated_admissibility(game)
        names = [{game.players[i]: sorted(s.name() for s in st.part(i))
                  for i in range(2)} for st in trace.steps]
        assert names[1] == {"Row": ["T"], "Col": ["L", "R"]}
        assert names[2] == {"Row": ["T"], "Col": ["L"]}
        assert trace.fixpoint == 2

    def test_matches_brute_force(self):
        for g in small_games(20, start=200, max_strategies=4):
            trace = iterated_admissibility(g)
            brute = brute_iterated_admissibility(g)
            assert len(trace.steps) == len(brute)
            for ours, theirs in zip(trace.steps, brute):
                assert ours == theirs

    def test_trace_shape(self):
        for g in small_games(10, start=300):
            trace = iterated_admissibility(g)
            sizes = trace.step_sizes()
            assert sizes[-1] == sizes[-2]  # confirming step
            for a, b in zip(sizes, sizes[1:]):
                assert all(x >= y > 0 for x, y in zip(a, b))
            n = trace.fixpoint
            assert sizes[n] == sizes[-1]
            if n > 0:
                assert sizes[n - 1] != sizes[n]
            # certificates exactly cover eliminated strategies
            eliminated = set()
            for step_idx in range(1, len(trace.steps)):
                before, after = trace.steps[step_idx - 1], \
                    trace.steps[step_idx]
                for i in range(len(g.players)):
                    for s in set(before.part(i)) - set(after.part(i)):
                        eliminated.add((step_idx, i, s))
            assert eliminated == set(trace.exclusions)
            assert all(rec.verified()
                       for rec in trace.exclusions.values())

    def test_fixpoint_bound(self):
        for g in small_games(15, start=400):
            trace = iterated_admissibility(g)
            bound = sum(len(g.strategies(i)) - 1
                        for i in range(len(g.players)))
            assert trace.fixpoint <= max(bound, 0)


class TestMixedStrategy:
    def test_validation(self, corpus_games):
        game = corpus_games["matching_pennies"]
        s, t = game.strategies(0)
        with pytest.raises(Exception):
            MixedStrategy(0, {s: Fraction(1, 2)})
        m = MixedStrategy(0, {s: Fraction(1, 2), t: Fraction(1, 2)})
        assert m.support() == {s, t}

    def test_float_weight_is_a_type_error(self, corpus_games):
        game = corpus_games["matching_pennies"]
        s, t = game.strategies(0)
        for weights in ({s: 0.5, t: Fraction(1, 2)}, {s: 0.0, t: 1}):
            with pytest.raises(TypeError, match="expected int or Fraction"):
                MixedStrategy(0, weights)

    def test_strategy_outside_restriction_rejected(self, corpus_games):
        game = corpus_games["weak_dom_2x2"]
        top = by_name(game, 0, "T")
        Q = ProductRestriction([(top,), tuple(game.strategies(1))])
        bottom = by_name(game, 0, "B")
        with pytest.raises(Exception):
            weakly_dominated(game, Q, 0, bottom)
