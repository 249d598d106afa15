import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from fractions import Fraction

import prudens
from prudens import dsl
from prudens.game import (Game, GameError, SizeLimit, StrategicForm, Strategy,
                         format_path)

from conftest import small_games
from oracles import (allows_by_path, form_by_profiles, realization_equivalent,
                     reduce_by_enumeration, terminal_of, tree_walk_payoff)

STATIC_2x2 = """players A B
matrix A: T B B: L R
T: 1,1 1,0
B: 1,0 0,1
"""

TWO_STAGE = """players A B
at / actions A: x y B: w
at /(x,w) actions A: p q B: w
payoff /(y,w) = 0, 0
payoff /(x,w)/(p,w) = 1, 0
payoff /(x,w)/(q,w) = 2, 0
"""


@pytest.fixture
def static_game():
    return dsl.elaborate(dsl.parse(STATIC_2x2))


@pytest.fixture
def two_stage():
    return dsl.elaborate(dsl.parse(TWO_STAGE))


class TestEnumeration:
    @staticmethod
    def tripwire(game, i):
        raise AssertionError("plans must not be enumerated")

    def test_one_shot_two_actions(self, static_game):
        assert len(static_game.strategies(0)) == 2

    def test_two_histories_two_actions_each(self, two_stage):
        # player A is active at both nonterminal histories
        assert len(two_stage.strategies(0)) == 4
        assert len(two_stage.strategies(1)) == 1

    def test_matching_pennies(self, corpus_games):
        g = corpus_games["matching_pennies"]
        assert [len(g.strategies(i)) for i in range(2)] == [2, 2]

    def test_size_limit(self):
        doc = dsl.parse(TWO_STAGE)
        g = dsl.elaborate(doc, strategy_cap=3)
        with pytest.raises(SizeLimit):
            g.strategies(0)

    def test_strategic_form_refuses_before_enumerating(self, monkeypatch):
        """Both caps are checked from the strategy counts, the per-player
        cap first, before any plan is built."""
        small = dsl.elaborate(dsl.parse(TWO_STAGE))  # 4 x 1 profiles
        capped = dsl.elaborate(dsl.parse(TWO_STAGE), strategy_cap=3)

        monkeypatch.setattr(Game, "strategies", self.tripwire)
        monkeypatch.setattr(StrategicForm, "PROFILE_CAP", 3)
        with pytest.raises(SizeLimit, match="profile space 4 exceeds cap 3"):
            small.strategic_form()
        with pytest.raises(SizeLimit, match=r"has 4 strategies \(cap 3\)"):
            capped.strategic_form()


class TestIntegerPayoffs:
    def test_table_is_true_payoffs_over_least_denominator(self,
                                                          corpus_games):
        """Every entry of a player's table is an int, the true payoff
        times ``payoff_den``, the least denominator that makes every
        true payoff in the table an integer; in full and reduced forms."""
        games = [corpus_games[name] for name in sorted(corpus_games)]
        games += small_games(40, max_players=3, max_strategies=6,
                             max_histories=8)
        halves = 0
        for game in games:
            for form in (game.strategic_form(), game.reduced_form()):
                for i in range(form.n):
                    den = form.payoff_den[i]
                    dens = set()
                    for ids in itertools.product(
                            *(range(c) for c in form.counts)):
                        profile = [form.strats[j][k]
                                   for j, k in enumerate(ids)]
                        true = tree_walk_payoff(game, profile, i)
                        coid = form.co_profiles[i].index(tuple(
                            ids[j] for j in form.co_players[i]))
                        got = form.payoff[i][ids[i]][coid]
                        assert type(got) is int
                        assert got == true * den
                        dens.add(true.denominator)
                    assert den == math.lcm(*dens)
                    halves += den == 2
        assert halves > 0


class TestAllowing:
    """The full form's allow sets S_i(h), whose product is S(h), and
    allowed-history lists H_i(s)."""

    def test_root_allows_everything(self, two_stage):
        form = two_stage.strategic_form()
        for i in range(2):
            assert form.allow[i][0] == frozenset(range(form.counts[i]))

    def test_prefix_consistency(self, two_stage):
        form = two_stage.strategic_form()
        allowed = form.allow[0][two_stage.h_index[(("x", "w"),)]]
        assert all(form.strats[0][sid].choices[0] == "x" for sid in allowed)
        assert len(allowed) == 2

    def test_against_path_oracle(self):
        for g in small_games(8):
            form = g.strategic_form()
            for k, h in enumerate(g.nonterminal):
                for i in range(len(g.players)):
                    expected = {sid for sid, s in enumerate(form.strats[i])
                                if allows_by_path(g, s, h)}
                    assert form.allow[i][k] == expected

    def test_prefix_monotone_and_factorization(self):
        for g in small_games(8):
            n = len(g.players)
            form = g.strategic_form()
            for k, h in enumerate(g.nonterminal):
                for depth in range(len(h) + 1):
                    outer = g.h_index[h[:depth]]
                    for i in range(n):
                        assert form.allow[i][k] <= form.allow[i][outer]
                # factorization: membership in S(h) is componentwise
                for ids in itertools.product(*(range(c)
                                               for c in form.counts)):
                    in_product = all(ids[i] in form.allow[i][k]
                                     for i in range(n))
                    profile = tuple(form.strats[i][sid]
                                    for i, sid in enumerate(ids))
                    on_path = terminal_of(g, profile)[:len(h)] == h
                    assert in_product == on_path

    def test_allowed_histories_prefix_closed(self):
        for g in small_games(8):
            form = g.strategic_form()
            for per in form.allowed_hist:
                for ks in per:
                    hs = {g.nonterminal[k] for k in ks}
                    for h in hs:
                        for depth in range(len(h)):
                            assert h[:depth] in hs


class TestReplacement:
    def test_already_allowing_is_fixed_point(self, two_stage):
        s = Strategy(0, ("x", "p"))
        assert two_stage.replacement_strategy(s, (("x", "w"),)) == s

    def test_root_replacement_is_identity(self, two_stage):
        for s in two_stage.strategies(0):
            assert two_stage.replacement_strategy(s, ()) == s

    def test_differs_only_at_strict_prefixes(self):
        for g in small_games(8):
            for i in range(len(g.players)):
                for s in g.strategies(i):
                    for h in g.nonterminal:
                        rep = g.replacement_strategy(s, h)
                        assert allows_by_path(g, rep, h)
                        strict_prefixes = {g.h_index[h[:d]]
                                           for d in range(len(h))}
                        for k in range(len(g.nonterminal)):
                            if k not in strict_prefixes:
                                assert rep.choices[k] == s.choices[k]
                        again = g.replacement_strategy(rep, h)
                        assert again == rep


class TestBehavioralEquivalence:
    def test_matches_realization_equivalence(self):
        """Two plans share a class of the enumerated reduction exactly
        when they reach the same terminal history against every
        co-player profile."""
        merged = 0
        for g in small_games(8):
            for i in range(len(g.players)):
                cls = {s: k for k, members in
                       enumerate(reduce_by_enumeration(g, i))
                       for s in members}
                for s, t in itertools.combinations(g.strategies(i), 2):
                    same = cls[s] == cls[t]
                    assert same == realization_equivalent(g, s, t)
                    merged += same
        assert merged > 0


class TestReduction:
    def test_static_classes_are_singletons(self, static_game):
        classes = reduce_by_enumeration(static_game, 0)
        assert all(len(c) == 1 for c in classes)

    def test_unreachable_choice_merges(self, two_stage):
        classes = reduce_by_enumeration(two_stage, 0)
        sizes = sorted(len(c) for c in classes)
        assert sizes == [1, 1, 2]  # the two (y, *) plans coincide

    def test_partition(self):
        for g in small_games(8):
            for i in range(len(g.players)):
                classes = reduce_by_enumeration(g, i)
                members = [s for cls in classes for s in cls]
                assert len(members) == len(g.strategies(i))
                assert len(set(members)) == len(members)
                assert len(classes) <= len(g.strategies(i))
                for cls in classes:
                    rep = cls[0]
                    for s in cls[1:]:
                        assert realization_equivalent(g, rep, s)


def centipede(legs):
    """An alternating take-it-or-leave-it game: at each leg the mover
    continues (C) or stops (S), the other player holds w."""
    rng = random.Random(legs)
    actions, payoffs = {}, {}
    h = ()
    for t in range(legs):
        per = [("w",), ("w",)]
        per[t % 2] = ("C", "S")
        actions[h] = tuple(per)
        stop = tuple("S" if k == t % 2 else "w" for k in range(2))
        payoffs[h + (stop,)] = (t + rng.randint(0, 9), t + rng.randint(0, 9))
        h += (tuple("C" if k == t % 2 else "w" for k in range(2)),)
    payoffs[h] = (legs + rng.randint(0, 9), legs + rng.randint(0, 9))
    return Game(("P1", "P2"), actions, payoffs)


def bimatrix(k, seed):
    """A static k x k game with payoffs uniform in [-3, 5]."""
    rng = random.Random(seed)
    rows = tuple("r%d" % m for m in range(k))
    cols = tuple("c%d" % m for m in range(k))
    return Game(("P1", "P2"), {(): (rows, cols)},
                {((r, c),): (rng.randint(-3, 5), rng.randint(-3, 5))
                 for r in rows for c in cols})


class TestFormFromTheTree:
    """Both strategic forms, built from one walk of the tree, equal the
    per-profile construction table for table, entry for entry."""

    TABLES = ("strats", "payoff", "payoff_den", "allow", "co_allow",
              "events", "allowed_hist")

    @staticmethod
    def games(corpus_games):
        games = [corpus_games[name] for name in sorted(corpus_games)]
        games += small_games(30, max_players=3, max_strategies=6,
                             max_histories=8)
        return games + [centipede(8), bimatrix(10, 11)]

    def check(self, form, game, strat_lists):
        expected = form_by_profiles(game, strat_lists)
        for name in self.TABLES:
            assert getattr(form, name) == expected[name], name

    def test_full_form(self, corpus_games):
        games = self.games(corpus_games)
        assert max(len(game.players) for game in games) == 3
        for game in games:
            n = len(game.players)
            self.check(game.strategic_form(), game,
                       [game.strategies(i) for i in range(n)])

    def test_reduced_form(self, corpus_games):
        """Representatives are each class's least member, in the order
        of ``strategies``, and the tables are those built on them."""
        merged = 0
        for game in self.games(corpus_games):
            reps = [[cls[0] for cls in reduce_by_enumeration(game, i)]
                    for i in range(len(game.players))]
            form = game.reduced_form()
            self.check(form, game, reps)
            merged += form.counts != game.strategic_form().counts
        assert merged >= 10

    def test_reduced_form_refuses_before_listing(self, monkeypatch):
        """The class counts come from the tree: the per-player cap names
        the class count and no plan is listed, under either cap."""
        doc = dsl.parse(TWO_STAGE)  # A: 3 classes of 4 plans, B: 1
        monkeypatch.setattr(Game, "strategies", TestEnumeration.tripwire)
        with pytest.raises(SizeLimit,
                           match=r"player A has 3 strategy classes \(cap 2\)"):
            dsl.elaborate(doc, strategy_cap=2).reduced_form()
        monkeypatch.setattr(StrategicForm, "PROFILE_CAP", 2)
        with pytest.raises(SizeLimit, match="profile space 3 exceeds cap 2"):
            dsl.elaborate(doc, strategy_cap=3).reduced_form()
        monkeypatch.setattr(StrategicForm, "PROFILE_CAP", 3)
        assert dsl.elaborate(doc, strategy_cap=3).reduced_form().counts \
            == [3, 1]


class TestValidation:
    def test_missing_child(self):
        with pytest.raises(GameError):
            Game(("A",), {(): (("x", "y"),)}, {(("x",),): (Fraction(0),)})

    def test_duplicate_player_is_named(self):
        """A report keys each step's survivors by player name, so two
        players of one name would merge there."""
        with pytest.raises(GameError, match="duplicate player 'A'"):
            Game(("A", "A"), {(): (("L", "R"), ("L", "R"))},
                 {((a, b),): (0, 0) for a in "LR" for b in "LR"})

    def test_float_payoff_is_a_type_error(self):
        """A float is not exact data: it is refused, not stored as the
        binary fraction nearest it."""
        actions = {(): (("x", "y"), ("w",))}
        with pytest.raises(TypeError, match="0.1"):
            Game(("A", "B"), actions,
                 {(("x", "w"),): (0.1, 1), (("y", "w"),): (0, 1)})
        game = Game(("A", "B"), actions, {(("x", "w"),): (Fraction(1, 10), 1),
                                          (("y", "w"),): (0, 1)})
        assert game.payoffs[(("x", "w"),)] == (Fraction(1, 10), 1)

    def test_terminal_and_nonterminal_conflict(self):
        with pytest.raises(GameError):
            Game(("A",), {(): (("x",),), (("x",),): (("z",),)},
                 {(("x",),): (0,), (("x",), ("z",)): (0,)})

    def test_missing_grandparent_is_named_under_every_hash_seed(self):
        """Histories are checked shallowest first, so a missing
        grandparent is a GameError naming the same path, not a KeyError
        that depends on the order of a set of histories."""
        script = (
            "from prudens.game import Game, GameError\n"
            "try:\n"
            "    Game(('A', 'B'),\n"
            "         {(): (('a',), ('w',)),\n"
            "          (('a', 'w'), ('b', 'w')): (('x',), ('w',))},\n"
            "         {(('a', 'w'), ('b', 'w'), ('x', 'w')): (0, 0)})\n"
            "except GameError as exc:\n"
            "    print(exc)\n")
        src = str(Path(prudens.__file__).resolve().parent.parent)
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True)
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                0, "history /(a,w)/(b,w) has no parent\n", ""), seed

    def test_format_path(self):
        assert format_path(()) == "/"
        assert format_path((("a", "b"), ("c", "d"))) == "/(a,b)/(c,d)"
