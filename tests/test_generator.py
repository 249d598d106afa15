import math
from collections import Counter

import pytest

from prudens import dsl, generator
from prudens.game import StrategicForm
from prudens.procedures import iterated_admissibility


def test_fixed_seed_fixed_document():
    a = generator.generate_random_game(12345)
    b = generator.generate_random_game(12345)
    assert a == b
    assert dsl.serialize(a) == dsl.serialize(b)


def test_different_seeds_vary():
    docs = {dsl.serialize(generator.generate_random_game(s))
            for s in range(40)}
    assert len(docs) > 30


def test_all_documents_elaborate_within_bounds():
    for seed in range(300):
        doc = generator.generate_random_game(seed)
        game = dsl.elaborate(doc)
        n = len(game.players)
        assert 1 <= n <= 3
        assert len(game.nonterminal) <= 12
        for i in range(n):
            assert len(game.strategies(i)) <= 6
            for h in game.nonterminal:
                assert len(game.actions[h][i]) <= 3


def test_profile_space_within_cap():
    """Wide bounds admit documents over the profile cap, which are redrawn.

    Seed 71 (``prudens fuzz --seed 0``, index 71, with ``--players 3
    --histories 40 --actions 6 --max-strategies 100000``) first draws a
    17,496 x 2,592 game; verifying it would raise SizeLimit.
    """
    wide = dict(max_players=3, max_histories=40, max_actions=6,
                max_strategies=100_000)
    for seed in [71] + list(range(100)):
        game = dsl.elaborate(generator.generate_random_game(seed, **wide))
        counts = [game.strategy_count(i) for i in range(len(game.players))]
        assert max(counts) <= 100_000
        assert math.prod(counts) <= StrategicForm.PROFILE_CAP, (seed, counts)


def test_distribution_covers_shapes():
    shapes = Counter()
    for seed in range(400):
        game = generator.generate_game(seed)
        n = len(game.players)
        stages = max(len(h) for h in game.terminal)
        active_root = sum(
            1 for i in range(n) if len(game.actions[()][i]) > 1)
        shapes[("static", game.is_static)] += 1
        shapes[("stages>=2", stages >= 2)] += 1
        shapes[("simultaneous-root", active_root >= 2)] += 1
        shapes[("players", n)] += 1
    assert shapes[("static", True)] > 40
    assert shapes[("stages>=2", True)] > 40
    assert shapes[("simultaneous-root", True)] > 30
    assert shapes[("players", 1)] > 10
    assert shapes[("players", 3)] > 10


def test_deep_elimination_occurs():
    deep = 0
    for seed in range(600):
        game = generator.generate_game(seed)
        if iterated_admissibility(game).fixpoint >= 3:
            deep += 1
    assert deep >= 3


def test_custom_bounds():
    for seed in range(50):
        doc = generator.generate_random_game(seed, max_players=2,
                                             max_strategies=4,
                                             max_histories=5)
        game = dsl.elaborate(doc)
        assert len(game.players) <= 2
        assert len(game.nonterminal) <= 5
        assert all(len(game.strategies(i)) <= 4
                   for i in range(len(game.players)))


@pytest.mark.parametrize("bounds", [
    dict(max_players=0), dict(max_players=-1), dict(max_actions=1),
    dict(max_actions=0), dict(max_strategies=0),
    dict(max_strategies=-4), dict(max_histories=0),
    dict(max_histories=-5)])
def test_unmeetable_bounds_raise(bounds):
    """Bounds no document meets are refused before the first draw, not
    redrawn forever or failed inside the draw."""
    with pytest.raises(ValueError):
        generator.generate_random_game(3, **bounds)


def test_single_action_bound_with_single_strategies():
    """One action per history is meetable when no player may move."""
    for seed in range(20):
        game = generator.generate_game(seed, max_actions=1,
                                       max_strategies=1)
        assert all(game.strategy_count(i) == 1
                   for i in range(len(game.players)))
