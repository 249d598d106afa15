"""Seeded random game documents for differential testing.

A fixed seed determines the document completely.  The distribution mixes
static with 2- and 3-stage trees and simultaneous with alternating moves,
keeps every player's full strategy count within a small cap so the exact
solvers stay fast, and draws payoffs from a small range (with occasional
halves) so weak-dominance chains occur with useful frequency.  A document
whose profile space exceeds ``StrategicForm.PROFILE_CAP`` is redrawn, like
one over the per-player cap, so every document can be verified.
"""

import itertools
import math
import random
from fractions import Fraction

from .dsl import GameDoc, elaborate
from .game import StrategicForm

ACTION_NAMES = ("a", "b", "c")
WAIT = "w"


def generate_random_game(seed, max_players=3, max_histories=12,
                         max_actions=3, max_strategies=6):
    """A valid GameDoc, deterministic in the seed.

    Raises ValueError, before drawing, on bounds no document meets: fewer
    than one player, history or strategy, or fewer than two actions while
    a player may move.
    """
    if max_players < 1 or max_strategies < 1:
        raise ValueError("a game needs a player and a strategy for each")
    if max_histories < 1:
        raise ValueError("a game needs a root history")
    if max_actions < 2 <= max_strategies:
        raise ValueError("a player who moves has at least two actions")
    rng = random.Random(seed)
    while True:
        doc = _build(rng, max_players, max_histories, max_actions,
                     max_strategies)
        if doc is not None:
            return doc


def _build(rng, max_players, max_histories, max_actions, max_strategies):
    n = rng.choice([p for p in (1, 2, 2, 2, 2, 3) if p <= max_players])
    players = tuple("P%d" % (k + 1) for k in range(n))
    max_depth = rng.choice([1, 1, 2, 2, 3])
    stages = {}
    payoffs = {}
    strat_counts = [1] * n

    def payoff_value():
        if rng.random() < 0.08:
            return Fraction(rng.randrange(-2, 6), 2)
        return Fraction(rng.randrange(-1, 4))

    def action_set(i, depth, force_active):
        limit = max_strategies // strat_counts[i]
        if limit < 2 or (not force_active and rng.random() < 0.45 + 0.2 * depth):
            return (WAIT,)
        k = rng.randrange(2, min(max_actions, limit, 3) + 1)
        strat_counts[i] *= k
        return ACTION_NAMES[:k]

    frontier = [()]
    while frontier:
        h = frontier.pop(0)
        depth = len(h)
        force = rng.randrange(n) if depth == 0 else (
            rng.randrange(n) if rng.random() < 0.8 else None)
        per = tuple(action_set(i, depth, force == i) for i in range(n))
        if all(len(acts) == 1 for acts in per) and depth > 0:
            # nobody active: fold this node into a terminal one instead
            payoffs[h] = tuple(payoff_value() for _ in range(n))
            continue
        stages[h] = per
        for profile in itertools.product(*per):
            child = h + (profile,)
            room = len(stages) + len(frontier) < max_histories
            if depth + 1 < max_depth and room and rng.random() < 0.35:
                frontier.append(child)
            else:
                payoffs[child] = tuple(payoff_value() for _ in range(n))
    if any(c > max_strategies for c in strat_counts):
        return None
    if math.prod(strat_counts) > StrategicForm.PROFILE_CAP:
        return None
    if () not in stages:
        return None
    doc = GameDoc(players, stages, payoffs)
    return doc


def generate_game(seed, **bounds):
    """Convenience: elaborate the generated document."""
    return elaborate(generate_random_game(seed, **bounds))
