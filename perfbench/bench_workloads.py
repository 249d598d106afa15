"""Seeded `.seqgame` generators for the benchmark workloads.

Each generator is a pure function of (workload, game seed) and returns
canonical text from ``prudens.dsl.serialize``; the program under test
receives nothing but that text.  A run does not generate unseen games:
it draws from a stored pool of game seeds whose expected answers are
recorded in ``expected/<workload>.json`` (written by ``make_expected.py``),
so that every answer can be checked.  Which pool games a run verifies,
and in what order, is a pure function of (workload, run seed): see
``run_sequence``.
"""

import json
import random
from fractions import Fraction

from prudens import dsl, generator

WORKLOADS = ("campaign", "bimatrix", "centipede")

# Pool size and number of cost strata per workload (see run_sequence).
POOL_SIZE = {"campaign": 4000, "bimatrix": 120, "centipede": 150}
STRATA = {"campaign": 100, "bimatrix": 6, "centipede": 10}

CAMPAIGN_SEED = 20_240_817
CAMPAIGN_BOUNDS = {"max_players": 3, "max_histories": 12, "max_actions": 3,
                   "max_strategies": 6}
BIMATRIX_K = 10
BIMATRIX_PAYOFFS = (-3, 5)
CENTIPEDE_LEGS = 8
CENTIPEDE_SPREAD = 9


def campaign_doc(index):
    """Game ``index`` of the ``prudens fuzz --seed 20240817`` campaign."""
    return generator.generate_random_game(
        CAMPAIGN_SEED * 1_000_003 + index, **CAMPAIGN_BOUNDS)


def bimatrix_doc(seed):
    """A static k x k two-player game, integer payoffs uniform in range."""
    rng = random.Random(seed)
    lo, hi = BIMATRIX_PAYOFFS
    rows = tuple("r%d" % k for k in range(BIMATRIX_K))
    cols = tuple("c%d" % k for k in range(BIMATRIX_K))
    payoffs = {((r, c),): (Fraction(rng.randint(lo, hi)),
                           Fraction(rng.randint(lo, hi)))
               for r in rows for c in cols}
    return dsl.GameDoc(("P1", "P2"), {(): (rows, cols)}, payoffs)


def centipede_doc(seed):
    """An alternating take-it-or-leave-it game with seeded payoffs.

    At leg t (0-based) the mover continues (C) or stops (S); the other
    player holds the singleton action w.  Stopping at leg t pays each
    player t plus a uniform draw from 0..CENTIPEDE_SPREAD, so the pot
    grows along the path while the incentive to stop varies by seed.
    """
    rng = random.Random(seed)
    stages, payoffs = {}, {}
    history = ()
    for t in range(CENTIPEDE_LEGS):
        mover = t % 2
        per = [("w",), ("w",)]
        per[mover] = ("C", "S")
        stages[history] = tuple(per)
        stop = tuple("S" if k == mover else "w" for k in range(2))
        go = tuple("C" if k == mover else "w" for k in range(2))
        payoffs[history + (stop,)] = tuple(
            Fraction(t + rng.randint(0, CENTIPEDE_SPREAD)) for _ in range(2))
        history += (go,)
    payoffs[history] = tuple(
        Fraction(CENTIPEDE_LEGS + rng.randint(0, CENTIPEDE_SPREAD))
        for _ in range(2))
    return dsl.GameDoc(("P1", "P2"), stages, payoffs)


_DOCS = {"campaign": campaign_doc, "bimatrix": bimatrix_doc,
         "centipede": centipede_doc}


def game_text(workload, seed):
    """Canonical `.seqgame` text of one game; pure in (workload, seed)."""
    return dsl.serialize(_DOCS[workload](seed))


def load_pool(directory, workload):
    """The stored pool: one entry per game seed, with the expected
    summary and the game's work (LP tableau cells summed over its solves)."""
    with open(directory / ("%s.json" % workload), encoding="utf-8") as fh:
        return json.load(fh)["games"]


def run_sequence(workload, pool, seed):
    """Endless (entry, text) pairs for one run; pure in (workload, seed).

    Per-game cost is heavy-tailed, so a plain random sample of the pool
    would make a run's throughput depend on its seed as much as on the
    program.  The pool is therefore ranked by stored work and cut into
    equal strata; each round visits every stratum once, in a seeded order,
    and draws one seeded game from it.
    """
    rng = random.Random("%s/%d" % (workload, seed))
    ranked = sorted(pool, key=lambda entry: (entry["work"], entry["seed"]))
    count = STRATA[workload]
    size = len(ranked) // count
    strata = [ranked[k * size:(k + 1) * size] for k in range(count)]
    while True:
        rng.shuffle(strata)
        for stratum in strata:
            entry = rng.choice(stratum)
            yield entry, game_text(workload, entry["seed"])
