"""Mutants planted inside the shortcuts: the audit must catch each one.

Each mutant is one monkeypatch that plants a wrong answer in one
shortcut of the elimination or its justifiers.  Over a fixed list of
games (the corpus plus generated games of up to three players),
``verify_equivalences`` must raise an ``EquivalenceViolation`` naming
the expected stages or checks, while the unmutated list verifies.
"""

from fractions import Fraction

import pytest

from prudens import dominance
from prudens.procedures import EquivalenceViolation, verify_equivalences

from conftest import small_games


@pytest.fixture(scope="module")
def games(corpus_games):
    return [corpus_games[name] for name in sorted(corpus_games)] + \
        small_games(40, start=700, max_players=3, max_strategies=6)


def violations(games):
    """The failed checks of every game whose audit raises."""
    found = []
    for game in games:
        try:
            verify_equivalences(game)
        except EquivalenceViolation as exc:
            found.append(tuple(exc.checks))
    return found


def test_unmutated_list_verifies(games):
    for game in games:
        assert verify_equivalences(game)["all_verified"]


def test_uniform_justifier_everywhere(games, monkeypatch):
    """The row-sum shortcut's answer, the uniform measure over the
    distinct columns, returned for every strategy."""
    def uniform(cols, sid):
        mass = Fraction(1, len(cols.groups))
        return {coid: mass / len(members)
                for members in cols.groups for coid in members}

    monkeypatch.setattr(dominance, "_justifier", uniform)
    found = violations(games)
    assert set(found) == {("justifiers",)}
    assert len(found) >= 20, found


def test_keep_test_keeps_an_unjustified_strategy(games, monkeypatch):
    """The pure-dominance scan, then keep: a strategy with no justifier
    is kept instead of posed the slack tableau."""
    def scan_then_keep(cols, q_i, sid):
        own = cols.value[sid]
        for r in q_i:
            other = cols.value[r]
            if other != own and all(a >= b for a, b in zip(other, own)):
                return {r: Fraction(1)}
        return None

    monkeypatch.setattr(dominance, "_dominating_mixture", scan_then_keep)
    found = violations(games)
    assert set(found) == {("justifiers",)}
    assert len(found) >= 2, found


def test_first_two_twin_classes_merged(games, monkeypatch):
    """Every Columns maps its second twin class onto its first, so two
    distinct rows share one answer."""
    real = dominance.Columns.__init__

    def merged(self, form, i, q_sets):
        real(self, form, i, q_sets)
        reps = sorted(set(self.twin))
        if len(reps) > 1:
            self.twin = [reps[0] if t == reps[1] else t for t in self.twin]

    monkeypatch.setattr(dominance.Columns, "__init__", merged)
    found = violations(games)
    assert set(found) == {("justifiers",), ("dominance-substitution",),
                          ("elimination",)}
    assert len(found) >= 40, found
