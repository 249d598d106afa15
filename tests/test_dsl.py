import random

import pytest
from fractions import Fraction

from prudens import corpus, generator
from prudens.dsl import (GameDoc, GameSemanticError, GameSyntaxError,
                         elaborate, parse, serialize)
from prudens.game import Game, GameError, format_path

MINIMAL = """players A B
matrix A: T B B: L R
T: 1,1 1,0
B: 1,0 0,1
"""


class TestParse:
    def test_minimal_static(self):
        doc = parse(MINIMAL)
        assert len(doc.stages) == 1
        assert len(doc.payoffs) == 4
        assert doc.players == ("A", "B")

    def test_matrix_equals_longhand(self):
        longhand = """players A B
at / actions A: T B B: L R
payoff /(T,L) = 1, 1
payoff /(T,R) = 1, 0
payoff /(B,L) = 1, 0
payoff /(B,R) = 0, 1
"""
        assert parse(MINIMAL) == parse(longhand)

    def test_missing_payoff_names_path(self):
        text = """players A B
at / actions A: T B B: L R
payoff /(T,L) = 1, 1
payoff /(T,R) = 1, 0
payoff /(B,L) = 1, 0
"""
        with pytest.raises(GameSemanticError) as err:
            parse(text)
        assert "/(B,R)" in str(err.value)

    def test_duplicate_payoff(self):
        with pytest.raises(GameSemanticError) as err:
            parse(MINIMAL + "payoff /(T,L) = 0, 0\n")
        assert "duplicate payoff" in str(err.value)
        assert err.value.line == 5

    def test_undeclared_player(self):
        with pytest.raises(GameSemanticError) as err:
            parse("players A\nat / actions A: x Z: y\npayoff /(x) = 0\n")
        assert "undeclared player" in str(err.value)
        assert (err.value.line, err.value.col) == (2, 19)

    def test_missing_player_actions(self):
        with pytest.raises(GameSemanticError) as err:
            parse("players A B\nat / actions A: x\npayoff /(x,?) = 0, 0\n")
        assert "no actions for player 'B'" in str(err.value)

    def test_floats_rejected(self):
        with pytest.raises(GameSyntaxError):
            parse("players A\nat / actions A: x\npayoff /(x) = 0.5\n")

    def test_bad_directive_has_location(self):
        with pytest.raises(GameSyntaxError) as err:
            parse("players A\nbanana split\n")
        assert (err.value.line, err.value.col) == (2, 1)

    def test_comments_and_blank_lines(self):
        text = "# header\n\nplayers A  # trailing\nat / actions A: x\n" \
               "payoff /(x) = 3/2\n"
        doc = parse(text)
        assert doc.payoffs[(("x",),)] == (Fraction(3, 2),)

    def test_three_line_single_player_document(self):
        doc = parse("players A\nat / actions A: x\npayoff /(x) = 0\n")
        game = elaborate(doc)
        assert len(game.strategies(0)) == 1


class TestSerialize:
    def test_roundtrip_on_generated_documents(self):
        for k in range(200):
            doc = generator.generate_random_game(5_000 + k)
            assert parse(serialize(doc)) == doc

    def test_canonicalization_idempotent(self):
        for k in range(50):
            doc = generator.generate_random_game(6_000 + k)
            once = serialize(doc)
            assert serialize(parse(once)) == once

    def test_matrix_normalizes_to_longhand(self):
        text = serialize(parse(MINIMAL))
        assert "matrix" not in text
        assert parse(text) == parse(MINIMAL)

    def test_whitespace_insensitive_reparse(self):
        rng = random.Random(7)
        for k in range(30):
            doc = generator.generate_random_game(7_000 + k)
            text = serialize(doc)
            noisy = []
            for line in text.splitlines():
                pieces = line.split(" ")
                glue = ["".join(" " for _ in range(rng.randrange(1, 4)))
                        for _ in pieces]
                noisy.append("".join(p + g for p, g in zip(pieces, glue)))
                if rng.random() < 0.3:
                    noisy.append("   # noise")
                if rng.random() < 0.3:
                    noisy.append("")
            assert parse("\n".join(noisy)) == doc

    def test_rationals_normalized(self):
        doc = GameDoc(("A",), {(): (("x",),)},
                      {(("x",),): (Fraction(2, 4),)})
        assert "1/2" in serialize(doc)


class TestElaborate:
    def test_corpus_never_errors(self):
        for path in corpus.corpus_paths():
            game = corpus.dsl.load(path)
            assert game.nonterminal

    def test_history_counts_match_document(self):
        for k in range(40):
            doc = generator.generate_random_game(8_000 + k)
            game = elaborate(doc)
            assert len(game.nonterminal) == len(doc.stages)
            assert len(game.terminal) == len(doc.payoffs)

    def test_static_shorthand_matching_pennies(self):
        game = elaborate(parse(
            "players A B\nmatrix A: H T B: h t\nH: 1,-1 -1,1\nT: -1,1 1,-1\n"))
        assert game.is_static
        assert [len(game.strategies(i)) for i in range(2)] == [2, 2]

    def test_non_product_structure_rejected(self):
        text = """players A B
at / actions A: x y B: u
at /(x,u) actions A: p B: w
payoff /(x,u)/(p,w) = 0, 0
payoff /(y,u) = 0, 0
payoff /(x,w) = 0, 0
"""
        with pytest.raises(GameSemanticError):
            parse(text)


class TestAgreementWithGame:
    """parse runs the game's own tree checks: a mutated document is
    rejected exactly when Game rejects its mappings, with the same
    message, at the line declaring the history at fault."""

    KINDS = ("none", "drop-payoff", "drop-stage", "rename", "stray-payoff")

    @staticmethod
    def mutate(doc, kind, rng):
        stages, payoffs = dict(doc.stages), dict(doc.payoffs)
        histories = sorted(stages) + sorted(payoffs)
        if kind == "drop-payoff":
            del payoffs[rng.choice(sorted(payoffs))]
        elif kind == "drop-stage":
            del stages[rng.choice(sorted(stages)[1:] or [()])]
        elif kind == "rename":
            h = rng.choice([h for h in histories if h])
            table = stages if h in stages else payoffs
            depth = rng.randrange(len(h))
            profile = list(h[depth])
            profile[rng.randrange(len(profile))] = "zz"
            table[h[:depth] + (tuple(profile),) + h[depth + 1:]] = \
                table.pop(h)
        elif kind == "stray-payoff":
            h = rng.choice(histories)
            stray = h if h in stages else h + (h[-1],)
            payoffs[stray] = (Fraction(0),) * len(doc.players)
        return GameDoc(doc.players, stages, payoffs)

    def test_parse_reports_the_games_checks(self):
        rng = random.Random(9)
        seen = {}
        for k in range(300):
            kind = self.KINDS[k % len(self.KINDS)]
            doc = self.mutate(generator.generate_random_game(9_000 + k),
                              kind, rng)
            text = serialize(doc)
            expected = got = None
            try:
                Game(doc.players, doc.stages, doc.payoffs)
            except GameError as exc:
                expected = exc
            try:
                parse(text)
            except GameSemanticError as exc:
                got = exc
            assert (got is None) == (expected is None), text
            seen[kind, got is None] = seen.get((kind, got is None), 0) + 1
            if got is None:
                continue
            assert got.msg == str(expected), text
            declaring = [
                n for n, line in enumerate(text.splitlines(), start=1)
                if line.split()[1:2] == [format_path(expected.path)]]
            # A path that is both a stage and a payoff is located at its
            # later line; an undeclared root at line 1.
            assert got.line == (declaring[-1] if declaring else 1), text
        assert seen == {("none", True): 60,
                        **{(kind, False): 60 for kind in self.KINDS[1:]}}


class TestRobustness:
    def test_no_crash_on_random_bytes(self):
        rng = random.Random(123)
        for _ in range(400):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(80)))
            text = blob.decode("utf-8", errors="replace")
            try:
                parse(text)
            except (GameSyntaxError, GameSemanticError):
                pass

    def test_no_crash_on_token_soup(self):
        rng = random.Random(321)
        vocab = ["players", "at", "actions", "payoff", "matrix", "/", "=",
                 "A", "B", ":", "A:", "1", "1/2", "(", ")", "/(a,b)", ",",
                 "#x", "e^2"]
        for _ in range(400):
            text = "\n".join(
                " ".join(rng.choice(vocab)
                         for _ in range(rng.randrange(8)))
                for _ in range(rng.randrange(6)))
            try:
                parse(text)
            except (GameSyntaxError, GameSemanticError):
                pass
