"""The ``.seqgame`` text format: parse, canonical serialize, elaborate.

Line-oriented grammar (``#`` starts a comment, blank lines are skipped):

    players <name>+
    at <path> actions <name>: <action>+ [<name>: <action>+ ...]
    payoff <path> = <rational>[, <rational> ...]
    matrix <name>: <action>+ <name>: <action>+      # static shorthand
    <rowaction>: <cell>+                            # payoff table rows
                                                    # (2-player matrix only)

A ``<path>`` is ``/`` for the root or ``/(a,b)/(c,d)`` listing one action
profile per stage, with no embedded whitespace.  Rationals are integers or
``p/q``; floats are rejected.  A ``matrix`` line declares the root action
sets of a static game; it may be followed by one table row per row-player
action whose cells are comma-joined payoff vectors, column actions in
declared order.  Every player must be given an action list at every stage
(inactive players hold a singleton action), every product child of a stage
must be a stage or carry a payoff, and paths must form a prefix-closed
tree.  The canonical serialization lists stages then payoffs, each sorted
by depth and path text, and round-trips through ``parse`` unchanged.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .game import Game, GameError, check_tree, format_path


class GameDocError(Exception):
    def __init__(self, msg, line=0, col=0):
        super().__init__("line %d, col %d: %s" % (line, col, msg))
        self.msg = msg
        self.line = line
        self.col = col


class GameSyntaxError(GameDocError):
    """Malformed token or line structure."""


class GameSemanticError(GameDocError):
    """Structurally valid text describing an inconsistent game."""


_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_']*$")
_PATH_RE = re.compile(r"^/$|^(?:/\([^()/]*\))+$")


@dataclass
class GameDoc:
    """Parsed form of a ``.seqgame`` document.

    ``stages`` maps each nonterminal path to per-player action tuples
    (keyed by player name); ``payoffs`` maps each terminal path to its
    payoff vector.  Paths are tuples of action-name tuples.
    """

    players: tuple = ()
    stages: dict = field(default_factory=dict)
    payoffs: dict = field(default_factory=dict)


def _tokens(line):
    out = []
    col = 0
    for piece in line.split():
        col = line.index(piece, col)
        out.append((piece, col + 1))
        col += len(piece)
    return out


def _parse_rational(text, lineno, col):
    t = text.strip()
    if re.match(r"^[+-]?\d+$", t):
        return Fraction(int(t))
    m = re.match(r"^([+-]?\d+)/(\d+)$", t)
    if m:
        den = int(m.group(2))
        if den == 0:
            raise GameSemanticError("zero denominator in %r" % text, lineno, col)
        return Fraction(int(m.group(1)), den)
    raise GameSyntaxError("expected a rational (p or p/q), got %r" % text,
                          lineno, col)


def _parse_path(text, lineno, col):
    if not _PATH_RE.match(text):
        raise GameSyntaxError("bad history path %r" % text, lineno, col)
    if text == "/":
        return ()
    profiles = []
    for part in re.findall(r"\(([^()]*)\)", text):
        acts = tuple(a.strip() for a in part.split(","))
        if any(not a for a in acts):
            raise GameSyntaxError("empty action in path %r" % text, lineno, col)
        profiles.append(acts)
    return tuple(profiles)


def _parse_action_segments(toks, lineno, declared_players):
    """Split ``name: a b name: c`` tokens into an ordered per-player map."""
    per = {}
    current = None
    for tok, col in toks:
        if tok.endswith(":") and tok != ":":
            name = tok[:-1]
            if not _IDENT_RE.match(name):
                raise GameSyntaxError("bad player name %r" % name, lineno, col)
            if name not in declared_players:
                raise GameSemanticError("undeclared player %r" % name,
                                        lineno, col)
            if name in per:
                raise GameSemanticError("player %r listed twice" % name,
                                        lineno, col)
            per[name] = []
            current = name
        elif tok == ":":
            raise GameSyntaxError("dangling ':'", lineno, col)
        else:
            if current is None:
                raise GameSyntaxError("expected 'player:' before %r" % tok,
                                      lineno, col)
            if not _IDENT_RE.match(tok):
                raise GameSyntaxError("bad action name %r" % tok, lineno, col)
            if tok in per[current]:
                raise GameSemanticError("duplicate action %r for %r"
                                        % (tok, current), lineno, col)
            per[current].append(tok)
    for name, acts in per.items():
        if not acts:
            raise GameSyntaxError("no actions given for %r" % name, lineno, 1)
    return {name: tuple(acts) for name, acts in per.items()}


def parse(text):
    """Parse document text into a validated GameDoc.

    Raises GameSyntaxError or GameSemanticError with a source location on
    any defect; never raises anything else on string input.
    """
    players = None
    stages = {}
    payoffs = {}
    locations = {}
    matrix_rows = None  # (row_actions, col_actions, rows_seen) while a table is open

    lines = text.lstrip("﻿").splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        toks = _tokens(line)
        head, head_col = toks[0]

        if players is None:
            if head != "players":
                raise GameSyntaxError(
                    "document must start with a 'players' line", lineno, head_col)
            names = []
            for tok, col in toks[1:]:
                if not _IDENT_RE.match(tok):
                    raise GameSyntaxError("bad player name %r" % tok, lineno, col)
                if tok in names:
                    raise GameSemanticError("duplicate player %r" % tok,
                                            lineno, col)
                names.append(tok)
            if not names:
                raise GameSyntaxError("no players declared", lineno, head_col)
            players = tuple(names)
            continue

        if matrix_rows is not None and head.endswith(":") and head != ":" \
                and head[:-1] in matrix_rows[0]:
            row_acts, col_acts, seen = matrix_rows
            row = head[:-1]
            if row in seen:
                raise GameSemanticError("duplicate table row %r" % row,
                                        lineno, head_col)
            cells = toks[1:]
            if len(cells) != len(col_acts):
                raise GameSyntaxError(
                    "expected %d cells for row %r, got %d"
                    % (len(col_acts), row, len(cells)), lineno, head_col)
            for (cell, col), col_act in zip(cells, col_acts):
                values = cell.split(",")
                if len(values) != len(players):
                    raise GameSyntaxError(
                        "cell %r must hold %d comma-joined payoffs"
                        % (cell, len(players)), lineno, col)
                vec = tuple(_parse_rational(v, lineno, col) for v in values)
                path = ((row, col_act),)
                if path in payoffs:
                    raise GameSemanticError(
                        "duplicate payoff for %s" % format_path(path),
                        lineno, col)
                payoffs[path] = vec
                locations[path] = lineno
            seen.add(row)
            continue

        if head == "players":
            raise GameSemanticError("second 'players' line", lineno, head_col)

        if head == "at" or head == "matrix":
            matrix_rows = None
            if head == "at":
                if len(toks) < 4 or toks[2][0] != "actions":
                    raise GameSyntaxError(
                        "expected 'at <path> actions ...'", lineno, head_col)
                path = _parse_path(toks[1][0], lineno, toks[1][1])
                seg_toks = toks[3:]
            else:
                path = ()
                seg_toks = toks[1:]
            per = _parse_action_segments(seg_toks, lineno, players)
            missing = [p for p in players if p not in per]
            if missing:
                raise GameSemanticError(
                    "no actions for player %r at %s"
                    % (missing[0], format_path(path)), lineno, head_col)
            if path in stages:
                raise GameSemanticError(
                    "duplicate history %s" % format_path(path), lineno, head_col)
            stages[path] = tuple(per[p] for p in players)
            locations[path] = lineno
            if head == "matrix" and len(players) == 2:
                matrix_rows = (per[players[0]], per[players[1]], set())
            continue

        if head == "payoff":
            matrix_rows = None
            if len(toks) < 3 or toks[2][0] != "=":
                raise GameSyntaxError("expected 'payoff <path> = ...'",
                                      lineno, head_col)
            path = _parse_path(toks[1][0], lineno, toks[1][1])
            rest = "".join(tok for tok, _ in toks[3:])
            if not rest:
                raise GameSyntaxError("empty payoff list", lineno, head_col)
            values = rest.split(",")
            if len(values) != len(players):
                raise GameSemanticError(
                    "expected %d payoffs at %s, got %d"
                    % (len(players), format_path(path), len(values)),
                    lineno, head_col)
            vec = tuple(_parse_rational(v, lineno, toks[3][1]) for v in values)
            if path in payoffs:
                raise GameSemanticError(
                    "duplicate payoff for %s" % format_path(path),
                    lineno, head_col)
            payoffs[path] = vec
            locations[path] = lineno
            continue

        raise GameSyntaxError("unknown directive %r" % head, lineno, head_col)

    if players is None:
        raise GameSyntaxError("empty document", max(len(lines), 1), 1)
    try:
        check_tree(players, stages, payoffs)
    except GameError as exc:
        # The game's own checks, reported at the line declaring the
        # history at fault (line 1 if no line does).
        raise GameSemanticError(str(exc), locations.get(exc.path, 1),
                                1) from exc
    return GameDoc(players, stages, payoffs)


def _sort_key(path):
    return (len(path), format_path(path))


def serialize(doc):
    """Canonical text: players, stages, payoffs, sorted and normalized."""
    out = ["players " + " ".join(doc.players)]
    for path in sorted(doc.stages, key=_sort_key):
        per = doc.stages[path]
        segs = " ".join(
            "%s: %s" % (doc.players[i], " ".join(per[i]))
            for i in range(len(doc.players)))
        out.append("at %s actions %s" % (format_path(path), segs))
    for path in sorted(doc.payoffs, key=_sort_key):
        vec = doc.payoffs[path]
        out.append("payoff %s = %s"
                   % (format_path(path), ", ".join(str(v) for v in vec)))
    return "\n".join(out) + "\n"


def elaborate(doc, strategy_cap=Game.STRATEGY_CAP):
    """Build the Game a document describes (``Game`` checks the tree)."""
    try:
        return Game(doc.players, doc.stages, doc.payoffs,
                    strategy_cap=strategy_cap)
    except GameError as exc:
        raise GameSemanticError(str(exc), 0, 0) from exc


def load(path, strategy_cap=Game.STRATEGY_CAP):
    with open(path, "r", encoding="utf-8") as fh:
        return elaborate(parse(fh.read()), strategy_cap=strategy_cap)
