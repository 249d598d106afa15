"""Finite multistage games with observed actions.

A game is a finite prefix-closed tree of histories, where a history is a
sequence of action profiles (one action per player per stage; inactive
players hold a singleton "wait" action so every stage is a full product).
Terminal histories carry exact rational payoffs; the strategic form holds
them as integers over one denominator per player, scaled once
(docs/exactness.md, "Integers from the source").

Strategies are complete contingent plans: one action at every nonterminal
history, including histories the strategy itself precludes.  Both
strategic forms, over plans and over behavioral-equivalence classes, are
built from the tree (docs/exactness.md, "The strategic form from one walk
of the tree"): the profiles reaching a history are the product of each
player's plans that allow it.
"""

import itertools
import math

from .hyperreal import as_fraction, scaled


class GameError(Exception):
    """A game that cannot be built.  ``path``, when known, is the history
    whose declaration is at fault (see :func:`check_tree`)."""

    def __init__(self, msg, path=None):
        super().__init__(msg)
        self.path = path


class SizeLimit(GameError):
    """A strategy set or profile space exceeds the configured cap."""


def format_path(h):
    """Render a history as ``/`` (root) or ``/(a,b)/(c,d)``."""
    if not h:
        return "/"
    return "".join("/(" + ",".join(profile) + ")" for profile in h)


def check_tree(players, actions, payoffs):
    """Raise GameError unless ``actions`` and ``payoffs`` form a game tree
    of ``players``, whose names are distinct (see :class:`Game`).
    Histories are checked shallowest first, then in tuple order, so the
    fault reported does not depend on the order of either mapping.  The
    error's ``path`` is the history whose declaration is at fault: the
    stage for a missing child, ``()`` for a missing root."""
    n = len(players)
    if not n:
        raise GameError("a game needs at least one player")
    for k, player in enumerate(players):
        if player in players[:k]:
            raise GameError("duplicate player %r" % (player,))
    if () not in actions:
        raise GameError("the root history must be nonterminal", ())
    stages = []
    for h in sorted(itertools.chain(actions, payoffs),
                    key=lambda h: (len(h), h)):
        if h in actions and h in payoffs:
            raise GameError("history is both terminal and nonterminal: %s"
                            % format_path(h), h)
        if h:
            # Shallower histories came first: the parent's own path and
            # action sets are already checked.
            per = actions.get(h[:-1])
            if per is None:
                raise GameError(
                    "history %s has no parent" % format_path(h), h)
            profile = h[-1]
            if len(profile) != n or any(
                    a not in acts for a, acts in zip(profile, per)):
                raise GameError("profile %r not feasible on the way to %s"
                                % (profile, format_path(h)), h)
        if h in payoffs:
            if len(payoffs[h]) != n:
                raise GameError("payoff vector at %s must cover every player"
                                % format_path(h), h)
            continue
        per = actions[h]
        if len(per) != n:
            raise GameError("action sets at %s must cover every player"
                            % format_path(h), h)
        for player, acts in zip(players, per):
            if not acts:
                raise GameError("empty action set for %s at %s"
                                % (player, format_path(h)), h)
            if len(set(acts)) != len(acts):
                raise GameError("duplicate action for %s at %s"
                                % (player, format_path(h)), h)
        stages.append(h)
    for h in stages:
        for a in itertools.product(*actions[h]):
            child = h + (a,)
            if child not in actions and child not in payoffs:
                raise GameError("missing child %s" % format_path(child), h)


class Strategy:
    """A complete plan for one player.

    ``choices[k]`` is the action taken at the k-th nonterminal history in
    the owning game's canonical history order.
    """

    __slots__ = ("player", "choices")

    def __init__(self, player, choices):
        self.player = player
        self.choices = tuple(choices)

    def __eq__(self, other):
        return (isinstance(other, Strategy)
                and self.player == other.player
                and self.choices == other.choices)

    def __hash__(self):
        return hash((self.player, self.choices))

    def name(self):
        return ",".join(self.choices)

    def __repr__(self):
        return "Strategy(p%d:%s)" % (self.player, self.name())


class ProductRestriction:
    """A product set Q = Q_1 x ... x Q_n of per-player strategy subsets."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(tuple(p) for p in parts)

    def __eq__(self, other):
        return (isinstance(other, ProductRestriction)
                and tuple(map(frozenset, self.parts))
                == tuple(map(frozenset, other.parts)))

    def __hash__(self):
        return hash(tuple(map(frozenset, self.parts)))

    def part(self, i):
        return self.parts[i]

    def sizes(self):
        return tuple(len(p) for p in self.parts)

    def is_empty(self):
        return any(not p for p in self.parts)

    def __repr__(self):
        return "ProductRestriction(sizes=%s)" % (self.sizes(),)


class Game:
    """Immutable game tree with derived strategy machinery.

    ``actions`` maps each nonterminal history to a tuple (per player, in
    player order) of nonempty action tuples; ``payoffs`` maps each terminal
    history to a tuple of ints or Fractions.  :func:`check_tree` checks on
    construction that the tree is prefix closed, every stage is the full
    product of the per-player action sets, and terminal/nonterminal
    histories partition the tree.  ``strategy_cap`` is the most strategies
    a player may have before any plan is listed, and in
    :meth:`reduced_form` the most classes before any class is listed
    (:class:`SizeLimit`).  A game answers no question about one profile
    or plan: the profiles reaching a history, the histories a plan allows
    and the payoff a profile earns are read off a :class:`StrategicForm`.
    """

    STRATEGY_CAP = 10 ** 6

    def __init__(self, players, actions, payoffs, strategy_cap=STRATEGY_CAP):
        self.players = tuple(players)
        self.actions = {tuple(map(tuple, h)): tuple(tuple(acts) for acts in per)
                        for h, per in actions.items()}
        self.payoffs = {tuple(map(tuple, h)): tuple(map(as_fraction, per))
                        for h, per in payoffs.items()}
        self.strategy_cap = strategy_cap
        check_tree(self.players, self.actions, self.payoffs)
        ordering = sorted(self.actions, key=self._history_sort_key)
        self.nonterminal = tuple(ordering)
        self.terminal = tuple(sorted(self.payoffs, key=self._history_sort_key))
        self.h_index = {h: k for k, h in enumerate(self.nonterminal)}
        self._strategies = {}
        self._form = None

    # -- canonical history order ---------------------------------------

    def _history_sort_key(self, h):
        key = [len(h)]
        for depth, profile in enumerate(h):
            prefix = h[:depth]
            per = self.actions[prefix]
            key.append(tuple(per[i].index(profile[i]) for i in range(len(self.players))))
        return tuple(key)

    # -- basic structure ------------------------------------------------

    @property
    def is_static(self):
        return len(self.nonterminal) == 1

    def is_history(self, h):
        return h in self.actions or h in self.payoffs

    # -- strategies ------------------------------------------------------

    def strategy_count(self, i):
        count = 1
        for h in self.nonterminal:
            count *= len(self.actions[h][i])
        return count

    def _capped_strategy_count(self, i):
        """strategy_count(i), or SizeLimit if it exceeds the cap."""
        count = self.strategy_count(i)
        if count > self.strategy_cap:
            raise SizeLimit("player %s has %d strategies (cap %d)"
                            % (self.players[i], count, self.strategy_cap))
        return count

    def strategies(self, i):
        """All complete plans of player i, in canonical lexicographic order."""
        if i not in self._strategies:
            self._capped_strategy_count(i)
            per_h = [self.actions[h][i] for h in self.nonterminal]
            self._strategies[i] = tuple(
                Strategy(i, choices) for choices in itertools.product(*per_h))
        return self._strategies[i]

    def full_restriction(self):
        return ProductRestriction([self.strategies(i)
                                   for i in range(len(self.players))])

    def replacement_strategy(self, s, h):
        """The minimal modification of s that allows h.

        Redirects s toward h at every strict prefix of h and keeps s's
        choice everywhere else.
        """
        if not self.is_history(h):
            raise GameError("unknown history %s" % format_path(h))
        choices = list(s.choices)
        for depth in range(len(h)):
            prefix = h[:depth]
            choices[self.h_index[prefix]] = h[depth][s.player]
        return Strategy(s.player, choices)

    def strategic_form(self):
        """The full strategic form, built once.  Its size is checked from
        the strategy counts before any plan is enumerated."""
        if self._form is None:
            StrategicForm.check_profile_space(
                [self._capped_strategy_count(i)
                 for i in range(len(self.players))])
            self._form = StrategicForm(
                self, [list(self.strategies(i))
                       for i in range(len(self.players))])
        return self._form

    def reduced_form(self):
        """The strategic form over behavioral-equivalence classes, one
        representative per class, built from the tree with no plan listed
        (docs/exactness.md, "The strategic form from one walk of the
        tree").  Each player's class count is checked against
        ``strategy_cap``, then the profile space, before any class is
        listed."""
        trees = self._class_trees()
        for i, (_, counts) in enumerate(trees):
            if counts[0] > self.strategy_cap:
                raise SizeLimit("player %s has %d strategy classes (cap %d)"
                                % (self.players[i], counts[0],
                                   self.strategy_cap))
        StrategicForm.check_profile_space([counts[0] for _, counts in trees])
        return StrategicForm(self, [self._representatives(i, subtrees)
                                    for i, (subtrees, _) in enumerate(trees)])

    def _class_trees(self):
        """Per player i, (subtrees, counts).  ``subtrees[k][a]`` lists the
        indices of the nonterminal children that i's action index a leads
        to at the k-th history; ``counts[k]`` is the number of i's reduced
        plans of the subtree there: the sum over a of the product of those
        children's counts."""
        per_player = [[[[] for _ in self.actions[h][i]]
                       for h in self.nonterminal]
                      for i in range(len(self.players))]
        # the root is history 0; every other nonterminal has a parent
        for k, h in enumerate(self.nonterminal[1:], 1):
            parent = h[:-1]
            for i, acts in enumerate(self.actions[parent]):
                per_player[i][self.h_index[parent]][
                    acts.index(h[-1][i])].append(k)
        trees = []
        for subtrees in per_player:
            counts = [0] * len(subtrees)
            # children follow their parent in canonical order
            for k in reversed(range(len(subtrees))):
                counts[k] = sum(math.prod(counts[c] for c in kids)
                                for kids in subtrees[k])
            trees.append((subtrees, counts))
        return trees

    def _representatives(self, i, subtrees):
        """Player i's class representatives in ``strategies(i)`` order.
        Each is its class's least member: action index 0 at every
        history the class precludes."""
        # plans[k]: the reduced plans of the subtree at history k, each a
        # tuple of (history index, action index) pairs; a subtree's plans
        # are dropped once its parent has combined them
        plans = {}
        for k in reversed(range(len(subtrees))):
            plans[k] = [((k, a),) + tuple(itertools.chain.from_iterable(combo))
                        for a, kids in enumerate(subtrees[k])
                        for combo in itertools.product(
                            *(plans.pop(c) for c in kids))]
        indices = []
        for plan in plans[0]:
            idx = [0] * len(subtrees)
            for k, a in plan:
                idx[k] = a
            indices.append(idx)
        indices.sort()
        return [Strategy(i, (self.actions[h][i][a]
                             for h, a in zip(self.nonterminal, idx)))
                for idx in indices]


class StrategicForm:
    """Index-based tables for a game restricted to given strategy lists.

    Strategies are referred to by their index in the per-player list;
    co-player profiles of player i by their index in ``co_profiles[i]``.
    That index is the co-profile's one encoding, a mixed-radix number over
    the co-players' ids, last co-player fastest; :meth:`co_id` and
    :meth:`co_restriction` compute it (docs/exactness.md, "The strategic
    form from one walk of the tree").
    Built once per analysis run, this carries everything the solvers need:
    payoffs against co-profiles, allow sets per history, conditioning
    events, allowed-history lists and replacement indices.  The payoff
    table and the allow sets are filled in one walk of the tree
    (:meth:`_walk`), with no profile walked from the root.

    Built from class representatives (``Game.reduced_form``) the same
    tables describe the reduced game; replacement indices are then
    unavailable, since redirecting a plan can leave the representative set.
    """

    PROFILE_CAP = 500_000

    def __init__(self, game, strat_lists):
        self.game = game
        n = self.n = len(game.players)
        self.strats = [list(lst) for lst in strat_lists]
        self.index = [{s: k for k, s in enumerate(lst)} for lst in self.strats]
        self.counts = [len(lst) for lst in self.strats]
        self.check_profile_space(self.counts)

        self.co_players = [tuple(j for j in range(n) if j != i)
                           for i in range(n)]
        self.co_profiles = [list(itertools.product(
            *(range(self.counts[j]) for j in self.co_players[i])))
            for i in range(n)]
        # _strides[i] pairs each co-player j of i with the place value of
        # j's id in a co-profile id of i: last co-player fastest, as in
        # itertools.product
        self._strides = [[(j, math.prod(self.counts[m] for m in co[p + 1:]))
                          for p, j in enumerate(co)]
                         for co in self.co_players]

        # payoff[i][sid][coid] / payoff_den[i] is the true payoff
        columns = [scaled(col) for col in zip(*game.payoffs.values())]
        self.payoff_den = [den for _, den in columns]
        self.payoff = [[[None] * len(self.co_profiles[i])
                        for _ in range(self.counts[i])] for i in range(n)]
        self.allow = [[None] * len(game.nonterminal) for _ in range(n)]
        self._walk(dict(zip(game.payoffs,
                            zip(*(ints for ints, _ in columns)))))
        self.co_allow = [[self.co_restriction(i, [a[k] for a in self.allow])
                          for k in range(len(game.nonterminal))]
                         for i in range(n)]

        # distinct conditioning events, tagged with the inducing histories
        self.events = []
        for i in range(n):
            seen = {}
            for k, ev in enumerate(self.co_allow[i]):
                seen.setdefault(ev, []).append(k)
            self.events.append([(ev, tuple(ks)) for ev, ks in seen.items()])

        hists = [[[] for _ in range(c)] for c in self.counts]
        for i in range(n):
            for k, ids in enumerate(self.allow[i]):
                for sid in ids:
                    hists[i][sid].append(k)
        self.allowed_hist = [[tuple(ks) for ks in per] for per in hists]

        self._replacement = None
        self._twins = [dict() for _ in range(n)]

    def _walk(self, terminal):
        """Fill ``allow`` and ``payoff`` in one depth-first walk of the
        tree (docs/exactness.md, "The strategic form from one walk of the
        tree").  Each node carries, per player, the ids that allow it: the
        parent's ids that choose the node's own action there.  The
        profiles reaching a terminal history are the product of its sets,
        and the ``terminal`` integers go to each of them."""
        game = self.game
        choices = [[s.choices for s in lst] for lst in self.strats]
        coids_of, payoff = self._coids, self.payoff
        stack = [((), [range(c) for c in self.counts])]
        while stack:
            h, sets = stack.pop()
            ints = terminal.get(h)
            if ints is None:
                k = game.h_index[h]
                own = []
                for i, acts in enumerate(game.actions[h]):
                    self.allow[i][k] = frozenset(sets[i])
                    if len(acts) == 1:
                        own.append(((acts[0], sets[i]),))
                        continue
                    split = {a: [] for a in acts}
                    for sid in sets[i]:
                        split[choices[i][sid][k]].append(sid)
                    own.append(tuple(split.items()))
                for combo in itertools.product(*own):
                    profile, ids = zip(*combo)
                    stack.append((h + (profile,), ids))
            else:
                for i, rows in enumerate(payoff):
                    coids = coids_of(i, sets)
                    value = ints[i]
                    for sid in sets[i]:
                        row = rows[sid]
                        for c in coids:
                            row[c] = value

    @classmethod
    def check_profile_space(cls, counts):
        """SizeLimit unless the product of the strategy counts is within
        PROFILE_CAP."""
        total = math.prod(counts)
        if total > cls.PROFILE_CAP:
            raise SizeLimit("profile space %d exceeds cap %d"
                            % (total, cls.PROFILE_CAP))

    def twin_classes(self, i, h_idx):
        """Player i's strategies allowing history h_idx (all of them at
        the root, history 0), grouped by integer payoff row over its
        conditioning event.

        Returns (coids, den, classes): ``coids`` is the event in ascending
        order, ``den`` is ``payoff_den[i]``, and each class is (members,
        nums) with ``nums[k] == payoff[i][sid][coids[k]]`` for every
        member sid, so its true payoff is ``nums[k] / den``.  Classes are
        ordered by their least member.
        """
        cache = self._twins[i]
        if h_idx not in cache:
            coids = sorted(self.co_allow[i][h_idx])
            sids = sorted(self.allow[i][h_idx])
            payoff = self.payoff[i]
            groups = {}
            for sid in sids:
                row = payoff[sid]
                groups.setdefault(tuple(row[c] for c in coids), []).append(sid)
            classes = [(tuple(members), nums)
                       for nums, members in groups.items()]
            cache[h_idx] = (tuple(coids), self.payoff_den[i], classes)
        return cache[h_idx]

    def replacement(self, i, h_idx, sid):
        """Index of the h-replacement of strategy sid (full form only)."""
        if self._replacement is None:
            full = all(self.counts[i] == self.game.strategy_count(i)
                       for i in range(self.n))
            if not full:
                raise GameError("replacements are defined on full strategy "
                                "sets only")
            self._replacement = [
                [dict() for _ in self.game.nonterminal]
                for _ in range(self.n)]
        cache = self._replacement[i][h_idx]
        if sid not in cache:
            h = self.game.nonterminal[h_idx]
            rep = self.game.replacement_strategy(self.strats[i][sid], h)
            cache[sid] = self.index[i][rep]
        return cache[sid]

    def co_profile_strategies(self, i, coid):
        ids = self.co_profiles[i][coid]
        return tuple(self.strats[j][ids[k]]
                     for k, j in enumerate(self.co_players[i]))

    def _coids(self, i, sets):
        """The ids of player i's co-profiles whose components all lie in
        the given id sets, in the order of ``itertools.product`` over
        them.  ``sets`` maps co-player index j to j-strategy ids."""
        coids = [0]
        for j, stride in self._strides[i]:
            coids = [c + sid * stride for c in coids for sid in sets[j]]
        return coids

    def co_restriction(self, i, sets):
        """Co-profile ids whose components all lie in the given id sets.

        ``sets`` maps co-player index j to a set of j-strategy ids.
        """
        return frozenset(self._coids(i, sets))

    def co_id(self, i, ids):
        """The id of player i's co-profile ``ids``: one strategy id per
        co-player, in ``co_players[i]`` order."""
        (coid,) = self._coids(i, {j: (sid,) for j, sid
                                  in zip(self.co_players[i], ids)})
        return coid

    def restriction_from_ids(self, id_sets):
        return ProductRestriction(
            [tuple(self.strats[i][sid] for sid in sorted(id_sets[i]))
             for i in range(self.n)])

    def player(self, i, s=None):
        """i, if it is a player index; else GameError naming i and s."""
        if isinstance(i, int) and 0 <= i < self.n:
            return i
        raise GameError("no player %r%s: the game has players 0..%d" % (
            i, "" if s is None else " for strategy %r" % (s,), self.n - 1))

    def strategy_id(self, i, s):
        """The id of strategy s of player i.  Raises GameError, naming
        both, unless i is a player index and s one of its strategies."""
        sid = self.index[self.player(i, s)].get(s)
        if sid is None:
            raise GameError("%r is not a strategy of player %s"
                            % (s, self.game.players[i]))
        return sid

    def ids_from_restriction(self, restriction):
        """Per player, the restriction's strategy ids (inverse of
        ``restriction_from_ids``).  Raises GameError unless it has one
        part per player."""
        if len(restriction.parts) != self.n:
            raise GameError("a restriction needs one part per player: got "
                            "%d for %d players" % (len(restriction.parts),
                                                   self.n))
        return [frozenset(self.strategy_id(i, s) for s in restriction.part(i))
                for i in range(self.n)]
