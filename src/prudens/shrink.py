"""Greedy minimization of failing games.

Given a document and a predicate on games ("the interesting failure still
happens"), repeatedly apply structure-shrinking edits that preserve
document validity, keeping an edit whenever the predicate survives it:
collapse subtrees into terminal histories, drop actions, then zero out
payoffs.  The edit order is fixed, so a given input shrinks to the same
minimal document on every run.
"""

from fractions import Fraction

from .dsl import GameDoc, GameDocError, elaborate

MAX_PASSES = 20  # rounds of the three edit passes, at most


def _holds(doc, predicate):
    try:
        game = elaborate(doc)
    except GameDocError:
        return False
    try:
        return bool(predicate(game))
    except Exception:
        return False


def _collapse_candidates(doc):
    """Nonterminal paths (deepest first, root excluded) to make terminal."""
    return sorted((p for p in doc.stages if p), key=len, reverse=True)


def _collapse(doc, path):
    """Replace the subtree at ``path`` by a terminal history."""
    stages = {p: acts for p, acts in doc.stages.items()
              if p[:len(path)] != path}
    payoffs = {p: v for p, v in doc.payoffs.items()
               if p[:len(path)] != path}
    inherited = min((p for p in doc.payoffs if p[:len(path)] == path),
                    default=None)
    if inherited is None:
        return None
    payoffs[path] = doc.payoffs[inherited]
    return GameDoc(doc.players, stages, payoffs)


def _drop_action(doc, path, i, action):
    per = doc.stages[path]
    if len(per[i]) < 2:
        return None
    new_per = tuple(
        tuple(a for a in acts if not (k == i and a == action))
        for k, acts in enumerate(per))

    def killed(p):
        return (len(p) > len(path) and p[:len(path)] == path
                and p[len(path)][i] == action)

    stages = {p: (new_per if p == path else acts)
              for p, acts in doc.stages.items() if not killed(p)}
    payoffs = {p: v for p, v in doc.payoffs.items() if not killed(p)}
    return GameDoc(doc.players, stages, payoffs)


def _zero_payoff(doc, path, i):
    vec = doc.payoffs[path]
    if vec[i] == 0:
        return None
    new_vec = tuple(Fraction(0) if k == i else v for k, v in enumerate(vec))
    payoffs = dict(doc.payoffs)
    payoffs[path] = new_vec
    return GameDoc(doc.players, doc.stages, payoffs)


def shrink_document(doc, predicate):
    """Smallest document (under the edit set) still failing the predicate."""
    current = doc
    for _ in range(MAX_PASSES):
        changed = False
        for path in _collapse_candidates(current):
            if path not in current.stages:
                continue
            candidate = _collapse(current, path)
            if candidate is not None and _holds(candidate, predicate):
                current = candidate
                changed = True
        for path in sorted(current.stages, key=len):
            if path not in current.stages:
                continue
            for i in range(len(current.players)):
                for action in list(current.stages[path][i]):
                    if (path not in current.stages
                            or action not in current.stages[path][i]):
                        continue
                    candidate = _drop_action(current, path, i, action)
                    if candidate is not None and _holds(candidate, predicate):
                        current = candidate
                        changed = True
        for path in sorted(current.payoffs):
            for i in range(len(current.players)):
                if path not in current.payoffs:
                    continue
                candidate = _zero_payoff(current, path, i)
                if candidate is not None and _holds(candidate, predicate):
                    current = candidate
                    changed = True
        if not changed:
            break
    return current
