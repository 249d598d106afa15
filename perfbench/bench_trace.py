"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``install`` swaps the
public entry points of each prudens layer for wrappers that open a span,
call the original and close the span, and ``uninstall`` puts the
originals back.  Each span is a list ``[name, start, end, parent, game,
detail]``: ``parent`` is the index of the enclosing span (or -1),
``game`` the id of the game being verified, and ``detail`` the arguments
and result a per-layer count needs, kept by reference and examined only
in ``layer_metrics`` so that no analysis runs inside a timed span.
Spans stay in memory until ``dump`` writes them out.
"""

import json
import math
import time

# Entry points wrapped by ``install``: (owner inside the package,
# attribute, whether the span keeps its arguments and result).  The span
# is named "<owner>.<attribute>".
_WRAPPED = (
    ("dominance", "iterated_elimination_ids", False),
    ("dominance", "dominating_mixture_ids", True),
    ("dominance", "justifier_ids", True),
    ("dominance", "mixture_dominates_ids", False),
    ("dominance", "measure_justifies_ids", False),
    ("lp", "solve", True),
    ("procedures", "PriorCNPS", False),
    ("procedures", "ExplicitCPS", False),
    ("procedures", "c_strongly_believes", False),
    ("procedures", "validate_chain_rule", False),
    ("best_reply.ReplyAnalysis", "weak_sequential_ids", False),
)
_WEAK_SEQ = "best_reply.ReplyAnalysis.weak_sequential_ids"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.game = None

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.game, None])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def begin_game(self):
        """Open the root span of the next game."""
        self.game = 0 if self.game is None else self.game + 1
        return self.open("game")

    def wrap(self, name, fn, keep=False):
        """fn, recording a span per call; keep (args, result) if asked."""
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if keep:
                self.spans[index][5] = (args, result)
            return result
        return traced

    def install(self, prudens):
        """Wrap each layer's public entry points in the given package."""
        for owner_name, attr, keep in _WRAPPED:
            owner = prudens
            for part in owner_name.split("."):
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr,
                    self.wrap("%s.%s" % (owner_name, attr), original, keep))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per span: its duration minus the time its direct children take."""
        out = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                out[span[3]] -= span[2] - span[1]
        return out

    def dump(self, path):
        """Write the spans (without kept arguments) as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, game, _) in enumerate(
                    self.spans):
                fh.write(json.dumps({"id": index, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "game": game}))
                fh.write("\n")


def lp_cells(tracer):
    """Rows times columns of every LP the traced games solved."""
    return [len(span[5][0][0].rows) * len(span[5][0][0].objective)
            for span in tracer.spans if span[0] == "lp.solve"]


def _bits(values):
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def layer_metrics(tracer, untraced_seconds):
    """Per-layer sums over every traced game, as {name: (value, unit)}.

    The ``_ms`` figures are self times, so no time is counted twice;
    ``untraced_seconds`` is the same games' time with tracing off.
    """
    spans = tracer.spans
    self_s = tracer.self_times()
    ms = {}
    calls = {}
    for span, own in zip(spans, self_s):
        ms[span[0]] = ms.get(span[0], 0.0) + own * 1e3
        calls[span[0]] = calls.get(span[0], 0) + 1

    def total_ms(*names):
        return sum(ms.get(name, 0.0) for name in names)

    # pre-LP filter hits: dominance queries answered without an lp.solve
    queries = set()
    eliminated = 0
    for index, span in enumerate(spans):
        if span[0] == "dominance.dominating_mixture_ids":
            queries.add(index)
            eliminated += span[5][1] is not None
    lp_parents = [spans[span[3]][0] if span[3] >= 0 else None
                  for span in spans if span[0] == "lp.solve"]
    tableau_queries = {span[3] for span in spans
                       if span[0] == "lp.solve" and span[3] in queries}

    # justifier twins: same (game, player, level, own payoff row) asked twice
    seen = set()
    twins = 0
    for span in spans:
        if span[0] == "dominance.justifier_ids":
            form, q_sets, i, sid = span[5][0][:4]
            key = (span[4], i, tuple(q_sets), tuple(form.payoff[i][sid]))
            twins += key in seen
            seen.add(key)

    cells = lp_cells(tracer)
    bits = 0
    for span in spans:
        if span[0] == "lp.solve":
            (problem,), result = span[5]
            bits = max(bits, _bits(problem.objective), _bits(problem.rhs),
                       max((_bits(row) for row in problem.rows), default=0),
                       _bits(result.x or ()))

    solves = calls.get("lp.solve", 0)
    n_queries = len(queries)
    n_justifier = calls.get("dominance.justifier_ids", 0)
    traced_seconds = sum(span[2] - span[1] for span in spans
                         if span[0] == "game")
    profiles = sum(math.prod(span[5][1].counts) for span in spans
                   if span[0] == "Game.strategic_form")
    return {
        "dsl.parse_ms": (total_ms("dsl.parse"), "ms"),
        "dsl.elaborate_ms": (total_ms("dsl.elaborate"), "ms"),
        "game.strategic_form_ms": (total_ms("Game.strategic_form"), "ms"),
        "game.profiles": (profiles, "count"),
        "dominance.eliminate_ms": (total_ms(
            "dominance.iterated_elimination_ids",
            "dominance.dominating_mixture_ids"), "ms"),
        "dominance.queries": (n_queries, "count"),
        "dominance.filter_hit_ratio": (
            (n_queries - len(tableau_queries)) / n_queries
            if n_queries else 0.0, "ratio"),
        "dominance.eliminated": (eliminated, "count"),
        "dominance.justifier_ms": (total_ms("dominance.justifier_ids"),
                                   "ms"),
        "dominance.justifier_calls": (n_justifier, "count"),
        "dominance.justifier_twin_share": (
            twins / n_justifier if n_justifier else 0.0, "ratio"),
        "dominance.check_ms": (total_ms("dominance.mixture_dominates_ids",
                                        "dominance.measure_justifies_ids"),
                               "ms"),
        "lp.solve_ms": (total_ms("lp.solve"), "ms"),
        "lp.solves.slack": (lp_parents.count(
            "dominance.dominating_mixture_ids"), "count"),
        "lp.solves.justifier": (lp_parents.count("dominance.justifier_ids"),
                                "count"),
        "lp.ms_per_solve": (total_ms("lp.solve") / solves
                            if solves else 0.0, "ms"),
        "lp.cells_max": (max(cells, default=0), "cells"),
        "lp.cells_mean": (sum(cells) / len(cells) if cells else 0.0,
                          "cells"),
        "lp.bits_max": (bits, "bits"),
        "beliefs.build_ms": (total_ms("procedures.PriorCNPS",
                                      "procedures.ExplicitCPS"), "ms"),
        "beliefs.c_strong_ms": (total_ms("procedures.c_strongly_believes"),
                                "ms"),
        "beliefs.c_strong_calls": (calls.get(
            "procedures.c_strongly_believes", 0), "count"),
        "beliefs.chain_rule_ms": (total_ms("procedures.validate_chain_rule"),
                                  "ms"),
        "best_reply.weak_seq_ms": (total_ms(_WEAK_SEQ), "ms"),
        "best_reply.calls": (calls.get(_WEAK_SEQ, 0), "count"),
        "procedures.self_ms": (total_ms("procedures.verify_equivalences"),
                               "ms"),
        "trace.overhead_frac": (traced_seconds / untraced_seconds - 1
                                if untraced_seconds else 0.0, "ratio"),
    }
