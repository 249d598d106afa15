"""Solution procedures with machine-checked traces.

Iterated admissibility is run once per game, and the two belief-based
cautious procedures (one justifying strategies by conditional
non-standard systems built from a full-support prior, one by explicit
standard conditional systems with a support condition per history) are
audited against that one run.  Their step sets are decided through
iterated admissibility; what makes the result trustworthy is the audit
the run holds:

* the steps, as product restrictions, computed once and shared by the
  three traces;
* one exclusion table, also shared: each eliminated (step, player,
  strategy) triple stores a dominating mixture that re-verifies by
  substitution, which certifies that no justifying belief can exist, and
  the eliminated triples implied by consecutive steps must be exactly
  the table's keys;
* two witness families, each built by the same loop on first use: each
  surviving (step, player, strategy) triple stores a justifying belief,
  rebuilt from scratch out of exact LP solutions and then re-verified
  against the membership conditions themselves (belief validity, the
  cautious strong-belief ladder or the per-history support condition,
  and best-reply membership).

A step-n survivor's justifier ladder is its justifiers at rounds n-1,
..., 0.  Twins share each round's justifier, whose support, signs and
total are substituted once per twin class; each member's own answer
must be that justifier, and the member one of its best replies.  So the
strategy's twin class at every round (its justifier chain) fixes the
ladder.  Survivors of a step with the same chain share one belief and
its validity and ladder or support checks; each keeps its own best-reply
membership check and its own record (see docs/exactness.md, "One belief
per justifier chain").

The ``ia``, ``pr-cnps`` and ``pr-cps`` traces are views of that run, so
a verified run is an instance-level proof that the three procedures
coincide step by step on the given game.  Every audit failure raises an
:class:`EquivalenceViolation` naming its step, player, strategy and
failed checks.

Both witness families read one prior per chain, built from the ladder
nu_0, ..., nu_{n-1}.  The prior weighs nu_ell by e^ell and gives nu_0
the complementary weight 1 - e - ... - e^{n-1}, so the masses sum to
exactly 1 without dividing polynomials; it is built as integer layers.
The explicit system is its standard part, one integer layer per event:
the conditional of the first nu_ell giving the event positive mass.
``_Run.belief`` builds each prior once and hands each family its belief.
Best-reply membership is checked with the weak sequential correspondence
(optimality at every history the strategy allows); see the package docs
for why the strict replacement form cannot support the step equalities.

Expected payoff is linear in the ladder, so the audit compares totals
combined from a product table: per (player, level, justifier twin class,
history), one integer dot product per twin class of the history's payoff
rows with the justifier's masses.  ``_combine_rungs``, which builds the
prior's layers, combines them into the totals ``best_reply`` would
compute over the prior.  One table keyed by a chain's rungs holds the
totals and argmax sets that the prior (every layer), its standard part
(the layer of the first rung meeting the event) and the justifiers'
root checks (one rung) are compared in, each member only at the
histories it allows (docs/exactness.md, "Best-reply totals from
justifier products").  ``_Run`` reads justifiers and products only.
"""

import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from . import best_reply, dominance
from .beliefs import (BeliefError, ConditioningFamily, ExplicitCPS, PriorCNPS,
                      c_strongly_believes, validate_chain_rule)
from .game import GameError, format_path
from .hyperreal import HyperrealError


class ProcedureError(Exception):
    pass


class WitnessVerificationFailed(ProcedureError):
    """A constructed witness failed its independent re-verification."""


class EquivalenceViolation(ProcedureError):
    """An audit entry failed on one game.

    ``checks`` names the checks that failed, or the stage that raised
    (``elimination``, ``justifiers``, ``belief-valid`` or ``audit``).
    """

    def __init__(self, msg, step=None, player=None, strategy=None,
                 checks=()):
        super().__init__(msg)
        self.step = step
        self.player = player
        self.strategy = strategy
        self.checks = list(checks)


# Failures a witness or exclusion can raise while being built or audited.
_AUDIT_ERRORS = (BeliefError, HyperrealError, dominance.DominanceError,
                 WitnessVerificationFailed)


PR_CNPS = "pr-cnps"
PR_CPS = "pr-cps"
IA = "ia"


@dataclass
class WitnessRecord:
    step: int
    player: int
    strategy: object
    belief: object
    checks: list = field(default_factory=list)

    def verified(self):
        return all(ok for _, ok in self.checks)


@dataclass
class ExclusionRecord:
    step: int
    player: int
    strategy: object
    mixture: dict
    checks: list = field(default_factory=list)

    def verified(self):
        return all(ok for _, ok in self.checks)


@dataclass
class ProcedureTrace:
    procedure: str
    game: object
    steps: list                 # ProductRestriction per step, 0..N+1
    fixpoint: int               # N: first index where the sequence is constant
    witnesses: dict = field(default_factory=dict)
    exclusions: dict = field(default_factory=dict)
    reduced: bool = False
    timings: dict = field(default_factory=dict)

    def step_sizes(self):
        return [st.sizes() for st in self.steps]

    def all_verified(self):
        return (all(w.verified() for w in self.witnesses.values())
                and all(x.verified() for x in self.exclusions.values()))

    def to_json(self, include_timings=False):
        game = self.game
        out = {
            "procedure": self.procedure,
            "reduced": self.reduced,
            "players": list(game.players),
            "fixpoint": self.fixpoint,
            "steps": [
                {game.players[i]: [s.name() for s in st.part(i)]
                 for i in range(len(game.players))}
                for st in self.steps],
            "witnesses": [
                {"step": rec.step,
                 "player": game.players[rec.player],
                 "strategy": rec.strategy.name(),
                 "belief": rec.belief.to_json() if rec.belief else None,
                 "checks": [{"name": name, "ok": ok}
                            for name, ok in rec.checks]}
                for rec in self._ordered(self.witnesses)],
            "exclusions": [
                {"step": rec.step,
                 "player": game.players[rec.player],
                 "strategy": rec.strategy.name(),
                 "mixture": {s.name(): str(w)
                             for s, w in sorted(rec.mixture.items(),
                                                key=lambda kv: kv[0].name())},
                 "checks": [{"name": name, "ok": ok}
                            for name, ok in rec.checks]}
                for rec in self._ordered(self.exclusions)],
        }
        if include_timings:
            out["timings"] = dict(self.timings)
        return out

    def _ordered(self, table):
        return [table[key] for key in sorted(table, key=_record_order)]


def _record_order(key):
    """Order of witness and exclusion keys: step, player, choices."""
    return key[0], key[1], key[2].choices


class _Run:
    """One audited run of a game: the elimination steps and their
    exclusion table, checked on construction, and the justifiers, each
    built on first use, that the witness families are built from."""

    def __init__(self, form, reduced=False):
        self.form = form
        self.reduced = reduced
        t0 = time.perf_counter()
        try:
            self.ids, certificates, self.columns = \
                dominance.iterated_elimination_ids(form)
        except dominance.DominanceError as exc:
            raise EquivalenceViolation(str(exc), checks=["elimination"]) \
                from exc
        self.elimination_seconds = time.perf_counter() - t0
        self.fixpoint = len(self.ids) - 2
        self.degree_bound = self.fixpoint + 1
        self.steps = [form.restriction_from_ids(step) for step in self.ids]
        self.families = [ConditioningFamily(form.game, i, form)
                         for i in range(form.n)]
        self._justifiers = {}
        self._rungs = {}
        self._products = {}
        self._deepest = {}
        self._totals = {}
        self._best = {}
        self._priors = {}
        self.exclusions = self._exclusions(certificates)

    def justifier(self, i, sid, level):
        """Measure (on, den) with support exactly the level's co-survivors
        against which sid is a best reply among all own strategies.
        Twins share the level's LP answer, which is substituted once per
        twin class (``_rung``); each member's own answer must be that one,
        and the member must be among its best replies, the one-rung
        ``best_replies`` at the root.  Raises WitnessVerificationFailed
        when there is none or it fails substitution."""
        key = (i, sid, level)
        if key not in self._justifiers:
            cols = self.columns[level][i]
            measure = dominance.justifier_ids(self.form, cols.q_sets, i, sid,
                                              cols)
            if measure is None:
                raise WitnessVerificationFailed(
                    "no justifier with support at round %d for %r"
                    % (level, self.form.strats[i][sid]))
            rung = (level, cols.twin[sid])
            if measure != self._rung(i, rung, measure) \
                    or sid not in self.best_replies(i, (rung,), 0):
                raise WitnessVerificationFailed(
                    "justifier failed substitution check")
            self._justifiers[key] = measure
        return self._justifiers[key]

    def _rung(self, i, rung, measure):
        """The measure of the rung (level, twin class), the first one a
        member hands in, its support, signs and total substituted here,
        once per class.  Raises WitnessVerificationFailed if that
        fails."""
        key = (i,) + rung
        if key not in self._rungs:
            if not dominance.measure_has_support(measure,
                                                 self.columns[rung[0]][i]):
                raise WitnessVerificationFailed(
                    "justifier failed substitution check")
            self._rungs[key] = measure
        return self._rungs[key]

    def products(self, i, rung, h_idx):
        """The substituted justifier of the rung (level, twin class) at
        h_idx: (per twin class of ``form.twin_classes(i, h_idx)``, in its
        order, the integer dot product of the class's payoff row with the
        justifier's masses, the justifier's denominator).  A product is
        the class's payoff against the justifier times that denominator
        and the payoff's.  Built on first use."""
        key = (i, rung, h_idx)
        entry = self._products.get(key)
        if entry is None:
            coids, _, classes = self.form.twin_classes(i, h_idx)
            on, den = self._rungs[(i,) + rung]
            masses = [on.get(c, 0) for c in coids]
            entry = self._products[key] = (
                [sum(map(mul, nums, masses)) for _, nums in classes], den)
        return entry

    def _deepest_level(self, i, h_idx):
        """The deepest level whose co-survivors of i meet the history's
        conditioning event (level 0's are every co-profile)."""
        key = (i, h_idx)
        if key not in self._deepest:
            event = self.form.co_allow[i][h_idx]
            self._deepest[key] = max(
                level for level, cols in enumerate(self.columns)
                if not cols[i].co_event.isdisjoint(event))
        return self._deepest[key]

    def totals(self, i, rungs, h_idx):
        """Layers (ints, den), one per power of e, of i's best-reply
        totals at h_idx against the prior the rungs generate, one integer
        per twin class of ``form.twin_classes(i, h_idx)``: what
        ``best_reply`` computes over the prior's layers (docs/exactness.md,
        "Best-reply totals from justifier products").  ``rungs`` is a
        chain's (level, twin class) pairs, the level n-1 one first."""
        key = (i, rungs, h_idx)
        if key not in self._totals:
            self._totals[key] = _combine_rungs(
                [self.products(i, rung, h_idx) for rung in rungs])
        return self._totals[key]

    def best_replies(self, i, rungs, h_idx, layer=None):
        """Ids of i's strategies allowing h_idx with the largest
        ``totals`` there: compared lexicographically over every layer, as
        against the rungs' prior, or in the given layer alone.  Built once
        per key."""
        key = (i, rungs, h_idx, layer)
        if key not in self._best:
            layers = self.totals(i, rungs, h_idx)
            if layer is not None:
                layers = layers[layer:layer + 1]
            classes = self.form.twin_classes(i, h_idx)[2]
            self._best[key] = best_reply.argmax(
                [(members, totals) for (members, _), totals in zip(
                    classes, zip(*(ints for ints, _ in layers)))])
        return self._best[key]

    def _layer(self, procedure, i, n, h_idx):
        """The layer of a step-n chain's totals at h_idx that the
        procedure's belief is compared in: all (None) for the prior, and
        for its standard part layer d, the first rung whose level meets
        the history's event (earlier layers are zero there)."""
        if procedure == PR_CNPS:
            return None
        return n - 1 - min(self._deepest_level(i, h_idx), n - 1)

    def belief(self, procedure, i, rungs):
        """The procedure's belief for i's survivors whose chain has these
        rungs: the prior their substituted justifiers generate (pr-cnps)
        or an explicit system of its standard part (pr-cps).  The prior
        is built once per (player, rungs), for both."""
        key = (i, rungs)
        if key not in self._priors:
            coids = range(len(self.form.co_profiles[i]))
            self._priors[key] = PriorCNPS(
                self.families[i],
                _combine_rungs([([on.get(c, 0) for c in coids], den)
                                for on, den in (self._rungs[(i,) + rung]
                                                for rung in rungs)]),
                self.degree_bound)
        prior = self._priors[key]
        if procedure == PR_CNPS:
            return prior
        return ExplicitCPS(self.families[i], prior.standard_part())

    def _violation(self, what, n, i, strategy, checks, exc=None):
        msg = "%s at step %d for %s of player %s failed: %s" % (
            what, n, strategy.name(), self.form.game.players[i],
            ", ".join(checks))
        if exc is not None:
            msg += " (%s: %s)" % (type(exc).__name__, exc)
        return EquivalenceViolation(msg, step=n, player=i, strategy=strategy,
                                    checks=checks)

    def _exclusions(self, certificates):
        """Re-check every dominance certificate by substitution, and check
        that the certificates cover exactly the eliminated strategies.
        A certificate's payoffs are computed once per (step, player,
        certificate), so once per twin class, whose members are handed
        one certificate, and each member's own payoff row is compared
        with them."""
        form = self.form
        table = {}
        payoffs = {}
        for (n, i, sid), mixture in certificates.items():
            strategy = form.strats[i][sid]
            cols = self.columns[n - 1][i]
            weights, den = mixture
            key = (n, i, frozenset(weights.items()), den)
            if key not in payoffs:
                payoffs[key] = dominance.mixture_payoffs(
                    form, cols.q_sets, i, mixture, cols)
            if payoffs[key] is None or not dominance.beats_row(
                    form, i, sid, payoffs[key], den, cols):
                raise self._violation("exclusion", n, i, strategy,
                                      ["dominance-substitution"])
            table[(n, i, strategy)] = ExclusionRecord(
                step=n, player=i, strategy=strategy,
                mixture={form.strats[i][r]: Fraction(w, den)
                         for r, w in weights.items()},
                checks=[("dominance-substitution", True)])
        eliminated = {(n, i, form.strats[i][sid])
                      for n in range(1, len(self.ids))
                      for i in range(form.n)
                      for sid in set(self.ids[n - 1][i]) - set(self.ids[n][i])}
        mismatched = eliminated ^ set(table)
        if mismatched:
            n, i, strategy = min(mismatched, key=_record_order)
            raise self._violation("exclusion", n, i, strategy,
                                  ["exclusion-coverage"])
        return table

    def witnesses(self, procedure):
        """(witness table, seconds to build it) of a belief procedure.

        Witnesses are carried by steps 1..N+1 (one past stabilization, so
        the final witnesses honor the full ladder of surviving sets).
        A step-n survivor's ladder is its justifiers at rounds n-1, ...,
        0, each checked for it on its own.  Survivors of one step with the
        same justifier chain, whose rungs are its (level, twin class)
        pairs, share one belief and its sid-independent checks; each is
        asked on its own whether it is a best reply at every history it
        allows (``best_replies``).
        """
        t0 = time.perf_counter()
        audit = (_verify_cnps_witness if procedure == PR_CNPS
                 else _verify_cps_witness)
        form = self.form
        table = {}
        for n in range(1, self.fixpoint + 2):
            levels = range(n - 1, -1, -1)
            for i in range(form.n):
                shared = {}
                for sid in self.ids[n][i]:
                    strategy = form.strats[i][sid]
                    rungs = tuple((level, self.columns[level][i].twin[sid])
                                  for level in levels)
                    stage = "justifiers"
                    try:
                        for level in levels:
                            self.justifier(i, sid, level)
                        if rungs not in shared:
                            stage = "belief-valid"
                            belief = self.belief(procedure, i, rungs)
                            stage = "audit"
                            shared[rungs] = belief, audit(self, belief, i, n)
                        stage = "audit"
                        belief, checks = shared[rungs]
                        checks = checks + [("weak-sequential-best-reply", all(
                            sid in self.best_replies(
                                i, rungs, h, self._layer(procedure, i, n, h))
                            for h in form.allowed_hist[i][sid]))]
                    except _AUDIT_ERRORS as exc:
                        raise self._violation(
                            procedure + " witness", n, i, strategy,
                            [stage], exc) from exc
                    failed = [name for name, ok in checks if not ok]
                    if failed:
                        raise self._violation(
                            procedure + " witness", n, i, strategy, failed)
                    table[(n, i, strategy)] = WitnessRecord(
                        n, i, strategy, belief, checks)
        return table, time.perf_counter() - t0

    def trace(self, procedure):
        """The procedure's view of this run: the shared steps and
        exclusions, and the procedure's own witnesses."""
        timings = {"elimination_seconds": self.elimination_seconds}
        witnesses = {}
        if procedure != IA:
            witnesses, timings["witness_seconds"] = self.witnesses(procedure)
        return ProcedureTrace(procedure, self.form.game, self.steps,
                              self.fixpoint, witnesses, self.exclusions,
                              self.reduced, timings)


def iterated_admissibility(game):
    """Maximal iterated deletion of weakly dominated strategies.

    The trace records one confirming step beyond the fixpoint, and a
    dominating-mixture certificate for every eliminated strategy.
    """
    return _Run(game.strategic_form()).trace(IA)


# -- prior-generated (non-standard) witnesses ---------------------------

def _combine_rungs(rungs):
    """Integer layers, one per power of e, of the prior a justifier
    ladder generates, from one integer vector (v_ell, den_ell) per rung.

    nu_ell, the justifier at round n-1-ell, has support exactly that
    round's co-survivors; the prior is nu_0 weighted by
    1 - e - ... - e^{n-1} plus e^ell nu_ell, which sums to 1 exactly and
    keeps full support.  Layer 0 is v_0 over den_0 as given and layer ell
    is v_ell den_0 - v_0 den_ell over den_ell den_0, with no rescaling.
    Given the rungs' masses over the co-profiles it builds the prior;
    given their products with payoff rows it builds the prior's
    best-reply totals, since it acts on each coordinate alike.  It is
    the one place either is built.
    """
    v_0, den_0 = rungs[0]
    layers = [(v_0, den_0)]
    for v, den in rungs[1:]:
        layers.append(([a * den_0 - b * den for a, b in zip(v, v_0)],
                       den * den_0))
    return layers


def _verify_cnps_witness(run, belief, i, step):
    checks = [("prior-full-support", belief.full_support),
              ("prior-sums-to-1", belief.sums_to_one)]
    for m in range(step):
        ok = c_strongly_believes(belief, run.columns[m][i].co_event)
        checks.append(("c-strong-belief-in-round-%d-survivors" % m, ok))
    return checks


def prudent_rationalizability_cnps(game):
    """The cautious procedure with non-standard justifying priors.

    Step sets coincide with iterated admissibility; every survivor's
    stored prior is re-verified against the membership conditions and
    every eliminated strategy carries a dominance certificate.
    """
    return _Run(game.strategic_form()).trace(PR_CNPS)


# -- explicit standard witnesses ----------------------------------------

def _verify_cps_witness(run, belief, i, step):
    ok, _ = validate_chain_rule(belief)
    survivors = run.columns[step - 1][i].co_event
    ok_support = all(belief.support(ev) == survivors & ev
                     for ev, _ in belief.family.events if survivors & ev)
    return [("chain-rule", ok),
            ("support-matches-surviving-co-profiles", ok_support)]


def prudent_rationalizability_cps(game):
    """The cautious procedure with explicit standard conditional systems.

    Witnesses are the standard parts of the survivors' ladder priors and
    are re-verified against the chain rule, the support condition at
    every history, and best-reply membership.
    """
    return _Run(game.strategic_form()).trace(PR_CPS)


# -- cross-verification --------------------------------------------------

def verify_equivalences(game):
    """Run the audited elimination once and view it as all three
    procedures.

    Returns the fixpoint index N, the per-step sizes, the witness count of
    each procedure, the exclusion count, whether every record verified,
    and the three traces under ``"traces"``; the traces share one step
    list and one exclusion table.  Raises EquivalenceViolation, naming
    the step, player, strategy and failed checks, if any witness or
    exclusion fails its audit.
    """
    run = _Run(game.strategic_form())
    traces = {name: run.trace(name) for name in (IA, PR_CNPS, PR_CPS)}
    return {
        "fixpoint": run.fixpoint,
        "step_sizes": traces[IA].step_sizes(),
        "witnesses": {name: len(trace.witnesses)
                      for name, trace in traces.items()},
        "exclusions": len(run.exclusions),
        "all_verified": all(trace.all_verified()
                            for trace in traces.values()),
        "traces": traces,
    }


def sophistication_index(game, i, trace, h):
    """The deepest step whose surviving co-profiles remain consistent
    with the nonterminal history h (well defined: step 0 is consistent
    with every h).  Raises GameError for any other h, a player index out
    of range or a trace of another game."""
    if trace.game is not game:
        raise GameError("the trace is of another game")
    k = game.h_index.get(h)
    if k is None:
        raise GameError("no nonterminal history %s" % format_path(h))
    form = game.strategic_form()
    event = form.co_allow[form.player(i)][k]
    best = 0
    for m in range(trace.fixpoint + 1):
        sets = form.ids_from_restriction(trace.steps[m])
        if form.co_restriction(i, sets) & event:
            best = m
    return best


def reduced_variants(game):
    """The elimination pair over behavioral-equivalence classes.

    Runs iterated admissibility and the prior-based cautious procedure on
    class representatives, using the weak sequential correspondence; both
    traces view one audited run, whose witnesses are audited as in the
    full runs.
    """
    run = _Run(game.reduced_form(), reduced=True)
    return run.trace(IA), run.trace(PR_CNPS)
