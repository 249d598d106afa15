import itertools
import json
import re

import pytest
from fractions import Fraction

from prudens import corpus, dsl
from prudens.beliefs import (BeliefError, c_strongly_believes,
                             validate_chain_rule)
from prudens.best_reply import (sequential_best_replies,
                                weak_sequential_best_replies)
from prudens.game import GameError, format_path
from prudens.hyperreal import Hyperreal
from prudens.procedures import (EquivalenceViolation, WitnessVerificationFailed,
                                iterated_admissibility,
                                prudent_rationalizability_cnps,
                                prudent_rationalizability_cps,
                                reduced_variants, sophistication_index,
                                verify_equivalences)

import oracles
from conftest import small_games


def co_event_ids(game, i, restriction):
    """Co-profiles of i drawn from a stored step's survivors."""
    form = game.strategic_form()
    sets = {j: {form.index[j][s] for s in restriction.part(j)}
            for j in range(form.n)}
    return form.co_restriction(i, sets)


class TestVerifyEquivalences:
    def test_corpus(self, corpus_games):
        for name, game in sorted(corpus_games.items()):
            report = verify_equivalences(game)
            assert report["all_verified"], name
            sizes = report["step_sizes"]
            assert sizes[-1] == sizes[-2]

    def test_witness_coverage(self, corpus_games):
        """Every surviving (step, player, strategy) triple carries a
        verified justifier; every eliminated one a verified certificate."""
        for name, game in sorted(corpus_games.items()):
            report = verify_equivalences(game)
            for proc in ("pr-cnps", "pr-cps"):
                trace = report["traces"][proc]
                for n in range(1, trace.fixpoint + 2):
                    step = trace.steps[min(n, len(trace.steps) - 1)]
                    for i in range(len(game.players)):
                        for s in step.part(i):
                            rec = trace.witnesses[(n, i, s)]
                            assert rec.verified(), (name, proc, n, i, s.name())

    def test_violation_alarm_on_injected_fault(self, corpus_games,
                                               monkeypatch):
        from prudens import dominance as dom
        game = dsl.elaborate(dsl.parse(
            "players A B\nmatrix A: T B B: L R\n"
            "T: 1,1 1,0\nB: 1,0 0,1\n"))
        original = dom.justifier_ids

        def broken(form, q_sets, i, sid, cols):
            return None

        monkeypatch.setattr(dom, "justifier_ids", broken)
        with pytest.raises(EquivalenceViolation):
            verify_equivalences(game)
        monkeypatch.setattr(dom, "justifier_ids", original)
        assert verify_equivalences(game)["all_verified"]

    def test_audit_error_names_its_entry(self, corpus_games, monkeypatch):
        from prudens import procedures
        from prudens.beliefs import BeliefError

        def broken(cps):
            raise BeliefError("injected")

        monkeypatch.setattr(procedures, "validate_chain_rule", broken)
        game = corpus_games["weak_dom_2x2"]
        with pytest.raises(EquivalenceViolation) as info:
            verify_equivalences(game)
        exc = info.value
        assert (exc.step, exc.player, exc.checks) == (1, 0, ["audit"])
        assert exc.strategy in game.strategies(0)
        assert "pr-cps witness" in str(exc)
        assert "BeliefError: injected" in str(exc)

    def test_failed_checks_are_named(self, corpus_games, monkeypatch):
        from prudens import procedures
        monkeypatch.setattr(procedures, "c_strongly_believes",
                            lambda belief, event: False)
        with pytest.raises(EquivalenceViolation) as info:
            prudent_rationalizability_cnps(corpus_games["weak_dom_2x2"])
        assert info.value.checks == ["c-strong-belief-in-round-0-survivors"]
        assert info.value.step == 1

    def test_non_dominating_certificate_is_caught(self, corpus_games,
                                                  monkeypatch):
        """The elimination trusts its mixtures; the run's one substitution
        check must catch a certificate that does not dominate."""
        from prudens import dominance
        game = corpus_games["weak_dom_2x2"]
        target = next(s for s in game.strategies(0) if s.name() == "B")
        real = dominance.dominating_mixture_ids

        def self_mixture(form, q_sets, i, sid, cols):
            if i == 0 and form.strats[i][sid] == target:
                return {sid: 1}, 1  # equal payoffs: never strict
            return real(form, q_sets, i, sid, cols)

        monkeypatch.setattr(dominance, "dominating_mixture_ids",
                            self_mixture)
        with pytest.raises(EquivalenceViolation) as info:
            verify_equivalences(game)
        exc = info.value
        assert (exc.step, exc.player, exc.strategy) == (1, 0, target)
        assert exc.checks == ["dominance-substitution"]

    def test_twins_pose_each_lp_once(self, corpus_games, monkeypatch):
        """Every member of a twin class is asked for its dominance and
        justifier answers, but no (player, level, own row) question
        poses a second LP.  One LP answers both questions, so every LP
        is labelled by the justifier question that builds it, and one
        that excludes a strategy is unbounded."""
        from prudens import dominance, lp
        asking = []  # (player, level) of the public call under way
        asked = []
        labels = []  # the LP question under way
        posed = []

        def public(real):
            def wrapper(form, q_sets, i, sid, cols):
                asking.append((i, tuple(q_sets)))
                asked.append(asking[-1] + (
                    real.__name__,
                    tuple(dominance.Columns(form, i, q_sets).value[sid])))
                try:
                    return real(form, q_sets, i, sid, cols)
                finally:
                    asking.pop()
            return wrapper

        def question(kind, real):
            def wrapper(cols, *args):
                labels.append((kind,) + asking[-1]
                              + (tuple(cols.value[args[-1]]),))
                try:
                    return real(cols, *args)
                finally:
                    labels.pop()
            return wrapper

        real_solve = lp.solve
        statuses = []

        def solve(problem):
            posed.append(labels[-1])
            result = real_solve(problem)
            statuses.append(result.status)
            return result

        for name in ("dominating_mixture_ids", "justifier_ids"):
            monkeypatch.setattr(dominance, name,
                                public(getattr(dominance, name)))
        monkeypatch.setattr(dominance, "_justifier",
                            question("justifier", dominance._justifier))
        monkeypatch.setattr(lp, "solve", solve)
        kinds = set()
        repeats = 0
        # centipede_3 has twins; strict_mix_3x2 needs a mixture, which
        # an unbounded LP's ray gives
        for name in ("centipede_3", "strict_mix_3x2"):
            del asked[:], posed[:]
            assert verify_equivalences(corpus_games[name])["all_verified"]
            assert posed and len(posed) == len(set(posed))
            kinds |= {kind for kind, *_ in posed}
            repeats += len(asked) - len(set(asked))
        assert kinds == {"justifier"}
        assert "unbounded" in statuses
        assert repeats > 0

    def test_witness_phase_poses_no_lp(self, corpus_games, monkeypatch):
        """The elimination keeps a strategy only by its justifier, stored
        in the level's Columns, so once the run is built the witness
        phase finds every justifier stored and calls the simplex zero
        times."""
        from prudens import lp, procedures
        built = []

        class Run(procedures._Run):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        real_solve = lp.solve
        solves = {"elimination": 0, "witnesses": 0}

        def solve(problem):
            solves["witnesses" if built else "elimination"] += 1
            return real_solve(problem)

        monkeypatch.setattr(procedures, "_Run", Run)
        monkeypatch.setattr(lp, "solve", solve)
        games = [corpus_games[name] for name in sorted(corpus_games)]
        games += small_games(30, max_players=3, max_strategies=6,
                             max_histories=8)
        witnesses = 0
        for game in games:
            built.clear()
            report = verify_equivalences(game)
            assert report["all_verified"] and len(built) == 1
            witnesses += sum(report["witnesses"].values())
        assert solves["witnesses"] == 0, solves
        assert solves["elimination"] >= 50 and witnesses >= 500, (
            solves, witnesses)

    def test_failing_twin_is_named_not_its_representative(
            self, corpus_games, monkeypatch):
        """A twin reuses its representative's justifier but keeps its own
        substitution check, and a failure there names the twin."""
        from prudens import dominance
        game = corpus_games["centipede_3"]
        form = game.strategic_form()
        survivors = dominance.iterated_elimination_ids(form)[0][1]
        i, rep, twin = next(
            (i, rep, sid) for i in range(form.n)
            for sid, rep in enumerate(dominance.Columns(
                form, i, [frozenset(range(c)) for c in form.counts]).twin)
            if rep != sid and {rep, sid} <= set(survivors[i]))
        real = dominance.measure_justifies_ids

        def fails_for_twin(form, q_sets, player, sid, measure, cols):
            if (player, sid) == (i, twin):
                return False
            return real(form, q_sets, player, sid, measure, cols)

        monkeypatch.setattr(dominance, "measure_justifies_ids",
                            fails_for_twin)
        with pytest.raises(EquivalenceViolation) as info:
            verify_equivalences(game)
        exc = info.value
        assert (exc.step, exc.player, exc.checks) == (1, i, ["justifiers"])
        assert exc.strategy == form.strats[i][twin]
        assert exc.strategy != form.strats[i][rep]

    def test_each_justifier_chain_builds_one_belief(self, corpus_games,
                                                    monkeypatch):
        """Survivors of a step whose twin classes agree at every earlier
        level share one belief and one reply analysis: no (procedure,
        player, step, chain) builds a second of either, and every
        survivor keeps its own record with the full check list."""
        from prudens import best_reply, dominance, procedures
        built = []
        analysed = []

        def recording(cls):
            def build(family, *data):
                built.append(cls(family, *data))
                return built[-1]
            return build

        real_analysis = best_reply.ReplyAnalysis

        def analysis(belief, i):
            analysed.append(belief)
            return real_analysis(belief, i)

        for name in ("PriorCNPS", "ExplicitCPS"):
            monkeypatch.setattr(procedures, name,
                                recording(getattr(procedures, name)))
        monkeypatch.setattr(best_reply, "ReplyAnalysis", analysis)
        shared = 0
        for game in [corpus_games["centipede_3"]] + small_games(
                20, start=700, max_players=3, max_strategies=6):
            del built[:], analysed[:]
            form = game.strategic_form()
            columns = dominance.iterated_elimination_ids(form)[2]
            traces = verify_equivalences(game)["traces"]
            chains = {}
            for proc, own in (("pr-cnps", ["prior-full-support",
                                           "prior-sums-to-1"]),
                              ("pr-cps", ["chain-rule",
                                          "support-matches-surviving-"
                                          "co-profiles"])):
                for (n, i, s), rec in traces[proc].witnesses.items():
                    sid = form.index[i][s]
                    chain = tuple(columns[level][i].twin[sid]
                                  for level in range(n))
                    chains.setdefault((proc, i, n, chain), []).append(rec)
                    rounds = (["c-strong-belief-in-round-%d-survivors" % m
                               for m in range(n)]
                              if proc == "pr-cnps" else [])
                    assert [name for name, _ in rec.checks] == (
                        own + rounds + ["weak-sequential-best-reply"])
            beliefs = [recs[0].belief for recs in chains.values()]
            for recs in chains.values():
                assert all(rec.belief is recs[0].belief for rec in recs)
                shared += len(recs) > 1
            assert sorted(map(id, built)) == sorted(map(id, beliefs))
            assert sorted(map(id, analysed)) == sorted(map(id, beliefs))
        assert shared

    def test_failing_best_reply_names_the_member(self, corpus_games,
                                                 monkeypatch):
        """Members of a chain share one reply analysis but each is checked
        for membership on its own: a non-representative member missing
        from the weak sequential replies is named, not its
        representative."""
        from prudens import best_reply, dominance
        game = corpus_games["centipede_3"]
        form = game.strategic_form()
        steps, _, columns = dominance.iterated_elimination_ids(form)
        i, rep, member = next(
            (i, columns[0][i].twin[sid], sid) for i in range(form.n)
            for sid in steps[1][i] if columns[0][i].twin[sid] != sid)
        assert rep in steps[1][i]
        real = best_reply.ReplyAnalysis.weak_sequential_ids

        def without_member(analysis):
            return [sid for sid in real(analysis)
                    if (analysis.i, sid) != (i, member)]

        monkeypatch.setattr(best_reply.ReplyAnalysis, "weak_sequential_ids",
                            without_member)
        with pytest.raises(EquivalenceViolation) as info:
            verify_equivalences(game)
        exc = info.value
        assert (exc.step, exc.player, exc.checks) == (
            1, i, ["weak-sequential-best-reply"])
        assert exc.strategy == form.strats[i][member]
        assert exc.strategy != form.strats[i][rep]

    def test_failing_member_justifier_at_any_level_is_named(
            self, corpus_games, monkeypatch):
        """A member that reuses its chain's belief still has its own
        justifier substituted at every level below its step, under either
        family: for each non-representative member of a chain two or more
        levels long and each of those levels, a failed substitution names
        the member, both when all three procedures are verified and when
        the CPS family is built alone."""
        from prudens import dominance
        game = corpus_games["centipede_3"]
        form = game.strategic_form()
        steps, _, columns = dominance.iterated_elimination_ids(form)
        q_level = {}
        for level, step in enumerate(steps):
            q_level.setdefault(tuple(frozenset(part) for part in step),
                               level)

        def chain(i, sid, n):
            return tuple(columns[level][i].twin[sid] for level in range(n))

        cases = {(i, sid, level)
                 for n in range(2, len(columns) + 1)
                 for i in range(form.n) for sid in steps[n][i]
                 if min(r for r in steps[n][i]
                        if chain(i, r, n) == chain(i, sid, n)) != sid
                 for level in range(n)}
        assert {level for _, _, level in cases} >= {0, 1}
        real = dominance.measure_justifies_ids
        entry_points = (verify_equivalences, prudent_rationalizability_cps)
        for entry, (i, member, failing) in itertools.product(
                entry_points, sorted(cases)):
            def fails_for_member(form, q_sets, player, sid, measure, cols):
                if (player, sid, q_level[tuple(q_sets)]) == (
                        i, member, failing):
                    return False
                return real(form, q_sets, player, sid, measure, cols)

            monkeypatch.setattr(dominance, "measure_justifies_ids",
                                fails_for_member)
            with pytest.raises(EquivalenceViolation) as info:
                entry(game)
            exc = info.value
            assert (exc.step, exc.player, exc.checks) == (
                failing + 1, i, ["justifiers"]), entry.__name__
            assert exc.strategy == form.strats[i][member]

    def test_traces_share_steps_and_exclusions(self, corpus_games):
        report = verify_equivalences(corpus_games["centipede_3"])
        ia, cnps, cps = (report["traces"][name]
                         for name in ("ia", "pr-cnps", "pr-cps"))
        assert ia.steps is cnps.steps is cps.steps
        assert ia.exclusions is cnps.exclusions is cps.exclusions
        assert not ia.witnesses

    def test_cnps_builds_no_cps_witness(self, corpus_games, monkeypatch):
        from prudens import procedures

        def refuse(family, table):
            raise AssertionError("a CPS witness was built")

        monkeypatch.setattr(procedures, "ExplicitCPS", refuse)
        for game in corpus_games.values():
            assert prudent_rationalizability_cnps(game).all_verified()

class TestCnpsWitnesses:
    def test_ladder_priors_have_epsilon_tails(self, corpus_games):
        game = corpus_games["weak_dom_2x2"]
        trace = prudent_rationalizability_cnps(game)
        n = trace.fixpoint + 1
        step = trace.steps[trace.fixpoint]
        for i in range(2):
            for s in step.part(i):
                belief = trace.witnesses[(n, i, s)].belief
                degrees = {m.leading_degree()
                           for m in belief.prior.values()}
                assert 0 in degrees
                assert all(m > 0 for m in belief.prior.values())

    def test_deep_step_witness_honors_whole_ladder(self, corpus_games):
        """On a game with three proper rounds, a step-3 witness must hold
        cautious strong belief in both earlier survivor sets separately."""
        game = corpus_games["centipede_3"]
        trace = prudent_rationalizability_cnps(game)
        assert trace.fixpoint == 3
        for (n, i, s), rec in trace.witnesses.items():
            if n < 3:
                continue
            for m in range(n):
                ev = co_event_ids(game, i, trace.steps[m])
                assert c_strongly_believes(rec.belief, ev), (n, i, s.name(), m)

    def test_check_names_cover_membership_conditions(self, corpus_games):
        game = corpus_games["bos_outside_option"]
        trace = prudent_rationalizability_cnps(game)
        step2 = [rec for (n, _, _), rec in trace.witnesses.items() if n == 2]
        assert step2
        for rec in step2:
            names = [name for name, _ in rec.checks]
            assert "prior-full-support" in names
            assert "prior-sums-to-1" in names
            assert "c-strong-belief-in-round-0-survivors" in names
            assert "c-strong-belief-in-round-1-survivors" in names
            assert "weak-sequential-best-reply" in names

    def test_witness_beliefs_justify_via_weak_not_strict_correspondence(
            self, corpus_games):
        """The surviving stop-now plan with the dominated continuation is
        justified in the weak sense but is no strict sequential best reply
        to any belief; this is why the audit runs on the weak form."""
        game = corpus_games["centipede_3"]
        trace = prudent_rationalizability_cnps(game)
        junk = [s for s in game.strategies(0) if s.name() == "S,w,C2"][0]
        rec = trace.witnesses[(1, 0, junk)]
        assert junk in weak_sequential_best_replies(game, rec.belief, 0)
        assert junk not in sequential_best_replies(game, rec.belief, 0)

    def test_degree_budget(self, corpus_games):
        for game in corpus_games.values():
            trace = prudent_rationalizability_cnps(game)
            for rec in trace.witnesses.values():
                bound = rec.belief.degree_bound
                assert bound == trace.fixpoint + 1
                for mass in rec.belief.prior.values():
                    degree = mass.degree()
                    assert degree is None or degree <= trace.fixpoint

    def test_audit_reads_stored_leading_degrees(self, corpus_games,
                                                monkeypatch):
        """The priors keep one leading degree per co-profile, so the audit
        never scans a Hyperreal for it."""
        calls = []
        scan = Hyperreal.leading_degree

        def counted(mass):
            calls.append(mass)
            return scan(mass)

        monkeypatch.setattr(Hyperreal, "leading_degree", counted)
        games = [corpus_games[name] for name in sorted(corpus_games)]
        games += small_games(30, max_players=3, max_strategies=6,
                             max_histories=8)
        deep = 0
        for game in games:
            rep = verify_equivalences(game)
            deep += rep["witnesses"]["pr-cnps"] * (rep["fixpoint"] > 0)
        assert deep > 0  # priors with more than one rung were audited
        assert calls == []


class TestCpsWitnesses:
    def test_chain_rule_and_support(self, corpus_games):
        for name, game in sorted(corpus_games.items()):
            trace = prudent_rationalizability_cps(game)
            for (n, i, s), rec in trace.witnesses.items():
                ok, violations = validate_chain_rule(rec.belief)
                assert ok and not violations
                survivors = co_event_ids(game, i, trace.steps[min(
                    n - 1, len(trace.steps) - 1)])
                for ev, _ in rec.belief.family.events:
                    required = survivors & ev
                    if required:
                        assert rec.belief.support(ev) == required

    def test_witness_is_standard_part_of_cnps_prior(self, corpus_games):
        """The paper's equivalence, instance by instance: at every event,
        each pr-cps witness equals the standard part of the conditional
        of the pr-cnps prior stored for the same (step, player,
        strategy), including events only a lower rung of the ladder
        reaches.  The table is the prior's ``standard_part``, and the
        pr-cps trace built alone reports the same witnesses."""
        lower_rung = 0
        games = list(corpus_games.values()) + small_games(
            40, max_players=3, max_strategies=6, max_histories=8)
        for game in games:
            traces = verify_equivalences(game)["traces"]
            cnps = traces["pr-cnps"].witnesses
            cps = traces["pr-cps"].witnesses
            assert cnps.keys() == cps.keys()
            assert prudent_rationalizability_cps(game).to_json() == \
                traces["pr-cps"].to_json()
            for key, rec in cps.items():
                assert rec.belief.table == {
                    ev: {c: Fraction(n, total) for c, n in on.items()}
                    for ev, (on, total)
                    in cnps[key].belief.standard_part().items()}, key
                prior = cnps[key].belief.prior
                for ev, _ in rec.belief.family.events:
                    got = {c: p for c, p in rec.belief.table[ev].items()
                           if p}
                    assert got == oracles.standard_part_conditional(
                        prior, ev), key
                    lower_rung += min(prior[c].leading_degree()
                                      for c in ev) > 0
        assert lower_rung > 0

    def test_prior_fails_at_belief_valid(self, corpus_games, monkeypatch):
        """Built alone, the CPS family builds each chain's prior once, and
        a prior that fails validation is reported at stage
        ``belief-valid``."""
        from prudens import procedures
        game = corpus_games["centipede_3"]
        built = []
        real = procedures.PriorCNPS

        def counted(family, layers, degree_bound):
            built.append(real(family, layers, degree_bound))
            return built[-1]

        monkeypatch.setattr(procedures, "PriorCNPS", counted)
        trace = prudent_rationalizability_cps(game)
        assert len(built) == len({id(rec.belief)
                                  for rec in trace.witnesses.values()})
        assert len(built) < len(trace.witnesses)

        def refuse(family, layers, degree_bound):
            raise BeliefError("prior refused")

        monkeypatch.setattr(procedures, "PriorCNPS", refuse)
        for entry in (prudent_rationalizability_cps,
                      prudent_rationalizability_cnps):
            with pytest.raises(EquivalenceViolation) as info:
                entry(game)
            assert (info.value.step, info.value.checks) == (
                1, ["belief-valid"])
            assert "prior refused" in str(info.value)

    def test_step1_witness_has_full_root_support(self, corpus_games):
        game = corpus_games["prisoners_dilemma"]
        trace = prudent_rationalizability_cps(game)
        for (n, i, s), rec in trace.witnesses.items():
            if n != 1:
                continue
            root_ev = rec.belief.family.event_for_history(())
            assert rec.belief.support(root_ev) == root_ev

    def test_witness_supports_do_not_nest_across_steps(self, corpus_games):
        """A later-step witness fails the earlier step's support condition:
        its root support is strictly inside the earlier requirement."""
        game = corpus_games["centipede_3"]
        trace = prudent_rationalizability_cps(game)
        found = False
        for (n, i, s), rec in trace.witnesses.items():
            if n < 2:
                continue
            root_ev = rec.belief.family.event_for_history(())
            earlier = co_event_ids(game, i, trace.steps[n - 2]) & root_ev
            support = rec.belief.support(root_ev)
            if support < earlier:
                found = True
        assert found


class TestStaticCollapse:
    def test_cnps_trace_equals_ia_trace(self, corpus_games):
        for name, game in sorted(corpus_games.items()):
            if not game.is_static:
                continue
            ia = iterated_admissibility(game)
            pr = prudent_rationalizability_cnps(game)
            assert ia.steps == pr.steps
            assert ia.fixpoint == pr.fixpoint


class TestOnePlayer:
    def test_procedures_equal_argmax_refinement(self, corpus_games):
        game = corpus_games["one_player_two_stage"]
        report = verify_equivalences(game)
        final = report["traces"]["ia"].steps[-1]
        values = {s: oracles.tree_walk_payoff(game, (s,), 0)
                  for s in game.strategies(0)}
        top = max(values.values())
        assert set(final.part(0)) == {s for s, v in values.items()
                                      if v == top}


class TestSophisticationIndex:
    def test_root_has_maximal_index(self, corpus_games):
        for game in corpus_games.values():
            trace = iterated_admissibility(game)
            for i in range(len(game.players)):
                assert sophistication_index(game, i, trace, ()) == \
                    trace.fixpoint

    def test_monotone_along_paths(self, corpus_games):
        for game in corpus_games.values():
            trace = iterated_admissibility(game)
            for i in range(len(game.players)):
                for h in game.nonterminal:
                    m_h = sophistication_index(game, i, trace, h)
                    for depth in range(len(h) + 1):
                        m_prefix = sophistication_index(game, i, trace,
                                                        h[:depth])
                        assert m_prefix >= m_h

    def test_centipede_third_node(self, corpus_games):
        game = corpus_games["centipede_3"]
        trace = iterated_admissibility(game)
        h2 = game.nonterminal[2]
        assert sophistication_index(game, 0, trace, h2) == 1
        assert sophistication_index(game, 1, trace, h2) == 2

    def test_history_reachable_only_by_first_round_victims(self):
        game = dsl.elaborate(dsl.parse("""players P1 P2
at / actions P1: Out In P2: w
at /(In,w) actions P1: w P2: L R
payoff /(Out,w) = 3, 1
payoff /(In,w)/(w,L) = 1, 0
payoff /(In,w)/(w,R) = 0, 2
"""))
        trace = iterated_admissibility(game)
        assert trace.fixpoint >= 1
        h = (("In", "w"),)
        assert sophistication_index(game, 1, trace, h) == 0

    def test_terminal_or_unknown_history_is_a_game_error(self,
                                                          corpus_games):
        game = corpus_games["centipede_3"]
        trace = iterated_admissibility(game)
        for h in (game.terminal[0], (("x", "zzz"),)):
            with pytest.raises(GameError, match=re.escape(format_path(h))):
                sophistication_index(game, 0, trace, h)

    def test_player_index_out_of_range_is_a_game_error(self,
                                                       corpus_games):
        game = corpus_games["centipede_3"]
        trace = iterated_admissibility(game)
        for i in (5, -1):
            with pytest.raises(GameError, match="no player %d: the game has "
                               "players 0..1" % i):
                sophistication_index(game, i, trace, ())

    def test_trace_of_another_game_is_a_game_error(self):
        """Two 2x2 games with the same action names: A's index read off
        B's trace would be 2, where A's own trace gives 0."""
        a, b = (dsl.elaborate(dsl.parse(
            "players A B\nmatrix A: T B B: L R\n" + rows))
            for rows in ("T: 1,1 0,0\nB: 0,0 1,1\n",
                         "T: 2,2 2,0\nB: 0,0 0,2\n"))
        assert sophistication_index(a, 0, iterated_admissibility(a), ()) == 0
        with pytest.raises(GameError, match="another game"):
            sophistication_index(a, 0, iterated_admissibility(b), ())

    def test_best_rationalization_of_final_witnesses(self, corpus_games):
        """Final-step justifiers hold the cautious-strong-belief ladder up
        to the deepest step consistent with each history."""
        for name in ("centipede_3", "bos_outside_option",
                     "three_round_static"):
            game = corpus_games[name]
            trace = prudent_rationalizability_cnps(game)
            n_final = trace.fixpoint + 1
            for (n, i, s), rec in trace.witnesses.items():
                if n != n_final:
                    continue
                for h in game.nonterminal:
                    m_h = sophistication_index(game, i, trace, h)
                    for m in range(m_h + 1):
                        ev = co_event_ids(game, i, trace.steps[m])
                        assert c_strongly_believes(rec.belief, ev)


class TestReducedVariants:
    def test_static_reduced_equals_full(self, corpus_games):
        game = corpus_games["three_round_static"]
        ia_r, pr_r = reduced_variants(game)
        ia = iterated_admissibility(game)
        assert ia_r.step_sizes() == ia.step_sizes()
        assert ia_r.steps == ia.steps

    def test_reduced_sets_are_class_projections(self, corpus_games):
        for name in ("centipede_3", "bos_outside_option",
                     "one_player_two_stage", "two_stage_coordination"):
            game = corpus_games[name]
            ia_r, pr_r = reduced_variants(game)
            ia = iterated_admissibility(game)
            assert len(ia_r.steps) == len(ia.steps)
            for step_r, step_f in zip(ia_r.steps, ia.steps):
                for i in range(len(game.players)):
                    full = set(step_f.part(i))
                    reps = set(step_r.part(i))
                    projected = set()
                    for cls in oracles.reduce_by_enumeration(game, i):
                        members = set(cls)
                        hit = members & full
                        assert hit in (set(), members)  # class-closed
                        if hit:
                            projected.add(cls[0])
                    assert projected == reps

    def test_reduced_witnesses_verified(self, corpus_games):
        for name in ("centipede_3", "alternating_threats"):
            game = corpus_games[name]
            ia_r, pr_r = reduced_variants(game)
            assert pr_r.all_verified()
            assert pr_r.steps == ia_r.steps

    def test_random_games(self):
        for g in small_games(15, start=500):
            ia_r, pr_r = reduced_variants(g)
            assert pr_r.all_verified()

    def test_order_of_full_and_reduced_runs_is_irrelevant(self):
        """The full and the reduced strategic forms keep separate twin
        caches: running either first leaves the other's output unchanged."""
        def outputs(game, reduced_first):
            def full():
                rep = verify_equivalences(game)
                traces = rep.pop("traces")
                return rep, {n: t.to_json() for n, t in traces.items()}

            def reduced():
                return [t.to_json() for t in reduced_variants(game)]
            if reduced_first:
                red = reduced()
                return full(), red
            return full(), reduced()

        smaller = 0
        for path in corpus.corpus_paths():
            first = outputs(dsl.load(path), reduced_first=True)
            second = outputs(dsl.load(path), reduced_first=False)
            assert first == second, path.stem
            game = dsl.load(path)
            smaller += (game.reduced_form().counts
                        != game.strategic_form().counts)
        assert smaller >= 3


class TestTraceSerialization:
    def test_json_roundtrip_and_determinism(self, corpus_games):
        game = corpus_games["weak_dom_2x2"]
        a = prudent_rationalizability_cnps(game).to_json()
        b = prudent_rationalizability_cnps(game).to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert "timings" not in a
        with_timing = prudent_rationalizability_cnps(game).to_json(
            include_timings=True)
        assert "timings" in with_timing

    def test_exclusions_carry_mixtures(self, corpus_games):
        game = corpus_games["weak_dom_2x2"]
        doc = prudent_rationalizability_cps(game).to_json()
        assert doc["exclusions"]
        for entry in doc["exclusions"]:
            assert entry["mixture"]
            assert all(c["ok"] for c in entry["checks"])

    def test_belief_json_shapes(self, corpus_games):
        game = corpus_games["weak_dom_2x2"]
        cnps = prudent_rationalizability_cnps(game).to_json()
        witness = cnps["witnesses"][0]
        assert witness["belief"]["kind"] == "cnps-prior"
        assert all("mass" in row for row in witness["belief"]["prior"])
        cps = prudent_rationalizability_cps(game).to_json()
        witness = cps["witnesses"][0]
        assert witness["belief"]["kind"] == "cps"
        assert witness["belief"]["events"]


class TestRandomGames:
    def test_verify_on_fresh_seeds(self):
        for g in small_games(40, start=700, max_players=3, max_strategies=6):
            report = verify_equivalences(g)
            assert report["all_verified"]
