"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavyweight
random-game campaign (10,000 seeded games, shared by several criteria)
runs once per session in a small worker pool.
"""

import json
import multiprocessing
import random
import time
import warnings
from collections import Counter
from fractions import Fraction

import pytest

from prudens import cli, corpus, dominance, dsl, generator
from prudens.beliefs import (VacuousEventWarning, c_strongly_believes,
                             cautiously_believes, weakly_believes)
from prudens.best_reply import ReplyAnalysis
from prudens.hyperreal import (Hyperreal, infinitely_greater,
                               ratio_st_is_zero)
from prudens.procedures import (iterated_admissibility,
                                prudent_rationalizability_cnps,
                                reduced_variants, verify_equivalences)

from oracles import (c_strongly_believes_intersection_form,
                     reduce_by_enumeration)
from test_beliefs import random_prior
from test_cli import run_cli

CAMPAIGN_SEED = 20_240_817
CAMPAIGN_SIZE = 10_000
BOUNDS = {"max_players": 3, "max_histories": 12, "max_actions": 3,
          "max_strategies": 6}


def announce(number, name, ok, detail):
    print("ACCEPTANCE %2d %-38s %s (%s)"
          % (number, name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (name, detail)


@pytest.fixture(scope="module")
def campaign():
    tasks = [(CAMPAIGN_SEED, index, BOUNDS)
             for index in range(CAMPAIGN_SIZE)]
    t0 = time.perf_counter()
    with multiprocessing.Pool(2) as pool:
        entries = list(pool.imap(cli._fuzz_one, tasks, chunksize=64))
    seconds = time.perf_counter() - t0
    histogram = Counter(e.get("fixpoint") for e in entries
                        if "error" not in e)
    return {
        "entries": entries,
        "violations": [e for e in entries if "error" in e],
        "histogram": histogram,
        "seconds": seconds,
    }


@pytest.fixture(scope="module")
def corpus_reports(corpus_games):
    return {name: verify_equivalences(game)
            for name, game in sorted(corpus_games.items())}


def test_01_stepwise_agreement_with_elimination(campaign, corpus_reports):
    """Belief-procedure step sets match iterated admissibility everywhere:
    bundled corpus plus the seeded campaign, all fully audited."""
    assert len(corpus_reports) >= 10
    corpus_ok = all(rep["all_verified"] for rep in corpus_reports.values())
    deep = sum(v for k, v in campaign["histogram"].items() if k >= 3)
    ok = corpus_ok and not campaign["violations"] \
        and len(campaign["entries"]) == CAMPAIGN_SIZE and deep > 0
    announce(1, "prior-system procedure == elimination", ok,
             "corpus %d games; campaign %d games in %.0fs; violations %d; "
             "%d games with 3+ rounds"
             % (len(corpus_reports), len(campaign["entries"]),
                campaign["seconds"], len(campaign["violations"]), deep))


def test_02_standard_system_agreement(campaign, corpus_reports):
    """The explicit-standard-system procedure agrees step by step too;
    its witnesses are audited inside the same verification runs."""
    cps_audited = all(
        rep["traces"]["pr-cps"].all_verified()
        and rep["traces"]["pr-cps"].step_sizes()
        == rep["traces"]["ia"].step_sizes()
        for rep in corpus_reports.values())
    ok = cps_audited and not campaign["violations"]
    announce(2, "standard-system procedure == elimination", ok,
             "same campaign, zero violations: %s"
             % (not campaign["violations"]))


def test_03_witness_audit_coverage(corpus_games, corpus_reports):
    witnesses = 0
    exclusions = 0
    for name, rep in corpus_reports.items():
        game = corpus_games[name]
        for proc in ("pr-cnps", "pr-cps"):
            trace = rep["traces"][proc]
            for n in range(1, trace.fixpoint + 2):
                step = trace.steps[min(n, len(trace.steps) - 1)]
                for i in range(len(game.players)):
                    for s in step.part(i):
                        rec = trace.witnesses[(n, i, s)]
                        assert rec.verified()
                        witnesses += 1
            for rec in trace.exclusions.values():
                assert rec.verified()
                exclusions += 1
    ok = witnesses > 0 and exclusions > 0
    announce(3, "witness and exclusion audit", ok,
             "%d justifiers, %d dominance certificates, all re-verified"
             % (witnesses, exclusions))


def test_04_dual_route_equivalence(corpus_games):
    """No dominating mixture exists iff a full-support justifier does, on
    every restriction drawn from elimination traces."""
    instances = 0
    discrepancies = 0

    def examine(game):
        nonlocal instances, discrepancies
        form = game.strategic_form()
        trace = iterated_admissibility(game)
        seen = set()
        for Q in trace.steps:
            key = tuple(tuple(sorted(s.name() for s in Q.part(i)))
                        for i in range(form.n))
            if key in seen:
                continue
            seen.add(key)
            q_sets = [frozenset(form.index[i][s] for s in Q.part(i))
                      for i in range(form.n)]
            for i in range(form.n):
                cols = dominance.Columns(form, i, q_sets)
                for sid in sorted(q_sets[i]):
                    dominated = dominance.dominating_mixture_ids(
                        form, q_sets, i, sid, cols)
                    justifier = dominance.justifier_ids(
                        form, q_sets, i, sid, cols)
                    instances += 1
                    if (dominated is None) != (justifier is not None):
                        discrepancies += 1
                    if dominated is not None and not \
                            dominance.mixture_dominates_ids(
                                form, q_sets, i, sid, dominated, cols):
                        discrepancies += 1
                    if justifier is not None and not \
                            dominance.measure_justifies_ids(
                                form, q_sets, i, sid, justifier, cols):
                        discrepancies += 1

    for game in corpus_games.values():
        examine(game)
    k = 0
    while instances < 10_000:
        examine(generator.generate_game(CAMPAIGN_SEED * 1_000_003 + k,
                                        **BOUNDS))
        k += 1
    announce(4, "dominance/justifier duality", discrepancies == 0,
             "%d instances, %d discrepancies" % (instances, discrepancies))


def test_05_belief_operator_properties(corpus_games):
    rng = random.Random(424242)
    instances = 0
    cautious_failures = 0
    form_disagreements = 0
    games = [corpus_games[k] for k in sorted(corpus_games)]
    while instances < 10_000:
        game = games[rng.randrange(len(games))]
        i = rng.randrange(len(game.players))
        belief = random_prior(game, i, rng, degree=rng.randrange(1, 3))
        cos = list(range(len(belief.family.form.co_profiles[i])))
        for _ in range(10):
            h = game.nonterminal[rng.randrange(len(game.nonterminal))]
            ev = frozenset(rng.sample(cos, rng.randrange(1, len(cos) + 1)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", VacuousEventWarning)
                held = cautiously_believes(belief, h, ev)
            if held and not weakly_believes(belief, h, ev):
                cautious_failures += 1
            if c_strongly_believes(belief, ev) != \
                    c_strongly_believes_intersection_form(belief, ev):
                form_disagreements += 1
            instances += 1

    # the stored non-monotonicity fixture
    from prudens.beliefs import ConditioningFamily, PriorCNPS
    game = corpus_games["remark_nonmonotone"]
    D = 4
    e = Hyperreal.epsilon(D)
    e2 = Hyperreal.epsilon(D, power=2)
    form = game.strategic_form()
    ids = {form.co_profile_strategies(0, c)[0].name(): c for c in range(3)}
    belief = PriorCNPS(ConditioningFamily(game, 0, form), {
        ids["a"]: Hyperreal.one(D) - e - e2,
        ids["b"]: e,
        ids["c"]: e2,
    })
    small = frozenset({ids["a"]})
    large = frozenset({ids["a"], ids["c"]})
    fixture_ok = (small <= large
                  and c_strongly_believes(belief, small)
                  and not c_strongly_believes(belief, large))
    ok = (cautious_failures == 0 and form_disagreements == 0 and fixture_ok)
    announce(5, "belief-operator properties", ok,
             "%d instances; cautious=>weak failures %d; form mismatches %d; "
             "non-monotonicity fixture %s"
             % (instances, cautious_failures, form_disagreements, fixture_ok))


def test_06_hyperreal_kernel_properties(campaign):
    rng = random.Random(987654321)
    D = 8

    def poly():
        coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))
                  for _ in range(rng.randrange(0, 4))]
        return Hyperreal(coeffs, D)

    def nonneg(v):
        k = v.leading_degree()
        return v if k is None or v.coeffs[k] > 0 else -v

    checked = 0
    for _ in range(10_000):
        a, b, c = poly(), poly(), poly()
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a < b:
            assert a + c < b + c
            if c > Hyperreal.zero(D):
                assert a * c < b * c
        assert (a + b).standard_part() == \
            a.standard_part() + b.standard_part()
        assert (a * b).standard_part() == \
            a.standard_part() * b.standard_part()
        if a <= b:
            assert a.standard_part() <= b.standard_part()
        x, y = nonneg(a), nonneg(b)
        if x > Hyperreal.zero(D):
            assert infinitely_greater(x, y) == ratio_st_is_zero(y, x)
        checked += 1
    # the campaign ran every game at the per-run degree bound with no
    # overflow: any DegreeOverflow would have surfaced as a violation
    ok = checked == 10_000 and not campaign["violations"]
    announce(6, "hyperreal kernel property suites", ok,
             "%d random instances; campaign overflow-free" % checked)


def test_07_reduced_strategy_analogue(corpus_games):
    rng = random.Random(31337)
    games = 0
    closure_instances = 0
    for game in corpus_games.values():
        ia_r, pr_r = reduced_variants(game)
        assert ia_r.steps == pr_r.steps and pr_r.all_verified()
        games += 1
    for k in range(1_000):
        game = generator.generate_game(77_000_000 + k, **BOUNDS)
        ia_r, pr_r = reduced_variants(game)
        assert ia_r.steps == pr_r.steps and pr_r.all_verified()
        games += 1
    # weak best replies never split an equivalence class
    for name in ("centipede_3", "bos_outside_option", "entry_deterrence"):
        game = corpus_games[name]
        for i in range(len(game.players)):
            for _ in range(30):
                belief = random_prior(game, i, rng)
                form = game.strategic_form()
                analysis = ReplyAnalysis(belief, i)
                chosen = set(analysis.weak_sequential_ids())
                for cls in reduce_by_enumeration(game, i):
                    ids = {form.index[i][s] for s in cls}
                    hit = len(ids & chosen)
                    assert hit in (0, len(ids))
                    closure_instances += 1
    announce(7, "reduced-strategy analogue", True,
             "%d games agreed; %d class-closure instances"
             % (games, closure_instances))


def test_08_static_collapse(corpus_games):
    checked = 0
    for name, game in sorted(corpus_games.items()):
        if not game.is_static:
            continue
        ia = iterated_admissibility(game)
        pr = prudent_rationalizability_cnps(game)
        assert ia.steps == pr.steps
        assert ia.fixpoint == pr.fixpoint
        checked += 1
    announce(8, "static-game collapse to elimination", checked >= 5,
             "%d static corpus games, stepwise equal" % checked)


def test_09_parser_roundtrip_and_fuzz():
    for k in range(1_000):
        doc = generator.generate_random_game(55_000_000 + k)
        assert dsl.parse(dsl.serialize(doc)) == doc
    rng = random.Random(13)
    deadline = time.monotonic() + 60.0
    blobs = 0
    while time.monotonic() < deadline:
        blob = bytes(rng.randrange(256)
                     for _ in range(rng.randrange(200)))
        try:
            dsl.parse(blob.decode("utf-8", errors="replace"))
        except dsl.GameDocError:
            pass
        blobs += 1
    announce(9, "parser round-trip and byte fuzz", True,
             "1000 round-trips; %d random-byte documents, no crash" % blobs)


def test_10_deterministic_reports():
    fuzz_runs = []
    verify_runs = []
    for _ in range(2):
        code, out = run_cli(["fuzz", "--seed", "2024", "--count", "150",
                             "--format", "json"])
        assert code == 0
        fuzz_runs.append(out)
        code, out = run_cli(["verify", "--format", "json"])
        assert code == 0
        verify_runs.append(out)
    _, pooled = run_cli(["fuzz", "--seed", "2024", "--count", "150",
                         "--jobs", "2", "--format", "json"])
    ok = (fuzz_runs[0] == fuzz_runs[1]
          and verify_runs[0] == verify_runs[1]
          and pooled == fuzz_runs[0])
    announce(10, "byte-identical reports", ok,
             "fuzz identical: %s; verify identical: %s; pooled identical: %s"
             % (fuzz_runs[0] == fuzz_runs[1],
                verify_runs[0] == verify_runs[1],
                pooled == fuzz_runs[0]))
