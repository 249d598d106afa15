"""Benchmark: verify one game at a time and check every answer.

    python3 perfbench/run.py --workload campaign|bimatrix|centipede \
        --seed N --seconds S --trace 0|1

The unit of work is "verify one game": parse the `.seqgame` text,
elaborate it, build the strategic form and run
``procedures.verify_equivalences``, which audits every witness and
exclusion.  One caller does this closed loop in one process and one
thread, waiting for each verdict before sending the next game, until
``--seconds`` have passed.  Games come from the workload's stored pool
(``bench_workloads``), and each verdict is compared with the pool's
expected summary: a game fails if it raises, if ``all_verified`` is
false, or if its summary differs.

With ``--trace 0`` the last line of output is a JSON object carrying the
end-to-end metrics.  With ``--trace 1`` the run's first ``FIXED_GAMES``
games, a fixed list whatever the program's speed and ``--seconds``, are
each verified twice back to back, untraced and then with spans recorded
around each layer's entry points (``bench_trace``); the last line
carries the per-layer metrics, summed over that list, instead, and the
spans are written to ``perfbench/out``.
The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

import argparse
import gc
import hashlib
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected"

# Two tiny games verified during set-up: one needs a slack LP, the other
# has a second stage, so every layer's code has run before timing starts.
WARMUP_TEXTS = (
    "players Row Col\n"
    "matrix Row: top mid bot Col: L R\n"
    "top: 4,1 0,0\nmid: 0,0 4,1\nbot: 1,0 1,1\n",
    "players A B\n"
    "at / actions A: go stop B: go stop\n"
    "at /(go,go) actions A: x y B: x y\n"
    "payoff /(go,stop) = 1, 0\npayoff /(stop,go) = 0, 1\n"
    "payoff /(stop,stop) = 1, 1\npayoff /(go,go)/(x,x) = 3, 3\n"
    "payoff /(go,go)/(x,y) = 0, 0\npayoff /(go,go)/(y,x) = 0, 0\n"
    "payoff /(go,go)/(y,y) = 2, 2\n",
)
# The traced run verifies, and the trace digest covers, this many leading
# games of a run's sequence, so that two commits are compared on the same
# games.  Each is a whole number of stratum rounds (bench_workloads.STRATA).
FIXED_GAMES = {"campaign": 300, "bimatrix": 6, "centipede": 20}
# game_tail_ms is this percentile: the highest one with at least ten games
# above it in a run of the parent program.  It is fixed rather than
# recomputed per run, so that a faster program, which fits more games into
# a run, is not judged at a higher percentile.
TAIL_PERCENTILE = {"campaign": 98, "bimatrix": 50, "centipede": 75}


def verify(prudens, text):
    game = prudens.dsl.elaborate(prudens.dsl.parse(text))
    game.strategic_form()
    return prudens.procedures.verify_equivalences(game)


def verify_traced(prudens, tracer, text):
    root = tracer.begin_game()
    try:
        doc = tracer.wrap("dsl.parse", prudens.dsl.parse)(text)
        game = tracer.wrap("dsl.elaborate", prudens.dsl.elaborate)(doc)
        tracer.wrap("Game.strategic_form", game.strategic_form, keep=True)()
        return tracer.wrap("procedures.verify_equivalences",
                           prudens.procedures.verify_equivalences)(game)
    finally:
        tracer.close(root)


def summary(report):
    """The answer a game must reproduce: unique whatever the pivot rule."""
    return {"fixpoint": report["fixpoint"],
            "step_sizes": [list(sizes) for sizes in report["step_sizes"]],
            "witnesses": dict(report["witnesses"]),
            "exclusions": report["exclusions"]}


def check(report, entry):
    """Why a verified game's report is wrong, or None when it is right."""
    if not report["all_verified"]:
        return "not every witness and exclusion verified"
    if summary(report) != entry["summary"]:
        return "summary %s differs from the expected %s" % (
            summary(report), entry["summary"])
    return None


def trace_json(report):
    return json.dumps([trace.to_json() for trace in report["traces"].values()],
                      sort_keys=True)


def set_up():
    """Import prudens from SRC and verify the warm-up games: the set-up a
    process pays before its first game.  Returns (seconds, package)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import prudens
    if Path(prudens.__file__).resolve().parent != SRC / "prudens":
        raise ImportError("prudens was not imported from %s" % SRC)
    for text in WARMUP_TEXTS:
        if not verify(prudens, text)["all_verified"]:
            raise RuntimeError("warm-up game failed its audit")
    return time.perf_counter() - t0, prudens


class Outcome:
    """Per-game times and failures of one pass over the games."""

    def __init__(self):
        self.seconds = []
        self.failures = []
        self.digest = hashlib.sha256()
        self.digested = 0


def verify_one(outcome, entry, text, verify_fn, digest_games=0):
    """Time one verification and record whether its answer is right."""
    t0 = time.perf_counter()
    try:
        report = verify_fn(text)
    except Exception as exc:  # one bad game must not end the run
        report, error = None, "%s: %s" % (type(exc).__name__, exc)
    outcome.seconds.append(time.perf_counter() - t0)
    if report is not None:
        error = check(report, entry)
    if error is not None:
        outcome.failures.append((entry["seed"], error))
    elif outcome.digested < digest_games:
        outcome.digest.update(trace_json(report).encode())
        outcome.digested += 1


def run_pass(prudens, games, seconds, digest_games):
    """Closed loop over ``games`` until ``seconds`` have passed."""
    outcome = Outcome()
    start = time.perf_counter()
    for entry, text in games:
        if time.perf_counter() - start >= seconds:
            break
        verify_one(outcome, entry, text, lambda t: verify(prudens, t),
                   digest_games)
    return outcome


def traced_pass(prudens, bench_trace, games, digest_games):
    """Verify each of ``games`` twice back to back: untraced, then with
    spans recorded.  Pairing the two keeps the tracing overhead apart
    from the machine's drift in speed."""
    plain, traced = Outcome(), Outcome()
    tracer = bench_trace.Tracer()
    for entry, text in games:
        verify_one(plain, entry, text, lambda t: verify(prudens, t),
                   digest_games)
        tracer.install(prudens)
        try:
            verify_one(traced, entry, text,
                       lambda t: verify_traced(prudens, tracer, t))
        finally:
            tracer.uninstall()
    return plain, traced, tracer


def percentile(values, pct):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, outcome, setup_s):
    ms = [s * 1e3 for s in outcome.seconds]
    pct = TAIL_PERCENTILE[workload]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "games_per_s": (len(ms) / sum(outcome.seconds), "1/s"),
        "game_p50_ms": (statistics.median(ms), "ms"),
        "game_tail_ms": (percentile(ms, pct), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    above = sum(v > metrics["game_tail_ms"][0] for v in ms)
    return metrics, ["game_tail_ms is p%d over %d games, %d above it"
                     % (pct, len(ms), above)]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "bimatrix", "centipede"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "prudens" / "__init__.py").is_file():
        print("perfbench: no prudens sources under %s" % SRC, file=sys.stderr)
        return 2
    setup_s, prudens = set_up()

    import bench_trace
    import bench_workloads

    pool = bench_workloads.load_pool(EXPECTED, args.workload)
    games = bench_workloads.run_sequence(args.workload, pool, args.seed)
    # keep full collections from scanning the benchmark's own data
    gc.collect()
    gc.freeze()
    fixed_games = FIXED_GAMES[args.workload]
    if args.trace:
        outcome, traced, tracer = traced_pass(
            prudens, bench_trace, itertools.islice(games, fixed_games),
            fixed_games)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / ("spans-%s-%d.jsonl" % (args.workload, args.seed)))
        metrics = bench_trace.layer_metrics(tracer, sum(outcome.seconds))
        failures = outcome.failures + traced.failures
        attempted = len(outcome.seconds) + len(traced.seconds)
        notes = ["each of %d games verified untraced, then traced"
                 % len(traced.seconds)]
    else:
        outcome = run_pass(prudens, games, args.seconds, fixed_games)
        metrics, notes = end_to_end(args.workload, outcome, setup_s)
        failures = outcome.failures
        attempted = len(outcome.seconds)

    print("workload %s seed %d: %d verifications, %d failed"
          % (args.workload, args.seed, attempted, len(failures)))
    for seed, error in failures[:10]:
        print("  FAILED game %s: %s" % (seed, error))
    print("trace_sha256 %s over the first %d games"
          % (outcome.digest.hexdigest(), outcome.digested))
    for note in notes:
        print(note)
    rows = [("failed_frac", (len(failures) / attempted, "ratio"))]
    for name, (value, unit) in rows + list(metrics.items()):
        print("%-36s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
