"""Write the stored pool of one workload: ``expected/<workload>.json``.

    python3 perfbench/make_expected.py --workload campaign|bimatrix|centipede

Verifies every pool game once with tracing on and records its answer
summary (fixpoint, step sizes, witnesses per procedure, exclusions) and
its work, the LP tableau cells summed over its solves.  Both are
deterministic, so rerunning on the same program rewrites the same file.
The summary does not depend on pivot choices, because maximal
simultaneous deletion is unique; a program change that alters it is a
wrong answer, not a reason to rewrite the pool.

The work does depend on the program's LP formulation, and it decides
the strata a run draws its games from (``bench_workloads.run_sequence``).
The stored files were written on the program the baseline was measured
on (``BASELINE.md``); do not rewrite them on a later program, or every
run's list of games changes and runs stop being comparable with the
baseline.
"""

import argparse
import json
import sys

import run


def pool_entry(prudens, bench_trace, workload, seed, text):
    tracer = bench_trace.Tracer()
    tracer.install(prudens)
    try:
        report = run.verify_traced(prudens, tracer, text)
    finally:
        tracer.uninstall()
    if not report["all_verified"]:
        raise RuntimeError("%s game %d failed its audit" % (workload, seed))
    return {"seed": seed, "summary": run.summary(report),
            "work": sum(bench_trace.lp_cells(tracer))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "bimatrix", "centipede"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import prudens
    import bench_trace
    import bench_workloads

    games = []
    for seed in range(bench_workloads.POOL_SIZE[args.workload]):
        text = bench_workloads.game_text(args.workload, seed)
        games.append(pool_entry(prudens, bench_trace, args.workload, seed,
                                text))
    run.EXPECTED.mkdir(exist_ok=True)
    path = run.EXPECTED / ("%s.json" % args.workload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"workload": %s, "games": [\n' % json.dumps(args.workload))
        fh.write(",\n".join(json.dumps(game, sort_keys=True)
                            for game in games))
        fh.write("\n]}\n")
    print("wrote %d games to %s" % (len(games), path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
