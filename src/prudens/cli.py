"""Command-line front end.

    prudens ia|pr-cnps|pr-cps|reduced <files...> [--format json|table]
        [--max-strategies N] [--timings]
    prudens verify [files...] [--format json|table] [--max-strategies N]
    prudens fuzz --seed N --count N [--jobs N] [--out-dir DIR]
        [--max-strategies N]
    prudens fmt <files...> [--write]

``verify`` and the trace commands run through one per-file loop: each
file is loaded, the command gives its report entries, and an audit
violation becomes the file's error entry instead (``verify``'s with
``"ok": false``), as does a game over a size cap, marked ``"refused":
true`` (REFUSED in tables).  ``--max-strategies`` is the per-player
strategy cap, ``Game.STRATEGY_CAP`` by default; under ``reduced`` it caps
each player's behavioral-equivalence classes, counted from the tree
before any is listed, so a game over the plan cap with few classes
runs; under ``fuzz`` it bounds the generator instead, default 6.

Exit status: 0 success, 2 usage problems (a file that cannot be read
or, under ``fmt --write``, written; a ``fmt --write`` argument that is
not a file as given, refused before anything is written; ``--jobs``,
``--max-strategies`` or fuzz ``--players`` or ``--histories`` below 1,
fuzz ``--actions`` below 2 or ``--count`` below 0; an option the command
does not take, such as ``--timings`` on ``verify`` or ``fuzz``; a game
with a player over ``--max-strategies`` or a profile space over
``StrategicForm.PROFILE_CAP``, refused before any plan or class is
enumerated and, under a per-file command, reported in the file's entry; a fuzz
``--out-dir`` that is not a directory, found before the campaign
starts; output that cannot be written, such as a closed stdout), 3
parse diagnostics (a file that is not UTF-8 included), 4 an audit
violation in ``verify``, ``ia``, ``pr-cnps``, ``pr-cps``,
``reduced`` or ``fuzz``, also when a file was refused (fuzz writes the
shrunk offending game into ``--out-dir``).  File arguments that do not exist are also resolved
against the bundled corpus (or ``$PRUDENS_CORPUS``) when read;
``fmt --write`` never writes to the corpus.  ``verify`` with no files
runs the whole corpus.  Reports are deterministic for a fixed (input,
configuration, seed); ``--timings``, taken by the trace commands only,
adds wall-clock fields to each trace at the cost of that.
"""

import argparse
import json
import multiprocessing
import os
import sys
from collections import Counter
from pathlib import Path

from . import corpus, dsl, generator, procedures, shrink
from .dsl import GameDocError
from .game import Game, SizeLimit

SCHEMA = 1


def _emit(report, fmt, table_renderer):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        table_renderer(report)


def _read_doc(name):
    """(path, document) of a file argument, resolved against the corpus.
    Exits 2 if the file cannot be read, 3 if it is not UTF-8 or does not
    parse."""
    path = corpus.resolve(name)
    try:
        return path, dsl.parse(path.read_text(encoding="utf-8"))
    except OSError as exc:
        print("cannot read %s: %s" % (name, exc), file=sys.stderr)
        raise SystemExit(2)
    except (UnicodeDecodeError, GameDocError) as exc:
        print("%s: %s" % (path, exc), file=sys.stderr)
        raise SystemExit(3)


def _print_trace_table(report):
    for entry in report["results"]:
        if "error" in entry:
            print("== %s %s: %s" % (entry["file"], entry.get(
                "refused") and "REFUSED" or "VIOLATION", entry["error"]))
            continue
        trace = entry["trace"]
        print("== %s [%s]" % (entry["file"], trace["procedure"]))
        for n, step in enumerate(trace["steps"]):
            cells = "; ".join("%s: %s" % (p, " | ".join(step[p]))
                              for p in trace["players"])
            print("  step %d: %s" % (n, cells))
        print("  fixpoint N=%d  witnesses=%d  exclusions=%d  verified=%s"
              % (trace["fixpoint"], len(trace["witnesses"]),
                 len(trace["exclusions"]), entry["all_verified"]))


def _verify_entries(game, args):
    rep = procedures.verify_equivalences(game)
    keys = ("fixpoint", "step_sizes", "witnesses", "exclusions",
            "all_verified")
    return [dict({key: rep[key] for key in keys}, ok=True)]


def _print_verify_table(report):
    for entry in report["results"]:
        if entry["ok"]:
            print("%-50s N=%d sizes=%s verified=%s"
                  % (entry["file"], entry["fixpoint"],
                     "".join(str(tuple(s)) for s in entry["step_sizes"]),
                     entry["all_verified"]))
        else:
            print("%-50s %s: %s" % (entry["file"], entry.get(
                "refused") and "REFUSED" or "VIOLATION", entry["error"]))


def _cmd_files(args):
    """A per-file command: each file's report entries from the command's
    ``entries``, or its error entry on an audit violation (exit 4) or a
    game over a size cap (refused, exit 2 unless a violation occurred)."""
    results = []
    status = 0
    for name in args.files or [str(p) for p in corpus.corpus_paths()]:
        path, doc = _read_doc(name)
        # parse has run the game's tree checks, so this cannot fail
        game = dsl.elaborate(doc, strategy_cap=args.max_strategies)
        try:
            entries = args.entries(game, args)
        except procedures.EquivalenceViolation as exc:
            entries = [dict(args.violation, error=str(exc))]
            status = 4
        except SizeLimit as exc:
            entries = [dict(args.violation, error=str(exc), refused=True)]
            status = status or 2
        results.extend(dict(entry, file=str(path)) for entry in entries)
    report = {"schema": SCHEMA, "command": args.command, "results": results}
    _emit(report, args.format, args.table)
    return status


def _fuzz_seed(seed, index):
    return seed * 1_000_003 + index


def _fuzz_one(task):
    seed, index, bounds = task
    doc = generator.generate_random_game(_fuzz_seed(seed, index), **bounds)
    game = dsl.elaborate(doc)
    entry = {
        "index": index,
        "players": len(game.players),
        "histories": len(game.nonterminal),
    }
    try:
        rep = procedures.verify_equivalences(game)
        entry["fixpoint"] = rep["fixpoint"]
    except procedures.ProcedureError as exc:
        entry["error"] = str(exc)
    return entry


def _violation_predicate(game):
    try:
        procedures.verify_equivalences(game)
    except procedures.ProcedureError:
        return True
    return False


def _cmd_fuzz(args):
    if not os.path.isdir(args.out_dir):
        print("--out-dir %s is not a directory" % args.out_dir,
              file=sys.stderr)
        return 2
    bounds = {
        "max_players": args.players,
        "max_histories": args.histories,
        "max_actions": args.actions,
        "max_strategies": args.max_strategies,
    }
    tasks = [(args.seed, index, bounds) for index in range(args.count)]
    if args.jobs > 1:
        with multiprocessing.Pool(args.jobs) as pool:
            entries = list(pool.imap(_fuzz_one, tasks, chunksize=16))
    else:
        entries = [_fuzz_one(task) for task in tasks]

    histogram = Counter()
    players = Counter()
    violations = []
    for entry in entries:
        players[entry["players"]] += 1
        if "error" in entry:
            violations.append(entry)
        else:
            histogram[entry["fixpoint"]] += 1

    written = []
    for entry in violations:
        doc = generator.generate_random_game(
            _fuzz_seed(args.seed, entry["index"]), **bounds)
        small = shrink.shrink_document(doc, _violation_predicate)
        out = "%s/counterexample-%d-%d.seqgame" % (
            args.out_dir, args.seed, entry["index"])
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(dsl.serialize(small))
        written.append(out)

    report = {
        "schema": SCHEMA,
        "command": "fuzz",
        "seed": args.seed,
        "count": args.count,
        "bounds": {k: bounds[k] for k in sorted(bounds)},
        "fixpoint_histogram": {str(k): v
                               for k, v in sorted(histogram.items())},
        "players_histogram": {str(k): v for k, v in sorted(players.items())},
        "violations": [{"index": e["index"], "error": e["error"]}
                       for e in violations],
        "counterexamples": written,
    }

    def table(rep):
        print("fuzz seed=%d count=%d" % (rep["seed"], rep["count"]))
        print("fixpoint histogram: %s" % rep["fixpoint_histogram"])
        print("players histogram: %s" % rep["players_histogram"])
        if rep["violations"]:
            for v, path in zip(rep["violations"], rep["counterexamples"]):
                print("VIOLATION at index %d: %s -> %s"
                      % (v["index"], v["error"], path))
        else:
            print("no violations")

    _emit(report, args.format, table)
    return 4 if violations else 0


def _cmd_fmt(args):
    if args.write:
        for name in args.files:
            if not Path(name).is_file():
                print("cannot write %s: --write needs a file that exists as "
                      "given (corpus names are read only)" % name,
                      file=sys.stderr)
                return 2
    for name in args.files:
        path, doc = _read_doc(name)
        text = dsl.serialize(doc)
        if args.write:
            try:
                path.write_text(text, encoding="utf-8")
            except OSError as exc:
                print("cannot write %s: %s" % (name, exc), file=sys.stderr)
                return 2
        else:
            sys.stdout.write(text)
    return 0


def _int_at_least(minimum):
    """An argparse type: an int no less than minimum (a usage error
    otherwise)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (minimum, value))
        return value
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="prudens",
        description="exact cautious-reasoning solver for finite sequential "
                    "games")
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p, cap, cap_help):
        p.add_argument("--format", choices=("json", "table"), default="table")
        p.add_argument("--max-strategies", type=_int_at_least(1),
                       default=cap, help=cap_help + " (default %(default)d)")

    def per_file(name, summary, entries, table, files="+", **violation):
        """A command run by ``_cmd_files``: ``entries(game, args)`` gives a
        file's report entries, ``violation`` the extra fields of its error
        entry."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("files", nargs=files,
                       help=".seqgame files (bare names resolve against "
                            "the corpus)")
        options(p, Game.STRATEGY_CAP,
                "most strategies a player may have; a game over it is "
                "refused before any plan is listed")
        p.set_defaults(func=_cmd_files, entries=entries, table=table,
                       violation=violation)
        return p

    def trace_command(name, summary, run):
        def entries(game, args):
            return [{"trace": trace.to_json(include_timings=args.timings),
                     "all_verified": trace.all_verified()}
                    for trace in run(game)]
        p = per_file(name, summary, entries, _print_trace_table)
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock fields in each trace "
                            "(trace commands only; non-deterministic)")

    trace_command("ia", "iterated admissibility trace",
                  lambda game: [procedures.iterated_admissibility(game)])
    trace_command("pr-cnps", "cautious procedure, non-standard priors",
                  lambda game: [
                      procedures.prudent_rationalizability_cnps(game)])
    trace_command("pr-cps", "cautious procedure, explicit standard systems",
                  lambda game: [
                      procedures.prudent_rationalizability_cps(game)])
    per_file("verify", "run all procedures and cross-check (default: "
                       "whole corpus)",
             _verify_entries, _print_verify_table, files="*", ok=False)
    trace_command("reduced", "reduced-strategy variants (equivalence classes)",
                  procedures.reduced_variants)

    p = sub.add_parser("fuzz", help="random-game differential campaign")
    options(p, 6, "most strategies a generated player may have")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_int_at_least(0), default=100)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--players", type=_int_at_least(1), default=3)
    p.add_argument("--histories", type=_int_at_least(1), default=12)
    p.add_argument("--actions", type=_int_at_least(2), default=3)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("fmt", help="canonical reformatting")
    p.add_argument("files", nargs="+")
    p.add_argument("--write", action="store_true")
    p.set_defaults(func=_cmd_fmt)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        status = args.func(args)
        # a closed stdout shows when the last buffered output is written
        sys.stdout.flush()
        return status
    except SystemExit as exc:
        return exc.code
    except SizeLimit as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull, so that the interpreter's own flush of
        # what is still buffered at exit stays quiet.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("cannot write output: stdout was closed", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
