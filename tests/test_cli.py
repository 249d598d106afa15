import json
import subprocess
import sys
from pathlib import Path

import pytest

from prudens import cli, corpus, dsl, shrink
from prudens.procedures import EquivalenceViolation


def run_cli(args, monkeypatch=None, cwd=None):
    """Invoke the entry point in-process, capturing stdout."""
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


class TestVerifyCommand:
    def test_corpus_green(self):
        code, out = run_cli(["verify", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert len(report["results"]) >= 10
        assert all(r["ok"] and r["all_verified"] for r in report["results"])

    def test_single_file_table(self):
        code, out = run_cli(["verify", "matching_pennies.seqgame"])
        assert code == 0
        assert "N=0" in out

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.seqgame"
        bad.write_text("players A\nat / actions A:\n")
        code, _ = run_cli(["verify", str(bad)])
        assert code == 3

    def test_missing_file_exit_code(self):
        code, _ = run_cli(["verify", "no_such_game.seqgame"])
        assert code == 2

    @pytest.mark.parametrize("command", ["verify", "ia", "fmt"])
    def test_non_utf8_file_is_a_parse_diagnostic(self, command, tmp_path,
                                                 capsys):
        bad = tmp_path / "latin.seqgame"
        bad.write_bytes(b"players A\xff\nat / actions A: x\n"
                        b"payoff /(x) = 0\n")
        code, out = run_cli([command, str(bad)])
        assert (code, out) == (3, "")
        err = capsys.readouterr().err
        assert str(bad) in err and "can't decode" in err


class TestProcedureCommands:
    def test_ia_table_shows_elimination(self):
        code, out = run_cli(["ia", "weak_dom_2x2.seqgame"])
        assert code == 0
        step1 = [ln for ln in out.splitlines() if "step 1" in ln][0]
        assert "B" not in step1.split(";")[0]  # Row: only T remains
        assert "T" in step1

    def test_pr_cnps_json(self):
        code, out = run_cli(["pr-cnps", "prisoners_dilemma.seqgame",
                             "--format", "json"])
        assert code == 0
        report = json.loads(out)
        trace = report["results"][0]["trace"]
        assert trace["procedure"] == "pr-cnps"
        assert trace["witnesses"]
        assert report["results"][0]["all_verified"]

    def test_reduced_emits_pair(self):
        code, out = run_cli(["reduced", "centipede_3.seqgame",
                             "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert len(report["results"]) == 2
        assert {r["trace"]["procedure"] for r in report["results"]} == \
            {"ia", "pr-cnps"}
        assert all(r["trace"]["reduced"] for r in report["results"])

    def test_timings_reach_every_trace(self):
        code, out = run_cli(["ia", "weak_dom_2x2.seqgame",
                             "centipede_3.seqgame", "--timings",
                             "--format", "json"])
        assert code == 0
        results = json.loads(out)["results"]
        assert len(results) == 2
        assert all("elimination_seconds" in r["trace"]["timings"]
                   for r in results)

    @pytest.mark.parametrize("command", [["verify"], ["fuzz", "--count", "1"]])
    def test_timings_is_a_usage_error_without_traces(self, command, capsys):
        code, out = run_cli(command + ["--timings"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --timings" in capsys.readouterr().err


class TestAuditFailures:
    """An audit failure in one file is reported as a VIOLATION with exit
    code 4, never as a traceback."""

    @staticmethod
    def _break(command, monkeypatch):
        from prudens import dominance
        if command == "ia":
            real = dominance.iterated_elimination_ids

            def drop_certificate(form):
                steps, certificates, columns = real(form)
                certificates.pop(next(iter(certificates)))
                return steps, certificates, columns

            monkeypatch.setattr(dominance, "iterated_elimination_ids",
                                drop_certificate)
        else:
            monkeypatch.setattr(dominance, "measure_justifies_ids",
                                lambda *args, **kwargs: False)

    @pytest.mark.parametrize("command,check", [
        ("ia", "exclusion-coverage"), ("pr-cnps", "justifiers"),
        ("pr-cps", "justifiers"), ("reduced", "justifiers"),
        ("verify", "justifiers")])
    def test_violation_exit_code(self, command, check, monkeypatch):
        self._break(command, monkeypatch)
        code, out = run_cli([command, "weak_dom_2x2.seqgame",
                             "--format", "json"])
        assert code == 4
        (entry,) = json.loads(out)["results"]
        assert check in entry.pop("error")
        assert entry.pop("file").endswith("weak_dom_2x2.seqgame")
        # verify's entries all carry "ok"
        assert entry == ({"ok": False} if command == "verify" else {})
        code, out = run_cli([command, "weak_dom_2x2.seqgame"])
        assert code == 4
        assert "VIOLATION" in out


class TestRefusedFiles:
    """A game over a size cap gets a refused error entry of its own, and
    every other file keeps its entries."""

    PAIR = ["weak_dom_2x2.seqgame", "centipede_3.seqgame"]
    CAP = ["--max-strategies", "2"]
    REASON = "player P1 has 4 strategies (cap 2)"

    @pytest.mark.parametrize("command", ["verify", "ia"])
    def test_refused_file_keeps_the_report(self, command):
        code, out = run_cli([command] + self.PAIR + self.CAP
                            + ["--format", "json"])
        assert code == 2
        kept, refused = json.loads(out)["results"]
        assert kept["file"].endswith("weak_dom_2x2.seqgame")
        assert kept["all_verified"] and "error" not in kept
        assert refused.pop("file").endswith("centipede_3.seqgame")
        assert refused.pop("error") == self.REASON
        assert refused == ({"ok": False, "refused": True}
                           if command == "verify" else {"refused": True})
        code, out = run_cli([command] + self.PAIR + self.CAP)
        assert code == 2
        assert "REFUSED: " + self.REASON in out
        assert "VIOLATION" not in out

    @pytest.mark.parametrize("order", [1, -1])
    def test_violation_outranks_refusal(self, order, monkeypatch):
        TestAuditFailures._break("verify", monkeypatch)
        code, out = run_cli(["verify"] + self.PAIR[::order] + self.CAP
                            + ["--format", "json"])
        assert code == 4
        by_file = {Path(r.pop("file")).name: r
                   for r in json.loads(out)["results"]}
        violated = by_file["weak_dom_2x2.seqgame"]
        assert "justifiers" in violated.pop("error")
        assert violated == {"ok": False}
        assert by_file["centipede_3.seqgame"] == {
            "ok": False, "refused": True, "error": self.REASON}


class TestReducedPlanCap:
    """Under ``reduced``, ``--max-strategies`` caps each player's classes,
    which are counted and listed from the tree with no plan listed.  A
    chain where A chooses C or S at 20 successive histories gives A
    2**20 plans, over ``Game.STRATEGY_CAP``, in 21 classes."""

    LEGS = 20

    @pytest.fixture
    def chain(self, tmp_path, monkeypatch):
        from prudens.game import Game

        def tripwire(game, i):
            raise AssertionError("plans must not be enumerated")

        lines = ["players A B"]
        lines += ["at /%s actions A: C S B: w" % "/".join(["(C,w)"] * t)
                  for t in range(self.LEGS)]
        lines += ["payoff %s/(S,w) = %d, %d" % ("/(C,w)" * t, t, self.LEGS - t)
                  for t in range(self.LEGS)]
        lines.append("payoff %s = %d, 0" % ("/(C,w)" * self.LEGS, self.LEGS))
        path = tmp_path / "chain.seqgame"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(Game, "strategies", tripwire)
        return str(path)

    def test_reduced_finishes_over_the_plan_cap(self, chain):
        code, out = run_cli(["reduced", chain, "--format", "json"])
        assert code == 0
        results = json.loads(out)["results"]
        assert [r["trace"]["procedure"] for r in results] == ["ia", "pr-cnps"]
        for entry in results:
            assert entry["all_verified"]
            first = entry["trace"]["steps"][0]
            assert len(first["A"]) == self.LEGS + 1
            assert first["A"][0] == ",".join(["C"] * self.LEGS)
            assert first["B"] == [",".join(["w"] * self.LEGS)]

    def test_verify_refuses_the_plans(self, chain):
        code, out = run_cli(["verify", chain, "--format", "json"])
        assert code == 2
        (entry,) = json.loads(out)["results"]
        assert entry["error"] == \
            "player A has 1048576 strategies (cap 1000000)"

    def test_class_cap_refuses_before_listing(self, chain):
        code, out = run_cli(["reduced", chain, "--max-strategies", "20",
                             "--format", "json"])
        assert code == 2
        (entry,) = json.loads(out)["results"]
        assert entry["refused"]
        assert entry["error"] == "player A has 21 strategy classes (cap 20)"
        code, _ = run_cli(["reduced", chain, "--max-strategies", "21"])
        assert code == 0


class TestFuzzCommand:
    def test_deterministic_reports(self):
        code1, out1 = run_cli(["fuzz", "--seed", "11", "--count", "25",
                               "--format", "json"])
        code2, out2 = run_cli(["fuzz", "--seed", "11", "--count", "25",
                               "--format", "json"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_jobs_do_not_change_report(self):
        _, serial = run_cli(["fuzz", "--seed", "3", "--count", "16",
                             "--format", "json"])
        _, pooled = run_cli(["fuzz", "--seed", "3", "--count", "16",
                             "--jobs", "2", "--format", "json"])
        assert serial == pooled

    def test_violation_writes_counterexample(self, tmp_path, monkeypatch):
        from prudens import procedures

        real = procedures.verify_equivalences

        def tripwire(game):
            # treat any 3-round game as a fake violation to exercise the path
            report = real(game)
            if report["fixpoint"] >= 2:
                raise EquivalenceViolation("injected for the harness")
            return report

        monkeypatch.setattr(procedures, "verify_equivalences", tripwire)
        code, out = run_cli(["fuzz", "--seed", "0", "--count", "40",
                             "--format", "json", "--out-dir", str(tmp_path)])
        assert code == 4
        report = json.loads(out)
        assert report["violations"]
        written = list(tmp_path.glob("counterexample-*.seqgame"))
        assert written
        for path in written:
            doc = dsl.parse(path.read_text())
            game = dsl.elaborate(doc)
            # the shrunk artifact still triggers the injected failure
            with pytest.raises(EquivalenceViolation):
                tripwire(game)


    def test_missing_out_dir_is_a_usage_error(self, tmp_path, monkeypatch,
                                              capsys):
        from prudens import procedures

        calls = []

        def tripwire(game):
            calls.append(game)
            raise EquivalenceViolation("injected for the harness")

        monkeypatch.setattr(procedures, "verify_equivalences", tripwire)
        missing = tmp_path / "missing"
        code, out = run_cli(["fuzz", "--seed", "0", "--count", "3",
                             "--format", "json", "--out-dir", str(missing)])
        assert code == 2
        assert out == ""
        assert "not a directory" in capsys.readouterr().err
        assert not calls  # refused before the campaign starts
        assert not missing.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--jobs", "-3"), ("--jobs", "0"), ("--count", "-1"),
        ("--players", "0"), ("--actions", "1"), ("--actions", "0"),
        ("--histories", "0"), ("--histories", "-5"),
        ("--max-strategies", "0"), ("--max-strategies", "-2")])
    def test_out_of_range_counts_are_usage_errors(self, flag, value,
                                                  monkeypatch, capsys):
        from prudens import procedures

        def tripwire(game):
            raise AssertionError("the campaign must not start")

        monkeypatch.setattr(procedures, "verify_equivalences", tripwire)
        code, out = run_cli(["fuzz", "--count", "2", flag, value])
        assert code == 2
        assert out == ""
        assert "argument %s: must be at least" % flag in \
            capsys.readouterr().err

    def test_audit_error_is_recorded_and_shrunk(self, tmp_path, monkeypatch):
        from prudens import procedures
        from prudens.beliefs import BeliefError

        def broken(cps):
            raise BeliefError("injected")

        monkeypatch.setattr(procedures, "validate_chain_rule", broken)
        code, out = run_cli(["fuzz", "--seed", "5", "--count", "4",
                             "--jobs", "2", "--format", "json",
                             "--out-dir", str(tmp_path)])
        assert code == 4
        report = json.loads(out)
        assert len(report["violations"]) == 4
        assert all("BeliefError: injected" in v["error"]
                   for v in report["violations"])
        assert len(list(tmp_path.glob("counterexample-*.seqgame"))) == 4


class TestFmt:
    def test_fmt_canonicalizes(self, tmp_path):
        messy = tmp_path / "m.seqgame"
        messy.write_text(
            "players A B  # two\nmatrix A: T B B: L R\n"
            "T: 1,1 2/4,0\nB: 1,0 0,1\n")
        code, out = run_cli(["fmt", str(messy)])
        assert code == 0
        assert "matrix" not in out
        assert "1/2" in out
        assert dsl.parse(out) == dsl.parse(messy.read_text())

    def test_fmt_write_is_idempotent(self, tmp_path):
        target = tmp_path / "t.seqgame"
        target.write_text("players A\nat / actions A: x\npayoff /(x) = 2/4\n")
        assert run_cli(["fmt", str(target), "--write"])[0] == 0
        first = target.read_text()
        assert run_cli(["fmt", str(target), "--write"])[0] == 0
        assert target.read_text() == first

    def test_fmt_write_failure_is_a_usage_error(self, tmp_path, monkeypatch,
                                                capsys):
        from pathlib import Path

        target = tmp_path / "t.seqgame"
        text = "players A\nat / actions A: x\npayoff /(x) = 2/4\n"
        target.write_text(text)

        def refuse(self, *args, **kwargs):
            raise PermissionError("injected: read-only")

        monkeypatch.setattr(Path, "write_text", refuse)
        assert run_cli(["fmt", str(target), "--write"])[0] == 2
        assert "cannot write" in capsys.readouterr().err
        assert target.read_text() == text

    def test_fmt_write_refuses_a_corpus_name(self, tmp_path, monkeypatch,
                                             capsys):
        """A bare name that only resolves through the corpus is read by
        ``fmt`` but never written: exit 2, every corpus byte unchanged,
        even when a writable file comes first."""
        corpus_copy = tmp_path / "corpus"
        corpus_copy.mkdir()
        for path in corpus.corpus_paths():
            (corpus_copy / path.name).write_bytes(path.read_bytes())
        before = {p.name: p.read_bytes() for p in corpus_copy.iterdir()}
        work = tmp_path / "work"
        work.mkdir()
        local = work / "local.seqgame"
        local_text = "players A\nat / actions A: x\npayoff /(x) = 2/4\n"
        local.write_text(local_text)
        monkeypatch.setenv(corpus.ENV_VAR, str(corpus_copy))
        monkeypatch.chdir(work)
        assert run_cli(["fmt", "matching_pennies.seqgame"])[0] == 0
        code, out = run_cli(["fmt", "local.seqgame",
                             "matching_pennies.seqgame", "--write"])
        assert (code, out) == (2, "")
        assert "matching_pennies.seqgame" in capsys.readouterr().err
        assert {p.name: p.read_bytes()
                for p in corpus_copy.iterdir()} == before
        assert local.read_text() == local_text

    def test_fmt_parse_error(self, tmp_path):
        bad = tmp_path / "bad.seqgame"
        bad.write_text("players\n")
        assert run_cli(["fmt", str(bad)])[0] == 3


class TestShrinker:
    def test_shrinks_to_minimal_failing_structure(self):
        # predicate: player 1 still has at least 4 strategies
        doc = None
        from prudens import generator
        for seed in range(100):
            candidate = generator.generate_random_game(seed)
            game = dsl.elaborate(candidate)
            if len(game.strategies(0)) >= 4 and len(game.nonterminal) >= 3:
                doc = candidate
                break
        assert doc is not None

        def pred(game):
            return len(game.strategies(0)) >= 4

        small = shrink.shrink_document(doc, pred)
        small_game = dsl.elaborate(small)
        assert len(small_game.strategies(0)) >= 4
        assert len(small_game.nonterminal) <= len(dsl.elaborate(doc).nonterminal)
        # minimality: no single collapse or action-drop keeps the predicate
        for path in sorted((p for p in small.stages if p), key=len,
                           reverse=True):
            cand = shrink._collapse(small, path)
            if cand is not None:
                try:
                    assert not pred(dsl.elaborate(cand))
                except dsl.GameDocError:
                    pass
        for path in small.stages:
            for i in range(len(small.players)):
                for action in small.stages[path][i]:
                    cand = shrink._drop_action(small, path, i, action)
                    if cand is not None:
                        try:
                            assert not pred(dsl.elaborate(cand))
                        except dsl.GameDocError:
                            pass

    def test_zeroes_payoffs_when_irrelevant(self):
        from prudens import generator
        doc = generator.generate_random_game(17)

        def pred(game):
            return len(game.players) >= 1  # always true

        small = shrink.shrink_document(doc, pred)
        assert all(v == 0 for vec in small.payoffs.values() for v in vec)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "prudens.cli", "verify",
         "prisoners_dilemma.seqgame", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"][0]["ok"]


def test_closed_stdout_is_a_usage_error():
    """A reader that stops early gets exit 2 and one line, no traceback.
    The report is larger than a pipe buffer, so writing it meets the
    closed pipe."""
    files = [str(p) for p in corpus.corpus_paths()]
    proc = subprocess.Popen(
        [sys.executable, "-m", "prudens.cli", "pr-cps", "--format", "json",
         *files], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(16)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 2
    assert "Traceback" not in err
    assert "stdout was closed" in err


def test_corpus_env_override(tmp_path, monkeypatch):
    (tmp_path / "only.seqgame").write_text(
        "players A\nat / actions A: x\npayoff /(x) = 0\n")
    monkeypatch.setenv(corpus.ENV_VAR, str(tmp_path))
    assert [p.name for p in corpus.corpus_paths()] == ["only.seqgame"]
    code, out = run_cli(["verify", "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["results"]) == 1
