"""Tests of the benchmark itself: inputs, counts and answer checks.

Run with ``python3 -m pytest perfbench``.  The program is imported from
``src/`` once here; the end-to-end command is run in a subprocess,
because it times its own first import of prudens as set-up.
"""

import copy
import itertools
import json
import math
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import prudens  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from bench_workloads import (WORKLOADS, game_text, load_pool,  # noqa: E402
                             run_sequence)

# Games per workload in the short traced runs below.
SHORT = {"campaign": 40, "bimatrix": 1, "centipede": 2}


def first_games(workload, seed, count):
    pool = load_pool(run.EXPECTED, workload)
    return list(itertools.islice(run_sequence(workload, pool, seed), count))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_pure_in_the_seed(workload):
    texts = [game_text(workload, seed) for seed in range(3)]
    assert texts == [game_text(workload, seed) for seed in range(3)]
    assert len(set(texts)) == 3
    for text in texts:
        assert prudens.dsl.serialize(prudens.dsl.parse(text)) == text

    def seeds(run_seed):
        return [entry["seed"] for entry, _ in first_games(workload, run_seed,
                                                          12)]

    assert seeds(5) == seeds(5)
    assert seeds(5) != seeds(6)


def test_pool_covers_its_stated_size():
    for workload in WORKLOADS:
        pool = load_pool(run.EXPECTED, workload)
        assert [entry["seed"] for entry in pool] == list(
            range(bench_workloads.POOL_SIZE[workload]))


def traced_counts(workload):
    games = first_games(workload, 1, SHORT[workload])
    plain, traced, tracer = run.traced_pass(prudens, bench_trace, games, 0)
    assert not plain.failures and not traced.failures
    metrics = bench_trace.layer_metrics(tracer, 1.0)
    return {name: value for name, (value, unit) in metrics.items()
            if unit != "ms" and name != "trace.overhead_frac"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_ratios_repeat_exactly(workload):
    counts = traced_counts(workload)
    assert counts == traced_counts(workload)
    assert counts["lp.solves.slack"] + counts["lp.solves.justifier"] > 0
    twins = counts["dominance.justifier_twin_share"]
    if workload == "bimatrix":
        assert twins == 0
    if workload == "centipede":
        assert twins > 0.25


def test_corrupted_summary_is_a_failure():
    (entry, text), = first_games("campaign", 2, 1)
    bad = copy.deepcopy(entry)
    bad["summary"]["exclusions"] += 1
    outcome = run.run_pass(prudens, [(entry, text), (bad, text)], math.inf, 2)
    assert len(outcome.seconds) == 2
    assert len(outcome.failures) == 1
    assert "differs" in outcome.failures[0][1]
    assert outcome.digested == 1


def test_raising_game_counts_as_failed_and_the_run_goes_on():
    def fails(text):
        raise ZeroDivisionError("injected")

    outcome = run.Outcome()
    for entry, text in first_games("campaign", 3, 3):
        run.verify_one(outcome, entry, text, fails)
    assert len(outcome.seconds) == 3
    assert [error for _, error in outcome.failures] == [
        "ZeroDivisionError: injected"] * 3


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace, key):
    with open(run.HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "campaign",
         "--seed", "4", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
