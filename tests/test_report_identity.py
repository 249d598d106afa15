"""Byte-identity of the JSON reports.

Pins the SHA-256 of stdout for every report-producing command over the
whole corpus, and of one fuzz campaign, so that a refactor of the
procedures cannot change a single byte of what users read.  The corpus
files are passed by bare name from inside the corpus directory, which
keeps the reports' ``"file"`` fields independent of where the checkout
lives.  The ``verify`` and ``pr-cps`` reports are also pinned from fresh
interpreters under two string-hash seeds, so that no report depends on
the iteration order of a set.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prudens
from prudens import corpus

from test_cli import run_cli

DIGESTS = {
    "verify":
        "fef42f8f8187dc2b4ad5db2083dd670e31bb563ddce053d5f547c347883e7837",
    "ia":
        "79d790b83b40d0d0fe67874fb78b13f73859dd2fa6ea80ed348a1c0df76f8a85",
    "pr-cnps":
        "0979a0cce0358d8b917088e018cf77f4c35cf2448bb0de5fce50fc1749c4252d",
    "pr-cps":
        "f909ecfd93f3e84cea3692406bf28de7a6572d24c3c9bf2df72fc20eb29e11fd",
    "reduced":
        "b2c33aae1019b6e985caa716d85e76cbc06579f8efdb00abf9b36f425c399a77",
}
FUZZ_DIGEST = \
    "1fe3fc9efe6cfc085048e0dcd230abc9b837f095f284c5dc8bc01021fccac103"


def _digest(out):
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_corpus_report_is_byte_identical(command, monkeypatch):
    monkeypatch.chdir(corpus.corpus_dir())
    names = [path.name for path in corpus.corpus_paths()]
    assert len(names) == 12
    code, out = run_cli([command, *names, "--format", "json"])
    assert code == 0
    assert _digest(out) == DIGESTS[command]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("command", ["pr-cps", "verify"])
def test_corpus_report_is_independent_of_hash_seed(command, seed):
    names = [path.name for path in corpus.corpus_paths()]
    src = str(Path(prudens.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "prudens.cli", command, *names,
         "--format", "json"],
        cwd=corpus.corpus_dir(), env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[command]


def test_fuzz_report_is_byte_identical():
    code, out = run_cli(["fuzz", "--seed", "2024", "--count", "150",
                         "--format", "json"])
    assert code == 0
    assert _digest(out) == FUZZ_DIGEST
