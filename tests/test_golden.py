"""The golden corpus: every call recorded in ``golden/corpus.json`` gives the
same exit code, stdout and ``--out`` bytes on the kernel set this process
loads (the compiled kernels, or the twins under ``XDG_CACHE_HOME=/dev/null``).
``golden/record.py`` records it."""

import json
import os
import subprocess
import sys

import pytest

from dilutecw import _csweep, _twins, cli, mcmc
from golden.record import CALLS, CORPUS, FILES, replay


def test_corpus_is_what_its_recorder_records():
    """The corpus holds exactly the calls and files of ``record.py``, in its
    order: a call added to the recorder but never recorded fails here."""
    corpus = json.loads(CORPUS.read_text())
    assert [entry["argv"] for entry in corpus["calls"]] == CALLS
    assert corpus["files"] == FILES


def test_corpus_replays_byte_identical():
    corpus = json.loads(CORPUS.read_text())
    want = corpus["calls"]
    got = replay(corpus["files"], [entry["argv"] for entry in want])
    moved = [" ".join(entry["argv"]) for entry, now in zip(want, got) if entry != now]
    assert not moved, f"{len(moved)} of {len(want)} calls moved: {moved[:10]}"


def test_chain_refusals_come_before_the_graph(monkeypatch):
    """Every call of the corpus to ``mcmc-run`` or ``clt-experiment`` that
    exits 2 or 3 without --graph exits the same way with graphs impossible to
    sample or read: a graph built would end the call with exit 4."""

    def no_graph(*args, **kwargs):
        raise OSError("a graph was built")

    for module, name in ((cli, "sample_graph"), (cli, "read_graph"), (mcmc, "sample_graph")):
        monkeypatch.setattr(module, name, no_graph)
    corpus = json.loads(CORPUS.read_text())
    want = [entry for entry in corpus["calls"]
            if entry["argv"][0] in ("mcmc-run", "clt-experiment")
            and entry["exit"] in (2, 3) and "--graph" not in entry["argv"]]
    got = replay(corpus["files"], [entry["argv"] for entry in want])
    moved = [" ".join(entry["argv"]) for entry, now in zip(want, got) if entry != now]
    assert len(want) >= 10
    assert not moved, moved


def test_corpus_imports_no_numpy_on_the_compiled_kernels():
    """Every call of the corpus, in one fresh interpreter on the compiled
    kernels, leaves numpy unimported: no command needs it there.  The twins
    are numpy code, so they skip this."""
    if _csweep.library() is _twins._TWINS:
        pytest.skip("no compiled kernels on this host")
    code = """
import json, sys
from golden.record import CORPUS, replay
corpus = json.loads(CORPUS.read_text())
calls = corpus["calls"]
got = replay(corpus["files"], [entry["argv"] for entry in calls])
from dilutecw._csweep import library
print(bool(library().paths), sum(a != b for a, b in zip(calls, got)), "numpy" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "0", "False"]
