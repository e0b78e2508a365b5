"""The golden corpus: every call recorded in ``golden/corpus.json`` gives the
same exit code, stdout and ``--out`` bytes on the kernel set this process
loads (the compiled kernels, or the twins under ``XDG_CACHE_HOME=/dev/null``).
``golden/record.py`` records it."""

import json

from golden.record import CORPUS, replay


def test_corpus_replays_byte_identical():
    corpus = json.loads(CORPUS.read_text())
    want = corpus["calls"]
    got = replay(corpus["files"], [entry["argv"] for entry in want])
    moved = [" ".join(entry["argv"]) for entry, now in zip(want, got) if entry != now]
    assert not moved, f"{len(moved)} of {len(want)} calls moved: {moved[:10]}"
