"""Label the corpus instances that ``decide-mix`` and ``prove-deep`` draw from.

Run from the repository root (takes a few minutes on two cores):

    PYTHONPATH=src python3 bench/corpus.py

Each instance is regenerated from its id by ``workloads.py``; this script
stores one label character per id in ``bench/corpus.json``.  A label is the
cost class of the instance: the bin of the time one call took when the
benchmark was defined (``mfdlogic.decide`` for decide-mix, the in-process
``mfd decide --json`` call for prove-deep).  Bins with too few instances
are merged into the next cheaper bin.  The labels stay fixed afterwards:
the benchmark uses them to give every round the same mix of cheap and
expensive inputs, so later versions of the program are measured on the
same mix.  Relabelling changes the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import string
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

CAP_S = 10
# upper bin edges in milliseconds; the last bin is open
EDGES_MS = (0.25, 0.35, 0.5, 0.7, 1.0, 1.4, 2, 3, 5, 8, 13, 20, 35, 60, 100, 200, 500, 1000)
CORPORA = {
    # name: (instances, fewest instances a bin may hold)
    "decide-mix": (16000, 30),
    "prove-deep": (3000, 15),
}


class _Overrun(Exception):
    pass


def _alarm(signum, frame):
    raise _Overrun()


def _timed_decide(i: int) -> float:
    import mfdlogic

    theory, query = workloads.decide_mix_instance(i)
    t, q = mfdlogic.parse_theory(theory), mfdlogic.parse_mfd(query)
    t0 = time.perf_counter()
    mfdlogic.decide(t, q)
    return time.perf_counter() - t0


def _timed_branching(i: int, path: str) -> float:
    from mfdlogic import cli

    theory, query, _ = workloads.branching_instance(i)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(theory)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["decide", path, query, "--json"])
    return time.perf_counter() - t0


def bins(seconds, fewest: int) -> str:
    """Bin letter per instance, cheapest bin "a".  Walking down from the
    most expensive bin, bins join until the group holds ``fewest``."""
    raw = [sum(s * 1e3 >= e for e in EDGES_MS) for s in seconds]
    counts = Counter(raw)
    groups, group, held = [], [], 0
    for b in sorted(counts, reverse=True):
        group.append(b)
        held += counts[b]
        if held >= fewest:
            groups.append(group)
            group, held = [], 0
    if group:
        groups[-1].extend(group)
    letter = {b: string.ascii_lowercase[len(groups) - 1 - k]
              for k, g in enumerate(groups) for b in g}
    return "".join(letter[b] for b in raw)


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    scratch = os.path.join(os.path.dirname(HERE), ".bench_run")
    os.makedirs(scratch, exist_ok=True)
    path = os.path.join(scratch, "corpus.theory")
    doc = {}
    for name, (size, fewest) in CORPORA.items():
        seconds = []
        for i in range(size):
            signal.setitimer(signal.ITIMER_REAL, CAP_S)
            try:
                seconds.append(_timed_decide(i) if name == "decide-mix"
                               else _timed_branching(i, path))
            except _Overrun:
                seconds.append(float(CAP_S))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        labels = bins(seconds, fewest)
        doc[name] = {"size": size, "edges_ms": list(EDGES_MS), "labels": labels}
        print(name, sorted(Counter(labels).items()), flush=True)
    os.remove(path)
    with open(workloads.CORPUS_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
