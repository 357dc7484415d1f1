"""mfdlogic benchmark: one workload per invocation, closed loop, one caller.

Run from the repository root (the package is imported from ``src``):

    python3 bench/run.py --workload decide-mix --seed 1 --seconds 20 --trace 0

Workloads: decide-mix, prove-deep, relation-check (see bench/README.md).
The run repeats whole rounds of ops until the timed ops add up to at
least ``--seconds``, checks every answer independently after each round,
prints one ``name value unit`` line per metric, and ends with a JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` runs the
same rounds again with spans around the package's layers, then once more
without, and reports the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402

# Per-op wall-clock cap.  The slowest op that completes at the seed takes
# about 3 s; ops that overrun count as failed.
OP_CAP_S = 6.0
# No op starts later than this many seconds after process start, so a run
# ends within 180 s.  A traced run splits that time over its three passes.
DEADLINE_S = 160.0
PASS_DEADLINES_S = (80.0, 130.0, DEADLINE_S)
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class OpOverrun(BaseException):
    """Raised inside an op that passed its time cap.  A BaseException, so
    ``except Exception`` handlers inside the program do not swallow it."""


class _Cap:
    armed = False


def _on_alarm(signum, frame):
    if _Cap.armed:
        raise OpOverrun()


def import_package():
    """Import mfdlogic from this checkout's src; (cli, entail, seconds)."""
    if not os.path.isfile(os.path.join(SRC, "mfdlogic", "__init__.py")):
        sys.exit(f"bench: no package at {os.path.relpath(SRC)}/mfdlogic; "
                 "run from a full checkout of the repository")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    cli = importlib.import_module("mfdlogic.cli")
    elapsed = time.perf_counter() - t0
    import mfdlogic

    if os.path.dirname(os.path.dirname(os.path.abspath(mfdlogic.__file__))) != SRC:
        sys.exit("bench: imported mfdlogic from outside this checkout")
    return cli, importlib.import_module("mfdlogic.entail"), elapsed


def run_metadata(seed: int) -> dict:
    import numpy

    lines = 0
    pkg = os.path.join(SRC, "mfdlogic")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                lines += sum(1 for _ in fh)
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "src_lines": lines,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for ln in fh:
                if ln.rstrip().endswith(" " + ref):
                    return ln.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """Runs one op at a time under the cap and checks its answer."""

    def __init__(self, workload: str, entail, inputs):
        self.workload = workload
        self.entail = entail
        self.inputs = inputs

    def make_round(self, index: int):
        ops = self.inputs.make_round(index)
        if self.workload == "decide-mix":
            from mfdlogic import parse_mfd, parse_theory

            for op in ops:
                op.parsed = (parse_theory(op.theory), parse_mfd(op.query))
        return ops

    def call(self, op, main):
        """(seconds, result, error name or None); ``main`` is cli.main."""
        _Cap.armed = True
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        t0 = time.perf_counter()
        try:
            if op.parsed:
                result = self.entail.decide(*op.parsed)
            else:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    result = (main(list(op.args)), out.getvalue())
            error = None
        except OpOverrun:
            result, error = None, "overrun"
        except Exception as exc:  # the op failed; record which way
            result, error = None, type(exc).__name__
        finally:
            elapsed = time.perf_counter() - t0
            _Cap.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        return elapsed, result, error

    def verify(self, op, result) -> str:
        """Verdict class of a completed op, or raise check.WrongAnswer."""
        if self.workload == "decide-mix":
            return check.check_library_verdict(result, op.theory, op.query)
        rc, out = result
        if self.workload == "prove-deep":
            return check.check_cli_decide(rc, out, op.theory, op.query)
        return check.check_cli_relation(rc, out, op.expect)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of (failed, seconds) pairs; failed ops rank
    above every completed op."""
    ranked = sorted(samples)
    return ranked[max(0, math.ceil(len(ranked) * q) - 1)][1]


def run_rounds(runner, rounds, main, deadline, tracer=None, seconds=None):
    """Run whole rounds, checking each round's answers after it.

    With ``seconds``, new rounds are made until the timed ops add up to at
    least that; otherwise the given rounds are run.  No op starts after
    ``deadline`` (seconds since process start).  Returns per-op records
    (round, kind, seconds, status, detail), status "ok", "failed" or
    "wrong".
    """
    records = []
    busy = 0.0
    r = 0
    while time.perf_counter() - PROCESS_START < deadline:
        if r == len(rounds):
            if seconds is None or busy >= seconds:
                break
            rounds.append(runner.make_round(r))
        outputs = []
        for op in rounds[r]:
            if time.perf_counter() - PROCESS_START > deadline:
                break
            if tracer is not None:
                tracer.start_op(len(records) + len(outputs))
            elapsed, result, error = runner.call(op, main)
            if tracer is not None:
                tracer.end_op()
            outputs.append((op, elapsed, result, error))
            busy += elapsed
        for op, elapsed, result, error in outputs:
            if error is not None:
                records.append((r, op.kind, elapsed, "failed", error))
                continue
            try:
                records.append((r, op.kind, elapsed, "ok", runner.verify(op, result)))
            except (check.WrongAnswer, KeyError, ValueError, TypeError) as exc:
                records.append((r, op.kind, elapsed, "wrong", f"{type(exc).__name__}: {exc}"))
        del outputs
        r += 1
    return records


def summarize(records):
    """Run-level figures over all ops of the run."""
    attempted = len(records)
    failed = sum(1 for rec in records if rec[3] != "ok")
    busy = sum(rec[2] for rec in records)
    samples = [(rec[3] != "ok", rec[2]) for rec in records]
    verdicts = Counter(rec[4] for rec in records if rec[3] == "ok")
    return {
        "attempted": attempted,
        "failed": failed,
        "ops_per_s": (attempted - failed) / busy if busy else 0.0,
        "latency_p50_ms": percentile(samples, 0.50) * 1e3,
        "latency_p90_ms": percentile(samples, 0.90) * 1e3,
        "unknown_ratio": verdicts["unknown"] / attempted,
        "failed_ratio": failed / attempted,
        "failures": Counter(f"{rec[1]}:{rec[4]}" for rec in records if rec[3] == "failed"),
        "wrong_answers": [rec for rec in records if rec[3] == "wrong"][:5],
        "rounds": len({rec[0] for rec in records}),
    }


def traced_run(runner, rounds, cli, import_s):
    """Per-layer metrics: the rounds again with spans, then once more
    without, so the overhead compares two passes after a warm one."""
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(runner, rounds, tracer.call("cli.main", cli.main),
                            PASS_DEADLINES_S[1], tracer=tracer)
    finally:
        tracer.uninstall()
    again = run_rounds(runner, rounds[: len({rec[0] for rec in traced})], cli.main,
                       PASS_DEADLINES_S[2])
    # ops that completed in both passes; capped ops take the cap either way
    both = [(t[2], a[2]) for t, a in zip(traced, again) if t[3] == a[3] == "ok"]
    base = sum(a for _, a in both)
    overhead = sum(t for t, _ in both) / base if base else 0.0
    report = summarize(traced)
    report["wrong_answers"] += [rec for rec in again if rec[3] == "wrong"][:5]
    return tracer, report, tracer.metrics(report["attempted"], import_s, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, entail, import_s = import_package()
    imported_at = time.perf_counter()
    meta = run_metadata(args.seed)
    meta["workload"] = args.workload
    out_dir = os.path.join(ROOT, ".bench_run")
    workdir = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        # set-up: generate the first round several times, keep the median
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workloads.WORKLOADS[args.workload](args.seed, workdir)
            runner = Runner(args.workload, entail, inputs)
            rounds = [runner.make_round(0)]
            setups.append(time.perf_counter() - t0)
        setup_s = (imported_at - PROCESS_START) + statistics.median(setups)

        records = run_rounds(runner, rounds, cli.main,
                             PASS_DEADLINES_S[0] if args.trace else DEADLINE_S,
                             seconds=args.seconds)
        plain = summarize(records)
        if args.trace:
            tracer, report, metrics = traced_run(runner, rounds, cli, import_s)
            units = PER_LAYER
            tracer.write(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl"), meta)
        else:
            report = plain
            metrics = {
                "setup_s": setup_s,
                "ops_per_s": plain["ops_per_s"],
                "latency_p50_ms": plain["latency_p50_ms"],
                "latency_p90_ms": plain["latency_p90_ms"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"rounds {report['rounds']}  ops {report['attempted']}  failed {report['failed']}")
    for name, count in sorted(report["failures"].items()):
        print(f"failure {name} x{count}")
    wrong = plain["wrong_answers"] + (report["wrong_answers"] if args.trace else [])
    for rec in wrong:
        print(f"wrong answer: round {rec[0]} {rec[1]}: {rec[4]}")
    if args.trace:
        for name in tracer.missing:
            print(f"missing: binding {name} not found; its metrics are not reported")
    print(f"unknown_ratio {plain['unknown_ratio']:.6f} fraction")
    print(f"failed_ratio {plain['failed_ratio']:.6f} fraction")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
