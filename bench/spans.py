"""Spans around the package's layer boundaries, recorded from outside.

``Tracer.install`` rebinds the names that callers inside ``mfdlogic`` look
up at call time (for example ``entail._bfs_engine``, which ``decide``
calls) to wrappers that record a span per call, or per ``next()`` for
generators.  Recursive functions are wrapped only at the binding their
outside caller uses, so only the outermost call is timed and the
recursion depth is unchanged.  A wrapped name that no longer exists is
reported as missing, with the metrics that depend on it, instead of
failing the run.

Spans stay in memory (name, start, end, parent span, op id) and are
written out as JSON lines when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

clock = time.perf_counter

# metric name -> unit, in report order
PER_LAYER = {
    "algebra.enumerate_s": "s/op",
    "algebra.algebras_enumerated": "count/op",
    "algebra.algebras_per_s": "1/s",
    "entail.bfs_s": "s/op",
    "entail.bfs_nodes": "count/op",
    "entail.bfs_nodes_per_s": "1/s",
    "entail.sweep_s": "s/op",
    "entail.sweep_evals": "count/op",
    "entail.sweep_evals_per_s": "1/s",
    "entail.sweep_truncated": "count/op",
    "entail.bfs_useful_ratio": "fraction",
    "entail.sweep_useful_ratio": "fraction",
    "entail.unknown_ratio": "fraction",
    "entail.certificate_s": "s/op",
    "entail.certificate_steps": "count/op",
    "proofs.check_s": "s/op",
    "proofs.check_steps_per_s": "1/s",
    "proofs.format_s": "s/op",
    "member.s": "s/op",
    "member.calls": "count/op",
    "member.passes": "count/op",
    "relational.check_s": "s/op",
    "relational.pairs": "count/op",
    "relational.pairs_per_s": "1/s",
    "relational.load_s": "s/op",
    "cli.main_self_s": "s/op",
    "formula.parse_s": "s/op",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
}

# wrapped binding -> per-layer metrics that need it
NEEDS = {
    "entail.enumerate_pomonoids": ["algebra.enumerate_s", "algebra.algebras_enumerated",
                                   "algebra.algebras_per_s"],
    "entail._bfs_engine": ["entail.bfs_s", "entail.bfs_nodes", "entail.bfs_nodes_per_s",
                           "entail.bfs_useful_ratio"],
    "entail._walk_back": ["entail.bfs_nodes", "entail.bfs_nodes_per_s"],
    "entail._countermodel_engine": ["entail.sweep_useful_ratio"],
    "entail._sweep_algebra": ["entail.sweep_s", "entail.sweep_evals",
                              "entail.sweep_evals_per_s", "entail.sweep_truncated"],
    "entail.certificate_from_path": ["entail.certificate_s", "entail.certificate_steps",
                                     "proofs.check_steps_per_s"],
    "entail.check_proof": ["proofs.check_s", "proofs.check_steps_per_s"],
    "cli.proofs": ["proofs.format_s"],
    "entail.member": ["member.s", "member.calls"],
    "member.member_trace": ["member.passes"],
    "relational.relation_models": ["relational.check_s", "relational.pairs",
                                   "relational.pairs_per_s"],
    "relational.load_relation": ["relational.load_s"],
    "cli.parse_theory": ["formula.parse_s"],
    "cli.parse_mfd": ["formula.parse_s"],
    "entail.decide": ["entail.unknown_ratio"],
}


class _ModuleView:
    """A module with some attributes replaced, for callers that reach a
    recursive function through ``module.function``."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []      # [name, start, end, parent, op]
        self.stack: List[int] = []
        self.op = -1
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._undo: List[tuple] = []
        self._walk_nodes = 0
        self._cert_steps = 0

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        self.spans.append([name, clock(), None, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = clock()
        while self.stack and self.stack.pop() != idx:
            pass
        return span[2] - span[1]

    def start_op(self, op_id: int) -> None:
        self.op = op_id

    def end_op(self) -> None:
        """Close spans an interrupted op left open (e.g. on its time cap)."""
        now = clock()
        for idx in self.stack:
            if self.spans[idx][2] is None:
                self.spans[idx][2] = now
        self.stack.clear()

    def call(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def generator(self, name: str, genfn: Callable, on_event: Callable) -> Callable:
        """Time each ``next()``; ``on_event(event, search)`` sees each item
        and may set ``search["useful"]`` and ``search["work"]``, which are
        added up with the busy time when the search ends."""
        tracer = self

        def wrapper(*args, **kwargs):
            inner = genfn(*args, **kwargs)
            search = {"busy": 0.0, "useful": False, "work": 0}

            def timed():
                try:
                    while True:
                        idx = tracer._open(name)
                        try:
                            event = next(inner)
                        except StopIteration:
                            return
                        finally:
                            search["busy"] += tracer._close(idx)
                        on_event(event, search)
                        yield event
                finally:
                    inner.close()
                    tracer.counts[f"{name}.busy"] += search["busy"]
                    tracer.counts[f"{name}.work"] += search["work"]
                    if search["useful"]:
                        tracer.counts[f"{name}.useful"] += search["busy"]

            return timed()

        return wrapper

    # -- installing wrappers -----------------------------------------------

    def _patch(self, binding: str, make: Callable) -> None:
        module_name, attr = binding.split(".", 1)
        module = importlib.import_module(f"mfdlogic.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(binding)
            return
        setattr(module, attr, make(original))
        self._undo.append((module, attr, original))

    def install(self) -> None:
        c = self.counts

        def on_bfs(event, search):
            # nodes stored so far; a search cut off mid-layer counts its
            # last finished layer
            if event[0] == "proved":
                search["work"] = self._walk_nodes
                search["useful"] = True
            else:
                search["work"] = event[1]

        def on_sweep(event, search):
            search["useful"] = search["useful"] or event[0] == "refuted"

        def on_algebra(event, search):
            c["algebras"] += 1

        def walk_back(original):
            def counted(start, end, parents, names):
                self._walk_nodes = len(parents)
                return original(start, end, parents, names)
            return counted

        def after_sweep(args, result):
            algebra, _, _, variables, _ = args
            c["sweep_evals"] += result[1]
            c["sweep_truncated"] += result[1] < algebra.size ** len(variables)

        def after_certificate(args, result):
            self._cert_steps = len(args[1])
            c["certificate_steps"] += self._cert_steps

        def after_check(args, result):
            c["check_steps"] += self._cert_steps

        def after_member_trace(args, result):
            c["member_passes"] += result.iterations

        def after_relation(args, result):
            rel, theory = args
            ok, violation = result
            n = len(rel.tuples)
            formulas = theory.distinct_formulas()
            if ok:
                c["pairs"] += len(formulas) * n * n
            else:
                k = formulas.index(violation.formula)
                c["pairs"] += k * n * n + violation.i * n + violation.j + 1

        def after_decide(args, result):
            c["decides"] += 1
            c["unknown"] += type(result).__name__ == "Unknown"

        def format_view(proofs_module):
            fmt = self.call("proofs.format", proofs_module.format_proof)
            return _ModuleView(proofs_module, format_proof=fmt)

        p = self._patch
        p("entail.enumerate_pomonoids", lambda f: self.generator("algebra.enumerate", f, on_algebra))
        p("entail._bfs_engine", lambda f: self.generator("entail.bfs", f, on_bfs))
        p("entail._walk_back", walk_back)
        p("entail._countermodel_engine", lambda f: self.generator("entail.sweep_engine", f, on_sweep))
        p("entail._sweep_algebra", lambda f: self.call("entail.sweep", f, after_sweep))
        p("entail.certificate_from_path", lambda f: self.call("entail.certificate", f, after_certificate))
        p("entail.check_proof", lambda f: self.call("proofs.check", f, after_check))
        p("cli.proofs", format_view)
        p("entail.member", lambda f: self.call("member", f))
        p("member.member_trace", lambda f: self.call("member.trace", f, after_member_trace))
        p("relational.relation_models", lambda f: self.call("relational.check", f, after_relation))
        p("relational.load_relation", lambda f: self.call("relational.load", f))
        p("cli.parse_theory", lambda f: self.call("formula.parse", f))
        p("cli.parse_mfd", lambda f: self.call("formula.parse", f))
        p("entail.decide", lambda f: self.call("entail.decide", f, after_decide))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, ops: int, import_s: float, overhead: float) -> Dict[str, float]:
        total: Dict[str, float] = defaultdict(float)
        child: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if end is None:             # opened as an op hit its cap
                continue
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        main_self = sum(s[2] - s[1] - child[i] for i, s in enumerate(self.spans)
                        if s[0] == "cli.main" and s[2] is not None)
        c = self.counts
        per = max(ops, 1)

        def rate(num: float, den: float) -> float:
            return num / den if den > 0 else 0.0

        out = {
            "algebra.enumerate_s": total["algebra.enumerate"] / per,
            "algebra.algebras_enumerated": c["algebras"] / per,
            "algebra.algebras_per_s": rate(c["algebras"], total["algebra.enumerate"]),
            "entail.bfs_s": total["entail.bfs"] / per,
            "entail.bfs_nodes": c["entail.bfs.work"] / per,
            "entail.bfs_nodes_per_s": rate(c["entail.bfs.work"], total["entail.bfs"]),
            "entail.sweep_s": total["entail.sweep"] / per,
            "entail.sweep_evals": c["sweep_evals"] / per,
            "entail.sweep_evals_per_s": rate(c["sweep_evals"], total["entail.sweep"]),
            "entail.sweep_truncated": c["sweep_truncated"] / per,
            "entail.bfs_useful_ratio": rate(c["entail.bfs.useful"], c["entail.bfs.busy"]),
            "entail.sweep_useful_ratio": rate(c["entail.sweep_engine.useful"],
                                              c["entail.sweep_engine.busy"]),
            "entail.unknown_ratio": rate(c["unknown"], c["decides"]),
            "entail.certificate_s": total["entail.certificate"] / per,
            "entail.certificate_steps": c["certificate_steps"] / per,
            "proofs.check_s": total["proofs.check"] / per,
            "proofs.check_steps_per_s": rate(c["check_steps"], total["proofs.check"]),
            "proofs.format_s": total["proofs.format"] / per,
            "member.s": total["member"] / per,
            "member.calls": sum(1 for s in self.spans if s[0] == "member") / per,
            "member.passes": c["member_passes"] / per,
            "relational.check_s": total["relational.check"] / per,
            "relational.pairs": c["pairs"] / per,
            "relational.pairs_per_s": rate(c["pairs"], total["relational.check"]),
            "relational.load_s": total["relational.load"] / per,
            "cli.main_self_s": main_self / per,
            "formula.parse_s": total["formula.parse"] / per,
            "cli.import_s": import_s,
            "trace.overhead_ratio": overhead,
        }
        gone = {m for b in self.missing for m in NEEDS.get(b, [])}
        return {k: v for k, v in out.items() if k not in gone}

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "missing": self.missing}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
