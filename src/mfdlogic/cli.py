"""Command line front end.

Subcommands wrap the library one to one:

* ``decide THEORY QUERY``: prove or refute within budgets
* ``member THEORY QUERY``: fast membership for non-contracting theories
* ``check RELATION THEORY``: does a ranked relation model a theory
* ``countermodel THEORY QUERY``: search only for a refuting model
* ``classify THEORY``: per-formula triviality and contraction report
* ``boolify THEORY``: print the theory with idempotence laws added
* ``complete-algebra ALGEBRA``: residuated-lattice completion of a finite
  algebra, as JSON

Exit codes: 0 proved / true / models, 1 refuted / false / violation,
2 unknown, 64 usage or parse errors, 65 precondition failures (contracting
theory, scheme mismatch).  ``--json`` switches any subcommand to a machine
readable report; degrees print with four decimals otherwise.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import algebra as alg
from . import entail, proofs, relational
from .member import ContractingTheoryError, member_trace
from .formula import (
    TheoryParseError,
    Theory,
    _IDENT_RE,
    _RESERVED,
    booleanize,
    format_mfd,
    format_multiset,
    format_theory,
    parse_mfd,
    parse_multiset,
    parse_theory,
)

__all__ = ["main", "verdict_to_json", "verdict_from_json"]

EXIT_PROVED = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_PRECONDITION = 65


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract wants 64
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The ``mfd`` parser; built on the first call and reused after."""
    parser = _Parser(prog="mfd", description="Reasoner for graded functional dependencies")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = entail.Budgets()

    def add_max_size(p):
        cap = alg.ENUMERATION_SIZE_CAP
        p.add_argument("--max-size", type=int, default=defaults.max_algebra_size, metavar="K",
                       choices=range(1, cap + 1),
                       help=f"largest algebra size tried, 1..{cap} (default %(default)s)")

    def count(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
        return value

    def add_budget_models(p):
        p.add_argument("--budget-models", type=count, default=defaults.model_evals, metavar="N",
                       help="countermodel evaluation limit (default %(default)s)")
        add_max_size(p)

    p = sub.add_parser("decide", help="prove or refute a dependency")
    p.add_argument("theory", help="theory file")
    p.add_argument("query", help="dependency, e.g. 'p p -> q q'")
    p.add_argument("--budget-bfs", type=count, default=defaults.bfs_nodes, metavar="N",
                   help="BFS node limit, contracting theories only (default %(default)s)")
    add_budget_models(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("member", help="membership for non-contracting theories")
    p.add_argument("theory")
    p.add_argument("query")
    p.add_argument("--trace", action="store_true", help="print saturation passes")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="check a ranked relation against a theory")
    p.add_argument("relation", help="relation JSON file")
    p.add_argument("theory", help="theory file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("countermodel", help="search for a refuting model only")
    p.add_argument("theory")
    p.add_argument("query")
    add_budget_models(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="per-formula structure report")
    p.add_argument("theory")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("boolify", help="add idempotence laws for every attribute")
    p.add_argument("theory")
    p.add_argument("--extra-vars", default="", metavar="VARS",
                   help="comma separated attributes to cover as well")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("complete-algebra", help="downset completion of a finite algebra")
    p.add_argument("algebra", help="algebra JSON file (or 'bool2')")
    p.add_argument("--json", action="store_true")

    return parser


# =====================================================================
# Verdict serialization
# =====================================================================


def _evaluation_to_json(e: alg.Evaluation) -> dict:
    return {attr: e.degree_name(attr) for attr in sorted(e.assignment)}


# the "budget" object of an Unknown verdict, in output order
_BUDGET_KEYS = ("bfs_nodes_used", "bfs_exhausted", "model_evals_used",
                "algebras_scanned", "models_exhausted")


def verdict_to_json(v: entail.Verdict) -> dict:
    """Structural JSON form of a verdict; inverse of verdict_from_json."""
    if isinstance(v, entail.Proved):
        return {
            "verdict": "proved",
            "query": format_mfd(v.query),
            "path": {
                "start": format_multiset(v.path.start),
                "steps": [
                    {
                        "rule": format_mfd(s.rule),
                        "remainder": format_multiset(s.remainder),
                        "result": format_multiset(s.result),
                    }
                    for s in v.path.steps
                ],
            },
            "certificate": proofs.format_proof(v.certificate),
        }
    if isinstance(v, entail.Refuted):
        doc = {"verdict": "refuted", "query": format_mfd(v.query), "method": v.method}
        if v.algebra is not None:
            doc["algebra"] = alg.algebra_to_json(v.algebra)
            doc["evaluation"] = _evaluation_to_json(v.evaluation)
        if v.invariant is not None:
            doc["invariant"] = [format_multiset(m) for m in v.invariant]
        return doc
    if isinstance(v, entail.Unknown):
        budget = {key: getattr(v.report, key) for key in _BUDGET_KEYS}
        return {"verdict": "unknown", "query": format_mfd(v.query), "budget": budget}
    raise TypeError(f"not a verdict: {v!r}")


def verdict_from_json(doc: dict) -> entail.Verdict:
    """Rebuild a verdict from its JSON form."""
    query = parse_mfd(doc["query"])
    kind = doc["verdict"]
    if kind == "proved":
        start = parse_multiset(doc["path"]["start"])
        steps = tuple(
            entail.RewriteStep(
                parse_mfd(s["rule"]),
                parse_multiset(s["remainder"]),
                parse_multiset(s["result"]),
            )
            for s in doc["path"]["steps"]
        )
        return entail.Proved(
            query,
            entail.RewritePath(start, steps),
            proofs.parse_proof(doc["certificate"]),
        )
    if kind == "refuted":
        algebra = None
        evaluation = None
        if "algebra" in doc:
            algebra = alg.algebra_from_json(doc["algebra"])
            evaluation = alg.Evaluation(
                algebra,
                {k: algebra.index_of(v) for k, v in doc["evaluation"].items()},
            )
        invariant = None
        if "invariant" in doc:
            invariant = tuple(map(parse_multiset, doc["invariant"]))
        return entail.Refuted(query, doc["method"], algebra, evaluation, invariant)
    if kind == "unknown":
        report = entail.BudgetReport(**{key: doc["budget"][key] for key in _BUDGET_KEYS})
        return entail.Unknown(query, report)
    raise ValueError(f"unknown verdict kind {kind!r}")


# =====================================================================
# Subcommand bodies
# =====================================================================


def _read_theory(path: str) -> Theory:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_theory(fh.read())


def _print_json(doc) -> None:
    """Print ``doc`` as ``json.dumps(doc, indent=2)`` would, but streamed
    to stdout piece by piece: the text of a long certificate is never held
    whole in memory."""
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _print_verdict(v: entail.Verdict, as_json: bool) -> int:
    if as_json:
        _print_json(verdict_to_json(v))
    elif isinstance(v, entail.Proved):
        print(f"proved: {format_mfd(v.query)}")
        print(f"path ({len(v.path)} steps):")
        print(f"  {format_multiset(v.path.start)}")
        for s in v.path.steps:
            print(f"  -> {format_multiset(s.result)}   [via {format_mfd(s.rule)}]")
        print(f"certificate: {proofs.format_proof(v.certificate)}")
    elif isinstance(v, entail.Refuted):
        print(f"refuted: {format_mfd(v.query)}")
        if v.method == "member-algorithm":
            print("by the saturation procedure (theory is non-contracting)")
        elif v.method == "invariant":
            print(f"invariant ({len(v.invariant)} elements; every multiset that rewrites to "
                  "contain the consequent contains one, the antecedent none):")
            for m in v.invariant:
                print(f"  {format_multiset(m)}")
        else:
            print(f"countermodel ({v.algebra.size} elements):")
            print(v.algebra.describe())
            assigns = ", ".join(
                f"{k}={v.evaluation.degree_name(k)}" for k in sorted(v.evaluation.assignment)
            )
            print(f"evaluation: {assigns}")
    else:
        r = v.report
        print(f"unknown: {format_mfd(v.query)}")
        print(
            f"searched {r.bfs_nodes_used} proof nodes"
            + (" (rewrite graph exhausted)" if r.bfs_exhausted else "")
        )
        print(
            f"swept {r.model_evals_used} evaluations over {r.algebras_scanned} algebras"
            + (" (all sizes exhausted)" if r.models_exhausted else "")
        )
    if isinstance(v, entail.Proved):
        return EXIT_PROVED
    if isinstance(v, entail.Refuted):
        return EXIT_REFUTED
    return EXIT_UNKNOWN


def _cmd_decide(args) -> int:
    theory = _read_theory(args.theory)
    query = parse_mfd(args.query)
    budgets = entail.Budgets(args.budget_bfs, args.budget_models, args.max_size)
    return _print_verdict(entail.decide(theory, query, budgets), args.json)


def _cmd_member(args) -> int:
    theory = _read_theory(args.theory)
    query = parse_mfd(args.query)
    trace = member_trace(theory, query)
    if args.json:
        doc = {
            "member": trace.result,
            "query": format_mfd(query),
            "fresh_var": trace.fresh_var,
            "counter_final": trace.counter_final,
            "passes": [
                {
                    "snapshot": format_multiset(p.snapshot),
                    "fired": [format_mfd(f) for f in p.fired],
                }
                for p in trace.passes
            ],
        }
        _print_json(doc)
    else:
        print(f"member: {'true' if trace.result else 'false'}")
        if args.trace:
            print(f"marker attribute: {trace.fresh_var}")
            for k, p in enumerate(trace.passes, start=1):
                fired = ", ".join(format_mfd(f) for f in p.fired) or "nothing"
                print(f"pass {k}: {format_multiset(p.snapshot)}   [fired: {fired}]")
            print(f"counter left: {trace.counter_final}")
    return EXIT_PROVED if trace.result else EXIT_REFUTED


def _degree_out(algebra, value):
    """A degree as a JSON value: the element name in a finite algebra."""
    if isinstance(algebra, alg.FinitePomonoid):
        return algebra.element_names[value]
    return value


def _cmd_check(args) -> int:
    rel = relational.load_relation(args.relation)
    theory = _read_theory(args.theory)
    ok, w = relational.relation_models(rel, theory)
    algebra = rel.similarity.algebra
    if args.json:
        doc = {"models": ok}
        if w is not None:
            doc["violation"] = {
                "formula": format_mfd(w.formula),
                "pair": [w.i, w.j],
                "antecedent_degree": _degree_out(algebra, w.antecedent_degree),
                "consequent_degree": _degree_out(algebra, w.consequent_degree),
            }
        _print_json(doc)
    elif ok:
        print("models: yes")
    else:
        print("models: no")
        da = alg._degree_text(algebra, w.antecedent_degree)
        db = alg._degree_text(algebra, w.consequent_degree)
        print(f"violation: {format_mfd(w.formula)} at tuples ({w.i}, {w.j}): {da} <= {db} fails")
    return EXIT_PROVED if ok else EXIT_REFUTED


def _cmd_countermodel(args) -> int:
    theory = _read_theory(args.theory)
    query = parse_mfd(args.query)
    found = entail.find_countermodel(theory, query, args.max_size, args.budget_models)
    if found is None:
        if args.json:
            _print_json({"verdict": "unknown", "query": format_mfd(query)})
        else:
            print(f"no countermodel found up to size {args.max_size} within budget")
        return EXIT_UNKNOWN
    return _print_verdict(entail.Refuted(query, "countermodel", *found), args.json)


def _cmd_classify(args) -> int:
    from .formula import is_non_contracting, is_trivial

    theory = _read_theory(args.theory)
    rows = [
        {
            "formula": format_mfd(f),
            "trivial": is_trivial(f),
            "non_contracting": is_non_contracting(f),
        }
        for f in theory
    ]
    overall = all(r["non_contracting"] for r in rows)
    if args.json:
        _print_json({"formulas": rows, "theory_non_contracting": overall})
    else:
        for r in rows:
            tags = []
            if r["trivial"]:
                tags.append("trivial")
            tags.append("non-contracting" if r["non_contracting"] else "contracting")
            print(f"{r['formula']}   [{', '.join(tags)}]")
        print(f"theory: {'non-contracting' if overall else 'contracting'}")
    return EXIT_PROVED


def _cmd_boolify(args) -> int:
    theory = _read_theory(args.theory)
    extra = [v.strip() for v in args.extra_vars.split(",") if v.strip()]
    for name in extra:
        if not _IDENT_RE.match(name) or name in _RESERVED:
            raise _UsageError(f"--extra-vars: {name!r} is not an attribute name")
    result = booleanize(theory, extra)
    if args.json:
        _print_json({"formulas": [format_mfd(f) for f in result]})
    else:
        sys.stdout.write(format_theory(result))
    return EXIT_PROVED


def _cmd_complete_algebra(args) -> int:
    loaded = alg.load_algebra(args.algebra)
    if not isinstance(loaded, alg.FinitePomonoid):
        raise _UsageError("completion needs a finite algebra")
    lattice, embedding = alg.downset_completion(loaded)
    doc = {
        "lattice": alg.algebra_to_json(lattice),
        "embedding": {
            loaded.element_names[i]: lattice.element_names[embedding[i]]
            for i in range(loaded.size)
        },
    }
    if args.json:
        _print_json(doc)
    else:
        print(lattice.describe())
        pairs = ", ".join(f"{k} -> {v}" for k, v in doc["embedding"].items())
        print(f"embedding: {pairs}")
    return EXIT_PROVED


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handlers = {
            "decide": _cmd_decide,
            "member": _cmd_member,
            "check": _cmd_check,
            "countermodel": _cmd_countermodel,
            "classify": _cmd_classify,
            "boolify": _cmd_boolify,
            "complete-algebra": _cmd_complete_algebra,
        }
        return handlers[args.command](args)
    except (TheoryParseError, proofs.ProofParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        _UsageError,
        alg.InvalidAlgebraError,
        relational.InvalidRelationError,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ContractingTheoryError, relational.SchemeMismatchError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
