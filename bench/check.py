"""Independent checks of the program's answers.

Nothing here calls into ``mfdlogic``: certificates are parsed and
re-derived with this file's own two-rule checker, countermodels are
re-evaluated with its own scalar evaluator (after checking the algebra's
axioms), and relation outcomes are compared with what the inputs were
built to produce.  Parsing and checking are iterative, so certificates of
any depth can be checked.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from typing import Dict, List, Set, Tuple

Formula = Tuple[Counter, Counter]


class WrongAnswer(Exception):
    """The program's output failed an independent check."""


def multiset(text: str) -> Counter:
    tokens = text.split()
    if tokens in (["1"], ["top"]):
        return Counter()
    return Counter(tokens)


def formula(text: str) -> Formula:
    ant, arrow, con = text.partition("->")
    if not arrow:
        raise WrongAnswer(f"not a dependency: {text!r}")
    return multiset(ant), multiset(con)


def key(m: Counter) -> tuple:
    return tuple(sorted((k, v) for k, v in m.items() if v > 0))


def fkey(f: Formula) -> tuple:
    return key(f[0]), key(f[1])


def theory_formulas(text: str) -> List[Formula]:
    """Formulas of generated theory text (one per line, no comments)."""
    return [formula(line) for line in text.splitlines() if line.strip()]


def contains(big: Counter, small: Counter) -> bool:
    return all(big[k] >= v for k, v in small.items())


# =====================================================================
# Certificates
# =====================================================================
#
# A node is ("hyp", F), ("ax", A, B) or ("cut", left, right, F) with
# multisets as Counters.  The calculus: hyp F needs F in the theory; the
# axiom A B -> B; a cut of A -> B and D -> G with B inside D concludes
# A (D - B) -> G, which must equal the stored conclusion.

_TOKEN = re.compile(r'\(|\)|"[^"]*"|[a-z]+|\S')


def parse_certificate(text: str):
    """Certificate s-expression -> node tuples, without recursion."""
    stack: List[list] = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) < 2 or not stack[-1]:
                raise WrongAnswer("unbalanced certificate")
            items = stack.pop()
            head, args = items[0], items[1:]
            if head == "hyp" and len(args) == 1 and isinstance(args[0], str):
                node = ("hyp", formula(args[0]))
            elif head == "ax" and len(args) == 2 and all(isinstance(a, str) for a in args):
                node = ("ax", multiset(args[0]), multiset(args[1]))
            elif (head == "cut" and len(args) == 3 and isinstance(args[0], tuple)
                  and isinstance(args[1], tuple) and isinstance(args[2], str)):
                node = ("cut", args[0], args[1], formula(args[2]))
            else:
                raise WrongAnswer(f"malformed certificate node {head!r}")
            stack[-1].append(node)
        elif tok.startswith('"'):
            stack[-1].append(tok[1:-1])
        elif tok.isalpha():
            stack[-1].append(tok)
        else:
            raise WrongAnswer(f"unexpected certificate text {tok!r}")
    if len(stack) != 1 or len(stack[0]) != 1 or not isinstance(stack[0][0], tuple):
        raise WrongAnswer("certificate is not a single proof tree")
    return stack[0][0]


def tree_from_objects(root):
    """Library proof objects (Hyp / AxInstance / Cut) -> node tuples."""

    def ms(m) -> Counter:
        return Counter(dict(m.items()))

    def fm(f) -> Formula:
        return ms(f.antecedent), ms(f.consequent)

    done: Dict[int, tuple] = {}
    stack = [(root, False)]
    while stack:
        obj, expanded = stack.pop()
        kind = type(obj).__name__
        if kind == "Hyp":
            done[id(obj)] = ("hyp", fm(obj.formula))
        elif kind == "AxInstance":
            done[id(obj)] = ("ax", ms(obj.left), ms(obj.right))
        elif kind == "Cut" and not expanded:
            stack.extend(((obj, True), (obj.left, False), (obj.right, False)))
        elif kind == "Cut":
            done[id(obj)] = ("cut", done[id(obj.left)], done[id(obj.right)], fm(obj.conclusion))
        else:
            raise WrongAnswer(f"not a proof node: {kind}")
    return done[id(root)]


def check_tree(root, theory: Set[tuple]) -> Formula:
    """Re-derive every conclusion bottom-up; return the root's."""
    concl: Dict[int, Formula] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        kind = node[0]
        if kind == "hyp":
            if fkey(node[1]) not in theory:
                raise WrongAnswer("hypothesis is not a theory formula")
            concl[id(node)] = node[1]
        elif kind == "ax":
            concl[id(node)] = (node[1] + node[2], node[2])
        elif not expanded:
            stack.extend(((node, True), (node[1], False), (node[2], False)))
        else:
            a, b = concl.pop(id(node[1]))
            d, g = concl.pop(id(node[2]))
            if not contains(d, b):
                raise WrongAnswer("cut premises do not compose")
            if fkey((a + (d - b), g)) != fkey(node[3]):
                raise WrongAnswer("cut conclusion does not follow")
            concl[id(node)] = node[3]
    return concl[id(root)]


def check_proved(root, theory_text: str, query_text: str) -> None:
    theory = {fkey(f) for f in theory_formulas(theory_text)}
    if fkey(check_tree(root, theory)) != fkey(formula(query_text)):
        raise WrongAnswer("certificate proves something other than the query")


# =====================================================================
# Countermodels and refutations
# =====================================================================


def check_algebra(times: List[List[int]], leq: List[List[bool]], unit: int) -> None:
    """Integral commutative pomonoid axioms, by brute force."""
    n = len(times)
    r = range(n)
    for a in r:
        if not leq[a][a] or not leq[a][unit] or times[unit][a] != a:
            raise WrongAnswer("order not reflexive, unit not top or not neutral")
        for b in r:
            if a != b and leq[a][b] and leq[b][a]:
                raise WrongAnswer("order not antisymmetric")
            if times[a][b] != times[b][a]:
                raise WrongAnswer("product not commutative")
            for c in r:
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    raise WrongAnswer("order not transitive")
                if times[times[a][b]][c] != times[a][times[b][c]]:
                    raise WrongAnswer("product not associative")
                if leq[a][b] and not leq[times[a][c]][times[b][c]]:
                    raise WrongAnswer("product not monotone")


def check_countermodel(times, leq, unit: int, assignment: Dict[str, int],
                       theory_text: str, query_text: str) -> None:
    check_algebra(times, leq, unit)

    def degree(m: Counter) -> int:
        acc = unit
        for name, mult in m.items():
            for _ in range(mult):
                acc = times[acc][assignment[name]]
        return acc

    def holds(f: Formula) -> bool:
        return leq[degree(f[0])][degree(f[1])]

    if not all(holds(f) for f in theory_formulas(theory_text)):
        raise WrongAnswer("countermodel violates a theory formula")
    if holds(formula(query_text)):
        raise WrongAnswer("countermodel satisfies the query")


def bounded_proof_search(theory_text: str, query_text: str, limit: int) -> bool:
    """Breadth-first rewriting from the antecedent; True if the consequent
    is covered within ``limit`` stored states.  Used to contradict a
    refutation that has no countermodel to re-evaluate."""
    rules = theory_formulas(theory_text)
    start, goal = formula(query_text)
    seen = {key(start)}
    frontier = [start]
    while frontier and len(seen) < limit:
        nxt = []
        for w in frontier:
            if contains(w, goal):
                return True
            for ant, con in rules:
                if contains(w, ant):
                    v = w - ant + con
                    k = key(v)
                    if k not in seen:
                        seen.add(k)
                        nxt.append(v)
        frontier = nxt
    return any(contains(w, goal) for w in frontier)


# =====================================================================
# Per-workload answers
# =====================================================================


def check_library_verdict(v, theory_text: str, query_text: str) -> str:
    """decide-mix: a verdict object from ``mfdlogic.decide``."""
    kind = type(v).__name__
    if kind == "Proved":
        check_proved(tree_from_objects(v.certificate), theory_text, query_text)
        return "proved"
    if kind == "Refuted" and v.algebra is not None:
        a = v.algebra
        check_countermodel([list(r) for r in a.times_table], [list(r) for r in a.leq_table],
                           a.unit, dict(v.evaluation.assignment), theory_text, query_text)
        return "refuted"
    if kind == "Refuted":
        if bounded_proof_search(theory_text, query_text, 2000):
            raise WrongAnswer("refuted, but a rewrite path proves the query")
        return "refuted"
    if kind == "Unknown":
        return "unknown"
    raise WrongAnswer(f"not a verdict: {kind}")


def check_cli_decide(rc: int, out: str, theory_text: str, query_text: str) -> str:
    """prove-deep: every query is provable, so only proved or unknown pass."""
    doc = json.loads(out)
    verdict = doc.get("verdict")
    if verdict == "proved" and rc == 0:
        if fkey(formula(doc["query"])) != fkey(formula(query_text)):
            raise WrongAnswer("answered a different query")
        check_proved(parse_certificate(doc["certificate"]), theory_text, query_text)
        return "proved"
    if verdict == "unknown" and rc == 2:
        return "unknown"
    raise WrongAnswer(f"verdict {verdict!r} with exit code {rc} on a provable query")


def check_cli_relation(rc: int, out: str, expect: dict) -> str:
    """relation-check: outcome and first violation fixed by construction."""
    doc = json.loads(out)
    if doc.get("models") is not expect["models"] or rc != (0 if expect["models"] else 1):
        raise WrongAnswer(f"models={doc.get('models')!r} (exit {rc}), expected {expect['models']}")
    if not expect["models"]:
        got = doc["violation"]
        if fkey(formula(got["formula"])) != fkey(formula(expect["formula"])):
            raise WrongAnswer(f"violated formula {got['formula']!r}, expected {expect['formula']!r}")
        if list(got["pair"]) != expect["pair"]:
            raise WrongAnswer(f"violation at {got['pair']}, expected {expect['pair']}")
    return "models" if expect["models"] else "violation"
