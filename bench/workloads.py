"""Seeded input generators for the three benchmark workloads.

Every workload runs in *rounds*.  A round has the same composition for
every seed (how many ops of each kind and cost class), and the seed picks
the concrete inputs.  Run-to-run spread then comes from the inputs within a
class, not from how many rare expensive ops a seed happens to draw.

* ``decide-mix`` draws random small theories from a corpus whose ids are
  labelled with the cost class of their seed-version verdict
  (``corpus.json``, written by ``corpus.py``).  Instance ``i`` is always
  regenerated from ``random.Random("decide-mix:i")``; only the labels are
  stored.
* ``prove-deep`` draws narrow branching theories from a labelled corpus the
  same way and adds the constructed minority slices (counters, wide chains
  with distractors, non-contracting growth chains).
* ``relation-check`` builds every table by construction, so its outcome
  (models or not, and the first violating pair) is known in advance.

The program only ever receives the generated inputs.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_FILE = os.path.join(HERE, "corpus.json")


def fmt_multiset(c: Dict[str, int]) -> str:
    """Theory-grammar text of a multiset given as name -> count."""
    return " ".join(k for k in sorted(c) for _ in range(c[k])) or "1"


@dataclass
class Op:
    """One timed call: what to run and what the answer must look like."""

    kind: str                  # slice name, e.g. "branching" or "counter"
    args: tuple                # CLI argv; empty for decide-mix
    theory: str                # theory text, for the independent check
    query: Optional[str] = None
    expect: dict = field(default_factory=dict)
    parsed: tuple = ()         # decide-mix: (Theory, Mfd) built before timing


# =====================================================================
# Corpus instances (regenerated from their id; labels live in corpus.json)
# =====================================================================

DECIDE_ATTRS = "abcde"


def decide_mix_instance(i: int) -> Tuple[str, str]:
    """Random small theory: 5 attributes, 1-6 rules, multiplicities <= 2."""
    rng = random.Random(f"decide-mix:{i}")

    def side() -> str:
        names = rng.sample(DECIDE_ATTRS, rng.randint(1, 3))
        return fmt_multiset({n: rng.randint(1, 2) for n in names})

    rules = [f"{side()} -> {side()}" for _ in range(rng.randint(1, 6))]
    return "\n".join(rules) + "\n", f"{side()} -> {side()}"


def branching_instance(i: int) -> Tuple[str, str, int]:
    """Narrow branching theory plus a query proved by a random rewrite walk.

    4-6 attributes, 5-9 rules; the query rewrites a random start multiset
    along a walk of 6-14 steps and asks for its end, so it is provable by
    construction.  Walks that get stuck early are redrawn.
    """
    rng = random.Random(f"prove-deep:{i}")
    while True:
        names = [f"x{k}" for k in range(rng.randint(4, 6))]

        def side(lo: int, hi: int) -> Counter:
            return Counter(rng.choice(names) for _ in range(rng.randint(lo, hi)))

        rules = []
        for _ in range(rng.randint(5, 9)):
            ant, con = side(1, 2), side(1, 3)
            if ant != con and (ant, con) not in rules:
                rules.append((ant, con))
        start = side(2, 4)
        w = Counter(start)
        length = rng.randint(6, 14)
        for _ in range(length):
            usable = [r for r in rules if all(w[k] >= v for k, v in r[0].items())]
            if not usable:
                break
            ant, con = rng.choice(usable)
            w = w - ant + con
        else:
            theory = "".join(f"{fmt_multiset(a)} -> {fmt_multiset(c)}\n" for a, c in rules)
            return theory, f"{fmt_multiset(start)} -> {fmt_multiset(w)}", length


def load_corpus() -> dict:
    with open(CORPUS_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def round_quotas(labels: str, size: int) -> Dict[str, int]:
    """Ops per round for each label: about ``size`` in all, in corpus
    proportion, and at least one of every label."""
    counts = Counter(labels)
    return {lab: max(1, round(n * size / len(labels))) for lab, n in sorted(counts.items())}


class StratifiedDraw:
    """Draw ids label by label without replacement, reshuffling when spent."""

    def __init__(self, labels: str, rng: random.Random):
        self.rng = rng
        self.pools: Dict[str, List[int]] = {}
        for i, lab in enumerate(labels):
            self.pools.setdefault(lab, []).append(i)
        self.queues: Dict[str, List[int]] = {lab: [] for lab in self.pools}

    def take(self, label: str) -> int:
        queue = self.queues[label]
        if not queue:
            queue.extend(self.pools[label])
            self.rng.shuffle(queue)
        return queue.pop()


# =====================================================================
# decide-mix
# =====================================================================


# Sized so the rarest cost class (calls that spend the whole proof budget
# and sweep every algebra) gets one op per round.
DECIDE_PER_ROUND = 500


class DecideMix:
    """Library ``mfdlogic.decide`` with default budgets on small theories."""

    name = "decide-mix"

    def __init__(self, seed: int, workdir: str):
        labels = load_corpus()["decide-mix"]["labels"]
        self.quotas = round_quotas(labels, DECIDE_PER_ROUND)
        self.draw = StratifiedDraw(labels, random.Random(f"{seed}:decide-mix"))
        self.rng = random.Random(f"{seed}:decide-mix:order")

    def make_round(self, index: int) -> List[Op]:
        ops = []
        for label, quota in self.quotas.items():
            for _ in range(quota):
                i = self.draw.take(label)
                theory, query = decide_mix_instance(i)
                ops.append(Op(f"class-{label}", (), theory, query,
                              {"corpus_id": i, "label": label}))
        self.rng.shuffle(ops)
        return ops


# =====================================================================
# prove-deep
# =====================================================================

# Rewrite paths of ~1000 steps and more overflow the recursive certificate
# code, so the counter ladder spans both sides of that limit.
COUNTER_LADDER = (150, 450, 800, 1150)
# Chain-with-distractor widths.  The sweep allocates one million-entry
# column per attribute, so the middle rung sets the peak memory; 64 and
# more attributes overflow the sweep's index arithmetic.
WIDE_LADDER = ((30, 40), (58, 62), (64, 80))
BRANCHING_PER_ROUND = 220
GROWTH_RULES = 50


def counter_op(rng: random.Random, rung: int) -> Tuple[str, str, int]:
    """``a b -> b b`` with query ``a^n b -> b^(n+1)``: an n-step line."""
    n = max(2, round(rung * rng.uniform(0.92, 1.08)))
    a, b = rng.sample(["a", "b", "p", "q", "u", "v"], 2)
    theory = f"{a} {b} -> {b} {b}\n"
    return theory, f"{fmt_multiset({a: n, b: 1})} -> {fmt_multiset({b: n + 1})}", n


def wide_chain_op(rng: random.Random, lo: int, hi: int) -> Tuple[str, str, int]:
    """A chain ``c0 -> c1 -> ... -> ck`` plus distractor rules on other
    attributes that never fire from the query but widen the model sweep."""
    width = rng.randint(lo, hi)
    chain_len = rng.randint(width // 3, width // 2)
    pool = [f"w{k}" for k in range(width)]
    rng.shuffle(pool)
    chain, rest = pool[: chain_len + 1], pool[chain_len + 1 :]
    rules = [f"{chain[k]} -> {chain[k + 1]}" for k in range(chain_len)]
    for k in range(len(rest)):
        x, y = rest[k], rest[(k + 1) % len(rest)]
        rules.append(f"{x} {y} -> {rest[(k + 2) % len(rest)]}")
    rng.shuffle(rules)
    return "\n".join(rules) + "\n", f"{chain[0]} -> {chain[-1]}", width


def growth_chain_op(rng: random.Random) -> Tuple[str, str, int]:
    """Non-contracting theory whose every rule keeps firing: ``g_k -> g_k g_k+1``
    along a chain plus growth rules onto side attributes.  ``member`` says
    provable at once; breadth-first certificate search drowns in branching."""
    chain_len = rng.randint(36, 44)
    side = [f"s{k}" for k in range(6)]
    rules = [f"g{k} -> g{k} g{k + 1}" for k in range(chain_len)]
    while len(rules) < GROWTH_RULES:
        k = rng.randint(0, chain_len)
        rule = f"g{k} -> g{k} {rng.choice(side)}"
        if rule not in rules:
            rules.append(rule)
    rng.shuffle(rules)
    return "\n".join(rules) + "\n", f"g0 -> g{chain_len}", chain_len


class ProveDeep:
    """In-process ``mfd decide THEORY QUERY --json`` on provable queries."""

    name = "prove-deep"

    def __init__(self, seed: int, workdir: str):
        labels = load_corpus()["prove-deep"]["labels"]
        self.quotas = round_quotas(labels, BRANCHING_PER_ROUND)
        self.draw = StratifiedDraw(labels, random.Random(f"{seed}:prove-deep"))
        self.rng = random.Random(f"{seed}:prove-deep:slices")
        self.workdir = workdir

    def _op(self, kind: str, theory: str, query: str, tag: str, expect: dict) -> Op:
        path = os.path.join(self.workdir, f"{tag}.theory")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(theory)
        return Op(kind, ("decide", path, query, "--json"), theory, query, expect)

    def make_round(self, index: int) -> List[Op]:
        branching = []
        for label, quota in self.quotas.items():
            for _ in range(quota):
                i = self.draw.take(label)
                theory, query, steps = branching_instance(i)
                branching.append(self._op("branching", theory, query,
                                          f"r{index}-b{len(branching)}",
                                          {"corpus_id": i, "label": label, "walk": steps}))
        self.rng.shuffle(branching)
        # The minority slices go at fixed, evenly spaced positions in a fixed
        # order: the first large allocations of a process are slower (the
        # allocator is still growing), and a seed must not decide which op
        # pays for that.
        heavy = []
        for k, rung in enumerate(COUNTER_LADDER):
            theory, query, n = counter_op(self.rng, rung)
            heavy.append(self._op("counter", theory, query, f"r{index}-c{n}", {"n": n}))
            if k < len(WIDE_LADDER):
                theory, query, width = wide_chain_op(self.rng, *WIDE_LADDER[k])
                heavy.append(self._op("wide", theory, query, f"r{index}-w{width}",
                                      {"attributes": width}))
        theory, query, length = growth_chain_op(self.rng)
        heavy.append(self._op("growth", theory, query, f"r{index}-g", {"chain": length}))
        gap = len(branching) // len(heavy)
        ops = []
        for k, op in enumerate(heavy):
            ops.extend(branching[k * gap : (k + 1) * gap])
            ops.append(op)
        ops.extend(branching[len(heavy) * gap :])
        return ops


# =====================================================================
# relation-check
# =====================================================================
#
# Every table has a base attribute x and two attributes y = f(x) and
# u = g(x) whose similarity is never below x's, so a formula with x in the
# antecedent and the single attribute y (or u) as consequent holds on every
# pair: the antecedent degree is at most x's degree under any t-norm (min
# is the largest), and that is at most y's.  Unit-interval tables use
# integer x with y = x / 2 and u = (1000 - x) / 2 (exact in binary) under
# exp_euclidean with one constant; finite tables use ``equality`` on x, so
# distinct x give the bottom element, and table similarities on y and u.
# A theory is one or two holding formulas ``x.. -> y``, then
#   * nothing (the relation models the theory: full n^2 scans), or
#   * a late violation ``x.. -> u``: the last two rows agree on every
#     antecedent attribute but the last row's u is off, so the first
#     failing pair in row-major order is (n-2, n-1), or
#   * an early violation ``y -> x``: rows 0 and 1 differ in x but not (much)
#     in y, so it fails at (0, 1).

REL_ALGEBRAS = ("product", "min", "lukasiewicz", "chain3", "square4")
REL_ROWS = (20, 40, 80, 160)
REL_ENDINGS = ("holds", "late", "early")

FINITE_ALGEBRAS = {
    # three-element Lukasiewicz chain 0 < h < 1
    "chain3": {
        "elements": ["0", "h", "1"], "unit": "1",
        "leq": [[True, True, True], [False, True, True], [False, False, True]],
        "times": [["0", "0", "0"], ["0", "0", "h"], ["0", "h", "1"]],
    },
    # Boolean square 0 < a, b < 1 with meet as product
    "square4": {
        "elements": ["0", "a", "b", "1"], "unit": "1",
        "leq": [[True, True, True, True], [False, True, False, True],
                [False, False, True, True], [False, False, False, True]],
        "times": [["0", "0", "0", "0"], ["0", "a", "0", "a"],
                  ["0", "0", "b", "b"], ["0", "a", "b", "1"]],
    },
}


def _finite_relation(rng: random.Random, algebra: str, n: int, late: bool) -> dict:
    elements = FINITE_ALGEBRAS[algebra]["elements"]
    unit, bottom = elements[-1], elements[0]
    labels = [f"l{k}" for k in range(6)]

    def table() -> list:
        return [[unit if i == j else rng.choice(elements) for j in range(6)] for i in range(6)]

    y_table, u_table, z_table = table(), table(), table()
    tokens = [f"t{k}" for k in range(max(4, n // 3))]
    f = {t: rng.choice(labels) for t in tokens + ["tlast"]}
    g = {t: rng.randrange(6) for t in tokens + ["tlast"]}
    f["t1"] = f["t0"]                      # rows 0 and 1: same y, other x
    xs = ["t0", "t1"] + [rng.choice(tokens[2:]) for _ in range(n - 4)] + ["tlast", "tlast"]
    z = [rng.choice(labels) for _ in range(n - 1)]
    z.append(z[-1])
    rows = [[x, f[x], labels[g[x]], zz] for x, zz in zip(xs, z)]
    if late:
        k = g["tlast"]
        u_table[k][(k + 1) % 6] = bottom
        rows[-1][2] = labels[(k + 1) % 6]
    return {
        "algebra": FINITE_ALGEBRAS[algebra],
        "scheme": ["x", "y", "u", "z"],
        "domains": {a: "token" for a in ("x", "y", "u", "z")},
        "similarity": {
            "x": {"kind": "equality", "bottom": bottom},
            "y": {"kind": "table", "labels": labels, "values": y_table},
            "u": {"kind": "table", "labels": labels, "values": u_table},
            "z": {"kind": "table", "labels": labels, "values": z_table},
        },
        "tuples": rows,
    }


def _unit_relation(rng: random.Random, algebra: str, n: int, late: bool) -> dict:
    xs = rng.sample(range(1000), n - 2) + [5000, 5001]
    zv = [(rng.randint(0, 999), [rng.randint(0, 999), rng.randint(0, 999)])
          for _ in range(n - 1)]
    zv.append(zv[-1])
    rows = [[x, x / 2, (1000 - x) / 2, z, v] for x, (z, v) in zip(xs, zv)]
    if late:
        rows[-1][2] = -2300.0              # u = (1000 - x) / 2 would be -2000.5
    return {
        "algebra": algebra,
        "scheme": ["x", "y", "u", "z", "v"],
        "domains": {"x": "scalar", "y": "scalar", "u": "scalar", "z": "scalar",
                    "v": "vector2"},
        "similarity": {a: {"kind": "exp_euclidean", "c": 2} for a in "xyuzv"},
        "tuples": rows,
    }


def relation_case(rng: random.Random, algebra: str, n: int, ending: str, holding: int):
    """(relation document, theory text, expected outcome with pairs scanned)."""
    finite = algebra in FINITE_ALGEBRAS
    make = _finite_relation if finite else _unit_relation
    doc = make(rng, algebra, n, ending == "late")
    extra = ["z"] if finite else ["z", "v"]

    def antecedent(shape: int, mult: int) -> str:
        # fixed shapes, so the work per pair does not depend on the seed
        ant = {a: mult for a in extra[: shape % (len(extra) + 1)]}
        ant["x"] = mult
        return fmt_multiset(ant)

    formulas = [f"{antecedent(k, 1 + k % 2)} -> y" for k in range(holding)]
    expect = {"models": True, "pairs": holding * n * n}
    if ending == "late":
        formulas.append(f"{antecedent(holding + 1, 1)} -> u")
        expect = {"models": False, "formula": formulas[-1], "pair": [n - 2, n - 1],
                  "pairs": holding * n * n + (n - 2) * n + n}
    elif ending == "early":
        formulas.append("y -> x")
        expect = {"models": False, "formula": "y -> x", "pair": [0, 1],
                  "pairs": holding * n * n + 2}
    return doc, "\n".join(formulas) + "\n", expect


class RelationCheck:
    """In-process ``mfd check RELATION THEORY --json`` on built tables."""

    name = "relation-check"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def make_round(self, index: int) -> List[Op]:
        rng = random.Random(f"{self.seed}:relation-check:{index}")
        ops = []
        k = 0
        for algebra in REL_ALGEBRAS:
            for n in REL_ROWS:
                for ending in REL_ENDINGS:
                    holding = 1 + k % 2
                    k += 1
                    doc, theory, expect = relation_case(rng, algebra, n, ending, holding)
                    stem = os.path.join(self.workdir, f"r{index}-{k}")
                    with open(stem + ".json", "w", encoding="utf-8") as fh:
                        json.dump(doc, fh)
                    with open(stem + ".theory", "w", encoding="utf-8") as fh:
                        fh.write(theory)
                    expect.update(algebra=algebra, rows=n, ending=ending)
                    ops.append(Op(f"{algebra}-{ending}",
                                  ("check", stem + ".json", stem + ".theory", "--json"),
                                  theory, None, expect))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (DecideMix, ProveDeep, RelationCheck)}
