"""Independent reference implementations used as test oracles.

Everything here recomputes results through a different route than the
library: reachability walks on plain Counters, scalar model checks by
exhaustive iteration, and raw filtering enumeration of small algebras.
Keeping them separate from the package under test is the point.
"""

import itertools
from collections import Counter, deque

from mfdlogic import Evaluation, FinitePomonoid, is_model, satisfies

# =====================================================================
# Exhaustive model checking over small algebras
# =====================================================================


def all_evaluations(algebra, variables):
    """Every assignment of algebra elements to the given attribute names."""
    variables = sorted(variables)
    for combo in itertools.product(range(algebra.size), repeat=len(variables)):
        yield Evaluation(algebra, dict(zip(variables, combo)))


def holds_in_all_models(theory, query, algebras):
    """Brute force: no evaluation over any of the algebras models the
    theory while refuting the query."""
    variables = sorted(set(theory.variables) | set(query.variables))
    for algebra in algebras:
        for e in all_evaluations(algebra, variables):
            if is_model(e, theory) and not satisfies(e, query):
                return False
    return True


def find_refuting_evaluation(theory, query, algebras):
    """First (algebra, evaluation) refutation by plain scalar iteration."""
    variables = sorted(set(theory.variables) | set(query.variables))
    for algebra in algebras:
        for e in all_evaluations(algebra, variables):
            if is_model(e, theory) and not satisfies(e, query):
                return algebra, e
    return None


def downsets(leq):
    """Every downset of a finite order as a frozenset, by size and then
    sorted members, found by testing all 2^n subsets."""
    n = len(leq)
    subsets = (frozenset(x for x in range(n) if bits >> x & 1) for bits in range(1 << n))
    found = [s for s in subsets if all(y in s for x in s for y in range(n) if leq[y][x])]
    return sorted(found, key=lambda s: (len(s), sorted(s)))


# =====================================================================
# Rewriting reachability on Counters
# =====================================================================


def reachable_counters(rules, start, limit=100_000):
    """All multisets reachable from start, as a set of sorted item tuples.

    ``rules`` is a list of (antecedent Counter, consequent Counter); a rule
    fires on w when its antecedent fits inside, replacing it by the
    consequent.  Raises if the reachable set exceeds the limit, so callers
    only use this on theories whose rewrite graph is finite.
    """

    def key(c):
        return tuple(sorted((a, n) for a, n in c.items() if n))

    seen = {key(start)}
    stack = [start]
    while stack:
        w = stack.pop()
        for ant, con in rules:
            if all(w[a] >= n for a, n in ant.items()):
                nxt = w - ant + con
                k = key(nxt)
                if k not in seen:
                    if len(seen) >= limit:
                        raise RuntimeError("reachable set exceeded the oracle limit")
                    seen.add(k)
                    stack.append(nxt)
    return seen


def theory_to_counter_rules(theory):
    return [
        (Counter(dict(f.antecedent.items())), Counter(dict(f.consequent.items())))
        for f in theory.distinct_formulas()
    ]


def counter_provable(theory, query, limit=100_000):
    """Reachability answer to provability, fully independent of the BFS.

    Breadth-first with an early goal check, so it terminates on growing
    rule systems as long as the goal is shallow.  Raises when the limit is
    hit without an answer; a plain False means the graph was exhausted.
    """
    rules = theory_to_counter_rules(theory)
    start = Counter(dict(query.antecedent.items()))
    goal = Counter(dict(query.consequent.items()))

    def key(c):
        return tuple(sorted((a, n) for a, n in c.items() if n))

    def covers(c):
        return all(c[a] >= n for a, n in goal.items())

    seen = {key(start)}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        if covers(w):
            return True
        for ant, con in rules:
            if all(w[a] >= n for a, n in ant.items()):
                nxt = w - ant + con
                k = key(nxt)
                if k not in seen:
                    if len(seen) >= limit:
                        raise RuntimeError("oracle search limit exceeded")
                    seen.add(k)
                    queue.append(nxt)
    return False


def bfs_events(theory, query, budget):
    """The event stream ``entail._bfs_engine`` must yield, on Counters.

    The same layered search: rules in ``distinct_formulas`` order, each
    layer's nodes first in, first out, the first discoverer as parent, and
    the budget spent when a node is stored.  A proof comes as ("proved",
    start, steps) with one (rule, remainder, result) of Counters per step.
    """
    rules = [(f, ant, con) for f, (ant, con) in
             zip(theory.distinct_formulas(), theory_to_counter_rules(theory))]
    start = Counter(dict(query.antecedent.items()))
    goal = Counter(dict(query.consequent.items()))

    def key(c):
        return tuple(sorted((a, n) for a, n in c.items() if n))

    def covers(c):
        return all(c[a] >= n for a, n in goal.items())

    def proved(k):
        steps = []
        while parent[k] is not None:
            k, step = parent[k]
            steps.append(step)
        return [("proved", start, steps[::-1])]

    events = []
    parent = {key(start): None}
    if covers(start):
        return proved(key(start))
    if budget < 1:
        return [("budget", 0)]
    nodes = 1
    frontier = [start]
    while frontier:
        next_frontier = []
        for w in frontier:
            for f, ant, con in rules:
                if any(w[a] < n for a, n in ant.items()):
                    continue
                remainder = w - ant
                nxt = remainder + con
                k = key(nxt)
                if k in parent:
                    continue
                if nodes >= budget:
                    return events + [("budget", nodes)]
                parent[k] = (key(w), (f, remainder, nxt))
                nodes += 1
                if covers(nxt):
                    return events + proved(k)
                next_frontier.append(nxt)
        events.append(("layer", nodes))
        frontier = next_frontier
    return events + [("exhausted", nodes)]


# =====================================================================
# Raw enumeration of small pomonoids by filtering
# =====================================================================


def canonical_form(algebra):
    """Joint brute-force canonical form: the minimal (flattened leq,
    flattened relabeled times) pair over every relabeling, where new
    position i holds old element perm[i]."""
    n = algebra.size
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for pos, orig in enumerate(perm):
            inv[orig] = pos
        leq = tuple(
            algebra.leq_table[perm[i]][perm[j]] for i in range(n) for j in range(n)
        )
        times = tuple(
            inv[algebra.times_table[perm[i]][perm[j]]] for i in range(n) for j in range(n)
        )
        if best is None or (leq, times) < best:
            best = (leq, times)
    return best


def brute_force_pomonoid_forms(n):
    """Canonical forms of every pomonoid on n elements, by raw filtering.

    Iterates all reflexive relations, keeps the partial orders with a
    greatest element, then all commutative unit-respecting tables whose
    entries sit below both arguments, keeps the associative monotone ones,
    and collects canonical forms.  Exponential, fine for n <= 4.
    """
    forms = set()
    names = tuple(f"x{i}" for i in range(n))
    off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((False, True), repeat=len(off_diag)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), b in zip(off_diag, bits):
            leq[i][j] = b
        if any(leq[i][j] and leq[j][i] for i, j in off_diag):
            continue
        if any(
            leq[i][j] and leq[j][k] and not leq[i][k]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ):
            continue
        tops = [j for j in range(n) if all(leq[i][j] for i in range(n))]
        if not tops:
            continue
        unit = tops[0]
        cells = [
            (i, j)
            for i in range(n)
            for j in range(i, n)
            if i != unit and j != unit
        ]
        cand = [
            [v for v in range(n) if leq[v][i] and leq[v][j]] for (i, j) in cells
        ]
        for combo in itertools.product(*cand):
            t = [[None] * n for _ in range(n)]
            for x in range(n):
                t[unit][x] = x
                t[x][unit] = x
            for (i, j), v in zip(cells, combo):
                t[i][j] = v
                t[j][i] = v
            if any(
                t[t[a][b]][c] != t[a][t[b][c]]
                for a in range(n)
                for b in range(n)
                for c in range(n)
            ):
                continue
            if any(
                leq[a][b] and not leq[t[a][c]][t[b][c]]
                for a in range(n)
                for b in range(n)
                for c in range(n)
            ):
                continue
            forms.add(canonical_form(FinitePomonoid(names, unit, leq, t)))
    return forms


def brute_force_chain_forms(n):
    """Canonical forms of the pomonoids whose order is the n-chain."""
    names = tuple(f"x{i}" for i in range(n))
    leq = [[i <= j for j in range(n)] for i in range(n)]
    unit = n - 1
    cells = [(i, j) for i in range(n - 1) for j in range(i, n - 1)]
    cand = [list(range(min(i, j) + 1)) for (i, j) in cells]
    forms = set()
    for combo in itertools.product(*cand):
        t = [[None] * n for _ in range(n)]
        for x in range(n):
            t[unit][x] = x
            t[x][unit] = x
        for (i, j), v in zip(cells, combo):
            t[i][j] = v
            t[j][i] = v
        if any(
            t[t[a][b]][c] != t[a][t[b][c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        ):
            continue
        if any(
            not (t[a][c] <= t[b][c])
            for a in range(n)
            for b in range(a, n)
            for c in range(n)
        ):
            continue
        forms.add(canonical_form(FinitePomonoid(names, unit, leq, t)))
    return forms


# =====================================================================
# Classical functional dependency closure on frozensets
# =====================================================================


def classical_closure(fds, start):
    """Textbook attribute-set closure; fds is a list of (set, set) pairs."""
    closure = set(start)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in fds:
            if lhs <= closure and not rhs <= closure:
                closure |= rhs
                changed = True
    return closure
