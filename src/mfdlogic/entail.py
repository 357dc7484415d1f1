"""Entailment engine: prove, refute, or give up within budget.

Provability of ``A -> B`` is reachability in a rewrite graph on multisets:
a theory rule ``E -> F`` rewrites W into F X whenever W = E X.  The prover
runs breadth-first search from A looking for any multiset containing B and
reconstructs a checkable certificate from the path.  The refuter sweeps
evaluations over exhaustively enumerated finite pomonoids, smallest first,
until one models the theory but not the query.  ``decide`` interleaves the
two on equal shares of time, a BFS layer or a sweep tile per step, so it
costs at most about twice the engine that answers, plus one tile, except
when the theory is non-contracting: there the member procedure answers yes
or no outright, and a yes is certified from the rule firings of a second
saturation run, ``member_trace``'s (a single run waits on ROADMAP item 5),
with no search at all.  Once the sweep has covered every algebra up to the
size cap, ``decide`` computes the backward coverability basis of the query
consequent; if the antecedent lies outside its upward closure, that basis is
an inductive invariant showing the query unprovable, and the BFS stops.

Each query is compiled once (``_compile``, a ``formula._CountVectors``):
the BFS, the saturation path and the basis rewrite its count tuples, the
BFS packed into one int per state, the sweep reads its attribute order, and
one replay turns the fired rules into a :class:`RewritePath`.  Both
searches are budgeted; when neither side settles the verdict is Unknown
and carries the spent budgets.
Proofs found are always re-checked, countermodels re-evaluated through
the plain scalar semantics, and invariants re-checked with multiset
arithmetic (``proofs.check_invariant``) before being reported.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, fields
from itertools import chain
from time import perf_counter
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import (
    Evaluation,
    FinitePomonoid,
    _as_int,
    _check_size,
    enumerate_pomonoids,
    is_model,
    satisfies,
)
from .formula import (
    TOP,
    AttributeMultiset,
    Mfd,
    Theory,
    _CountVectors,
    _pack,
    divides,
    format_mfd,
    format_multiset,
    is_non_contracting_theory,
)
from .member import member, member_trace
from .proofs import (
    AxInstance,
    Cut,
    Hyp,
    ProofError,
    ProofTree,
    check_invariant,
    check_proof,
    derive_pro,
    derive_ref,
)

__all__ = [
    "RewriteStep",
    "RewritePath",
    "Budgets",
    "BudgetReport",
    "Proved",
    "Refuted",
    "Unknown",
    "Verdict",
    "rewrite_successors",
    "bfs_prove",
    "certificate_from_path",
    "find_countermodel",
    "decide",
    "deduction_witness",
    "classical_entails",
]


@dataclass(frozen=True)
class RewriteStep:
    """One rewrite: rule E -> F applied with remainder X gives F X."""

    rule: Mfd
    remainder: AttributeMultiset
    result: AttributeMultiset


@dataclass(frozen=True)
class RewritePath:
    start: AttributeMultiset
    steps: Tuple[RewriteStep, ...]

    @property
    def end(self) -> AttributeMultiset:
        return self.steps[-1].result if self.steps else self.start

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Budgets:
    """Search limits: BFS nodes (contracting theories only: ``decide`` runs
    no BFS on a non-contracting one), model evaluations and largest algebra.

    Checked when built, so the theory and query never decide whether a
    limit is valid: each field must be an int (an integer type such as
    ``numpy.int64`` is stored as its int), else TypeError; a negative count,
    or a size outside 1..ENUMERATION_SIZE_CAP, is a ValueError."""

    bfs_nodes: int = 100_000
    model_evals: int = 1_000_000
    max_algebra_size: int = 5

    def __post_init__(self):
        for field in fields(self):
            value = _as_int(getattr(self, field.name), field.name)
            if value < 0:
                raise ValueError(f"{field.name} must not be negative, got {value}")
            object.__setattr__(self, field.name, value)
        _check_size(self.max_algebra_size, "max_algebra_size")


@dataclass(frozen=True)
class BudgetReport:
    """What an inconclusive run spent and whether either space was finished."""

    bfs_nodes_used: int = 0
    bfs_exhausted: bool = False
    model_evals_used: int = 0
    algebras_scanned: int = 0
    models_exhausted: bool = False


@dataclass(frozen=True)
class Proved:
    query: Mfd
    path: RewritePath
    certificate: ProofTree


@dataclass(frozen=True)
class Refuted:
    query: Mfd
    method: str  # "countermodel", "member-algorithm" or "invariant"
    algebra: Optional[FinitePomonoid] = None
    evaluation: Optional[Evaluation] = None
    # the basis of an "invariant" refutation, as checked by check_invariant
    invariant: Optional[Tuple[AttributeMultiset, ...]] = None


@dataclass(frozen=True)
class Unknown:
    query: Mfd
    report: BudgetReport


Verdict = Union[Proved, Refuted, Unknown]


# =====================================================================
# Rewriting and the BFS prover
# =====================================================================


def rewrite_successors(
    w: AttributeMultiset, theory: Theory
) -> List[RewriteStep]:
    """All one-step rewrites of w, in theory order."""
    out = []
    for f in theory.distinct_formulas():
        x = divides(f.antecedent, w)
        if x is not None:
            out.append(RewriteStep(f, x, f.consequent.union(x)))
    return out


def _compile(theory: Theory, query: Mfd) -> _CountVectors:
    """The theory compiled over the attributes of theory and query, the one
    index every engine of a query rewrites, sweeps and replays on."""
    return _CountVectors(theory.variables | query.variables, theory.distinct_formulas())


def _replay(space: _CountVectors, start: AttributeMultiset, rules: Sequence[tuple]) -> RewritePath:
    """The path firing the compiled ``rules`` of ``space`` in turn from ``start``."""
    w, steps = space.vec(start), []
    for f, ant, gain in rules:
        remainder = space.unvec(tuple(c - a for c, a in zip(w, ant)))
        w = tuple(c + g for c, g in zip(w, gain))
        steps.append(RewriteStep(f, remainder, space.unvec(w)))
    return RewritePath(start, tuple(steps))


def _walk_back(start: AttributeMultiset, end, parents: dict, space: _CountVectors) -> RewritePath:
    """The path from ``start`` to the state ``end`` of a BFS: ``parents``
    maps each state but the start to its first rule and that rule's gain."""
    fired = []
    while parents[end] is not None:
        entry, gain = parents[end]
        fired.append(entry)
        end -= gain
    return _replay(space, start, fired[::-1])


def _bfs_engine(space: _CountVectors, query: Mfd, budget: int) -> Iterator[tuple]:
    """Layered BFS from the query antecedent over the compiled ``space``.

    Yields ("layer", nodes) after each finished depth, then exactly one of
    ("proved", path), ("exhausted", nodes) or ("budget", nodes).  A start
    that already covers the goal is proved by the empty path at any budget.

    A state is one int holding the counts of ``space`` in
    fields of ``width`` bits; the top bits of the fields, the guards G, stay
    0.  E fits under W exactly when W + (G - E) keeps every guard set: no field
    of the sum leaves ``[0, 2**width)``, so none borrows from or carries into
    the next, as long as W and E count below 2**(width-1).  The width puts
    every start, goal and antecedent count below that bound, and so every
    state the search builds: it lies at some depth d <= budget and counts at
    most the start plus d times the largest gain.
    Each node's parent entry is the compiled rule that first reached it and
    that rule's packed gain, so the predecessor is the node minus the gain.
    """
    start = query.antecedent
    start_v = space.vec(start)
    goal_v = space.vec(query.consequent)

    if all(g <= w for g, w in zip(goal_v, start_v)):
        yield ("proved", _walk_back(start, start_v, {start_v: None}, space))
        return
    if budget < 1:
        yield ("budget", 0)
        return
    top = max(chain(start_v, goal_v, *(ant for _, ant, _ in space.rules)))
    grow = max(chain((0,), *(gain for _, _, gain in space.rules)))
    width = (top + budget * grow).bit_length() + 1
    guards = _pack((1 << width - 1,) * len(start_v), width)
    goal = guards - _pack(goal_v, width)
    rules = []
    for entry in space.rules:
        gain = _pack(entry[2], width)
        rules.append((guards - _pack(entry[1], width), gain, (entry, gain)))

    root = _pack(start_v, width)
    parents: dict = {root: None}
    nodes = 1
    frontier = [root]
    while frontier:
        next_frontier = []
        for w in frontier:
            for need, gain, record in rules:
                if (w + need) & guards != guards:
                    continue
                nxt = w + gain
                if nxt in parents:
                    continue
                if nodes >= budget:
                    yield ("budget", nodes)
                    return
                parents[nxt] = record
                nodes += 1
                if (nxt + goal) & guards == guards:
                    yield ("proved", _walk_back(start, nxt, parents, space))
                    return
                next_frontier.append(nxt)
        yield ("layer", nodes)
        frontier = next_frontier
    yield ("exhausted", nodes)


def certificate_from_path(query: Mfd, path: RewritePath) -> ProofTree:
    """Expand a rewrite path into an axiom/cut tree concluding the query.

    Start from A -> A, rewrite the consequent along each step using the
    fired rule as hypothesis, and finally project down to the query
    consequent.  Each step's two cuts are ``derive_rwt``'s, built from the
    path's own multisets (the state before the step and its result), so
    the tree shares them with the path.  A step whose rule does not take
    the state before it to its result raises :class:`ProofError`.
    """
    start = before = path.start
    tree = derive_ref(start)
    for step in path.steps:
        rule, after = step.rule, step.result
        rest = divides(rule.antecedent, before)
        if rest is None or rule.consequent.union(rest) != after:
            raise ProofError(f"step {format_mfd(rule)} does not rewrite "
                             f"{format_multiset(before)} to {format_multiset(after)}")
        # the rule augmented by the rest, then chained after the tree so far
        augmented = Cut(Hyp(rule), AxInstance(TOP, after), Mfd(before, after))
        tree = Cut(tree, augmented, Mfd(start, after))
        before = after
    return derive_pro(tree, query.consequent)


def _proved(theory: Theory, query: Mfd, path: RewritePath) -> Proved:
    """The verdict for a path that proves the query, its certificate checked."""
    cert = certificate_from_path(query, path)
    check_proof(cert, theory)
    return Proved(query, path, cert)


def bfs_prove(theory: Theory, query: Mfd, budget: int = Budgets.bfs_nodes) -> Verdict:
    """Search for a proof; Proved with certificate, else Unknown.

    Unknown covers both budget exhaustion and a fully explored finite
    rewrite graph (the report distinguishes them); this function never
    claims refutation.  The budget is checked as ``Budgets.bfs_nodes``.
    """
    budget = Budgets(bfs_nodes=budget).bfs_nodes
    for kind, found in _bfs_engine(_compile(theory, query), query, budget):
        pass  # one event per layer: keep only the last
    if kind == "proved":
        return _proved(theory, query, found)
    return Unknown(query, BudgetReport(found, kind == "exhausted"))


# =====================================================================
# Countermodel search
# =====================================================================


# Evaluations per tile of the model sweep: what a sweep holds at once is a
# few arrays of at most this many elements, whatever the budget.
_TILE_EVALS = 1 << 14

# The low digit columns of a tile, keyed by (algebra size s, digits m): the
# m base-s digits of 0 .. s**m - 1, as read-only arrays.  Every tile is
# computed whole, so one entry per key serves every budget.
_DIGIT_COLUMNS: dict = {}


def _tile_columns(s: int, m: int) -> tuple:
    """The cached low digit columns of a tile of s**m evaluations."""
    columns = _DIGIT_COLUMNS.get((s, m))
    if columns is None:
        grid = np.indices((s,) * m, dtype=np.int64).reshape(m, s**m)
        grid.flags.writeable = False
        columns = _DIGIT_COLUMNS[s, m] = tuple(grid)
    return columns


def _tile_digits(s: int, k: int) -> int:
    """The m low digits that vary within a tile of the sweep over k
    variables of an algebra of size s: s**m is the largest power of s
    within ``_TILE_EVALS``, and at most s**k."""
    m = 0
    while m < k and s ** (m + 1) <= _TILE_EVALS:
        m += 1
    return m


def _sweep_algebra(
    algebra: FinitePomonoid,
    formulas: Sequence[Mfd],
    query: Mfd,
    variables: Sequence[str],
    limit: int,
    *,
    start: int = 0,
) -> Tuple[Optional[tuple], int]:
    """Vectorized scan of evaluations of one algebra, in lexicographic
    order of element indices (last variable fastest), from the evaluation
    numbered ``start`` on for at most ``limit`` evaluations.  Returns the
    element indices of the first refuting evaluation (or None) and how many
    evaluations were swept.

    The evaluations are covered in tiles of s**m, the largest power of the
    algebra size s within ``_TILE_EVALS`` (``_tile_digits``): the last m
    variables run through the digit columns of ``_tile_columns``, built once
    per (s, m) for the whole process and shared read-only by every algebra
    and call; the others are constant per tile.  ``start`` resumes a sweep
    at a tile boundary, a multiple of s**m, so a caller can step an algebra
    one tile per call.  A tile the limit cuts is computed whole, its hits
    clipped at the limit.  Products and the order are looked up in the
    flattened tables, ``times[x * s + y]`` and ``leq[a * s + b]``.  Powers
    are folded by repeated squaring, exact for the associative tables
    ``enumerate_pomonoids`` yields."""
    s = algebra.size
    k = len(variables)
    end = min(s**k, start + limit)
    if s == 1:
        return None, end - start  # its one evaluation models every formula
    times, leq = (table.ravel() for table in algebra.np_tables())
    m = _tile_digits(s, k)
    tile = s**m
    low = _tile_columns(s, m)

    def degree(ms: AttributeMultiset, columns: dict):
        # a scalar until some factor varies within the tile
        acc = None
        for name, mult in ms.items():
            power = columns[name]
            while mult:
                if mult & 1:
                    acc = power if acc is None else times[acc * s + power]
                mult >>= 1
                if mult:
                    power = times[power * (s + 1)]
        return algebra.unit if acc is None else acc

    for first in range(start, end, tile):
        # the base-s digits of the tile number, most significant first
        high = [first // tile // s**p % s for p in range(k - m - 1, -1, -1)]
        columns = dict(zip(variables, (*high, *low)))
        models = np.ones(tile, dtype=bool)
        for f in formulas:
            models &= leq[degree(f.antecedent, columns) * s + degree(f.consequent, columns)]
            if not models.any():
                break
        else:
            refutes = models & ~leq[degree(query.antecedent, columns) * s
                                    + degree(query.consequent, columns)]
            hits = np.nonzero(refutes[: end - first])[0]
            if hits.size:
                return (*high, *(int(column[hits[0]]) for column in low)), end - start
    return None, end - start


def _countermodel_engine(
    space: _CountVectors, theory: Theory, query: Mfd, max_size: int, budget: int
) -> Iterator[tuple]:
    """Scan enumerated pomonoids smallest-first for a refuting evaluation
    of the attributes of ``space``, in its order, one tile of
    ``_sweep_algebra`` per step.

    Yields ("tile", evals_used, algebras_scanned) after each tile that
    leaves its algebra unfinished and ("algebra", evals_used,
    algebras_scanned) after an algebra's last tile, so no step sweeps more
    than ``_TILE_EVALS`` evaluations; an algebra that fits in one tile takes
    one step.  The algebra being swept counts as scanned.  Ends with one of
    ("refuted", algebra, evaluation, evals, scanned), ("budget", evals,
    scanned) or ("exhausted", evals, scanned).
    """
    variables = space.names
    formulas = theory.distinct_formulas()
    evals_used = 0
    scanned = 0
    for algebra in enumerate_pomonoids(max_size):
        if evals_used >= budget:
            yield ("budget", evals_used, scanned)
            return
        scanned += 1
        total = algebra.size ** len(variables)
        tile = algebra.size ** _tile_digits(algebra.size, len(variables))
        done = 0
        while True:
            hit, swept = _sweep_algebra(algebra, formulas, query, variables,
                                        min(tile, budget - evals_used), start=done)
            done += swept
            evals_used += swept
            if hit is not None:
                e = Evaluation(algebra, dict(zip(variables, hit)))
                # independent scalar re-check of the witness
                if not (is_model(e, theory) and not satisfies(e, query)):
                    raise AssertionError("countermodel failed independent validation")
                yield ("refuted", algebra, e, evals_used, scanned)
                return
            if done == total:
                break
            if evals_used >= budget:
                yield ("budget", evals_used, scanned)
                return
            yield ("tile", evals_used, scanned)
        yield ("algebra", evals_used, scanned)
    yield ("exhausted", evals_used, scanned)


def find_countermodel(
    theory: Theory,
    query: Mfd,
    max_size: int = Budgets.max_algebra_size,
    budget: int = Budgets.model_evals,
) -> Optional[Tuple[FinitePomonoid, Evaluation]]:
    """First (algebra, evaluation) modeling the theory but not the query.

    Deterministic: algebras come in enumeration order, evaluations in
    lexicographic order, so the witness is reproducible.  None means the
    budget or the size cap ran out without a hit.  The limits are checked
    as ``Budgets.max_algebra_size`` and ``Budgets.model_evals``.
    """
    budgets = Budgets(model_evals=budget, max_algebra_size=max_size)
    for event in _countermodel_engine(_compile(theory, query), theory, query,
                                      budgets.max_algebra_size, budgets.model_evals):
        pass
    return event[1:3] if event[0] == "refuted" else None


# =====================================================================
# The coverability basis
# =====================================================================

# Vectors the basis search in ``decide`` may add, replaced ones included:
# bounds its time on queries whose basis keeps growing, such as counters.
_BASIS_CAP = 64


def _coverability_basis(
    space: _CountVectors, start: tuple, goal: tuple, cap: int
) -> Optional[List[tuple]]:
    """The minimal count vectors that rewrite to cover ``goal``, largest
    first; None once ``start`` lies above one (the query is provable), or
    when the search would add a vector beyond the first ``cap``.

    This is the backward minimal-basis search for coverability (Abdulla,
    Cerans, Jonsson & Tsay, LICS 1996): the least vector that the compiled
    rule ``(f, ant, gain)`` takes above m is ``max(ant, m - gain)``.  A
    predecessor above an element is dropped; one that is not replaces the
    elements above it.  No vector added lies above one added before it, so
    the search ends (Dickson's lemma), but only the cap bounds how late: it
    counts every vector added, the goal first and replaced ones too, so a
    cap below 1 gives None at once.  Vectors are expanded smallest total
    first, as a small one replaces more of the others."""
    if cap < 1 or all(map(operator.le, goal, start)):
        return None
    basis = {goal}
    todo = [(sum(goal), 0, goal)]
    added = 1
    while todo:
        m = heapq.heappop(todo)[2]
        if m not in basis:
            continue  # a later vector lies below it, and so do its predecessors
        for _, ant, gain in space.rules:
            p = tuple(map(max, ant, map(operator.sub, m, gain)))
            if any(all(map(operator.le, b, p)) for b in basis):
                continue
            if added == cap or all(map(operator.le, p, start)):
                return None
            basis = {b for b in basis if not all(map(operator.le, p, b))}
            basis.add(p)
            heapq.heappush(todo, (sum(p), added, p))
            added += 1
    return sorted(basis, reverse=True)


# =====================================================================
# The combined decision procedure
# =====================================================================


def _saturation_path(space: _CountVectors, theory: Theory, query: Mfd) -> RewritePath:
    """A rewrite path for a query ``member`` accepts, made of its own firings.

    The firings are walked back with a demand D, first B: a firing E -> F is
    kept if its gain G = F - E meets D, and then D becomes max(D - G, E); the
    walk stops once A covers D.  Rules of a non-contracting theory never
    consume E, so every kept firing still applies when replayed from A.
    """
    compiled = {entry[0]: entry for entry in space.rules}
    # the last firing is the marker rule's
    fired = [f for p in member_trace(theory, query).passes for f in p.fired][:-1]
    have, demand, kept = space.vec(query.antecedent), space.vec(query.consequent), []
    for f in reversed(fired):
        if all(d <= h for d, h in zip(demand, have)):
            break
        _, ant, gain = compiled[f]
        if any(g > 0 and d > 0 for g, d in zip(gain, demand)):
            kept.append(compiled[f])
            demand = tuple(max(d - g, a) for d, g, a in zip(demand, gain, ant))
    return _replay(space, query.antecedent, kept[::-1])


def decide(theory: Theory, query: Mfd, budgets: Budgets = Budgets()) -> Verdict:
    """Prove or refute the query, or report Unknown with spent budgets.

    Non-contracting theories get the definitive fast path: the member
    procedure answers yes/no outright, and a yes is certified from the
    firings of a second saturation run, ``member_trace``'s (a single run
    waits on ROADMAP item 5), with no budget and not always the shortest
    path.  Otherwise the loop below interleaves the prover and the refuter,
    first hit wins, on equal shares of time: each step, one BFS layer or one
    tile of the sweep, at most ``_TILE_EVALS`` evaluations (with the basis
    hook after it), goes to the live engine that has spent less
    ``perf_counter`` time so far, the BFS on a tie.  The engine that does
    not answer spends at most the other's time plus one step of its own, so
    ``decide`` costs at most about twice the engine that answers, plus one
    tile.  When the sweep has covered every algebra up to
    ``budgets.max_algebra_size`` without a countermodel, the coverability
    basis of the consequent is computed, with at most ``_BASIS_CAP`` (64)
    vectors added; if it leaves out the antecedent, the query is refuted by
    that basis (method ``"invariant"``).  If it shows the query provable or
    outgrows its cap, the BFS runs on as before, so every other verdict is
    what it would be without the basis; an Unknown's report counts only what
    the BFS and the sweep spent, read from each engine's last event.  A
    sweep cut short by ``model_evals`` computes no basis.
    """
    space = _compile(theory, query)
    if is_non_contracting_theory(theory):
        if not member(theory, query):
            return Refuted(query, "member-algorithm")
        return _proved(theory, query, _saturation_path(space, theory, query))
    prover = _bfs_engine(space, query, budgets.bfs_nodes)
    refuter = _countermodel_engine(
        space, theory, query, budgets.max_algebra_size, budgets.model_evals
    )
    nodes = evals = scanned = 0
    graph_done = models_done = False
    bfs_s = sweep_s = 0.0
    while prover or refuter:
        start = perf_counter()
        if prover and (bfs_s <= sweep_s or not refuter):
            event = next(prover)
            bfs_s += perf_counter() - start
            if event[0] == "proved":
                return _proved(theory, query, event[1])
            nodes, graph_done = event[1], event[0] == "exhausted"
            if event[0] != "layer":
                prover = None
        else:
            event = next(refuter)
            if event[0] == "refuted":
                return Refuted(query, "countermodel", event[1], event[2])
            evals, scanned, models_done = event[1], event[2], event[0] == "exhausted"
            if event[0] not in ("tile", "algebra"):
                refuter = None
            if models_done:
                basis = _coverability_basis(space, space.vec(query.antecedent),
                                            space.vec(query.consequent), _BASIS_CAP)
                if basis is not None:
                    invariant = tuple(map(space.unvec, basis))
                    check_invariant(invariant, theory, query)
                    return Refuted(query, "invariant", invariant=invariant)
            sweep_s += perf_counter() - start
    return Unknown(query, BudgetReport(nodes, graph_done, evals, scanned, models_done))


def deduction_witness(
    theory: Theory,
    a: AttributeMultiset,
    b: AttributeMultiset,
    n_max: int,
    budgets: Budgets = Budgets(),
) -> Union[int, Unknown, None]:
    """Least n <= n_max with theory proving A^n -> B; None if there is none.

    This is the local deduction property: adding the hypothesis
    ``1 -> A`` proves ``1 -> B`` exactly when some finite power of A
    already implies B.  As A^n -> B gives A^(n+1) -> B, the first n not
    shown unprovable (refuted by a countermodel, the saturation procedure or
    an invariant, or its rewrite graph exhausted) settles the answer: n if
    proved, else its Unknown verdict with the spent budgets.  ``n_max`` is
    checked as a ``Budgets`` count is.
    """
    if _as_int(n_max, "n_max") < 0:
        raise ValueError(f"n_max must not be negative, got {n_max}")
    for n in range(n_max + 1 if a else 1):  # an empty A is each of its powers
        verdict = decide(theory, Mfd(a.power(n), b), budgets)
        if isinstance(verdict, Proved):
            return n
        if isinstance(verdict, Unknown) and not verdict.report.bfs_exhausted:
            return verdict
    return None


def classical_entails(theory: Theory, query: Mfd) -> bool:
    """Classical functional-dependency entailment on attribute sets.

    Multiplicities collapse to supports and the answer is the textbook
    closure computation.
    """
    closure = set(query.antecedent.support)
    changed = True
    while changed:
        changed = False
        for f in theory.distinct_formulas():
            if set(f.antecedent.support) <= closure:
                extra = set(f.consequent.support) - closure
                if extra:
                    closure |= extra
                    changed = True
    return set(query.consequent.support) <= closure
